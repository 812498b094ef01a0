package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value metric dimension.
type Label struct {
	Name  string
	Value string
}

// Registry is a process-wide metric store in the Prometheus data model:
// named families (counter / gauge / histogram) each holding one series
// per label set. Lookup takes the registry mutex; the returned handles
// update atomically, so hot paths should hold on to handles rather than
// re-resolve names. All of it is stdlib-only — WriteText renders the
// Prometheus text exposition format directly.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	gauges   []gaugeFunc
}

type family struct {
	name   string
	help   string
	kind   string // "counter" | "gauge" | "histogram"
	series map[string]any
}

type gaugeFunc struct {
	name   string
	help   string
	labels []Label
	fn     func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) series(name, help, kind string, labels []Label, mk func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
	}
	s := f.series[key]
	if s == nil {
		s = mk()
		f.series[key] = s
	}
	return s
}

// Counter returns (creating on first use) the monotonically increasing
// counter series for the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *CounterMetric {
	return r.series(name, help, "counter", labels, func() any {
		return &CounterMetric{labels: cloneLabels(labels)}
	}).(*CounterMetric)
}

// Gauge returns (creating on first use) the settable gauge series for
// the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *GaugeMetric {
	return r.series(name, help, "gauge", labels, func() any {
		return &GaugeMetric{labels: cloneLabels(labels)}
	}).(*GaugeMetric)
}

// Histogram returns (creating on first use) the log2-bucketed duration
// histogram series for the given labels.
func (r *Registry) Histogram(name, help string, labels ...Label) *HistogramMetric {
	return r.series(name, help, "histogram", labels, func() any {
		return &HistogramMetric{labels: cloneLabels(labels)}
	}).(*HistogramMetric)
}

// GaugeFunc registers a gauge whose value is sampled at scrape time —
// used for live quantities like queue depth that already have an owner.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges = append(r.gauges, gaugeFunc{name: name, help: help, labels: cloneLabels(labels), fn: fn})
}

// CounterMetric is a monotonically increasing uint64.
type CounterMetric struct {
	v      atomic.Uint64
	labels []Label
}

// Inc adds one.
func (c *CounterMetric) Inc() { c.v.Add(1) }

// Add adds n.
func (c *CounterMetric) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *CounterMetric) Value() uint64 { return c.v.Load() }

// GaugeMetric is a settable float64.
type GaugeMetric struct {
	bits   atomic.Uint64
	labels []Label
}

// Set stores v.
func (g *GaugeMetric) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *GaugeMetric) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *GaugeMetric) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of log2 buckets; the last one also takes
// everything at or past 2^39 µs (≈6.4 days), comfortably past any
// request timeout.
const histBuckets = 41

// HistogramMetric is a lock-free log2-bucketed histogram — the one the
// whole serving stack uses, for /v1/stats as for /v1/metrics. An
// observation of d lands in bucket bits.Len64(whole µs of d): bucket 0
// holds [0, 1) µs and bucket i ≥ 1 holds [2^(i-1), 2^i) µs, so 2^i µs
// is bucket i's exclusive upper bound — the value quantiles report and
// the exposition's le label (converted to seconds per Prometheus
// convention). ObserveCount puts counts on the same buckets.
type HistogramMetric struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
	labels  []Label
}

// Observe records one duration.
func (h *HistogramMetric) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
}

// ObserveCount records a count — a batch size, a thread grant — as if
// it were n µs, so bucket i holds counts in [2^(i-1), 2^i) and
// Quantile(q)/time.Microsecond and Sum()/time.Microsecond read counts
// back.
func (h *HistogramMetric) ObserveCount(n int) {
	h.Observe(time.Duration(n) * time.Microsecond)
}

// Count returns the number of observations.
func (h *HistogramMetric) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *HistogramMetric) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Quantile returns the q-quantile (0 < q <= 1) by nearest rank — the
// ceil(q·n)-th smallest observation — reported as the upper bound of the
// bucket holding it. Returns 0 with no observations.
func (h *HistogramMetric) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<uint(histBuckets-1)) * time.Microsecond
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers, one line per series,
// histogram buckets cumulative with +Inf, deterministic ordering so the
// output is diffable and testable.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	gauges := append([]gaugeFunc(nil), r.gauges...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch s := f.series[k].(type) {
			case *CounterMetric:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, renderLabels(s.labels), s.Value())
			case *GaugeMetric:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(s.labels), fmtFloat(s.Value()))
			case *HistogramMetric:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	sort.SliceStable(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	var lastName string
	for _, g := range gauges {
		if g.name != lastName {
			fmt.Fprintf(&b, "# HELP %s %s\n", g.name, g.help)
			fmt.Fprintf(&b, "# TYPE %s gauge\n", g.name)
			lastName = g.name
		}
		fmt.Fprintf(&b, "%s%s %s\n", g.name, renderLabels(g.labels), fmtFloat(g.fn()))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, name string, h *HistogramMetric) {
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue // sparse output: only buckets with observations (plus +Inf)
		}
		cum += n
		le := float64(uint64(1)<<uint(i)) / 1e6 // bucket bound in seconds
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(h.labels, Label{"le", fmtFloat(le)}), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(h.labels, Label{"le", "+Inf"}), h.count.Load())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(h.labels), fmtFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(h.labels), h.count.Load())
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func cloneLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func labelKey(labels []Label) string {
	ls := cloneLabels(labels)
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

func renderLabels(labels []Label, extra ...Label) string {
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
