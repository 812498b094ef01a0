package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one line a run prints last on standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the fingerprint that says which machine a number belongs to.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Platform   string `json:"platform"`
}

func thisHost() host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// report is everything one run knows: the contract line's fields plus
// what a reader needs to judge them.
type report struct {
	result
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	Host     host    `json:"host"`
	// Samples is the n behind the primary client's latency percentiles;
	// TailMs is its latency at TailPct and SamplesBeyondTail how many
	// samples lie above it (the tail is trustworthy from ten up).
	Samples           int       `json:"samples"`
	TailPct           float64   `json:"tail_pct"`
	TailMs            float64   `json:"tail_ms"`
	SamplesBeyondTail int       `json:"samples_beyond_tail"`
	SetupRunsS        []float64 `json:"setup_runs_s"`
	Notes             []string  `json:"notes,omitempty"`
	SpansFile         string    `json:"spans_file,omitempty"`
}

func newReport(w *workload, seed uint64, d time.Duration, traced bool) *report {
	return &report{
		result:   result{Metrics: map[string]metricValue{}},
		Workload: w.Name, Seed: seed, Seconds: d.Seconds(), Traced: traced,
		Host: thisHost(), TailPct: w.TailPct,
	}
}

// set files exactly the declared metrics, so the printed set never drifts
// from BENCHMARK.json; a metric nothing measured reads 0.
func (r *report) set(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// suiteRow is one (metric, workload) cell across the repeats of a suite.
type suiteRow struct {
	Metric   string    `json:"metric"`
	Workload string    `json:"workload"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound,omitempty"`
	Median   float64   `json:"median"`
	Min      float64   `json:"min"`
	Max      float64   `json:"max"`
	Values   []float64 `json:"values"`
}

// spread is the run-to-run range as a share of the median.
func (r suiteRow) spread() float64 {
	if r.Median == 0 {
		return 0
	}
	return (r.Max - r.Min) / r.Median
}

type suiteReport struct {
	Host      host       `json:"host"`
	Seed      uint64     `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Repeat    int        `json:"repeat"`
	Traced    bool       `json:"traced"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Rows      []suiteRow `json:"rows"`
}

// runSuite runs every workload repeat times in the order A B C D A B C D,
// each run in its own process (so heap state and peak RSS are per run) and
// on its own seed, and prints per-cell medians with their range.
func runSuite(repeat int, seed uint64, seconds float64, traced bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defs := endToEnd
	trace := "0"
	if traced {
		defs, trace = perLayer(), "1"
	}
	suite := suiteReport{Host: thisHost(), Seed: seed, Seconds: seconds, Repeat: repeat, Traced: traced}
	values := map[[2]string][]float64{}
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed+uint64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", trace)
			cmd.Stderr = stderr
			raw, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s repeat %d: %v\n", w.Name, r, err)
				return 1
			}
			var rep result
			lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s repeat %d: result line: %v\n", w.Name, r, err)
				return 1
			}
			suite.Attempted += rep.Attempted
			suite.Failed += rep.Failed
			for _, d := range defs {
				key := [2]string{d.Name, w.Name}
				values[key] = append(values[key], rep.Metrics[d.Name].Value)
			}
			fmt.Fprintf(stderr, "repeat %d/%d %s done\n", r+1, repeat, w.Name)
		}
	}
	for _, d := range defs {
		for _, w := range workloads {
			vs := values[[2]string{d.Name, w.Name}]
			sorted := sortedCopy(vs)
			suite.Rows = append(suite.Rows, suiteRow{
				Metric: d.Name, Workload: w.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				Median: percentile(sorted, 50), Min: sorted[0], Max: sorted[len(sorted)-1], Values: vs,
			})
		}
	}
	data, _ := json.MarshalIndent(suite, "", "  ") // plain numbers and strings: cannot fail
	fmt.Fprintln(stdout, string(data))
	if suite.Failed > 0 {
		return 1
	}
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict compares one cell of two suites. A metric without a bound (a
// per-layer one) gets no verdict; a cell whose own run-to-run range is
// wider than the bound on either side cannot resolve a change that small.
func verdict(old, cur suiteRow) string {
	if cur.Bound == 0 {
		return "-"
	}
	if old.spread() > cur.Bound || cur.spread() > cur.Bound || old.Median == 0 {
		return "unresolved"
	}
	worse := (cur.Median - old.Median) / old.Median
	if cur.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > cur.Bound:
		return "regressed"
	case worse < -cur.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareReports prints one row per (metric, workload) of two -repeat
// reports: both medians, new÷old with its base, the bound and the
// verdict. It exits 1 when any cell regressed.
func compareReports(oldPath, newPath string, stdout, stderr io.Writer) int {
	var old, cur suiteReport
	if err := readJSON(oldPath, &old); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if err := readJSON(newPath, &cur); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	base := map[[2]string]suiteRow{}
	for _, r := range old.Rows {
		base[[2]string{r.Metric, r.Workload}] = r
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\told\tnew\tnew/old\tbound\tverdict")
	regressed := 0
	for _, r := range cur.Rows {
		o, ok := base[[2]string{r.Metric, r.Workload}]
		if !ok {
			fmt.Fprintf(tw, "%s\t%s\t-\t%.4g %s\t-\t-\tnew\n", r.Metric, r.Workload, r.Median, r.Unit)
			continue
		}
		v := verdict(o, r)
		if v == "regressed" {
			regressed++
		}
		ratio := "-"
		if o.Median != 0 {
			ratio = fmt.Sprintf("%.3f of %.4g %s", r.Median/o.Median, o.Median, o.Unit)
		}
		bound := "-"
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.2f", r.Bound)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\n", r.Metric, r.Workload, o.Median, r.Median, ratio, bound, v)
	}
	tw.Flush()
	if regressed > 0 {
		return 1
	}
	return 0
}
