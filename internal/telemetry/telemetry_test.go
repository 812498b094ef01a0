package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProbeIsSafe(t *testing.T) {
	var p *Probe
	end := p.StartStage(StageProve)
	end()
	p.Observe(KernelNTT, p.Begin(), 128)
	if p.Tree() != nil {
		t.Error("nil probe returned a tree")
	}
	if p.RequestID() != "" {
		t.Error("nil probe returned a request ID")
	}
	var tel *Telemetry
	if tel.Enabled() {
		t.Error("nil telemetry reports enabled")
	}
	tel.ObserveStage("groth16", "bn128", StageProve, time.Millisecond)
	tel.CountRequest("groth16", "bn128", "completed")
	tel.ObserveProbe("groth16", "bn128", nil)
	if tel.Registry() != nil {
		t.Error("nil telemetry returned a registry")
	}
}

func TestProbeSpanTree(t *testing.T) {
	p := NewProbe("req-1")
	if p.RequestID() != "req-1" {
		t.Fatalf("RequestID = %q", p.RequestID())
	}
	endProve := p.StartStage(StageProve)
	p.Observe(KernelNTT, p.Begin(), 256)
	p.Observe(KernelMSMG1, p.Begin(), 1024)
	endProve()
	endVerify := p.StartStage(StageVerify)
	p.Observe(KernelPairing, p.Begin(), 4)
	endVerify()

	tree := p.Tree()
	if tree.Name != "request" || len(tree.Children) != 2 {
		t.Fatalf("unexpected tree shape: %+v", tree)
	}
	prove := tree.Children[0]
	if prove.Name != StageProve || len(prove.Children) != 2 {
		t.Fatalf("prove span: %+v", prove)
	}
	if prove.Children[0].Name != KernelNTT || prove.Children[0].Items != 256 {
		t.Errorf("ntt leaf: %+v", prove.Children[0])
	}
	if prove.Children[1].Name != KernelMSMG1 || prove.Children[1].Items != 1024 {
		t.Errorf("msm leaf: %+v", prove.Children[1])
	}
	verify := tree.Children[1]
	if verify.Name != StageVerify || len(verify.Children) != 1 || verify.Children[0].Name != KernelPairing {
		t.Fatalf("verify span: %+v", verify)
	}

	var sb strings.Builder
	tree.WriteTree(&sb)
	out := sb.String()
	for _, want := range []string{"request", "prove", "ntt", "n=256", "msm_g1", "pairing"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteTree output missing %q:\n%s", want, out)
		}
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if ProbeFromContext(ctx) != nil {
		t.Error("empty context yielded a probe")
	}
	if WithProbe(ctx, nil) != ctx {
		t.Error("WithProbe(nil) should return ctx unchanged")
	}
	p := NewProbe("")
	ctx2 := WithProbe(ctx, p)
	if ProbeFromContext(ctx2) != p {
		t.Error("probe round-trip failed")
	}

	if RequestIDFromContext(ctx) != "" {
		t.Error("empty context yielded a request ID")
	}
	ctx3 := WithRequestID(ctx, "abc123")
	if RequestIDFromContext(ctx3) != "abc123" {
		t.Error("request ID round-trip failed")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request IDs should be 16 hex chars: %q %q", a, b)
	}
	if a == b {
		t.Error("two request IDs collided")
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A counter.", Label{"backend", "groth16"})
	c.Inc()
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	// Same name+labels resolves to the same series.
	if r.Counter("test_total", "A counter.", Label{"backend", "groth16"}) != c {
		t.Error("counter lookup not idempotent")
	}
	// Label order must not matter for identity.
	c2 := r.Counter("multi_total", "m", Label{"a", "1"}, Label{"b", "2"})
	if r.Counter("multi_total", "m", Label{"b", "2"}, Label{"a", "1"}) != c2 {
		t.Error("label order changed series identity")
	}

	g := r.Gauge("test_gauge", "A gauge.")
	g.Set(4.5)
	g.Add(-1.5)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	r.GaugeFunc("test_live", "Sampled.", func() float64 { return 7 })

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP test_total A counter.",
		"# TYPE test_total counter",
		`test_total{backend="groth16"} 3`,
		"# TYPE test_gauge gauge",
		"test_gauge 3",
		"test_live 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", Label{"stage", "prove"})
	// 3 µs lands in bucket len(3)=2 (le=4µs); 100 µs in bucket 7 (le=128µs).
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); q != 128*time.Microsecond {
		t.Errorf("p50 = %v, want 128µs", q)
	}
	if q := h.Quantile(0.99); q != 128*time.Microsecond {
		t.Errorf("p99 = %v, want 128µs", q)
	}
	if m := h.Sum() / time.Duration(h.Count()); m < 60*time.Microsecond || m > 80*time.Microsecond {
		t.Errorf("mean = %v, want ~67µs", m)
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{stage="prove",le="4e-06"} 1`,
		`lat_seconds_bucket{stage="prove",le="0.000128"} 3`,
		`lat_seconds_bucket{stage="prove",le="+Inf"} 3`,
		`lat_seconds_count{stage="prove"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramBucketsAndCounts pins the documented bucketing (bucket i
// holds [2^(i-1), 2^i) whole µs), the nearest-rank quantile rule and the
// count form.
func TestHistogramBucketsAndCounts(t *testing.T) {
	for _, c := range []struct{ d, bound time.Duration }{
		{999 * time.Nanosecond, time.Microsecond},
		{time.Microsecond, 2 * time.Microsecond},
		{7 * time.Microsecond, 8 * time.Microsecond},
		{8 * time.Microsecond, 16 * time.Microsecond},
	} {
		var h HistogramMetric
		h.Observe(c.d)
		if got := h.Quantile(1); got != c.bound {
			t.Errorf("%v lands under bound %v, want %v", c.d, got, c.bound)
		}
	}

	var h HistogramMetric
	for _, n := range []int{1, 8, 8} {
		h.ObserveCount(n)
	}
	// Nearest rank: p50 of three is the ceil(1.5) = 2nd smallest, 8,
	// whose bucket bound is 16.
	if got := h.Quantile(0.5) / time.Microsecond; got != 16 {
		t.Errorf("count p50 = %d, want 16", got)
	}
	if got := h.Quantile(0.1) / time.Microsecond; got != 2 {
		t.Errorf("count p10 = %d, want 2", got)
	}
	if got := h.Sum() / time.Microsecond; got != 17 || h.Count() != 3 {
		t.Errorf("count sum = %d over %d, want 17 over 3", got, h.Count())
	}
}

func TestTelemetryFoldsProbe(t *testing.T) {
	tel := New()
	if !tel.Enabled() {
		t.Fatal("fresh telemetry not enabled")
	}
	p := NewProbe("r1")
	end := p.StartStage(StageProve)
	p.Observe(KernelNTT, p.Begin(), 64)
	p.Observe(KernelNTT, p.Begin(), 64)
	p.Observe(KernelMSMG1, p.Begin(), 512)
	end()
	tel.ObserveProbe("groth16", "bn128", p)
	tel.ObserveStage("groth16", "bn128", StageProve, 5*time.Millisecond)
	tel.CountRequest("groth16", "bn128", "completed")

	var sb strings.Builder
	if err := tel.Registry().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`zkp_kernel_invocations_total{backend="groth16",curve="bn128",kernel="ntt"} 2`,
		`zkp_kernel_invocations_total{backend="groth16",curve="bn128",kernel="msm_g1"} 1`,
		`zkp_kernel_items_total{backend="groth16",curve="bn128",kernel="ntt"} 128`,
		`zkp_requests_total{backend="groth16",curve="bn128",outcome="completed"} 1`,
		`zkp_stage_duration_seconds_count{backend="groth16",curve="bn128",stage="prove"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("c_total", "c").Inc()
				r.Histogram("h_seconds", "h").Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c_total", "c").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("h_seconds", "h").Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

// TestDisabledHookOverhead is the CI guard behind the one-branch cost
// contract: if someone adds allocation or clock reads to the nil-probe
// path, this fails loudly long before BenchmarkTelemetryOverhead is
// inspected by a human.
func TestDisabledHookOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	res := testing.Benchmark(func(b *testing.B) {
		var p *Probe
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := p.Begin()
			p.Observe(KernelNTT, t0, 1024)
			end := p.StartStage(StageProve)
			end()
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Errorf("disabled hooks allocate %d objects/op, want 0", a)
	}
	// Four nil checks and two closure calls: single-digit ns on any
	// modern core. 200ns leaves two orders of magnitude of headroom
	// for slow CI machines while still catching an accidental
	// time.Now() or map lookup on the disabled path.
	if ns := res.NsPerOp(); ns > 200 {
		t.Errorf("disabled hooks cost %dns/op, want ~single-digit ns (limit 200)", ns)
	}
}
