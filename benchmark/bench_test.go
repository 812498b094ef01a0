package main

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"zkperf/internal/curve"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64, stream string) []uint64 {
		r := newRNG(seed, stream)
		out := make([]uint64, 8)
		for i := range out {
			out[i] = freshX(r)
		}
		return out
	}
	if a, b := draw(7, "window/client0"), draw(7, "window/client0"); !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed and stream drew %v then %v", a, b)
	}
	if reflect.DeepEqual(draw(7, "window/client0"), draw(8, "window/client0")) {
		t.Fatal("different seeds drew the same inputs")
	}
	if reflect.DeepEqual(draw(7, "window/client0"), draw(7, "window/client1")) {
		t.Fatal("different streams of one seed drew the same inputs")
	}
	for _, x := range draw(7, "window/client0") {
		if x == 0 {
			t.Fatal("freshX drew 0")
		}
	}
	w1 := wrongPositions(newRNG(7, "wrong/bn128"), 64, wrongEvery)
	w2 := wrongPositions(newRNG(7, "wrong/bn128"), 64, wrongEvery)
	if len(w1) != 4 || !reflect.DeepEqual(w1, w2) {
		t.Fatalf("wrong positions %v then %v, want 4 equal positions", w1, w2)
	}
}

// The checker's expected output must be the circuit's: x^e, in the
// curve's scalar field.
func TestExpectedMatchesTheCircuit(t *testing.T) {
	for _, cs := range []circuitSpec{{"bn128", "groth16", 16}, {"bls12-381", "groth16", 64}} {
		fr := curve.NewCurve(cs.Curve).Fr
		_, _, w, err := solved(fr, cs.E, 12345)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fr.String(&w.Public[1]), cs.expected(12345); got != want {
			t.Errorf("%+v: circuit output %s, expected() %s", cs, got, want)
		}
		if cs.wrongPublic(12345) == cs.expected(12345) {
			t.Errorf("%+v: wrongPublic equals the right output", cs)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {75, 75}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 50); got != 3 {
		t.Errorf("p50 of two samples = %v, want the lower (nearest rank, no interpolation)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

// The smallest sample counts that leave ten samples beyond each tail the
// workloads use; one sample fewer must fall short.
func TestTenSamplesBeyondRule(t *testing.T) {
	for _, c := range []struct {
		p float64
		n int
	}{{60, 25}, {75, 40}, {95, 200}, {99, 1000}} {
		if got := beyond(c.n, c.p); got != minBeyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, minBeyond)
		}
		if got := beyond(c.n-1, c.p); got >= minBeyond {
			t.Errorf("beyond(%d, p%v) = %d, want fewer than %d", c.n-1, c.p, got, minBeyond)
		}
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b overlaps a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c runs past the parent", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100): 50 of the parent's 100.
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
}

func TestSpanLogRecordsParentAndRequest(t *testing.T) {
	var off *spanLog
	if id := off.add(0, "x", "", time.Now(), time.Now()); id != 0 {
		t.Errorf("nil log returned id %d", id)
	}
	l := newSpanLog()
	root := l.add(0, "client.prove", "req-1", l.epoch, l.epoch.Add(10*time.Millisecond))
	l.add(root, "backend.prove", "req-1", l.epoch.Add(2*time.Millisecond), l.epoch.Add(9*time.Millisecond))
	path := t.TempDir() + "/spans.json"
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	var got []span
	if err := readJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Request != "req-1" || got[1].End-got[1].Start != 7e6 {
		t.Fatalf("spans read back as %+v", got)
	}
	if got[0].Self != 3e6 || got[1].Self != 7e6 {
		t.Errorf("self times written as %d and %d ns, want 3 ms (10 less the child's 7) and 7 ms", got[0].Self, got[1].Self)
	}
}

func TestResultLineRoundTrip(t *testing.T) {
	rep := newReport(&workloads[0], 3, 20*time.Second, false)
	rep.Correct, rep.Attempted, rep.Failed = true, 26, 0
	rep.set(endToEnd, map[string]float64{"setup_s": 1.718806298, "latency_p50_ms": 773.795839})
	line, err := json.Marshal(rep.result)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		t.Fatal(err)
	}
	if len(fields) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", fields)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep.result) {
		t.Errorf("round trip gave %+v, want %+v", back, rep.result)
	}
	if len(back.Metrics) != len(endToEnd) || back.Metrics["setup_s"] != (metricValue{1.718806298, "s"}) {
		t.Errorf("metrics %v: want every end-to-end metric and setup_s with all its digits", back.Metrics)
	}
}

func TestVerdict(t *testing.T) {
	row := func(better string, median, lo, hi float64) suiteRow {
		return suiteRow{Better: better, Bound: 0.10, Median: median, Min: lo, Max: hi}
	}
	for _, c := range []struct {
		name     string
		old, cur suiteRow
		want     string
	}{
		{"slower latency", row("lower", 100, 98, 102), row("lower", 115, 113, 117), "regressed"},
		{"faster latency", row("lower", 100, 98, 102), row("lower", 85, 84, 86), "improved"},
		{"within bound", row("lower", 100, 98, 102), row("lower", 105, 103, 107), "unchanged"},
		{"lower throughput", row("higher", 100, 98, 102), row("higher", 85, 84, 86), "regressed"},
		{"spread wider than bound", row("lower", 100, 90, 112), row("lower", 130, 128, 131), "unresolved"},
		{"no bound", suiteRow{Median: 1}, suiteRow{Median: 2}, "-"},
	} {
		if got := verdict(c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// BENCHMARK.json must declare exactly what the code measures; on a
// mismatch the failure prints the file the tables in code ask for.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	want := file{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: 25,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		want.EndToEnd = append(want.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer() {
		want.PerLayer = append(want.PerLayer, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	var got file
	if err := readJSON("../BENCHMARK.json", &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		data, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the tables in code, which ask for:\n%s", data)
	}
	if n := len(want.PerLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(want.EndToEnd, want.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q: duplicate or over-long name or unit %q", m.Name, m.Unit)
		}
		seen[m.Name] = true
	}
}

// A small workload end to end: the run must count every reply as correct,
// and the checker must catch each kind of wrong answer.
func TestCheckCatchesWrongAnswers(t *testing.T) {
	prove := circuitSpec{"bn128", "groth16", 8}
	w := &workload{
		Name:     "test",
		TailPct:  50,
		PoolSize: 16,
		Clients: []clientSpec{
			{Role: roleProve, Circuits: []circuitSpec{prove}},
			{Role: roleVerifyBatch, Batch: 4, Circuits: []circuitSpec{prove}},
		},
	}
	e, err := start(w, 5, newSpanLog())
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	if err := e.makePools(); err != nil {
		t.Fatal(err)
	}
	samples := e.window(2, 300*time.Millisecond, true, "window")
	if tally := e.check(samples); tally.Attempted == 0 || tally.Failed != 0 {
		t.Fatalf("honest window: %+v", tally)
	}
	if got := windowLayerMetrics(w, samples, []clientStats{summarise(samples[0]), summarise(samples[1])}, e.svc.Stats(), 0); got["provesvc.prove_p50_ms"] <= 0 || got["bench.trace_overhead_ratio"] <= 1 {
		t.Errorf("window layer metrics %v: want reply timings and a trace overhead ratio above 1", got)
	}
	if len(e.spans.spans) == 0 {
		t.Error("traced window recorded no spans")
	}

	if len(samples[0]) < 2 {
		t.Fatalf("only %d prove samples", len(samples[0]))
	}
	a, b := &samples[0][0].Items[0], &samples[0][1].Items[0]
	a.Reply.Proof, b.Reply.Proof = b.Reply.Proof, a.Reply.Proof // each proof now answers the other's input
	pool := e.pools[prove]
	entry := samples[1][0].Items[0].Entry
	pool[entry].Valid = !pool[entry].Valid // the service's verdict no longer matches the label
	relabelled := 0
	for _, s := range samples[1] {
		for _, it := range s.Items {
			if it.Entry == entry {
				relabelled++
			}
		}
	}
	tally := e.check(samples)
	if tally.Wrong != 2+relabelled || tally.Failed != tally.Wrong {
		t.Errorf("tampered window: %+v, want 2 swapped proofs and %d relabelled verdicts wrong", tally, relabelled)
	}
	if summarise(samples[0]).Proofs != len(samples[0])-2 {
		t.Error("wrong proofs still count as proofs proved")
	}

	samples[0][2%len(samples[0])].Items[0].Err = "http 429 queue_full"
	if tally := e.check(samples); tally.Failed <= tally.Wrong {
		t.Errorf("a refused request must count as failed but not wrong: %+v", tally)
	}
}
