package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"

	"zkperf/internal/provesvc"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables; a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what a user of the service sees, on every workload:
//
//   - setup_s: start of the service to ready for the first timed request:
//     compile, trusted setup / SRS and preprocessing for every circuit,
//     fixed-base tables, warm-up requests. Median of setupRuns cold
//     processes. Input-pool generation is excluded (bench.inputgen_s).
//   - latency_p50_ms: client-seen latency of the primary client's request
//     (a prove on the prove workloads, a BN254 single verify on verify_mix,
//     the hot-circuit prove on serve_skew), median.
//   - proofs_per_s: correct proofs proved or checked per second, all
//     clients.
//   - peak_rss_mb: VmHWM of the measuring process when the window closes,
//     before the checker allocates anything.
//
// The bounds are what this host's own run-to-run variation leaves room
// for (README, "Bounds"): ten-seed sets of the same code have spread by up
// to 9% and moved their medians by up to 11%. The latency tail is not here
// because its spread has reached 16%, more than any bound the contract
// allows would cover with a margin: see client.latency_tail_ms below.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"proofs_per_s", "1/s", "higher", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// windowLayer are the per-layer metrics read from the traced window: the
// stage timings the service publishes in each prove reply, Stats(), and
// the client-side numbers that are not end-to-end metrics.
// client.latency_tail_ms is the primary client's latency at the workload's
// fixed TailPct.
var windowLayer = []metricDef{
	{Name: "provesvc.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "provesvc.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "provesvc.witness_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "provesvc.prove_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "provesvc.http_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "provesvc.rejected", Unit: "count", Better: "lower"},
	{Name: "provesvc.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "provesvc.thread_grant_mean", Unit: "count", Better: "higher"},
	{Name: "provesvc.sched_promotions", Unit: "count", Better: "lower"},
	{Name: "provesvc.sched_demotions", Unit: "count", Better: "lower"},
	{Name: "provesvc.verify_batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "provesvc.verify_batch_latency_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.unexplained_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.inputgen_s", Unit: "s", Better: "lower"},
	{Name: "client.secondary_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.primary_samples", Unit: "count", Better: "higher"},
	{Name: "client.latency_tail_ms", Unit: "ms", Better: "lower"},
}

// replicaLayer are the per-layer metrics runLayers measures.
var replicaLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: "lower"})
		}
	}
	for _, c := range []string{"bn254", "bls12381"} {
		add("ns", "ff.mul_ns."+c, "ff.mul_ns."+c+"_fr", "ff.square_ns."+c, "ff.inverse_ns."+c,
			"tower.e2_mul_ns."+c, "tower.e12_mul_ns."+c,
			"curve.g1_add_mixed_ns."+c, "curve.g1_double_ns."+c, "curve.g2_add_mixed_ns."+c)
		add("us", "curve.g1_decode_us."+c, "curve.g2_decode_us."+c)
		add("ms", "pairing.miller_ms."+c, "pairing.finalexp_ms."+c, "pairing.check4_ms."+c,
			"groth16.verify_ms."+c, "groth16.verify_batch32_ms."+c)
	}
	add("ms",
		"curve.msm_g1_ms.bn254.n14.t1", "curve.msm_g1_ms.bn254.n14.tN", "curve.msm_g2_ms.bn254.n14.tN",
		"curve.msm_g1_ms.bls12381.n11.tN", "curve.tablemul_g1_ms.bn254.n14.tN",
		"curve.table_build_ms.bn254", "curve.table_load_ms.bn254",
		"poly.ntt_ms.bn254.n14.t1", "poly.ntt_ms.bn254.n14.tN", "poly.intt_ms.bn254.n14.tN", "poly.ntt_ms.bls12381.n11.tN",
		"qap.quotient_ms.bn254.n14.tN", "kzg.commit_ms.bls12381.n11.tN", "kzg.open_ms.bls12381.n11.tN",
		"circuit.compile_ms.n14", "witness.solve_ms.n14",
		"groth16.setup_ms.bn254.n14", "groth16.prove_ms.bn254.n14.t1", "groth16.prove_ms.bn254.n14.tN", "groth16.prove_ms.bn254.hot",
		"plonk.setup_ms.bls12381.n10", "plonk.prove_ms.bls12381.n10.tN", "plonk.verify_ms.bls12381",
		"backend.pk_encode_ms.groth16.n14", "backend.pk_decode_ms.groth16.n14",
		"provesvc.artifact_load_ms.n14", "provesvc.together_start.hot_p50_ms",
		"jobs.submit_ms", "jobs.submit_to_done_ms.hot",
		"cluster.hop_ms.hot", "cluster.batch_scatter_ms.cold8")
	add("us", "witness.solve_us.hot", "backend.proof_encode_us.groth16", "backend.proof_decode_us.groth16")
	add("count", "groth16.prove_ff_mul_count.n10", "groth16.verify_ff_mul_count", "plonk.prove_ff_mul_count.n10")
	add("bytes", "jobs.journal_bytes_per_job")
	add("ratio", "telemetry.overhead_ratio.hot")
	add("s", "core.suite_n10_s")
	return append(defs,
		metricDef{Name: "provesvc.together_start.hot_requests", Unit: "count", Better: "higher"},
		metricDef{Name: "budget.groth16_prove.kernel_share", Unit: "ratio", Better: "higher"})
}()

func perLayer() []metricDef { return append(append([]metricDef(nil), windowLayer...), replicaLayer...) }

// clientStats summarises one client's window.
type clientStats struct {
	LatencyMs []float64 // ascending, requests whose every item was correct
	Proofs    int       // correct proofs proved or checked
	Elapsed   time.Duration
}

func summarise(samples []sample) clientStats {
	var cs clientStats
	if len(samples) == 0 {
		return cs
	}
	last := samples[len(samples)-1]
	cs.Elapsed = last.Start.Add(last.Latency).Sub(samples[0].Start)
	for i := range samples {
		if samples[i].ok() {
			cs.LatencyMs = append(cs.LatencyMs, ms(samples[i].Latency))
		}
		for j := range samples[i].Items {
			if samples[i].Items[j].Err == "" {
				cs.Proofs++
			}
		}
	}
	cs.LatencyMs = sortedCopy(cs.LatencyMs)
	return cs
}

// proofsPerSecond adds up each client's own rate, so a client that
// finishes its last request early is not charged for another's tail.
func proofsPerSecond(clients []clientStats) float64 {
	var rate float64
	for _, c := range clients {
		if c.Elapsed > 0 {
			rate += float64(c.Proofs) / c.Elapsed.Seconds()
		}
	}
	return rate
}

// windowLayerMetrics derives the windowLayer values. Reply timings exist
// only where the primary client proves; elsewhere those entries are 0.
func windowLayerMetrics(w *workload, samples [][]sample, clients []clientStats, st provesvc.Snapshot, inputgen time.Duration) map[string]float64 {
	out := map[string]float64{
		"provesvc.rejected":                     float64(st.Service.Rejected),
		"provesvc.cache_hit_rate":               st.Cache.HitRate,
		"provesvc.thread_grant_mean":            st.Sched.ThreadGrant.Mean,
		"provesvc.sched_promotions":             float64(st.Sched.Promotions),
		"provesvc.sched_demotions":              float64(st.Sched.Demotions),
		"provesvc.verify_batch_size_mean":       st.VerifyBatch.Size.Mean,
		"provesvc.verify_batch_latency_mean_ms": st.VerifyBatch.Latency.MeanMs,
		"bench.inputgen_s":                      inputgen.Seconds(),
		"client.primary_samples":                float64(len(clients[0].LatencyMs)),
		"client.latency_tail_ms":                percentile(clients[0].LatencyMs, w.TailPct),
	}
	if len(clients) > 1 {
		out["client.secondary_p50_ms"] = percentile(clients[1].LatencyMs, 50)
	}
	var tracing, queue, wit, prove, overhead, unexplained []float64
	for i := range samples[0] {
		s := &samples[0][i]
		if !s.ok() {
			continue
		}
		lat := ms(s.Latency)
		tracing = append(tracing, float64(s.Latency+s.Filing)/float64(s.Latency))
		if w.Clients[0].Role != roleProve {
			continue
		}
		r := s.Items[0].Reply
		queue, wit, prove = append(queue, r.QueueWaitMs), append(wit, r.WitnessMs), append(prove, r.ProveMs)
		overhead = append(overhead, lat-r.TotalMs)
		unexplained = append(unexplained, (r.TotalMs-r.QueueWaitMs-r.WitnessMs-r.ProveMs)/lat)
	}
	out["provesvc.queue_wait_p50_ms"] = median(queue)
	out["provesvc.queue_wait_p95_ms"] = percentile(sortedCopy(queue), 95)
	out["provesvc.witness_p50_ms"] = median(wit)
	out["provesvc.prove_p50_ms"] = median(prove)
	out["provesvc.http_overhead_p50_ms"] = median(overhead)
	out["budget.unexplained_ratio"] = median(unexplained)
	out["bench.trace_overhead_ratio"] = median(tracing)
	return out
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
