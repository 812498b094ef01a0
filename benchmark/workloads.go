package main

import (
	"runtime"
	"time"

	"zkperf/internal/provesvc"
)

// role is what one closed-loop client sends.
type role int

const (
	roleProve       role = iota // POST /v1/prove, one fresh input
	roleProveBatch              // POST /v1/prove/batch, Batch fresh inputs over seeded circuit draws
	roleVerify                  // POST /v1/verify, one seeded pool entry
	roleVerifyBatch             // POST /v1/verify/batch, Batch seeded pool entries
)

// clientSpec is one closed-loop caller: it sends its next request only
// after the previous reply arrived.
type clientSpec struct {
	Role     role
	Circuits []circuitSpec // the circuits it draws from
	Batch    int           // items per request for the batch roles
	// StartAfter is how far into the window the client sends its first
	// request: the workload's arrival order, inside the measured interval.
	StartAfter time.Duration
}

// workload is one traffic mix over an in-process zkserve. Clients[0] is
// the primary client: its latencies are the workload's latency metrics.
type workload struct {
	Name string
	Why  string
	// TailPct fixes the tail percentile of the primary client's latency.
	// It is chosen per workload so that at least ten samples lie beyond
	// it in a 25 s window at seed speed, and never changes with the
	// sample count, so runs stay comparable.
	TailPct float64
	// OneWorker overrides zkserve's defaults with one worker that gets
	// every kernel thread — the latency shape for one large proof.
	OneWorker bool
	// PoolSize is the number of seeded proofs per circuit the verify
	// roles draw from; one in wrongEvery carries a wrong public input.
	PoolSize int
	Clients  []clientSpec
}

const wrongEvery = 16

func coldCircuits() []circuitSpec {
	cs := make([]circuitSpec, 7)
	for k := range cs {
		cs[k] = circuitSpec{Curve: "bn128", Backend: "groth16", E: 256 + k}
	}
	return cs
}

var workloads = []workload{
	{
		Name:      "prove_large",
		Why:       "one 2^14-constraint Groth16/BN254 proof at a time: G1 MSMs and the quotient do ~90% of the work and serving under 1%, so kernel changes show and serving changes must not",
		TailPct:   60,
		OneWorker: true,
		Clients: []clientSpec{
			{Role: roleProve, Circuits: []circuitSpec{{Curve: "bn128", Backend: "groth16", E: 1 << 14}}},
		},
	},
	{
		Name:    "prove_plonk_bls",
		Why:     "PLONK/BLS12-381 at domain 2048: 6-limb field, many NTTs, KZG G1 MSMs, no G2 MSM or QAP, so a gain that costs NTT or the 6-limb path shows",
		TailPct: 75,
		Clients: []clientSpec{
			{Role: roleProve, Circuits: []circuitSpec{{Curve: "bls12-381", Backend: "plonk", E: 1000}}},
		},
	},
	{
		Name:     "verify_mix",
		Why:      "BN254 single verifies beside BLS12-381 batches of 32 with 1 in 16 invalid: pairing, tower, ff and decoding do all the work, MSM and NTT none",
		TailPct:  95, // p99 has ~25 samples beyond it, but its run-to-run spread reached 18% on the reference host
		PoolSize: 64,
		Clients: []clientSpec{
			{Role: roleVerify, Circuits: []circuitSpec{{Curve: "bn128", Backend: "groth16", E: 64}}},
			{Role: roleVerifyBatch, Batch: 32, Circuits: []circuitSpec{{Curve: "bls12-381", Backend: "groth16", E: 64}}},
		},
	},
	{
		Name:    "serve_skew",
		Why:     "a 10 ms hot circuit, then from 1 s on 8-item batches over 7 cold circuits: HTTP, codec, queue, scheduler and witness are a visible share of a hot request",
		TailPct: 95,
		Clients: []clientSpec{
			{Role: roleProve, Circuits: []circuitSpec{{Curve: "bn128", Backend: "groth16", E: 16}}},
			// The batches arrive second. Both clients starting at once is
			// not a workload that can carry a bound: the hot circuit either
			// wins the scheduler's one hot slot within seconds or is starved
			// for the whole window, by seed (README, "serve_skew's arrival
			// order"). That start is measured unbounded, as the per-layer
			// provesvc.together_start.* metrics.
			{Role: roleProveBatch, Batch: 8, Circuits: coldCircuits(), StartAfter: time.Second},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// circuits lists every distinct circuit the workload touches, in client
// order.
func (w *workload) circuits() []circuitSpec {
	var out []circuitSpec
	seen := map[circuitSpec]bool{}
	for _, c := range w.Clients {
		for _, cs := range c.Circuits {
			if !seen[cs] {
				seen[cs] = true
				out = append(out, cs)
			}
		}
	}
	return out
}

// maxProcs caps GOMAXPROCS so a many-core host measures the same shape as
// the 2-core reference host rather than a different program.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

// serviceOptions are cmd/zkserve's flag defaults (workers = GOMAXPROCS,
// queue 256, one thread per job, 60 s deadline, workload-aware scheduling
// on), with the workload's stated exceptions. The access log is left off:
// it would put a stderr line per request into the measurement.
func (w *workload) serviceOptions(seed uint64) []provesvc.Option {
	workers, threads := runtime.GOMAXPROCS(0), 1
	if w.OneWorker {
		workers, threads = 1, runtime.GOMAXPROCS(0)
	}
	return []provesvc.Option{
		provesvc.WithWorkers(workers),
		provesvc.WithQueueDepth(256),
		provesvc.WithProveThreads(threads),
		provesvc.WithDefaultTimeout(60 * time.Second),
		provesvc.WithSeed(seed),
		provesvc.WithWorkloadSched(provesvc.WorkloadConfig{Enabled: true, HotMinRate: 0.5, ReservePerHot: 1}),
	}
}
