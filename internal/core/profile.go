// Package core is the analysis framework — the paper's contribution. It
// orchestrates instrumented executions of the five zk-SNARK stages
// (compile, setup, witness, proving, verifying) across circuit sizes and
// curves, and derives the paper's four analyses from the collected traces:
//
//   - top-down microarchitecture analysis (Fig. 4) via internal/pipeline,
//   - memory analysis (Fig. 5, Tables II–III) via internal/cachesim,
//   - code analysis (Tables IV–V) via the recorder's function profile and
//     internal/opcode,
//   - scalability analysis (Figs. 6–7, Table VI) via internal/sched and
//     internal/stats.
package core

import (
	"bytes"
	"fmt"

	"zkperf/internal/circuit"
	"zkperf/internal/curve"
	"zkperf/internal/ff"
	"zkperf/internal/groth16"
	"zkperf/internal/jsruntime"
	"zkperf/internal/opcode"
	"zkperf/internal/r1cs"
	"zkperf/internal/trace"
	"zkperf/internal/witness"
)

// Stage names the five zk-SNARK workflow stages in paper order.
type Stage string

// The five stages of Figure 1.
const (
	StageCompile Stage = "compile"
	StageSetup   Stage = "setup"
	StageWitness Stage = "witness"
	StageProving Stage = "proving"
	StageVerify  Stage = "verifying"
)

// Stages lists the stages in workflow order.
var Stages = []Stage{StageCompile, StageSetup, StageWitness, StageProving, StageVerify}

// StageProfile is the full instrumentation record of one stage execution.
type StageProfile struct {
	Stage Stage
	Curve string // "BN128" or "BLS12-381"
	LogN  int    // log2 of the constraint count

	Rec *trace.Recorder
	Mix opcode.Mix
}

// WallSeconds returns the stage's measured wall-clock time.
func (p *StageProfile) WallSeconds() float64 { return float64(p.Rec.WallNanos) / 1e9 }

// Runner executes instrumented zk-SNARK pipelines. Engines (with their
// fixed-base tables) are cached per curve.
type Runner struct {
	engines map[string]*groth16.Engine

	// IncludeRuntime controls whether the simulated node.js/WASM runtime
	// overhead runs as part of the stages (on by default; the ablation
	// bench disables it).
	IncludeRuntime bool
}

// NewRunner returns a Runner with runtime simulation enabled.
func NewRunner() *Runner {
	return &Runner{engines: make(map[string]*groth16.Engine), IncludeRuntime: true}
}

// engine returns the cached Groth16 engine for a curve name.
func (r *Runner) engine(curveName string) *groth16.Engine {
	if e, ok := r.engines[curveName]; ok {
		return e
	}
	c := curve.NewCurve(curveName)
	if c == nil {
		panic(fmt.Sprintf("core: unknown curve %q", curveName))
	}
	e := groth16.NewEngine(c)
	// The profiles model the paper's snarkjs stack: its verifier runs the
	// plain full-Fp12 Miller loop, so the traced op counts must come from
	// the reference pairing path, not the optimized production loop —
	// otherwise the Table V "verifying is compute-intensive" shape breaks.
	e.Pair.Reference = true
	r.engines[curveName] = e
	return e
}

// limbs returns the dominant limb width of a curve's arithmetic: G1/Fr
// operations dominate, so 4 limbs for both curves' scalar fields with the
// base field's width for BLS12-381 group-heavy stages.
func limbs(curveName string, s Stage) int {
	if curveName == "BLS12-381" && (s == StageSetup || s == StageProving || s == StageVerify) {
		return 6 // group arithmetic over the 381-bit base field
	}
	return 4
}

// ProfileStage runs one stage of the pipeline for the exponentiation
// circuit with 2^logN constraints on the named curve, returning its
// profile. Stages depend on their predecessors' artifacts; the runner
// executes the prefix untraced and only instruments the requested stage.
func (r *Runner) ProfileStage(curveName string, logN int, s Stage) (*StageProfile, error) {
	ps, err := r.profilePipeline(curveName, logN, map[Stage]bool{s: true})
	if err != nil {
		return nil, err
	}
	return ps[s], nil
}

// ProfileAllStages traces every stage of one pipeline run.
func (r *Runner) ProfileAllStages(curveName string, logN int) (map[Stage]*StageProfile, error) {
	sel := map[Stage]bool{}
	for _, s := range Stages {
		sel[s] = true
	}
	return r.profilePipeline(curveName, logN, sel)
}

// profilePipeline runs the full compile→verify pipeline once, attaching a
// recorder to each selected stage.
func (r *Runner) profilePipeline(curveName string, logN int, selected map[Stage]bool) (map[Stage]*StageProfile, error) {
	eng := r.engine(curveName)
	fr := eng.Curve.Fr
	e := 1 << uint(logN)
	out := make(map[Stage]*StageProfile)

	newRec := func(s Stage) *trace.Recorder {
		if !selected[s] {
			return nil
		}
		rec := trace.NewRecorder()
		out[s] = &StageProfile{Stage: s, Curve: curveName, LogN: logN, Rec: rec}
		return rec
	}
	finish := func(s Stage) {
		if p, ok := out[s]; ok {
			p.Mix = opcode.FromRecorder(p.Rec, limbs(curveName, s))
		}
	}

	// ---- compile ----
	var sys *r1cs.System
	var prog *witness.Program
	var err error
	{
		rec := newRec(StageCompile)
		rec.StartWall()
		src := circuit.ExponentiateSource(e)
		sys, prog, err = circuit.CompileSourceTraced(fr, src, rec)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		// The compiled system is written out (circom's .r1cs artifact).
		rec.Scope("memcpy/r1cs-write", func() {
			var buf bytes.Buffer
			if _, werr := sys.WriteTo(&buf); werr != nil {
				err = werr
			}
			rec.Copy("r1cs.file", int64(buf.Len()))
		})
		rec.StopWall()
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		finish(StageCompile)
	}

	// ---- setup ----
	var pk *groth16.ProvingKey
	var vk *groth16.VerifyingKey
	var zkeyBytes []byte
	{
		rec := newRec(StageSetup)
		eng.Rec = rec
		rec.StartWall()
		if r.IncludeRuntime {
			jsruntime.Run(rec, jsruntime.Light)
		}
		rng := ff.NewRNG(uint64(0x5E707 + logN))
		pk, vk, err = eng.Setup(sys, rng)
		if err != nil {
			eng.Rec = nil
			return nil, fmt.Errorf("setup: %w", err)
		}
		// Key serialization — the .zkey write that dominates snarkjs
		// setup's serial fraction.
		var serErr error
		rec.PhaseRun("memcpy/zkey-write", 1, func() {
			var buf bytes.Buffer
			if serErr = pk.Serialize(&buf, eng.Curve); serErr != nil {
				return
			}
			if serErr = vk.Serialize(&buf, eng.Curve); serErr != nil {
				return
			}
			zkeyBytes = buf.Bytes()
			rec.Copy("zkey.file", int64(len(zkeyBytes)))
		})
		recGC(rec, int64(len(zkeyBytes)))
		rec.StopWall()
		eng.Rec = nil
		if serErr != nil {
			return nil, fmt.Errorf("setup: %w", serErr)
		}
		finish(StageSetup)
	}
	if zkeyBytes == nil {
		// Setup was untraced; still serialize for the proving stage's key
		// deserialization work.
		var buf bytes.Buffer
		if err := pk.Serialize(&buf, eng.Curve); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := vk.Serialize(&buf, eng.Curve); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		zkeyBytes = buf.Bytes()
	}

	// ---- witness ----
	var wit *witness.Witness
	{
		rec := newRec(StageWitness)
		rec.StartWall()
		if r.IncludeRuntime {
			// WASM witness-calculator instantiation dominates this stage
			// in the snarkjs stack.
			jsruntime.Run(rec, jsruntime.Heavy)
		}
		var x ff.Element
		fr.SetUint64(&x, 3)
		wit, err = witness.SolveTraced(sys, prog, witness.Assignment{"x": x}, rec)
		if err != nil {
			return nil, fmt.Errorf("witness: %w", err)
		}
		rec.Scope("memcpy/wtns-write", func() {
			var buf bytes.Buffer
			if werr := groth16.WriteWitness(&buf, fr, wit); werr != nil {
				err = werr
			}
			// Witness serialization converts every element out of
			// Montgomery form: throughput is arithmetic-bound, not
			// copy-bound.
			n := int64(buf.Len())
			rec.Access(trace.Access{Kind: trace.Sequential, Region: "wtns.file.src",
				RegionBytes: n, ElemSize: 64, Touches: n / 64, BytesPerCycle: 0.8})
			rec.Access(trace.Access{Kind: trace.Sequential, Region: "wtns.file.dst",
				RegionBytes: n, ElemSize: 64, Touches: n / 64, Write: true, BytesPerCycle: 0.8})
			if rec != nil {
				rec.BytesCopied += n
			}
		})
		rec.StopWall()
		if err != nil {
			return nil, fmt.Errorf("witness: %w", err)
		}
		finish(StageWitness)
	}

	// ---- proving ----
	var proof *groth16.Proof
	{
		rec := newRec(StageProving)
		eng.Rec = rec
		rec.StartWall()
		if r.IncludeRuntime {
			jsruntime.Run(rec, jsruntime.Light)
		}
		// snarkjs reads the zkey from disk on every prove.
		var pk2 groth16.ProvingKey
		var desErr error
		rec.PhaseRun("memcpy/zkey-read", 1, func() {
			desErr = pk2.Deserialize(bytes.NewReader(zkeyBytes), eng.Curve)
		})
		rec.Copy("zkey.file", int64(len(zkeyBytes)))
		if desErr != nil {
			eng.Rec = nil
			return nil, fmt.Errorf("proving: %w", desErr)
		}
		rng := ff.NewRNG(uint64(0x9403e + logN))
		proof, err = eng.Prove(sys, &pk2, wit, rng)
		recGC(rec, int64(len(zkeyBytes)))
		rec.StopWall()
		eng.Rec = nil
		if err != nil {
			return nil, fmt.Errorf("proving: %w", err)
		}
		finish(StageProving)
	}

	// ---- verifying ----
	{
		rec := newRec(StageVerify)
		eng.Rec = rec
		rec.StartWall()
		if r.IncludeRuntime {
			jsruntime.Run(rec, jsruntime.Medium)
		}
		err = eng.Verify(vk, proof, wit.Public)
		rec.StopWall()
		eng.Rec = nil
		if err != nil {
			return nil, fmt.Errorf("verifying: %w", err)
		}
		finish(StageVerify)
	}

	return out, nil
}

// recGC models the major garbage collections a long snarkjs stage incurs:
// mark passes chase the entire live heap, whose size tracks the proving
// key (boxed by the JS representation factor). This DRAM-latency-bound
// sweep is a major back-end contributor on high-clocked CPUs.
func recGC(rec *trace.Recorder, liveBytes int64) {
	if rec == nil || liveBytes == 0 {
		return
	}
	region := liveBytes * 6 // JS boxed-heap expansion
	rec.Access(trace.Access{Kind: trace.PointerChase, Region: "runtime.gcheap",
		RegionBytes: region, ElemSize: 64, Touches: 2 * region / 64})
}
