package groth16

import (
	"zkperf/internal/curve"
	"zkperf/internal/r1cs"
	"zkperf/internal/trace"
)

// Access-pattern emission for the traced stages. Base sizes use the native
// in-memory representations (32-byte scalars, 64/128-byte affine points),
// expanded by jsBoxFactor: the profiled snarkjs stack stores field elements
// and points as JavaScript objects/typed-array views whose heap footprint
// is several times the raw data — the main reason its working sets
// overflow even the i9's 36 MiB LLC at large constraint counts.

// jsBoxFactor is the heap-expansion ratio of the JS/WASM representation
// over the native one (V8 boxed objects, GC headers, views).
const jsBoxFactor = 6

// boxed expands an access pattern to the JS heap representation.
func boxed(a trace.Access) trace.Access {
	a.RegionBytes *= jsBoxFactor
	a.ElemSize *= jsBoxFactor
	return a
}

// recFixedBase records the memory behaviour of one fixed-base MulBatch:
// a sequential scan of the scalars, per-scalar random lookups into the
// precomputed signed-window table, and a sequential write of the results.
// Geometry mirrors curve.FixedBaseTable: (bits+c)/c windows of 2^{c−1}
// entries each (negative digits reuse positive entries via negation).
func (e *Engine) recFixedBase(name string, n int, g2 bool) {
	rec := e.Rec
	if rec == nil || n == 0 {
		return
	}
	coordBytes := int64(e.Curve.Fp.ByteLen())
	pointBytes := 2 * coordBytes
	c := curve.FixedBaseWindowBits
	tableRows := (e.Curve.Fr.Bits() + c) / c
	rowEntries := int64(1) << uint(c-1)
	tableBytes := int64(tableRows) * rowEntries * pointBytes
	if g2 {
		tableBytes *= 2
		pointBytes *= 2
	}
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "setup.scalars." + name,
		RegionBytes: int64(n) * 32, ElemSize: 32, Touches: int64(n)}))
	tblName := "fbtable.g1"
	if g2 {
		tblName = "fbtable.g2"
	}
	rec.Access(boxed(trace.Access{Kind: trace.Random, Region: tblName,
		RegionBytes: tableBytes, ElemSize: int(pointBytes), Touches: int64(n * tableRows)}))
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "pk." + name,
		RegionBytes: int64(n) * pointBytes, ElemSize: int(pointBytes), Touches: int64(n), Write: true}))
}

// recMSM records the memory behaviour of one Pippenger MSM: streaming
// reads of the points and of the signed-digit matrix, random bucket
// updates, and the window reduction. At GLV sizes the core runs over 2n
// entries — Pᵢ and φ(Pᵢ) = (β·xᵢ, yᵢ) side by side — without copying a
// point: the φ entry reads β·xᵢ from one per-call array of n coordinates
// and yᵢ from the point itself, and the half-width subscalars go straight into
// an int16 digit matrix (windows × entries). The one-time passes that
// fill the digit matrix and the φ array are left out: each is one pass
// against the window loop's many. The op-count model follows
// curve.G1MSMCtx exactly.
func (e *Engine) recMSM(name string, n int, g2 bool) {
	rec := e.Rec
	if rec == nil || n == 0 {
		return
	}
	coordBytes := int64(e.Curve.Fp.ByteLen())
	if g2 {
		coordBytes *= 2
	}
	pointBytes := 2 * coordBytes
	jacBytes := 3 * coordBytes
	// Signed-digit windows: one extra window absorbs the final carry and
	// the bucket count halves to 2^{c−1}. The GLV path runs the same core
	// over 2n entries with subscalars of GLVBits() ≈ half width.
	entries := n
	scalarBits := e.Curve.Fr.Bits()
	glv := n >= curve.GLVMinPoints
	if glv {
		entries = 2 * n
		scalarBits = e.Curve.GLVBits()
	}
	c := msmWindowForSize(entries)
	windows := (scalarBits + c) / c
	buckets := int64(1) << uint(c-1)
	const digitBytes = 2
	// Every window streams all n points and its row of one digit per
	// entry. The digit matrix is a flat int16 array (a typed array, not
	// boxed objects, on the JS stack), read once in total.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "msm.points." + name,
		RegionBytes: int64(n) * pointBytes, ElemSize: int(pointBytes), Touches: int64(n * windows)}))
	rec.Access(trace.Access{Kind: trace.Sequential, Region: "msm.digits." + name,
		RegionBytes: int64(entries*windows) * digitBytes, ElemSize: digitBytes, Touches: int64(entries * windows)})
	if glv {
		// …and, for each φ entry, β·x from the φ array (y comes from the
		// point just read).
		rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "msm.phix." + name,
			RegionBytes: int64(n) * coordBytes, ElemSize: int(coordBytes), Touches: int64(n * windows)}))
	}
	// Each entry scatters into its window's bucket array (read-modify-write).
	rec.Access(boxed(trace.Access{Kind: trace.Random, Region: "msm.buckets." + name,
		RegionBytes: buckets * jacBytes, ElemSize: int(jacBytes), Touches: int64(entries * windows)}))
	rec.Access(boxed(trace.Access{Kind: trace.Random, Region: "msm.buckets." + name,
		RegionBytes: buckets * jacBytes, ElemSize: int(jacBytes), Touches: int64(entries * windows), Write: true}))
	// Window reduction: a sequential sweep over the buckets per window.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "msm.buckets." + name,
		RegionBytes: buckets * jacBytes, ElemSize: int(jacBytes), Touches: buckets * int64(windows)}))
}

// msmWindowForSize mirrors the Pippenger window-width heuristic of the
// curve package for footprint accounting.
func msmWindowForSize(n int) int {
	switch {
	case n < 8:
		return 2
	case n < 32:
		return 3
	case n < 128:
		return 5
	case n < 1024:
		return 7
	case n < 8192:
		return 9
	case n < 1<<17:
		return 11
	case n < 1<<21:
		return 13
	default:
		return 15
	}
}

// recNTT records the strided butterfly passes of the quotient computation:
// nine transforms (3 INTT, 3 coset NTT, 1 coset INTT plus scaling passes)
// over the three evaluation vectors.
func (e *Engine) recQuotient(sys *r1cs.System, domainN, logN int) {
	rec := e.Rec
	if rec == nil {
		return
	}
	st := sys.Stats()
	nv := sys.NumVariables()
	// LC evaluation: sparse matrix stream + random witness gathers.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "r1cs.terms",
		RegionBytes: int64(st.NonZeroTerms) * 40, ElemSize: 40, Touches: int64(st.NonZeroTerms)}))
	rec.Access(boxed(trace.Access{Kind: trace.Random, Region: "witness",
		RegionBytes: int64(nv) * 32, ElemSize: 32, Touches: int64(st.NonZeroTerms)}))
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "prove.abc",
		RegionBytes: int64(3*domainN) * 32, ElemSize: 32, Touches: int64(3 * domainN), Write: true}))
	// 7 transforms × logN butterfly passes, each touching N elements with
	// power-of-two strides (reads and writes).
	passes := int64(7 * logN)
	rec.Access(boxed(trace.Access{Kind: trace.Strided, Region: "prove.abc",
		RegionBytes: int64(3*domainN) * 32, ElemSize: 32, Stride: 64,
		Touches: passes * int64(domainN)}))
	rec.Access(boxed(trace.Access{Kind: trace.Strided, Region: "prove.abc",
		RegionBytes: int64(3*domainN) * 32, ElemSize: 32, Stride: 64,
		Touches: passes * int64(domainN), Write: true}))
	// Pointwise quotient: one sequential fused pass.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "prove.abc",
		RegionBytes: int64(3*domainN) * 32, ElemSize: 32, Touches: int64(3 * domainN)}))
}

// recPairing records the working set of the verifying stage: the
// Miller-loop state and line evaluations (small, cache-resident) and the
// final-exponentiation accumulator.
func (e *Engine) recPairing(pairs int) {
	rec := e.Rec
	if rec == nil {
		return
	}
	fpBytes := int64(e.Curve.Fp.ByteLen())
	e12 := 12 * fpBytes
	loopLen := int64(e.Curve.LoopCount.BitLen())
	// Per pair: the loop touches the accumulator, the running point and
	// the line value every iteration.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "pairing.state",
		RegionBytes: 8 * e12, ElemSize: int(e12), Touches: int64(pairs) * loopLen * 6}))
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "pairing.state",
		RegionBytes: 8 * e12, ElemSize: int(e12), Touches: int64(pairs) * loopLen * 3, Write: true}))
	// Final exponentiation: ~hardExp.BitLen() squarings over the
	// accumulator.
	rec.Access(boxed(trace.Access{Kind: trace.Sequential, Region: "pairing.state",
		RegionBytes: 8 * e12, ElemSize: int(e12), Touches: 1300 * 4}))
}
