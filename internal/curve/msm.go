package curve

import (
	"context"
	"sync"

	"zkperf/internal/ff"
	"zkperf/internal/parallel"
	"zkperf/internal/telemetry"
	"zkperf/internal/tower"
)

// Multi-scalar multiplication (MSM): computes Σ kᵢ·Pᵢ with Pippenger's
// bucket algorithm. MSM dominates the Groth16 setup and proving stages —
// it is one of the two kernels (with the NTT) that hardware accelerators
// such as PipeZK target — so this implementation mirrors the structure of
// production libraries: signed-digit windows (2^{c−1} buckets), bucket
// accumulation through batched-affine additions with one field inversion
// amortized over a whole round, and parallelism across windows and point
// chunks within windows.

// msmWindowSize picks the Pippenger window width c for n points. The
// classic cost model minimizes n·⌈b/c⌉ + ⌈b/c⌉·2^{c−1} additions. c never
// exceeds 15, so every signed digit (|d| ≤ 2^{c−1}) fits an int16.
func msmWindowSize(n int) int {
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

// windowDigit extracts the w-th c-bit window digit from a canonical
// little-endian limb scalar.
func windowDigit(limbs []uint64, w, c int) int {
	bitPos := w * c
	limbIdx := bitPos >> 6
	if limbIdx >= len(limbs) {
		return 0
	}
	shift := uint(bitPos & 63)
	digit := limbs[limbIdx] >> shift
	if shift+uint(c) > 64 && limbIdx+1 < len(limbs) {
		digit |= limbs[limbIdx+1] << (64 - shift)
	}
	return int(digit & ((1 << uint(c)) - 1))
}

// putDigits writes the ⌈(scalarBits+1)/c⌉ = numWindows signed c-bit
// digits of one limb scalar into column col of the window-major digit
// matrix (row stride cols), each in [−2^{c−1}, 2^{c−1}]: whenever an
// unsigned digit exceeds 2^{c−1} it becomes d − 2^c with a carry into the
// next window. Since −d·P is just d·(−P) and affine negation is free, the
// digit range — and with it the bucket count and the running-sum pass — is
// halved. The extra window absorbs the final carry: scalars are
// < 2^scalarBits, so the top digit is at most 2^{c−1} and never carries
// out. neg writes the digits of −k instead (each digit negated), which is
// how the GLV path folds a subscalar's sign into the matrix.
func putDigits(digits []int16, col, cols int, limbs []uint64, numWindows, c int, neg bool) {
	half := 1 << uint(c-1)
	carry := 0
	for w := 0; w < numWindows; w++ {
		d := windowDigit(limbs, w, c) + carry
		carry = 0
		if d > half {
			d -= 1 << uint(c)
			carry = 1
		}
		if neg {
			d = -d
		}
		digits[w*cols+col] = int16(d)
	}
}

// signedDigits builds the window-major digit matrix of limb scalars
// (see putDigits) and returns it with its window count.
func signedDigits(scalars [][]uint64, scalarBits, c int) ([]int16, int) {
	numWindows := (scalarBits + c) / c // ⌈(scalarBits+1)/c⌉
	n := len(scalars)
	digits := make([]int16, numWindows*n)
	for i, limbs := range scalars {
		putDigits(digits, i, n, limbs, numWindows, c, false)
	}
	return digits, numWindows
}

// batchAffineCap bounds the number of deferred bucket additions flushed
// per batched inversion. The working size is min(cap, buckets/4): large
// enough to amortize the inversion (a Fermat exponentiation, ~300 field
// multiplications) down to ~1 multiplication per addition, but small
// relative to the bucket count so that most pushes land in distinct
// buckets and the (Jacobian) collision path stays rare.
const batchAffineCap = 1024

// batchSizeFor picks the flush threshold for a given bucket count.
func batchSizeFor(numBuckets int) int {
	b := numBuckets / 4
	if b > batchAffineCap {
		b = batchAffineCap
	}
	if b < 16 {
		b = 16
	}
	return b
}

// minChunkPoints floors the per-chunk point count so point-chunk
// parallelism never splits the input finer than the bucket work it has
// to repay.
const minChunkPoints = 512

// pendingOp is a bucket addition waiting on the batched inversion: add
// the (already sign-adjusted) affine point q into bucket, doubling when
// the bucket currently holds the same point.
type pendingOp[E any] struct {
	bucket int
	isDbl  bool
	q      Affine[E]
}

// msmScratch is one worker's reusable state: the affine bucket array,
// the batch-affine buffers, and the Jacobian overflow buckets that absorb
// conflicting additions. Workers pull scratch from a pool and reuse it
// across every window/chunk task they run, so buckets are allocated once
// per worker rather than once per window.
type msmScratch[E any] struct {
	batchSize  int
	buckets    []Affine[E]
	busy       []bool         // bucket has an op in the current batch
	batch      []pendingOp[E] // ops awaiting the shared inversion, ≤ 1 per bucket
	denoms     []E            // λ denominators, aligned with batch
	prefix     []E            // prefix products for the batched inversion
	bucketsJac []Jac[E]       // overflow accumulators for conflicted adds
	jacUsed    []bool         // bucketsJac[b] is live this task
	conflicted []int32        // live overflow buckets, for cheap reset

	// Reusable temporaries. The generic field ops are interface calls, so
	// any `var x E` whose address they receive is heap-allocated; with
	// millions of bucket additions per MSM that allocation traffic
	// dominates. Keeping the temporaries in the worker's scratch removes
	// it entirely from the hot path.
	jt      jacTemps[E] // Jacobian formula temporaries (overflow/running-sum adds)
	running Jac[E]      // running-sum accumulator
	q       Affine[E]   // sign-adjusted point being enqueued
	denom   E           // λ denominator staging for push
	et      [6]E        // applyBatch temporaries: acc, inv, dinv, λ, t, x3
}

// reset prepares the scratch for a new window/chunk task. Affine buckets
// clear via their Inf flags; only the overflow buckets touched by the
// previous task are re-zeroed.
func (sc *msmScratch[E]) reset(ops Ops[E]) {
	for b := range sc.buckets {
		sc.buckets[b].Inf = true
	}
	for _, b := range sc.conflicted {
		jacSetInfinity(ops, &sc.bucketsJac[b])
		sc.jacUsed[b] = false
	}
	sc.conflicted = sc.conflicted[:0]
}

// enqueue routes sign(d)·P into bucket |d|−1 through the batch-affine
// scheduler. When the bucket already has an op in the current batch, the
// point goes to the bucket's Jacobian overflow accumulator instead of
// stalling — conflicts cost one mixed Jacobian addition but never shrink
// the batch, so the amortized inversion stays amortized.
func (sc *msmScratch[E]) enqueue(ops Ops[E], d int16, px, py *E) {
	q := &sc.q
	ops.Set(&q.X, px)
	b := int(d) - 1
	if d < 0 {
		b = int(-d) - 1
		ops.Neg(&q.Y, py)
	} else {
		ops.Set(&q.Y, py)
	}
	if sc.busy[b] {
		if !sc.jacUsed[b] {
			sc.jacUsed[b] = true
			sc.conflicted = append(sc.conflicted, int32(b))
		}
		jacAddAffineT(ops, &sc.bucketsJac[b], &sc.bucketsJac[b], q, &sc.jt)
		return
	}
	sc.push(ops, b, q)
	if len(sc.batch) >= sc.batchSize {
		sc.applyBatch(ops)
	}
}

// push runs the affine-addition case analysis against the bucket's
// current state. Cases not needing a division resolve immediately (empty
// bucket: direct set; P + (−P): infinity); the rest record their λ
// denominator and join the batch.
func (sc *msmScratch[E]) push(ops Ops[E], b int, q *Affine[E]) {
	bk := &sc.buckets[b]
	if bk.Inf {
		*bk = *q
		return
	}
	op := pendingOp[E]{bucket: b, q: *q}
	denom := &sc.denom
	if ops.Equal(&bk.X, &q.X) {
		if !ops.Equal(&bk.Y, &q.Y) || ops.IsZero(&q.Y) {
			// P + (−P), or doubling a 2-torsion point: bucket empties.
			bk.Inf = true
			return
		}
		op.isDbl = true
		ops.Double(denom, &q.Y) // λ = 3x²/2y
	} else {
		ops.Sub(denom, &q.X, &bk.X) // λ = (y₂−y₁)/(x₂−x₁)
	}
	sc.busy[b] = true
	sc.batch = append(sc.batch, op)
	sc.denoms = append(sc.denoms, *denom)
}

// applyBatch performs the deferred affine additions with one batched
// inversion (Montgomery trick over the coordinate field) and writes the
// results back into the buckets. Denominators are nonzero by the push
// case analysis.
func (sc *msmScratch[E]) applyBatch(ops Ops[E]) {
	m := len(sc.batch)
	if m == 0 {
		return
	}
	if len(sc.prefix) < m {
		sc.prefix = make([]E, m)
	}
	acc, inv, dinv := &sc.et[0], &sc.et[1], &sc.et[2]
	lambda, t, x3 := &sc.et[3], &sc.et[4], &sc.et[5]
	ops.SetOne(acc)
	for i := 0; i < m; i++ {
		ops.Set(&sc.prefix[i], acc)
		ops.Mul(acc, acc, &sc.denoms[i])
	}
	ops.Inverse(inv, acc)
	for i := m - 1; i >= 0; i-- {
		ops.Mul(dinv, inv, &sc.prefix[i])
		ops.Mul(inv, inv, &sc.denoms[i])
		op := &sc.batch[i]
		bk := &sc.buckets[op.bucket]
		if op.isDbl {
			ops.Square(t, &bk.X)
			ops.Double(lambda, t)
			ops.Add(lambda, lambda, t)
			ops.Mul(lambda, lambda, dinv)
		} else {
			ops.Sub(lambda, &op.q.Y, &bk.Y)
			ops.Mul(lambda, lambda, dinv)
		}
		ops.Square(x3, lambda)
		ops.Sub(x3, x3, &bk.X)
		ops.Sub(x3, x3, &op.q.X)
		ops.Sub(t, &bk.X, x3)
		ops.Mul(t, lambda, t)
		ops.Sub(t, t, &bk.Y)
		ops.Set(&bk.X, x3)
		ops.Set(&bk.Y, t)
		sc.busy[op.bucket] = false
	}
	sc.batch = sc.batch[:0]
	sc.denoms = sc.denoms[:0]
}

// msm is the generic Pippenger core over m = len(points) + len(phiX)
// entries. Without phiX, entry i is points[i]. With phiX (the GLV path,
// len(phiX) == n), entry 2i is points[i] and entry 2i+1 its endomorphism
// image (phiX[i], points[i].Y), so a window streams each point once.
// digits is the numWindows × m window-major matrix of signed c-bit digits
// (signedDigits, glvMSM); a negative digit adds the negated point. threads
// bounds the number of concurrent workers (≤ 1 runs serially). Work
// splits into numWindows × pointChunks independent tasks —
// the running-sum bucket reduction is linear, so per-chunk partial sums
// combine by plain addition — and the partials are combined in a fixed
// order, making the result identical for every thread count. Cancellation
// is checked at task boundaries; on a cancelled ctx the (partial) result
// must be discarded by the caller.
func msm[E any](ctx context.Context, ops Ops[E], points []Affine[E], phiX []E, digits []int16, numWindows, c, threads int) Jac[E] {
	n := len(points)
	m := n + len(phiX)
	var result Jac[E]
	jacSetInfinity(ops, &result)
	if n == 0 {
		return result
	}
	if len(digits) != numWindows*m {
		panic("curve: MSM points/scalars length mismatch")
	}
	numBuckets := 1 << uint(c-1)

	// Point-chunk parallelism: when threads exceed the window count,
	// split each window's points so every thread still has work.
	chunks := 1
	if threads > numWindows {
		chunks = (threads + numWindows - 1) / numWindows
		if maxChunks := (m + minChunkPoints - 1) / minChunkPoints; chunks > maxChunks {
			chunks = maxChunks
		}
		if chunks < 1 {
			chunks = 1
		}
	}
	chunkSz := (n + chunks - 1) / chunks // in points: a point's entries stay together
	tasks := numWindows * chunks
	partials := make([]Jac[E], tasks)

	batchSize := batchSizeFor(numBuckets)
	pool := sync.Pool{New: func() any {
		return &msmScratch[E]{
			batchSize:  batchSize,
			buckets:    make([]Affine[E], numBuckets),
			busy:       make([]bool, numBuckets),
			batch:      make([]pendingOp[E], 0, batchSize),
			denoms:     make([]E, 0, batchSize),
			prefix:     make([]E, batchSize),
			bucketsJac: make([]Jac[E], numBuckets),
			jacUsed:    make([]bool, numBuckets),
		}
	}}

	runTask := func(sc *msmScratch[E], t int) {
		w := t / chunks
		ci := t % chunks
		lo := ci * chunkSz
		hi := min(lo+chunkSz, n)
		sc.reset(ops)
		row := digits[w*m : (w+1)*m]
		if phiX == nil {
			for i := lo; i < hi; i++ {
				if d := row[i]; d != 0 && !points[i].Inf {
					sc.enqueue(ops, d, &points[i].X, &points[i].Y)
				}
			}
		} else {
			for i := lo; i < hi; i++ {
				p := &points[i]
				if p.Inf {
					continue
				}
				if d := row[2*i]; d != 0 {
					sc.enqueue(ops, d, &p.X, &p.Y)
				}
				if d := row[2*i+1]; d != 0 {
					sc.enqueue(ops, d, &phiX[i], &p.Y)
				}
			}
		}
		sc.applyBatch(ops)
		// Running-sum trick: Σ (b+1)·bucket[b] via two passes of
		// additions, linear in the (halved) bucket count, folding in the
		// Jacobian overflow accumulators where conflicts spilled.
		running, sum := &sc.running, &partials[t]
		jacSetInfinity(ops, running)
		jacSetInfinity(ops, sum)
		for b := numBuckets - 1; b >= 0; b-- {
			if !sc.buckets[b].Inf {
				jacAddAffineT(ops, running, running, &sc.buckets[b], &sc.jt)
			}
			if sc.jacUsed[b] {
				jacAddT(ops, running, running, &sc.bucketsJac[b], &sc.jt)
			}
			jacAddT(ops, sum, sum, running, &sc.jt)
		}
	}

	if threads <= 1 || tasks == 1 {
		sc := pool.Get().(*msmScratch[E])
		for t := 0; t < tasks; t++ {
			if ctx.Err() != nil {
				return result
			}
			runTask(sc, t)
		}
		pool.Put(sc)
	} else {
		_ = parallel.ChunksCtx(ctx, tasks, threads, func(lo, hi int) {
			sc := pool.Get().(*msmScratch[E])
			for t := lo; t < hi; t++ {
				if ctx.Err() != nil {
					break
				}
				runTask(sc, t)
			}
			pool.Put(sc)
		})
	}
	if ctx.Err() != nil {
		return result
	}

	// Combine: each window's chunk partials sum in a fixed order, then
	// Horner over windows: result = Σ_w 2^{cw}·windowSum[w].
	var tp jacTemps[E]
	for w := numWindows - 1; w >= 0; w-- {
		if w != numWindows-1 {
			for b := 0; b < c; b++ {
				jacDoubleT(ops, &result, &result, &tp)
			}
		}
		for ci := 0; ci < chunks; ci++ {
			jacAddT(ops, &result, &result, &partials[w*chunks+ci], &tp)
		}
	}
	return result
}

// frToLimbs converts scalar-field elements (Montgomery form) to canonical
// little-endian limb arrays for digit extraction, writing limbs directly
// from the Montgomery reduction instead of round-tripping through Bytes.
func frToLimbs(fr *ff.Field, scalars []ff.Element) [][]uint64 {
	out := make([][]uint64, len(scalars))
	nl := fr.NumLimbs()
	backing := make([]uint64, len(scalars)*nl)
	for i := range scalars {
		limbs := backing[i*nl : (i+1)*nl : (i+1)*nl]
		fr.CanonicalLimbs(&scalars[i], limbs)
		out[i] = limbs
	}
	return out
}

// G1MSM computes Σ scalars[i]·points[i] in G1 with up to threads workers.
func (c *Curve) G1MSM(points []G1Affine, scalars []ff.Element, threads int) G1Jac {
	r, _ := c.G1MSMCtx(context.Background(), points, scalars, threads)
	return r
}

// G2MSM computes Σ scalars[i]·points[i] in G2 with up to threads workers.
func (c *Curve) G2MSM(points []G2Affine, scalars []ff.Element, threads int) G2Jac {
	r, _ := c.G2MSMCtx(context.Background(), points, scalars, threads)
	return r
}

// G1MSMCtx is the cancellable G1 MSM: workers stop picking up new
// window/chunk tasks once ctx is done, and the call returns ctx.Err().
// On error the returned point is meaningless and must be discarded. The
// telemetry probe (if one rides in ctx) is resolved once here, not per
// task.
// Inputs of at least glvMinPoints take the GLV endomorphism path: each
// scalar splits into two half-width subscalars, and the Pippenger core runs
// over P and φ(P) — the latter read through one per-call array of β·x —
// with roughly half the windows (glv.go).
func (c *Curve) G1MSMCtx(ctx context.Context, points []G1Affine, scalars []ff.Element, threads int) (G1Jac, error) {
	probe := telemetry.ProbeFromContext(ctx)
	t0 := probe.Begin()
	var r G1Jac
	if len(points) >= glvMinPoints {
		r = glvMSM[ff.Element](ctx, c.g1ops, c.GLV(), c.g1PhiX, c.Fr, points, scalars, threads)
	} else {
		r = plainMSM[ff.Element](ctx, c.g1ops, c.Fr, points, scalars, threads)
	}
	probe.Observe(telemetry.KernelMSMG1, t0, len(points))
	return r, ctx.Err()
}

// G2MSMCtx is the cancellable G2 MSM; see G1MSMCtx.
func (c *Curve) G2MSMCtx(ctx context.Context, points []G2Affine, scalars []ff.Element, threads int) (G2Jac, error) {
	probe := telemetry.ProbeFromContext(ctx)
	t0 := probe.Begin()
	var r G2Jac
	if len(points) >= glvMinPoints {
		r = glvMSM[tower.E2](ctx, c.g2ops, c.GLV(), c.g2PhiX, c.Fr, points, scalars, threads)
	} else {
		r = plainMSM[tower.E2](ctx, c.g2ops, c.Fr, points, scalars, threads)
	}
	probe.Observe(telemetry.KernelMSMG2, t0, len(points))
	return r, ctx.Err()
}

// plainMSM runs the core over the full-width scalars, below the GLV gate.
func plainMSM[E any](ctx context.Context, ops Ops[E], fr *ff.Field, points []Affine[E], scalars []ff.Element, threads int) Jac[E] {
	c := msmWindowSize(len(points))
	digits, numWindows := signedDigits(frToLimbs(fr, scalars), fr.Bits(), c)
	return msm(ctx, ops, points, nil, digits, numWindows, c, threads)
}

// G1MSMNaive is the baseline double-and-add MSM (one scalar multiplication
// per point). It exists for correctness cross-checks and for the ablation
// benchmark comparing Pippenger against the naive algorithm.
func (c *Curve) G1MSMNaive(points []G1Affine, scalars []ff.Element) G1Jac {
	var acc, term, pj G1Jac
	c.G1Infinity(&acc)
	for i := range points {
		c.G1FromAffine(&pj, &points[i])
		c.G1ScalarMul(&term, &pj, &scalars[i])
		c.G1Add(&acc, &acc, &term)
	}
	return acc
}
