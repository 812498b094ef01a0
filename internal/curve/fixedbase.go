package curve

import (
	"context"

	"zkperf/internal/ff"
	"zkperf/internal/parallel"
	"zkperf/internal/telemetry"
	"zkperf/internal/tower"
)

// Fixed-base scalar multiplication: the Groth16 setup and KZG SRS
// generation perform hundreds of thousands of scalar multiplications with
// the same base (the group generator), so a windowed precomputation table
// turns each one into ~⌈bits/c⌉ mixed additions. Tables use the same
// signed-digit windows as the MSM: digits in [−2^{c−1}, 2^{c−1}] instead
// of [0, 2^c), which halves each row (negation of an affine point is
// free) — so window 9 costs the same storage as unsigned window 8 while
// doing ~10% fewer additions per multiplication.
//
// Generator tables are shared process-wide and persisted into the
// artifact store (tablestore.go): the table data is immutable after
// construction, so instances bind their own field-op adapters to it for
// correct per-curve operation accounting.

// fixedBaseWindow is the table window width. Signed window 9 gives
// 256-entry rows and 29 rows for a 254-bit scalar field: ~7.4k
// precomputed points per table.
const fixedBaseWindow = 9

// FixedBaseWindowBits is the table window width, exported so op-count and
// memory models can mirror the table geometry: (bits+c)/c windows of
// 2^{c−1} signed-digit entries each.
const FixedBaseWindowBits = fixedBaseWindow

// fixedBaseData is the immutable precomputed table: the per-window
// multiples of one base point, windows[w][d−1] = [d·2^{cw}]·Base for
// digits d in 1..2^{c−1}. It carries no field ops, so it can be cached
// process-wide and shared across curve instances.
type fixedBaseData[E any] struct {
	window  int
	bits    int
	windows [][]Affine[E]
}

// FixedBaseTable binds a table to one curve instance's field ops.
type FixedBaseTable[E any] struct {
	ops  Ops[E]
	data *fixedBaseData[E]
}

// newFixedBaseData precomputes the signed-window table for base.
func newFixedBaseData[E any](ops Ops[E], base *Affine[E], scalarBits int) *fixedBaseData[E] {
	c := fixedBaseWindow
	// ⌈(scalarBits+1)/c⌉ windows: the extra bit absorbs the signed-digit
	// carry, mirroring signedDigits in msm.go.
	numWindows := (scalarBits + c) / c
	half := 1 << uint(c-1)
	d := &fixedBaseData[E]{window: c, bits: scalarBits}
	d.windows = make([][]Affine[E], numWindows)

	var windowBase Jac[E]
	fromAffine(ops, &windowBase, base)
	rowJac := make([]Jac[E], half)
	var tp jacTemps[E]
	for w := 0; w < numWindows; w++ {
		// Row: 1·B, 2·B, …, 2^{c−1}·B where B = [2^{cw}]·base.
		var acc Jac[E]
		jacSetInfinity(ops, &acc)
		for i := 0; i < half; i++ {
			jacAddT(ops, &acc, &acc, &windowBase, &tp)
			rowJac[i] = acc
		}
		row := make([]Affine[E], half)
		batchToAffine(ops, row, rowJac)
		d.windows[w] = row
		// Advance the window base: B ← [2^c]·B.
		for i := 0; i < c; i++ {
			jacDoubleT(ops, &windowBase, &windowBase, &tp)
		}
	}
	return d
}

// mul computes [k]·Base for a canonical little-endian limb scalar, using
// caller-owned scratch (tp, qn) so batch callers pay no per-call
// allocations.
func (t *FixedBaseTable[E]) mul(z *Jac[E], limbs []uint64, tp *jacTemps[E], qn *Affine[E]) {
	ops := t.ops
	d := t.data
	c := d.window
	half := 1 << uint(c-1)
	jacSetInfinity(ops, z)
	carry := 0
	for w := range d.windows {
		dig := windowDigit(limbs, w, c) + carry
		carry = 0
		if dig > half {
			dig -= 1 << uint(c)
			carry = 1
		}
		if dig == 0 {
			continue
		}
		if dig > 0 {
			jacAddAffineT(ops, z, z, &d.windows[w][dig-1], tp)
		} else {
			e := &d.windows[w][-dig-1]
			qn.Inf = e.Inf
			ops.Set(&qn.X, &e.X)
			ops.Neg(&qn.Y, &e.Y)
			jacAddAffineT(ops, z, z, qn, tp)
		}
	}
}

// G1Table is a fixed-base table over a G1 point.
type G1Table struct {
	c   *Curve
	tab *FixedBaseTable[ff.Element]
}

// G2Table is a fixed-base table over a G2 point.
type G2Table struct {
	c   *Curve
	tab *FixedBaseTable[tower.E2]
}

// NewG1Table precomputes a fixed-base table for base. For the group
// generator prefer G1GenTable, which caches and persists the table.
func (c *Curve) NewG1Table(base *G1Affine) *G1Table {
	data := newFixedBaseData[ff.Element](c.g1ops, base, c.Fr.Bits())
	return &G1Table{c: c, tab: &FixedBaseTable[ff.Element]{ops: c.g1ops, data: data}}
}

// NewG2Table precomputes a fixed-base table for base. For the group
// generator prefer G2GenTable, which caches and persists the table.
func (c *Curve) NewG2Table(base *G2Affine) *G2Table {
	data := newFixedBaseData[tower.E2](c.g2ops, base, c.Fr.Bits())
	return &G2Table{c: c, tab: &FixedBaseTable[tower.E2]{ops: c.g2ops, data: data}}
}

// fixedBaseBlock is the number of results a MulBatch worker holds in
// Jacobian form before batch-normalizing them into the output: it bounds
// the worker's scratch at one block whatever the batch size.
const fixedBaseBlock = 1024

// Mul sets z = [k]·Base for a scalar-field element k.
func (t *G1Table) Mul(z *G1Jac, k *ff.Element) {
	var limbs scalarLimbs
	t.c.Fr.CanonicalLimbs(k, limbs[:])
	var tp jacTemps[ff.Element]
	var qn G1Affine
	t.tab.mul(z, limbs[:t.c.Fr.NumLimbs()], &tp, &qn)
}

// Mul sets z = [k]·Base for a scalar-field element k.
func (t *G2Table) Mul(z *G2Jac, k *ff.Element) {
	var limbs scalarLimbs
	t.c.Fr.CanonicalLimbs(k, limbs[:])
	var tp jacTemps[tower.E2]
	var qn G2Affine
	t.tab.mul(z, limbs[:t.c.Fr.NumLimbs()], &tp, &qn)
}

// mulBatch computes out[i] = [scalars[i]]·Base in parallel worker chunks.
// Each chunk runs in blocks of fixedBaseBlock through one Jacobian buffer
// and one limb buffer of its own, so scratch stays O(threads·block)
// rather than O(n). Affine outputs are canonical, so the blocking cannot
// change a result.
func (t *FixedBaseTable[E]) mulBatch(ctx context.Context, fr *ff.Field, out []Affine[E], scalars []ff.Element, threads int) error {
	nl := fr.NumLimbs()
	return parallel.ChunksCtx(ctx, len(scalars), threads, func(lo, hi int) {
		jacs := make([]Jac[E], min(fixedBaseBlock, hi-lo))
		var tp jacTemps[E]
		var qn Affine[E]
		var limbs scalarLimbs
		for b := lo; b < hi; b += fixedBaseBlock {
			e := min(b+fixedBaseBlock, hi)
			for i := b; i < e; i++ {
				fr.CanonicalLimbs(&scalars[i], limbs[:])
				t.mul(&jacs[i-b], limbs[:nl], &tp, &qn)
			}
			batchToAffine(t.ops, out[b:e], jacs[:e-b])
		}
	})
}

// MulBatch computes [kᵢ]·Base for every scalar, in parallel worker chunks,
// returning affine results.
func (t *G1Table) MulBatch(scalars []ff.Element, threads int) []G1Affine {
	out, _ := t.MulBatchCtx(context.Background(), scalars, threads)
	return out
}

// MulBatchCtx is the cancellable MulBatch: no new chunk starts once ctx is
// done, and ctx.Err() is returned. On error the output is partial and must
// be discarded.
func (t *G1Table) MulBatchCtx(ctx context.Context, scalars []ff.Element, threads int) ([]G1Affine, error) {
	probe := telemetry.ProbeFromContext(ctx)
	t0 := probe.Begin()
	out := make([]G1Affine, len(scalars))
	err := t.tab.mulBatch(ctx, t.c.Fr, out, scalars, threads)
	probe.Observe(telemetry.KernelMSMG1, t0, len(scalars))
	return out, err
}

// MulBatch computes [kᵢ]·Base for every scalar, in parallel worker chunks.
func (t *G2Table) MulBatch(scalars []ff.Element, threads int) []G2Affine {
	out, _ := t.MulBatchCtx(context.Background(), scalars, threads)
	return out
}

// MulBatchCtx is the cancellable MulBatch; see (*G1Table).MulBatchCtx.
func (t *G2Table) MulBatchCtx(ctx context.Context, scalars []ff.Element, threads int) ([]G2Affine, error) {
	probe := telemetry.ProbeFromContext(ctx)
	t0 := probe.Begin()
	out := make([]G2Affine, len(scalars))
	err := t.tab.mulBatch(ctx, t.c.Fr, out, scalars, threads)
	probe.Observe(telemetry.KernelMSMG2, t0, len(scalars))
	return out, err
}
