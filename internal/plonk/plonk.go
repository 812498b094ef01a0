package plonk

import (
	"context"
	"errors"
	"fmt"

	"zkperf/internal/curve"
	"zkperf/internal/ff"
	"zkperf/internal/kzg"
	"zkperf/internal/pairing"
	"zkperf/internal/parallel"
	"zkperf/internal/poly"
	"zkperf/internal/telemetry"
)

// ErrInvalidProof is returned by Verify when a proof fails one of the
// checks — the constraint identity at ζ or a KZG opening. Wrapped so
// callers can errors.Is it apart from malformed-input errors.
var ErrInvalidProof = errors.New("plonk: invalid proof")

// ProvingKey holds the preprocessed circuit: selector and permutation
// polynomials (coefficient form), the evaluation domain and the SRS.
type ProvingKey struct {
	C      *Circuit
	Domain *poly.Domain
	SRS    *kzg.SRS
	K1, K2 ff.Element

	Ql, Qr, Qo, Qm, Qc []ff.Element // selector polynomials
	S1, S2, S3         []ff.Element // permutation polynomials
	s1v, s2v, s3v      []ff.Element // σ values on H (prover's grand product)
}

// VerifyingKey holds the commitments to the preprocessed polynomials.
type VerifyingKey struct {
	N      int
	NumPub int
	K1, K2 ff.Element
	Omega  ff.Element

	CQl, CQr, CQo, CQm, CQc curve.G1Affine
	CS1, CS2, CS3           curve.G1Affine

	SRS *kzg.SRS
}

// Proof is a PLONK proof in the open-everything variant: 7 commitments,
// 16 evaluations and 2 opening proofs.
type Proof struct {
	CA, CB, CC        curve.G1Affine
	CZ                curve.G1Affine
	CTlo, CTmid, CThi curve.G1Affine

	// Evaluations at ζ (and z at ζω), in transcript order.
	EvA, EvB, EvC                ff.Element
	EvZ, EvZw                    ff.Element
	EvTlo, EvTmid, EvThi         ff.Element
	EvQl, EvQr, EvQo, EvQm, EvQc ff.Element
	EvS1, EvS2, EvS3             ff.Element

	Wz, Wzw curve.G1Affine // KZG openings at ζ and ζω
}

// Engine runs PLONK on one curve.
type Engine struct {
	Curve *curve.Curve
	Pair  *pairing.Engine

	// Threads bounds the parallelism of the MSM commits and the quotient
	// coset evaluation. 1 disables parallelism.
	Threads int
}

// NewEngine creates a PLONK engine.
func NewEngine(c *curve.Curve) *Engine {
	return &Engine{Curve: c, Pair: pairing.NewEngine(c), Threads: 1}
}

// threads returns the effective worker count for one call: a per-job
// thread budget carried by ctx (granted by the serving layer's workload
// scheduler) overrides the engine's configured Threads.
func (e *Engine) threads(ctx context.Context) int {
	n := parallel.ThreadBudget(ctx, e.Threads)
	if n < 1 {
		return 1
	}
	return n
}

// Setup preprocesses the circuit: builds the evaluation domain, the σ
// permutation, interpolates selectors and commits to everything. The SRS
// trusted setup consumes rng.
func (e *Engine) Setup(c *Circuit, rng *ff.RNG) (*ProvingKey, *VerifyingKey, error) {
	return e.SetupCtx(context.Background(), c, rng)
}

// SetupCtx is the cancellable Setup: ctx is threaded into the SRS
// fixed-base batch and the eight preprocessing commits, so a cancelled
// caller stops the setup promptly.
func (e *Engine) SetupCtx(ctx context.Context, c *Circuit, rng *ff.RNG) (*ProvingKey, *VerifyingKey, error) {
	fr := e.Curve.Fr
	if c.NumGates() == 0 {
		return nil, nil, fmt.Errorf("plonk: empty circuit")
	}
	d, err := poly.NewDomain(fr, c.NumGates())
	if err != nil {
		return nil, nil, err
	}

	srs, err := kzg.NewSRSCtx(ctx, e.Curve, d.N+1, rng, e.threads(ctx))
	if err != nil {
		return nil, nil, err
	}
	pk, err := e.Preprocess(c, srs)
	if err != nil {
		return nil, nil, err
	}
	vk, err := e.buildVK(ctx, pk)
	if err != nil {
		return nil, nil, err
	}
	return pk, vk, nil
}

// Preprocess builds the per-circuit half of the proving key over an
// existing (universal) SRS: the evaluation domain, coset shifts, selector
// interpolations and the σ permutation polynomials. It is deterministic —
// re-running it for the same circuit and SRS reproduces the same key,
// which is what lets the serialized proving key carry only the SRS.
func (e *Engine) Preprocess(c *Circuit, srs *kzg.SRS) (*ProvingKey, error) {
	fr := e.Curve.Fr
	if c.NumGates() == 0 {
		return nil, fmt.Errorf("plonk: empty circuit")
	}
	d, err := poly.NewDomain(fr, c.NumGates())
	if err != nil {
		return nil, err
	}
	n := d.N
	if srs.MaxDegree() < n+1 {
		return nil, fmt.Errorf("plonk: SRS supports degree %d, circuit needs %d", srs.MaxDegree()-1, n)
	}

	pk := &ProvingKey{C: c, Domain: d, SRS: srs}

	// Coset shifts k1, k2: k1·H and k2·H must be disjoint from H and from
	// each other. Small constants work for our fields; verify anyway.
	fr.SetUint64(&pk.K1, 2)
	fr.SetUint64(&pk.K2, 3)
	checkCoset := func(k *ff.Element) error {
		var kn ff.Element
		fr.ExpUint64(&kn, k, uint64(n))
		if fr.IsOne(&kn) {
			return fmt.Errorf("plonk: coset shift lies in the domain")
		}
		return nil
	}
	var ratio ff.Element
	fr.Inverse(&ratio, &pk.K2)
	fr.Mul(&ratio, &ratio, &pk.K1)
	if err := checkCoset(&pk.K1); err != nil {
		return nil, err
	}
	if err := checkCoset(&pk.K2); err != nil {
		return nil, err
	}
	if err := checkCoset(&ratio); err != nil {
		return nil, err
	}

	// Selector polynomials: pad values to N, interpolate.
	interp := func(vals []ff.Element) []ff.Element {
		out := make([]ff.Element, n)
		copy(out, vals)
		d.INTT(out)
		return out
	}
	pk.Ql = interp(c.QL)
	pk.Qr = interp(c.QR)
	pk.Qo = interp(c.QO)
	pk.Qm = interp(c.QM)
	pk.Qc = interp(c.QC)

	// σ permutation over the 3n wire slots: slots carrying the same
	// variable form a cycle; padding slots are fixed points.
	perm := make([]int, 3*n)
	for i := range perm {
		perm[i] = i
	}
	slotsByVar := make([][]int, c.nVars)
	for i := 0; i < c.NumGates(); i++ {
		slotsByVar[c.A[i]] = append(slotsByVar[c.A[i]], i)
		slotsByVar[c.B[i]] = append(slotsByVar[c.B[i]], n+i)
		slotsByVar[c.C[i]] = append(slotsByVar[c.C[i]], 2*n+i)
	}
	for _, slots := range slotsByVar {
		for j := range slots {
			perm[slots[j]] = slots[(j+1)%len(slots)]
		}
	}
	// slotVal(j): the field label of slot j (ω^i, k1·ω^i or k2·ω^i).
	omegaPows := make([]ff.Element, n)
	var acc ff.Element
	fr.One(&acc)
	for i := 0; i < n; i++ {
		omegaPows[i] = acc
		fr.Mul(&acc, &acc, &d.Root)
	}
	slotVal := func(j int) ff.Element {
		var v ff.Element
		switch {
		case j < n:
			v = omegaPows[j]
		case j < 2*n:
			fr.Mul(&v, &pk.K1, &omegaPows[j-n])
		default:
			fr.Mul(&v, &pk.K2, &omegaPows[j-2*n])
		}
		return v
	}
	pk.s1v = make([]ff.Element, n)
	pk.s2v = make([]ff.Element, n)
	pk.s3v = make([]ff.Element, n)
	for i := 0; i < n; i++ {
		pk.s1v[i] = slotVal(perm[i])
		pk.s2v[i] = slotVal(perm[n+i])
		pk.s3v[i] = slotVal(perm[2*n+i])
	}
	pk.S1 = interp(pk.s1v)
	pk.S2 = interp(pk.s2v)
	pk.S3 = interp(pk.s3v)
	return pk, nil
}

// buildVK commits to the preprocessed polynomials, producing the
// verifying key that pairs with pk.
func (e *Engine) buildVK(ctx context.Context, pk *ProvingKey) (*VerifyingKey, error) {
	vk := &VerifyingKey{
		N: pk.Domain.N, NumPub: pk.C.nPub, Omega: pk.Domain.Root,
		K1: pk.K1, K2: pk.K2, SRS: pk.SRS,
	}
	var err error
	commit := func(p []ff.Element) (curve.G1Affine, error) {
		return pk.SRS.CommitCtx(ctx, p, e.threads(ctx))
	}
	if vk.CQl, err = commit(pk.Ql); err != nil {
		return nil, err
	}
	if vk.CQr, err = commit(pk.Qr); err != nil {
		return nil, err
	}
	if vk.CQo, err = commit(pk.Qo); err != nil {
		return nil, err
	}
	if vk.CQm, err = commit(pk.Qm); err != nil {
		return nil, err
	}
	if vk.CQc, err = commit(pk.Qc); err != nil {
		return nil, err
	}
	if vk.CS1, err = commit(pk.S1); err != nil {
		return nil, err
	}
	if vk.CS2, err = commit(pk.S2); err != nil {
		return nil, err
	}
	if vk.CS3, err = commit(pk.S3); err != nil {
		return nil, err
	}
	return vk, nil
}

// Prove produces a proof that the assignment satisfies the circuit with
// the given public inputs (the values of the declared PublicInput
// variables, in order).
func (e *Engine) Prove(pk *ProvingKey, w Assignment, public []ff.Element) (*Proof, error) {
	return e.ProveCtx(context.Background(), pk, w, public)
}

// ProveCtx is the cancellable Prove: ctx is threaded into every KZG
// commit and opening (checked at Pippenger-window boundaries) and into
// the coset quotient evaluation (checked at chunk boundaries), and
// re-checked between the NTT passes — so a cancelled or deadline-expired
// PLONK job stops burning cores within one kernel chunk, mirroring
// groth16.ProveCtx.
func (e *Engine) ProveCtx(ctx context.Context, pk *ProvingKey, w Assignment, public []ff.Element) (*Proof, error) {
	fr := e.Curve.Fr
	c := pk.C
	d := pk.Domain
	n := d.N
	if err := c.checkGates(w, public); err != nil {
		return nil, err
	}

	// The probe (if any) is resolved once per prove; the MSM hooks inside
	// the KZG commits fire on their own via the curve layer, so only the
	// NTT blocks are attributed here.
	probe := telemetry.ProbeFromContext(ctx)

	// Wire values on H, then coefficient form.
	av, bv, cv, err := c.wireValues(w, n)
	if err != nil {
		return nil, err
	}
	// inttCtx interpolates values on H into coefficient form
	// (non-destructive), parallel across e.Threads and cancellable at
	// butterfly-layer boundaries.
	inttCtx := func(dm *poly.Domain, vals []ff.Element) ([]ff.Element, error) {
		out := make([]ff.Element, dm.N)
		copy(out, vals)
		if err := dm.INTTCtx(ctx, out, e.threads(ctx)); err != nil {
			return nil, err
		}
		return out, nil
	}

	nttT0 := probe.Begin()
	var aCoef, bCoef, cCoef []ff.Element
	if aCoef, err = inttCtx(d, av); err != nil {
		return nil, err
	}
	if bCoef, err = inttCtx(d, bv); err != nil {
		return nil, err
	}
	if cCoef, err = inttCtx(d, cv); err != nil {
		return nil, err
	}
	probe.Observe(telemetry.KernelNTT, nttT0, n)

	proof := &Proof{}
	if proof.CA, err = pk.SRS.CommitCtx(ctx, aCoef, e.threads(ctx)); err != nil {
		return nil, err
	}
	if proof.CB, err = pk.SRS.CommitCtx(ctx, bCoef, e.threads(ctx)); err != nil {
		return nil, err
	}
	if proof.CC, err = pk.SRS.CommitCtx(ctx, cCoef, e.threads(ctx)); err != nil {
		return nil, err
	}

	tr := newTranscript(e.Curve, "plonk")
	absorbVK(tr, pk, public)
	tr.absorbPoint(&proof.CA)
	tr.absorbPoint(&proof.CB)
	tr.absorbPoint(&proof.CC)
	beta := tr.challenge()
	gamma := tr.challenge()

	// Grand product z over H.
	zv := make([]ff.Element, n)
	fr.One(&zv[0])
	nums := make([]ff.Element, n)
	dens := make([]ff.Element, n)
	var omegaI ff.Element
	fr.One(&omegaI)
	var t1, t2, t3 ff.Element
	factor := func(wv, label *ff.Element) ff.Element {
		var out ff.Element
		fr.Mul(&out, &beta, label)
		fr.Add(&out, &out, wv)
		fr.Add(&out, &out, &gamma)
		return out
	}
	for i := 0; i < n; i++ {
		var k1w, k2w ff.Element
		fr.Mul(&k1w, &pk.K1, &omegaI)
		fr.Mul(&k2w, &pk.K2, &omegaI)
		t1 = factor(&av[i], &omegaI)
		t2 = factor(&bv[i], &k1w)
		t3 = factor(&cv[i], &k2w)
		fr.Mul(&nums[i], &t1, &t2)
		fr.Mul(&nums[i], &nums[i], &t3)
		t1 = factor(&av[i], &pk.s1v[i])
		t2 = factor(&bv[i], &pk.s2v[i])
		t3 = factor(&cv[i], &pk.s3v[i])
		fr.Mul(&dens[i], &t1, &t2)
		fr.Mul(&dens[i], &dens[i], &t3)
		fr.Mul(&omegaI, &omegaI, &d.Root)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fr.BatchInverse(dens)
	for i := 0; i < n-1; i++ {
		fr.Mul(&t1, &nums[i], &dens[i])
		fr.Mul(&zv[i+1], &zv[i], &t1)
	}
	zCoef, err := inttCtx(d, zv)
	if err != nil {
		return nil, err
	}
	if proof.CZ, err = pk.SRS.CommitCtx(ctx, zCoef, e.threads(ctx)); err != nil {
		return nil, err
	}
	tr.absorbPoint(&proof.CZ)
	alpha := tr.challenge()

	// Quotient t(x) on a coset of size 4N.
	d4, err := poly.NewDomain(fr, 4*n)
	if err != nil {
		return nil, err
	}
	// toCoset extends a coefficient vector onto the 4N coset. A
	// cancellation inside any extension latches cosetErr and turns the
	// remaining calls into cheap copies; the error is surfaced once after
	// the block.
	var cosetErr error
	toCoset := func(coef []ff.Element) []ff.Element {
		out := make([]ff.Element, d4.N)
		copy(out, coef)
		if cosetErr == nil {
			cosetErr = d4.CosetNTTCtx(ctx, out, e.threads(ctx))
		}
		return out
	}
	nttT0 = probe.Begin()
	aX := toCoset(aCoef)
	bX := toCoset(bCoef)
	cX := toCoset(cCoef)
	zX := toCoset(zCoef)
	// z(ωx): scale coefficients by ω^i before evaluating.
	zwCoef := make([]ff.Element, n)
	var wp ff.Element
	fr.One(&wp)
	for i := range zwCoef {
		fr.Mul(&zwCoef[i], &zCoef[i], &wp)
		fr.Mul(&wp, &wp, &d.Root)
	}
	zwX := toCoset(zwCoef)
	qlX := toCoset(pk.Ql)
	qrX := toCoset(pk.Qr)
	qoX := toCoset(pk.Qo)
	qmX := toCoset(pk.Qm)
	qcX := toCoset(pk.Qc)
	s1X := toCoset(pk.S1)
	s2X := toCoset(pk.S2)
	s3X := toCoset(pk.S3)

	// PI polynomial: −public_i on the first rows of H.
	piVals := make([]ff.Element, n)
	for i := 0; i < c.nPub; i++ {
		fr.Neg(&piVals[i], &public[i])
	}
	piCoef, err := inttCtx(d, piVals)
	if err != nil {
		return nil, err
	}
	piX := toCoset(piCoef)
	if cosetErr != nil {
		return nil, cosetErr
	}
	// 14 coset extensions over the 4N domain make up the prover's big NTT
	// block; one span covers them all.
	probe.Observe(telemetry.KernelNTT, nttT0, d4.N)

	// Z_H and L1 on the coset; Z_H has period 4 there (ω₄^N has order 4).
	zhVals := make([]ff.Element, 4)
	zhInv := make([]ff.Element, 4)
	var gN, w4N ff.Element
	fr.ExpUint64(&gN, &d4.CosetGen, uint64(n))
	fr.ExpUint64(&w4N, &d4.Root, uint64(n))
	var cur ff.Element
	fr.Set(&cur, &gN)
	var one ff.Element
	fr.One(&one)
	for j := 0; j < 4; j++ {
		fr.Sub(&zhVals[j], &cur, &one)
		zhInv[j] = zhVals[j]
		fr.Mul(&cur, &cur, &w4N)
	}
	fr.BatchInverse(zhInv)
	// L1(x) = Z_H(x) / (N·(x−1)): denominators on the coset.
	l1Den := make([]ff.Element, d4.N)
	var xj, nElem ff.Element
	fr.Set(&xj, &d4.CosetGen)
	fr.SetUint64(&nElem, uint64(n))
	for j := 0; j < d4.N; j++ {
		fr.Sub(&l1Den[j], &xj, &one)
		fr.Mul(&l1Den[j], &l1Den[j], &nElem)
		fr.Mul(&xj, &xj, &d4.Root)
	}
	fr.BatchInverse(l1Den)

	tEval := make([]ff.Element, d4.N)
	var alpha2 ff.Element
	fr.Square(&alpha2, &alpha)
	// The per-point quotient evaluation is embarrassingly parallel: each
	// chunk recomputes its starting coset point g·ω₄^lo and walks its own
	// power chain. ChunksCtx both spreads it across e.Threads workers and
	// bounds the cancellation latency to one chunk.
	if err := parallel.ChunksCtx(ctx, d4.N, e.threads(ctx), func(lo, hi int) {
		var xj, rootLo ff.Element
		fr.ExpUint64(&rootLo, &d4.Root, uint64(lo))
		fr.Mul(&xj, &d4.CosetGen, &rootLo)
		for j := lo; j < hi; j++ {
			// gate = ql·a + qr·b + qo·c + qm·a·b + qc + PI
			var gate, tmp ff.Element
			fr.Mul(&gate, &qlX[j], &aX[j])
			fr.Mul(&tmp, &qrX[j], &bX[j])
			fr.Add(&gate, &gate, &tmp)
			fr.Mul(&tmp, &qoX[j], &cX[j])
			fr.Add(&gate, &gate, &tmp)
			fr.Mul(&tmp, &qmX[j], &aX[j])
			fr.Mul(&tmp, &tmp, &bX[j])
			fr.Add(&gate, &gate, &tmp)
			fr.Add(&gate, &gate, &qcX[j])
			fr.Add(&gate, &gate, &piX[j])

			// perm1 = Π(w + β·id + γ)·z − Π(w + β·σ + γ)·z(ωx)
			var k1x, k2x, p1, p2, f1, f2, f3 ff.Element
			fr.Mul(&k1x, &pk.K1, &xj)
			fr.Mul(&k2x, &pk.K2, &xj)
			f1 = factor(&aX[j], &xj)
			f2 = factor(&bX[j], &k1x)
			f3 = factor(&cX[j], &k2x)
			fr.Mul(&p1, &f1, &f2)
			fr.Mul(&p1, &p1, &f3)
			fr.Mul(&p1, &p1, &zX[j])
			f1 = factor(&aX[j], &s1X[j])
			f2 = factor(&bX[j], &s2X[j])
			f3 = factor(&cX[j], &s3X[j])
			fr.Mul(&p2, &f1, &f2)
			fr.Mul(&p2, &p2, &f3)
			fr.Mul(&p2, &p2, &zwX[j])
			var perm1 ff.Element
			fr.Sub(&perm1, &p1, &p2)

			// perm2 = (z − 1)·L1 with L1(x_j) = Z_H(x_j)/(N(x_j − 1)).
			var perm2, l1v ff.Element
			fr.Sub(&perm2, &zX[j], &one)
			fr.Mul(&l1v, &zhVals[j%4], &l1Den[j])
			fr.Mul(&perm2, &perm2, &l1v)

			// t = (gate + α·perm1 + α²·perm2) / Z_H
			var num ff.Element
			fr.Mul(&tmp, &alpha, &perm1)
			fr.Add(&num, &gate, &tmp)
			fr.Mul(&tmp, &alpha2, &perm2)
			fr.Add(&num, &num, &tmp)
			fr.Mul(&tEval[j], &num, &zhInv[j%4])

			fr.Mul(&xj, &xj, &d4.Root)
		}
	}); err != nil {
		return nil, err
	}
	nttT0 = probe.Begin()
	if err := d4.CosetINTTCtx(ctx, tEval, e.threads(ctx)); err != nil {
		return nil, err
	}
	probe.Observe(telemetry.KernelNTT, nttT0, d4.N)
	// Degree sanity: everything beyond 3N must vanish.
	for j := 3 * n; j < d4.N; j++ {
		if !fr.IsZero(&tEval[j]) {
			return nil, fmt.Errorf("plonk: quotient degree overflow (internal error or unsatisfied constraints)")
		}
	}
	tLo := tEval[:n]
	tMid := tEval[n : 2*n]
	tHi := tEval[2*n : 3*n]
	if proof.CTlo, err = pk.SRS.CommitCtx(ctx, tLo, e.threads(ctx)); err != nil {
		return nil, err
	}
	if proof.CTmid, err = pk.SRS.CommitCtx(ctx, tMid, e.threads(ctx)); err != nil {
		return nil, err
	}
	if proof.CThi, err = pk.SRS.CommitCtx(ctx, tHi, e.threads(ctx)); err != nil {
		return nil, err
	}
	tr.absorbPoint(&proof.CTlo)
	tr.absorbPoint(&proof.CTmid)
	tr.absorbPoint(&proof.CThi)
	zeta := tr.challenge()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Evaluations at ζ (and ζω for z).
	polysAtZeta := []struct {
		coef []ff.Element
		dst  *ff.Element
	}{
		{aCoef, &proof.EvA}, {bCoef, &proof.EvB}, {cCoef, &proof.EvC},
		{zCoef, &proof.EvZ},
		{tLo, &proof.EvTlo}, {tMid, &proof.EvTmid}, {tHi, &proof.EvThi},
		{pk.Ql, &proof.EvQl}, {pk.Qr, &proof.EvQr}, {pk.Qo, &proof.EvQo},
		{pk.Qm, &proof.EvQm}, {pk.Qc, &proof.EvQc},
		{pk.S1, &proof.EvS1}, {pk.S2, &proof.EvS2}, {pk.S3, &proof.EvS3},
	}
	for _, p := range polysAtZeta {
		*p.dst = poly.Eval(fr, p.coef, &zeta)
	}
	var zetaOmega ff.Element
	fr.Mul(&zetaOmega, &zeta, &d.Root)
	proof.EvZw = poly.Eval(fr, zCoef, &zetaOmega)

	for _, p := range polysAtZeta {
		tr.absorbScalar(p.dst)
	}
	tr.absorbScalar(&proof.EvZw)
	v := tr.challenge()

	// Batched opening at ζ: F = Σ vⁱ·pᵢ.
	batched := make([]ff.Element, n+1)
	var vPow ff.Element
	fr.One(&vPow)
	for _, p := range polysAtZeta {
		for i := range p.coef {
			fr.Mul(&t1, &p.coef[i], &vPow)
			fr.Add(&batched[i], &batched[i], &t1)
		}
		fr.Mul(&vPow, &vPow, &v)
	}
	if _, proof.Wz, err = pk.SRS.OpenCtx(ctx, batched, &zeta, e.threads(ctx)); err != nil {
		return nil, err
	}
	if _, proof.Wzw, err = pk.SRS.OpenCtx(ctx, zCoef, &zetaOmega, e.threads(ctx)); err != nil {
		return nil, err
	}
	return proof, nil
}

// absorbVK binds the transcript to the preprocessed circuit and the
// public inputs.
func absorbVK(tr *transcript, pk *ProvingKey, public []ff.Element) {
	for i := range public {
		tr.absorbScalar(&public[i])
	}
	tr.absorbScalar(&pk.K1)
	tr.absorbScalar(&pk.K2)
}

// absorbVKVerifier mirrors absorbVK on the verifier side.
func absorbVKVerifier(tr *transcript, vk *VerifyingKey, public []ff.Element) {
	for i := range public {
		tr.absorbScalar(&public[i])
	}
	tr.absorbScalar(&vk.K1)
	tr.absorbScalar(&vk.K2)
}

// Verify checks a proof against the public inputs.
func (e *Engine) Verify(vk *VerifyingKey, proof *Proof, public []ff.Element) error {
	return e.VerifyCtx(context.Background(), vk, proof, public)
}

// VerifyCtx is Verify with a context: the commitment-combining MSM and
// the two KZG opening checks pick up cancellation and the telemetry
// probe from ctx.
func (e *Engine) VerifyCtx(ctx context.Context, vk *VerifyingKey, proof *Proof, public []ff.Element) error {
	fr := e.Curve.Fr
	if len(public) != vk.NumPub {
		return fmt.Errorf("plonk: %d public values, circuit declares %d", len(public), vk.NumPub)
	}
	n := vk.N

	// Recompute the challenges.
	tr := newTranscript(e.Curve, "plonk")
	absorbVKVerifier(tr, vk, public)
	tr.absorbPoint(&proof.CA)
	tr.absorbPoint(&proof.CB)
	tr.absorbPoint(&proof.CC)
	beta := tr.challenge()
	gamma := tr.challenge()
	tr.absorbPoint(&proof.CZ)
	alpha := tr.challenge()
	tr.absorbPoint(&proof.CTlo)
	tr.absorbPoint(&proof.CTmid)
	tr.absorbPoint(&proof.CThi)
	zeta := tr.challenge()
	evals := []*ff.Element{
		&proof.EvA, &proof.EvB, &proof.EvC, &proof.EvZ,
		&proof.EvTlo, &proof.EvTmid, &proof.EvThi,
		&proof.EvQl, &proof.EvQr, &proof.EvQo, &proof.EvQm, &proof.EvQc,
		&proof.EvS1, &proof.EvS2, &proof.EvS3,
	}
	for _, ev := range evals {
		tr.absorbScalar(ev)
	}
	tr.absorbScalar(&proof.EvZw)
	v := tr.challenge()

	// Z_H(ζ), L1(ζ), PI(ζ).
	var zetaN, zh, one ff.Element
	fr.One(&one)
	fr.ExpUint64(&zetaN, &zeta, uint64(n))
	fr.Sub(&zh, &zetaN, &one)
	if fr.IsZero(&zh) {
		return fmt.Errorf("plonk: evaluation point in domain")
	}
	var nElem, l1, den ff.Element
	fr.SetUint64(&nElem, uint64(n))
	fr.Sub(&den, &zeta, &one)
	fr.Mul(&den, &den, &nElem)
	fr.Inverse(&den, &den)
	fr.Mul(&l1, &zh, &den)

	var pi ff.Element
	var omegaI ff.Element
	fr.One(&omegaI)
	var t1, t2 ff.Element
	for i := 0; i < vk.NumPub; i++ {
		// L_i(ζ) = ω^i·Z_H(ζ) / (N·(ζ − ω^i))
		fr.Sub(&t1, &zeta, &omegaI)
		fr.Mul(&t1, &t1, &nElem)
		fr.Inverse(&t1, &t1)
		fr.Mul(&t1, &t1, &zh)
		fr.Mul(&t1, &t1, &omegaI)
		fr.Mul(&t2, &t1, &public[i])
		fr.Sub(&pi, &pi, &t2)
		fr.Mul(&omegaI, &omegaI, &vk.Omega)
	}

	// Main identity: gate + α·perm1 + α²·perm2 == t(ζ)·Z_H(ζ).
	var gate, tmp ff.Element
	fr.Mul(&gate, &proof.EvQl, &proof.EvA)
	fr.Mul(&tmp, &proof.EvQr, &proof.EvB)
	fr.Add(&gate, &gate, &tmp)
	fr.Mul(&tmp, &proof.EvQo, &proof.EvC)
	fr.Add(&gate, &gate, &tmp)
	fr.Mul(&tmp, &proof.EvQm, &proof.EvA)
	fr.Mul(&tmp, &tmp, &proof.EvB)
	fr.Add(&gate, &gate, &tmp)
	fr.Add(&gate, &gate, &proof.EvQc)
	fr.Add(&gate, &gate, &pi)

	factor := func(wv, label *ff.Element) ff.Element {
		var out ff.Element
		fr.Mul(&out, &beta, label)
		fr.Add(&out, &out, wv)
		fr.Add(&out, &out, &gamma)
		return out
	}
	var k1z, k2z ff.Element
	fr.Mul(&k1z, &vk.K1, &zeta)
	fr.Mul(&k2z, &vk.K2, &zeta)
	f1 := factor(&proof.EvA, &zeta)
	f2 := factor(&proof.EvB, &k1z)
	f3 := factor(&proof.EvC, &k2z)
	var p1 ff.Element
	fr.Mul(&p1, &f1, &f2)
	fr.Mul(&p1, &p1, &f3)
	fr.Mul(&p1, &p1, &proof.EvZ)
	f1 = factor(&proof.EvA, &proof.EvS1)
	f2 = factor(&proof.EvB, &proof.EvS2)
	f3 = factor(&proof.EvC, &proof.EvS3)
	var p2 ff.Element
	fr.Mul(&p2, &f1, &f2)
	fr.Mul(&p2, &p2, &f3)
	fr.Mul(&p2, &p2, &proof.EvZw)
	var perm1 ff.Element
	fr.Sub(&perm1, &p1, &p2)

	var perm2 ff.Element
	fr.Sub(&perm2, &proof.EvZ, &one)
	fr.Mul(&perm2, &perm2, &l1)

	var lhs, alpha2 ff.Element
	fr.Mul(&tmp, &alpha, &perm1)
	fr.Add(&lhs, &gate, &tmp)
	fr.Square(&alpha2, &alpha)
	fr.Mul(&tmp, &alpha2, &perm2)
	fr.Add(&lhs, &lhs, &tmp)

	// t(ζ) = t_lo + ζ^N·t_mid + ζ^{2N}·t_hi.
	var tZeta, zeta2N ff.Element
	fr.Square(&zeta2N, &zetaN)
	fr.Mul(&tmp, &zetaN, &proof.EvTmid)
	fr.Add(&tZeta, &proof.EvTlo, &tmp)
	fr.Mul(&tmp, &zeta2N, &proof.EvThi)
	fr.Add(&tZeta, &tZeta, &tmp)

	var rhs ff.Element
	fr.Mul(&rhs, &tZeta, &zh)
	if !fr.Equal(&lhs, &rhs) {
		return fmt.Errorf("%w: constraint identity fails at ζ", ErrInvalidProof)
	}

	// Batched KZG opening at ζ: combine commitments and evaluations with
	// the same powers of v the prover used.
	commitments := []*curve.G1Affine{
		&proof.CA, &proof.CB, &proof.CC, &proof.CZ,
		&proof.CTlo, &proof.CTmid, &proof.CThi,
		&vk.CQl, &vk.CQr, &vk.CQo, &vk.CQm, &vk.CQc,
		&vk.CS1, &vk.CS2, &vk.CS3,
	}
	points := make([]curve.G1Affine, len(commitments))
	scalars := make([]ff.Element, len(commitments))
	var combinedEval, vPow ff.Element
	fr.One(&vPow)
	for i := range commitments {
		points[i] = *commitments[i]
		scalars[i] = vPow
		fr.Mul(&tmp, evals[i], &vPow)
		fr.Add(&combinedEval, &combinedEval, &tmp)
		fr.Mul(&vPow, &vPow, &v)
	}
	accJ, err := e.Curve.G1MSMCtx(ctx, points, scalars, 1)
	if err != nil {
		return err
	}
	var combinedC curve.G1Affine
	e.Curve.G1ToAffine(&combinedC, &accJ)
	if !vk.SRS.VerifyCtx(ctx, e.Pair, &combinedC, &zeta, &combinedEval, &proof.Wz) {
		return fmt.Errorf("%w: batched opening at ζ fails", ErrInvalidProof)
	}

	var zetaOmega ff.Element
	fr.Mul(&zetaOmega, &zeta, &vk.Omega)
	if !vk.SRS.VerifyCtx(ctx, e.Pair, &proof.CZ, &zetaOmega, &proof.EvZw, &proof.Wzw) {
		return fmt.Errorf("%w: opening of z at ζω fails", ErrInvalidProof)
	}
	return nil
}
