package curve

import (
	"context"
	"math/big"
	"math/bits"

	"zkperf/internal/ff"
	"zkperf/internal/parallel"
	"zkperf/internal/tower"
)

// GLV endomorphism scalar decomposition. Both BN254 and BLS12-381 have
// j-invariant 0 (y² = x³ + b), so the map φ(x, y) = (β·x, y) with β a
// primitive cube root of unity in the coordinate field is an automorphism
// of the curve. On the order-r subgroup it acts as multiplication by an
// eigenvalue λ with λ² + λ + 1 ≡ 0 (mod r). Decomposing a scalar k into
// k = k1 + λ·k2 with |k1|, |k2| ≈ √r (lattice reduction, precomputed
// basis) lets the MSM run over 2n entries (P and φ(P), the latter never
// materialised: see glvMSM) at half the bit-length — fewer windows over the
// same bucket machinery. The same construction covers G2:
// β lies in Fp ⊂ Fp2, the automorphism commutes with Frobenius and so
// preserves the G2 eigenspace, acting there as λ or λ² (= −1−λ); the
// constructor picks whichever power of β gives the same λ on both groups
// so one decomposition serves both MSMs.

// glvData holds the per-curve endomorphism constants, derived once (lazily)
// per curve instance and validated against the generators.
type glvData struct {
	lambda *big.Int   // shared eigenvalue: φ(P) = [λ]P on G1 and G2
	beta1  ff.Element // G1 endomorphism: (x, y) ↦ (β1·x, y)
	beta2  ff.Element // G2 endomorphism: (x, y) ↦ (β2·x, y), β2 ∈ Fp ⊂ Fp2

	// Reduced lattice basis for {(x, y) : x + y·λ ≡ 0 mod r}; k decomposes
	// via Babai rounding against (a1, b1), (a2, b2).
	a1, b1, a2, b2 *big.Int

	r    *big.Int
	bits int // bound on subscalar bit length (drives the MSM window count)

	// Fixed-width Babai rounding (babaiConstants): gᵢ ≈ |bᵢ'|·2^(64·(nl+1))/r
	// with signs, and the basis in nl-limb two's complement.
	nl           int
	g1, g2       scalarLimbs
	g1Neg, g2Neg bool
	a1w, b1w     scalarLimbs
	a2w, b2w     scalarLimbs
}

// cubeRootOfUnity finds a primitive cube root of unity mod m (m ≡ 1 mod 3)
// as g^((m−1)/3) for the first small g that gives a nontrivial root.
func cubeRootOfUnity(m *big.Int) *big.Int {
	e := new(big.Int).Sub(m, big.NewInt(1))
	e.Div(e, big.NewInt(3))
	one := big.NewInt(1)
	for g := int64(2); ; g++ {
		z := new(big.Int).Exp(big.NewInt(g), e, m)
		if z.Cmp(one) != 0 {
			return z
		}
	}
}

// glvLattice runs the extended Euclidean algorithm on (r, λ) and returns a
// reduced basis of the GLV lattice: two short vectors (a1, b1), (a2, b2)
// with a + b·λ ≡ 0 (mod r) and ‖·‖ ≈ √r (Guide to ECC, Alg. 3.74).
func glvLattice(r, lambda *big.Int) (a1, b1, a2, b2 *big.Int) {
	sqrtR := new(big.Int).Sqrt(r)
	// Remainder sequence rᵢ with cofactors tᵢ: rᵢ = sᵢ·r + tᵢ·λ.
	rPrev, rCur := new(big.Int).Set(r), new(big.Int).Set(lambda)
	tPrev, tCur := big.NewInt(0), big.NewInt(1)
	q, tmp := new(big.Int), new(big.Int)
	for rCur.Cmp(sqrtR) >= 0 {
		q.Div(rPrev, rCur)
		tmp.Mul(q, rCur)
		rPrev.Sub(rPrev, tmp)
		rPrev, rCur = rCur, rPrev
		tmp.Mul(q, tCur)
		tPrev.Sub(tPrev, tmp)
		tPrev, tCur = tCur, tPrev
	}
	// Here rCur = r_{m+1} < √r ≤ rPrev = r_m.
	a1 = new(big.Int).Set(rCur)
	b1 = new(big.Int).Neg(tCur)
	// Second vector: (r_m, −t_m) or (r_{m+2}, −t_{m+2}), whichever is
	// shorter by squared Euclidean norm.
	candA := new(big.Int).Set(rPrev)
	candB := new(big.Int).Neg(tPrev)
	q.Div(rPrev, rCur)
	rNext := new(big.Int).Mul(q, rCur)
	rNext.Sub(rPrev, rNext)
	tNext := new(big.Int).Mul(q, tCur)
	tNext.Sub(tPrev, tNext)
	tNext.Neg(tNext)
	if normSq(rNext, tNext).Cmp(normSq(candA, candB)) < 0 {
		candA, candB = rNext, tNext
	}
	return a1, b1, candA, candB
}

func normSq(a, b *big.Int) *big.Int {
	n := new(big.Int).Mul(a, a)
	t := new(big.Int).Mul(b, b)
	return n.Add(n, t)
}

// glvInit derives β, λ and the lattice basis, validating the eigenvalue
// pairing against both generators. It runs once per curve instance.
func (c *Curve) glvInit() {
	r := c.Fr.Modulus()
	lam := cubeRootOfUnity(r)
	lam2 := new(big.Int).Mul(lam, lam)
	lam2.Mod(lam2, r)

	betaBig := cubeRootOfUnity(c.Fp.Modulus())
	var beta, betaSq ff.Element
	c.Fp.SetBigInt(&beta, betaBig)
	c.Fp.Mul(&betaSq, &beta, &beta)

	// Match each group's β power with the shared eigenvalue λ: exactly one
	// of {β, β²} satisfies φ(Gen) = [λ]Gen in each group (the other gives
	// λ² = −1−λ).
	g := &glvData{lambda: lam, r: r}
	matched := false
	for _, cand := range []ff.Element{beta, betaSq} {
		if c.g1PhiMatches(&cand, lam) {
			g.beta1 = cand
			matched = true
			break
		}
	}
	if !matched {
		// λ and λ² are the only primitive cube roots; if β and β² both
		// pair with λ² on G1, swap the eigenvalue.
		lam, lam2 = lam2, lam
		g.lambda = lam
		for _, cand := range []ff.Element{beta, betaSq} {
			if c.g1PhiMatches(&cand, lam) {
				g.beta1 = cand
				matched = true
				break
			}
		}
	}
	if !matched {
		panic("curve: GLV eigenvalue matching failed on G1")
	}
	matched = false
	for _, cand := range []ff.Element{beta, betaSq} {
		if c.g2PhiMatches(&cand, lam) {
			g.beta2 = cand
			matched = true
			break
		}
	}
	if !matched {
		panic("curve: GLV eigenvalue matching failed on G2")
	}

	g.a1, g.b1, g.a2, g.b2 = glvLattice(r, lam)
	// Babai rounding below assumes det(v1, v2) = a1·b2 − a2·b1 = +r; the
	// EEA can hand back a basis with determinant −r (it does for
	// BLS12-381, whose remainder sequence collapses from √r straight to 1
	// because λ is a root of λ²∓λ+1). Negating one vector flips the sign
	// without changing the lattice.
	det := new(big.Int).Mul(g.a1, g.b2)
	det.Sub(det, new(big.Int).Mul(g.a2, g.b1))
	if det.CmpAbs(r) != 0 {
		panic("curve: GLV basis determinant != ±r")
	}
	if det.Sign() < 0 {
		g.a2.Neg(g.a2)
		g.b2.Neg(g.b2)
	}
	// Babai rounding error is bounded by the basis vectors themselves:
	// |k1| ≤ |a1| + |a2|, |k2| ≤ |b1| + |b2| (up to the rounding half-unit),
	// so two guard bits over the longest basis coordinate are enough.
	maxBits := 0
	for _, v := range []*big.Int{g.a1, g.b1, g.a2, g.b2} {
		if l := v.BitLen(); l > maxBits {
			maxBits = l
		}
	}
	g.bits = maxBits + 2
	g.babaiConstants(c.Fr.NumLimbs())
	c.glv = g
}

// g1PhiMatches reports whether (β·x, y) = [λ]G1Gen.
func (c *Curve) g1PhiMatches(beta *ff.Element, lam *big.Int) bool {
	var phi G1Affine
	c.Fp.Mul(&phi.X, &c.G1Gen.X, beta)
	c.Fp.Set(&phi.Y, &c.G1Gen.Y)
	var want, got G1Jac
	c.G1FromAffine(&got, &phi)
	c.G1FromAffine(&want, &c.G1Gen)
	c.G1ScalarMulBig(&want, &want, lam)
	return c.G1Equal(&got, &want)
}

// g2PhiMatches reports whether (β·x, y) = [λ]G2Gen for β ∈ Fp ⊂ Fp2.
func (c *Curve) g2PhiMatches(beta *ff.Element, lam *big.Int) bool {
	var phi G2Affine
	c.Tw.E2MulByElement(&phi.X, &c.G2Gen.X, beta)
	c.Tw.E2Set(&phi.Y, &c.G2Gen.Y)
	var want, got G2Jac
	c.G2FromAffine(&got, &phi)
	c.G2FromAffine(&want, &c.G2Gen)
	c.G2ScalarMulBig(&want, &want, lam)
	return c.G2Equal(&got, &want)
}

// GLV returns the curve's endomorphism data, deriving it on first use.
func (c *Curve) GLV() *glvData {
	c.glvOnce.Do(c.glvInit)
	return c.glv
}

// GLVLambda exposes the eigenvalue for tests and op-count models.
func (c *Curve) GLVLambda() *big.Int { return new(big.Int).Set(c.GLV().lambda) }

// GLVBits exposes the subscalar bit bound for tests and op-count models.
func (c *Curve) GLVBits() int { return c.GLV().bits }

// G1Phi applies the G1 endomorphism: z = φ(p) = (β·x, y) = [λ]p.
func (c *Curve) G1Phi(z, p *G1Affine) {
	z.Inf = p.Inf
	c.g1PhiX(&z.X, &p.X)
	c.Fp.Set(&z.Y, &p.Y)
}

// G2Phi applies the G2 endomorphism: z = φ(p) = (β·x, y) = [λ]p.
func (c *Curve) G2Phi(z, p *G2Affine) {
	z.Inf = p.Inf
	c.g2PhiX(&z.X, &p.X)
	c.Tw.E2Set(&z.Y, &p.Y)
}

// g1PhiX sets z = β·x, the x-coordinate of φ on G1 (φ leaves y alone).
func (c *Curve) g1PhiX(z, x *ff.Element) { c.Fp.Mul(z, x, &c.GLV().beta1) }

// g2PhiX sets z = β·x, the x-coordinate of φ on G2.
func (c *Curve) g2PhiX(z, x *tower.E2) { c.Tw.E2MulByElement(z, x, &c.GLV().beta2) }

// scalarLimbs is one scalar as fixed-width little-endian limbs. The
// decomposition below works modulo 2^(64·nl) (nl = Fr.NumLimbs()) in
// two's complement: the subscalars are far below 2^(64·nl−1), so wrapping
// intermediate products leave them exact.
type scalarLimbs = [ff.MaxLimbs]uint64

// babaiConstants fills the fixed-width Babai rounding constants:
// gᵢ = ⌊|bᵢ'|·2^m / r⌉ with m = 64·(nl+1) and (b1', b2') = (b2, −b1), their
// signs, and the basis in nl-limb two's complement. The extra limb over
// the scalar width keeps k·gᵢ/2^m within 2^−65 of k·bᵢ'/r, so the rounding
// picks the exact Babai coefficient except with negligible probability;
// the bit bound holds even when it does not.
func (g *glvData) babaiConstants(nl int) {
	if nl+1 > ff.MaxLimbs {
		panic("curve: GLV scalar field too wide for the fixed-width decomposition")
	}
	g.nl = nl
	m := uint(64 * (nl + 1))
	round := func(b *big.Int) (scalarLimbs, bool) {
		// ⌊(2·|b|·2^m + r) / 2r⌋
		t := new(big.Int).Abs(b)
		t.Lsh(t, m+1)
		t.Add(t, g.r)
		t.Div(t, new(big.Int).Lsh(g.r, 1))
		return bigToScalarLimbs(t, nl+1), b.Sign() < 0
	}
	g.g1, g.g1Neg = round(g.b2)
	g.g2, g.g2Neg = round(new(big.Int).Neg(g.b1))
	g.a1w = bigToScalarLimbs(g.a1, nl)
	g.b1w = bigToScalarLimbs(g.b1, nl)
	g.a2w = bigToScalarLimbs(g.a2, nl)
	g.b2w = bigToScalarLimbs(g.b2, nl)
}

// bigToScalarLimbs reduces v modulo 2^(64·nl) (two's complement for
// negative v) into little-endian limbs.
func bigToScalarLimbs(v *big.Int, nl int) scalarLimbs {
	t := new(big.Int).Lsh(big.NewInt(1), uint(64*nl))
	t.Add(t, v)
	mask := new(big.Int).SetUint64(^uint64(0))
	var z scalarLimbs
	for i := 0; i < nl; i++ {
		z[i] = new(big.Int).And(t, mask).Uint64()
		t.Rsh(t, 64)
	}
	return z
}

// mulHighRound returns ⌊(k·g + 2^(m−1)) / 2^m⌋ for an nl-limb k, an
// (nl+1)-limb g and m = 64·(nl+1): the top nl limbs of the product,
// rounded.
func mulHighRound(k, g *scalarLimbs, nl int) scalarLimbs {
	var t [2*ff.MaxLimbs + 1]uint64
	for i := 0; i < nl; i++ {
		var carry uint64
		for j := 0; j <= nl; j++ {
			hi, lo := bits.Mul64(k[i], g[j])
			var c uint64
			lo, c = bits.Add64(lo, t[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			t[i+j] = lo
			carry = hi
		}
		t[i+nl+1] = carry
	}
	carry := uint64(1) << 63
	for i := nl; i <= 2*nl && carry != 0; i++ {
		t[i], carry = bits.Add64(t[i], carry, 0)
	}
	var z scalarLimbs
	copy(z[:nl], t[nl+1:2*nl+1])
	return z
}

// mulLow returns x·y mod 2^(64·nl).
func mulLow(x, y *scalarLimbs, nl int) scalarLimbs {
	var z scalarLimbs
	for i := 0; i < nl; i++ {
		var carry uint64
		for j := 0; i+j < nl; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j] = lo
			carry = hi
		}
	}
	return z
}

// subLimbs returns x − y mod 2^(64·nl).
func subLimbs(x, y *scalarLimbs, nl int) scalarLimbs {
	var z scalarLimbs
	var b uint64
	for i := 0; i < nl; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	return z
}

// absLimbs returns |x| for x read as nl-limb two's complement, and
// whether x was negative.
func absLimbs(x *scalarLimbs, nl int) (scalarLimbs, bool) {
	if x[nl-1]>>63 == 0 {
		return *x, false
	}
	var zero scalarLimbs
	return subLimbs(&zero, x, nl), true
}

// limbsBitLen is the bit length of an nl-limb magnitude.
func limbsBitLen(x *scalarLimbs, nl int) int {
	for i := nl - 1; i >= 0; i-- {
		if x[i] != 0 {
			return 64*i + bits.Len64(x[i])
		}
	}
	return 0
}

// decompose splits canonical k ∈ [0, r) (nl little-endian limbs) into
// magnitudes k1, k2 below 2^bits and their signs, with
// k ≡ ±k1 + λ·(±k2) (mod r). Babai rounding cᵢ = ⌊k·bᵢ'/r⌉ is replaced by
// a multiply-high against the precomputed gᵢ ≈ bᵢ'·2^m/r; even where that
// misses the exact coefficient it is off by at most one, so
// |k1| ≤ |a1| + |a2| and |k2| ≤ |b1| + |b2| — inside the two guard bits of
// the bound. It allocates nothing.
func (g *glvData) decompose(k *scalarLimbs) (k1, k2 scalarLimbs, neg1, neg2 bool) {
	nl := g.nl
	var zero scalarLimbs
	c1 := mulHighRound(k, &g.g1, nl)
	if g.g1Neg {
		c1 = subLimbs(&zero, &c1, nl)
	}
	c2 := mulHighRound(k, &g.g2, nl)
	if g.g2Neg {
		c2 = subLimbs(&zero, &c2, nl)
	}
	// k1 = k − c1·a1 − c2·a2 ; k2 = −c1·b1 − c2·b2.
	t := mulLow(&c1, &g.a1w, nl)
	k1 = subLimbs(k, &t, nl)
	t = mulLow(&c2, &g.a2w, nl)
	k1 = subLimbs(&k1, &t, nl)
	t = mulLow(&c1, &g.b1w, nl)
	k2 = subLimbs(&zero, &t, nl)
	t = mulLow(&c2, &g.b2w, nl)
	k2 = subLimbs(&k2, &t, nl)

	k1, neg1 = absLimbs(&k1, nl)
	k2, neg2 = absLimbs(&k2, nl)
	if limbsBitLen(&k1, nl) > g.bits || limbsBitLen(&k2, nl) > g.bits {
		// Impossible for k < r with a reduced basis; a failure here means
		// the precomputed constants are corrupt.
		panic("curve: GLV subscalar exceeds bit bound")
	}
	return k1, k2, neg1, neg2
}

// glvMinPoints gates the GLV path: below this size the decomposition and
// the φ-coordinate pass outweigh the saved windows.
const glvMinPoints = 64

// GLVMinPoints is the MSM size at and above which the endomorphism path
// kicks in, exported so op-count and memory models can mirror the gate.
const GLVMinPoints = glvMinPoints

// glvMSM runs the Pippenger core over 2n virtual entries without copying
// a point: entry 2i is points[i], entry 2i+1 is φ(points[i]), read as
// (phiX[i], points[i].Y) because φ leaves y unchanged. phiX is the one
// per-call array (β·x of every finite point); phiXOf computes it. Each
// scalar goes straight from its decomposition into the int16 digit
// matrix, with the subscalar's sign folded into its digits, so the window
// loop reads one digit per entry and never negates a stored point. The
// pass is embarrassingly parallel and deterministic, so the split cannot
// perturb the MSM result.
func glvMSM[E any](ctx context.Context, ops Ops[E], g *glvData, phiXOf func(z, x *E), fr *ff.Field, points []Affine[E], scalars []ff.Element, threads int) Jac[E] {
	n := len(points)
	if n != len(scalars) {
		panic("curve: MSM points/scalars length mismatch")
	}
	c := msmWindowSize(2 * n)
	numWindows := (g.bits + c) / c
	digits := make([]int16, numWindows*2*n)
	phiX := make([]E, n)
	nl := fr.NumLimbs()
	_ = parallel.ChunksCtx(ctx, n, threads, func(lo, hi int) {
		var k scalarLimbs
		for i := lo; i < hi; i++ {
			fr.CanonicalLimbs(&scalars[i], k[:nl])
			k1, k2, neg1, neg2 := g.decompose(&k)
			putDigits(digits, 2*i, 2*n, k1[:nl], numWindows, c, neg1)
			putDigits(digits, 2*i+1, 2*n, k2[:nl], numWindows, c, neg2)
			if !points[i].Inf {
				phiXOf(&phiX[i], &points[i].X)
			}
		}
	})
	return msm(ctx, ops, points, phiX, digits, numWindows, c, threads)
}
