package curve

import (
	"math/big"
	"testing"

	"zkperf/internal/ff"
)

// glvOracle is the big.Int Babai-rounding decomposition the fixed-width
// limb path replaced, kept as the reference: cᵢ = ⌊bᵢ'·k/r⌉ exactly, with
// (b1', b2') = (b2, −b1), then k1 = k − c1·a1 − c2·a2 and
// k2 = −c1·b1 − c2·b2.
func glvOracle(g *glvData, k *big.Int) (k1, k2 *big.Int) {
	roundDiv := func(num *big.Int) *big.Int {
		// round(num/r) = ⌊(2·num + r) / (2r)⌋ for r > 0, any sign of num.
		z := new(big.Int).Lsh(num, 1)
		z.Add(z, g.r)
		return z.Div(z, new(big.Int).Lsh(g.r, 1))
	}
	c1 := roundDiv(new(big.Int).Mul(g.b2, k))
	c2 := roundDiv(new(big.Int).Neg(new(big.Int).Mul(g.b1, k)))
	k1 = new(big.Int).Set(k)
	k1.Sub(k1, new(big.Int).Mul(c1, g.a1))
	k1.Sub(k1, new(big.Int).Mul(c2, g.a2))
	k2 = new(big.Int).Mul(c1, g.b1)
	k2.Add(k2, new(big.Int).Mul(c2, g.b2))
	k2.Neg(k2)
	return k1, k2
}

// checkGLVSplit fails unless k ≡ k1 + λ·k2 (mod r) with |k1|, |k2| < 2^bits.
func checkGLVSplit(t *testing.T, name, path string, g *glvData, k, k1, k2 *big.Int) {
	t.Helper()
	if k1.BitLen() > g.bits || k2.BitLen() > g.bits {
		t.Fatalf("%s %s: decompose(%v): |k1|=%d |k2|=%d bits, bound %d",
			name, path, k, k1.BitLen(), k2.BitLen(), g.bits)
	}
	got := new(big.Int).Mul(g.lambda, k2)
	got.Add(got, k1)
	got.Mod(got, g.r)
	if want := new(big.Int).Mod(k, g.r); got.Cmp(want) != 0 {
		t.Fatalf("%s %s: decompose(%v) reconstructs %v, want %v", name, path, k, got, want)
	}
}

// TestGLVDecompose: the fixed-width limb decomposition must satisfy
// k ≡ ±k1 + λ·(±k2) (mod r) with both subscalar magnitudes within the
// precomputed bit bound, on both curves, over edge-case scalars (0, 1,
// r−1, λ, λ±1, r−λ, √r, values around 2^bits) and 10k seeded random ones.
// Both must match the big.Int oracle exactly: the multiply-high carries
// 64 bits beyond the scalar width, so it misses an exact Babai coefficient
// only with probability ~2^−64 per scalar.
func TestGLVDecompose(t *testing.T) {
	for _, c := range testCurves() {
		g := c.GLV()
		r := g.r
		nl := c.Fr.NumLimbs()
		one := big.NewInt(1)
		pow := new(big.Int).Lsh(one, uint(g.bits))

		edge := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(r, one),
			new(big.Int).Set(g.lambda),
			new(big.Int).Add(g.lambda, one),
			new(big.Int).Sub(g.lambda, one),
			new(big.Int).Sub(r, g.lambda),
			new(big.Int).Sqrt(r),
			new(big.Int).Set(pow),
			new(big.Int).Sub(pow, one),
			new(big.Int).Add(pow, one),
			new(big.Int).Rsh(pow, 1),
			new(big.Int).Sub(r, pow),
		}
		rng := ff.NewRNG(97)
		var e ff.Element
		for i := 0; i < 10000; i++ {
			c.Fr.Random(&e, rng)
			edge = append(edge, c.Fr.BigInt(&e))
		}

		for _, k := range edge {
			var kl scalarLimbs
			for j, w := range k.Bits() {
				kl[j] = uint64(w)
			}
			l1, l2, neg1, neg2 := g.decompose(&kl)
			k1 := limbsToBigTest(l1[:nl])
			k2 := limbsToBigTest(l2[:nl])
			if neg1 {
				k1.Neg(k1)
			}
			if neg2 {
				k2.Neg(k2)
			}
			checkGLVSplit(t, c.Name, "limbs", g, k, k1, k2)

			o1, o2 := glvOracle(g, k)
			checkGLVSplit(t, c.Name, "oracle", g, k, o1, o2)
			if o1.Cmp(k1) != 0 || o2.Cmp(k2) != 0 {
				t.Fatalf("%s: decompose(%v) = (%v, %v), oracle (%v, %v)", c.Name, k, k1, k2, o1, o2)
			}
		}
	}
}

// TestGLVSubscalarsHalfWidth: the whole point of GLV is half-width
// subscalars; the bound must sit well below the full scalar width.
func TestGLVSubscalarsHalfWidth(t *testing.T) {
	for _, c := range testCurves() {
		full := c.Fr.Bits()
		if b := c.GLVBits(); b > full/2+4 {
			t.Errorf("%s: GLV bit bound %d not half-width (scalar field %d bits)", c.Name, b, full)
		}
	}
}

// TestGLVPhi: the endomorphism must map curve points to curve points and
// act as multiplication by λ, on random points of both groups.
func TestGLVPhi(t *testing.T) {
	for _, c := range testCurves() {
		lam := c.GLVLambda()
		rng := ff.NewRNG(131)
		var k ff.Element
		kb := new(big.Int)
		for i := 0; i < 8; i++ {
			c.Fr.Random(&k, rng)
			c.Fr.BigIntInto(kb, &k)

			// G1: P = [k]Gen, check φ(P) on-curve and φ(P) == [λ]P.
			var pj, want G1Jac
			c.G1FromAffine(&pj, &c.G1Gen)
			c.G1ScalarMulBig(&pj, &pj, kb)
			var p, phiP G1Affine
			c.G1ToAffine(&p, &pj)
			c.G1Phi(&phiP, &p)
			if !c.G1IsOnCurve(&phiP) {
				t.Fatalf("%s: G1 φ(P) not on curve", c.Name)
			}
			c.G1ScalarMulBig(&want, &pj, lam)
			var phiJ G1Jac
			c.G1FromAffine(&phiJ, &phiP)
			if !c.G1Equal(&phiJ, &want) {
				t.Fatalf("%s: G1 φ(P) != [λ]P", c.Name)
			}

			// G2: same for the twist group.
			var qj, want2 G2Jac
			c.G2FromAffine(&qj, &c.G2Gen)
			c.G2ScalarMulBig(&qj, &qj, kb)
			var q, phiQ G2Affine
			c.G2ToAffine(&q, &qj)
			c.G2Phi(&phiQ, &q)
			if !c.G2IsOnCurve(&phiQ) {
				t.Fatalf("%s: G2 φ(Q) not on curve", c.Name)
			}
			c.G2ScalarMulBig(&want2, &qj, lam)
			var phiJ2 G2Jac
			c.G2FromAffine(&phiJ2, &phiQ)
			if !c.G2Equal(&phiJ2, &want2) {
				t.Fatalf("%s: G2 φ(Q) != [λ]Q", c.Name)
			}

			// Infinity passes through.
			inf := G1Affine{Inf: true}
			var phiInf G1Affine
			c.G1Phi(&phiInf, &inf)
			if !phiInf.Inf {
				t.Fatalf("%s: G1 φ(∞) != ∞", c.Name)
			}
		}
	}
}

func limbsToBigTest(limbs []uint64) *big.Int {
	z := new(big.Int)
	for i := len(limbs) - 1; i >= 0; i-- {
		z.Lsh(z, 64)
		z.Or(z, new(big.Int).SetUint64(limbs[i]))
	}
	return z
}
