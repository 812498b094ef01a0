package tower

import (
	"math/big"

	"zkperf/internal/ff"
)

// Fp12 arithmetic: elements are C0 + C1·w with w² = v.

// E12Zero sets z = 0.
func (t *Tower) E12Zero(z *E12) *E12 {
	t.E6Zero(&z.C0)
	t.E6Zero(&z.C1)
	return z
}

// E12One sets z = 1.
func (t *Tower) E12One(z *E12) *E12 {
	t.E6One(&z.C0)
	t.E6Zero(&z.C1)
	return z
}

// E12IsZero reports whether z == 0.
func (t *Tower) E12IsZero(z *E12) bool { return t.E6IsZero(&z.C0) && t.E6IsZero(&z.C1) }

// E12IsOne reports whether z == 1.
func (t *Tower) E12IsOne(z *E12) bool { return t.E6IsOne(&z.C0) && t.E6IsZero(&z.C1) }

// E12Equal reports whether x == y.
func (t *Tower) E12Equal(x, y *E12) bool {
	return t.E6Equal(&x.C0, &y.C0) && t.E6Equal(&x.C1, &y.C1)
}

// E12Set copies x into z.
func (t *Tower) E12Set(z, x *E12) *E12 {
	*z = *x
	return z
}

// E12Add sets z = x + y.
func (t *Tower) E12Add(z, x, y *E12) *E12 {
	t.E6Add(&z.C0, &x.C0, &y.C0)
	t.E6Add(&z.C1, &x.C1, &y.C1)
	return z
}

// E12Sub sets z = x − y.
func (t *Tower) E12Sub(z, x, y *E12) *E12 {
	t.E6Sub(&z.C0, &x.C0, &y.C0)
	t.E6Sub(&z.C1, &x.C1, &y.C1)
	return z
}

// E12Neg sets z = −x.
func (t *Tower) E12Neg(z, x *E12) *E12 {
	t.E6Neg(&z.C0, &x.C0)
	t.E6Neg(&z.C1, &x.C1)
	return z
}

// E12Mul sets z = x·y (Karatsuba over the quadratic extension, w² = v).
func (t *Tower) E12Mul(z, x, y *E12) *E12 {
	var v0, v1, s0, s1, mid, vv E6
	t.E6Mul(&v0, &x.C0, &y.C0)
	t.E6Mul(&v1, &x.C1, &y.C1)
	t.E6Add(&s0, &x.C0, &x.C1)
	t.E6Add(&s1, &y.C0, &y.C1)
	t.E6Mul(&mid, &s0, &s1)
	t.E6Sub(&mid, &mid, &v0)
	t.E6Sub(&mid, &mid, &v1) // x0·y1 + x1·y0
	t.E6MulByV(&vv, &v1)     // v·x1·y1
	t.E6Add(&z.C0, &v0, &vv)
	t.E6Set(&z.C1, &mid)
	return z
}

// E12Square sets z = x².
func (t *Tower) E12Square(z, x *E12) *E12 {
	// (c0 + c1 w)² = (c0² + v·c1²) + 2·c0·c1·w, computed with the complex
	// squaring trick: c0² + v·c1² = (c0 + c1)(c0 + v·c1) − c0c1 − v·c0c1.
	var prod, vC1, sum1, sum2, cross E6
	t.E6Mul(&prod, &x.C0, &x.C1)
	t.E6MulByV(&vC1, &x.C1)
	t.E6Add(&sum1, &x.C0, &x.C1)
	t.E6Add(&sum2, &x.C0, &vC1)
	t.E6Mul(&cross, &sum1, &sum2)
	var vProd E6
	t.E6MulByV(&vProd, &prod)
	t.E6Sub(&cross, &cross, &prod)
	t.E6Sub(&z.C0, &cross, &vProd)
	t.E6Add(&z.C1, &prod, &prod)
	return z
}

// E12Inverse sets z = x^{-1}: (c0 − c1 w)/(c0² − v·c1²).
func (t *Tower) E12Inverse(z, x *E12) *E12 {
	var c0sq, c1sq, vC1sq, norm, inv E6
	t.E6Square(&c0sq, &x.C0)
	t.E6Square(&c1sq, &x.C1)
	t.E6MulByV(&vC1sq, &c1sq)
	t.E6Sub(&norm, &c0sq, &vC1sq)
	t.E6Inverse(&inv, &norm)
	t.E6Mul(&z.C0, &x.C0, &inv)
	var negC1 E6
	t.E6Neg(&negC1, &x.C1)
	t.E6Mul(&z.C1, &negC1, &inv)
	return z
}

// E12Conjugate sets z = c0 − c1·w, which equals x^{p⁶} (the unitary
// inverse for elements of the cyclotomic subgroup).
func (t *Tower) E12Conjugate(z, x *E12) *E12 {
	t.E6Set(&z.C0, &x.C0)
	t.E6Neg(&z.C1, &x.C1)
	return z
}

// E12Frobenius sets z = x^p.
func (t *Tower) E12Frobenius(z, x *E12) *E12 {
	var f0, f1 E6
	t.E6Frobenius(&f0, &x.C0)
	t.E6Frobenius(&f1, &x.C1)
	// w^p = w · w^{p−1} = w · ξ^{(p−1)/6}
	t.E6MulByE2(&f1, &f1, &t.frobGammaW)
	z.C0, z.C1 = f0, f1
	return z
}

// E12FrobeniusN applies the Frobenius endomorphism n times.
func (t *Tower) E12FrobeniusN(z, x *E12, n int) *E12 {
	t.E12Set(z, x)
	for i := 0; i < n; i++ {
		t.E12Frobenius(z, z)
	}
	return z
}

// E12Exp sets z = x^e for a non-negative big.Int exponent.
func (t *Tower) E12Exp(z, x *E12, e *big.Int) *E12 {
	var acc E12
	t.E12One(&acc)
	for i := e.BitLen() - 1; i >= 0; i-- {
		t.E12Square(&acc, &acc)
		if e.Bit(i) == 1 {
			t.E12Mul(&acc, &acc, x)
		}
	}
	return t.E12Set(z, &acc)
}

// E12Random sets z to a pseudo-random element.
func (t *Tower) E12Random(z *E12, rng *ff.RNG) *E12 {
	t.E6Random(&z.C0, rng)
	t.E6Random(&z.C1, rng)
	return z
}

// E12FromFp embeds a base-field element into Fp12.
func (t *Tower) E12FromFp(z *E12, c *ff.Element) *E12 {
	t.E12Zero(z)
	t.F.Set(&z.C0.B0.A0, c)
	return z
}

// E12FromE2 embeds an Fp2 element into Fp12 (as the B0 coefficient).
func (t *Tower) E12FromE2(z *E12, c *E2) *E12 {
	t.E12Zero(z)
	t.E2Set(&z.C0.B0, c)
	return z
}

// WPower returns w^k ∈ Fp12 for 0 ≤ k ≤ 5, used by the twist embeddings
// (w² = v, w⁶ = ξ).
func (t *Tower) WPower(z *E12, k int) *E12 {
	t.E12Zero(z)
	switch k {
	case 0:
		t.F.One(&z.C0.B0.A0)
	case 1:
		t.F.One(&z.C1.B0.A0)
	case 2: // w² = v
		t.F.One(&z.C0.B1.A0)
	case 3: // w³ = v·w
		t.F.One(&z.C1.B1.A0)
	case 4: // w⁴ = v²
		t.F.One(&z.C0.B2.A0)
	case 5: // w⁵ = v²·w
		t.F.One(&z.C1.B2.A0)
	default:
		panic("tower: WPower exponent out of range")
	}
	return z
}
