// Package tower implements the Fp2 → Fp6 → Fp12 extension-field tower used
// by pairing-friendly curves. Both BN254 and BLS12-381 share the same tower
// shape:
//
//	Fp2  = Fp[i]  / (i² + 1)
//	Fp6  = Fp2[v] / (v³ − ξ)      ξ = 9+i (BN254), 1+i (BLS12-381)
//	Fp12 = Fp6[w] / (w² − v)      so w⁶ = ξ
//
// A Tower value owns the base field and the non-residue ξ; all arithmetic
// goes through Tower methods, so the base field's operation counters see
// every limb-level operation — the same visibility a binary instrumentation
// tool has into a native pairing library.
package tower

import (
	"math/big"

	"zkperf/internal/ff"
)

// E2 is an element of Fp2: A0 + A1·i.
type E2 struct{ A0, A1 ff.Element }

// E6 is an element of Fp6: B0 + B1·v + B2·v².
type E6 struct{ B0, B1, B2 E2 }

// E12 is an element of Fp12: C0 + C1·w.
type E12 struct{ C0, C1 E6 }

// Tower bundles a base field with the quadratic/cubic non-residues and the
// precomputed Frobenius constants.
type Tower struct {
	F  *ff.Field
	Xi E2 // the Fp6 non-residue ξ ∈ Fp2

	// Frobenius constants: γ1 = ξ^((p−1)/3), γ2 = ξ^(2(p−1)/3) for the Fp6
	// Frobenius, γw = ξ^((p−1)/6) for the Fp12 Frobenius.
	frobGamma1 E2
	frobGamma2 E2
	frobGammaW E2
}

// New builds a tower over field f with ξ = xi0 + xi1·i. The Frobenius
// constants are derived by exponentiation at construction time.
func New(f *ff.Field, xi0, xi1 uint64) *Tower {
	t := &Tower{F: f}
	f.SetUint64(&t.Xi.A0, xi0)
	f.SetUint64(&t.Xi.A1, xi1)

	p := f.Modulus()
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	e3 := new(big.Int).Div(pm1, big.NewInt(3))
	e6 := new(big.Int).Div(pm1, big.NewInt(6))
	t.E2Exp(&t.frobGamma1, &t.Xi, e3)
	t.E2Mul(&t.frobGamma2, &t.frobGamma1, &t.frobGamma1)
	t.E2Exp(&t.frobGammaW, &t.Xi, e6)
	return t
}

// FrobGammaW writes γw = ξ^((p−1)/6) into z. γw describes the Frobenius
// action on w (π(w) = γw·w); its powers are the coefficients of the
// twisted endomorphism ψ used by the BN optimal-ate tail.
func (t *Tower) FrobGammaW(z *E2) *E2 { return t.E2Set(z, &t.frobGammaW) }

// ---------- Fp2 arithmetic ----------

// E2Zero sets z = 0.
func (t *Tower) E2Zero(z *E2) *E2 {
	t.F.Zero(&z.A0)
	t.F.Zero(&z.A1)
	return z
}

// E2One sets z = 1.
func (t *Tower) E2One(z *E2) *E2 {
	t.F.One(&z.A0)
	t.F.Zero(&z.A1)
	return z
}

// E2IsZero reports whether z == 0.
func (t *Tower) E2IsZero(z *E2) bool { return t.F.IsZero(&z.A0) && t.F.IsZero(&z.A1) }

// E2IsOne reports whether z == 1.
func (t *Tower) E2IsOne(z *E2) bool { return t.F.IsOne(&z.A0) && t.F.IsZero(&z.A1) }

// E2Equal reports whether x == y.
func (t *Tower) E2Equal(x, y *E2) bool {
	return t.F.Equal(&x.A0, &y.A0) && t.F.Equal(&x.A1, &y.A1)
}

// E2Set copies x into z.
func (t *Tower) E2Set(z, x *E2) *E2 {
	*z = *x
	return z
}

// E2Add sets z = x + y.
func (t *Tower) E2Add(z, x, y *E2) *E2 {
	t.F.Add(&z.A0, &x.A0, &y.A0)
	t.F.Add(&z.A1, &x.A1, &y.A1)
	return z
}

// E2Sub sets z = x − y.
func (t *Tower) E2Sub(z, x, y *E2) *E2 {
	t.F.Sub(&z.A0, &x.A0, &y.A0)
	t.F.Sub(&z.A1, &x.A1, &y.A1)
	return z
}

// E2Neg sets z = −x.
func (t *Tower) E2Neg(z, x *E2) *E2 {
	t.F.Neg(&z.A0, &x.A0)
	t.F.Neg(&z.A1, &x.A1)
	return z
}

// E2Double sets z = 2x.
func (t *Tower) E2Double(z, x *E2) *E2 { return t.E2Add(z, x, x) }

// E2Mul sets z = x·y using the Karatsuba-style 3-multiplication schoolbook
// with i² = −1.
func (t *Tower) E2Mul(z, x, y *E2) *E2 {
	f := t.F
	var v0, v1, s0, s1, tmp ff.Element
	f.Mul(&v0, &x.A0, &y.A0)
	f.Mul(&v1, &x.A1, &y.A1)
	f.Add(&s0, &x.A0, &x.A1)
	f.Add(&s1, &y.A0, &y.A1)
	f.Mul(&tmp, &s0, &s1) // (a0+a1)(b0+b1)
	f.Sub(&tmp, &tmp, &v0)
	f.Sub(&z.A1, &tmp, &v1)
	f.Sub(&z.A0, &v0, &v1)
	return z
}

// E2Square sets z = x².
func (t *Tower) E2Square(z, x *E2) *E2 {
	f := t.F
	var sum, diff, prod ff.Element
	f.Add(&sum, &x.A0, &x.A1)
	f.Sub(&diff, &x.A0, &x.A1)
	f.Mul(&prod, &x.A0, &x.A1)
	f.Mul(&z.A0, &sum, &diff) // a0² − a1²
	f.Double(&z.A1, &prod)    // 2·a0·a1
	return z
}

// E2MulByElement sets z = x·c for a base-field scalar c.
func (t *Tower) E2MulByElement(z, x *E2, c *ff.Element) *E2 {
	t.F.Mul(&z.A0, &x.A0, c)
	t.F.Mul(&z.A1, &x.A1, c)
	return z
}

// E2Conjugate sets z = a0 − a1·i, which is x^p.
func (t *Tower) E2Conjugate(z, x *E2) *E2 {
	t.F.Set(&z.A0, &x.A0)
	t.F.Neg(&z.A1, &x.A1)
	return z
}

// E2Inverse sets z = x^{-1}: (a0 − a1 i)/(a0² + a1²). Inverting zero gives
// zero.
func (t *Tower) E2Inverse(z, x *E2) *E2 {
	f := t.F
	var n0, n1, norm, inv ff.Element
	f.Square(&n0, &x.A0)
	f.Square(&n1, &x.A1)
	f.Add(&norm, &n0, &n1)
	f.Inverse(&inv, &norm)
	f.Mul(&z.A0, &x.A0, &inv)
	f.Neg(&n1, &x.A1)
	f.Mul(&z.A1, &n1, &inv)
	return z
}

// E2MulByXi sets z = ξ·x.
func (t *Tower) E2MulByXi(z, x *E2) *E2 {
	var tmp E2
	t.E2Mul(&tmp, x, &t.Xi)
	return t.E2Set(z, &tmp)
}

// E2Exp sets z = x^e for a non-negative big.Int exponent.
func (t *Tower) E2Exp(z, x *E2, e *big.Int) *E2 {
	var acc E2
	t.E2One(&acc)
	for i := e.BitLen() - 1; i >= 0; i-- {
		t.E2Square(&acc, &acc)
		if e.Bit(i) == 1 {
			t.E2Mul(&acc, &acc, x)
		}
	}
	return t.E2Set(z, &acc)
}

// E2Random sets z to a pseudo-random element.
func (t *Tower) E2Random(z *E2, rng *ff.RNG) *E2 {
	t.F.Random(&z.A0, rng)
	t.F.Random(&z.A1, rng)
	return z
}
