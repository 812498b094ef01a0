// Package ff implements prime-field arithmetic for the fields used by the
// zk-SNARK protocol: the base and scalar fields of the BN254 (a.k.a. BN128)
// and BLS12-381 elliptic curves.
//
// Elements are stored in Montgomery form as fixed-size little-endian limb
// arrays. A Field value carries the modulus and the Montgomery constants;
// all arithmetic is performed through Field methods so that one generic
// CIOS implementation serves both 4-limb (≤256-bit) and 6-limb (≤384-bit)
// moduli.
//
// When a Field's Count pointer is non-nil, arithmetic operations increment
// the corresponding operation counters. This is the lowest layer of the
// instrumentation stack used by the performance-analysis framework; it is
// a single predictable branch per operation and is disabled by default.
package ff

import (
	"fmt"
	"math/big"
	"math/bits"
)

// MaxLimbs is the maximum number of 64-bit limbs an Element can hold.
// BLS12-381's base field needs 6 limbs (381 bits); every other field used
// here fits in 4.
const MaxLimbs = 6

// Element is a prime-field element in Montgomery representation.
// The interpretation of the limbs depends on the owning Field; elements
// from different fields must never be mixed.
type Element [MaxLimbs]uint64

// OpCount tallies field operations. It is deliberately a plain struct with
// no synchronization: instrumented runs are single-threaded (mirroring how
// binary-instrumentation tools such as DynamoRIO serialize execution).
type OpCount struct {
	Mul uint64 // Montgomery multiplications
	Sq  uint64 // squarings
	Add uint64 // additions
	Sub uint64 // subtractions and negations
	Inv uint64 // inversions
}

// Total returns the total number of counted field operations.
func (c *OpCount) Total() uint64 { return c.Mul + c.Sq + c.Add + c.Sub + c.Inv }

// Reset zeroes all counters.
func (c *OpCount) Reset() { *c = OpCount{} }

// AddTo accumulates c into dst.
func (c *OpCount) AddTo(dst *OpCount) {
	dst.Mul += c.Mul
	dst.Sq += c.Sq
	dst.Add += c.Add
	dst.Sub += c.Sub
	dst.Inv += c.Inv
}

// Field describes a prime field GF(p) and owns all arithmetic on its
// elements. Construct one with NewField; the Montgomery constants are
// derived from the modulus at construction time.
type Field struct {
	Name string // human-readable name, e.g. "bn254.Fr"

	n    int      // number of active limbs
	p    Element  // modulus
	inv  uint64   // -p^{-1} mod 2^64
	r    Element  // 2^{64n} mod p (Montgomery R, i.e. One)
	r2   Element  // R^2 mod p, used for conversion into Montgomery form
	pBig *big.Int // modulus as big.Int
	bits int      // bit length of p

	pm2   []uint64 // p-2, little-endian limbs (Fermat inversion exponent)
	sqExp []uint64 // (p+1)/4 when p ≡ 3 (mod 4), else nil

	// Count, when non-nil, receives operation tallies. See OpCount.
	Count *OpCount
}

// NewField constructs a Field from a decimal or 0x-prefixed hexadecimal
// modulus string. It panics on malformed input or a modulus that does not
// fit MaxLimbs, since field moduli are compile-time constants in practice.
func NewField(name, modulus string) *Field {
	p, ok := new(big.Int).SetString(modulus, 0)
	if !ok {
		panic(fmt.Sprintf("ff: invalid modulus for %s", name))
	}
	if p.Sign() <= 0 || p.Bit(0) == 0 {
		panic(fmt.Sprintf("ff: modulus for %s must be an odd prime", name))
	}
	nbits := p.BitLen()
	n := (nbits + 63) / 64
	if n > MaxLimbs {
		panic(fmt.Sprintf("ff: modulus for %s needs %d limbs (max %d)", name, n, MaxLimbs))
	}
	f := &Field{Name: name, n: n, pBig: new(big.Int).Set(p), bits: nbits}
	bigToLimbs(p, f.p[:n])

	// inv = -p^{-1} mod 2^64 via Newton iteration on the low limb.
	pinv := f.p[0] // p^{-1} mod 2 == 1 since p odd
	for i := 0; i < 5; i++ {
		pinv *= 2 - f.p[0]*pinv
	}
	f.inv = -pinv

	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, uint(64*n))
	r.Mod(r, p)
	bigToLimbs(r, f.r[:n])
	r2 := new(big.Int).Lsh(one, uint(128*n))
	r2.Mod(r2, p)
	bigToLimbs(r2, f.r2[:n])

	pm2 := new(big.Int).Sub(p, big.NewInt(2))
	f.pm2 = make([]uint64, n)
	bigToLimbs(pm2, f.pm2)

	if new(big.Int).And(p, big.NewInt(3)).Int64() == 3 {
		e := new(big.Int).Add(p, one)
		e.Rsh(e, 2)
		f.sqExp = make([]uint64, n)
		bigToLimbs(e, f.sqExp)
	}
	return f
}

// NumLimbs returns the number of active 64-bit limbs of the field.
func (f *Field) NumLimbs() int { return f.n }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.bits }

// Modulus returns a copy of the modulus as a big.Int.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.pBig) }

// ByteLen returns the canonical serialized length of an element in bytes.
func (f *Field) ByteLen() int { return f.n * 8 }

// bigToLimbs writes v (which must be non-negative and fit) into dst as
// little-endian 64-bit limbs, zero-padding the tail.
func bigToLimbs(v *big.Int, dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
	words := v.Bits()
	for i, w := range words {
		if i >= len(dst) {
			panic("ff: value too large for limb slice")
		}
		dst[i] = uint64(w)
	}
}

// limbsToBig converts little-endian limbs to a big.Int.
func limbsToBig(src []uint64) *big.Int {
	v := new(big.Int)
	for i := len(src) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(src[i]))
	}
	return v
}

// Zero sets z to 0 and returns it.
func (f *Field) Zero(z *Element) *Element {
	for i := range z {
		z[i] = 0
	}
	return z
}

// One sets z to the multiplicative identity (Montgomery R) and returns it.
func (f *Field) One(z *Element) *Element {
	*z = f.r
	return z
}

// IsZero reports whether x == 0.
func (f *Field) IsZero(x *Element) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i]
	}
	return acc == 0
}

// IsOne reports whether x == 1.
func (f *Field) IsOne(x *Element) bool { return f.Equal(x, &f.r) }

// Equal reports whether x == y.
func (f *Field) Equal(x, y *Element) bool {
	var acc uint64
	for i := 0; i < f.n; i++ {
		acc |= x[i] ^ y[i]
	}
	return acc == 0
}

// Set copies x into z and returns z.
func (f *Field) Set(z, x *Element) *Element {
	*z = *x
	return z
}

// SetUint64 sets z to the field element v and returns z.
func (f *Field) SetUint64(z *Element, v uint64) *Element {
	f.Zero(z)
	z[0] = v
	f.toMont(z)
	return z
}

// SetBigInt sets z to v mod p and returns z.
func (f *Field) SetBigInt(z *Element, v *big.Int) *Element {
	t := new(big.Int).Mod(v, f.pBig)
	f.Zero(z)
	bigToLimbs(t, z[:f.n])
	f.toMont(z)
	return z
}

// SetString sets z from a decimal or 0x-hex string, reducing mod p.
func (f *Field) SetString(z *Element, s string) (*Element, error) {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return nil, fmt.Errorf("ff: cannot parse %q as an integer", s)
	}
	return f.SetBigInt(z, v), nil
}

// MustElement parses s as a field element, panicking on error. It is meant
// for compile-time curve constants.
func (f *Field) MustElement(s string) Element {
	var z Element
	if _, err := f.SetString(&z, s); err != nil {
		panic(err)
	}
	return z
}

// BigInt returns the canonical (non-Montgomery) value of x.
func (f *Field) BigInt(x *Element) *big.Int {
	var t Element = *x
	f.fromMont(&t)
	return limbsToBig(t[:f.n])
}

// BigIntInto writes the canonical (non-Montgomery) value of x into z,
// reusing z's storage, for loops that would otherwise allocate a big.Int
// per element through BigInt.
func (f *Field) BigIntInto(z *big.Int, x *Element) *big.Int {
	var t Element = *x
	f.fromMont(&t)
	words := z.Bits()
	if cap(words) < f.n {
		words = make([]big.Word, f.n)
	}
	words = words[:f.n]
	for i := 0; i < f.n; i++ {
		words[i] = big.Word(t[i])
	}
	return z.SetBits(words)
}

// Uint64 returns the canonical value of x truncated to 64 bits, along with
// whether x fits in a uint64.
func (f *Field) Uint64(x *Element) (uint64, bool) {
	var t Element = *x
	f.fromMont(&t)
	var hi uint64
	for i := 1; i < f.n; i++ {
		hi |= t[i]
	}
	return t[0], hi == 0
}

// String renders x in canonical decimal form.
func (f *Field) String(x *Element) string { return f.BigInt(x).String() }

// Bytes serializes x canonically as big-endian bytes of length ByteLen.
func (f *Field) Bytes(x *Element) []byte {
	var t Element = *x
	f.fromMont(&t)
	out := make([]byte, f.ByteLen())
	for i := 0; i < f.n; i++ {
		limb := t[i]
		for b := 0; b < 8; b++ {
			out[len(out)-1-(i*8+b)] = byte(limb >> (8 * b))
		}
	}
	return out
}

// CanonicalLimbs writes the canonical (non-Montgomery) value of x into dst
// as little-endian 64-bit limbs. len(dst) must be at least NumLimbs. It is
// the allocation-free path the MSM digit decomposition uses: one Montgomery
// reduction per scalar, no byte round-trip.
func (f *Field) CanonicalLimbs(x *Element, dst []uint64) {
	var t Element = *x
	f.fromMont(&t)
	copy(dst, t[:f.n])
}

// SetBytes deserializes big-endian bytes (as produced by Bytes) into z,
// reducing mod p.
func (f *Field) SetBytes(z *Element, data []byte) *Element {
	v := new(big.Int).SetBytes(data)
	return f.SetBigInt(z, v)
}

// toMont converts a canonical-form element (raw limbs) to Montgomery form.
func (f *Field) toMont(z *Element) { f.mulNoCount(z, z, &f.r2) }

// fromMont converts z from Montgomery form to canonical limbs in place.
func (f *Field) fromMont(z *Element) {
	var one Element
	one[0] = 1
	// Montgomery-multiplying by the raw value 1 divides by R.
	f.mulNoCount(z, z, &one)
}

// Cmp compares the canonical values of x and y, returning -1, 0 or +1.
func (f *Field) Cmp(x, y *Element) int {
	var a, b Element
	a, b = *x, *y
	f.fromMont(&a)
	f.fromMont(&b)
	for i := f.n - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Add sets z = x + y mod p.
func (f *Field) Add(z, x, y *Element) *Element {
	if f.Count != nil {
		f.Count.Add++
	}
	var carry uint64
	n := f.n
	for i := 0; i < n; i++ {
		z[i], carry = bits.Add64(x[i], y[i], carry)
	}
	f.reduceOnce(z, carry)
	return z
}

// Double sets z = 2x mod p.
func (f *Field) Double(z, x *Element) *Element { return f.Add(z, x, x) }

// Sub sets z = x - y mod p.
func (f *Field) Sub(z, x, y *Element) *Element {
	if f.Count != nil {
		f.Count.Sub++
	}
	var borrow uint64
	n := f.n
	for i := 0; i < n; i++ {
		z[i], borrow = bits.Sub64(x[i], y[i], borrow)
	}
	if borrow != 0 {
		var carry uint64
		for i := 0; i < n; i++ {
			z[i], carry = bits.Add64(z[i], f.p[i], carry)
		}
	}
	return z
}

// Neg sets z = -x mod p.
func (f *Field) Neg(z, x *Element) *Element {
	if f.IsZero(x) {
		return f.Set(z, x)
	}
	if f.Count != nil {
		f.Count.Sub++
	}
	var borrow uint64
	n := f.n
	for i := 0; i < n; i++ {
		z[i], borrow = bits.Sub64(f.p[i], x[i], borrow)
	}
	return z
}

// reduceOnce conditionally subtracts p so that z < p, given an incoming
// carry bit from an addition.
func (f *Field) reduceOnce(z *Element, carry uint64) {
	n := f.n
	if carry == 0 && !f.geP(z) {
		return
	}
	var borrow uint64
	for i := 0; i < n; i++ {
		z[i], borrow = bits.Sub64(z[i], f.p[i], borrow)
	}
	_ = borrow
}

// geP reports whether the raw limb value of z is >= p.
func (f *Field) geP(z *Element) bool {
	for i := f.n - 1; i >= 0; i-- {
		switch {
		case z[i] > f.p[i]:
			return true
		case z[i] < f.p[i]:
			return false
		}
	}
	return true
}
