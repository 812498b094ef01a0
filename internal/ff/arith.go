package ff

import "math/bits"

// Mul sets z = x*y mod p using the CIOS (Coarsely Integrated Operand
// Scanning) Montgomery multiplication algorithm. The loop is generic over
// the limb count so that one implementation serves 4-limb (BN254, BLS12-381
// scalar field) and 6-limb (BLS12-381 base field) moduli.
func (f *Field) Mul(z, x, y *Element) *Element {
	if f.Count != nil {
		f.Count.Mul++
	}
	f.mulNoCount(z, x, y)
	return z
}

// Square sets z = x*x mod p using a dedicated SOS squaring: the cross
// products x_i·x_j (i<j) are computed once and doubled by a limb shift,
// so only n(n+1)/2 of the n² limb products remain — ~25% fewer than
// running the full CIOS multiplier on (x, x). The OpCount.Sq counter is
// unchanged, so instrumented runs still see squarings as their own class.
func (f *Field) Square(z, x *Element) *Element {
	if f.Count != nil {
		f.Count.Sq++
	}
	f.sqrNoCount(z, x)
	return z
}

// sqrNoCount is the uncounted SOS (Separated Operand Scanning) Montgomery
// squaring: full 2n-limb square first (triangular products, doubled, plus
// the diagonal), then n Montgomery reduction rounds.
func (f *Field) sqrNoCount(z, x *Element) {
	n := f.n
	var t [2 * MaxLimbs]uint64
	// Triangular cross products Σ_{i<j} x_i·x_j, accumulated at limb i+j.
	for i := 0; i < n-1; i++ {
		var c uint64
		xi := x[i]
		for j := i + 1; j < n; j++ {
			hi, lo := bits.Mul64(xi, x[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[i+j] = lo
			c = hi
		}
		t[i+n] = c
	}
	// Double the cross products: one bit-shift across the 2n limbs. The sum
	// is < x²/2, so nothing shifts out of the top limb.
	var carry uint64
	for i := 0; i < 2*n; i++ {
		nc := t[i] >> 63
		t[i] = t[i]<<1 | carry
		carry = nc
	}
	// Add the diagonal x_i² at limb 2i; the carry chain rides positions
	// 2i+1 → 2i+2, which the next iteration's low-limb add continues.
	var c uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(x[i], x[i])
		var cc uint64
		t[2*i], cc = bits.Add64(t[2*i], lo, c)
		t[2*i+1], c = bits.Add64(t[2*i+1], hi, cc)
	}
	// Montgomery reduction: n rounds, each zeroing the lowest live limb.
	var extra uint64 // overflow bit out of t[2n-1]
	for i := 0; i < n; i++ {
		m := t[i] * f.inv
		var c uint64
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(m, f.p[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[i+j] = lo
			c = hi
		}
		var cc uint64
		t[i+n], cc = bits.Add64(t[i+n], c, 0)
		for k := i + n + 1; cc != 0 && k < 2*n; k++ {
			t[k], cc = bits.Add64(t[k], 0, cc)
		}
		extra += cc
	}
	for i := 0; i < n; i++ {
		z[i] = t[n+i]
	}
	for i := n; i < MaxLimbs; i++ {
		z[i] = 0
	}
	f.reduceOnce(z, extra)
}

// mulNoCount is the uncounted CIOS core shared by Mul, Square and the
// Montgomery-form conversions.
func (f *Field) mulNoCount(z, x, y *Element) {
	var t [MaxLimbs + 2]uint64
	n := f.n
	for i := 0; i < n; i++ {
		// t += x[i] * y
		var c uint64
		xi := x[i]
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j] = lo
			c = hi
		}
		var cc uint64
		t[n], cc = bits.Add64(t[n], c, 0)
		t[n+1] = cc

		// Montgomery reduction step: make t divisible by 2^64.
		m := t[0] * f.inv
		hi, lo := bits.Mul64(m, f.p[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < n; j++ {
			hi, lo = bits.Mul64(m, f.p[j])
			var c2 uint64
			lo, c2 = bits.Add64(lo, t[j], 0)
			hi += c2
			lo, c2 = bits.Add64(lo, c, 0)
			hi += c2
			t[j-1] = lo
			c = hi
		}
		t[n-1], cc = bits.Add64(t[n], c, 0)
		t[n] = t[n+1] + cc
	}
	for i := 0; i < n; i++ {
		z[i] = t[i]
	}
	for i := n; i < MaxLimbs; i++ {
		z[i] = 0
	}
	f.reduceOnce(z, t[n])
}

// Halve sets z = x/2 mod p.
func (f *Field) Halve(z, x *Element) *Element {
	*z = *x
	n := f.n
	if z[0]&1 == 1 {
		var carry uint64
		for i := 0; i < n; i++ {
			z[i], carry = bits.Add64(z[i], f.p[i], carry)
		}
		// shift right including the carry bit
		for i := 0; i < n-1; i++ {
			z[i] = z[i]>>1 | z[i+1]<<63
		}
		z[n-1] = z[n-1]>>1 | carry<<63
		return z
	}
	for i := 0; i < n-1; i++ {
		z[i] = z[i]>>1 | z[i+1]<<63
	}
	z[n-1] >>= 1
	return z
}
