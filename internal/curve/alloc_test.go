//go:build !race

package curve

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"zkperf/internal/ff"
	"zkperf/internal/tower"
)

// msmAllocsPerWorker bounds the heap allocations of one GLV MSM per
// worker thread, whatever its size: the digit matrix, the φ-coordinate
// array and the partials once, then per worker its bucket scratch and its
// fork-join goroutines. A per-point or per-scalar allocation anywhere in
// the kernel breaks it at once.
const msmAllocsPerWorker = 40

// allocsOf reports the fewest heap allocations and bytes of f over two
// runs — counts, not times, so the gate does not depend on the host's
// speed.
func allocsOf(f func()) (allocs, bytes uint64) {
	allocs, bytes = ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 2; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// glvMSMBytesCap is the byte budget of one GLV MSM over n points: the
// int16 digit matrix (numWindows × 2n), the n φ-coordinates and one
// bucket scratch per worker, plus 25% headroom.
func glvMSMBytesCap[E any](n, threads, bits int) uint64 {
	c := msmWindowSize(2 * n)
	numWindows := (bits + c) / c
	numBuckets := 1 << uint(c-1)
	batch := batchSizeFor(numBuckets)
	var e E
	var a Affine[E]
	var j Jac[E]
	var op pendingOp[E]
	scratch := uintptr(numBuckets)*(unsafe.Sizeof(a)+unsafe.Sizeof(j)+2) +
		uintptr(batch)*(unsafe.Sizeof(op)+2*unsafe.Sizeof(e))
	digits := uintptr(numWindows*2*n) * 2
	phi := uintptr(n) * unsafe.Sizeof(e)
	return uint64(digits+phi+uintptr(threads)*scratch) * 5 / 4
}

// chainPoints returns n distinct affine points base, 2·base, … cheaply
// (one Jacobian addition each, one batched normalization).
func chainPoints[E any](ops Ops[E], base *Affine[E], n int) []Affine[E] {
	jacs := make([]Jac[E], n)
	var acc, b Jac[E]
	fromAffine(ops, &b, base)
	acc = b
	for i := range jacs {
		jacs[i] = acc
		jacAdd(ops, &acc, &acc, &b)
	}
	out := make([]Affine[E], n)
	batchToAffine(ops, out, jacs)
	return out
}

// TestMSMAllocs gates the GLV MSM's memory: allocations per call stay
// under a constant independent of n, and bytes per call under the digit
// matrix + φ-array + per-worker scratch budget. Materialising ±P/±φ(P)
// or allocating per scalar breaks both.
func TestMSMAllocs(t *testing.T) {
	c := NewBN254()
	bits := c.GLVBits() // builds the GLV constants outside the measured calls
	rng := ff.NewRNG(5)
	for _, logN := range []int{12, 14} {
		n := 1 << uint(logN)
		scalars := make([]ff.Element, n)
		for i := range scalars {
			c.Fr.Random(&scalars[i], rng)
		}
		g1 := chainPoints[ff.Element](c.g1ops, &c.G1Gen, n)
		g2 := chainPoints[tower.E2](c.g2ops, &c.G2Gen, n)
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("n=2^%d/threads=%d", logN, threads), func(t *testing.T) {
				for _, tc := range []struct {
					group    string
					bytesCap uint64
					msm      func()
				}{
					{"G1", glvMSMBytesCap[ff.Element](n, threads, bits), func() { c.G1MSM(g1, scalars, threads) }},
					{"G2", glvMSMBytesCap[tower.E2](n, threads, bits), func() { c.G2MSM(g2, scalars, threads) }},
				} {
					allocs, bytes := allocsOf(tc.msm)
					allocsCap := uint64(msmAllocsPerWorker * threads)
					t.Logf("%s: %d allocs (cap %d), %d bytes (cap %d)", tc.group, allocs, allocsCap, bytes, tc.bytesCap)
					if allocs > allocsCap {
						t.Errorf("%s: %d allocations per MSM, cap %d", tc.group, allocs, allocsCap)
					}
					if bytes > tc.bytesCap {
						t.Errorf("%s: %d bytes per MSM, cap %d", tc.group, bytes, tc.bytesCap)
					}
				}
			})
		}
	}
}
