package curve

import (
	"fmt"
	"testing"

	"zkperf/internal/ff"
)

// TestMulBatchBlocks: a batch spanning several fixedBaseBlock blocks per
// chunk (and a ragged last block) must give exactly the single-scalar
// results, zero scalars included, at every thread count.
func TestMulBatchBlocks(t *testing.T) {
	c := NewBN254()
	tab := c.NewG1Table(&c.G1Gen)
	tab2 := c.NewG2Table(&c.G2Gen)
	rng := ff.NewRNG(43)
	scalars := make([]ff.Element, 2*fixedBaseBlock+37)
	for i := range scalars {
		if i%500 != 0 {
			c.Fr.Random(&scalars[i], rng)
		}
	}
	want := make([]G1Affine, len(scalars))
	want2 := make([]G2Affine, len(scalars))
	for i := range scalars {
		var j G1Jac
		tab.Mul(&j, &scalars[i])
		c.G1ToAffine(&want[i], &j)
		var j2 G2Jac
		tab2.Mul(&j2, &scalars[i])
		c.G2ToAffine(&want2[i], &j2)
	}
	for _, th := range []int{1, 3} {
		t.Run(fmt.Sprintf("threads=%d", th), func(t *testing.T) {
			got := tab.MulBatch(scalars, th)
			got2 := tab2.MulBatch(scalars, th)
			for i := range scalars {
				if got[i].Inf != want[i].Inf || !got[i].Inf && (got[i].X != want[i].X || got[i].Y != want[i].Y) {
					t.Fatalf("G1 batch result %d differs from the single-scalar path", i)
				}
				if got2[i].Inf != want2[i].Inf || !got2[i].Inf && (got2[i].X != want2[i].X || got2[i].Y != want2[i].Y) {
					t.Fatalf("G2 batch result %d differs from the single-scalar path", i)
				}
			}
		})
	}
}
