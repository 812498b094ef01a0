package groth16

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zkperf/internal/circuit"
	"zkperf/internal/curve"
	"zkperf/internal/ff"
	"zkperf/internal/witness"
)

// TestProofBytesPinned pins the SHA-256 of the encoded proof for a fixed
// circuit and seed. The MSMs run on the GLV path at this size (every
// query has ≥ 64 points), and affine outputs are canonical, so any change
// to the MSM internals — window layout, subscalar decomposition, digit
// signs — must leave every byte of the proof unchanged.
func TestProofBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		c    *curve.Curve
		want string
	}{
		{curve.NewBN254(), "9718ab25609c7fc656a6e1b5d18c2562f11a92d10ba7135ea16c8487de676ec1"},
		{curve.NewBLS12381(), "c8da41eadf83a127fef36cc190682dcd48246685f360260196e4274021b8d2fd"},
	} {
		t.Run(tc.c.Name, func(t *testing.T) {
			fr := tc.c.Fr
			eng := NewEngine(tc.c)
			eng.Threads = 2
			sys, prog, err := circuit.CompileSource(fr, circuit.ExponentiateSource(100))
			if err != nil {
				t.Fatal(err)
			}
			rng := ff.NewRNG(11)
			pk, _, err := eng.Setup(sys, rng)
			if err != nil {
				t.Fatal(err)
			}
			var x ff.Element
			fr.SetUint64(&x, 7)
			w, err := witness.Solve(sys, prog, witness.Assignment{"x": x})
			if err != nil {
				t.Fatal(err)
			}
			if len(pk.H) < curve.GLVMinPoints || len(pk.K) < curve.GLVMinPoints {
				t.Fatalf("circuit too small for the GLV path: |H|=%d |K|=%d", len(pk.H), len(pk.K))
			}
			proof, err := eng.Prove(sys, pk, w, rng)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := proof.Serialize(&buf, tc.c); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("proof SHA-256 = %s, want %s", got, tc.want)
			}
		})
	}
}
