package plonk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zkperf/internal/curve"
)

// TestPlonkProofBytesPinned pins the SHA-256 of an encoded BLS12-381
// PLONK proof. The domain (128) puts every KZG commitment on the GLV MSM
// path; affine commitments are canonical, so MSM-internal changes must
// not move a byte.
func TestPlonkProofBytesPinned(t *testing.T) {
	c := curve.NewBLS12381()
	_, _, proof, _ := proveExp(t, c, 100, 5)
	var buf bytes.Buffer
	if err := proof.Serialize(&buf, c); err != nil {
		t.Fatal(err)
	}
	const want = "ac72900cc70d59905d2176a1e9aebe24af48e651fea2b7e5b5f75d16b62619b7"
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("proof SHA-256 = %s, want %s", got, want)
	}
}
