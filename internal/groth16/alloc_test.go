//go:build !race

package groth16

import (
	"runtime"
	"testing"

	"zkperf/internal/circuit"
	"zkperf/internal/curve"
	"zkperf/internal/ff"
	"zkperf/internal/witness"
)

// proveAllocCap bounds the bytes one 2^14 BN254 prove allocates at two
// threads: the five GLV MSMs (digit matrices, φ-coordinate arrays, bucket
// scratch), the quotient's evaluation vectors and the witness-sized
// scalar copies. Materialising ±P/±φ(P) per MSM, as the MSM once did,
// costs ~30 MB more and fails this gate.
const proveAllocCap = 36_000_000

// TestProveAllocBytes is a timing-free memory gate: it counts the bytes
// the Go heap hands out during one prove (runtime.MemStats.TotalAlloc),
// which depends on the code, not on the host's speed. The race detector
// instruments allocations, so the file is excluded from -race builds.
func TestProveAllocBytes(t *testing.T) {
	c := curve.NewBN254()
	fr := c.Fr
	eng := NewEngine(c)
	eng.Threads = 2
	sys, prog, err := circuit.CompileSource(fr, circuit.ExponentiateSource(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	rng := ff.NewRNG(1)
	pk, vk, err := eng.Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	var x ff.Element
	fr.SetUint64(&x, 7)
	w, err := witness.Solve(sys, prog, witness.Assignment{"x": x})
	if err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	proof, err := eng.Prove(sys, pk, w, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Verify(vk, proof, w.Public); err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("2^14 BN254 prove at 2 threads: %.1f MB in %d allocations",
		float64(got)/1e6, after.Mallocs-before.Mallocs)
	if got > proveAllocCap {
		t.Fatalf("prove allocated %d bytes, cap %d", got, proveAllocCap)
	}
}
