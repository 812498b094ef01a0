package main

import (
	"hash/fnv"
	"math/big"
	"math/rand"
	"strconv"

	"zkperf/internal/circuit"
	"zkperf/internal/ff"
)

// circuitSpec names one circuit as a client would: the y = x^e source on
// a curve under a backend. The service sees only the source text.
type circuitSpec struct {
	Curve   string // "bn128" or "bls12-381", the wire names zkserve accepts
	Backend string // "groth16" or "plonk"
	E       int    // exponent of circuit.ExponentiateSource
}

// source is the circuit text: a loop in the circuit language, a few lines
// whatever the exponent.
func (c circuitSpec) source() string { return circuit.ExponentiateSource(c.E) }

var (
	bn254R    = ff.NewBN254Fr().Modulus()
	bls12381R = ff.NewBLS12381Fr().Modulus()
)

func (c circuitSpec) modulus() *big.Int {
	if c.Curve == "bls12-381" {
		return bls12381R
	}
	return bn254R
}

// expected is the public output the circuit must produce for input x,
// computed without any of the code under test.
func (c circuitSpec) expected(x uint64) string {
	y := new(big.Int).Exp(new(big.Int).SetUint64(x), big.NewInt(int64(c.E)), c.modulus())
	return y.String()
}

// wrongPublic is a public output no valid proof for x can carry.
func (c circuitSpec) wrongPublic(x uint64) string {
	y, _ := new(big.Int).SetString(c.expected(x), 10)
	y.Add(y, big.NewInt(1)).Mod(y, c.modulus())
	return y.String()
}

// newRNG derives an independent, reproducible stream from the run seed
// and a stream name ("warmup", "client0", …), so adding a client or a
// warm-up request never shifts another stream's draws. math/rand's seeded
// generator is frozen by the Go 1 compatibility promise.
func newRNG(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15 ^ h.Sum64())))
}

// freshX draws a circuit input. 63 random bits make a repeat within a run
// vanishingly unlikely, so no result cache could serve a request.
func freshX(r *rand.Rand) uint64 { return uint64(r.Int63()) | 1 }

func xString(x uint64) string { return strconv.FormatUint(x, 10) }

// wrongPositions picks n/every distinct pool positions whose public input
// is replaced by a wrong one.
func wrongPositions(r *rand.Rand, n, every int) map[int]bool {
	out := make(map[int]bool, n/every)
	for _, i := range r.Perm(n)[:n/every] {
		out[i] = true
	}
	return out
}
