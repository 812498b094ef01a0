package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"zkperf/internal/backend"
	"zkperf/internal/circuit"
	"zkperf/internal/cluster"
	"zkperf/internal/core"
	"zkperf/internal/curve"
	"zkperf/internal/ff"
	"zkperf/internal/groth16"
	"zkperf/internal/kzg"
	"zkperf/internal/pairing"
	"zkperf/internal/parallel"
	"zkperf/internal/poly"
	"zkperf/internal/provesvc"
	"zkperf/internal/qap"
	"zkperf/internal/r1cs"
	"zkperf/internal/tower"
	"zkperf/internal/witness"
)

// The per-layer numbers are taken from outside the program: each is a
// timed call into one package's public API on inputs shaped like the
// workloads' (the 2^14 proving key and witness of prove_large, the 2048
// domain of prove_plonk_bls, the e=64 proofs of verify_mix, the e=16 hot
// circuit of serve_skew). Every call is wrapped in a span. The program
// itself is not instrumented; spans inside it are ROADMAP item 3.

// layerBench collects replica timings. slice is how long a cheap replica
// is repeated for; expensive ones run a fixed small number of times.
type layerBench struct {
	spans  *spanLog
	parent int
	slice  time.Duration
	tN     int
	out    map[string]float64
	err    error
}

// must keeps the first replica error; later replicas still run so that
// one broken layer does not hide the rest.
func (b *layerBench) must(err error) {
	if err != nil && b.err == nil {
		b.err = err
	}
}

// drop keeps the error of a call whose value the replica does not need.
func (b *layerBench) drop(_ any, err error) { b.must(err) }

// repeat calls fn atLeast times and until the slice is used up, and
// returns the median duration of one call.
func (b *layerBench) repeat(name string, atLeast int, fn func()) time.Duration {
	var ds []float64
	t0 := time.Now()
	for i := 0; i < atLeast || time.Since(t0) < b.slice; i++ {
		ds = append(ds, float64(b.spans.timed(b.parent, name, fn)))
	}
	return time.Duration(median(ds))
}

// ns records a sub-microsecond operation: fn performs per operations, so
// that one span covers enough work to time.
func (b *layerBench) ns(name string, per int, fn func()) {
	b.out[name] = float64(b.repeat(name, 3, fn)) / float64(per)
}

// us records an operation of a few microseconds, a hundred to a span.
func (b *layerBench) us(name string, fn func()) {
	b.out[name] = float64(b.repeat(name, 3, func() {
		for i := 0; i < 100; i++ {
			fn()
		}
	})) / 100 / float64(time.Microsecond)
}

func (b *layerBench) ms(name string, atLeast int, fn func()) {
	b.out[name] = ms(b.repeat(name, atLeast, fn))
}

// once records a replica too expensive to repeat.
func (b *layerBench) once(name string, fn func()) {
	b.out[name] = ms(b.spans.timed(b.parent, name, fn))
}

var curveTags = []struct {
	tag  string
	make func() *curve.Curve
}{
	{"bn254", curve.NewBN254},
	{"bls12381", curve.NewBLS12381},
}

// runLayers measures every replica and returns metric name → value.
// dir is scratch space inside the checkout.
func runLayers(spans *spanLog, seed uint64, slice time.Duration, dir string) (map[string]float64, error) {
	b := &layerBench{spans: spans, slice: slice, tN: runtime.GOMAXPROCS(0), out: map[string]float64{}}
	var end func()
	b.parent, end = spans.begin(0, "layers")
	defer end()

	curves := map[string]*curve.Curve{}
	for _, ct := range curveTags {
		c := ct.make()
		curves[ct.tag] = c
		b.arithmetic(ct.tag, c, seed)
		b.pairing(ct.tag, c, seed)
	}
	b.groth16N14(curves["bn254"], seed, dir)
	b.smallCircuits(curves, seed)
	b.plonkBLS(curves["bls12381"], seed)
	b.counts()
	b.services(seed, dir)
	b.togetherStart(seed)
	b.coreSuite()
	b.tables(dir)
	return b.out, b.err
}

// arithmetic covers ff, tower and the curve group law.
func (b *layerBench) arithmetic(tag string, c *curve.Curve, seed uint64) {
	rng := ff.NewRNG(seed)
	field := func(name string, f *ff.Field) {
		var x, y, z ff.Element
		f.RandomNonZero(&x, rng)
		f.RandomNonZero(&y, rng)
		b.ns("ff.mul_ns."+name, 2000, func() {
			for i := 0; i < 1000; i++ {
				f.Mul(&z, &x, &y)
				f.Mul(&x, &z, &y)
			}
		})
	}
	field(tag, c.Fp)
	field(tag+"_fr", c.Fr)
	var x, z ff.Element
	c.Fp.RandomNonZero(&x, rng)
	b.ns("ff.square_ns."+tag, 1000, func() {
		for i := 0; i < 1000; i++ {
			c.Fp.Square(&x, &x)
		}
	})
	c.Fp.RandomNonZero(&x, rng)
	b.ns("ff.inverse_ns."+tag, 100, func() {
		for i := 0; i < 50; i++ {
			c.Fp.Inverse(&z, &x)
			c.Fp.Inverse(&x, &z)
		}
	})

	var e2a, e2b tower.E2
	c.Tw.E2Random(&e2a, rng)
	c.Tw.E2Random(&e2b, rng)
	b.ns("tower.e2_mul_ns."+tag, 1000, func() {
		for i := 0; i < 1000; i++ {
			c.Tw.E2Mul(&e2a, &e2a, &e2b)
		}
	})
	var e12a, e12b tower.E12
	c.Tw.E12Random(&e12a, rng)
	c.Tw.E12Random(&e12b, rng)
	b.ns("tower.e12_mul_ns."+tag, 100, func() {
		for i := 0; i < 100; i++ {
			c.Tw.E12Mul(&e12a, &e12a, &e12b)
		}
	})

	var k ff.Element
	c.Fr.RandomNonZero(&k, rng)
	var g1, acc1 curve.G1Jac
	c.G1FromAffine(&g1, &c.G1Gen)
	c.G1ScalarMul(&acc1, &g1, &k)
	b.ns("curve.g1_add_mixed_ns."+tag, 1000, func() {
		for i := 0; i < 1000; i++ {
			c.G1AddAffine(&acc1, &acc1, &c.G1Gen)
		}
	})
	b.ns("curve.g1_double_ns."+tag, 1000, func() {
		for i := 0; i < 1000; i++ {
			c.G1Double(&acc1, &acc1)
		}
	})
	var g2, acc2 curve.G2Jac
	c.G2FromAffine(&g2, &c.G2Gen)
	c.G2ScalarMul(&acc2, &g2, &k)
	b.ns("curve.g2_add_mixed_ns."+tag, 200, func() {
		for i := 0; i < 200; i++ {
			c.G2AddAffine(&acc2, &acc2, &c.G2Gen)
		}
	})

	// Decoding is what /v1/verify does to every proof before any pairing.
	var p1 curve.G1Affine
	c.G1ToAffine(&p1, &acc1)
	enc1 := c.G1Bytes(&p1)
	b.us("curve.g1_decode_us."+tag, func() { b.must(c.G1SetBytes(&p1, enc1)) })
	var p2 curve.G2Affine
	c.G2ToAffine(&p2, &acc2)
	enc2 := c.G2Bytes(&p2)
	b.us("curve.g2_decode_us."+tag, func() { b.must(c.G2SetBytes(&p2, enc2)) })
}

// pairing covers the Miller loop, the final exponentiation and the
// four-pair product check that is a Groth16 verify.
func (b *layerBench) pairing(tag string, c *curve.Curve, seed uint64) {
	eng := pairing.NewEngine(c)
	rng := ff.NewRNG(seed + 1)
	ps := make([]curve.G1Affine, 4)
	qs := make([]curve.G2Affine, 4)
	for i := range ps {
		var k ff.Element
		var j1 curve.G1Jac
		var j2 curve.G2Jac
		c.Fr.RandomNonZero(&k, rng)
		c.G1FromAffine(&j1, &c.G1Gen)
		c.G1ScalarMul(&j1, &j1, &k)
		c.G1ToAffine(&ps[i], &j1)
		c.Fr.RandomNonZero(&k, rng)
		c.G2FromAffine(&j2, &c.G2Gen)
		c.G2ScalarMul(&j2, &j2, &k)
		c.G2ToAffine(&qs[i], &j2)
	}
	var f pairing.GT
	b.ms("pairing.miller_ms."+tag, 5, func() { f = eng.MillerLoop(&ps[0], &qs[0]) })
	b.ms("pairing.finalexp_ms."+tag, 5, func() { _ = eng.FinalExp(&f) })
	b.ms("pairing.check4_ms."+tag, 5, func() { _ = eng.PairingCheck(ps, qs) })
}

// solved compiles an exponentiation circuit and solves it for x.
func solved(fr *ff.Field, e int, x uint64) (*r1cs.System, *witness.Program, *witness.Witness, error) {
	sys, prog, err := circuit.CompileSource(fr, circuit.ExponentiateSource(e))
	if err != nil {
		return nil, nil, nil, err
	}
	var xe ff.Element
	fr.SetUint64(&xe, x)
	w, err := witness.Solve(sys, prog, witness.Assignment{"x": xe})
	return sys, prog, w, err
}

// groth16N14 is prove_large's shape: the 2^14 circuit on BN254. One
// service with an artifact directory runs the compile and the trusted
// setup (their durations are the ones the service publishes on the
// artifact); the encoded key then feeds the codec replicas and, decoded
// natively, gives the MSM replicas the proving key's real point arrays.
// A second service on the same directory prices a restart.
func (b *layerBench) groth16N14(c *curve.Curve, seed uint64, dir string) {
	const e = 1 << 14
	ctx := context.Background()
	src := circuit.ExponentiateSource(e)
	artDir := filepath.Join(dir, "artifacts")

	first := provesvc.New(provesvc.WithArtifactDir(artDir), provesvc.WithProveThreads(b.tN), provesvc.WithSeed(seed))
	b.must(first.ArtifactDirError())
	var art *provesvc.Artifact
	b.spans.timed(b.parent, "provesvc.Registry.Get(cold)", func() {
		var err error
		art, err = first.Registry().Get(ctx, "bn128", "groth16", src)
		b.must(err)
	})
	if art == nil {
		return
	}
	b.out["circuit.compile_ms.n14"] = ms(art.CompileTime)
	b.out["groth16.setup_ms.bn254.n14"] = ms(art.SetupTime)

	second := provesvc.New(provesvc.WithArtifactDir(artDir), provesvc.WithProveThreads(b.tN), provesvc.WithSeed(seed))
	b.once("provesvc.artifact_load_ms.n14", func() {
		b.drop(second.Registry().Get(ctx, "bn128", "groth16", src))
	})
	if st := second.Stats().Artifacts; st.DiskLoads != 1 {
		b.must(fmt.Errorf("artifact replica: second service made %d disk loads, want 1", st.DiskLoads))
	}
	// Neither service was started, so there is nothing to shut down; the
	// table directory they configured process-wide is reset here so later
	// replicas build their tables in memory.
	b.must(curve.SetTableDir(""))

	var keyBytes bytes.Buffer
	b.once("backend.pk_encode_ms.groth16.n14", func() { b.must(art.PK.Encode(&keyBytes)) })
	b.once("backend.pk_decode_ms.groth16.n14", func() {
		b.drop(art.Backend.ReadProvingKey(bytes.NewReader(keyBytes.Bytes()), art.Sys))
	})
	var pk groth16.ProvingKey
	if err := pk.Deserialize(bytes.NewReader(keyBytes.Bytes()), c); err != nil {
		b.must(err)
		return
	}

	var x ff.Element
	c.Fr.SetUint64(&x, freshX(newRNG(seed, "layers")))
	var w *witness.Witness
	b.ms("witness.solve_ms.n14", 3, func() {
		var err error
		w, err = witness.Solve(art.Sys, art.Prog, witness.Assignment{"x": x})
		b.must(err)
	})
	if w == nil {
		return
	}

	// The five MSMs and the quotient of one prove, each on the array the
	// prover hands it. For y = x^e the B-side arrays are almost all
	// infinity, so "kernel share" is dominated by A, K and H.
	nPub := 1 + art.Sys.NumPublic
	d, err := poly.NewDomain(c.Fr, pk.DomainSize)
	if err != nil {
		b.must(err)
		return
	}
	var h []ff.Element
	b.ms("qap.quotient_ms.bn254.n14.tN", 2, func() {
		h, err = qap.QuotientEvalsCtx(ctx, art.Sys, d, w.Full, b.tN)
		b.must(err)
	})
	b.ms("curve.msm_g1_ms.bn254.n14.t1", 1, func() { c.G1MSM(pk.A, w.Full, 1) })
	b.ms("curve.msm_g1_ms.bn254.n14.tN", 2, func() { c.G1MSM(pk.A, w.Full, b.tN) })
	kernels := b.out["qap.quotient_ms.bn254.n14.tN"] + b.out["curve.msm_g1_ms.bn254.n14.tN"]
	kernels += ms(b.repeat("curve.G1MSM(pk.B1)", 1, func() { c.G1MSM(pk.B1, w.Full, b.tN) }))
	kernels += ms(b.repeat("curve.G1MSM(pk.K)", 1, func() { c.G1MSM(pk.K, w.Full[nPub:], b.tN) }))
	kernels += ms(b.repeat("curve.G1MSM(pk.H)", 1, func() { c.G1MSM(pk.H[:len(h)], h, b.tN) }))
	kernels += ms(b.repeat("curve.G2MSM(pk.B2)", 1, func() { c.G2MSM(pk.B2, w.Full, b.tN) }))

	// A dense G2 MSM, which no circuit in this benchmark produces but
	// circuits with many distinct right-hand operands do.
	g2pts := denseG2(c, e)
	b.ms("curve.msm_g2_ms.bn254.n14.tN", 1, func() { c.G2MSM(g2pts, w.Full[:e], b.tN) })

	tab := c.G1GenTable() // rebuilt here, untimed: the table cache was just cleared
	b.ms("curve.tablemul_g1_ms.bn254.n14.tN", 1, func() { tab.MulBatch(w.Full[:e], b.tN) })

	a := make([]ff.Element, d.N) // the key's domain: 2^15 for 2^14 constraints
	for i := range a {
		a[i] = w.Full[i%len(w.Full)]
	}
	b.ms("poly.ntt_ms.bn254.n14.t1", 3, func() { b.must(d.NTTCtx(ctx, a, 1)) })
	b.ms("poly.ntt_ms.bn254.n14.tN", 3, func() { b.must(d.NTTCtx(ctx, a, b.tN)) })
	b.ms("poly.intt_ms.bn254.n14.tN", 3, func() { b.must(d.INTTCtx(ctx, a, b.tN)) })

	rng := ff.NewRNG(seed + 2)
	// The thread grant rides the context, the way the service's scheduler
	// hands a job its share.
	prove := func(n int) func() {
		return func() {
			b.drop(art.Backend.Prove(parallel.WithThreadBudget(ctx, n), art.Sys, art.PK, w, rng))
		}
	}
	b.ms("groth16.prove_ms.bn254.n14.t1", 1, prove(1))
	b.ms("groth16.prove_ms.bn254.n14.tN", 2, prove(b.tN))
	b.out["budget.groth16_prove.kernel_share"] = kernels / b.out["groth16.prove_ms.bn254.n14.tN"]
}

// denseG2 builds n distinct affine G2 points by repeated addition.
func denseG2(c *curve.Curve, n int) []curve.G2Affine {
	jacs := make([]curve.G2Jac, n)
	var acc curve.G2Jac
	c.G2FromAffine(&acc, &c.G2Gen)
	for i := range jacs {
		jacs[i] = acc
		c.G2AddAffine(&acc, &acc, &c.G2Gen)
	}
	out := make([]curve.G2Affine, n)
	c.G2BatchToAffine(out, jacs)
	return out
}

// smallCircuits covers serve_skew's hot circuit (e=16) and verify_mix's
// verify shapes (e=64 on both curves, single and folded batch of 32).
func (b *layerBench) smallCircuits(curves map[string]*curve.Curve, seed uint64) {
	ctx := context.Background()
	rng := ff.NewRNG(seed + 3)
	for _, ct := range curveTags {
		c := curves[ct.tag]
		bk, err := backend.New("groth16", c, 1)
		if err != nil {
			b.must(err)
			return
		}
		sys, _, w, err := solved(c.Fr, 64, 3)
		if err != nil {
			b.must(err)
			return
		}
		pk, vk, err := bk.Setup(ctx, sys, rng)
		if err != nil {
			b.must(err)
			return
		}
		// Four distinct proofs, cycled to fill a batch of 32: the fold
		// draws a fresh scalar per slot, so repeats cost what distinct
		// proofs cost.
		proofs := make([]backend.Proof, 32)
		publics := make([][]ff.Element, 32)
		for i := range proofs {
			if i < 4 {
				proofs[i], err = bk.Prove(ctx, sys, pk, w, rng)
				b.must(err)
			} else {
				proofs[i] = proofs[i%4]
			}
			publics[i] = w.Public
		}
		if b.err != nil {
			return
		}
		b.ms("groth16.verify_ms."+ct.tag, 5, func() { b.must(bk.Verify(ctx, vk, proofs[0], w.Public)) })
		b.ms("groth16.verify_batch32_ms."+ct.tag, 3, func() {
			b.drop(backend.VerifyBatch(ctx, bk, vk, proofs, publics))
		})
		if ct.tag != "bn254" {
			continue
		}
		var enc bytes.Buffer
		b.us("backend.proof_encode_us.groth16", func() {
			enc.Reset()
			b.must(proofs[0].Encode(&enc))
		})
		b.us("backend.proof_decode_us.groth16", func() {
			b.drop(bk.ReadProof(bytes.NewReader(enc.Bytes())))
		})

		hotSys, hotProg, hotW, err := solved(c.Fr, 16, 3)
		if err != nil {
			b.must(err)
			return
		}
		hotPK, _, err := bk.Setup(ctx, hotSys, rng)
		if err != nil {
			b.must(err)
			return
		}
		var x ff.Element
		c.Fr.SetUint64(&x, 5)
		b.us("witness.solve_us.hot", func() {
			b.drop(witness.Solve(hotSys, hotProg, witness.Assignment{"x": x}))
		})
		b.ms("groth16.prove_ms.bn254.hot", 10, func() {
			b.drop(bk.Prove(ctx, hotSys, hotPK, hotW, rng))
		})
	}
}

// plonkBLS is prove_plonk_bls's shape: e=1000 lowered to a 2048 domain on
// BLS12-381, plus the NTT, MSM and KZG calls at that size.
func (b *layerBench) plonkBLS(c *curve.Curve, seed uint64) {
	ctx := context.Background()
	rng := ff.NewRNG(seed + 4)
	bk, err := backend.New("plonk", c, b.tN)
	if err != nil {
		b.must(err)
		return
	}
	sys, _, w, err := solved(c.Fr, 1000, 3)
	if err != nil {
		b.must(err)
		return
	}
	var pk backend.ProvingKey
	var vk backend.VerifyingKey
	b.once("plonk.setup_ms.bls12381.n10", func() {
		pk, vk, err = bk.Setup(ctx, sys, rng)
		b.must(err)
	})
	if pk == nil {
		return
	}
	var proof backend.Proof
	b.ms("plonk.prove_ms.bls12381.n10.tN", 2, func() {
		proof, err = bk.Prove(ctx, sys, pk, w, rng)
		b.must(err)
	})
	if proof == nil {
		return
	}
	b.ms("plonk.verify_ms.bls12381", 3, func() { b.must(bk.Verify(ctx, vk, proof, w.Public)) })

	const n = 2048
	srs, err := kzg.NewSRSCtx(ctx, c, n, rng, b.tN)
	if err != nil {
		b.must(err)
		return
	}
	p := make([]ff.Element, n)
	for i := range p {
		c.Fr.Random(&p[i], rng)
	}
	var z ff.Element
	c.Fr.Random(&z, rng)
	b.ms("curve.msm_g1_ms.bls12381.n11.tN", 3, func() { c.G1MSM(srs.G1, p, b.tN) })
	b.ms("kzg.commit_ms.bls12381.n11.tN", 3, func() {
		b.drop(srs.CommitCtx(ctx, p, b.tN))
	})
	b.ms("kzg.open_ms.bls12381.n11.tN", 3, func() {
		_, _, err := srs.OpenCtx(ctx, p, &z, b.tN)
		b.must(err)
	})
	d, err := poly.NewDomain(c.Fr, n)
	if err != nil {
		b.must(err)
		return
	}
	b.ms("poly.ntt_ms.bls12381.n11.tN", 5, func() { b.must(d.NTTCtx(ctx, p, b.tN)) })
}

// counts takes exact field-multiplication counts (Montgomery products and
// squarings, base and scalar field together) through the public
// ff.Field.Count hook, on one thread because the counter is unsynchronised.
// Inputs and RNG seeds are constants, not the run seed, so the counts
// repeat exactly across runs and seeds; they move only when the code does.
func (b *layerBench) counts() {
	ctx := context.Background()
	counted := func(c *curve.Curve, fn func()) float64 {
		var ops ff.OpCount
		c.Fp.Count, c.Fr.Count = &ops, &ops
		fn()
		c.Fp.Count, c.Fr.Count = nil, nil
		return float64(ops.Mul + ops.Sq)
	}
	run := func(scheme string, c *curve.Curve, e int, proveName, verifyName string) {
		bk, err := backend.New(scheme, c, 1)
		if err != nil {
			b.must(err)
			return
		}
		sys, _, w, err := solved(c.Fr, e, 3)
		if err != nil {
			b.must(err)
			return
		}
		rng := ff.NewRNG(17)
		pk, vk, err := bk.Setup(ctx, sys, rng)
		if err != nil {
			b.must(err)
			return
		}
		var proof backend.Proof
		b.out[proveName] = counted(c, func() {
			b.spans.timed(b.parent, proveName, func() {
				proof, err = bk.Prove(ctx, sys, pk, w, rng)
				b.must(err)
			})
		})
		if verifyName != "" && proof != nil {
			b.out[verifyName] = counted(c, func() {
				b.spans.timed(b.parent, verifyName, func() { b.must(bk.Verify(ctx, vk, proof, w.Public)) })
			})
		}
	}
	run("groth16", curve.NewBN254(), 1<<10, "groth16.prove_ff_mul_count.n10", "groth16.verify_ff_mul_count")
	run("plonk", curve.NewBLS12381(), 1000, "plonk.prove_ff_mul_count.n10", "")
}

// services covers what surrounds a hot prove: telemetry on versus off,
// the durable async job path, and the gateway hop.
func (b *layerBench) services(seed uint64, dir string) {
	ctx := context.Background()
	hot := circuitSpec{Curve: "bn128", Backend: "groth16", E: 16}
	rng := newRNG(seed, "layers/services")
	body := func(cs circuitSpec) proveBody {
		return proveBody{cs.Curve, cs.Backend, cs.source(), map[string]string{"x": xString(freshX(rng))}}
	}

	node := provesvc.New(append((&workload{}).serviceOptions(seed), provesvc.WithJobJournal(filepath.Join(dir, "journal")))...)
	b.must(node.JobJournalError())
	node.Start()
	defer node.Shutdown(ctx)
	bare := provesvc.New(append((&workload{}).serviceOptions(seed), provesvc.WithTelemetry(nil))...)
	bare.Start()
	defer bare.Shutdown(ctx)

	nodeURL, stopNode, err := listen(provesvc.NewHandler(node))
	if err != nil {
		b.must(err)
		return
	}
	defer stopNode()
	gw, err := cluster.New(cluster.Config{Nodes: []cluster.NodeConfig{{Name: "a", URL: nodeURL}}})
	if err != nil {
		b.must(err)
		return
	}
	gw.Start()
	defer gw.Shutdown(ctx)
	gwURL, stopGW, err := listen(gw.Handler())
	if err != nil {
		b.must(err)
		return
	}
	defer stopGW()

	// Telemetry: the same hot prove through Service.Prove on a service
	// with the default telemetry and on one with none, interleaved.
	direct := func(svc *provesvc.Service) func() {
		c, err := svc.Registry().CurveFor(hot.Curve)
		b.must(err)
		return func() {
			var x ff.Element
			c.Fr.SetUint64(&x, freshX(rng))
			b.drop(svc.Prove(ctx, provesvc.ProveRequest{Curve: hot.Curve, Backend: hot.Backend, Source: hot.source(), Inputs: witness.Assignment{"x": x}}))
		}
	}
	on, off := direct(node), direct(bare)
	on()
	off()
	onMs, offMs := b.interleave("telemetry.on", on, "telemetry.off", off, 20)
	b.out["telemetry.overhead_ratio.hot"] = onMs / offMs

	// Cluster: the hot prove through the gateway and straight to the node.
	c := newCaller(nodeURL)
	g := newCaller(gwURL)
	send := func(cl *caller, path string, req any) {
		var rep json.RawMessage
		b.must(cl.post(path, "layers", req, &rep))
	}
	viaMs, directMs := b.interleave("cluster.via_gateway", func() { send(g, "/v1/prove", body(hot)) },
		"cluster.direct", func() { send(c, "/v1/prove", body(hot)) }, 20)
	b.out["cluster.hop_ms.hot"] = viaMs - directMs
	cold := coldCircuits()
	batch := func() map[string]any {
		items := make([]proveBody, 8)
		for i := range items {
			items[i] = body(cold[i%len(cold)])
		}
		return map[string]any{"items": items}
	}
	send(g, "/v1/prove/batch", batch()) // compiles and sets up the cold circuits
	b.ms("cluster.batch_scatter_ms.cold8", 2, func() { send(g, "/v1/prove/batch", batch()) })

	// Jobs: POST /v1/jobs answers 202 only after the journal record is
	// fsynced; then the job is polled to completion.
	type jobReply struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	var submit, done []float64
	const jobs = 20
	before := node.Stats().Jobs.Journal.SizeBytes
	for i := 0; i < jobs; i++ {
		req := struct {
			Kind string `json:"kind"`
			proveBody
		}{"prove", body(hot)}
		var jr jobReply
		t0 := time.Now()
		if err := c.do(http.MethodPost, "/v1/jobs", "layers", http.StatusAccepted, req, &jr); err != nil {
			b.must(err)
			return
		}
		t1 := time.Now()
		for jr.State != "done" {
			if jr.State == "failed" || time.Since(t1) > 10*time.Second {
				b.must(fmt.Errorf("job %s ended %q", jr.ID, jr.State))
				return
			}
			time.Sleep(500 * time.Microsecond)
			if err := c.do(http.MethodGet, "/v1/jobs/"+jr.ID, "layers", http.StatusOK, nil, &jr); err != nil {
				b.must(err)
				return
			}
		}
		t2 := time.Now()
		b.spans.add(b.parent, "jobs.submit", jr.ID, t0, t1)
		b.spans.add(b.parent, "jobs.submit_to_done", jr.ID, t0, t2)
		submit, done = append(submit, ms(t1.Sub(t0))), append(done, ms(t2.Sub(t0)))
	}
	b.out["jobs.submit_ms"] = median(submit)
	b.out["jobs.submit_to_done_ms.hot"] = median(done)
	b.out["jobs.journal_bytes_per_job"] = float64(node.Stats().Jobs.Journal.SizeBytes-before) / jobs
}

// togetherStart is the start serve_skew's window does not use: a fresh
// service, warmed one request per circuit, and both clients sending from
// the same instant. The closed-loop hot client queues behind the first
// cold batch, its arrival rate falls to the cold circuits' level, and the
// scheduler's one hot slot goes to whichever circuit is ahead at the next
// tick: by seed the hot circuit is isolated within a second or two
// (p50 ≈ 15 ms, hundreds of requests) or starved for the whole window
// (p50 ≈ 500 ms, about two requests a second). The two values are the
// baseline a provesvc change to promotion is held to.
func (b *layerBench) togetherStart(seed uint64) {
	w := *findWorkload("serve_skew")
	w.Clients = append([]clientSpec(nil), w.Clients...)
	for k := range w.Clients {
		w.Clients[k].StartAfter = 0
	}
	e, err := start(&w, seed, nil)
	if err != nil {
		b.must(err)
		return
	}
	defer e.stop()
	var samples [][]sample
	b.spans.timed(b.parent, "serve_skew.together_start", func() {
		samples = e.window(len(w.Clients), 4*time.Second, false, "together")
	})
	hot := summarise(samples[0])
	b.out["provesvc.together_start.hot_p50_ms"] = percentile(hot.LatencyMs, 50)
	b.out["provesvc.together_start.hot_requests"] = float64(len(hot.LatencyMs))
}

// interleave alternates two calls n times each and returns their median
// durations in ms, so both see the same host conditions.
func (b *layerBench) interleave(nameA string, a func(), nameB string, fnB func(), n int) (float64, float64) {
	var as, bs []float64
	for i := 0; i < n; i++ {
		as = append(as, ms(b.spans.timed(b.parent, nameA, a)))
		bs = append(bs, ms(b.spans.timed(b.parent, nameB, fnB)))
	}
	return median(as), median(bs)
}

// coreSuite times the paper-reproduction harness: every experiment of
// core.QuickConfig narrowed to 2^10, the largest sweep that fits a run.
func (b *layerBench) coreSuite() {
	cfg := core.QuickConfig()
	cfg.LogSizes, cfg.WSLogSizes, cfg.WSThreads = []int{10}, []int{10}, []int{1}
	b.out["core.suite_n10_s"] = b.spans.timed(b.parent, "core.suite_n10_s", func() {
		s := core.NewSuite(cfg)
		b.drop(s.ExecTimeBreakdown())
		b.drop(s.Fig4TopDown())
		b.drop(s.Fig5LoadsStores())
		b.drop(s.Table2MPKI())
		b.drop(s.Table3Bandwidth())
		b.drop(s.Table4HotFunctions())
		b.drop(s.Table5OpcodeMix())
		b.drop(s.Fig6StrongScaling())
		b.drop(s.Fig7WeakScaling())
		b.drop(s.Table6SerialParallel())
	}).Seconds()
}

// tables prices the fixed-base generator tables: built in memory, and
// loaded from a table directory as after a restart. It runs last because
// the table directory and cache are process-wide.
func (b *layerBench) tables(dir string) {
	both := func() {
		c := curve.NewBN254()
		c.G1GenTable()
		c.G2GenTable()
	}
	b.must(curve.SetTableDir(""))
	b.once("curve.table_build_ms.bn254", both)
	tdir := filepath.Join(dir, "tables")
	b.must(curve.SetTableDir(tdir))
	both() // builds again and writes the table files
	b.must(curve.SetTableDir(tdir))
	b.once("curve.table_load_ms.bn254", both)
	if st := curve.ReadTableStats(); st.DiskLoads < 2 {
		b.must(fmt.Errorf("table replica: %d disk loads, want the G1 and G2 tables loaded", st.DiskLoads))
	}
	b.must(curve.SetTableDir(""))
}

// scratchDir makes a fresh directory under out/ for artifacts, journals
// and table files, and returns it with its remover.
func scratchDir() (string, func(), error) {
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp("out", "scratch-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}
