package provesvc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"zkperf/internal/backend"
	"zkperf/internal/ff"
	"zkperf/internal/telemetry"
)

// VerifyBatch checks many proofs in one call. Requests are grouped by
// circuit key (source × curve × backend) and each group goes through the
// backend's folded check — for groth16 a single random-linear-combination
// multi-pairing with one shared final exponentiation, for backends
// without the BatchVerifier capability a per-proof loop — so the caller
// pays the one-pairing floor per group instead of per proof.
//
// Like Verify it runs inline on the caller's goroutine. Results are
// index-aligned with reqs: oks[i] true for a valid proof, false with
// errs[i] nil for a well-formed but invalid one, false with errs[i] set
// for infrastructure errors (which are per-group: a circuit that fails
// to compile fails all its requests, never its neighbours').
func (s *Service) VerifyBatch(ctx context.Context, reqs []VerifyRequest) ([]bool, []error) {
	oks := make([]bool, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return oks, errs
	}
	type group struct{ idxs []int }
	groups := make(map[CircuitKey]*group)
	var order []CircuitKey // map iteration is unordered; keep arrival order
	for i := range reqs {
		if reqs[i].Curve == "" {
			reqs[i].Curve = "bn128"
		}
		if reqs[i].Backend == "" {
			reqs[i].Backend = DefaultBackend
		}
		if reqs[i].Proof == nil {
			errs[i] = fmt.Errorf("provesvc: verify: missing proof")
			continue
		}
		key := CircuitKey{
			SourceHash: sha256.Sum256([]byte(reqs[i].Source)),
			Curve:      reqs[i].Curve,
			Backend:    reqs[i].Backend,
		}
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
			order = append(order, key)
		}
		g.idxs = append(g.idxs, i)
	}
	for _, key := range order {
		s.verifyGroup(ctx, reqs, groups[key].idxs, oks, errs)
	}
	return oks, errs
}

// verifyGroup folds one same-circuit slice of a batch through the
// backend and books the outcome into the service counters, the batch
// histograms, and telemetry.
func (s *Service) verifyGroup(ctx context.Context, reqs []VerifyRequest, idxs []int, oks []bool, errs []error) {
	req0 := reqs[idxs[0]]
	art, err := s.reg.Get(ctx, req0.Curve, req0.Backend, req0.Source)
	if err != nil {
		for _, i := range idxs {
			errs[i] = err
		}
		return
	}
	probe := telemetry.ProbeFromContext(ctx)
	if s.tel.Enabled() && probe == nil {
		probe = telemetry.NewProbe(telemetry.RequestIDFromContext(ctx))
		ctx = telemetry.WithProbe(ctx, probe)
	}
	proofs := make([]backend.Proof, len(idxs))
	publics := make([][]ff.Element, len(idxs))
	for k, i := range idxs {
		proofs[k] = reqs[i].Proof
		publics[k] = reqs[i].Public
	}

	t0 := time.Now()
	endVerify := probe.StartStage(telemetry.StageVerify)
	verdicts, batchErr := backend.VerifyBatch(ctx, art.Backend, art.VK, proofs, publics)
	endVerify()
	d := time.Since(t0)
	if batchErr != nil {
		for _, i := range idxs {
			errs[i] = batchErr
		}
		return
	}

	n := len(idxs)
	s.met.vbBatches.Add(1)
	s.met.vbProofs.Add(uint64(n))
	s.met.vbSize.ObserveCount(n)
	s.met.vbLat.Observe(d)
	bm := s.met.forBackend(req0.Backend)
	for k, i := range idxs {
		s.met.verified.Add(1)
		if bm != nil {
			// Amortized: the verify latency distribution keeps meaning
			// "cost per proof", which is exactly what batching lowers.
			bm.verifyLat.Observe(d / time.Duration(n))
		}
		s.tel.CountRequest(req0.Backend, req0.Curve, "verified")
		switch v := verdicts[k]; {
		case v == nil:
			oks[i] = true
		case errors.Is(v, backend.ErrInvalidProof):
			// invalid: oks[i] stays false, errs[i] stays nil
		default:
			errs[i] = v
		}
	}
	s.tel.ObserveStage(req0.Backend, req0.Curve, telemetry.StageVerify, d)
	s.tel.ObserveProbe(req0.Backend, req0.Curve, probe)
}
