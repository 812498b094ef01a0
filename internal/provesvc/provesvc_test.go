package provesvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"zkperf/internal/backend"
	"zkperf/internal/circuit"
	"zkperf/internal/ff"
	"zkperf/internal/witness"
)

// assignX builds the {x: v} assignment for the exponentiation circuit in
// the given curve's scalar field.
func assignX(t *testing.T, s *Service, curveName string, v uint64) witness.Assignment {
	t.Helper()
	c, err := s.reg.CurveFor(curveName)
	if err != nil {
		t.Fatal(err)
	}
	var x ff.Element
	c.Fr.SetUint64(&x, v)
	return witness.Assignment{"x": x}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRegistrySingleflight(t *testing.T) {
	reg := NewRegistry(1, 1, nil)
	src := circuit.ExponentiateSource(64)

	const n = 16
	arts := make([]*Artifact, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // release all requesters at once
			arts[i], errs[i] = reg.Get(context.Background(), "bn128", "groth16", src)
		}(i)
	}
	start.Done()
	done.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Get[%d]: %v", i, errs[i])
		}
		if arts[i] != arts[0] {
			t.Fatalf("Get[%d] returned a different artifact", i)
		}
	}
	if got := reg.Setups(); got != 1 {
		t.Errorf("setups = %d, want exactly 1 for %d concurrent requests", got, n)
	}
	if got := reg.Misses(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Hits(); got != n-1 {
		t.Errorf("hits = %d, want %d", got, n-1)
	}
}

// TestMixedBackendSingleflight hammers one source under both backends
// concurrently: the cache key includes the backend, so exactly one setup
// must run per backend and the artifacts must not be shared across them.
// Run under -race this also proves the registry's locking is clean when
// backends interleave.
func TestMixedBackendSingleflight(t *testing.T) {
	reg := NewRegistry(1, 1, nil)
	src := circuit.ExponentiateSource(64)

	const perBackend = 8
	names := backend.Names()
	arts := make([][]*Artifact, len(names))
	errs := make([][]error, len(names))
	var start, done sync.WaitGroup
	start.Add(1)
	for bi := range names {
		arts[bi] = make([]*Artifact, perBackend)
		errs[bi] = make([]error, perBackend)
		done.Add(perBackend)
		for i := 0; i < perBackend; i++ {
			go func(bi, i int) {
				defer done.Done()
				start.Wait()
				arts[bi][i], errs[bi][i] = reg.Get(context.Background(), "bn128", names[bi], src)
			}(bi, i)
		}
	}
	start.Done()
	done.Wait()

	for bi, name := range names {
		for i := 0; i < perBackend; i++ {
			if errs[bi][i] != nil {
				t.Fatalf("%s Get[%d]: %v", name, i, errs[bi][i])
			}
			if arts[bi][i] != arts[bi][0] {
				t.Fatalf("%s Get[%d] returned a different artifact", name, i)
			}
		}
		if got := arts[bi][0].Backend.Name(); got != name {
			t.Errorf("artifact backend = %q, want %q", got, name)
		}
	}
	if arts[0][0] == arts[1][0] {
		t.Error("backends shared one artifact; cache key must include the backend")
	}
	if got := reg.Setups(); got != uint64(len(names)) {
		t.Errorf("setups = %d, want %d (one per backend)", got, len(names))
	}
}

func TestRegistryCachesErrors(t *testing.T) {
	reg := NewRegistry(1, 1, nil)
	_, err := reg.Get(context.Background(), "bn128", "groth16", "circuit Broken {")
	if err == nil {
		t.Fatal("expected a compile error")
	}
	_, err2 := reg.Get(context.Background(), "bn128", "groth16", "circuit Broken {")
	if err2 == nil {
		t.Fatal("expected the cached compile error")
	}
	// One miss (the build) for two Gets proves the error was cached; no
	// setup ever ran because compilation failed before it.
	if got := reg.Misses(); got != 1 {
		t.Errorf("misses = %d, want 1 (errors should be cached)", got)
	}
	if got := reg.Setups(); got != 0 {
		t.Errorf("setups = %d, want 0 (compile failed before setup)", got)
	}
	if _, err := reg.Get(context.Background(), "no-such-curve", "groth16", "x"); !errors.Is(err, ErrUnknownCurve) {
		t.Fatalf("unknown curve err = %v, want ErrUnknownCurve", err)
	}
	if _, err := reg.Get(context.Background(), "bn128", "no-such-backend", "x"); !errors.Is(err, backend.ErrUnknownBackend) {
		t.Fatalf("unknown backend err = %v, want ErrUnknownBackend", err)
	}
}

func TestProveVerifyEndToEnd(t *testing.T) {
	for _, backendName := range backend.Names() {
		t.Run(backendName, func(t *testing.T) {
			s := New(WithWorkers(2), WithQueueDepth(8), WithSeed(42))
			s.Start()
			defer s.Shutdown(context.Background())

			src := circuit.ExponentiateSource(64)
			req := ProveRequest{
				Curve: "bn128", Backend: backendName, Source: src,
				Inputs: assignX(t, s, "bn128", 3),
			}

			res, err := s.Prove(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Proof.Backend(); got != backendName {
				t.Fatalf("proof backend = %q, want %q", got, backendName)
			}
			valid, err := s.Verify(context.Background(), VerifyRequest{
				Curve: "bn128", Backend: backendName, Source: src,
				Proof: res.Proof, Public: res.Public,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !valid {
				t.Fatal("proof did not verify")
			}

			// A wrong public input must yield invalid (not an error).
			bad := make([]ff.Element, len(res.Public))
			copy(bad, res.Public)
			c, _ := s.reg.CurveFor("bn128")
			c.Fr.SetUint64(&bad[len(bad)-1], 12345)
			valid, err = s.Verify(context.Background(), VerifyRequest{
				Curve: "bn128", Backend: backendName, Source: src,
				Proof: res.Proof, Public: bad,
			})
			if err != nil {
				t.Fatal(err)
			}
			if valid {
				t.Fatal("tampered public input still verified")
			}

			// Repeated proves of the same circuit must hit the artifact cache.
			if _, err := s.Prove(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			if st.Cache.Hits == 0 {
				t.Errorf("cache hits = 0 after repeated proves, want > 0")
			}
			if st.Cache.Setups != 1 {
				t.Errorf("setups = %d, want 1", st.Cache.Setups)
			}
			if st.Service.Completed != 2 {
				t.Errorf("completed = %d, want 2", st.Service.Completed)
			}
			bst, ok := st.Backends[backendName]
			if !ok {
				t.Fatalf("stats missing backend %q block", backendName)
			}
			if bst.Completed != 2 {
				t.Errorf("backend completed = %d, want 2", bst.Completed)
			}
			if bst.Stages["prove"].Count != 2 {
				t.Errorf("backend prove histogram count = %d, want 2", bst.Stages["prove"].Count)
			}
			if bst.Stages["prove"].P99Ms <= 0 {
				t.Errorf("backend prove p99 = %v, want > 0", bst.Stages["prove"].P99Ms)
			}
		})
	}
}

// TestUnknownBackendRejected checks both the configured-subset and the
// never-registered cases fail fast without consuming a queue slot.
func TestUnknownBackendRejected(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(2), WithBackends("groth16"))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(8)
	for _, name := range []string{"plonk", "stark"} {
		_, err := s.Prove(context.Background(), ProveRequest{
			Curve: "bn128", Backend: name, Source: src,
			Inputs: assignX(t, s, "bn128", 2),
		})
		if !errors.Is(err, backend.ErrUnknownBackend) {
			t.Fatalf("backend %q err = %v, want ErrUnknownBackend", name, err)
		}
	}
	if got := s.Stats().Service.Rejected; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	if got := s.Backends(); len(got) != 1 || got[0] != "groth16" {
		t.Errorf("Backends() = %v, want [groth16]", got)
	}
}

// TestOptionDefaults pins the options constructor's behaviour with no
// options at all: sane worker/queue defaults, the default backend, and
// telemetry enabled out of the box.
func TestOptionDefaults(t *testing.T) {
	s := New(WithSeed(21))
	s.Start()
	defer s.Shutdown(context.Background())

	if s.Telemetry() == nil || !s.Telemetry().Enabled() {
		t.Error("telemetry should be enabled by default")
	}
	src := circuit.ExponentiateSource(16)
	res, err := s.Prove(context.Background(), ProveRequest{
		Curve: "bn128", Source: src, Inputs: assignX(t, s, "bn128", 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Proof.Backend(); got != DefaultBackend {
		t.Errorf("default backend = %q, want %q", got, DefaultBackend)
	}
}

func TestProveBatch(t *testing.T) {
	s := New(WithWorkers(2), WithQueueDepth(8), WithSeed(7))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(32)
	reqs := []ProveRequest{
		{Curve: "bn128", Source: src, Inputs: assignX(t, s, "bn128", 2)},
		{Curve: "bn128", Backend: "plonk", Source: src, Inputs: assignX(t, s, "bn128", 5)},
		{Curve: "bn128", Source: src, Inputs: witness.Assignment{}}, // missing input
	}
	results, errs := s.ProveBatch(context.Background(), reqs)
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("batch[%d]: %v", i, errs[i])
		}
		valid, err := s.Verify(context.Background(), VerifyRequest{
			Curve: "bn128", Backend: reqs[i].Backend, Source: src,
			Proof: results[i].Proof, Public: results[i].Public,
		})
		if err != nil || !valid {
			t.Fatalf("batch[%d] proof invalid: %v", i, err)
		}
	}
	if errs[2] == nil {
		t.Fatal("batch[2] with missing input should fail")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	gate := make(chan struct{})
	s := New(WithWorkers(1), WithQueueDepth(1), WithSeed(9))
	s.hookJobStart = func() { <-gate }
	s.Start()
	defer func() {
		s.Shutdown(context.Background())
	}()

	src := circuit.ExponentiateSource(8)
	req := ProveRequest{Curve: "bn128", Source: src, Inputs: assignX(t, s, "bn128", 2)}

	// j1 is picked up by the single worker, which parks on the gate.
	j1, err := s.enqueue(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker to pick up j1", func() bool {
		return s.met.inFlight.Load() == 1
	})

	// j2 occupies the single queue slot; j3 must be shed, not block.
	j2, err := s.enqueue(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prove(context.Background(), req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Service.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	// Unblock: both admitted jobs must complete — no deadlock.
	close(gate)
	for i, j := range []*job{j1, j2} {
		select {
		case <-j.done:
			if j.err != nil {
				t.Errorf("j%d failed: %v", i+1, j.err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("j%d did not complete after gate opened", i+1)
		}
	}
}

// testCancellationAbortsProve checks worker-side cancellation latency for
// one backend: a cancelled job must release its worker far sooner than a
// full prove takes.
func testCancellationAbortsProve(t *testing.T, backendName string) {
	// Scheduling off keeps the prove at one kernel thread, so a full
	// prove stays long enough to cancel midway.
	s := New(WithWorkers(1), WithQueueDepth(4), WithProveThreads(1), WithSeed(3),
		WithWorkloadSched(WorkloadConfig{}))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(2048)
	req := ProveRequest{
		Curve: "bn128", Backend: backendName, Source: src,
		Inputs: assignX(t, s, "bn128", 3),
	}

	// Baseline: a full prove on the warm cache (the first call also pays
	// compile+setup, so time only the second).
	if _, err := s.Prove(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := s.Prove(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	// Cancel early in the prove and time the *worker-side* abort: waiting
	// on the job's done channel measures when the kernels actually let go
	// of the cores, not just when the submitter gave up.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := s.enqueue(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(full / 20)
	cancel()
	t1 := time.Now()
	select {
	case <-j.done:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled job never completed")
	}
	aborted := time.Since(t1)
	if !errors.Is(j.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", j.err)
	}
	// The worker may finish its current kernel chunk, but it must bail
	// out far sooner than a full prove.
	if aborted > full/2+50*time.Millisecond {
		t.Errorf("worker released %v after cancel, full prove takes %v — cancellation not prompt", aborted, full)
	}

	// Deadline flavor: an expired per-job timeout aborts the same way.
	_, err = s.Prove(context.Background(), ProveRequest{
		Curve: "bn128", Backend: backendName, Source: src,
		Inputs:  assignX(t, s, "bn128", 3),
		Timeout: time.Millisecond,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want context.DeadlineExceeded", err)
	}
	waitFor(t, 30*time.Second, "cancelled counter", func() bool {
		return s.Stats().Service.Cancelled >= 2
	})
}

func TestCancellationAbortsProve(t *testing.T) {
	testCancellationAbortsProve(t, "groth16")
}

// TestPlonkCancellationAbortsProve is the acceptance check that context
// cancellation reaches PLONK's NTT/MSM chunk boundaries the same way
// PR 1 wired it for Groth16.
func TestPlonkCancellationAbortsProve(t *testing.T) {
	testCancellationAbortsProve(t, "plonk")
}

func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	s := New(WithWorkers(1), WithQueueDepth(8), WithSeed(5))
	s.hookJobStart = func() { <-gate }
	s.Start()

	src := circuit.ExponentiateSource(8)
	req := ProveRequest{Curve: "bn128", Source: src, Inputs: assignX(t, s, "bn128", 2)}

	// One job in flight (parked on the gate), three more queued.
	j1, err := s.enqueue(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker to pick up j1", func() bool {
		return s.met.inFlight.Load() == 1
	})
	queued := make([]*job, 3)
	for i := range queued {
		if queued[i], err = s.enqueue(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	repc := make(chan *DrainReport, 1)
	go func() {
		rep, err := s.Shutdown(context.Background())
		if err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		repc <- rep
	}()

	// Queued jobs are dropped immediately, before the gate opens.
	for i, j := range queued {
		select {
		case <-j.done:
			if !errors.Is(j.err, ErrDropped) {
				t.Errorf("queued[%d] err = %v, want ErrDropped", i, j.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("queued[%d] was not dropped", i)
		}
	}

	// New submissions are rejected while draining.
	if _, err := s.Prove(context.Background(), req); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain: err = %v, want ErrDraining", err)
	}

	// The in-flight job finishes once released, and the drain completes.
	close(gate)
	select {
	case <-j1.done:
		if j1.err != nil {
			t.Errorf("in-flight job failed: %v", j1.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight job did not finish")
	}
	rep := <-repc
	if rep.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", rep.Dropped)
	}
	if rep.Forced != 0 {
		t.Errorf("forced = %d, want 0", rep.Forced)
	}
	if rep.Drained != 1 {
		t.Errorf("drained = %d, want 1", rep.Drained)
	}
	if got := s.Stats().Service.Dropped; got != 3 {
		t.Errorf("stats dropped = %d, want 3", got)
	}
}

func TestForcedShutdownCancelsInFlight(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(4), WithSeed(6))
	s.Start()

	src := circuit.ExponentiateSource(2048)
	req := ProveRequest{Curve: "bn128", Source: src, Inputs: assignX(t, s, "bn128", 3)}
	// Warm the cache so the in-flight job below is all prove.
	if _, err := s.Prove(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	j, err := s.enqueue(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "job to start", func() bool {
		return s.met.inFlight.Load() == 1
	})

	// A nearly-expired drain deadline forces cancellation of the
	// in-flight prove; Shutdown must still return (no hung workers).
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded", err)
	}
	if rep.Forced != 1 {
		t.Errorf("forced = %d, want 1", rep.Forced)
	}
	select {
	case <-j.done:
		if !errors.Is(j.err, context.Canceled) {
			t.Errorf("forced job err = %v, want context.Canceled", j.err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("forced job never completed")
	}
}
