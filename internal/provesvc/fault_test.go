package provesvc

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkperf/internal/circuit"
	"zkperf/internal/curve"
	"zkperf/internal/faultinject"
)

// The robustness suite: fault injection drives the failure paths the
// happy-path tests never reach — panics mid-prove, torn artifact files,
// breaker trips, expiring deadlines — and asserts the service degrades
// one job at a time instead of one process at a time.

// zkaFiles globs the artifact dir for files with the given suffix.
func zkaFiles(t *testing.T, dir, suffix string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// TestPanicMidProveFailsOnlyThatJob: an armed panic inside the prove
// stage must become that one job's ErrInternal, leave the worker alive
// for the next job, and show up in the panic counters.
func TestPanicMidProveFailsOnlyThatJob(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(21))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(16)
	in := assignX(t, s, "bn128", 3)

	ctx := faultinject.WithFault(context.Background(), faultinject.PointBackendProve,
		faultinject.Fault{Kind: faultinject.KindPanic})
	if _, err := s.Prove(ctx, ProveRequest{Source: src, Inputs: in}); !errors.Is(err, ErrInternal) {
		t.Fatalf("panicked prove returned %v, want ErrInternal", err)
	}

	// The single worker must have survived the panic to serve this.
	res, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in})
	if err != nil {
		t.Fatalf("prove after panic: %v", err)
	}
	ok, err := s.Verify(context.Background(), VerifyRequest{Source: src, Proof: res.Proof, Public: res.Public})
	if err != nil || !ok {
		t.Fatalf("verify after panic: ok=%v err=%v", ok, err)
	}

	snap := s.Stats()
	if snap.Service.Panics != 1 {
		t.Errorf("service panics = %d, want 1", snap.Service.Panics)
	}
	if got := snap.Backends["groth16"].Panics; got != 1 {
		t.Errorf("groth16 panics = %d, want 1", got)
	}
	if snap.Service.Completed != 1 || snap.Service.Failed != 1 {
		t.Errorf("completed/failed = %d/%d, want 1/1", snap.Service.Completed, snap.Service.Failed)
	}
}

// TestArtifactRestartSkipsSetup: the ISSUE's headline artifact property —
// a second service over the same directory serves the circuit without
// re-running trusted setup.
func TestArtifactRestartSkipsSetup(t *testing.T) {
	dir := t.TempDir()
	src := circuit.ExponentiateSource(16)

	base := curve.ReadTableStats()

	s1 := New(WithWorkers(1), WithSeed(31), WithArtifactDir(dir))
	if err := s1.ArtifactDirError(); err != nil {
		t.Fatal(err)
	}
	s1.Start()
	if _, err := s1.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s1, "bn128", 3)}); err != nil {
		t.Fatalf("first prove: %v", err)
	}
	if got := s1.Registry().Setups(); got != 1 {
		t.Fatalf("first service setups = %d, want 1", got)
	}
	st1 := s1.Registry().ArtifactStats()
	if st1.DiskWrites != 1 || st1.WriteErrors != 0 {
		t.Fatalf("first service artifact stats = %+v, want 1 write", st1)
	}
	// The cold boot built and persisted the generator tables (G1+G2) for
	// the circuit's curve. (Table counters are process-wide; compare
	// against the pre-test snapshot.)
	if got := st1.TableBuilds - base.Builds; got != 2 {
		t.Fatalf("cold-boot table builds = %d, want 2", got)
	}
	if got := st1.TableWrites - base.DiskWrites; got != 2 {
		t.Fatalf("cold-boot table writes = %d, want 2", got)
	}
	s1.Shutdown(context.Background())
	if got := zkaFiles(t, dir, ".zka"); len(got) != 1 {
		t.Fatalf("artifact files on disk = %v, want exactly 1", got)
	}

	// "Restart": a fresh service over the same directory.
	s2 := New(WithWorkers(1), WithSeed(99), WithArtifactDir(dir))
	s2.Start()
	defer s2.Shutdown(context.Background())
	res, err := s2.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s2, "bn128", 3)})
	if err != nil {
		t.Fatalf("prove after restart: %v", err)
	}
	if ok, err := s2.Verify(context.Background(), VerifyRequest{Source: src, Proof: res.Proof, Public: res.Public}); err != nil || !ok {
		t.Fatalf("verify after restart: ok=%v err=%v", ok, err)
	}
	if got := s2.Registry().Setups(); got != 0 {
		t.Errorf("setups after restart = %d, want 0 (keys must come from disk)", got)
	}
	st2 := s2.Registry().ArtifactStats()
	if st2.DiskLoads != 1 || st2.Quarantined != 0 {
		t.Errorf("artifact stats after restart = %+v, want 1 disk load, 0 quarantined", st2)
	}
	// Warm boot: zero table rebuilds, both tables served from disk.
	if got := st2.TableBuilds - st1.TableBuilds; got != 0 {
		t.Errorf("warm-boot table builds = %d, want 0 (tables must come from disk)", got)
	}
	if got := st2.TableLoads - st1.TableLoads; got != 2 {
		t.Errorf("warm-boot table loads = %d, want 2", got)
	}
}

// TestArtifactCorruptionQuarantined: a bit-flipped artifact and a
// truncated artifact are both quarantined (renamed *.corrupt, counted)
// and the service falls back to a fresh setup — corruption is never a
// panic and never a served error.
func TestArtifactCorruptionQuarantined(t *testing.T) {
	dir := t.TempDir()
	src := circuit.ExponentiateSource(16)

	seed := New(WithWorkers(1), WithSeed(41), WithArtifactDir(dir))
	seed.Start()
	if _, err := seed.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, seed, "bn128", 3)}); err != nil {
		t.Fatalf("seeding prove: %v", err)
	}
	seed.Shutdown(context.Background())

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		files := zkaFiles(t, dir, ".zka")
		if len(files) != 1 {
			t.Fatalf("%s: artifact files = %v, want 1", name, files)
		}
		raw, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}

		s := New(WithWorkers(1), WithSeed(43), WithArtifactDir(dir))
		s.Start()
		defer s.Shutdown(context.Background())
		// The startup scan must already have quarantined the file.
		if st := s.Registry().ArtifactStats(); st.Quarantined != 1 {
			t.Errorf("%s: quarantined = %d, want 1 from the startup scan", name, st.Quarantined)
		}
		if left := zkaFiles(t, dir, ".zka"); len(left) != 0 {
			t.Errorf("%s: corrupt file still in cache namespace: %v", name, left)
		}
		res, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s, "bn128", 3)})
		if err != nil {
			t.Fatalf("%s: prove after corruption: %v", name, err)
		}
		if ok, err := s.Verify(context.Background(), VerifyRequest{Source: src, Proof: res.Proof, Public: res.Public}); err != nil || !ok {
			t.Fatalf("%s: verify after corruption: ok=%v err=%v", name, ok, err)
		}
		// A real setup ran, and its result was re-persisted for next time.
		if got := s.Registry().Setups(); got != 1 {
			t.Errorf("%s: setups = %d, want 1 (fresh setup after quarantine)", name, got)
		}
		if st := s.Registry().ArtifactStats(); st.DiskWrites != 1 {
			t.Errorf("%s: disk writes = %d, want 1 (re-persist)", name, st.DiskWrites)
		}
	}

	corrupt("bit-flip", func(raw []byte) []byte {
		raw[len(raw)-1] ^= 0x01 // flip a payload bit: checksum mismatch
		return raw
	})
	// The previous corrupt() run re-wrote a good artifact; now tear it.
	corrupt("truncate", func(raw []byte) []byte {
		return raw[:len(raw)/2]
	})

	// The corpse is preserved for inspection. (Both corruptions hit the
	// same circuit key, so the second quarantine renames over the first —
	// one *.corrupt per key, holding the most recent corpse.)
	if corpses := zkaFiles(t, dir, ".corrupt"); len(corpses) != 1 {
		t.Errorf("quarantined corpses = %v, want 1", corpses)
	}
}

// TestArtifactWriteFaultsAreClean: a partial write (process dies with
// the temp file half-written) and a failure in the rename window both
// leave the cache namespace clean — no torn *.zka, the proving job
// unaffected — and a restart sweeps the debris and re-persists.
func TestArtifactWriteFaultsAreClean(t *testing.T) {
	src := circuit.ExponentiateSource(16)

	cases := []struct {
		name  string
		fault func() func()
	}{
		{"partial-write", func() func() {
			return faultinject.Arm(faultinject.PointArtifactWrite,
				faultinject.Fault{Kind: faultinject.KindPartialWrite, Bytes: 16})
		}},
		{"rename-window", func() func() {
			return faultinject.Arm(faultinject.PointArtifactRename,
				faultinject.Fault{Kind: faultinject.KindError})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			disarm := tc.fault()
			t.Cleanup(faultinject.Reset)

			s1 := New(WithWorkers(1), WithSeed(51), WithArtifactDir(dir))
			s1.Start()
			if _, err := s1.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s1, "bn128", 3)}); err != nil {
				t.Fatalf("prove with %s fault: %v (persistence must never fail the job)", tc.name, err)
			}
			st := s1.Registry().ArtifactStats()
			if st.WriteErrors != 1 || st.DiskWrites != 0 {
				t.Errorf("artifact stats = %+v, want 1 write error, 0 writes", st)
			}
			s1.Shutdown(context.Background())
			if left := zkaFiles(t, dir, ".zka"); len(left) != 0 {
				t.Fatalf("torn write produced a *.zka: %v", left)
			}
			// A failed write removes its own temp file; only a process
			// that dies mid-write leaves one, so plant that debris.
			if left := zkaFiles(t, dir, ".tmp"); len(left) != 0 {
				t.Fatalf("failed write left its temp file behind: %v", left)
			}
			stray := filepath.Join(dir, "0123456789ab.bn128.groth16.zka.1234567.tmp")
			if err := os.WriteFile(stray, []byte("ZKARTv1\ntorn"), 0o600); err != nil {
				t.Fatal(err)
			}

			// Restart with the fault gone: debris swept, setup re-runs,
			// and this time the artifact persists.
			disarm()
			s2 := New(WithWorkers(1), WithSeed(52), WithArtifactDir(dir))
			s2.Start()
			defer s2.Shutdown(context.Background())
			if left := zkaFiles(t, dir, ".tmp"); len(left) != 0 {
				t.Errorf("startup scan left temp files: %v", left)
			}
			if _, err := s2.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s2, "bn128", 3)}); err != nil {
				t.Fatalf("prove after restart: %v", err)
			}
			if got := s2.Registry().Setups(); got != 1 {
				t.Errorf("setups after torn write = %d, want 1", got)
			}
			if got := zkaFiles(t, dir, ".zka"); len(got) != 1 {
				t.Errorf("artifacts after clean rewrite = %v, want 1", got)
			}
		})
	}
}

// TestArtifactDirSyncFailureCounted: a directory fsync that fails after
// the rename is booked as a write error instead of being swallowed — and
// since the file did land, the next boot still loads it.
func TestArtifactDirSyncFailureCounted(t *testing.T) {
	dir := t.TempDir()
	src := circuit.ExponentiateSource(16)
	disarm := faultinject.Arm(faultinject.PointDirSync, faultinject.Fault{Kind: faultinject.KindError})
	t.Cleanup(faultinject.Reset)

	tables := curve.ReadTableStats()
	s1 := New(WithWorkers(1), WithSeed(53), WithArtifactDir(dir))
	s1.Start()
	if _, err := s1.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s1, "bn128", 3)}); err != nil {
		t.Fatalf("prove with a failing directory fsync: %v (persistence must never fail the job)", err)
	}
	if st := s1.Registry().ArtifactStats(); st.WriteErrors != 1 || st.DiskWrites != 0 {
		t.Errorf("artifact stats = %+v, want the failed fsync booked as 1 write error", st)
	}
	if got := curve.ReadTableStats().WriteErrors - tables.WriteErrors; got != 2 {
		t.Errorf("table write errors = %d, want 2 (G1 and G2)", got)
	}
	s1.Shutdown(context.Background())

	disarm()
	s2 := New(WithWorkers(1), WithSeed(54), WithArtifactDir(dir))
	s2.Start()
	defer s2.Shutdown(context.Background())
	if _, err := s2.Prove(context.Background(), ProveRequest{Source: src, Inputs: assignX(t, s2, "bn128", 3)}); err != nil {
		t.Fatalf("prove after restart: %v", err)
	}
	if st := s2.Registry().ArtifactStats(); st.DiskLoads != 1 || st.Quarantined != 0 || s2.Registry().Setups() != 0 {
		t.Errorf("after restart: stats %+v setups %d, want the renamed artifact loaded from disk", st, s2.Registry().Setups())
	}
}

// TestBreakerStateMachine walks closed → open → half-open → open (probe
// failure) → half-open → closed (probe success) on one circuit.
func TestBreakerStateMachine(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	s := New(WithWorkers(1), WithSeed(61), WithBreaker(2, cooldown))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(16)
	in := assignX(t, s, "bn128", 3)
	poisoned := faultinject.WithFault(context.Background(), faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindError})

	// Two consecutive failures reach the threshold and trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := s.Prove(poisoned, ProveRequest{Source: src, Inputs: in}); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("poisoned prove %d: %v, want injected error", i, err)
		}
	}
	if br := s.Stats().Breaker; br.Open != 1 || br.Trips != 1 {
		t.Fatalf("after threshold: breaker = %+v, want open=1 trips=1", br)
	}

	// Open: shed instantly, without consuming a worker.
	if _, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker returned %v, want ErrCircuitOpen", err)
	}

	// Half-open after the cooldown: the probe is admitted, fails, and the
	// breaker re-opens for another full cooldown.
	time.Sleep(2 * cooldown)
	if _, err := s.Prove(poisoned, ProveRequest{Source: src, Inputs: in}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("failing probe returned %v, want injected error", err)
	}
	if _, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("re-opened breaker returned %v, want ErrCircuitOpen", err)
	}
	if br := s.Stats().Breaker; br.Trips != 2 || br.Shed != 2 {
		t.Fatalf("after failed probe: breaker = %+v, want trips=2 shed=2", br)
	}

	// Half-open again: a healthy probe closes the breaker for good.
	time.Sleep(2 * cooldown)
	if _, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in}); err != nil {
		t.Fatalf("healthy probe: %v", err)
	}
	if _, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in}); err != nil {
		t.Fatalf("prove after recovery: %v", err)
	}
	if br := s.Stats().Breaker; br.Open != 0 {
		t.Fatalf("after recovery: breaker = %+v, want open=0", br)
	}
}

// TestBreakerPerCircuitIsolation: one poisoned circuit tripping its
// breaker must not shed a healthy circuit on the same service.
func TestBreakerPerCircuitIsolation(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(71), WithBreaker(1, time.Minute))
	s.Start()
	defer s.Shutdown(context.Background())

	bad := circuit.ExponentiateSource(8)
	good := circuit.ExponentiateSource(16)
	in := assignX(t, s, "bn128", 3)

	poisoned := faultinject.WithFault(context.Background(), faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindError})
	if _, err := s.Prove(poisoned, ProveRequest{Source: bad, Inputs: in}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("poisoned prove: %v", err)
	}
	if _, err := s.Prove(context.Background(), ProveRequest{Source: bad, Inputs: in}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("tripped circuit returned %v, want ErrCircuitOpen", err)
	}
	// The healthy circuit is untouched by its neighbour's breaker.
	if _, err := s.Prove(context.Background(), ProveRequest{Source: good, Inputs: in}); err != nil {
		t.Fatalf("healthy circuit shed alongside poisoned one: %v", err)
	}
	if br := s.Stats().Breaker; br.Open != 1 {
		t.Errorf("breaker = %+v, want exactly the poisoned circuit open", br)
	}
}

// TestBreakerProbeReleasedOnShed: a half-open probe that wins breaker
// admission but is then shed at the queue (ErrQueueFull) must hand its
// probe slot back. A leaked slot would leave the circuit answering
// circuit_open forever — precisely under the overload that trips
// breakers in the first place.
func TestBreakerProbeReleasedOnShed(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	var gated atomic.Bool
	gate := make(chan struct{})
	s := New(WithWorkers(1), WithQueueDepth(1), WithSeed(91), WithBreaker(1, cooldown))
	s.hookJobStart = func() {
		if gated.Load() {
			<-gate
		}
	}
	s.Start()
	defer s.Shutdown(context.Background())

	bad := circuit.ExponentiateSource(8)
	other := circuit.ExponentiateSource(16)
	in := assignX(t, s, "bn128", 3)

	// Trip the breaker for `bad` (threshold 1), then let the cooldown
	// lapse so the next admission for it is the half-open probe.
	poisoned := faultinject.WithFault(context.Background(), faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindError})
	if _, err := s.Prove(poisoned, ProveRequest{Source: bad, Inputs: in}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("poisoned prove: %v", err)
	}
	time.Sleep(2 * cooldown)

	// Saturate the service with a healthy circuit: the lone worker parks
	// on the gate and the lone queue slot fills behind it.
	gated.Store(true)
	j1, err := s.enqueue(context.Background(), ProveRequest{Source: other, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker to pick up j1", func() bool {
		return s.met.inFlight.Load() == 1
	})
	j2, err := s.enqueue(context.Background(), ProveRequest{Source: other, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}

	// The probe wins breaker admission but loses the queue slot.
	if _, err := s.Prove(context.Background(), ProveRequest{Source: bad, Inputs: in}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("probe during saturation: %v, want ErrQueueFull", err)
	}

	gated.Store(false)
	close(gate)
	for i, j := range []*job{j1, j2} {
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("j%d did not finish after gate opened", i+1)
		}
	}

	// The queue rejection must have released the probe slot: this prove
	// is admitted as the next probe and closes the breaker.
	if _, err := s.Prove(context.Background(), ProveRequest{Source: bad, Inputs: in}); err != nil {
		t.Fatalf("probe after shed: %v (leaked half-open probe slot?)", err)
	}
	if br := s.Stats().Breaker; br.Open != 0 {
		t.Errorf("breaker = %+v, want open=0 after successful probe", br)
	}
}

// TestQueuedDeadlineExpiryNotABreakerFailure: a job whose deadline fires
// while it is still queued never attempted a prove, so it must not count
// toward its circuit's breaker — queue congestion plus tight client
// timeouts would otherwise trip breakers on perfectly healthy circuits.
func TestQueuedDeadlineExpiryNotABreakerFailure(t *testing.T) {
	var gated atomic.Bool
	gated.Store(true)
	gate := make(chan struct{})
	s := New(WithWorkers(1), WithQueueDepth(1), WithSeed(93), WithBreaker(1, time.Minute))
	s.hookJobStart = func() {
		if gated.Load() {
			<-gate
		}
	}
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(16)
	in := assignX(t, s, "bn128", 3)

	// j1 parks the worker; j2 waits in the queue with a deadline that
	// expires before the worker frees up.
	j1, err := s.enqueue(context.Background(), ProveRequest{Source: src, Inputs: in})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker to pick up j1", func() bool {
		return s.met.inFlight.Load() == 1
	})
	j2, err := s.enqueue(context.Background(), ProveRequest{Source: src, Inputs: in, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.ctx.Done()
	gated.Store(false)
	close(gate)

	for i, j := range []*job{j1, j2} {
		select {
		case <-j.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("j%d did not finish after gate opened", i+1)
		}
	}
	if j1.err != nil {
		t.Fatalf("j1: %v", j1.err)
	}
	if !errors.Is(j2.err, context.DeadlineExceeded) {
		t.Fatalf("j2: err = %v, want DeadlineExceeded", j2.err)
	}

	// Threshold is 1: had the queued expiry counted as a failure, this
	// circuit would now be shedding circuit_open.
	if _, err := s.Prove(context.Background(), ProveRequest{Source: src, Inputs: in}); err != nil {
		t.Fatalf("prove after queued expiry: %v (expiry counted as breaker failure?)", err)
	}
	snap := s.Stats()
	if br := snap.Breaker; br.Open != 0 || br.Trips != 0 {
		t.Errorf("breaker = %+v, want no open circuits and no trips", br)
	}
	// The expiry is still booked once, as a timeout inside the cancelled
	// bucket — not as a failure.
	if snap.Service.Timeouts != 1 || snap.Service.Cancelled != 1 || snap.Service.Failed != 0 {
		t.Errorf("stats = timeouts %d cancelled %d failed %d, want 1/1/0",
			snap.Service.Timeouts, snap.Service.Cancelled, snap.Service.Failed)
	}
}

// TestDeadlineExceeded: a per-request timeout_ms expiring mid-job
// surfaces context.DeadlineExceeded and lands in the timeout counters
// (inside the cancelled bucket, not the failed one).
func TestDeadlineExceeded(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(81))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(16)
	// The delay fault honours ctx cancellation, so the job blocks until
	// its own deadline fires — a stand-in for a stuck prove kernel.
	slow := faultinject.WithFault(context.Background(), faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindDelay, Delay: 30 * time.Second})
	_, err := s.Prove(slow, ProveRequest{Source: src, Inputs: assignX(t, s, "bn128", 3), Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("prove returned %v, want DeadlineExceeded", err)
	}

	snap := s.Stats()
	if snap.Service.Timeouts != 1 || snap.Service.Cancelled != 1 || snap.Service.Failed != 0 {
		t.Errorf("timeouts/cancelled/failed = %d/%d/%d, want 1/1/0",
			snap.Service.Timeouts, snap.Service.Cancelled, snap.Service.Failed)
	}
	if got := snap.Backends["groth16"].Timeouts; got != 1 {
		t.Errorf("groth16 timeouts = %d, want 1", got)
	}
}

// TestMaxTimeoutClampsUnboundedRequests: with WithMaxTimeout set, a
// request asking for no deadline (or an oversized one) still runs under
// the service ceiling.
func TestMaxTimeoutClampsUnboundedRequests(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(91), WithMaxTimeout(60*time.Millisecond))
	s.Start()
	defer s.Shutdown(context.Background())

	src := circuit.ExponentiateSource(16)
	slow := faultinject.WithFault(context.Background(), faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindDelay, Delay: 30 * time.Second})

	for _, timeout := range []time.Duration{0, time.Hour} {
		start := time.Now()
		_, err := s.Prove(slow, ProveRequest{Source: src, Inputs: assignX(t, s, "bn128", 3), Timeout: timeout})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timeout=%v: got %v, want DeadlineExceeded from the clamp", timeout, err)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("timeout=%v: clamp did not apply (took %v)", timeout, elapsed)
		}
	}
	if got := s.Stats().Service.Timeouts; got != 2 {
		t.Errorf("timeouts = %d, want 2", got)
	}
}

// TestDrainWithExpiringDeadline: satellite (d) — a job whose deadline
// expires while the service is draining is counted exactly once, as a
// cancellation (timeout), never as a failure; healthz flips 200 → 503
// the moment the drain starts.
func TestDrainWithExpiringDeadline(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(4), WithSeed(101))
	gate := make(chan struct{})
	s.hookJobStart = func() { <-gate }
	s.Start()
	h := NewHandler(s)

	healthz := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
		return rec.Code
	}
	if got := healthz(); got != http.StatusOK {
		t.Fatalf("healthz before drain = %d, want 200", got)
	}

	src := circuit.ExponentiateSource(16)
	var wg sync.WaitGroup
	var jobErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, jobErr = s.Prove(context.Background(),
			ProveRequest{Source: src, Inputs: assignX(t, s, "bn128", 3), Timeout: 100 * time.Millisecond})
	}()
	waitFor(t, 5*time.Second, "job in flight", func() bool { return s.Stats().Queue.InFlight == 1 })

	reportCh := make(chan *DrainReport, 1)
	go func() {
		rep, _ := s.Shutdown(context.Background())
		reportCh <- rep
	}()
	waitFor(t, 5*time.Second, "drain to start", func() bool { return s.Stats().Service.Draining })
	if got := healthz(); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", got)
	}

	// Hold the worker at the gate until the job's deadline has expired,
	// then let the drain observe the timed-out job.
	time.Sleep(250 * time.Millisecond)
	close(gate)
	wg.Wait()
	rep := <-reportCh

	if !errors.Is(jobErr, context.DeadlineExceeded) {
		t.Fatalf("job during drain returned %v, want DeadlineExceeded", jobErr)
	}
	if rep.Drained != 1 || rep.Forced != 0 {
		t.Errorf("drain report = %+v, want the job drained, not forced", rep)
	}
	snap := s.Stats()
	if snap.Service.Cancelled != 1 || snap.Service.Timeouts != 1 || snap.Service.Failed != 0 {
		t.Errorf("cancelled/timeouts/failed = %d/%d/%d, want 1/1/0 (counted once, as a timeout)",
			snap.Service.Cancelled, snap.Service.Timeouts, snap.Service.Failed)
	}
}

// TestHTTPErrorCodesRoundTrip drives every new error code through the
// /v1 envelope and checks each lands — with the right status and
// retryability — in the /v1/stats errors map and the /v1/metrics text.
func TestHTTPErrorCodesRoundTrip(t *testing.T) {
	s := New(WithWorkers(1), WithSeed(111),
		WithBreaker(1, time.Minute), WithMaxBodyBytes(4096))
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	srcA := circuit.ExponentiateSource(8)
	srcB := circuit.ExponentiateSource(16)

	// internal_error: a panic mid-prove becomes a 500 envelope.
	disarmPanic := faultinject.Arm(faultinject.PointBackendProve,
		faultinject.Fault{Kind: faultinject.KindPanic, Count: 1})
	t.Cleanup(faultinject.Reset)
	resp, out := postJSON(t, ts.URL+"/v1/prove", map[string]any{
		"circuit": srcA, "inputs": map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked prove status = %d, body %v", resp.StatusCode, out)
	}
	wantEnvelope(t, out, "internal_error", false)
	disarmPanic()

	// circuit_open: threshold 1, so that panic tripped circuit A's breaker.
	resp, out = postJSON(t, ts.URL+"/v1/prove", map[string]any{
		"circuit": srcA, "inputs": map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tripped circuit status = %d, body %v", resp.StatusCode, out)
	}
	wantEnvelope(t, out, "circuit_open", true)

	// deadline_exceeded: a stuck job on circuit B against timeout_ms.
	disarmDelay := faultinject.Arm(faultinject.PointWorkerRun,
		faultinject.Fault{Kind: faultinject.KindDelay, Delay: 30 * time.Second, Count: 1})
	resp, out = postJSON(t, ts.URL+"/v1/prove", map[string]any{
		"circuit": srcB, "inputs": map[string]string{"x": "3"}, "timeout_ms": 50,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out prove status = %d, body %v", resp.StatusCode, out)
	}
	wantEnvelope(t, out, "deadline_exceeded", true)
	disarmDelay()

	// body_too_large: a valid JSON body that blows the byte cap.
	resp, out = postJSON(t, ts.URL+"/v1/prove", map[string]any{
		"circuit": strings.Repeat("x", 8192),
	})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, body %v", resp.StatusCode, out)
	}
	wantEnvelope(t, out, "body_too_large", false)

	// Every served envelope shows up in the stats errors map.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, code := range []string{"internal_error", "circuit_open", "deadline_exceeded", "body_too_large"} {
		if snap.Errors[code] != 1 {
			t.Errorf("stats errors[%q] = %d, want 1 (map %v)", code, snap.Errors[code], snap.Errors)
		}
	}
	if snap.Service.Panics != 1 || snap.Service.Timeouts != 1 {
		t.Errorf("panics/timeouts = %d/%d, want 1/1", snap.Service.Panics, snap.Service.Timeouts)
	}
	if snap.Breaker.Trips < 1 || snap.Breaker.Shed < 1 {
		t.Errorf("breaker = %+v, want at least one trip and one shed", snap.Breaker)
	}

	// And in the Prometheus text: per-code error counters plus the
	// robustness gauges.
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(rawBody)
	for _, want := range []string{
		`zkp_http_errors_total{code="internal_error"}`,
		`zkp_http_errors_total{code="circuit_open"}`,
		`zkp_http_errors_total{code="deadline_exceeded"}`,
		`zkp_http_errors_total{code="body_too_large"}`,
		"zkp_panics_total 1",
		"zkp_timeouts_total 1",
		"zkp_breaker_trips_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
