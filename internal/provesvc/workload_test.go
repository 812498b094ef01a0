package provesvc

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"zkperf/internal/circuit"
)

// synthetic circuit keys for classification tests that never prove.
func testKey(i int) CircuitKey {
	return CircuitKey{
		SourceHash: sha256.Sum256([]byte(fmt.Sprintf("workload-test-%d", i))),
		Curve:      "bn128",
		Backend:    "groth16",
	}
}

// TestSchedReservationFloor drives the classifier directly with an
// injected clock: however many circuits turn hot, dedicated-worker
// reservation never strands the cold pool at zero workers, and every
// hot queue has at least one worker assigned (a hot queue nobody reads
// would strand its jobs forever).
func TestSchedReservationFloor(t *testing.T) {
	s := New(WithWorkers(3), WithQueueDepth(8), WithWorkloadSched(WorkloadConfig{
		Enabled:    true,
		HotMinRate: 0.5,
		reclassify: time.Hour, // classification driven manually below
	}))
	sc := s.sched

	base := time.Now()
	cur := base
	sc.now = func() time.Time { return cur }

	// Five circuits all arriving hard — far more hot candidates than the
	// pool can reserve for.
	for round := 0; round < 200; round++ {
		for i := 0; i < 5; i++ {
			sc.observeArrival(testKey(i))
		}
	}
	sc.reclassify()

	plan := sc.plan.Load()
	if cold := sc.workers - plan.reserved; cold < sc.cfg.minColdWorkers {
		t.Fatalf("cold pool = %d workers, floor is %d", cold, sc.cfg.minColdWorkers)
	}
	if plan.reserved == 0 || len(plan.hotQueues) == 0 {
		t.Fatalf("expected hot circuits under heavy arrivals, plan reserved=%d hot=%d",
			plan.reserved, len(plan.hotQueues))
	}
	served := make(map[*hotQueue]bool)
	for _, hq := range plan.hotByWorker {
		if hq != nil {
			served[hq] = true
		}
	}
	for _, hq := range plan.hotQueues {
		if !served[hq] {
			t.Fatalf("hot circuit %x has a queue but no dedicated worker", hq.key.SourceHash[:4])
		}
	}
	if st := sc.stats(); st.ColdWorkers < sc.cfg.minColdWorkers || st.HotCount != len(plan.hotQueues) {
		t.Fatalf("stats disagree with plan: %+v", st)
	}
}

// TestSchedDemotionReleasesWorkers lets a hot set decay to silence and
// checks reclassification hands every reserved worker back to the cold
// pool.
func TestSchedDemotionReleasesWorkers(t *testing.T) {
	s := New(WithWorkers(4), WithQueueDepth(8), WithWorkloadSched(WorkloadConfig{
		Enabled:    true,
		HotMinRate: 0.5,
		halfLife:   10 * time.Second,
		reclassify: time.Hour,
	}))
	sc := s.sched

	base := time.Now()
	cur := base
	sc.now = func() time.Time { return cur }

	for round := 0; round < 200; round++ {
		sc.observeArrival(testKey(0))
		sc.observeArrival(testKey(1))
	}
	sc.reclassify()
	if plan := sc.plan.Load(); plan.reserved == 0 {
		t.Fatal("arrival burst did not reserve any workers")
	}
	hotBefore := len(sc.plan.Load().hotQueues)

	// Many half-lives of silence: the decayed rates drop below the
	// threshold and everything demotes.
	cur = base.Add(10 * time.Minute)
	sc.reclassify()
	plan := sc.plan.Load()
	if plan.reserved != 0 || len(plan.hotQueues) != 0 {
		t.Fatalf("after decay: reserved=%d hot=%d, want 0/0", plan.reserved, len(plan.hotQueues))
	}
	if got := sc.demotions.Load(); got < uint64(hotBefore) {
		t.Fatalf("demotions = %d, want >= %d", got, hotBefore)
	}
	sc.moverWG.Wait() // movers of the emptied queues must terminate
}

// TestSchedThreadGrantAccounting pins the budget split: grant =
// clamp(B / min(in-flight + queued, workers), 1, B).
func TestSchedThreadGrantAccounting(t *testing.T) {
	s := New(WithWorkers(4), WithQueueDepth(16), WithWorkloadSched(WorkloadConfig{
		Enabled:      true,
		ThreadBudget: 8,
		reclassify:   time.Hour,
	}))
	sc := s.sched

	cases := []struct {
		inFlight int64
		want     int
	}{
		{0, 8}, // idle: one job gets the whole budget
		{1, 8},
		{2, 4},
		{3, 2}, // integer split rounds down
		{4, 2},
		{9, 2}, // demand clamps at the worker count
	}
	for _, c := range cases {
		s.met.inFlight.Store(c.inFlight)
		if got := sc.grantThreads(); got != c.want {
			t.Errorf("grant(inFlight=%d) = %d, want %d", c.inFlight, got, c.want)
		}
	}
	s.met.inFlight.Store(0)

	// Queued jobs count toward demand too: 1 in flight + 3 queued on the
	// cold queue → demand 4 → grant 2.
	s.met.inFlight.Store(1)
	for i := 0; i < 3; i++ {
		s.jobs <- &job{done: make(chan struct{})}
	}
	if got := sc.grantThreads(); got != 2 {
		t.Errorf("grant(1 in flight + 3 queued) = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		<-s.jobs
	}
	s.met.inFlight.Store(0)

	// Disabled scheduler grants nothing — engines keep their static
	// thread count.
	s2 := New(WithWorkers(2), WithWorkloadSched(WorkloadConfig{}))
	if got := s2.sched.grantThreads(); got != 0 {
		t.Errorf("disabled scheduler grant = %d, want 0", got)
	}
}

// TestSchedHotQueueRouting checks offer() routes hot circuits to their
// private queue, sheds when that queue is full (instead of spilling into
// the cold queue and defeating isolation), and routes cold again after
// demotion.
func TestSchedHotQueueRouting(t *testing.T) {
	s := New(WithWorkers(2), WithQueueDepth(8), WithWorkloadSched(WorkloadConfig{
		Enabled:       true,
		HotMinRate:    0.5,
		reclassify:    time.Hour,
		hotQueueDepth: 1,
	}))
	sc := s.sched
	base := time.Now()
	cur := base
	sc.now = func() time.Time { return cur }

	key := testKey(0)
	for i := 0; i < 200; i++ {
		sc.observeArrival(key)
	}
	sc.reclassify()
	hq := sc.hot[key]
	if hq == nil {
		t.Fatal("circuit did not classify hot")
	}

	mk := func() *job {
		return &job{
			ctx: context.Background(), cancel: func() {}, stop: func() bool { return false },
			key: key, done: make(chan struct{}),
		}
	}
	if !sc.offer(mk()) {
		t.Fatal("first hot offer should land in the hot queue")
	}
	if len(hq.ch) != 1 || len(s.jobs) != 0 {
		t.Fatalf("hot job landed wrong: hot=%d cold=%d", len(hq.ch), len(s.jobs))
	}
	if sc.offer(mk()) {
		t.Fatal("hot queue full: offer must shed, not spill to cold")
	}

	// Demotion flips routing back to the cold queue atomically.
	cur = base.Add(10 * time.Minute)
	sc.reclassify()
	if !sc.offer(mk()) {
		t.Fatal("cold offer after demotion should land in the shared queue")
	}
	if len(s.jobs) == 0 {
		t.Fatal("post-demotion job should be on the cold queue")
	}
	sc.moverWG.Wait()
	// The mover migrated the stranded hot job to the cold queue.
	if len(s.jobs) != 2 {
		t.Fatalf("cold queue = %d jobs, want 2 (offer + migrated)", len(s.jobs))
	}
}

// TestSchedMixedHotColdLoad runs a real mixed workload end to end under
// the race detector: a hot circuit hammered from many goroutines while
// cold one-off circuits trickle, across several reclassification cycles,
// then a clean shutdown. Every request must complete, the classifier
// must promote the hot circuit, and thread grants must be booked.
func TestSchedMixedHotColdLoad(t *testing.T) {
	s := New(WithWorkers(4), WithQueueDepth(64), WithSeed(7),
		WithWorkloadSched(WorkloadConfig{
			Enabled:    true,
			HotMinRate: 0.2,
			halfLife:   2 * time.Second,
			reclassify: 20 * time.Millisecond,
		}))
	s.Start()
	defer s.Shutdown(context.Background())

	hotSrc := circuit.ExponentiateSource(16)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				_, err := s.Prove(context.Background(), ProveRequest{
					Source: hotSrc, Inputs: assignX(t, s, "bn128", 2),
				})
				if err != nil {
					errs <- fmt.Errorf("hot prove: %w", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				_, err := s.Prove(context.Background(), ProveRequest{
					Source: circuit.ExponentiateSource(17 + g*4 + i), Inputs: assignX(t, s, "bn128", 3),
				})
				if err != nil {
					errs <- fmt.Errorf("cold prove: %w", err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats().Sched
	if !st.Enabled {
		t.Fatal("sched block should report enabled")
	}
	if st.Promotions == 0 {
		t.Errorf("hot circuit was never promoted: %+v", st)
	}
	if st.ThreadGrant.Count == 0 {
		t.Error("no thread grants booked under load")
	}
	if st.DrainRatePerSec <= 0 {
		t.Error("drain rate should be positive right after load")
	}
	if hint, ok := s.sched.retryAfterHint(); !ok || hint < time.Second || hint > 30*time.Second {
		t.Errorf("retryAfterHint = %v/%v, want a clamped positive hint", hint, ok)
	}
	if s.Stats().Service.Completed != 40 {
		t.Errorf("completed = %d, want 40", s.Stats().Service.Completed)
	}
}
