// Workload-aware scheduling: the serving-layer answer to the paper's
// scalability analysis (Figs. 6–7). Two levers are tuned at runtime from
// the observed workload instead of being fixed at boot:
//
//  1. Worker placement. Per-circuit arrival rates are tracked with
//     exponentially-decayed counters; circuits whose rate crosses a
//     threshold are classified hot and get dedicated workers fed from a
//     private queue, while cold circuits share the residual pool. A hot
//     circuit's jobs never wait behind a burst of cold one-off circuits
//     (each of which may pay a full compile+setup), which is what drags
//     hot p99 under mixed load. Reservation is work-conserving: a
//     reserved worker with an empty hot queue steals cold work, but cold
//     workers never serve hot queues — so the cold pool can shrink but a
//     configured floor of workers always remains cold-capable.
//
//  2. Thread split. The kernel thread budget B is divided between
//     intra-job parallelism and inter-job concurrency from live queue
//     depth: each job starting on a worker is granted
//     clamp(B/min(inflight+queued, workers), 1, B) kernel threads,
//     carried to the NTT/MSM kernels via parallel.WithThreadBudget. A
//     deep queue runs many jobs × few threads (throughput); an idle
//     service runs one job × the full budget (latency) — the
//     1×N-vs-N×1 trade-off the paper quantifies, chosen per job.
//
// The scheduler also keeps a decayed queue-drain-rate counter that the
// HTTP layer uses to derive Retry-After hints for queue_full and
// too_many_jobs from how fast the queue is actually emptying.
package provesvc

import (
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zkperf/internal/telemetry"
)

// WorkloadConfig tunes the workload-aware scheduler (WithWorkloadSched).
// The zero value of any field picks its default from defaultSched.
type WorkloadConfig struct {
	// Enabled turns on hot-circuit worker reservation and per-job thread
	// grants. Arrival/drain-rate accounting runs either way (it is cheap
	// and powers Retry-After hints and the sched stats block).
	Enabled bool
	// ThreadBudget is the kernel thread budget split across in-flight
	// jobs (default GOMAXPROCS). With the scheduler disabled each job
	// runs at the registry's static proveThreads instead.
	ThreadBudget int
	// HotMinRate is the decayed arrival rate (req/s) at or above which a
	// circuit is classified hot (default 0.5/s).
	HotMinRate float64
	// ReservePerHot is how many dedicated workers each hot circuit gets
	// (default 1).
	ReservePerHot int
	// MaxHot caps the number of simultaneously hot circuits (default:
	// as many as the worker pool can reserve for while keeping
	// minColdWorkers cold).
	MaxHot int

	// minColdWorkers is the floor of workers that always remain
	// unreserved (default 1) so cold circuits can never be starved
	// outright by reservations.
	minColdWorkers int
	// halfLife is the decay half-life of the arrival- and drain-rate
	// counters (default 10s): a circuit that stops arriving loses half
	// its score every halfLife.
	halfLife time.Duration
	// reclassify is the classifier cadence (default 500ms).
	reclassify time.Duration
	// hotQueueDepth bounds each hot circuit's private queue (default:
	// the service queue depth). A full hot queue sheds with queue_full,
	// same as the shared queue.
	hotQueueDepth int
}

// defaultSched is the scheduler half of the default table (see
// defaultConfig): on, hot at 0.5 req/s, one reserved worker per hot
// circuit.
var defaultSched = WorkloadConfig{
	Enabled:        true,
	HotMinRate:     0.5,
	ReservePerHot:  1,
	minColdWorkers: 1,
	halfLife:       10 * time.Second,
	reclassify:     500 * time.Millisecond,
}

// withDefaults fills zero fields from defaultSched and sizes what
// depends on the worker pool and the service queue.
func (wc WorkloadConfig) withDefaults(workers, queueDepth int) WorkloadConfig {
	def := defaultSched
	if wc.ThreadBudget < 1 {
		wc.ThreadBudget = runtime.GOMAXPROCS(0)
	}
	if wc.HotMinRate <= 0 {
		wc.HotMinRate = def.HotMinRate
	}
	if wc.ReservePerHot < 1 {
		wc.ReservePerHot = def.ReservePerHot
	}
	if wc.minColdWorkers < 1 {
		wc.minColdWorkers = def.minColdWorkers
	}
	wc.minColdWorkers = min(wc.minColdWorkers, workers)
	maxHot := (workers - wc.minColdWorkers) / wc.ReservePerHot
	if wc.MaxHot < 1 || wc.MaxHot > maxHot {
		wc.MaxHot = maxHot // may be 0: a tiny pool reserves nothing
	}
	if wc.halfLife <= 0 {
		wc.halfLife = def.halfLife
	}
	if wc.reclassify <= 0 {
		wc.reclassify = def.reclassify
	}
	if wc.hotQueueDepth < 1 {
		wc.hotQueueDepth = queueDepth
	}
	return wc
}

// rateCounter is an exponentially-decayed event counter: each event adds
// 1 to a score that halves every halfLife. At a steady event rate λ the
// score converges to λ·h/ln2, so rate() = score·ln2/h recovers λ.
type rateCounter struct {
	mu    sync.Mutex
	score float64
	last  time.Time
}

func (r *rateCounter) decayLocked(now time.Time, halfLife time.Duration) {
	if !r.last.IsZero() {
		if dt := now.Sub(r.last); dt > 0 {
			r.score *= math.Exp2(-float64(dt) / float64(halfLife))
		}
	}
	r.last = now
}

func (r *rateCounter) observe(now time.Time, halfLife time.Duration) {
	r.mu.Lock()
	r.decayLocked(now, halfLife)
	r.score++
	r.mu.Unlock()
}

func (r *rateCounter) rate(now time.Time, halfLife time.Duration) float64 {
	r.mu.Lock()
	r.decayLocked(now, halfLife)
	v := r.score
	r.mu.Unlock()
	return v * math.Ln2 / halfLife.Seconds()
}

// rateMap tracks one rateCounter per circuit, pruning entries whose
// score has decayed to noise so one-off circuits don't accumulate.
type rateMap struct {
	mu sync.Mutex
	m  map[CircuitKey]*rateCounter
}

func (rm *rateMap) observe(key CircuitKey, now time.Time, halfLife time.Duration) {
	rm.mu.Lock()
	if rm.m == nil {
		rm.m = make(map[CircuitKey]*rateCounter)
	}
	rc := rm.m[key]
	if rc == nil {
		rc = &rateCounter{}
		rm.m[key] = rc
	}
	rm.mu.Unlock()
	rc.observe(now, halfLife)
}

// rates snapshots every circuit's current rate, dropping counters whose
// score decayed below pruning noise.
func (rm *rateMap) rates(now time.Time, halfLife time.Duration) map[CircuitKey]float64 {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make(map[CircuitKey]float64, len(rm.m))
	for key, rc := range rm.m {
		rc.mu.Lock()
		rc.decayLocked(now, halfLife)
		score := rc.score
		rc.mu.Unlock()
		if score < 1e-3 {
			delete(rm.m, key)
			continue
		}
		out[key] = score * math.Ln2 / halfLife.Seconds()
	}
	return out
}

// hotQueue is one hot circuit's private job queue. demoted is guarded by
// scheduler.mu: once set, offer() routes the circuit cold again, so the
// demotion mover that drains residual jobs can terminate on empty.
type hotQueue struct {
	key     CircuitKey
	ch      chan *job
	rate    float64 // last classified rate, guarded by scheduler.mu
	demoted bool    // guarded by scheduler.mu
}

// workPlan is one epoch of worker assignments, swapped atomically on
// reclassification. changed is closed when the plan is superseded so
// workers blocked on a stale queue re-read their assignment.
type workPlan struct {
	epoch       uint64
	changed     chan struct{}
	hotByWorker []*hotQueue // len == workers; nil → cold worker
	hotQueues   []*hotQueue // distinct hot queues, rate-descending
	reserved    int
}

func (p *workPlan) hotFor(id int) *hotQueue {
	if id >= 0 && id < len(p.hotByWorker) {
		return p.hotByWorker[id]
	}
	return nil
}

// scheduler owns routing, classification and thread-splitting for one
// Service. It always exists — even disabled it books arrival and drain
// rates — but only an enabled scheduler reserves workers or grants
// per-job thread budgets.
type scheduler struct {
	svc     *Service
	cfg     WorkloadConfig
	workers int
	now     func() time.Time // injectable clock for tests

	arrivals   rateMap
	drain      rateCounter
	grantHist  telemetry.HistogramMetric // counts: threads per grant
	promotions atomic.Uint64
	demotions  atomic.Uint64

	mu   sync.Mutex // guards hot + routing sends + plan rebuilds
	hot  map[CircuitKey]*hotQueue
	plan atomic.Pointer[workPlan]

	stopOnce sync.Once
	stopCh   chan struct{}
	tickerWG sync.WaitGroup
	moverWG  sync.WaitGroup
}

func newScheduler(svc *Service, wc WorkloadConfig) *scheduler {
	sc := &scheduler{
		svc:     svc,
		cfg:     wc,
		workers: svc.cfg.workers,
		now:     time.Now,
		hot:     make(map[CircuitKey]*hotQueue),
		stopCh:  make(chan struct{}),
	}
	sc.plan.Store(&workPlan{
		changed:     make(chan struct{}),
		hotByWorker: make([]*hotQueue, sc.workers),
	})
	return sc
}

// start launches the reclassification ticker (enabled schedulers only).
func (sc *scheduler) start() {
	if !sc.cfg.Enabled {
		return
	}
	sc.tickerWG.Add(1)
	go func() {
		defer sc.tickerWG.Done()
		t := time.NewTicker(sc.cfg.reclassify)
		defer t.Stop()
		for {
			select {
			case <-sc.stopCh:
				return
			case <-t.C:
				sc.reclassify()
			}
		}
	}()
}

// stop halts the classifier; safe to call more than once. Movers are
// waited for separately (moverWait) because they need s.done closed to
// unblock their cold-queue sends.
func (sc *scheduler) stop() {
	sc.stopOnce.Do(func() { close(sc.stopCh) })
	sc.tickerWG.Wait()
}

func (sc *scheduler) moverWait() { sc.moverWG.Wait() }

// observeArrival books one offered request against the circuit's decayed
// rate counter. Called on every admission attempt, accepted or shed —
// rejections are still demand.
func (sc *scheduler) observeArrival(key CircuitKey) {
	sc.arrivals.observe(key, sc.now(), sc.cfg.halfLife)
}

// observeDrain books one job leaving a queue for a worker — the queue
// drain events that Retry-After hints are derived from.
func (sc *scheduler) observeDrain() {
	sc.drain.observe(sc.now(), sc.cfg.halfLife)
}

// offer routes an admitted job to its queue — the circuit's private hot
// queue when one exists, the shared cold queue otherwise — with a
// non-blocking send. false means the chosen queue was full and the
// caller sheds with ErrQueueFull. Routing and the send happen under
// sc.mu so no send can land on a hot queue after its demotion mover
// observed it (reclassify marks demoted under the same lock).
func (sc *scheduler) offer(j *job) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	ch := sc.svc.jobs
	if hq := sc.hot[j.key]; hq != nil && !hq.demoted {
		ch = hq.ch
	}
	select {
	case ch <- j:
		return true
	default:
		return false
	}
}

// queuedTotal is the live queued-but-not-started count across the cold
// queue and every hot queue in the current plan.
func (sc *scheduler) queuedTotal() int {
	n := len(sc.svc.jobs)
	for _, hq := range sc.plan.Load().hotQueues {
		n += len(hq.ch)
	}
	return n
}

// grantThreads picks the kernel thread budget for a job about to start:
// split the budget evenly over current demand (in-flight + queued,
// clamped to the worker count — queue beyond the pool can't run anyway).
// Returns 0 when the scheduler is disabled (callers then leave the
// engine's static thread count in force).
func (sc *scheduler) grantThreads() int {
	if !sc.cfg.Enabled {
		return 0
	}
	demand := int(sc.svc.met.inFlight.Load()) + sc.queuedTotal()
	if demand < 1 {
		demand = 1
	}
	if demand > sc.workers {
		demand = sc.workers
	}
	g := sc.cfg.ThreadBudget / demand
	if g < 1 {
		g = 1
	}
	sc.grantHist.ObserveCount(g)
	return g
}

// reclassify recomputes the hot set from current arrival rates and
// swaps in a new worker plan. Demoted circuits get a mover goroutine
// that migrates their residual queued jobs to the cold queue.
func (sc *scheduler) reclassify() {
	rates := sc.arrivals.rates(sc.now(), sc.cfg.halfLife)

	sc.mu.Lock()
	// Desired hot set: rate ≥ threshold, top MaxHot by rate. Ties break
	// on the key hash so the classification is deterministic. Hysteresis:
	// an already-hot circuit stays a candidate down to half the promote
	// threshold, so rates hovering near the boundary don't thrash the
	// plan (every swap costs a mover and a round of worker retargeting).
	type cand struct {
		key  CircuitKey
		rate float64
	}
	var cands []cand
	for key, r := range rates {
		min := sc.cfg.HotMinRate
		if _, isHot := sc.hot[key]; isHot {
			min /= 2
		}
		if r >= min {
			cands = append(cands, cand{key, r})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].rate != cands[j].rate {
			return cands[i].rate > cands[j].rate
		}
		return bytesLess(cands[i].key.SourceHash[:], cands[j].key.SourceHash[:])
	})
	if len(cands) > sc.cfg.MaxHot {
		cands = cands[:sc.cfg.MaxHot]
	}
	desired := make(map[CircuitKey]float64, len(cands))
	for _, c := range cands {
		desired[c.key] = c.rate
	}

	changed := false
	for key, hq := range sc.hot {
		if _, keep := desired[key]; !keep {
			// Demote under the same lock offer() routes under: after this
			// point no job can be sent to hq.ch, so the mover below owns
			// its drain to completion.
			hq.demoted = true
			delete(sc.hot, key)
			sc.demotions.Add(1)
			sc.moverWG.Add(1)
			go sc.drainDemoted(hq)
			changed = true
		}
	}
	for key, rate := range desired {
		if hq := sc.hot[key]; hq != nil {
			hq.rate = rate
			continue
		}
		sc.hot[key] = &hotQueue{key: key, ch: make(chan *job, sc.cfg.hotQueueDepth), rate: rate}
		sc.promotions.Add(1)
		changed = true
	}
	if changed {
		sc.rebuildPlanLocked()
	}
	sc.mu.Unlock()
}

// rebuildPlanLocked publishes a new worker-assignment epoch and wakes
// workers blocked under the old one. Caller holds sc.mu.
func (sc *scheduler) rebuildPlanLocked() {
	old := sc.plan.Load()
	plan := &workPlan{
		epoch:       old.epoch + 1,
		changed:     make(chan struct{}),
		hotByWorker: make([]*hotQueue, sc.workers),
	}
	queues := make([]*hotQueue, 0, len(sc.hot))
	for _, hq := range sc.hot {
		queues = append(queues, hq)
	}
	sort.Slice(queues, func(i, j int) bool {
		if queues[i].rate != queues[j].rate {
			return queues[i].rate > queues[j].rate
		}
		return bytesLess(queues[i].key.SourceHash[:], queues[j].key.SourceHash[:])
	})
	plan.hotQueues = queues
	// Reserve ReservePerHot workers per hot circuit, hottest first, never
	// dipping below the cold floor. withDefaults caps MaxHot so every hot
	// circuit gets at least one worker — a hot queue nobody reads would
	// strand jobs.
	maxReserved := sc.workers - sc.cfg.minColdWorkers
	w := 0
	for _, hq := range queues {
		for r := 0; r < sc.cfg.ReservePerHot && w < maxReserved; r++ {
			plan.hotByWorker[w] = hq
			w++
		}
	}
	plan.reserved = w
	sc.plan.Store(plan)
	close(old.changed) // wake workers parked on the stale plan
}

// drainDemoted migrates a demoted circuit's residual queued jobs to the
// cold queue. No new sends can land on hq.ch (offer checks demoted under
// sc.mu), so draining to empty terminates. A full cold queue blocks the
// mover until workers make room; a job whose deadline fires meanwhile
// fails like any queued expiry, and shutdown drops the rest.
func (sc *scheduler) drainDemoted(hq *hotQueue) {
	defer sc.moverWG.Done()
	s := sc.svc
	for {
		select {
		case j := <-hq.ch:
			select {
			case s.jobs <- j:
			case <-j.ctx.Done():
				s.breaker.release(j.key) // never ran
				s.fail(j, j.ctx.Err())
			case <-s.done:
				s.met.dropped.Add(1)
				s.breaker.release(j.key)
				j.finish(nil, ErrDropped)
			}
		default:
			return
		}
	}
}

// workerLoop is one worker's scheduling loop. A reserved worker serves
// only its hot queue — it idles until hot work arrives, so a hot job
// never queues behind a long cold job this worker picked up moments
// earlier; a cold worker only ever serves the shared queue, so hot bursts
// cannot starve cold circuits past the reservation cap. A plan swap
// closes the old plan's changed channel, bouncing blocked workers back to
// re-read their assignment.
func (sc *scheduler) workerLoop(id int) {
	s := sc.svc
	for {
		plan := sc.plan.Load()
		queue := s.jobs
		if hq := plan.hotFor(id); hq != nil {
			queue = hq.ch
		}
		select {
		case <-s.done:
			return
		case <-plan.changed:
		case j := <-queue:
			s.run(j)
		}
	}
}

// sweep discards every job still sitting in the cold queue or a live hot
// queue, failing each with ErrDropped; Shutdown calls it before and
// after the worker drain. Demoted queues are not swept here — their
// movers fully drain them (a closed s.done turns residual moves into
// drops) before moverWait returns.
func (sc *scheduler) sweep(rep *DrainReport) {
	s := sc.svc
	sc.mu.Lock()
	queues := make([]chan *job, 0, len(sc.hot)+1)
	queues = append(queues, s.jobs)
	for _, hq := range sc.hot {
		queues = append(queues, hq.ch)
	}
	sc.mu.Unlock()
	for _, ch := range queues {
		for {
			select {
			case j := <-ch:
				s.met.dropped.Add(1)
				if rep != nil {
					rep.Dropped++
				}
				s.breaker.release(j.key) // never ran: hand back its admission
				j.finish(nil, ErrDropped)
			default:
			}
			if len(ch) == 0 {
				break
			}
		}
	}
}

// retryAfterHint derives a Retry-After for queue-saturation sheds from
// the observed drain rate: with depth jobs queued and the queue draining
// at r jobs/s, a slot frees in about depth/r seconds. Returns false when
// no drain has been observed recently (callers fall back to a flat
// constant).
func (sc *scheduler) retryAfterHint() (time.Duration, bool) {
	rate := sc.drain.rate(sc.now(), sc.cfg.halfLife)
	if rate < 0.01 {
		return 0, false
	}
	depth := sc.queuedTotal()
	if depth < 1 {
		depth = 1
	}
	d := time.Duration(float64(depth) / rate * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d, true
}

// stats snapshots the sched block of /v1/stats.
func (sc *scheduler) stats() SchedStats {
	now := sc.now()
	plan := sc.plan.Load()
	st := SchedStats{
		Enabled:         sc.cfg.Enabled,
		ThreadBudget:    sc.cfg.ThreadBudget,
		Workers:         sc.workers,
		ReservedWorkers: plan.reserved,
		ColdWorkers:     sc.workers - plan.reserved,
		HotMinRate:      sc.cfg.HotMinRate,
		ColdQueueDepth:  len(sc.svc.jobs),
		Promotions:      sc.promotions.Load(),
		Demotions:       sc.demotions.Load(),
		DrainRatePerSec: sc.drain.rate(now, sc.cfg.halfLife),
		ThreadGrant:     sizeSummary(&sc.grantHist),
	}
	reservedFor := make(map[*hotQueue]int)
	for _, hq := range plan.hotByWorker {
		if hq != nil {
			reservedFor[hq]++
		}
	}
	for _, r := range sc.arrivals.rates(now, sc.cfg.halfLife) {
		st.ArrivalRatePerSec += r
	}
	for _, hq := range plan.hotQueues {
		sc.mu.Lock()
		rate := hq.rate
		sc.mu.Unlock()
		st.Hot = append(st.Hot, HotCircuit{
			Circuit:    hex.EncodeToString(hq.key.SourceHash[:8]),
			Backend:    hq.key.Backend,
			Curve:      hq.key.Curve,
			RatePerSec: rate,
			Reserved:   reservedFor[hq],
			QueueDepth: len(hq.ch),
		})
		st.HotQueueDepth += len(hq.ch)
	}
	st.HotCount = len(st.Hot)
	return st
}

func bytesLess(a, b []byte) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
