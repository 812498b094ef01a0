// Package provesvc is the serving layer of the repository: a long-lived,
// embeddable proving service that amortizes the expensive front half of
// the zk-SNARK workflow (compile + trusted setup) across many prove and
// verify requests — the deployment shape the paper's stage breakdown
// argues for, where setup dominates one-shot runs but vanishes per-proof
// once cached.
//
// The service is a bounded job queue in front of a fixed worker pool. A
// circuit Registry deduplicates concurrent setups and caches artifacts
// per (source, curve, backend); saturation is shed explicitly with
// ErrQueueFull (HTTP 429) instead of queueing unboundedly; every job
// carries a context so client cancellations and deadlines propagate into
// the MSM/NTT kernels of whichever backend runs it; and Shutdown drains
// in-flight work with a deadline and reports what was dropped.
//
// Observability is always on by default: each job gets a telemetry.Probe
// (stage spans plus the NTT/MSM/pairing kernel sub-spans the kernels
// record), and finished requests fold into the process-wide metrics
// registry served at GET /v1/metrics. WithTelemetry(nil) disables all of
// it at one branch per hook.
package provesvc

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zkperf/internal/backend"
	"zkperf/internal/faultinject"
	"zkperf/internal/ff"
	"zkperf/internal/httpx"
	"zkperf/internal/jobs"
	"zkperf/internal/parallel"
	"zkperf/internal/telemetry"
	"zkperf/internal/witness"
)

var (
	// ErrQueueFull is returned when the job queue is saturated; the HTTP
	// layer maps it to 429 Too Many Requests.
	ErrQueueFull = errors.New("provesvc: job queue full")
	// ErrDraining is returned for submissions after Shutdown started; the
	// HTTP layer maps it to 503 Service Unavailable.
	ErrDraining = errors.New("provesvc: service is draining")
	// ErrDropped is the failure recorded on jobs that were still queued
	// when Shutdown ran — they never started executing.
	ErrDropped = errors.New("provesvc: job dropped during shutdown")
	// ErrInternal is the failure recorded on jobs whose backend panicked;
	// the panic is recovered on the worker (which survives) and the HTTP
	// layer maps this to 500 internal_error.
	ErrInternal = errors.New("provesvc: internal error")
	// ErrCircuitOpen is returned when the per-circuit breaker is shedding
	// a poisoned circuit; the HTTP layer maps it to 503 circuit_open
	// (retryable — the breaker admits a probe after its cooldown).
	ErrCircuitOpen = errors.New("provesvc: circuit breaker open")
)

// DefaultBackend is assumed when a request does not name one.
const DefaultBackend = "groth16"

// config sizes the service. Every Service starts from defaultConfig
// and Options overwrite it field by field.
type config struct {
	workers        int
	queueDepth     int
	proveThreads   int
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	seed           uint64
	backends       []string
	artifactDir    string
	maxBodyBytes   int64
	brkThreshold   int
	brkCooldown    time.Duration
	jobTTL         time.Duration
	jobSweep       time.Duration
	jobMaxActive   int
	jobJournalDir  string
	verifyWindow   time.Duration
	verifyMax      int
	sched          WorkloadConfig
	tel            *telemetry.Telemetry
}

// defaultConfig is the one default table: New with no options, the
// zkserve flags (Flags reads its defaults from here) and zkload -inproc
// all resolve to it. The seed is time-derived so that unpinned services
// never share setup randomness.
func defaultConfig() config {
	return config{
		workers:        runtime.GOMAXPROCS(0),
		queueDepth:     256,
		proveThreads:   1,
		defaultTimeout: 60 * time.Second,
		seed:           uint64(time.Now().UnixNano()),
		maxBodyBytes:   httpx.MaxBody,
		brkThreshold:   5,
		brkCooldown:    10 * time.Second,
		jobTTL:         5 * time.Minute,
		jobMaxActive:   1024,
		verifyMax:      32,
		sched:          defaultSched,
		tel:            telemetry.New(),
	}
}

// newConfig applies opts over the default table. A size that cannot be
// zero (workers, queue depth, threads, body limit) falls back to its
// default when an option leaves it non-positive, so WithQueueDepth(0)
// and zkserve -queue 0 both mean 256. No backends means all of them.
func newConfig(opts ...Option) config {
	def := defaultConfig()
	c := def
	for _, opt := range opts {
		opt(&c)
	}
	if c.workers < 1 {
		c.workers = def.workers
	}
	if c.queueDepth < 1 {
		c.queueDepth = def.queueDepth
	}
	if c.proveThreads < 1 {
		c.proveThreads = def.proveThreads
	}
	if c.maxBodyBytes <= 0 {
		c.maxBodyBytes = def.maxBodyBytes
	}
	c.sched = c.sched.withDefaults(c.workers, c.queueDepth)
	return c
}

// Option configures a Service at construction.
type Option func(*config)

// WithWorkers sets the number of concurrent proving workers
// (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithQueueDepth bounds the queued-but-not-started job count
// (default 256). When full, submissions fail fast with ErrQueueFull.
func WithQueueDepth(d int) Option { return func(c *config) { c.queueDepth = d } }

// WithProveThreads sets the kernel parallelism *inside* one prove/setup
// (default 1): Workers×ProveThreads ≈ cores keeps the box busy without
// oversubscription collapse.
func WithProveThreads(n int) Option { return func(c *config) { c.proveThreads = n } }

// WithDefaultTimeout caps each job's execution unless the request
// overrides it (default 60s); 0 disables the default deadline.
func WithDefaultTimeout(d time.Duration) Option {
	return func(c *config) { c.defaultTimeout = d }
}

// WithMaxTimeout caps the per-request timeout_ms override: requests
// asking for more (or for no deadline at all, when a ceiling is set) are
// clamped to d. 0 means no ceiling.
func WithMaxTimeout(d time.Duration) Option {
	return func(c *config) { c.maxTimeout = d }
}

// WithArtifactDir persists setup artifacts (proving/verifying keys)
// crash-safely under dir and reloads them across restarts, so a process
// crash never costs a trusted setup. Corrupt files are quarantined
// (never loaded, never a panic) and rebuilt.
func WithArtifactDir(dir string) Option {
	return func(c *config) { c.artifactDir = dir }
}

// WithMaxBodyBytes bounds /v1 prove and verify request bodies (default
// 4 MiB, the HTTP edge's shared cap); larger bodies fail with 413
// body_too_large.
func WithMaxBodyBytes(n int64) Option {
	return func(c *config) { c.maxBodyBytes = n }
}

// WithBreaker sizes the per-circuit breaker: threshold consecutive
// failures open it, and after cooldown a single probe is admitted.
// threshold 0 disables the breaker. The default is 5 failures and a
// 10s cooldown.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) { c.brkThreshold, c.brkCooldown = threshold, cooldown }
}

// WithJobTTL sets how long finished async jobs (POST /v1/jobs) are
// retained for polling before the sweeper evicts them (default 5m). The
// sweeper runs every TTL/4, clamped to [50ms, 10s].
func WithJobTTL(ttl time.Duration) Option {
	return func(c *config) { c.jobTTL = ttl }
}

// WithJobMaxActive caps queued+running async jobs (default 1024);
// submissions beyond it are shed with 429 too_many_jobs.
func WithJobMaxActive(n int) Option {
	return func(c *config) { c.jobMaxActive = n }
}

// WithJobJournal makes async jobs durable: every lifecycle transition is
// appended to a checksummed WAL under dir, and a restart replays it —
// finished jobs stay pollable until TTL, jobs queued or running at a
// crash are re-executed, and Idempotency-Key dedup survives the restart.
// A corrupt or torn journal recovers by truncation/quarantine; an
// unusable journal directory degrades to in-memory jobs (see
// JobJournalError).
func WithJobJournal(dir string) Option {
	return func(c *config) { c.jobJournalDir = dir }
}

// WithVerifyCoalesce folds concurrent single Verify calls for the same
// circuit into batched pairing checks: a request waits up to window for
// company and a pending group flushes as soon as it holds max requests.
// Disabled by default (window 0 or max < 2) — lone requests would pay
// the window as pure added latency; enable it on deployments where
// verify QPS per circuit makes batches actually form.
func WithVerifyCoalesce(window time.Duration, max int) Option {
	return func(c *config) { c.verifyWindow, c.verifyMax = window, max }
}

// WithWorkloadSched configures workload-aware scheduling (on by
// default): hot circuits — classified from decayed per-circuit arrival
// rates — get dedicated workers fed from private queues, and each job
// is granted a slice of the kernel thread budget sized from live queue
// depth (deep queue → many jobs × few threads; idle → few jobs × full
// threads). wc replaces the whole default; its zero-valued fields pick
// their defaults (see WorkloadConfig), so WorkloadConfig{} turns the
// scheduler off. Arrival/drain-rate accounting (the sched stats block
// and drain-rate Retry-After hints) is always on regardless.
func WithWorkloadSched(wc WorkloadConfig) Option {
	return func(c *config) { c.sched = wc }
}

// WithSeed seeds the setup and blinding RNGs (default: time-derived).
// Pin it for reproducible experiments; vary it in production.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithBackends restricts the service to the named proving backends
// (default: all registered — currently groth16 and plonk).
func WithBackends(names ...string) Option {
	return func(c *config) { c.backends = names }
}

// WithTelemetry replaces the service's telemetry handle. The default is
// a fresh enabled handle; pass nil to disable observability entirely, or
// a shared handle to aggregate several services into one registry.
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(c *config) { c.tel = t }
}

// ProveRequest asks the service for one proof.
type ProveRequest struct {
	// Curve names the pairing curve: "bn128" (default) or "bls12-381".
	Curve string
	// Backend names the proving scheme: "groth16" (default) or "plonk".
	Backend string
	// Source is the circuit source text; it doubles as the cache key.
	Source string
	// Inputs assigns the circuit's input wires.
	Inputs witness.Assignment
	// Timeout overrides the service's default job deadline when > 0.
	Timeout time.Duration
	// OnStart, when set, is invoked on the worker just before execution
	// begins — after the queue wait, before compile/witness/prove. The
	// async job layer uses it to flip a job from queued to running at the
	// moment a worker actually picks it up.
	OnStart func()
}

// ProveResult is a completed proof plus its public wires and stage
// timings.
type ProveResult struct {
	Proof    backend.Proof
	Public   []ff.Element // [1, public wires] — what Verify consumes
	Artifact *Artifact

	QueueWait   time.Duration
	WitnessTime time.Duration
	ProveTime   time.Duration
	Total       time.Duration
}

// VerifyRequest asks the service to check a proof against a circuit's
// cached verifying key.
type VerifyRequest struct {
	Curve   string
	Backend string
	Source  string
	Proof   backend.Proof
	// Public is the public witness including the leading constant 1 (as
	// returned in ProveResult.Public).
	Public []ff.Element
}

// job is one queued prove request.
type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	stop   func() bool // detaches the shutdown watcher
	req    ProveRequest
	key    CircuitKey // breaker identity, computed at admission
	enq    time.Time

	res  *ProveResult
	err  error
	done chan struct{}
}

func (j *job) finish(res *ProveResult, err error) {
	j.res, j.err = res, err
	j.cancel()
	j.stop()
	close(j.done)
}

// DrainReport says what Shutdown did.
type DrainReport struct {
	// Drained is the number of in-flight jobs at drain start that were
	// allowed to finish.
	Drained int
	// Dropped is the number of queued jobs discarded without running.
	Dropped int
	// Forced is the number of in-flight jobs cancelled because the drain
	// deadline expired before they finished.
	Forced int
}

// Service is the concurrent proving service.
type Service struct {
	cfg     config
	reg     *Registry
	met     metrics
	tel     *telemetry.Telemetry
	breaker *breakerGroup
	jobMgr  *jobs.Manager
	coal    *coalescer // nil unless WithVerifyCoalesce enabled it
	sched   *scheduler // always non-nil; dedicated workers + thread grants only when enabled

	// artifactErr records a WithArtifactDir init failure: the service
	// still serves (without persistence), and the caller decides whether
	// that is fatal via ArtifactDirError.
	artifactErr error
	// journalErr records a WithJobJournal init failure, same contract:
	// the service serves with in-memory jobs and the caller decides via
	// JobJournalError.
	journalErr error

	jobs chan *job
	done chan struct{} // closed by Shutdown: workers exit when idle

	baseCtx    context.Context // cancelled to force-abort in-flight jobs
	baseCancel context.CancelFunc

	mu       sync.RWMutex // guards draining vs. enqueue
	draining bool

	workerWG sync.WaitGroup
	seedCtr  atomic.Uint64

	// hookJobStart, when set before Start, runs at the top of every job
	// execution; tests use it to hold workers at a barrier.
	hookJobStart func()
}

// New creates a service; call Start before submitting work.
func New(opts ...Option) *Service {
	cfg := newConfig(opts...)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:        cfg,
		reg:        NewRegistry(cfg.proveThreads, cfg.seed, cfg.backends),
		tel:        cfg.tel,
		breaker:    newBreakerGroup(cfg.brkThreshold, cfg.brkCooldown),
		jobs:       make(chan *job, cfg.queueDepth),
		done:       make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	// Async job dispatch parallelism matches the worker pool: a
	// dispatched job either runs immediately or waits in the service
	// queue behind sync traffic, still reported "queued" either way.
	var jnl *jobs.Journal
	if cfg.jobJournalDir != "" {
		if jnl, s.journalErr = jobs.OpenJournal(cfg.jobJournalDir); s.journalErr != nil {
			jnl = nil // degrade to in-memory jobs; caller decides via JobJournalError
		}
	}
	s.jobMgr = jobs.New(jobs.Config{
		TTL:        cfg.jobTTL,
		SweepEvery: cfg.jobSweep,
		MaxActive:  cfg.jobMaxActive,
		Parallel:   cfg.workers,
		Journal:    jnl,
		ErrorClass: errorClass,
	})
	if cfg.artifactDir != "" {
		s.artifactErr = s.reg.SetArtifactDir(cfg.artifactDir)
	}
	if cfg.verifyWindow > 0 && cfg.verifyMax > 1 {
		s.coal = newCoalescer(s, cfg.verifyWindow, cfg.verifyMax)
	}
	s.sched = newScheduler(s, cfg.sched)
	s.met.perBackend = make(map[string]*backendMetrics, len(cfg.backends))
	for _, name := range s.reg.Backends() {
		s.met.perBackend[name] = &backendMetrics{}
	}
	s.met.vbLat = &telemetry.HistogramMetric{}
	if reg := s.tel.Registry(); reg != nil {
		s.met.vbLat = reg.Histogram("zkp_verify_batch_duration_seconds",
			"Wall time of one folded verify batch.")
		reg.GaugeFunc("zkp_queue_depth", "Jobs queued but not yet started.",
			func() float64 { return float64(len(s.jobs)) })
		reg.GaugeFunc("zkp_queue_capacity", "Job queue capacity.",
			func() float64 { return float64(cap(s.jobs)) })
		reg.GaugeFunc("zkp_in_flight", "Jobs currently executing on a worker.",
			func() float64 { return float64(s.met.inFlight.Load()) })
		reg.GaugeFunc("zkp_workers", "Size of the proving worker pool.",
			func() float64 { return float64(s.cfg.workers) })
		reg.GaugeFunc("zkp_panics_total", "Prove panics recovered on workers.",
			func() float64 { return float64(s.met.panics.Load()) })
		reg.GaugeFunc("zkp_timeouts_total", "Jobs that exceeded their deadline.",
			func() float64 { return float64(s.met.timeouts.Load()) })
		reg.GaugeFunc("zkp_breaker_open", "Circuits currently shed by the breaker.",
			func() float64 { return float64(s.breaker.openCount()) })
		reg.GaugeFunc("zkp_breaker_trips_total", "Lifetime circuit-breaker trips.",
			func() float64 { return float64(s.breaker.trips.Load()) })
		reg.GaugeFunc("zkp_breaker_shed_total", "Requests shed with circuit_open.",
			func() float64 { return float64(s.breaker.shed.Load()) })
		reg.GaugeFunc("zkp_jobs_active", "Async jobs by live state.",
			func() float64 { return float64(s.jobMgr.Snapshot().Queued) },
			telemetry.Label{Name: "state", Value: "queued"})
		reg.GaugeFunc("zkp_jobs_active", "Async jobs by live state.",
			func() float64 { return float64(s.jobMgr.Snapshot().Running) },
			telemetry.Label{Name: "state", Value: "running"})
		reg.GaugeFunc("zkp_jobs_retained", "Finished async jobs awaiting TTL eviction.",
			func() float64 { return float64(s.jobMgr.Snapshot().Retained) })
		reg.GaugeFunc("zkp_jobs_submitted_total", "Async jobs accepted lifetime.",
			func() float64 { return float64(s.jobMgr.Snapshot().Submitted) })
		reg.GaugeFunc("zkp_jobs_evicted_total", "Async job results evicted by the TTL sweeper.",
			func() float64 { return float64(s.jobMgr.Snapshot().Evicted) })
		reg.GaugeFunc("zkp_jobs_rejected_total", "Async job submissions shed at the active cap.",
			func() float64 { return float64(s.jobMgr.Snapshot().Rejected) })
		reg.GaugeFunc("zkp_jobs_oldest_queued_ms", "Age of the oldest queued async job.",
			func() float64 { return s.jobMgr.Snapshot().OldestQueuedMs })
		reg.GaugeFunc("zkp_journal_replayed_total", "Jobs restored from the journal at startup.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.Replayed) })
		reg.GaugeFunc("zkp_journal_reexecuted_total", "Replayed jobs re-enqueued for execution.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.Reexecuted) })
		reg.GaugeFunc("zkp_journal_dedup_hits_total", "Submissions answered via Idempotency-Key.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.DedupHits) })
		reg.GaugeFunc("zkp_journal_compactions_total", "Journal compaction rewrites.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.Compactions) })
		reg.GaugeFunc("zkp_journal_torn_records_total", "Torn/corrupt journal tails recovered at replay.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.TornRecords) })
		reg.GaugeFunc("zkp_journal_size_bytes", "Live journal WAL size.",
			func() float64 { return float64(s.jobMgr.Snapshot().Journal.SizeBytes) })
		reg.GaugeFunc("zkp_verify_batch_total", "Folded verify batches served.",
			func() float64 { return float64(s.met.vbBatches.Load()) })
		reg.GaugeFunc("zkp_verify_batch_proofs_total", "Proofs verified through folded batches.",
			func() float64 { return float64(s.met.vbProofs.Load()) })
		reg.GaugeFunc("zkp_verify_coalesced_total", "Single verifies opportunistically folded into shared batches.",
			func() float64 { return float64(s.met.vbCoalesced.Load()) })
		reg.GaugeFunc("zkp_sched_enabled", "1 when workload-aware scheduling is on.",
			func() float64 {
				if s.sched.cfg.Enabled {
					return 1
				}
				return 0
			})
		reg.GaugeFunc("zkp_sched_hot_circuits", "Circuits currently classified hot.",
			func() float64 { return float64(len(s.sched.plan.Load().hotQueues)) })
		reg.GaugeFunc("zkp_sched_reserved_workers", "Workers dedicated to hot circuits.",
			func() float64 { return float64(s.sched.plan.Load().reserved) })
		reg.GaugeFunc("zkp_sched_thread_budget", "Kernel thread budget the scheduler splits.",
			func() float64 { return float64(s.sched.cfg.ThreadBudget) })
		reg.GaugeFunc("zkp_sched_promotions_total", "Lifetime cold-to-hot promotions.",
			func() float64 { return float64(s.sched.promotions.Load()) })
		reg.GaugeFunc("zkp_sched_demotions_total", "Lifetime hot-to-cold demotions.",
			func() float64 { return float64(s.sched.demotions.Load()) })
		reg.GaugeFunc("zkp_sched_drain_rate", "Decayed queue drain rate, jobs/s.",
			func() float64 { return s.sched.drain.rate(s.sched.now(), s.sched.cfg.halfLife) })
		reg.GaugeFunc("zkp_sched_hot_queue_depth", "Jobs queued across hot-circuit queues.",
			func() float64 { return float64(s.sched.queuedTotal() - len(s.jobs)) })
		for _, q := range []float64{0.50, 0.95} {
			ql := telemetry.Label{Name: "quantile", Value: fmt.Sprintf("p%.0f", q*100)}
			reg.GaugeFunc("zkp_verify_batch_size", "Verify batch size distribution.",
				func() float64 { return float64(countQuantile(&s.met.vbSize, q)) }, ql)
			reg.GaugeFunc("zkp_sched_thread_grant", "Per-job kernel thread grant distribution.",
				func() float64 { return float64(countQuantile(&s.sched.grantHist, q)) }, ql)
		}
	}
	return s
}

// ArtifactDirError reports a WithArtifactDir initialization failure (nil
// when persistence is off or healthy). The service runs either way —
// without persistence every setup is recomputed, which is slow but
// correct — so the caller chooses whether to treat this as fatal.
func (s *Service) ArtifactDirError() error { return s.artifactErr }

// JobJournalError reports a WithJobJournal initialization failure (nil
// when the journal is off or healthy). The service runs either way —
// with in-memory jobs, losing them on restart — so the caller chooses
// whether to treat this as fatal.
func (s *Service) JobJournalError() error { return s.journalErr }

// Registry exposes the circuit cache (e.g. to pre-warm circuits at boot).
func (s *Service) Registry() *Registry { return s.reg }

// Backends returns the backend names this service serves.
func (s *Service) Backends() []string { return s.reg.Backends() }

// Telemetry returns the service's telemetry handle (nil when disabled).
func (s *Service) Telemetry() *telemetry.Telemetry { return s.tel }

// Start launches the worker pool, the workload classifier and the async
// job manager, then re-arms any journaled jobs that were queued or
// running when the previous process died.
func (s *Service) Start() {
	for i := 0; i < s.cfg.workers; i++ {
		s.workerWG.Add(1)
		go s.worker(i)
	}
	s.sched.start()
	s.jobMgr.Start()
	s.resumeJournaledJobs()
}

// Jobs exposes the async job manager (e.g. for embedded callers that
// submit work without the HTTP layer).
func (s *Service) Jobs() *jobs.Manager { return s.jobMgr }

// Prove submits a request and blocks until the proof is ready, the
// request's deadline expires, ctx is cancelled, or the service sheds it.
// Queue saturation fails fast with ErrQueueFull.
func (s *Service) Prove(ctx context.Context, req ProveRequest) (*ProveResult, error) {
	j, err := s.enqueue(ctx, req)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.res, j.err
	case <-ctx.Done():
		// Abandon the job: cancelling its context makes the worker (or
		// the kernels, if already running) bail out at the next check.
		j.cancel()
		return nil, ctx.Err()
	}
}

// ProveBatch submits several requests at once and waits for all of them.
// Admission is per-item: results[i]/errs[i] correspond to reqs[i], and
// items that did not fit in the queue fail with ErrQueueFull while the
// rest proceed.
func (s *Service) ProveBatch(ctx context.Context, reqs []ProveRequest) ([]*ProveResult, []error) {
	results := make([]*ProveResult, len(reqs))
	errs := make([]error, len(reqs))
	jobs := make([]*job, len(reqs))
	for i, req := range reqs {
		jobs[i], errs[i] = s.enqueue(ctx, req)
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.done:
			results[i], errs[i] = j.res, j.err
		case <-ctx.Done():
			j.cancel()
			errs[i] = ctx.Err()
		}
	}
	return results, errs
}

// reject books a shed request into the global and per-backend counters.
func (s *Service) reject(req ProveRequest) {
	s.met.rejected.Add(1)
	if bm := s.met.forBackend(req.Backend); bm != nil {
		bm.rejected.Add(1)
	}
	s.tel.CountRequest(req.Backend, req.Curve, "rejected")
}

func (s *Service) enqueue(ctx context.Context, req ProveRequest) (*job, error) {
	if req.Curve == "" {
		req.Curve = "bn128"
	}
	if req.Backend == "" {
		req.Backend = DefaultBackend
	}
	// Reject unknown backends before they consume a queue slot; unknown
	// curves surface from the registry inside the worker.
	if !s.reg.backendEnabled(req.Backend) {
		s.met.rejected.Add(1)
		return nil, fmt.Errorf("%w %q (serving: %v)", backend.ErrUnknownBackend, req.Backend, s.reg.Backends())
	}
	key := CircuitKey{
		SourceHash: sha256.Sum256([]byte(req.Source)),
		Curve:      req.Curve,
		Backend:    req.Backend,
	}
	// A circuit whose breaker is open is shed here, before it can consume
	// a queue slot or a worker for another doomed multi-second prove.
	if !s.breaker.allow(key) {
		s.met.rejected.Add(1)
		if bm := s.met.forBackend(req.Backend); bm != nil {
			bm.rejected.Add(1)
		}
		s.tel.CountRequest(req.Backend, req.Curve, "circuit_open")
		return nil, fmt.Errorf("%w for this circuit (cooldown %v)", ErrCircuitOpen, s.cfg.brkCooldown)
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.defaultTimeout
	}
	// The service-wide ceiling clamps both oversized overrides and the
	// "no deadline" case — with a ceiling set, nothing runs unbounded.
	if max := s.cfg.maxTimeout; max > 0 && (timeout <= 0 || timeout > max) {
		timeout = max
	}
	var jctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		jctx, cancel = context.WithCancel(ctx)
	}
	// Give the job its probe unless the caller already attached one (an
	// embedded caller aggregating spans itself). The probe carries the
	// request ID the HTTP edge stamped into ctx, and the kernels below
	// will find it through jctx.
	if s.tel.Enabled() && telemetry.ProbeFromContext(jctx) == nil {
		jctx = telemetry.WithProbe(jctx, telemetry.NewProbe(telemetry.RequestIDFromContext(ctx)))
	}
	// A forced shutdown (drain deadline expired) aborts this job too.
	stop := context.AfterFunc(s.baseCtx, cancel)

	j := &job{
		ctx:    jctx,
		cancel: cancel,
		stop:   stop,
		req:    req,
		key:    key,
		enq:    time.Now(),
		done:   make(chan struct{}),
	}

	// The RLock is held across the non-blocking send so Shutdown (which
	// takes the write lock before draining the queue) can never miss a
	// concurrent enqueue.
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Rejection after allow() must hand the breaker admission back (it
	// may hold the circuit's lone half-open probe slot), or the circuit
	// sheds with circuit_open forever — exactly under the overload that
	// trips breakers in the first place.
	if s.draining {
		cancel()
		stop()
		s.breaker.release(key)
		s.reject(req)
		return nil, ErrDraining
	}
	// Route through the scheduler: the circuit's private hot queue if it
	// is classified hot, the shared cold queue otherwise. Arrivals are
	// booked before admission — shed requests are still demand.
	s.sched.observeArrival(key)
	if s.sched.offer(j) {
		s.met.accepted.Add(1)
		return j, nil
	}
	cancel()
	stop()
	s.breaker.release(key)
	s.reject(req)
	return nil, ErrQueueFull
}

// worker is one pool goroutine; its scheduling loop (which queues it
// serves) lives on the scheduler so reservation changes retarget it
// without restarting the pool.
func (s *Service) worker(id int) {
	defer s.workerWG.Done()
	s.sched.workerLoop(id)
}

// run executes one job on the calling worker goroutine and feeds the
// outcome to the circuit breaker. Panics are contained inside execute,
// so the worker always survives to take the next job.
func (s *Service) run(j *job) {
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if h := s.hookJobStart; h != nil {
		h()
	}

	wait := time.Since(j.enq)
	s.met.queueWait.Observe(wait)
	// The job just left a queue for a worker: book the drain event and
	// size its kernel thread grant from the demand behind it. The grant
	// rides j.ctx to the NTT/MSM fork-join boundaries; 0 (scheduler
	// disabled) leaves the engines' static thread count in force.
	s.sched.observeDrain()
	if g := s.sched.grantThreads(); g > 0 {
		j.ctx = parallel.WithThreadBudget(j.ctx, g)
	}

	// A deadline (or cancellation) that fired while the job was still
	// queued says nothing about the circuit — no prove was attempted —
	// so it releases the breaker admission instead of counting as a
	// failure. Otherwise queue congestion plus tight client timeouts
	// would trip breakers on perfectly healthy circuits.
	if err := j.ctx.Err(); err != nil {
		s.breaker.release(j.key)
		s.fail(j, err)
		return
	}
	if j.req.OnStart != nil {
		j.req.OnStart()
	}

	res, err := s.execute(j, wait)
	if err != nil {
		// A pure client cancellation says nothing about the circuit's
		// health; everything else — panics, prove errors, deadline
		// expiries past this point (a stuck kernel looks exactly like
		// one) — counts toward its breaker.
		if errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.breaker.release(j.key)
		} else {
			s.breaker.onFailure(j.key)
		}
		s.fail(j, err)
		return
	}
	s.breaker.onSuccess(j.key)
	j.finish(res, nil)
}

// execute runs lookup → witness → prove for one job. A panic anywhere
// below — a backend bug, a poisoned artifact — is recovered here and
// becomes that job's ErrInternal failure, never a process crash.
func (s *Service) execute(j *job, wait time.Duration) (res *ProveResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Add(1)
			if bm := s.met.forBackend(j.req.Backend); bm != nil {
				bm.panics.Add(1)
			}
			res, err = nil, fmt.Errorf("%w: prove panicked: %v", ErrInternal, rec)
		}
	}()

	if err := faultinject.Point(j.ctx, faultinject.PointWorkerRun); err != nil {
		return nil, err
	}

	art, err := s.reg.Get(j.ctx, j.req.Curve, j.req.Backend, j.req.Source)
	if err != nil {
		return nil, err
	}
	bm := s.met.forBackend(j.req.Backend)
	probe := telemetry.ProbeFromContext(j.ctx)

	t0 := time.Now()
	endWitness := probe.StartStage(telemetry.StageWitness)
	w, err := witness.Solve(art.Sys, art.Prog, j.req.Inputs)
	endWitness()
	if err != nil {
		return nil, fmt.Errorf("provesvc: witness: %w", err)
	}
	witnessTime := time.Since(t0)

	if err := faultinject.Point(j.ctx, faultinject.PointBackendProve); err != nil {
		return nil, err
	}
	t1 := time.Now()
	rng := ff.NewRNG(mix64(s.cfg.seed ^ (0x9e3779b97f4a7c15 * s.seedCtr.Add(1))))
	endProve := probe.StartStage(telemetry.StageProve)
	proof, err := art.Backend.Prove(j.ctx, art.Sys, art.PK, w, rng)
	endProve()
	if err != nil {
		return nil, err
	}
	proveTime := time.Since(t1)

	total := time.Since(j.enq)
	s.met.completed.Add(1)
	if bm != nil {
		bm.witnessLat.Observe(witnessTime)
		bm.proveLat.Observe(proveTime)
		bm.totalLat.Observe(total)
		bm.completed.Add(1)
	}
	s.tel.ObserveStage(j.req.Backend, j.req.Curve, telemetry.StageWitness, witnessTime)
	s.tel.ObserveStage(j.req.Backend, j.req.Curve, telemetry.StageProve, proveTime)
	s.tel.CountRequest(j.req.Backend, j.req.Curve, "completed")
	s.tel.ObserveProbe(j.req.Backend, j.req.Curve, probe)
	return &ProveResult{
		Proof:       proof,
		Public:      w.Public,
		Artifact:    art,
		QueueWait:   wait,
		WitnessTime: witnessTime,
		ProveTime:   proveTime,
		Total:       total,
	}, nil
}

// fail records a job failure, classifying deadline expiries and client
// cancellations separately from real failures.
func (s *Service) fail(j *job, err error) {
	bm := s.met.forBackend(j.req.Backend)
	outcome := "failed"
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// Deadlines stay in the cancelled bucket (the job was aborted,
		// not broken) but are additionally counted as timeouts so a
		// deadline storm is visible on its own.
		outcome = "deadline_exceeded"
		s.met.canceled.Add(1)
		s.met.timeouts.Add(1)
		if bm != nil {
			bm.cancelled.Add(1)
			bm.timeouts.Add(1)
		}
	case errors.Is(err, context.Canceled):
		outcome = "cancelled"
		s.met.canceled.Add(1)
		if bm != nil {
			bm.cancelled.Add(1)
		}
	case errors.Is(err, ErrInternal):
		outcome = "internal_error"
		s.met.failed.Add(1)
		if bm != nil {
			bm.failed.Add(1)
		}
	default:
		s.met.failed.Add(1)
		if bm != nil {
			bm.failed.Add(1)
		}
	}
	s.tel.CountRequest(j.req.Backend, j.req.Curve, outcome)
	j.finish(nil, err)
}

// Verify checks a proof against the circuit's cached verifying key. It
// runs inline on the caller's goroutine — verification is milliseconds,
// not worth a queue slot. Returns (false, nil) for a well-formed but
// invalid proof and (false, err) for infrastructure errors.
func (s *Service) Verify(ctx context.Context, req VerifyRequest) (bool, error) {
	// Under coalescing, single verifies detour through the shared-batch
	// collector; the folded check itself runs via VerifyBatch.
	if s.coal != nil {
		return s.coal.verify(ctx, req)
	}
	if req.Curve == "" {
		req.Curve = "bn128"
	}
	if req.Backend == "" {
		req.Backend = DefaultBackend
	}
	if req.Proof == nil {
		return false, fmt.Errorf("provesvc: verify: missing proof")
	}
	art, err := s.reg.Get(ctx, req.Curve, req.Backend, req.Source)
	if err != nil {
		return false, err
	}
	probe := telemetry.ProbeFromContext(ctx)
	if s.tel.Enabled() && probe == nil {
		probe = telemetry.NewProbe(telemetry.RequestIDFromContext(ctx))
		ctx = telemetry.WithProbe(ctx, probe)
	}
	t0 := time.Now()
	endVerify := probe.StartStage(telemetry.StageVerify)
	err = art.Backend.Verify(ctx, art.VK, req.Proof, req.Public)
	endVerify()
	d := time.Since(t0)
	s.met.verified.Add(1)
	if bm := s.met.forBackend(req.Backend); bm != nil {
		bm.verifyLat.Observe(d)
	}
	s.tel.ObserveStage(req.Backend, req.Curve, telemetry.StageVerify, d)
	s.tel.CountRequest(req.Backend, req.Curve, "verified")
	s.tel.ObserveProbe(req.Backend, req.Curve, probe)
	if errors.Is(err, backend.ErrInvalidProof) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// Stats snapshots the service counters in the documented /v1/stats shape.
func (s *Service) Stats() Snapshot {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	hits, misses := s.reg.Hits(), s.reg.Misses()
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	backends := make(map[string]BackendSnapshot, len(s.met.perBackend))
	for name, bm := range s.met.perBackend {
		backends[name] = bm.snapshot()
	}
	return Snapshot{
		Service: ServiceStats{
			Accepted:  s.met.accepted.Load(),
			Rejected:  s.met.rejected.Load(),
			Completed: s.met.completed.Load(),
			Failed:    s.met.failed.Load(),
			Cancelled: s.met.canceled.Load(),
			Dropped:   s.met.dropped.Load(),
			Verified:  s.met.verified.Load(),
			Panics:    s.met.panics.Load(),
			Timeouts:  s.met.timeouts.Load(),
			Workers:   s.cfg.workers,
			Draining:  draining,
		},
		Queue: QueueStats{
			Depth:    len(s.jobs),
			Capacity: cap(s.jobs),
			InFlight: int(s.met.inFlight.Load()),
			Wait:     stageSummary(&s.met.queueWait),
		},
		Cache: CacheStats{
			Hits:    hits,
			Misses:  misses,
			HitRate: hitRate,
			Setups:  s.reg.Setups(),
		},
		Backends: backends,
		VerifyBatch: VerifyBatchStats{
			Batches:   s.met.vbBatches.Load(),
			Proofs:    s.met.vbProofs.Load(),
			Coalesced: s.met.vbCoalesced.Load(),
			Size:      sizeSummary(&s.met.vbSize),
			Latency:   stageSummary(s.met.vbLat),
		},
		Breaker:   s.breaker.stats(),
		Artifacts: s.reg.ArtifactStats(),
		Errors:    s.met.errorSnapshot(),
		Jobs:      s.jobMgr.Snapshot(),
		Sched:     s.sched.stats(),
	}
}

// Shutdown gracefully stops the service: it rejects new submissions,
// discards still-queued jobs (failing them with ErrDropped), lets
// in-flight jobs finish until ctx expires, then force-cancels whatever is
// left. It returns a report of what happened; safe to call once.
func (s *Service) Shutdown(ctx context.Context) (*DrainReport, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, errors.New("provesvc: already shut down")
	}
	s.draining = true
	s.mu.Unlock()

	// The async layer drains first, while the sync path below it still
	// serves: queued jobs are dropped, running ones get the remaining
	// budget before their contexts are canceled. Their RunFuncs go
	// through Prove/Verify, so the in-flight accounting below covers
	// whatever they still have on workers.
	s.jobMgr.Shutdown(ctx)

	rep := &DrainReport{}

	// Stop the classifier first so no further demotions spawn movers,
	// then discard queued jobs across the cold and hot queues. Workers
	// may race us for them — jobs they win become in-flight and are
	// drained below, which only shrinks Dropped.
	s.sched.stop()
	s.sched.sweep(rep)
	rep.Drained = int(s.met.inFlight.Load())
	close(s.done) // idle workers exit; busy ones finish their job first

	finished := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		rep.Forced = int(s.met.inFlight.Load())
		rep.Drained -= rep.Forced
		s.baseCancel() // cancel in-flight job contexts
		<-finished     // kernels bail at the next chunk boundary
		err = ctx.Err()
	}
	s.baseCancel()
	// Demotion movers unblock via s.done (dropping what they carried) —
	// wait them out, then sweep once more: a mover may have re-queued
	// jobs after the first sweep, and with the workers gone nothing else
	// will ever fail those jobs' waiters.
	s.sched.moverWait()
	s.sched.sweep(rep)
	return rep, err
}
