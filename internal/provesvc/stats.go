package provesvc

import (
	"sync"
	"sync/atomic"
	"time"

	"zkperf/internal/jobs"
	"zkperf/internal/telemetry"
)

// StageSummary is the JSON digest of one latency histogram — the
// {count, p50_ms, p95_ms, p99_ms} leaf of the documented /v1/stats
// schema (mean_ms rides along for capacity math). Quantiles are bucket
// upper bounds (telemetry.HistogramMetric): a ≤2× overestimate, which
// is the right bias for a serving SLO readout.
type StageSummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func stageSummary(h *telemetry.HistogramMetric) StageSummary {
	n := h.Count()
	if n == 0 {
		return StageSummary{}
	}
	ms := func(q float64) float64 { return float64(h.Quantile(q)) / 1e6 }
	return StageSummary{Count: n, MeanMs: float64(h.Sum()) / float64(n) / 1e6,
		P50Ms: ms(0.50), P95Ms: ms(0.95), P99Ms: ms(0.99)}
}

// SizeSummary is the JSON digest of a histogram of counts
// (HistogramMetric.ObserveCount): verify batch sizes, thread grants.
type SizeSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
}

func sizeSummary(h *telemetry.HistogramMetric) SizeSummary {
	n := h.Count()
	if n == 0 {
		return SizeSummary{}
	}
	return SizeSummary{Count: n, Mean: float64(h.Sum()/time.Microsecond) / float64(n),
		P50: countQuantile(h, 0.50), P95: countQuantile(h, 0.95)}
}

// countQuantile reads a quantile of a histogram of counts.
func countQuantile(h *telemetry.HistogramMetric, q float64) uint64 {
	return uint64(h.Quantile(q) / time.Microsecond)
}

// backendMetrics is the per-backend slice of the service metrics, so
// /v1/stats can show where each scheme's latency distribution sits (the
// MSM- vs NTT-bound trade-off the comparative literature predicts) and
// where its load was shed.
type backendMetrics struct {
	completed  atomic.Uint64
	failed     atomic.Uint64
	rejected   atomic.Uint64 // ErrQueueFull + ErrDraining + circuit_open, attributed here
	cancelled  atomic.Uint64 // cancellation / deadline during execution
	panics     atomic.Uint64 // prove panics recovered on a worker
	timeouts   atomic.Uint64 // deadline expiries (also counted in cancelled)
	witnessLat telemetry.HistogramMetric
	proveLat   telemetry.HistogramMetric
	totalLat   telemetry.HistogramMetric
	verifyLat  telemetry.HistogramMetric
}

// metrics holds the service's atomic counters and per-stage histograms.
// Everything here is updated without locks so the hot path never contends
// with a /stats scrape; perBackend is populated once at construction and
// only read afterwards.
type metrics struct {
	accepted  atomic.Uint64 // jobs admitted to the queue
	rejected  atomic.Uint64 // ErrQueueFull + ErrDraining rejections
	completed atomic.Uint64 // jobs that produced a proof
	failed    atomic.Uint64 // jobs that errored (compile, witness, prove)
	canceled  atomic.Uint64 // jobs aborted by cancellation or deadline
	dropped   atomic.Uint64 // queued jobs discarded during shutdown
	verified  atomic.Uint64 // verify requests served (valid or not)
	panics    atomic.Uint64 // prove panics recovered on workers
	timeouts  atomic.Uint64 // deadline expiries (also counted in canceled)
	inFlight  atomic.Int64  // jobs currently executing on a worker

	queueWait telemetry.HistogramMetric // enqueue → worker pickup

	// Folded-verify accounting: one "batch" per same-circuit group that
	// went through a folded check (VerifyBatch or the coalescer).
	vbBatches   atomic.Uint64
	vbProofs    atomic.Uint64
	vbCoalesced atomic.Uint64             // single verifies that shared a fold
	vbSize      telemetry.HistogramMetric // counts: proofs per folded batch
	// vbLat is the wall time per folded batch; with telemetry on it is the
	// registry's zkp_verify_batch_duration_seconds, so it is observed once.
	vbLat *telemetry.HistogramMetric

	perBackend map[string]*backendMetrics

	// errCodes counts the error envelopes the HTTP layer served, by
	// stable code — the `errors` block of /v1/stats. Errors are rare and
	// off the prove hot path, so a mutex-guarded map is fine.
	errMu    sync.Mutex
	errCodes map[string]uint64
}

// countError books one served error envelope under its stable code.
func (m *metrics) countError(code string) {
	m.errMu.Lock()
	if m.errCodes == nil {
		m.errCodes = make(map[string]uint64)
	}
	m.errCodes[code]++
	m.errMu.Unlock()
}

// errorSnapshot copies the error-code counters for /v1/stats.
func (m *metrics) errorSnapshot() map[string]uint64 {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	out := make(map[string]uint64, len(m.errCodes))
	for code, n := range m.errCodes {
		out[code] = n
	}
	return out
}

// forBackend returns the per-backend slice, or nil for names outside the
// configured set (callers simply skip the extra observation).
func (m *metrics) forBackend(name string) *backendMetrics {
	return m.perBackend[name]
}

// ServiceStats is the `service` block of the /v1/stats schema: lifetime
// request counters and the worker-pool state.
type ServiceStats struct {
	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Dropped   uint64 `json:"dropped"`
	Verified  uint64 `json:"verified"`
	Panics    uint64 `json:"panics"`
	Timeouts  uint64 `json:"timeouts"`
	Workers   int    `json:"workers"`
	Draining  bool   `json:"draining"`
}

// QueueStats is the `queue` block: the live queue state plus the
// enqueue-to-pickup wait distribution.
type QueueStats struct {
	Depth    int          `json:"depth"`
	Capacity int          `json:"capacity"`
	InFlight int          `json:"in_flight"`
	Wait     StageSummary `json:"wait"`
}

// CacheStats is the `cache` block: the circuit registry's hit/miss
// counters and how many trusted setups actually ran.
type CacheStats struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Setups  uint64  `json:"setups"`
}

// BackendSnapshot is one entry of the `backends` map: outcome counters
// and per-stage latency summaries for a single proving scheme.
type BackendSnapshot struct {
	Completed uint64                  `json:"completed"`
	Failed    uint64                  `json:"failed"`
	Rejected  uint64                  `json:"rejected"`
	Cancelled uint64                  `json:"cancelled"`
	Panics    uint64                  `json:"panics"`
	Timeouts  uint64                  `json:"timeouts"`
	Stages    map[string]StageSummary `json:"stages"`
}

func (b *backendMetrics) snapshot() BackendSnapshot {
	return BackendSnapshot{
		Completed: b.completed.Load(),
		Failed:    b.failed.Load(),
		Rejected:  b.rejected.Load(),
		Cancelled: b.cancelled.Load(),
		Panics:    b.panics.Load(),
		Timeouts:  b.timeouts.Load(),
		Stages: map[string]StageSummary{
			"witness": stageSummary(&b.witnessLat),
			"prove":   stageSummary(&b.proveLat),
			"total":   stageSummary(&b.totalLat),
			"verify":  stageSummary(&b.verifyLat),
		},
	}
}

// VerifyBatchStats is the `verify_batch` block of /v1/stats: how many
// folded verify checks ran, how many proofs they covered, how many
// single verifies the coalescer folded together, and the batch size and
// latency distributions.
type VerifyBatchStats struct {
	Batches   uint64       `json:"batches"`
	Proofs    uint64       `json:"proofs"`
	Coalesced uint64       `json:"coalesced"`
	Size      SizeSummary  `json:"size"`
	Latency   StageSummary `json:"latency"`
}

// HotCircuit is one entry of the sched block's hot set: a circuit the
// classifier currently gives dedicated workers.
type HotCircuit struct {
	// Circuit is the first 8 bytes of the source hash, hex — enough to
	// correlate with client-side hashes without echoing source text.
	Circuit    string  `json:"circuit"`
	Backend    string  `json:"backend"`
	Curve      string  `json:"curve"`
	RatePerSec float64 `json:"rate_per_sec"`
	Reserved   int     `json:"reserved"`
	QueueDepth int     `json:"queue_depth"`
}

// SchedStats is the `sched` block of /v1/stats: the workload-aware
// scheduler's live classification (hot set, worker split), queue depths
// per class, and the thread-grant distribution.
type SchedStats struct {
	Enabled         bool         `json:"enabled"`
	ThreadBudget    int          `json:"thread_budget"`
	Workers         int          `json:"workers"`
	ReservedWorkers int          `json:"reserved_workers"`
	ColdWorkers     int          `json:"cold_workers"`
	HotCount        int          `json:"hot_count"`
	HotMinRate      float64      `json:"hot_min_rate"`
	Hot             []HotCircuit `json:"hot,omitempty"`
	ColdQueueDepth  int          `json:"cold_queue_depth"`
	HotQueueDepth   int          `json:"hot_queue_depth"`
	Promotions      uint64       `json:"promotions"`
	Demotions       uint64       `json:"demotions"`
	// ArrivalRatePerSec is the decayed offered load across all circuits;
	// DrainRatePerSec is how fast jobs are leaving the queues for
	// workers (the rate Retry-After hints are derived from).
	ArrivalRatePerSec float64 `json:"arrival_rate_per_sec"`
	DrainRatePerSec   float64 `json:"drain_rate_per_sec"`
	// ThreadGrant is the distribution of per-job kernel thread grants.
	ThreadGrant SizeSummary `json:"thread_grant"`
}

// Snapshot is the stable /v1/stats response shape, shared by the HTTP
// handler and the zkcli `stats` subcommand:
//
//	{
//	  "service":   {accepted, rejected, completed, failed, cancelled,
//	                dropped, verified, panics, timeouts, workers, draining},
//	  "queue":     {depth, capacity, in_flight, wait:{count,…,p99_ms}},
//	  "cache":     {hits, misses, hit_rate, setups},
//	  "backends":  {"groth16": {completed, failed, rejected, cancelled,
//	                panics, timeouts,
//	                stages:{"witness"|"prove"|"verify"|"total": {count,
//	                mean_ms, p50_ms, p95_ms, p99_ms}}}, …},
//	  "verify_batch": {batches, proofs, coalesced,
//	                size:{count, mean, p50, p95},
//	                latency:{count, mean_ms, p50_ms, p95_ms, p99_ms}},
//	  "breaker":   {enabled, threshold, cooldown_ms, open, trips, shed},
//	  "artifacts": {enabled, dir, disk_loads, disk_writes, quarantined,
//	                write_errors, table_builds, table_loads, table_writes,
//	                table_quarantined},
//	  "errors":    {"deadline_exceeded": n, "circuit_open": n, …},
//	  "jobs":      {queued, running, retained, submitted, completed,
//	                failed, canceled, evicted, rejected, oldest_queued_ms,
//	                oldest_retained_ms, ttl_ms, max_active,
//	                journal:{enabled, path, records, size_bytes, replayed,
//	                reexecuted, dedup_hits, compactions, torn_records,
//	                append_errors, compact_errors}},
//	  "sched":     {enabled, thread_budget, workers, reserved_workers,
//	                cold_workers, hot_count, hot_min_rate,
//	                hot:[{circuit, backend, curve, rate_per_sec,
//	                reserved, queue_depth}], cold_queue_depth,
//	                hot_queue_depth, promotions, demotions,
//	                arrival_rate_per_sec, drain_rate_per_sec,
//	                thread_grant:{count, mean, p50, p95}}
//	}
//
// The shape is documented in docs/API.md; additions are allowed, renames
// and removals are not.
type Snapshot struct {
	Service  ServiceStats               `json:"service"`
	Queue    QueueStats                 `json:"queue"`
	Cache    CacheStats                 `json:"cache"`
	Backends map[string]BackendSnapshot `json:"backends"`
	// VerifyBatch aggregates the folded-verification path (/v1/verify/batch
	// and the single-verify coalescer).
	VerifyBatch VerifyBatchStats `json:"verify_batch"`
	// Breaker is the per-circuit breaker's aggregate state.
	Breaker BreakerStats `json:"breaker"`
	// Artifacts is the disk artifact store's state (zero when disabled).
	Artifacts ArtifactStats `json:"artifacts"`
	// Errors counts served error envelopes by stable code.
	Errors map[string]uint64 `json:"errors"`
	// Jobs is the async job subsystem's state (POST /v1/jobs).
	Jobs jobs.Stats `json:"jobs"`
	// Sched is the workload-aware scheduler's state (hot set, worker
	// split, thread grants); present even when the scheduler is disabled
	// so the drain/arrival rates are always visible.
	Sched SchedStats `json:"sched"`
}
