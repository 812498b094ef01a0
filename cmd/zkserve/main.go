// Command zkserve runs the proving service as an HTTP server — the
// long-lived deployment shape that amortizes circuit compilation and
// trusted setup across many prove/verify requests.
//
//	zkserve -addr :8090 -workers 4 -queue 256 -threads 1 -timeout 30s \
//	        -artifact-dir /var/lib/zkserve
//
// -artifact-dir persists setup artifacts crash-safely so restarts skip
// the trusted setup; -job-journal-dir does the same for async jobs — a
// checksummed WAL replays on boot, so accepted job IDs survive a crash,
// interrupted jobs re-execute, and Idempotency-Key dedup holds across
// restarts; -max-timeout caps per-request timeout_ms overrides;
// -breaker-threshold/-breaker-cooldown size the per-circuit breaker that
// sheds poisoned circuits with 503 circuit_open.
//
// Endpoints (JSON bodies; see internal/provesvc):
//
//	POST /v1/prove         prove a circuit ("backend" picks groth16/plonk)
//	POST /v1/prove/batch   prove several items in one call
//	POST /v1/verify        check a proof against a circuit's verifying key
//	POST /v1/verify/batch  check many proofs; same-circuit groth16 items
//	                       fold into one multi-pairing check
//	POST /v1/jobs          submit a prove/verify asynchronously → 202 + job
//	                       ID; {"items":[…]} submits a batch
//	GET  /v1/jobs/{id}     poll an async job (DELETE cancels it); finished
//	                       jobs are retained for -job-ttl
//	GET  /v1/stats         counters, cache hit rate, per-stage and
//	                       per-backend latencies, async job state
//	GET  /v1/metrics       Prometheus text exposition of the telemetry
//	                       registry (404 with -telemetry=false)
//	GET  /v1/healthz       200 while accepting work, 503 while draining
//
// -verify-coalesce-window/-verify-coalesce-max fold concurrent single
// /v1/verify calls for the same circuit into batched pairing checks: a
// request waits up to the window for company and a pending group flushes
// once it holds max requests. Off by default — lone requests would pay
// the window as pure latency.
//
// -sched (on by default) enables workload-aware scheduling: circuits
// whose decayed arrival rate crosses -sched-hot-rate get -sched-reserve
// dedicated workers each (at most -sched-max-hot circuits), everything
// else shares the residual pool, and the -sched-budget kernel thread
// budget is split jobs × threads from live queue depth. The live
// classification is the "sched" block of /v1/stats; cmd/zkload measures
// the effect.
//
// The retired pre-/v1 paths answer 410 with envelope code "gone".
// Every response carries an X-Request-Id header (the client's, when
// valid) that also appears in the access log; see internal/httpx.
//
// -debug-addr starts a second listener serving net/http/pprof (and the
// same /v1/metrics) for profiling; it is off by default so production
// deployments opt in explicitly.
//
// On SIGINT/SIGTERM the server stops intake, drains in-flight jobs until
// -drain expires, and logs what was dropped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"zkperf/internal/faultinject"
	"zkperf/internal/httpx"
	"zkperf/internal/provesvc"
	"zkperf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent proving workers")
	queue := flag.Int("queue", 256, "job queue depth (beyond this, requests get 429)")
	threads := flag.Int("threads", 1, "engine threads inside one prove/setup")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job deadline (0 disables)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on per-request timeout_ms overrides (0: no ceiling)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight jobs")
	seed := flag.Uint64("seed", uint64(time.Now().UnixNano()), "RNG seed (pin for reproducible runs)")
	backendsFlag := flag.String("backends", "", "comma-separated proving backends to serve (default: all)")
	artifactDir := flag.String("artifact-dir", "", "directory for crash-safe setup-artifact persistence (empty disables)")
	maxBody := flag.Int64("max-body", provesvc.DefaultMaxBodyBytes, "request body size limit in bytes for /v1 prove and verify")
	breakerN := flag.Int("breaker-threshold", provesvc.DefaultBreakerThreshold, "consecutive per-circuit failures that open its breaker (0 disables)")
	breakerCool := flag.Duration("breaker-cooldown", provesvc.DefaultBreakerCooldown, "breaker open-state cooldown before a probe is admitted")
	jobTTL := flag.Duration("job-ttl", 5*time.Minute, "retention of finished async jobs (/v1/jobs) before eviction")
	jobMax := flag.Int("job-max", 1024, "cap on queued+running async jobs (beyond this, submits get 429)")
	jobJournalDir := flag.String("job-journal-dir", "", "directory for the crash-safe async job journal: accepted jobs survive and replay across restarts (empty disables)")
	verifyWindow := flag.Duration("verify-coalesce-window", 0, "max wait to coalesce concurrent single verifies of one circuit into a batched pairing check (0 disables)")
	verifyMax := flag.Int("verify-coalesce-max", 32, "flush a coalesced verify group once it holds this many requests")
	schedOn := flag.Bool("sched", true, "workload-aware scheduling: dedicated workers for hot circuits plus a dynamic intra/inter-job thread split")
	schedBudget := flag.Int("sched-budget", 0, "kernel thread budget the scheduler splits across in-flight jobs (0: GOMAXPROCS)")
	schedHotRate := flag.Float64("sched-hot-rate", 0.5, "decayed arrival rate (req/s) at which a circuit is classified hot")
	schedMaxHot := flag.Int("sched-max-hot", 0, "cap on simultaneously hot circuits (0: as many as the pool can reserve for)")
	schedReserve := flag.Int("sched-reserve", 1, "dedicated workers per hot circuit")
	telemetryOn := flag.Bool("telemetry", true, "always-on telemetry (stage/kernel metrics at /v1/metrics)")
	debugAddr := flag.String("debug-addr", "", "listen address for the pprof debug server (empty disables)")
	accessLog := flag.Bool("access-log", true, "log one line per HTTP request")
	// -fault is deliberately undocumented in the usage line: it arms the
	// fault-injection harness (internal/faultinject) for chaos drills and
	// integration tests, never for production traffic.
	faultSpec := flag.String("fault", "", "")
	flag.Parse()

	if *faultSpec != "" {
		for _, spec := range strings.Split(*faultSpec, ",") {
			if _, err := faultinject.ParseSpec(strings.TrimSpace(spec)); err != nil {
				log.Fatalf("zkserve: -fault: %v", err)
			}
		}
		log.Printf("zkserve: FAULT INJECTION ARMED (%s) — not for production", *faultSpec)
	}

	opts := []provesvc.Option{
		provesvc.WithWorkers(*workers),
		provesvc.WithQueueDepth(*queue),
		provesvc.WithProveThreads(*threads),
		provesvc.WithDefaultTimeout(*timeout),
		provesvc.WithMaxTimeout(*maxTimeout),
		provesvc.WithMaxBodyBytes(*maxBody),
		provesvc.WithBreaker(*breakerN, *breakerCool),
		provesvc.WithJobTTL(*jobTTL, 0),
		provesvc.WithJobMaxActive(*jobMax),
		provesvc.WithSeed(*seed),
		provesvc.WithWorkloadSched(provesvc.WorkloadConfig{
			Enabled:       *schedOn,
			ThreadBudget:  *schedBudget,
			HotMinRate:    *schedHotRate,
			MaxHot:        *schedMaxHot,
			ReservePerHot: *schedReserve,
		}),
	}
	if *artifactDir != "" {
		opts = append(opts, provesvc.WithArtifactDir(*artifactDir))
	}
	if *jobJournalDir != "" {
		opts = append(opts, provesvc.WithJobJournal(*jobJournalDir))
	}
	if *verifyWindow > 0 {
		opts = append(opts, provesvc.WithVerifyCoalesce(*verifyWindow, *verifyMax))
	}
	if !*telemetryOn {
		opts = append(opts, provesvc.WithTelemetry(nil))
	}
	if *backendsFlag != "" {
		var names []string
		for _, name := range strings.Split(*backendsFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		opts = append(opts, provesvc.WithBackends(names...))
	}
	svc := provesvc.New(opts...)
	if err := svc.ArtifactDirError(); err != nil {
		// Persistence failing to initialize is fatal at boot: silently
		// re-running every trusted setup after a restart is exactly the
		// surprise -artifact-dir exists to prevent.
		log.Fatalf("zkserve: -artifact-dir: %v", err)
	}
	if err := svc.JobJournalError(); err != nil {
		// Same contract as -artifact-dir: an operator who asked for durable
		// jobs should not silently run without them.
		log.Fatalf("zkserve: -job-journal-dir: %v", err)
	}
	svc.Start()

	handler := provesvc.NewHandler(svc)
	if *accessLog {
		handler = httpx.LogRequests(handler)
	}
	// Edge timeouts: header/body reads and idle keep-alives are bounded so
	// a slowloris client cannot pin a connection, but there is deliberately
	// no WriteTimeout — a prove response legitimately takes minutes and is
	// bounded by the job deadline instead.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("zkserve listening on %s (%d workers, queue %d, %d threads/job, backends %v)",
		*addr, *workers, *queue, *threads, svc.Backends())
	log.Printf("zkserve: serving /v1/prove /v1/prove/batch /v1/verify /v1/verify/batch /v1/jobs /v1/stats /v1/metrics /v1/healthz (legacy paths answer 410 gone)")
	if *verifyWindow > 0 {
		log.Printf("zkserve: verify coalescing on (window %v, max %d)", *verifyWindow, *verifyMax)
	}
	if *schedOn {
		log.Printf("zkserve: workload-aware scheduling on (hot-rate %.2f/s, reserve %d/hot, budget %d threads)",
			*schedHotRate, *schedReserve, *schedBudget)
	}

	// The debug listener is separate from the serving port so pprof is
	// never exposed by accident: it only exists when -debug-addr is set.
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugMux(svc.Telemetry()),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			if err := dbg.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("zkserve: debug server: %v", err)
			}
		}()
		log.Printf("zkserve: pprof debug server on %s (/debug/pprof/, /v1/metrics)", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("zkserve: %v", err)
	case <-ctx.Done():
	}

	log.Printf("zkserve: draining (deadline %v)…", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the job queue.
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("zkserve: http shutdown: %v", err)
	}
	if dbg != nil {
		dbg.Close()
	}
	rep, err := svc.Shutdown(drainCtx)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("zkserve: drain: %v", err)
	}
	if rep != nil {
		log.Printf("zkserve: drained %d in-flight, dropped %d queued, force-cancelled %d",
			rep.Drained, rep.Dropped, rep.Forced)
		if rep.Dropped > 0 || rep.Forced > 0 {
			fmt.Fprintf(os.Stderr, "zkserve: %d jobs did not complete\n", rep.Dropped+rep.Forced)
			os.Exit(1)
		}
	}
}

// debugMux builds the opt-in debug surface: the full net/http/pprof
// suite plus the same Prometheus exposition the serving port offers, so
// a scraper pointed at the debug port sees profiles and metrics side by
// side.
func debugMux(tel *telemetry.Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /v1/metrics", httpx.Metrics("zkserve", tel.Registry()))
	return mux
}
