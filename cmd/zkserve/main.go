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
// Every flag that shapes the service itself (pool, queue, deadlines,
// breaker, jobs, coalescing, scheduling, telemetry) is registered by
// provesvc.Flags, which reads its defaults from the same table as
// provesvc.New; see that function and zkserve -help. Only the listener
// and process flags below live here.
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
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight jobs")
	debugAddr := flag.String("debug-addr", "", "listen address for the pprof debug server (empty disables)")
	accessLog := flag.Bool("access-log", true, "log one line per HTTP request")
	// -fault is deliberately undocumented in the usage line: it arms the
	// fault-injection harness (internal/faultinject) for chaos drills and
	// integration tests, never for production traffic.
	faultSpec := flag.String("fault", "", "")
	options := provesvc.Flags(flag.CommandLine)
	flag.Parse()

	if *faultSpec != "" {
		for _, spec := range strings.Split(*faultSpec, ",") {
			if _, err := faultinject.ParseSpec(strings.TrimSpace(spec)); err != nil {
				log.Fatalf("zkserve: -fault: %v", err)
			}
		}
		log.Printf("zkserve: FAULT INJECTION ARMED (%s) — not for production", *faultSpec)
	}

	svc := provesvc.New(options()...)
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
	st := svc.Stats()
	log.Printf("zkserve listening on %s (%d workers, queue %d, backends %v)",
		*addr, st.Service.Workers, st.Queue.Capacity, svc.Backends())
	log.Printf("zkserve: serving /v1/prove /v1/prove/batch /v1/verify /v1/verify/batch /v1/jobs /v1/stats /v1/metrics /v1/healthz (legacy paths answer 410 gone)")
	if st.Sched.Enabled {
		log.Printf("zkserve: workload-aware scheduling on (hot-rate %.2f/s, budget %d threads)",
			st.Sched.HotMinRate, st.Sched.ThreadBudget)
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
