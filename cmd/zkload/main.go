// Command zkload is the serving-layer load harness: an open/closed-loop
// request generator with Zipf-distributed circuit popularity, warmup and
// measurement windows, and latency-percentile output — the experiment
// driver behind the throughput-vs-p99 curves in EXPERIMENTS.md, in the
// spirit of ddtxn's bm.py driver (hot keys, skew sweeps, phase knobs).
//
// It drives a real zkserve (or the zkgateway) over HTTP:
//
//	zkload -addr http://localhost:8090 -clients 8 -zipf 1.0 \
//	       -circuits 16 -warmup 2s -measure 10s
//
// or spins up an in-process zkserve on a loopback port so CI and
// single-command experiments need no separate server:
//
//	zkload -inproc -serve-flags '-workers 4' -requests 300 -zipf 1.0
//
// The in-process service boots through provesvc.Flags, the same flags
// and defaults as zkserve: -serve-flags takes any zkserve service flag,
// and zkload's -seed seeds the service unless -serve-flags sets -seed.
//
// Closed loop (default): -clients goroutines each keep exactly one
// request outstanding — throughput is what the service sustains.
// Open loop: -rate R dispatches requests on a Poisson-free fixed clock
// regardless of completions — latency under offered load, the honest
// way to find the knee of the throughput-vs-p99 curve. -sweep runs the
// open loop at several rates in one invocation, printing one result
// line per rate.
//
// Requests draw from -circuits distinct circuits with Zipf(s=-zipf)
// popularity: rank 0 is the hot circuit, the tail is cold. Per-rank
// latency splits in the report make the scheduler's hot/cold behavior
// visible directly.
//
// -async switches the harness to the async job API: each request is a
// POST /v1/jobs submit followed by polling (every -poll) until the job
// is terminal, with latency measured submit → completion. This is the
// mode the crash-restart drill (scripts/e2e_crash.sh) uses — pollers
// ride out a server restart instead of failing the sample on the first
// refused connection.
//
// Output is stable, grep-friendly "zkload: key=value" lines; exit
// status is nonzero when the measurement window completes zero
// successful proofs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zkperf/internal/circuit"
	"zkperf/internal/provesvc"
)

// zipfDist is a bounded discrete Zipf sampler: p(k) ∝ 1/(k+1)^s over
// ranks [0, n). Hand-rolled (CDF + binary search) because math/rand's
// Zipf requires s > 1 while load studies conventionally use s = 1.0.
type zipfDist struct{ cdf []float64 }

func newZipf(n int, s float64) *zipfDist {
	w := make([]float64, n)
	var total float64
	for k := 0; k < n; k++ {
		w[k] = 1 / math.Pow(float64(k+1), s)
		total += w[k]
	}
	cdf := make([]float64, n)
	var c float64
	for k := range w {
		c += w[k] / total
		cdf[k] = c
	}
	cdf[n-1] = 1 // guard against float drift at the tail
	return &zipfDist{cdf}
}

func (z *zipfDist) sample(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// sample is one measured request.
type sample struct {
	rank int
	lat  time.Duration
}

// recorder collects measured samples and error codes; it only admits
// requests that started inside the measurement window.
type recorder struct {
	mu      sync.Mutex
	samples []sample
	errs    map[string]int
}

func (r *recorder) ok(rank int, lat time.Duration) {
	r.mu.Lock()
	r.samples = append(r.samples, sample{rank, lat})
	r.mu.Unlock()
}

func (r *recorder) err(code string) {
	r.mu.Lock()
	if r.errs == nil {
		r.errs = map[string]int{}
	}
	r.errs[code]++
	r.mu.Unlock()
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latLine formats one "latency_ms" report line over a sample subset.
func latLine(label string, lats []time.Duration) string {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) == 0 {
		return fmt.Sprintf("zkload: latency_ms %s n=0", label)
	}
	return fmt.Sprintf("zkload: latency_ms %s n=%d p50=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f",
		label, len(lats),
		ms(percentile(lats, 0.50)), ms(percentile(lats, 0.90)),
		ms(percentile(lats, 0.95)), ms(percentile(lats, 0.99)),
		ms(lats[len(lats)-1]))
}

// loadgen is the shared state of one measurement run.
type loadgen struct {
	base     string
	client   *http.Client
	backend  string
	sources  []string // rank → circuit source
	zipf     *zipfDist
	rec      *recorder
	measure0 time.Time // samples starting before this are warmup
	deadline time.Time
	budget   int64 // 0: unbounded; else total request cap
	churn    bool  // cold ranks are one-off circuits (fresh cache key each)
	async    bool  // drive POST /v1/jobs + poll instead of sync /v1/prove
	poll     time.Duration
	issued   atomic.Int64
	nonce    atomic.Int64
	inflight atomic.Int64
}

// take claims one request slot, or false when the budget or the clock
// has run out.
func (g *loadgen) take() bool {
	if !time.Now().Before(g.deadline) {
		return false
	}
	if g.budget > 0 && g.issued.Add(1) > g.budget {
		return false
	}
	return true
}

// fire issues one prove for the given rank and records the outcome if
// the request started inside the measurement window. Under -churn,
// cold ranks get a unique source per request (a nonce comment changes
// the cache key, not the constraint system), so every cold request pays
// the full compile+setup a one-off circuit pays in production.
func (g *loadgen) fire(rank int) {
	if g.async {
		g.fireAsync(rank)
		return
	}
	src := g.sources[rank]
	if g.churn && rank > 0 {
		src = fmt.Sprintf("// one-off %d\n%s", g.nonce.Add(1), src)
	}
	body, _ := json.Marshal(map[string]any{
		"circuit": src,
		"backend": g.backend,
		"inputs":  map[string]string{"x": "2"},
	})
	start := time.Now()
	resp, err := g.client.Post(g.base+"/v1/prove", "application/json", bytes.NewReader(body))
	measured := !start.Before(g.measure0)
	if err != nil {
		if measured {
			g.rec.err("transport")
		}
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if measured {
			g.rec.ok(rank, time.Since(start))
		}
		return
	}
	var env struct {
		Code string `json:"code"`
	}
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Code == "" {
		env.Code = "http_" + strconv.Itoa(resp.StatusCode)
	}
	if measured {
		g.rec.err(env.Code)
	}
}

// fireAsync drives one prove through the async job API: submit, then
// poll every g.poll until the job is terminal. Latency is submit →
// observed completion, so manager queue wait is included — the delay an
// async client actually experiences. Polling deliberately ignores the
// server's coarse 1s Retry-After pacing hint (meant for humans and
// CLIs, too slow for a load generator) and rides out transport errors —
// the crash drill restarts the server mid-poll.
func (g *loadgen) fireAsync(rank int) {
	src := g.sources[rank]
	if g.churn && rank > 0 {
		src = fmt.Sprintf("// one-off %d\n%s", g.nonce.Add(1), src)
	}
	body, _ := json.Marshal(map[string]any{
		"kind":    "prove",
		"circuit": src,
		"backend": g.backend,
		"inputs":  map[string]string{"x": "2"},
	})
	start := time.Now()
	measured := !start.Before(g.measure0)
	resp, err := g.client.Post(g.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		if measured {
			g.rec.err("transport")
		}
		return
	}
	var sub struct {
		ID   string `json:"id"`
		Code string `json:"code"` // error envelope on a rejected submit
	}
	decErr := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		code := sub.Code
		if code == "" {
			code = "http_" + strconv.Itoa(resp.StatusCode)
		}
		if measured {
			g.rec.err(code)
		}
		return
	}
	if decErr != nil || sub.ID == "" {
		if measured {
			g.rec.err("bad_job_reply")
		}
		return
	}
	// Jobs accepted near the deadline still get a grace window to finish;
	// a poller that outlives it books poll_timeout rather than spinning
	// forever.
	grace := g.deadline.Add(30 * time.Second)
	for {
		state, code, ok := g.pollJob(sub.ID)
		if ok {
			switch state {
			case "done":
				if measured {
					g.rec.ok(rank, time.Since(start))
				}
				return
			case "failed":
				if measured {
					g.rec.err(code)
				}
				return
			}
		}
		if !time.Now().Before(grace) {
			if measured {
				g.rec.err("poll_timeout")
			}
			return
		}
		time.Sleep(g.poll)
	}
}

// pollJob fetches one job's state; code carries the failure envelope
// for failed (or evicted) jobs. ok is false on transport or decode
// trouble — the caller keeps polling, the server may be restarting.
func (g *loadgen) pollJob(id string) (state, code string, ok bool) {
	resp, err := g.client.Get(g.base + "/v1/jobs/" + id)
	if err != nil {
		return "", "", false
	}
	defer resp.Body.Close()
	var st struct {
		State string `json:"state"`
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
		Code string `json:"code"` // top-level envelope (e.g. 404 job_not_found)
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return "", "", false
	}
	if resp.StatusCode != http.StatusOK {
		code = st.Code
		if code == "" {
			code = "http_" + strconv.Itoa(resp.StatusCode)
		}
		return "failed", code, true
	}
	code = st.Error.Code
	if st.State == "failed" && code == "" {
		code = "job_failed"
	}
	return st.State, code, true
}

// runClosed keeps `clients` requests outstanding until the deadline or
// budget is exhausted.
func (g *loadgen) runClosed(clients int, seed int64) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			for g.take() {
				g.fire(g.zipf.sample(rng))
			}
		}(c)
	}
	wg.Wait()
}

// runOpen dispatches requests at a fixed rate regardless of completions
// (each arrival gets its own goroutine), so queueing delay shows up in
// latency instead of throttling the generator.
func (g *loadgen) runOpen(rate float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tick := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer tick.Stop()
	var wg sync.WaitGroup
	for g.take() {
		rank := g.zipf.sample(rng)
		wg.Add(1)
		g.inflight.Add(1)
		go func() {
			defer wg.Done()
			defer g.inflight.Add(-1)
			g.fire(rank)
		}()
		<-tick.C
	}
	wg.Wait()
}

// report prints the stable result lines and returns the number of
// successful proofs in the window.
func (g *loadgen) report(elapsed time.Duration) int {
	g.rec.mu.Lock()
	samples := append([]sample(nil), g.rec.samples...)
	errs := make(map[string]int, len(g.rec.errs))
	for k, v := range g.rec.errs {
		errs[k] = v
	}
	g.rec.mu.Unlock()

	var all, hot, cold []time.Duration
	for _, s := range samples {
		all = append(all, s.lat)
		if s.rank == 0 {
			hot = append(hot, s.lat)
		} else {
			cold = append(cold, s.lat)
		}
	}
	nerr := 0
	for _, n := range errs {
		nerr += n
	}
	fmt.Printf("zkload: result ok=%d err=%d elapsed=%.1fs throughput=%.2f req/s\n",
		len(all), nerr, elapsed.Seconds(), float64(len(all))/elapsed.Seconds())
	fmt.Println(latLine("all ", all))
	fmt.Println(latLine("hot ", hot))
	fmt.Println(latLine("cold", cold))
	codes := make([]string, 0, len(errs))
	for c := range errs {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		fmt.Printf("zkload: errors code=%s n=%d\n", c, errs[c])
	}
	return len(all)
}

// schedLine fetches /v1/stats and prints the scheduler's view of the
// run (hot set, reservations, thread grants) for correlation.
func schedLine(client *http.Client, base string) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		Sched provesvc.SchedStats `json:"sched"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	s := st.Sched
	fmt.Printf("zkload: sched enabled=%v hot=%d reserved=%d/%d promotions=%d demotions=%d grant_p50=%d drain=%.1f/s\n",
		s.Enabled, s.HotCount, s.ReservedWorkers, s.Workers,
		s.Promotions, s.Demotions, s.ThreadGrant.P50, s.DrainRatePerSec)
}

func main() {
	addr := flag.String("addr", "", "target base URL (e.g. http://localhost:8090); empty requires -inproc")
	backendName := flag.String("backend", "groth16", "proving backend to request")
	clients := flag.Int("clients", 8, "closed-loop concurrency (one outstanding request each)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0: closed loop)")
	sweep := flag.String("sweep", "", "comma-separated open-loop rates to sweep, e.g. 5,10,20,40")
	zipfS := flag.Float64("zipf", 1.0, "Zipf skew s over circuit ranks (p(k) ∝ 1/(k+1)^s)")
	ncirc := flag.Int("circuits", 16, "number of distinct circuits (rank 0 is the hot one)")
	size := flag.Int("size", 16, "base circuit size (rank k proves Exponentiate(size+k))")
	coldSize := flag.Int("cold-size", 0, "size of cold-rank circuits (0: size+k) — model a light hot circuit amid heavier one-offs")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup window excluded from the report")
	measure := flag.Duration("measure", 10*time.Second, "measurement window per run")
	requests := flag.Int64("requests", 0, "stop after this many requests (0: time-bounded only)")
	churn := flag.Bool("churn", false, "cold ranks are one-off circuits: each request gets a fresh cache key and pays compile+setup")
	async := flag.Bool("async", false, "drive POST /v1/jobs + poll-until-done instead of synchronous /v1/prove")
	pollIv := flag.Duration("poll", 50*time.Millisecond, "job status poll interval in -async mode")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	inproc := flag.Bool("inproc", false, "spin up an in-process zkserve on a loopback port")
	serveFlags := flag.String("serve-flags", "", "zkserve service flags for the -inproc service, e.g. '-workers 2 -sched=false'")
	flag.Parse()

	if *ncirc < 1 || *clients < 1 {
		log.Fatal("zkload: -circuits and -clients must be >= 1")
	}

	base := *addr
	var svc *provesvc.Service
	if *serveFlags != "" && !*inproc {
		log.Fatal("zkload: -serve-flags needs -inproc")
	}
	if *inproc {
		fs := flag.NewFlagSet("zkload -serve-flags", flag.ExitOnError)
		options := provesvc.Flags(fs)
		fs.Set("seed", strconv.FormatUint(uint64(*seed), 10))
		fs.Parse(strings.Fields(*serveFlags))
		svc = provesvc.New(options()...)
		svc.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("zkload: loopback listen: %v", err)
		}
		srv := &http.Server{Handler: provesvc.NewHandler(svc)}
		go srv.Serve(ln)
		base = "http://" + ln.Addr().String()
		defer func() {
			srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		}()
		st := svc.Stats()
		fmt.Printf("zkload: inproc zkserve at %s (workers=%d queue=%d sched=%v)\n",
			base, st.Service.Workers, st.Queue.Capacity, st.Sched.Enabled)
	}
	if base == "" {
		log.Fatal("zkload: set -addr or -inproc")
	}
	base = strings.TrimRight(base, "/")

	sources := make([]string, *ncirc)
	for k := range sources {
		if k > 0 && *coldSize > 0 {
			sources[k] = circuit.ExponentiateSource(*coldSize + k)
		} else {
			sources[k] = circuit.ExponentiateSource(*size + k)
		}
	}
	httpc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4096,
		MaxIdleConnsPerHost: 4096,
	}}

	run := func(rate float64) int {
		g := &loadgen{
			base:     base,
			client:   httpc,
			backend:  *backendName,
			sources:  sources,
			zipf:     newZipf(*ncirc, *zipfS),
			rec:      &recorder{},
			measure0: time.Now().Add(*warmup),
			deadline: time.Now().Add(*warmup + *measure),
			budget:   *requests,
			churn:    *churn,
			async:    *async,
			poll:     *pollIv,
		}
		start := time.Now()
		if rate > 0 {
			g.runOpen(rate, *seed)
		} else {
			g.runClosed(*clients, *seed)
		}
		elapsed := time.Since(start) - *warmup
		if elapsed <= 0 {
			elapsed = time.Since(start)
		}
		return g.report(elapsed)
	}

	mode := "closed"
	if *sweep != "" || *rate > 0 {
		mode = "open"
	}
	fmt.Printf("zkload: config mode=%s target=%s backend=%s zipf=%.2f circuits=%d size=%d clients=%d warmup=%v measure=%v requests=%d churn=%v async=%v\n",
		mode, base, *backendName, *zipfS, *ncirc, *size, *clients, *warmup, *measure, *requests, *churn, *async)
	if *coldSize > 0 {
		fmt.Printf("zkload: config cold_size=%d (heterogeneous: hot=%d constraints, cold=%d+)\n", *coldSize, *size, *coldSize)
	}

	total := 0
	if *sweep != "" {
		for _, f := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				log.Fatalf("zkload: bad -sweep rate %q", f)
			}
			fmt.Printf("zkload: sweep rate=%.1f req/s\n", r)
			total += run(r)
		}
	} else {
		total += run(*rate)
	}
	schedLine(httpc, base)

	if total == 0 {
		fmt.Println("zkload: FAIL no successful proofs in the measurement window")
		os.Exit(1)
	}
}
