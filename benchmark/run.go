package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"zkperf/internal/provesvc"
)

// Wire shapes of the /v1 API, as a client sees them.
type proveBody struct {
	Curve   string            `json:"curve"`
	Backend string            `json:"backend"`
	Circuit string            `json:"circuit"`
	Inputs  map[string]string `json:"inputs"`
}

type proveReply struct {
	Proof       string   `json:"proof"`
	Public      []string `json:"public"`
	QueueWaitMs float64  `json:"queue_wait_ms"`
	WitnessMs   float64  `json:"witness_ms"`
	ProveMs     float64  `json:"prove_ms"`
	TotalMs     float64  `json:"total_ms"`
}

type verifyBody struct {
	Curve   string   `json:"curve"`
	Backend string   `json:"backend"`
	Circuit string   `json:"circuit"`
	Proof   string   `json:"proof"`
	Public  []string `json:"public"`
}

type errEnvelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type proveBatchReply struct {
	Results []struct {
		proveReply
		Error *errEnvelope `json:"error"`
	} `json:"results"`
}

type verifyReply struct {
	Valid bool `json:"valid"`
}

type verifyBatchReply struct {
	Results []struct {
		Valid *bool        `json:"valid"`
		Error *errEnvelope `json:"error"`
	} `json:"results"`
}

// caller is one client's connection to the service.
type caller struct {
	http *http.Client
	base string
}

func newCaller(base string) *caller {
	return &caller{base: base, http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

// post sends one JSON request and decodes a 200 reply into reply.
func (c *caller) post(path, requestID string, body, reply any) error {
	return c.do(http.MethodPost, path, requestID, http.StatusOK, body, reply)
}

// do sends one request (body may be nil) and decodes the reply when the
// status is the wanted one. Any other outcome is an error naming the
// service's stable error code.
func (c *caller) do(method, path, requestID string, want int, body, reply any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", requestID)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var env errEnvelope
		raw, _ := io.ReadAll(resp.Body) // best effort: the status alone already names the failure
		_ = json.Unmarshal(raw, &env)
		return fmt.Errorf("%s %s: http %d %s: %s", method, path, resp.StatusCode, env.Code, env.Message)
	}
	return json.NewDecoder(resp.Body).Decode(reply)
}

// proofItem is one proof proved or checked by a request.
type proofItem struct {
	Circuit circuitSpec
	X       uint64     // prove roles: the input sent
	Reply   proveReply // prove roles: what came back
	Entry   int        // verify roles: pool position sent
	Valid   bool       // verify roles: the service's answer
	Err     string     // refused, errored or malformed reply
}

// sample is one request as its client saw it.
type sample struct {
	Start   time.Time
	Latency time.Duration
	Filing  time.Duration // traced windows: what recording the request's spans added to the client's cycle
	Items   []proofItem
}

func (s *sample) ok() bool {
	for i := range s.Items {
		if s.Items[i].Err != "" {
			return false
		}
	}
	return true
}

// poolEntry is one seeded verify input and the answer it must get.
type poolEntry struct {
	Proof  string
	Public []string
	Valid  bool
}

// env is a running in-process zkserve plus the inputs made for it.
type env struct {
	w        *workload
	seed     uint64
	svc      *provesvc.Service
	base     string
	unlisten func()
	pools    map[circuitSpec][]poolEntry
	spans    *spanLog // nil unless tracing
}

// start brings the service up the way cmd/zkserve does and sends the
// warm-up requests: per circuit one prove (which compiles, runs the
// trusted setup and builds the fixed-base tables, as a first request
// would) and one verify of its proof.
func start(w *workload, seed uint64, spans *spanLog) (*env, error) {
	e := &env{w: w, seed: seed, spans: spans, pools: map[circuitSpec][]poolEntry{}}
	e.svc = provesvc.New(w.serviceOptions(seed)...)
	e.svc.Start()
	var err error
	if e.base, e.unlisten, err = listen(provesvc.NewHandler(e.svc)); err != nil {
		e.svc.Shutdown(context.Background())
		return nil, err
	}

	c := newCaller(e.base)
	rng := newRNG(seed, "warmup")
	for _, cs := range w.circuits() {
		x := freshX(rng)
		var pr proveReply
		if err := c.post("/v1/prove", "warmup", proveBody{cs.Curve, cs.Backend, cs.source(), map[string]string{"x": xString(x)}}, &pr); err != nil {
			e.stop()
			return nil, fmt.Errorf("warm-up prove %+v: %w", cs, err)
		}
		var vr verifyReply
		if err := c.post("/v1/verify", "warmup", verifyBody{cs.Curve, cs.Backend, cs.source(), pr.Proof, pr.Public}, &vr); err != nil || !vr.Valid {
			e.stop()
			return nil, fmt.Errorf("warm-up verify %+v: valid=%v err=%v", cs, vr.Valid, err)
		}
	}
	return e, nil
}

// stop shuts the listener and the service down and waits for both.
func (e *env) stop() {
	e.unlisten()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.svc.Shutdown(ctx)
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) // returns when stop shuts the server down
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}, nil
}

// makePools proves PoolSize seeded inputs per verify circuit through the
// service and swaps a wrong public input into one entry in wrongEvery.
func (e *env) makePools() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, cs := range e.w.circuits() {
		wg.Add(1)
		go func(cs circuitSpec) {
			defer wg.Done()
			c := newCaller(e.base)
			rng := newRNG(e.seed, "pool/"+cs.Curve)
			wrong := wrongPositions(newRNG(e.seed, "wrong/"+cs.Curve), e.w.PoolSize, wrongEvery)
			pool := make([]poolEntry, e.w.PoolSize)
			for i := range pool {
				x := freshX(rng)
				var pr proveReply
				if err := c.post("/v1/prove", "pool", proveBody{cs.Curve, cs.Backend, cs.source(), map[string]string{"x": xString(x)}}, &pr); err != nil {
					mu.Lock()
					firstErr = fmt.Errorf("pool prove %+v: %w", cs, err)
					mu.Unlock()
					return
				}
				pool[i] = poolEntry{Proof: pr.Proof, Public: pr.Public, Valid: true}
				if wrong[i] {
					pool[i].Public, pool[i].Valid = []string{cs.wrongPublic(x)}, false
				}
			}
			mu.Lock()
			e.pools[cs] = pool
			mu.Unlock()
		}(cs)
	}
	wg.Wait()
	return firstErr
}

// window runs the first n clients closed-loop for d and returns each
// client's samples. label separates the seeded streams of different
// windows.
func (e *env) window(n int, d time.Duration, traced bool, label string) [][]sample {
	out := make([][]sample, n)
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := range out {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out[k] = e.client(k, until, traced, label)
		}(k)
	}
	wg.Wait()
	return out
}

// client is one closed loop: build a seeded request, send it, wait, note
// what came back, until the window closes. In a traced window the
// request's spans are recorded once the reply is in, so tracing leaves
// the latency alone and costs the client the filing time before its next
// request.
func (e *env) client(k int, until time.Time, traced bool, label string) []sample {
	spec := e.w.Clients[k]
	stream := fmt.Sprintf("%s/client%d", label, k)
	rng := newRNG(e.seed, stream)
	c := newCaller(e.base)
	time.Sleep(spec.StartAfter)
	var samples []sample
	for i := 0; time.Now().Before(until); i++ {
		id := fmt.Sprintf("%s/%d", stream, i)
		var s sample
		send := e.build(spec, rng, &s)
		s.Start = time.Now()
		err := send(c, id)
		s.Latency = time.Since(s.Start)
		if err != nil {
			for j := range s.Items {
				s.Items[j].Err = err.Error()
			}
		}
		if traced {
			e.recordSpans(spec.Role, id, &s)
			s.Filing = time.Since(s.Start) - s.Latency
		}
		samples = append(samples, s)
	}
	return samples
}

// build draws the next request's inputs and returns the call that sends
// it and files the reply into s.Items.
func (e *env) build(spec clientSpec, rng *rand.Rand, s *sample) func(c *caller, id string) error {
	n := max(spec.Batch, 1)
	s.Items = make([]proofItem, n)
	switch spec.Role {
	case roleProve, roleProveBatch:
		bodies := make([]proveBody, n)
		for j := range bodies {
			cs := spec.Circuits[rng.Intn(len(spec.Circuits))]
			x := freshX(rng)
			s.Items[j] = proofItem{Circuit: cs, X: x}
			bodies[j] = proveBody{cs.Curve, cs.Backend, cs.source(), map[string]string{"x": xString(x)}}
		}
		if spec.Role == roleProve {
			return func(c *caller, id string) error {
				return c.post("/v1/prove", id, bodies[0], &s.Items[0].Reply)
			}
		}
		return func(c *caller, id string) error {
			var rep proveBatchReply
			if err := c.post("/v1/prove/batch", id, map[string]any{"items": bodies}, &rep); err != nil {
				return err
			}
			if len(rep.Results) != n {
				return fmt.Errorf("batch reply has %d results for %d items", len(rep.Results), n)
			}
			for j, r := range rep.Results {
				s.Items[j].Reply = r.proveReply
				if r.Error != nil {
					s.Items[j].Err = r.Error.Code
				}
			}
			return nil
		}
	default:
		cs := spec.Circuits[0]
		pool := e.pools[cs]
		bodies := make([]verifyBody, n)
		for j, entry := range drawEntries(rng, pool, n) {
			s.Items[j] = proofItem{Circuit: cs, Entry: entry}
			bodies[j] = verifyBody{cs.Curve, cs.Backend, cs.source(), pool[entry].Proof, pool[entry].Public}
		}
		if spec.Role == roleVerify {
			return func(c *caller, id string) error {
				var rep verifyReply
				err := c.post("/v1/verify", id, bodies[0], &rep)
				s.Items[0].Valid = rep.Valid
				return err
			}
		}
		return func(c *caller, id string) error {
			var rep verifyBatchReply
			if err := c.post("/v1/verify/batch", id, map[string]any{"items": bodies}, &rep); err != nil {
				return err
			}
			if len(rep.Results) != n {
				return fmt.Errorf("batch reply has %d results for %d items", len(rep.Results), n)
			}
			for j, r := range rep.Results {
				switch {
				case r.Error != nil:
					s.Items[j].Err = r.Error.Code
				case r.Valid == nil:
					s.Items[j].Err = "no verdict"
				default:
					s.Items[j].Valid = *r.Valid
				}
			}
			return nil
		}
	}
}

// drawEntries picks n pool positions. A single draw is uniform, so one
// single verify in wrongEvery is invalid. A batch holds exactly
// n/wrongEvery invalid entries at seeded positions: the folded check
// bisects once per invalid proof, so a count that varied from batch to
// batch would make batch latency a property of the seed.
func drawEntries(rng *rand.Rand, pool []poolEntry, n int) []int {
	if n < wrongEvery {
		out := make([]int, n)
		for j := range out {
			out[j] = rng.Intn(len(pool))
		}
		return out
	}
	var valid, wrong []int
	for i := range pool {
		if pool[i].Valid {
			valid = append(valid, i)
		} else {
			wrong = append(wrong, i)
		}
	}
	out := make([]int, 0, n)
	for len(out) < n/wrongEvery {
		out = append(out, wrong[rng.Intn(len(wrong))])
	}
	for len(out) < n {
		out = append(out, valid[rng.Intn(len(valid))])
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

var roleNames = map[role]string{
	roleProve: "client.prove", roleProveBatch: "client.prove_batch",
	roleVerify: "client.verify", roleVerifyBatch: "client.verify_batch",
}

// recordSpans files one request: a root span for what the client saw
// and, for a single prove, the stages the reply publishes. The reply
// gives durations, not start times, so the stages are laid out in the
// order the service runs them (queue, lookup gap, witness, prove) inside
// a server interval centred in the client's: durations and self times are
// measured, offsets within the request are inferred.
func (e *env) recordSpans(r role, id string, s *sample) {
	end := s.Start.Add(s.Latency)
	root := e.spans.add(0, roleNames[r], id, s.Start, end)
	if r != roleProve || !s.ok() {
		return
	}
	dur := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	rep := s.Items[0].Reply
	total := min(dur(rep.TotalMs), s.Latency)
	t0 := s.Start.Add((s.Latency - total) / 2)
	t1 := t0.Add(total)
	server := e.spans.add(root, "provesvc.request", id, t0, t1)
	e.spans.add(server, "provesvc.queue_wait", id, t0, t0.Add(dur(rep.QueueWaitMs)))
	proveStart := t1.Add(-dur(rep.ProveMs))
	e.spans.add(server, "witness.solve", id, proveStart.Add(-dur(rep.WitnessMs)), proveStart)
	e.spans.add(server, "backend.prove", id, proveStart, t1)
}
