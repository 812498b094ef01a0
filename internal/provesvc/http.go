package provesvc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"zkperf/internal/backend"
	"zkperf/internal/faultinject"
	"zkperf/internal/ff"
	"zkperf/internal/httpx"
	"zkperf/internal/jobs"
	"zkperf/internal/telemetry"
	"zkperf/internal/witness"
)

// The HTTP front-end: stdlib-only JSON endpoints over the service,
// versioned under /v1.
//
//	POST /v1/prove         {"curve","backend","circuit","inputs":{name:value},"timeout_ms"}
//	POST /v1/prove/batch   {"items":[<prove body>, …]}
//	POST /v1/verify        {"curve","backend","circuit","proof","public":[values]}
//	POST /v1/verify/batch  {"items":[<verify body>, …]}
//	POST /v1/jobs          async submit: {"kind", …} or {"items":[…]} → 202 (see jobs_http.go)
//	GET  /v1/jobs/{id}     poll an async job; DELETE cancels it
//	GET  /v1/stats         the documented {service,queue,cache,backends,…,jobs} snapshot
//	GET  /v1/metrics       Prometheus text exposition of the telemetry registry
//	GET  /v1/healthz       200 while accepting work, 503 while draining
//
// The shared edge (internal/httpx) stamps every request with an ID that
// rides the request context for the whole job, answers the legacy paths
// and /v1/metrics, and caps bodies.
//
// The batch endpoints share one convention: the request is
// {"items":[…]} and the response is {"results":[{"index",…}]} with one
// entry per item, where a failed item carries the standard error
// envelope under "error" instead of its result fields; the retired
// {"requests":[…]} spelling is rejected with code "invalid_request".
// "backend" selects the proving scheme and defaults to "groth16".
// Field elements travel as decimal or 0x-hex strings; proofs as hex of
// the backend's serialization.
//
// Errors use the edge's {"code","message","retryable"} envelope; the
// node's policy is errorClass (which code, which status, retryable or
// not: load shedding, drains and deadlines are retryable; malformed
// requests and invalid proofs are not) plus retryAfter.

type proveBody struct {
	Curve     string            `json:"curve"`
	Backend   string            `json:"backend"`
	Circuit   string            `json:"circuit"`
	Inputs    map[string]string `json:"inputs"`
	TimeoutMs int64             `json:"timeout_ms"`
}

type proveReply struct {
	Backend     string   `json:"backend"`
	Proof       string   `json:"proof"`
	Public      []string `json:"public"` // circuit public wires, constant wire omitted
	QueueWaitMs float64  `json:"queue_wait_ms"`
	WitnessMs   float64  `json:"witness_ms"`
	ProveMs     float64  `json:"prove_ms"`
	TotalMs     float64  `json:"total_ms"`
}

// batchBody and verifyBatchBody are the unified batch shape; Requests
// only exists to catch the retired spelling (httpx.Retired).
type batchBody struct {
	Items    []proveBody     `json:"items"`
	Requests json.RawMessage `json:"requests"`
}

type batchItem struct {
	Index int `json:"index"`
	*proveReply
	Error *httpx.Envelope `json:"error,omitempty"`
}

type verifyBody struct {
	Curve   string   `json:"curve"`
	Backend string   `json:"backend"`
	Circuit string   `json:"circuit"`
	Proof   string   `json:"proof"`
	Public  []string `json:"public"`
}

type verifyBatchBody struct {
	Items    []verifyBody    `json:"items"`
	Requests json.RawMessage `json:"requests"`
}

// verifyBatchItem is one slot of the /v1/verify/batch response. Valid is
// a pointer so a checked-but-invalid proof serializes as "valid": false
// while an errored item omits the field entirely.
type verifyBatchItem struct {
	Index int             `json:"index"`
	Valid *bool           `json:"valid,omitempty"`
	Error *httpx.Envelope `json:"error,omitempty"`
}

// NewHandler wraps the service in an http.Handler serving the /v1 API
// behind the shared edge; each 410 on a legacy path is booked as "gone".
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/prove", s.handleProve)
	mux.HandleFunc("POST /v1/prove/batch", s.handleProveBatch)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/verify/batch", s.handleVerifyBatch)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return httpx.Mount(mux, "provesvc", s.tel.Registry(), func() { s.recordErrorCode("gone") })
}

// errorClass maps a service error to its HTTP status, stable error code
// and retryability; errors it does not claim take the edge's class.
// Documented in the README's error-code table.
func errorClass(err error) (status int, code string, retryable bool) {
	var replayed *jobs.ReplayedError
	switch {
	case errors.As(err, &replayed):
		// A journaled failure restored after a restart keeps the envelope
		// its original error was classified into.
		status, code, retryable = replayed.Status, replayed.Code, replayed.Retryable
		if status == 0 {
			status = http.StatusInternalServerError
		}
		if code == "" {
			code = "internal_error"
		}
		return status, code, retryable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full", true
	case errors.Is(err, jobs.ErrTooManyJobs):
		return http.StatusTooManyRequests, "too_many_jobs", true
	case errors.Is(err, jobs.ErrNotFound):
		return http.StatusNotFound, "job_not_found", false
	case errors.Is(err, ErrDraining), errors.Is(err, jobs.ErrDraining):
		return http.StatusServiceUnavailable, "draining", true
	case errors.Is(err, ErrDropped), errors.Is(err, jobs.ErrDropped):
		return http.StatusServiceUnavailable, "dropped", true
	case errors.Is(err, ErrCircuitOpen):
		return http.StatusServiceUnavailable, "circuit_open", true
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError, "internal_error", false
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded", true
	case errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "canceled", false
	case errors.Is(err, backend.ErrUnknownBackend):
		return http.StatusBadRequest, "unknown_backend", false
	case errors.Is(err, ErrUnknownCurve):
		return http.StatusBadRequest, "unknown_curve", false
	case errors.Is(err, backend.ErrInvalidProof):
		return http.StatusBadRequest, "invalid_proof", false
	default:
		status, code := httpx.Classify(err)
		return status, code, false
	}
}

func envelope(err error) (int, *httpx.Envelope) {
	status, code, retryable := errorClass(err)
	return status, &httpx.Envelope{Code: code, Message: err.Error(), Retryable: retryable}
}

// writeError serves err's envelope; see writeEnvelope.
func (s *Service) writeError(w http.ResponseWriter, err error) {
	status, env := envelope(err)
	s.writeEnvelope(w, status, env)
}

// writeEnvelope answers with env and books its code into the `errors`
// block of /v1/stats and the zkp_http_errors_total metric, so every
// error code a client can see is also visible to the operator. Shed
// responses carry a Retry-After hint so well-behaved clients back off
// at least as long as the condition will actually last.
func (s *Service) writeEnvelope(w http.ResponseWriter, status int, env *httpx.Envelope) {
	s.recordErrorCode(env.Code)
	httpx.WriteError(w, status, env, s.retryAfter(env.Code))
}

// decode is the preamble of the synchronous /v1 routes: the route's
// fault point, then one JSON value of the capped body into v. false
// means the error answer has been served.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, point string, v any) bool {
	if err := faultinject.Point(r.Context(), point); err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", ErrInternal, err))
		return false
	}
	if err := httpx.Decode(w, r, s.cfg.maxBodyBytes, v); err != nil {
		s.writeError(w, fmt.Errorf("provesvc: bad request body: %w", err))
		return false
	}
	return true
}

// retired answers a batch body that still carries the retired
// "requests" key; true means the answer has been served.
func (s *Service) retired(w http.ResponseWriter, requests json.RawMessage) bool {
	env := httpx.Retired(requests, "provesvc")
	if env != nil {
		s.writeEnvelope(w, http.StatusBadRequest, env)
	}
	return env != nil
}

// retryAfter derives the Retry-After hint for a shed code: circuit_open
// lasts exactly the breaker cooldown; queue saturation clears when the
// queue drains, so the hint is depth ÷ observed drain rate (from the
// scheduler's decayed counters), falling back to a flat second before
// any drain has been observed; a drain means "find another node", so
// the hint is longer. 0 means no header.
func (s *Service) retryAfter(code string) time.Duration {
	switch code {
	case "circuit_open":
		if d := s.cfg.brkCooldown; d > time.Second {
			return d
		}
		return time.Second
	case "queue_full", "too_many_jobs":
		if d, ok := s.sched.retryAfterHint(); ok {
			return d
		}
		return time.Second
	case "draining", "dropped":
		return 5 * time.Second
	}
	return 0
}

func (s *Service) recordErrorCode(code string) {
	s.met.countError(code)
	if reg := s.tel.Registry(); reg != nil {
		reg.Counter("zkp_http_errors_total",
			"Error envelopes served, by stable code.",
			telemetry.Label{Name: "code", Value: code}).Inc()
	}
}

// toRequest converts the wire form to a ProveRequest, parsing inputs in
// the curve's scalar field.
func (s *Service) toRequest(b proveBody) (ProveRequest, error) {
	req := ProveRequest{
		Curve:   b.Curve,
		Backend: b.Backend,
		Source:  b.Circuit,
		Timeout: time.Duration(b.TimeoutMs) * time.Millisecond,
	}
	if req.Curve == "" {
		req.Curve = "bn128"
	}
	if req.Backend == "" {
		req.Backend = DefaultBackend
	}
	if req.Source == "" {
		return req, fmt.Errorf("provesvc: missing circuit source")
	}
	if !s.reg.backendEnabled(req.Backend) {
		return req, fmt.Errorf("%w %q (serving: %v)", backend.ErrUnknownBackend, req.Backend, s.reg.Backends())
	}
	c, err := s.reg.CurveFor(req.Curve)
	if err != nil {
		return req, err
	}
	req.Inputs = make(witness.Assignment, len(b.Inputs))
	for name, val := range b.Inputs {
		var e ff.Element
		if _, err := c.Fr.SetString(&e, val); err != nil {
			return req, fmt.Errorf("provesvc: input %q: %w", name, err)
		}
		req.Inputs[name] = e
	}
	return req, nil
}

func (s *Service) toReply(res *ProveResult) (*proveReply, error) {
	var buf bytes.Buffer
	if err := res.Proof.Encode(&buf); err != nil {
		return nil, err
	}
	fr := res.Artifact.Backend.Curve().Fr
	pub := make([]string, 0, len(res.Public)-1)
	for i := 1; i < len(res.Public); i++ { // skip the constant wire
		pub = append(pub, fr.String(&res.Public[i]))
	}
	return &proveReply{
		Backend:     res.Proof.Backend(),
		Proof:       hex.EncodeToString(buf.Bytes()),
		Public:      pub,
		QueueWaitMs: float64(res.QueueWait) / 1e6,
		WitnessMs:   float64(res.WitnessTime) / 1e6,
		ProveMs:     float64(res.ProveTime) / 1e6,
		TotalMs:     float64(res.Total) / 1e6,
	}, nil
}

func (s *Service) handleProve(w http.ResponseWriter, r *http.Request) {
	var body proveBody
	if !s.decode(w, r, faultinject.PointHTTPProve, &body) {
		return
	}
	req, err := s.toRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	res, err := s.Prove(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	reply, err := s.toReply(res)
	if err != nil {
		s.writeError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, reply)
}

func (s *Service) handleProveBatch(w http.ResponseWriter, r *http.Request) {
	var body batchBody
	if !s.decode(w, r, faultinject.PointHTTPProve, &body) || s.retired(w, body.Requests) {
		return
	}
	reqs := make([]ProveRequest, len(body.Items))
	parseErrs := make([]error, len(body.Items))
	for i, b := range body.Items {
		reqs[i], parseErrs[i] = s.toRequest(b)
	}
	results, errs := s.ProveBatch(r.Context(), reqs)
	items := make([]batchItem, len(reqs))
	for i := range items {
		items[i].Index = i
		err := parseErrs[i]
		if err == nil {
			err = errs[i]
		}
		if err == nil && results[i] != nil {
			items[i].proveReply, err = s.toReply(results[i])
		}
		if err != nil {
			_, items[i].Error = envelope(err)
			s.recordErrorCode(items[i].Error.Code)
		}
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"results": items})
}

// handleVerifyBatch is POST /v1/verify/batch: the unified batch shape
// over VerifyBatch, so all same-circuit items share one folded pairing
// check. Per-item failures (undecodable proof, unknown backend) ride in
// the item's error envelope; the batch itself always answers 200.
func (s *Service) handleVerifyBatch(w http.ResponseWriter, r *http.Request) {
	var body verifyBatchBody
	if !s.decode(w, r, faultinject.PointHTTPVerify, &body) || s.retired(w, body.Requests) {
		return
	}
	reqs := make([]VerifyRequest, len(body.Items))
	parseErrs := make([]error, len(body.Items))
	for i, b := range body.Items {
		reqs[i], parseErrs[i] = s.toVerifyRequest(b)
	}
	oks, errs := s.VerifyBatch(r.Context(), reqs)
	items := make([]verifyBatchItem, len(reqs))
	for i := range items {
		items[i].Index = i
		err := parseErrs[i]
		if err == nil {
			err = errs[i]
		}
		if err != nil {
			_, items[i].Error = envelope(err)
			s.recordErrorCode(items[i].Error.Code)
			continue
		}
		valid := oks[i]
		items[i].Valid = &valid
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]any{"results": items})
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var body verifyBody
	if !s.decode(w, r, faultinject.PointHTTPVerify, &body) {
		return
	}
	req, err := s.toVerifyRequest(body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	valid, err := s.Verify(r.Context(), req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]bool{"valid": valid})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		httpx.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
