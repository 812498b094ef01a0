package provesvc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"zkperf/internal/backend"
	"zkperf/internal/ff"
	"zkperf/internal/httpx"
	"zkperf/internal/jobs"
	"zkperf/internal/telemetry"
)

// The async job API, backed by internal/jobs:
//
//	POST   /v1/jobs       {"kind":"prove"|"verify", …prove or verify body}
//	                      → 202 {"id","kind","state"}
//	POST   /v1/jobs       {"items":[<job body>, …]} → 202 {"results":
//	                      [{"index","id","kind","state"} | {"index","error"}]}
//	                      — the unified batch shape; admission is per item
//	GET    /v1/jobs/{id}  → {"id","kind","state","wait_ms","run_ms",
//	                         "result"?, "error"?}
//	DELETE /v1/jobs/{id}  → same shape; cancels a live job (idempotent)
//
// A submitted job's context is detached from the submitting connection —
// clients may disconnect and poll from anywhere. result appears when
// state is "done" (the same reply shape as the synchronous endpoint);
// error carries the standard envelope when state is "failed". Finished
// jobs are retained for the configured TTL (ttl_ms in /v1/stats), then
// GET returns 404 job_not_found.

// jobBody is the POST /v1/jobs request: kind plus the union of the
// prove and verify bodies (proveBody fields promote via embedding).
type jobBody struct {
	Kind string `json:"kind"`
	proveBody
	Proof  string   `json:"proof"`
	Public []string `json:"public"`
}

// jobReply is the wire form of one job's status.
type jobReply struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	State  string          `json:"state"`
	WaitMs float64         `json:"wait_ms"`
	RunMs  float64         `json:"run_ms"`
	Result any             `json:"result,omitempty"`
	Error  *httpx.Envelope `json:"error,omitempty"`
	// Deduped marks a submit answered with an existing job because its
	// Idempotency-Key was already taken (served 200, not 202).
	Deduped bool `json:"deduped,omitempty"`
}

func jobReplyOf(j *jobs.Job) *jobReply {
	wait, run := j.Timing()
	rep := &jobReply{
		ID:     j.ID(),
		Kind:   j.Kind(),
		State:  string(j.State()),
		WaitMs: float64(wait) / 1e6,
		RunMs:  float64(run) / 1e6,
	}
	// Result is only read once the state observed above is terminal, so a
	// done/failed transition between the two reads cannot leak a result
	// under a non-terminal state.
	switch jobs.State(rep.State) {
	case jobs.StateDone:
		rep.Result, _ = j.Result()
	case jobs.StateFailed:
		_, err := j.Result()
		_, rep.Error = envelope(err)
	}
	return rep
}

// jobBatchItem is one slot of the batch-submit response: the accepted
// job's reply fields, or the error envelope for a rejected item.
type jobBatchItem struct {
	Index int `json:"index"`
	*jobReply
	Error *httpx.Envelope `json:"error,omitempty"`
}

// buildJobRun converts one job body into (kind, RunFunc); shared by the
// single and batch submit paths. reqID travels with the detached job
// context so the probe and access logs line up across submit and
// execution.
func (s *Service) buildJobRun(body jobBody, reqID string) (string, jobs.RunFunc, error) {
	kind := body.Kind
	if kind == "" {
		kind = "prove"
	}
	switch kind {
	case "prove":
		req, err := s.toRequest(body.proveBody)
		if err != nil {
			return kind, nil, err
		}
		return kind, func(ctx context.Context, started func()) (any, error) {
			ctx = telemetry.WithRequestID(ctx, reqID)
			req.OnStart = started
			res, err := s.Prove(ctx, req)
			if err != nil {
				return nil, err
			}
			return s.toReply(res)
		}, nil
	case "verify":
		vreq, err := s.toVerifyRequest(verifyBody{
			Curve:   body.Curve,
			Backend: body.Backend,
			Circuit: body.Circuit,
			Proof:   body.Proof,
			Public:  body.Public,
		})
		if err != nil {
			return kind, nil, err
		}
		return kind, func(ctx context.Context, started func()) (any, error) {
			// Verify runs inline on the dispatcher — there is no worker
			// queue in front of it, so it is running from the first moment.
			started()
			ctx = telemetry.WithRequestID(ctx, reqID)
			valid, err := s.Verify(ctx, vreq)
			if err != nil {
				return nil, err
			}
			return map[string]bool{"valid": valid}, nil
		}, nil
	default:
		return kind, nil, fmt.Errorf("provesvc: unknown job kind %q (want prove or verify)", kind)
	}
}

func (s *Service) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	data, err := httpx.ReadAll(w, r, s.cfg.maxBodyBytes)
	if err != nil {
		s.writeError(w, fmt.Errorf("provesvc: bad request body: %w", err))
		return
	}
	reqID := telemetry.RequestIDFromContext(r.Context())

	idemKey := r.Header.Get("Idempotency-Key")
	if len(idemKey) > maxIdempotencyKey {
		s.writeError(w, fmt.Errorf("provesvc: Idempotency-Key exceeds %d bytes", maxIdempotencyKey))
		return
	}

	// The unified batch shape: {"items":[…]} submits several jobs with
	// per-item admission. Any object without items is a single submit.
	var batch struct {
		Items []jobBody `json:"items"`
	}
	if err := json.Unmarshal(data, &batch); err == nil && len(batch.Items) > 0 {
		out := make([]jobBatchItem, len(batch.Items))
		for i, body := range batch.Items {
			out[i].Index = i
			kind, run, err := s.buildJobRun(body, reqID)
			var j *jobs.Job
			if err == nil {
				// Per-item payloads are re-marshaled so each job replays
				// independently; the Idempotency-Key header stays single-submit
				// only (one key cannot name N jobs).
				payload, _ := json.Marshal(body)
				j, _, err = s.jobMgr.SubmitWith(jobs.SubmitOptions{
					Kind: kind, Payload: payload,
				}, run)
			}
			if err != nil {
				_, out[i].Error = envelope(err)
				s.recordErrorCode(out[i].Error.Code)
				continue
			}
			out[i].jobReply = jobReplyOf(j)
		}
		httpx.WriteJSON(w, http.StatusAccepted, map[string]any{"results": out})
		return
	}

	var body jobBody
	if err := json.Unmarshal(data, &body); err != nil {
		s.writeError(w, fmt.Errorf("provesvc: bad request body: %w", err))
		return
	}
	kind, run, err := s.buildJobRun(body, reqID)
	if err != nil {
		s.writeError(w, err)
		return
	}
	j, deduped, err := s.jobMgr.SubmitWith(jobs.SubmitOptions{
		Kind: kind, IdempotencyKey: idemKey, Payload: data,
	}, run)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rep := jobReplyOf(j)
	rep.Deduped = deduped
	// A dedup hit is not a new acceptance: 200 with the original job.
	status := http.StatusAccepted
	if deduped {
		status = http.StatusOK
	}
	httpx.WriteJSON(w, status, rep)
}

// maxIdempotencyKey bounds the Idempotency-Key header; longer keys are
// rejected rather than truncated (a truncated key could false-dedup).
const maxIdempotencyKey = 128

// resumeJournaledJobs re-arms jobs that were queued or running when the
// previous process died: each journaled request is parsed back into a
// RunFunc and re-enqueued. A payload that no longer parses fails its job
// with the parse error instead of wedging it in queued forever.
func (s *Service) resumeJournaledJobs() {
	for _, pr := range s.jobMgr.PendingReplays() {
		pr := pr
		var run jobs.RunFunc
		var body jobBody
		if err := json.Unmarshal(pr.Payload, &body); err != nil {
			perr := fmt.Errorf("provesvc: job %s: journaled request unparseable after restart: %w", pr.ID, err)
			run = func(ctx context.Context, started func()) (any, error) {
				started()
				return nil, perr
			}
		} else if _, r, err := s.buildJobRun(body, "replay-"+pr.ID); err != nil {
			rerr := err
			run = func(ctx context.Context, started func()) (any, error) {
				started()
				return nil, rerr
			}
		} else {
			run = r
		}
		s.jobMgr.Resume(pr.ID, run)
	}
}

func (s *Service) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobMgr.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	rep := jobReplyOf(j)
	if st := jobs.State(rep.State); st != jobs.StateDone && st != jobs.StateFailed {
		// Pace pollers: the job is still live, come back in about a second.
		w.Header().Set("Retry-After", "1")
	}
	httpx.WriteJSON(w, http.StatusOK, rep)
}

func (s *Service) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobMgr.Cancel(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, jobReplyOf(j))
}

// toVerifyRequest parses the wire verify body into a VerifyRequest,
// decoding the proof in the named backend's serialization. Shared by
// the synchronous handler and the async submit path.
func (s *Service) toVerifyRequest(body verifyBody) (VerifyRequest, error) {
	req := VerifyRequest{Curve: body.Curve, Backend: body.Backend, Source: body.Circuit}
	if req.Curve == "" {
		req.Curve = "bn128"
	}
	if req.Backend == "" {
		req.Backend = DefaultBackend
	}
	bk, err := s.reg.BackendFor(req.Curve, req.Backend)
	if err != nil {
		return req, err
	}
	raw, err := hex.DecodeString(body.Proof)
	if err != nil {
		return req, fmt.Errorf("provesvc: bad proof hex: %w", err)
	}
	proof, err := bk.ReadProof(bytes.NewReader(raw))
	if err != nil {
		return req, fmt.Errorf("%w: undecodable %s proof: %v", backend.ErrInvalidProof, req.Backend, err)
	}
	req.Proof = proof
	fr := bk.Curve().Fr
	req.Public = make([]ff.Element, len(body.Public)+1)
	fr.One(&req.Public[0])
	for i, v := range body.Public {
		if _, err := fr.SetString(&req.Public[i+1], v); err != nil {
			return req, fmt.Errorf("provesvc: public[%d]: %w", i, err)
		}
	}
	return req, nil
}
