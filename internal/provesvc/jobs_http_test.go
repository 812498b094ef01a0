package provesvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkperf/internal/circuit"
)

// deleteJSON issues a DELETE and decodes the JSON reply.
func deleteJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// pollJob polls GET /v1/jobs/{id} until the state is terminal or the
// deadline passes, returning the last status body.
func pollJob(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, out := getJSON(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job poll status = %d, body %v", resp.StatusCode, out)
		}
		if st, _ := out["state"].(string); st == "done" || st == "failed" {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal after %v: %v", id, timeout, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHTTPJobsLifecycle drives the async happy path: a prove job runs
// through queued→running→done and its result is the same reply the
// synchronous endpoint returns; a verify job consumes that proof.
func TestHTTPJobsLifecycle(t *testing.T) {
	s := New(WithWorkers(2), WithQueueDepth(8), WithSeed(17))
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	src := circuit.ExponentiateSource(16)
	resp, out := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"kind":    "prove",
		"curve":   "bn128",
		"circuit": src,
		"inputs":  map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (body %v)", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("submit reply has no job id: %v", out)
	}
	if st := out["state"]; st != "queued" && st != "running" {
		t.Errorf("submit state = %v, want queued or running", st)
	}

	final := pollJob(t, ts.URL, id, 30*time.Second)
	if final["state"] != "done" {
		t.Fatalf("job state = %v, want done (body %v)", final["state"], final)
	}
	result, _ := final["result"].(map[string]any)
	proofHex, _ := result["proof"].(string)
	if proofHex == "" {
		t.Fatalf("done job has no proof in result: %v", final)
	}
	public, _ := result["public"].([]any)
	if len(public) != 1 || public[0] != "43046721" {
		t.Errorf("job result public = %v, want [43046721]", public)
	}
	if runMs, _ := final["run_ms"].(float64); runMs <= 0 {
		t.Errorf("run_ms = %v, want > 0 for an executed job", final["run_ms"])
	}

	// A verify job consumes the async proof; kind defaults stay explicit.
	resp, out = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"kind":    "verify",
		"curve":   "bn128",
		"circuit": src,
		"proof":   proofHex,
		"public":  []string{"43046721"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("verify submit status = %d (body %v)", resp.StatusCode, out)
	}
	final = pollJob(t, ts.URL, out["id"].(string), 30*time.Second)
	if final["state"] != "done" {
		t.Fatalf("verify job state = %v (body %v)", final["state"], final)
	}
	if result, _ := final["result"].(map[string]any); result["valid"] != true {
		t.Errorf("verify job result = %v, want valid", final["result"])
	}

	// Stats carry the jobs block.
	_, st := getJSON(t, ts.URL+"/v1/stats")
	jobsBlock, _ := st["jobs"].(map[string]any)
	if jobsBlock == nil {
		t.Fatalf("/v1/stats has no jobs block: %v", st)
	}
	if completed, _ := jobsBlock["completed"].(float64); completed != 2 {
		t.Errorf("jobs.completed = %v, want 2", jobsBlock["completed"])
	}

	// Unknown kinds are a 400 envelope, not a queued failure.
	resp, out = postJSON(t, ts.URL+"/v1/jobs", map[string]any{"kind": "transmute", "circuit": src})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind status = %d, want 400", resp.StatusCode)
	}
	wantEnvelope(t, out, "bad_request", false)
}

// TestHTTPJobsTTLEviction is the acceptance check that finished jobs
// expire: after the TTL the sweeper evicts the result and GET answers
// 404 job_not_found.
func TestHTTPJobsTTLEviction(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(8), WithSeed(17),
		WithJobTTL(100*time.Millisecond), func(c *config) { c.jobSweep = 10 * time.Millisecond })
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	resp, out := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"circuit": circuit.ExponentiateSource(16),
		"inputs":  map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (body %v)", resp.StatusCode, out)
	}
	id := out["id"].(string)
	if final := pollJob(t, ts.URL, id, 30*time.Second); final["state"] != "done" {
		t.Fatalf("job state = %v, want done", final["state"])
	}

	// The retained result must disappear within a few TTLs.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, out = getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still retrievable long after TTL: %v", id, out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	wantEnvelope(t, out, "job_not_found", false)

	_, st := getJSON(t, ts.URL+"/v1/stats")
	jobsBlock, _ := st["jobs"].(map[string]any)
	if evicted, _ := jobsBlock["evicted"].(float64); evicted < 1 {
		t.Errorf("jobs.evicted = %v, want >= 1", jobsBlock["evicted"])
	}
}

// TestHTTPJobsCancelMidRun cancels a running prove via DELETE and holds
// it to the PR 1 cancellation-latency bound: the job must reach the
// failed state far sooner than a full prove takes, with the canceled
// envelope embedded.
func TestHTTPJobsCancelMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size prove")
	}
	s := New(WithWorkers(1), WithQueueDepth(8), WithSeed(17))
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	src := circuit.ExponentiateSource(2048)
	body := map[string]any{
		"circuit": src,
		"inputs":  map[string]string{"x": "3"},
	}
	// Baseline sync prove: pays compile+setup and measures a full prove,
	// so the async job below starts from a warm cache.
	t0 := time.Now()
	if resp, out := postJSON(t, ts.URL+"/v1/prove", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline prove status = %d (body %v)", resp.StatusCode, out)
	}
	full := time.Since(t0)

	resp, out := postJSON(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (body %v)", resp.StatusCode, out)
	}
	id := out["id"].(string)

	// Wait for the job to actually be proving, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, st := getJSON(t, ts.URL+"/v1/jobs/"+id)
		if st["state"] == "running" {
			break
		}
		if st["state"] == "done" || st["state"] == "failed" {
			t.Fatalf("job finished before it could be cancelled (%v) — circuit too small for this test", st["state"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	t1 := time.Now()
	if resp, out := deleteJSON(t, ts.URL+"/v1/jobs/"+id); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d (body %v)", resp.StatusCode, out)
	}
	final := pollJob(t, ts.URL, id, 30*time.Second)
	aborted := time.Since(t1)
	if final["state"] != "failed" {
		t.Fatalf("cancelled job state = %v, want failed (body %v)", final["state"], final)
	}
	envAny, _ := final["error"].(map[string]any)
	if envAny == nil || envAny["code"] != "canceled" {
		t.Fatalf("cancelled job error = %v, want canceled envelope", final["error"])
	}
	// Same promptness bound as the worker-side cancellation test: the
	// prove must let go long before a full run.
	if aborted > full/2+50*time.Millisecond {
		t.Errorf("job reached failed %v after cancel, full prove takes %v — cancellation not prompt", aborted, full)
	}

	// Cancelling a finished job is idempotent: same terminal reply.
	if resp, out := deleteJSON(t, ts.URL+"/v1/jobs/"+id); resp.StatusCode != http.StatusOK || out["state"] != "failed" {
		t.Errorf("second cancel: status %d state %v, want 200 failed", resp.StatusCode, out["state"])
	}
}

// TestHTTPJobsRetryAfter checks the shed path: when the async job table
// is full, submits answer 429 too_many_jobs with a Retry-After hint.
func TestHTTPJobsRetryAfter(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(8), WithSeed(17), WithJobMaxActive(1))
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// One slow job occupies the single slot.
	resp, out := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"circuit": circuit.ExponentiateSource(1024),
		"inputs":  map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d (body %v)", resp.StatusCode, out)
	}
	blocker := out["id"].(string)

	resp, out = postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"circuit": circuit.ExponentiateSource(16),
		"inputs":  map[string]string{"x": "3"},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429 (body %v)", resp.StatusCode, out)
	}
	wantEnvelope(t, out, "too_many_jobs", true)
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 too_many_jobs response missing Retry-After header")
	} else if secs, err := time.ParseDuration(ra + "s"); err != nil || secs < time.Second {
		t.Errorf("Retry-After = %q, want an integer >= 1 second", ra)
	}

	if final := pollJob(t, ts.URL, blocker, 60*time.Second); final["state"] != "done" {
		t.Fatalf("blocker job state = %v, want done (body %v)", final["state"], final)
	}
}

// TestHTTPJobsSurviveSubmitterDisconnect pins the detachment contract:
// the job context is not the HTTP request context, so a submitter that
// vanishes right after the 202 does not cancel its job.
func TestHTTPJobsSurviveSubmitterDisconnect(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(8), WithSeed(17))
	s.Start()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	// Submit on a connection that dies as soon as the 202 lands.
	body := fmt.Sprintf(`{"circuit":%q,"inputs":{"x":"3"}}`, circuit.ExponentiateSource(256))
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Close = true // no keep-alive: the connection dies with the response
	httpClient := &http.Client{}
	resp, err := httpClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	httpClient.CloseIdleConnections()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d (body %v)", resp.StatusCode, out)
	}

	final := pollJob(t, ts.URL, out["id"].(string), 60*time.Second)
	if final["state"] != "done" {
		t.Fatalf("job state after submitter disconnect = %v, want done (body %v)", final["state"], final)
	}
}
