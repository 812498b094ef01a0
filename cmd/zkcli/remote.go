package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"zkperf/internal/client"
	"zkperf/internal/httpx"
)

// Remote mode: `zkcli prove -addr http://host:8090 …`, `zkcli verify
// -addr …` and the `zkcli job …` subcommands drive a running zkserve
// (or zkgateway) instead of the local file pipeline. The transport is
// the shared internal/client package — the same envelope-aware retry
// policy the gateway uses — so retryable sheds (queue full, draining,
// circuit breaker cooldown, deadline) back off with jitter and honor
// the server's Retry-After hint, while non-retryable errors surface
// immediately with their envelope code.

// newRemoteClient builds the shared client with zkcli's retry budget
// and a stderr progress line per retry.
func newRemoteClient(addr string, retries int, backoff time.Duration) *client.Client {
	c := client.New(addr)
	c.Retries = retries
	c.Backoff = backoff
	c.OnRetry = func(err error, delay time.Duration, attempt, total int) {
		fmt.Fprintf(os.Stderr, "zkcli: retryable failure (%v), retrying in %v [%d/%d]\n",
			err, delay.Round(time.Millisecond), attempt, total)
	}
	return c
}

// proveBody assembles the /v1/prove (and prove-kind /v1/jobs) payload.
func proveBody(curveName, backendName, circuitPath string, inputs inputFlags, timeout time.Duration) (map[string]any, error) {
	src, err := os.ReadFile(circuitPath)
	if err != nil {
		return nil, err
	}
	in := make(map[string]string, len(inputs))
	for _, pair := range inputs {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("malformed -input %q (want name=value)", pair)
		}
		in[name] = val
	}
	return map[string]any{
		"curve":      curveName,
		"backend":    backendName,
		"circuit":    string(src),
		"inputs":     in,
		"timeout_ms": timeout.Milliseconds(),
	}, nil
}

// verifyBody assembles the /v1/verify (and verify-kind /v1/jobs) payload.
func verifyBody(curveName, backendName, circuitPath, proofPath string, publics inputFlags) (map[string]any, error) {
	src, err := os.ReadFile(circuitPath)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(proofPath)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"curve":   curveName,
		"backend": backendName,
		"circuit": string(src),
		"proof":   hex.EncodeToString(raw),
		"public":  []string(publics),
	}, nil
}

// proveReply mirrors the server's prove response.
type proveReply struct {
	Backend string   `json:"backend"`
	Proof   string   `json:"proof"`
	Public  []string `json:"public"`
	ProveMs float64  `json:"prove_ms"`
	TotalMs float64  `json:"total_ms"`
}

// writeProof decodes the reply's hex proof and writes it where the
// local pipeline would have.
func (r *proveReply) writeProof(path string) error {
	raw, err := hex.DecodeString(r.Proof)
	if err != nil {
		return fmt.Errorf("decoding proof hex: %v", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// proveRemote posts one synchronous prove request and writes the
// returned proof bytes.
func proveRemote(addr, curveName, backendName, circuitPath, proofPath string, inputs inputFlags, timeout time.Duration, retries int, backoff time.Duration) error {
	body, err := proveBody(curveName, backendName, circuitPath, inputs, timeout)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var reply proveReply
	if err := newRemoteClient(addr, retries, backoff).PostJSON("/v1/prove", body, &reply); err != nil {
		return err
	}
	if err := reply.writeProof(proofPath); err != nil {
		return err
	}
	fmt.Printf("[%s@%s] prove=%.0fms total=%.0fms round-trip=%v public=%v\n",
		reply.Backend, addr, reply.ProveMs, reply.TotalMs,
		time.Since(t0).Round(time.Millisecond), reply.Public)
	return nil
}

// verifyRemote posts a proof (as written by proveRemote or the local
// pipeline — both use the backend's serialization) for server-side
// verification against the circuit's cached verifying key.
func verifyRemote(addr, curveName, backendName, circuitPath, proofPath string, publics inputFlags, retries int, backoff time.Duration) error {
	body, err := verifyBody(curveName, backendName, circuitPath, proofPath, publics)
	if err != nil {
		return err
	}
	var reply struct {
		Valid bool `json:"valid"`
	}
	if err := newRemoteClient(addr, retries, backoff).PostJSON("/v1/verify", body, &reply); err != nil {
		return err
	}
	if !reply.Valid {
		return fmt.Errorf("proof is INVALID")
	}
	fmt.Printf("OK: proof is valid [%s@%s]\n", backendName, addr)
	return nil
}

// batchManifestEntry is one line of the -batch manifest: file paths for
// the circuit and proof plus the public inputs, mirroring the flags of a
// single verify. Empty curve/backend fall back to the command's flags.
type batchManifestEntry struct {
	Curve   string   `json:"curve,omitempty"`
	Backend string   `json:"backend,omitempty"`
	Circuit string   `json:"circuit"`
	Proof   string   `json:"proof"`
	Public  []string `json:"public"`
}

// verifyBatchRemote reads a JSON manifest of {circuit, proof, public}
// entries and checks them all in one POST /v1/verify/batch — the server
// folds same-circuit items into a single pairing check. Exit status is
// an error if any item is invalid or errored; every item's verdict is
// printed either way.
func verifyBatchRemote(addr, manifestPath, defCurve, defBackend string, retries int, backoff time.Duration) error {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var entries []batchManifestEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		return fmt.Errorf("parsing manifest %s: %v (want a JSON array of {circuit, proof, public})", manifestPath, err)
	}
	if len(entries) == 0 {
		return fmt.Errorf("manifest %s is empty", manifestPath)
	}
	items := make([]client.VerifyItem, len(entries))
	for i, e := range entries {
		src, err := os.ReadFile(e.Circuit)
		if err != nil {
			return fmt.Errorf("manifest entry %d: %v", i, err)
		}
		proof, err := os.ReadFile(e.Proof)
		if err != nil {
			return fmt.Errorf("manifest entry %d: %v", i, err)
		}
		curveName, backendName := e.Curve, e.Backend
		if curveName == "" {
			curveName = defCurve
		}
		if backendName == "" {
			backendName = defBackend
		}
		items[i] = client.VerifyItem{
			Curve:   curveName,
			Backend: backendName,
			Circuit: string(src),
			Proof:   hex.EncodeToString(proof),
			Public:  e.Public,
		}
	}
	t0 := time.Now()
	results, err := newRemoteClient(addr, retries, backoff).VerifyBatch(items)
	if err != nil {
		return err
	}
	bad := 0
	for i, r := range results {
		switch {
		case r.Err != nil:
			bad++
			fmt.Printf("[%d] %s: ERROR %s: %s\n", i, entries[i].Proof, r.Err.Code, r.Err.Message)
		case r.Valid != nil && *r.Valid:
			fmt.Printf("[%d] %s: OK\n", i, entries[i].Proof)
		default:
			bad++
			fmt.Printf("[%d] %s: INVALID\n", i, entries[i].Proof)
		}
	}
	fmt.Printf("%d/%d proofs valid [%s] round-trip=%v\n",
		len(results)-bad, len(results), addr, time.Since(t0).Round(time.Millisecond))
	if bad > 0 {
		return fmt.Errorf("%d of %d proofs failed verification", bad, len(results))
	}
	return nil
}

// jobStatus mirrors the server's /v1/jobs/{id} response.
type jobStatus struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	State   string          `json:"state"`
	WaitMs  float64         `json:"wait_ms"`
	RunMs   float64         `json:"run_ms"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *httpx.Envelope `json:"error,omitempty"`
	Deduped bool            `json:"deduped,omitempty"`
}

// failure converts a failed job's embedded envelope into a *client.Error
// so `zkcli job wait` exits with the same status discipline as the
// synchronous path (nil when the job did not fail).
func (j *jobStatus) failure() error {
	if j.State != "failed" {
		return nil
	}
	if j.Error == nil {
		return fmt.Errorf("job %s failed without an error envelope", j.ID)
	}
	return &client.Error{Code: j.Error.Code, Message: j.Error.Message, Retryable: j.Error.Retryable}
}

// newJobFlagSet builds a flag set for one job subcommand.
func newJobFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// cmdJob dispatches the async-job subcommands.
func cmdJob(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: zkcli job <submit|status|wait|cancel> [flags]")
	}
	switch args[0] {
	case "submit":
		return cmdJobSubmit(args[1:])
	case "status":
		return cmdJobStatus(args[1:])
	case "wait":
		return cmdJobWait(args[1:])
	case "cancel":
		return cmdJobCancel(args[1:])
	default:
		return fmt.Errorf("unknown job subcommand %q (want submit, status, wait or cancel)", args[0])
	}
}

func cmdJobSubmit(args []string) error {
	fs := newJobFlagSet("job submit")
	addr := fs.String("addr", "http://localhost:8090", "zkserve or zkgateway base URL")
	kind := fs.String("kind", "prove", "job kind: prove or verify")
	curveName := fs.String("curve", "bn128", "curve")
	backendName := fs.String("backend", "groth16", "proving backend")
	circuitPath := fs.String("circuit", "", "circuit source file (.zkc)")
	proofPath := fs.String("proof", "circuit.proof", "proof file (verify kind)")
	timeout := fs.Duration("timeout", 0, "per-request deadline once running (0: server default)")
	retries := fs.Int("retries", 3, "extra attempts for retryable errors")
	retryBackoff := fs.Duration("retry-backoff", 200*time.Millisecond, "base retry backoff")
	idemKey := fs.String("idempotency-key", "auto", "Idempotency-Key header so a retried submit dedups to one job on a journaled server (\"auto\" mints a random key, empty disables)")
	var inputs, publics inputFlags
	fs.Var(&inputs, "input", "input assignment name=value (prove kind, repeatable)")
	fs.Var(&publics, "public", "public input value (verify kind, repeatable, in wire order)")
	fs.Parse(args)
	if *circuitPath == "" {
		return fmt.Errorf("-circuit is required")
	}
	if *idemKey == "auto" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("minting idempotency key: %v", err)
		}
		*idemKey = "zkcli-" + hex.EncodeToString(b[:])
	}
	var body map[string]any
	var err error
	switch *kind {
	case "prove":
		body, err = proveBody(*curveName, *backendName, *circuitPath, inputs, *timeout)
	case "verify":
		body, err = verifyBody(*curveName, *backendName, *circuitPath, *proofPath, publics)
	default:
		return fmt.Errorf("unknown job kind %q (want prove or verify)", *kind)
	}
	if err != nil {
		return err
	}
	body["kind"] = *kind
	var header http.Header
	if *idemKey != "" {
		header = http.Header{"Idempotency-Key": []string{*idemKey}}
	}
	var st jobStatus
	if _, err := newRemoteClient(*addr, *retries, *retryBackoff).PostJSONWith("/v1/jobs", header, body, &st); err != nil {
		return err
	}
	fmt.Printf("%s\n", st.ID)
	if st.Deduped {
		fmt.Fprintf(os.Stderr, "zkcli: job %s already submitted under this idempotency key (%s, %s)\n", st.ID, st.Kind, st.State)
	} else {
		fmt.Fprintf(os.Stderr, "zkcli: job %s accepted (%s, %s)\n", st.ID, st.Kind, st.State)
	}
	return nil
}

func cmdJobStatus(args []string) error {
	fs := newJobFlagSet("job status")
	addr := fs.String("addr", "http://localhost:8090", "zkserve or zkgateway base URL")
	id := fs.String("id", "", "job ID (from `zkcli job submit`)")
	asJSON := fs.Bool("json", false, "print the raw JSON status")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	var st jobStatus
	if err := client.New(*addr).GetJSON("/v1/jobs/"+*id, &st); err != nil {
		return err
	}
	return printJobStatus(&st, *asJSON)
}

func cmdJobWait(args []string) error {
	fs := newJobFlagSet("job wait")
	addr := fs.String("addr", "http://localhost:8090", "zkserve or zkgateway base URL")
	id := fs.String("id", "", "job ID (from `zkcli job submit`)")
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval")
	timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long")
	proofPath := fs.String("proof", "", "write the proof here when a prove job finishes")
	asJSON := fs.Bool("json", false, "print the raw JSON status")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	c := client.New(*addr)
	deadline := time.Now().Add(*timeout)
	seen := false // the job existed at least once during this wait
	for {
		var st jobStatus
		hint, err := c.GetJSONHint("/v1/jobs/"+*id, &st)
		switch {
		case err == nil:
		case isJobGone(err):
			// A 404 after we have seen the job is the TTL sweeper, not a
			// typo'd ID — say so, they need different fixes.
			if seen {
				return fmt.Errorf("job %s finished and its result was already evicted by the server's TTL; rerun with a larger -job-ttl or poll sooner", *id)
			}
			return fmt.Errorf("job %s does not exist on %s (never submitted there, or long since evicted)", *id, *addr)
		case time.Now().After(deadline):
			return err
		default:
			// Transient trouble (connection refused while the server
			// restarts, a shed) is exactly what a durable-jobs wait must
			// ride out: keep polling until the deadline.
			fmt.Fprintf(os.Stderr, "zkcli: poll failed (%v), retrying\n", err)
			time.Sleep(*poll)
			continue
		}
		seen = true
		if st.State == "done" || st.State == "failed" {
			if err := printJobStatus(&st, *asJSON); err != nil {
				return err
			}
			if st.State == "done" && st.Kind == "prove" && *proofPath != "" {
				var reply proveReply
				if err := json.Unmarshal(st.Result, &reply); err != nil {
					return fmt.Errorf("decoding prove result: %v", err)
				}
				if err := reply.writeProof(*proofPath); err != nil {
					return err
				}
			}
			return st.failure()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %s after %v", *id, st.State, *timeout)
		}
		// The server paces pollers via Retry-After on live jobs; honor it
		// when it asks for more patience than our own interval.
		sleep := *poll
		if hint > sleep {
			sleep = hint
		}
		time.Sleep(sleep)
	}
}

// isJobGone reports whether err is the server's 404 job_not_found
// envelope (as opposed to transport trouble or some other envelope).
func isJobGone(err error) bool {
	var we *client.Error
	return errors.As(err, &we) && we.Code == "job_not_found"
}

func cmdJobCancel(args []string) error {
	fs := newJobFlagSet("job cancel")
	addr := fs.String("addr", "http://localhost:8090", "zkserve or zkgateway base URL")
	id := fs.String("id", "", "job ID (from `zkcli job submit`)")
	fs.Parse(args)
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	var st jobStatus
	if err := client.New(*addr).Delete("/v1/jobs/"+*id, &st); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "zkcli: job %s now %s\n", st.ID, st.State)
	return nil
}

func printJobStatus(st *jobStatus, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	}
	fmt.Printf("job %s: kind=%s state=%s wait=%.0fms run=%.0fms\n",
		st.ID, st.Kind, st.State, st.WaitMs, st.RunMs)
	if st.State == "done" && st.Kind == "prove" {
		var reply proveReply
		if err := json.Unmarshal(st.Result, &reply); err == nil {
			fmt.Printf("  [%s] prove=%.0fms total=%.0fms public=%v\n",
				reply.Backend, reply.ProveMs, reply.TotalMs, reply.Public)
		}
	}
	if st.Error != nil {
		fmt.Printf("  error: %s: %s (retryable=%v)\n", st.Error.Code, st.Error.Message, st.Error.Retryable)
	}
	return nil
}
