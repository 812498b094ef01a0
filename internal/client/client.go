// Package client is the shared HTTP client for the zkperf serving
// stack: zkcli's remote mode and zkgateway's per-node transport both
// speak to zkserve through it, so the error-envelope contract and the
// retry policy live in exactly one place.
//
// The server's JSON error envelope {"code","message","retryable"}
// decodes into *Error; responses whose envelope says retryable=true
// (queue full, draining, circuit breaker cooldown, deadline) are
// retried with jittered exponential backoff, everything else fails
// immediately. A Retry-After header on a shed response (429/503) is
// honored as a lower bound on the backoff sleep.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zkperf/internal/httpx"
)

// maxBody caps how much of a response body a client reads (proofs for
// large circuits are big; anything past this is a server bug).
const maxBody = 64 << 20

// Error mirrors the server's error envelope, plus the transport
// metadata callers need for routing decisions: the HTTP status and the
// parsed Retry-After hint. A nil RetryAfter field (zero) means the
// server gave no hint.
type Error struct {
	Code       string
	Message    string
	Retryable  bool
	Status     int
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s (retryable=%v)", e.Code, e.Message, e.Retryable)
}

// Client talks to one base URL with the shared retry policy. The zero
// value of Retries/Backoff means a single attempt with no sleep; the
// gateway uses that (it does its own ring failover) while zkcli sets
// both from flags.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	Retries int           // extra attempts after the first
	Backoff time.Duration // base backoff; doubles per attempt, jittered

	// OnRetry, when set, observes each retry decision (zkcli prints a
	// progress line from it). err is the failure being retried.
	OnRetry func(err error, delay time.Duration, attempt, retries int)
}

// New returns a client for baseURL using http.DefaultClient.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Do sends one request with the retry policy and returns the response
// body. payload may be nil (GET/DELETE). The last error is returned
// verbatim — as *Error for envelope failures, so callers and tests can
// inspect the code.
func (c *Client) Do(method, path string, payload []byte) ([]byte, error) {
	_, data, err := c.DoWith(method, path, payload, nil)
	return data, err
}

// DoWith is Do plus the transport details some callers need: extra
// request headers (e.g. Idempotency-Key), and the HTTP status of the
// successful response — the jobs API distinguishes 202 accepted from
// 200 deduplicated/ready on an otherwise identical body.
func (c *Client) DoWith(method, path string, payload []byte, header http.Header) (status int, data []byte, err error) {
	status, data, _, err = c.do(method, path, payload, header)
	return status, data, err
}

// do runs the retry loop around once, threading headers in and the
// status + Retry-After hint of the final response out.
func (c *Client) do(method, path string, payload []byte, header http.Header) (status int, data []byte, retryAfter time.Duration, err error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 0; ; attempt++ {
		st, data, hint, retryable, err := c.once(method, path, payload, header)
		if err == nil {
			return st, data, hint, nil
		}
		if !retryable || attempt >= c.Retries {
			return st, nil, hint, err
		}
		d := jitter(c.Backoff, attempt, rng)
		// A server Retry-After hint is a floor on the sleep: backing off
		// sooner than the breaker cooldown just burns an attempt.
		if we, ok := err.(*Error); ok && we.RetryAfter > d {
			d = we.RetryAfter
		}
		if c.OnRetry != nil {
			c.OnRetry(err, d, attempt+1, c.Retries)
		}
		time.Sleep(d)
	}
}

// once performs a single exchange. Network-level failures (connection
// refused, reset) report retryable: the server may be restarting.
func (c *Client) once(method, path string, payload []byte, header http.Header) (status int, data []byte, retryAfter time.Duration, retryable bool, err error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, body)
	if err != nil {
		return 0, nil, 0, false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, nil, 0, true, err
	}
	defer resp.Body.Close()
	hint := parseRetryAfter(resp.Header.Get("Retry-After"))
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return resp.StatusCode, nil, hint, true, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp.StatusCode, raw, hint, false, nil
	}
	env := &Error{Status: resp.StatusCode, RetryAfter: hint}
	var wire httpx.Envelope
	if jsonErr := json.Unmarshal(raw, &wire); jsonErr != nil || wire.Code == "" {
		return resp.StatusCode, nil, hint, false, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	env.Code, env.Message, env.Retryable = wire.Code, wire.Message, wire.Retryable
	return resp.StatusCode, nil, hint, env.Retryable, env
}

// PostJSON marshals in, POSTs it to path, and decodes the response into
// out (skipped when out is nil).
func (c *Client) PostJSON(path string, in, out any) error {
	_, err := c.PostJSONWith(path, nil, in, out)
	return err
}

// PostJSONWith is PostJSON with extra request headers, reporting the
// response status so callers can tell 202 accepted from 200 deduped.
func (c *Client) PostJSONWith(path string, header http.Header, in, out any) (status int, err error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	status, data, err := c.DoWith(http.MethodPost, path, payload, header)
	if err != nil {
		return status, err
	}
	return status, decode(data, out)
}

// GetJSON GETs path and decodes the response into out.
func (c *Client) GetJSON(path string, out any) error {
	_, err := c.GetJSONHint(path, out)
	return err
}

// GetJSONHint is GetJSON, additionally returning the response's
// Retry-After hint (zero when absent) — job pollers pace themselves by
// it instead of a fixed interval.
func (c *Client) GetJSONHint(path string, out any) (retryAfter time.Duration, err error) {
	_, data, hint, err := c.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return hint, err
	}
	return hint, decode(data, out)
}

// Delete issues a DELETE and decodes the response into out (skipped
// when out is nil).
func (c *Client) Delete(path string, out any) error {
	data, err := c.Do(http.MethodDelete, path, nil)
	if err != nil {
		return err
	}
	return decode(data, out)
}

func decode(data []byte, out any) error {
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("decoding reply: %v", err)
	}
	return nil
}

// jitter computes the sleep before retry attempt n (0-based): the base
// doubles each attempt and the result is drawn uniformly from [d/2, d),
// so a burst of shed clients does not come back in lockstep. A base of
// zero means immediate retries; the 1m cap only applies to oversized
// backoffs and shift overflow.
func jitter(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << uint(attempt)
	if d <= 0 || d > time.Minute {
		d = time.Minute
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// parseRetryAfter understands the delta-seconds form of Retry-After
// (what zkserve emits) and falls back to the HTTP-date form. Returns 0
// when absent or unparseable.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}
