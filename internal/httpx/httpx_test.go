package httpx

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkperf/internal/telemetry"
)

// TestRequestIDValidation pins the documented adoption rule: 1–64
// printable ASCII characters other than space are adopted; anything else
// is replaced by a fresh ID, so an adopted ID is always one log token.
func TestRequestIDValidation(t *testing.T) {
	var seen string
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = telemetry.RequestIDFromContext(r.Context())
	}))
	for _, c := range []struct {
		name, id string
		adopt    bool
	}{
		{"plain", "client-42", true},
		{"punctuation", "a/b:c@d~!", true},
		{"64 chars", strings.Repeat("x", 64), true},
		{"65 chars", strings.Repeat("x", 65), false},
		{"space", "client id 7", false},
		{"tab", "client\tid", false},
		{"newline", "client\nid", false},
		{"DEL", "client\x7f", false},
		{"non-ASCII", "clïent", false},
		{"absent", "", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		if c.id != "" {
			req.Header.Set(RequestIDHeader, c.id)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		got := rec.Header().Get(RequestIDHeader)
		if got != seen {
			t.Errorf("%s: echoed %q but the context carries %q", c.name, got, seen)
		}
		if c.adopt && got != c.id {
			t.Errorf("%s: ID %q not adopted (got %q)", c.name, c.id, got)
		}
		if !c.adopt && (got == c.id || len(got) != 16) {
			t.Errorf("%s: ID %q should be replaced by a fresh 16-char ID, got %q", c.name, c.id, got)
		}
	}
}

// TestForward checks a proxy hands the next hop the ID the middleware
// settled on.
func TestForward(t *testing.T) {
	var fwd http.Header
	h := RequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fwd = Forward(r)
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set(RequestIDHeader, "caller-1")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if got := fwd.Get(RequestIDHeader); got != "caller-1" {
		t.Errorf("forwarded ID = %q, want caller-1", got)
	}
}

func TestWriteErrorRetryAfter(t *testing.T) {
	for _, c := range []struct {
		ra   time.Duration
		want string
	}{
		{0, ""},
		{time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{7 * time.Second, "7"},
	} {
		rec := httptest.NewRecorder()
		WriteError(rec, http.StatusTooManyRequests, &Envelope{Code: "queue_full", Message: "m", Retryable: true}, c.ra)
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("Retry-After for %v = %q, want %q", c.ra, got, c.want)
		}
		if got := rec.Body.String(); got != `{"code":"queue_full","message":"m","retryable":true}`+"\n" {
			t.Errorf("envelope body = %q", got)
		}
	}
}

func TestClassify(t *testing.T) {
	tooBig := fmt.Errorf("x: bad request body: %w", &http.MaxBytesError{Limit: 1})
	if status, code := Classify(tooBig); status != http.StatusRequestEntityTooLarge || code != "body_too_large" {
		t.Errorf("Classify(too big) = %d %s", status, code)
	}
	if status, code := Classify(errors.New("x")); status != http.StatusBadRequest || code != "bad_request" {
		t.Errorf("Classify(other) = %d %s", status, code)
	}
}
