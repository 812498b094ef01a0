// Package httpx is the HTTP edge shared by zkserve nodes and the
// gateway: error envelope and writers, request IDs, access log, body cap,
// legacy-path 410s, the retired batch key and /v1/metrics. Server policy
// (codes, Retry-After, what a node books) arrives as data; name arguments
// ("provesvc", "cluster") prefix the messages the edge writes itself.
package httpx

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zkperf/internal/telemetry"
)

const (
	// MaxBody is the default request-body cap: circuit sources and proofs
	// are small, and 4 MiB leaves headroom for batches while keeping a
	// hostile client from ballooning the decoder.
	MaxBody = 4 << 20
	// RequestIDHeader carries the request ID: adopted from the caller,
	// echoed on the response, forwarded to the next hop.
	RequestIDHeader = "X-Request-Id"
)

// Envelope is the body of every error answer: a stable code, and whether
// the same request can succeed later.
type Envelope struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// WriteJSON answers status with v encoded as JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteRaw answers status with data that is already JSON.
func WriteRaw(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// WriteError answers status with env; a positive retryAfter becomes a
// Retry-After header, rounded up to whole seconds.
func WriteError(w http.ResponseWriter, status int, env *Envelope, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	WriteJSON(w, status, env)
}

// Decode decodes one JSON value of r's body, capped at limit bytes, into v.
func Decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return json.NewDecoder(r.Body).Decode(v)
}

// ReadAll reads r's body, capped at limit bytes.
func ReadAll(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	return io.ReadAll(r.Body)
}

// Classify classes an error no server policy claims: 413 body_too_large
// past the body cap, 400 bad_request otherwise; neither is retryable.
func Classify(err error) (status int, code string) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, "body_too_large"
	}
	return http.StatusBadRequest, "bad_request"
}

// Retired returns the 400 invalid_request envelope when a batch body
// carried the retired "requests" key (that field, raw), even beside
// "items", so a stale client fails loudly; nil otherwise.
func Retired(requests json.RawMessage, name string) *Envelope {
	if requests == nil {
		return nil
	}
	return &Envelope{
		Code:    "invalid_request",
		Message: name + `: the deprecated "requests" batch field was removed; send {"items":[…]}`,
	}
}

// RequestID gives every request an ID — the caller's when valid, a fresh
// one otherwise — echoed on the response and carried in the context.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validID(id) {
			id = telemetry.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(telemetry.WithRequestID(r.Context(), id)))
	})
}

// validID accepts 1–64 printable ASCII characters other than space
// (0x21–0x7E), so an adopted ID is always one token of a log line.
func validID(id string) bool {
	return id != "" && len(id) <= 64 &&
		strings.IndexFunc(id, func(c rune) bool { return c < 0x21 || c > 0x7e }) < 0
}

// Forward returns the headers that make the next hop adopt r's ID.
func Forward(r *http.Request) http.Header {
	return http.Header{RequestIDHeader: {telemetry.RequestIDFromContext(r.Context())}}
}

// statusRecorder captures the status code for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// LogRequests wraps a handler with a structured access log on the
// standard logger: one line per request with method, path, status,
// duration and request ID.
func LogRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		log.Printf("http method=%s path=%s status=%d dur_ms=%.1f request_id=%s",
			r.Method, r.URL.Path, rec.status,
			float64(time.Since(t0))/1e6, rec.Header().Get(RequestIDHeader))
	})
}

// LegacyPaths are the unversioned routes retired in favour of /v1.
var LegacyPaths = []string{"/prove", "/prove/batch", "/verify", "/verify/batch", "/jobs", "/stats", "/metrics", "/healthz"}

// Mount adds GET /v1/metrics and a 410 gone naming the /v1 replacement
// on each of LegacyPaths to mux, and returns mux behind RequestID. gone,
// when set, runs on every 410 so the server can book it.
func Mount(mux *http.ServeMux, name string, reg *telemetry.Registry, gone func()) http.Handler {
	mux.Handle("GET /v1/metrics", Metrics(name, reg))
	for _, path := range LegacyPaths {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if gone != nil {
				gone()
			}
			WriteJSON(w, http.StatusGone, &Envelope{
				Code:    "gone",
				Message: fmt.Sprintf("%s: unversioned path %s was removed; use /v1%s", name, path, path),
			})
		})
	}
	return RequestID(mux)
}

// Metrics serves reg as Prometheus text; nil reg answers 404
// telemetry_disabled.
func Metrics(name string, reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			WriteJSON(w, http.StatusNotFound, &Envelope{
				Code:    "telemetry_disabled",
				Message: name + ": telemetry is disabled on this service",
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteText(w)
	}
}
