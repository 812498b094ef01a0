package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestRequestIDCrossesHop checks that every gateway→node call — the
// routed prove, the scatter sub-batch, the job submit and the job poll
// and cancel — carries the caller's request ID, and that a caller
// without one gets the ID the gateway minted at the node too.
func TestRequestIDCrossesHop(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]string{} // "METHOD path" → X-Request-Id at the node
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.Method+" "+r.URL.Path] = r.Header.Get("X-Request-Id")
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch {
		case r.URL.Path == "/v1/prove":
			w.Write([]byte(`{"proof":"00"}`))
		case r.URL.Path == "/v1/prove/batch":
			w.Write([]byte(`{"results":[{"index":0,"proof":"00"}]}`))
		case r.URL.Path == "/v1/jobs":
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"id":"j1","state":"queued"}`))
		default:
			w.Write([]byte(`{"id":"j1","state":"done"}`))
		}
	}))
	defer node.Close()
	gw, err := New(Config{Nodes: []NodeConfig{{Name: "n0", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	item := `{"circuit":"c","inputs":{"x":"1"}}`
	calls := []struct{ method, path, body, atNode string }{
		{http.MethodPost, "/v1/prove", item, "POST /v1/prove"},
		{http.MethodPost, "/v1/prove/batch", `{"items":[` + item + `]}`, "POST /v1/prove/batch"},
		{http.MethodPost, "/v1/jobs", item, "POST /v1/jobs"},
		{http.MethodGet, "/v1/jobs/j1@n0", "", "GET /v1/jobs/j1"},
		{http.MethodDelete, "/v1/jobs/j1@n0", "", "DELETE /v1/jobs/j1"},
	}
	for _, sent := range []string{"caller-7", ""} {
		for _, c := range calls {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			if sent != "" {
				req.Header.Set("X-Request-Id", sent)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode/100 != 2 {
				t.Fatalf("%s %s via gateway = %d", c.method, c.path, resp.StatusCode)
			}
			want := resp.Header.Get("X-Request-Id")
			if sent != "" && want != sent {
				t.Errorf("%s %s: gateway answered ID %q, want %q", c.method, c.path, want, sent)
			}
			mu.Lock()
			got := seen[c.atNode]
			mu.Unlock()
			if got == "" || got != want {
				t.Errorf("%s %s (sent %q): node saw X-Request-Id %q, want %q", c.method, c.path, sent, got, want)
			}
		}
	}
}
