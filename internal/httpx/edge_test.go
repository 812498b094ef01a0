package httpx_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zkperf/internal/cluster"
	"zkperf/internal/httpx"
	"zkperf/internal/provesvc"
)

// edgeServers starts a zkserve node and a gateway in front of it, both
// with telemetry off, and returns their base URLs.
func edgeServers(t *testing.T) map[string]string {
	t.Helper()
	svc := provesvc.New(provesvc.WithWorkers(1), provesvc.WithQueueDepth(2),
		provesvc.WithSeed(1), provesvc.WithTelemetry(nil))
	svc.Start()
	node := httptest.NewServer(provesvc.NewHandler(svc))
	gw, err := cluster.New(cluster.Config{Nodes: []cluster.NodeConfig{{Name: "n0", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	gateway := httptest.NewServer(gw.Handler())
	t.Cleanup(func() {
		gateway.Close()
		node.Close()
		svc.Shutdown(context.Background())
	})
	return map[string]string{"node": node.URL, "gateway": gateway.URL}
}

// TestEdgeParity runs one table of edge cases against a node and a
// gateway: both must answer with the same status, envelope code,
// retryability, Content-Type and request-ID behaviour.
func TestEdgeParity(t *testing.T) {
	oversize := `{"circuit":"` + strings.Repeat("a", httpx.MaxBody) + `"}`
	type edgeCase struct {
		method, path, body string
		id                 string // sent X-Request-Id; "" sends none
		status             int
		code               string // "" for a non-envelope answer
		minted             bool   // the answer carries a fresh ID, not id
	}
	var cases []edgeCase
	for _, p := range httpx.LegacyPaths {
		cases = append(cases, edgeCase{http.MethodPost, p, "{}", "legacy-1", http.StatusGone, "gone", false})
	}
	cases = append(cases,
		edgeCase{http.MethodPost, "/v1/prove", oversize, "big-1", http.StatusRequestEntityTooLarge, "body_too_large", false},
		edgeCase{http.MethodPost, "/v1/prove/batch", oversize, "big-2", http.StatusRequestEntityTooLarge, "body_too_large", false},
		edgeCase{http.MethodPost, "/v1/jobs", oversize, "big-3", http.StatusRequestEntityTooLarge, "body_too_large", false},
		edgeCase{http.MethodPost, "/v1/prove", `{"circuit":`, "bad-1", http.StatusBadRequest, "bad_request", false},
		edgeCase{http.MethodPost, "/v1/verify", `[`, "bad-2", http.StatusBadRequest, "bad_request", false},
		edgeCase{http.MethodPost, "/v1/jobs", `{"kind":`, "bad-3", http.StatusBadRequest, "bad_request", false},
		edgeCase{http.MethodPost, "/v1/prove/batch", `{"requests":[]}`, "alias-1", http.StatusBadRequest, "invalid_request", false},
		edgeCase{http.MethodPost, "/v1/verify/batch", `{"items":[],"requests":[]}`, "alias-2", http.StatusBadRequest, "invalid_request", false},
		edgeCase{http.MethodGet, "/v1/metrics", "", "metrics-1", http.StatusNotFound, "telemetry_disabled", false},
		edgeCase{http.MethodGet, "/v1/healthz", "", "caller-7", http.StatusOK, "", false},
		edgeCase{http.MethodGet, "/v1/healthz", "", strings.Repeat("z", 64), http.StatusOK, "", false},
		edgeCase{http.MethodGet, "/v1/healthz", "", "", http.StatusOK, "", true},
		edgeCase{http.MethodGet, "/v1/healthz", "", "client id 7", http.StatusOK, "", true},
		edgeCase{http.MethodGet, "/v1/healthz", "", "client\tid", http.StatusOK, "", true},
		edgeCase{http.MethodGet, "/v1/healthz", "", strings.Repeat("z", 65), http.StatusOK, "", true},
	)

	for server, base := range edgeServers(t) {
		for _, c := range cases {
			var body io.Reader
			if c.body != "" {
				body = strings.NewReader(c.body)
			}
			req, err := http.NewRequest(c.method, base+c.path, body)
			if err != nil {
				t.Fatal(err)
			}
			if c.id != "" {
				req.Header.Set("X-Request-Id", c.id)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s %s: %v", server, c.method, c.path, err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			what := server + " " + c.method + " " + c.path
			if resp.StatusCode != c.status {
				t.Errorf("%s: status %d, want %d (body %.200s)", what, resp.StatusCode, c.status, raw)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: Content-Type %q, want application/json", what, ct)
			}
			id := resp.Header.Get("X-Request-Id")
			if c.minted && (id == c.id || len(id) != 16) {
				t.Errorf("%s: sent ID %q answered with %q, want a fresh 16-char ID", what, c.id, id)
			}
			if !c.minted && id != c.id {
				t.Errorf("%s: sent ID %q answered with %q, want it echoed", what, c.id, id)
			}
			if c.code == "" {
				continue
			}
			var env map[string]any
			if err := json.Unmarshal(raw, &env); err != nil {
				t.Errorf("%s: body is not an envelope: %.200s", what, raw)
				continue
			}
			if env["code"] != c.code || env["retryable"] != false {
				t.Errorf("%s: envelope %v, want code %q, retryable false", what, env, c.code)
			}
			if msg, _ := env["message"].(string); msg == "" {
				t.Errorf("%s: envelope without a message", what)
			}
		}
	}
}
