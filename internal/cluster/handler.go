package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"zkperf/internal/client"
	"zkperf/internal/httpx"
)

// The gateway speaks the same /v1 wire API as a single zkserve node, so
// zkcli (and any other client) points at it unchanged:
//
//	POST   /v1/prove         routed by circuit shard, ring failover
//	POST   /v1/prove/batch   scatter-gathered across shard owners
//	POST   /v1/verify        routed by circuit shard
//	POST   /v1/verify/batch  scatter-gathered; same-shard items reach one
//	                         node as one sub-batch, so they share a fold
//	POST   /v1/jobs          routed; returned job IDs become "<id>@<node>"
//	GET    /v1/jobs/{id}     "<id>@<node>" → proxied to that node
//	DELETE /v1/jobs/{id}     likewise (cancel)
//	GET    /v1/stats         cluster rollup (gateway + per-node + aggregate)
//	GET    /v1/metrics       gateway registry (zkgw_* series)
//	GET    /v1/healthz       200 while ≥1 node is healthy
//
// The shared edge (internal/httpx) answers the legacy paths, /v1/metrics
// and request IDs exactly as the nodes do, and the inbound request ID is
// forwarded on every call to a node, so one ID joins the gateway's access
// log to the node's. Batch endpoints speak the unified convention:
// {"items":[…]} in, index-aligned {"results":[{"index",…}]} out.
//
// Error envelopes from nodes pass through verbatim with their original
// status; gateway-originated failures use the same envelope with codes
// node_unreachable (502, one node down) and no_healthy_node (503, ring
// exhausted), both retryable.

// writeError relays an error to the client. A *client.Error carries the
// upstream node's envelope (or a gateway-synthesized one) with its status
// and Retry-After; anything else takes the edge's class (httpx.Classify).
func writeError(w http.ResponseWriter, err error) {
	if we, ok := err.(*client.Error); ok {
		status := we.Status
		if status == 0 {
			status = http.StatusBadGateway
		}
		httpx.WriteError(w, status, &httpx.Envelope{Code: we.Code, Message: we.Message, Retryable: we.Retryable}, we.RetryAfter)
		return
	}
	status, code := httpx.Classify(err)
	httpx.WriteError(w, status, &httpx.Envelope{Code: code, Message: err.Error()}, 0)
}

// routeFields is the subset of a prove/verify/job body the gateway
// needs for sharding; unknown fields are preserved by forwarding the
// raw bytes, not this struct.
type routeFields struct {
	Curve   string `json:"curve"`
	Backend string `json:"backend"`
	Circuit string `json:"circuit"`
}

// Handler serves the gateway API.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/prove", g.handleRouted("/v1/prove"))
	mux.HandleFunc("POST /v1/verify", g.handleRouted("/v1/verify"))
	mux.HandleFunc("POST /v1/prove/batch", g.handleScatterBatch("/v1/prove/batch"))
	mux.HandleFunc("POST /v1/verify/batch", g.handleScatterBatch("/v1/verify/batch"))
	mux.HandleFunc("POST /v1/jobs", g.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", g.handleJobByID(http.MethodGet))
	mux.HandleFunc("DELETE /v1/jobs/{id}", g.handleJobByID(http.MethodDelete))
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/healthz", g.handleHealthz)
	return httpx.Mount(mux, "cluster", g.tel.Registry(), nil)
}

// readBody buffers the (capped) request body and extracts the shard key
// fields from it.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, routeFields, error) {
	var rf routeFields
	buf, err := httpx.ReadAll(w, r, httpx.MaxBody)
	if err == nil {
		err = json.Unmarshal(buf, &rf)
	}
	if err != nil {
		return nil, rf, fmt.Errorf("cluster: bad request body: %w", err)
	}
	return buf, rf, nil
}

// handleRouted forwards a single-circuit request (prove or verify) to
// its shard owner, failing over along the ring.
func (g *Gateway) handleRouted(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		payload, rf, err := readBody(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		_, _, data, err := g.forward(routeKey(rf.Curve, rf.Backend, rf.Circuit), path, payload, httpx.Forward(r))
		if err != nil {
			writeError(w, err)
			return
		}
		httpx.WriteRaw(w, http.StatusOK, data)
	}
}

// handleJobSubmit routes an async submit like a prove, then rewrites
// the returned job ID to "<id>@<node>" so the gateway can route the
// poll and cancel statelessly — the ID itself names the owner. The
// Idempotency-Key header is forwarded, and the node's status is
// mirrored so a dedup hit stays a 200 through the gateway.
func (g *Gateway) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	payload, rf, err := readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	header := httpx.Forward(r)
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		header.Set("Idempotency-Key", key)
	}
	n, status, data, err := g.forward(routeKey(rf.Curve, rf.Backend, rf.Circuit), "/v1/jobs", payload, header)
	if err != nil {
		writeError(w, err)
		return
	}
	rewritten, err := rewriteJobID(data, n.name)
	if err != nil {
		writeError(w, &client.Error{
			Code:      "internal_error",
			Message:   fmt.Sprintf("cluster: undecodable job reply from %s: %v", n.name, err),
			Status:    http.StatusBadGateway,
			Retryable: true,
		})
		return
	}
	g.jobsRouted.Add(1)
	if status < 200 || status > 299 {
		status = http.StatusAccepted
	}
	httpx.WriteRaw(w, status, rewritten)
}

// rewriteJobID suffixes the node name onto the "id" field of a job
// reply, preserving every other field verbatim.
func rewriteJobID(data []byte, nodeName string) ([]byte, error) {
	var rep map[string]json.RawMessage
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	var id string
	if err := json.Unmarshal(rep["id"], &id); err != nil {
		return nil, fmt.Errorf("missing job id: %w", err)
	}
	idRaw, err := json.Marshal(id + "@" + nodeName)
	if err != nil {
		return nil, err
	}
	rep["id"] = idRaw
	return json.Marshal(rep)
}

// handleJobByID proxies a job poll or cancel to the node named in the
// "<id>@<node>" gateway job ID.
func (g *Gateway) handleJobByID(method string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		gwID := r.PathValue("id")
		remote, nodeName, ok := splitJobID(gwID)
		n := g.byName[nodeName]
		if !ok || n == nil {
			writeError(w, &client.Error{
				Code:    "job_not_found",
				Message: fmt.Sprintf("cluster: job id %q is not <id>@<node> for a node of this gateway", gwID),
				Status:  http.StatusNotFound,
			})
			return
		}
		_, data, err := n.cl.DoWith(method, "/v1/jobs/"+remote, nil, httpx.Forward(r))
		if err != nil {
			if we, ok := err.(*client.Error); ok {
				// Node answered: its verdict (404 after TTL, envelope on a
				// failed cancel…) passes through.
				writeError(w, we)
				return
			}
			n.markFailure(g.cfg.FailThreshold, err)
			writeError(w, &client.Error{
				Code:      "node_unreachable",
				Message:   fmt.Sprintf("cluster: node %s: %v", nodeName, err),
				Status:    http.StatusBadGateway,
				Retryable: true,
			})
			return
		}
		n.markSuccess()
		rewritten, rwErr := rewriteJobID(data, nodeName)
		if rwErr != nil {
			rewritten = data // degrade to the raw reply rather than failing the poll
		}
		// Re-derive the node's poll pacing hint: a still-live job tells the
		// poller to come back in about a second, matching the node's own
		// Retry-After behavior.
		var st struct {
			State string `json:"state"`
		}
		if method == http.MethodGet && json.Unmarshal(data, &st) == nil &&
			st.State != "done" && st.State != "failed" {
			w.Header().Set("Retry-After", "1")
		}
		httpx.WriteRaw(w, http.StatusOK, rewritten)
	}
}

// handleScatterBatch splits a unified {"items":[…]} batch across shard
// owners, runs each group's sub-batch concurrently on its node (with
// ring failover), and stitches the results back in request order — so
// same-circuit verify items land on one node and share its folded
// pairing check. A group whose ring walk is exhausted yields per-item
// error envelopes instead of failing the whole batch. Node-local result
// indices are rewritten to the caller's global positions.
func (g *Gateway) handleScatterBatch(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Items    []json.RawMessage `json:"items"`
			Requests json.RawMessage   `json:"requests"`
		}
		if err := httpx.Decode(w, r, httpx.MaxBody, &body); err != nil {
			writeError(w, fmt.Errorf("cluster: bad request body: %w", err))
			return
		}
		if env := httpx.Retired(body.Requests, "cluster"); env != nil {
			httpx.WriteError(w, http.StatusBadRequest, env, 0)
			return
		}
		list := body.Items
		hdr := httpx.Forward(r)
		type group struct {
			key     uint64
			indices []int
			items   []json.RawMessage
		}
		// Group items by shard owner so each node sees one sub-batch and its
		// own batch executor (or verify fold) schedules within it.
		groups := map[string]*group{}
		for i, raw := range list {
			var rf routeFields
			if err := json.Unmarshal(raw, &rf); err != nil {
				writeError(w, fmt.Errorf("cluster: bad request %d in batch: %w", i, err))
				return
			}
			key := routeKey(rf.Curve, rf.Backend, rf.Circuit)
			owner := "-"
			if cands := g.candidates(key); len(cands) > 0 {
				owner = cands[0].name
			}
			gr := groups[owner]
			if gr == nil {
				gr = &group{key: key}
				groups[owner] = gr
			}
			gr.indices = append(gr.indices, i)
			gr.items = append(gr.items, raw)
		}

		results := make([]json.RawMessage, len(list))
		var wg sync.WaitGroup
		for _, gr := range groups {
			gr := gr
			wg.Add(1)
			go func() {
				defer wg.Done()
				sub, _ := client.MarshalBatch(gr.items)
				_, _, data, err := g.forward(gr.key, path, sub, hdr)
				var rep []json.RawMessage
				if err == nil {
					rep, err = client.SplitBatchResults(data, len(gr.indices))
				}
				for k, idx := range gr.indices {
					if err == nil {
						results[idx] = rewriteIndex(rep[k], idx)
						continue
					}
					// A node's (or the exhausted ring's) envelope, or an
					// undecodable sub-batch reply.
					env := httpx.Envelope{Code: "internal_error", Message: "cluster: " + err.Error(), Retryable: true}
					if we, ok := err.(*client.Error); ok {
						env = httpx.Envelope{Code: we.Code, Message: we.Message, Retryable: we.Retryable}
					}
					results[idx], _ = json.Marshal(map[string]any{"index": idx, "error": env})
				}
			}()
		}
		wg.Wait()
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"results": results})
	}
}

// rewriteIndex replaces a sub-batch result's node-local index with the
// item's position in the caller's batch, preserving every other field.
// An undecodable item passes through untouched — better a wrong index
// than a dropped result.
func rewriteIndex(raw json.RawMessage, idx int) json.RawMessage {
	var item map[string]json.RawMessage
	if err := json.Unmarshal(raw, &item); err != nil {
		return raw
	}
	item["index"], _ = json.Marshal(idx)
	out, err := json.Marshal(item)
	if err != nil {
		return raw
	}
	return out
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, g.Stats())
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.healthyCount() == 0 {
		httpx.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no_healthy_node"})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
