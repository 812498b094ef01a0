// Command zkgateway fronts a cluster of zkserve nodes with a single
// /v1 endpoint. Requests shard across nodes by consistent-hashing the
// circuit key (curve, backend, circuit source), so every circuit lands
// on the node that already holds its compiled registry entry and setup
// artifacts — the cluster-scale version of the cache-affinity argument
// zkserve makes within one process.
//
//	zkgateway -addr :8089 \
//	    -nodes a=http://10.0.0.1:8090,b=http://10.0.0.2:8090
//
// -nodes takes comma-separated name=url pairs (bare URLs get names
// node0, node1, …). A background prober polls each node's /v1/healthz
// every -probe-every; -fail-threshold consecutive transport failures
// mark a node unhealthy and its shard fails over to the next ring node
// until a probe succeeds again.
//
// The gateway serves the node API unchanged (zkcli points at it as if
// it were one zkserve), plus:
//
//	GET /v1/stats    cluster rollup: gateway counters, per-node health
//	                 and scraped node stats, cross-node aggregate
//	GET /v1/metrics  gateway telemetry (zkgw_* series, per-node labels)
//
// Async job IDs returned through the gateway carry an "@<node>" suffix
// so polls and cancels route to the owning node with no gateway state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zkperf/internal/cluster"
	"zkperf/internal/httpx"
	"zkperf/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8089", "listen address")
	nodesFlag := flag.String("nodes", "", "comma-separated zkserve nodes as name=url (or bare urls)")
	replicas := flag.Int("replicas", 0, "virtual ring points per node (default 64)")
	probeEvery := flag.Duration("probe-every", cluster.DefaultProbeEvery, "health-probe interval")
	failThreshold := flag.Int("fail-threshold", cluster.DefaultFailThreshold, "consecutive transport failures that mark a node unhealthy")
	cooldown := flag.Duration("cooldown", cluster.DefaultCooldown, "unhealthy-node cooldown")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain deadline for in-flight requests")
	telemetryOn := flag.Bool("telemetry", true, "serve gateway metrics at /v1/metrics")
	accessLog := flag.Bool("access-log", true, "log one line per HTTP request")
	flag.Parse()

	nodes, err := parseNodes(*nodesFlag)
	if err != nil {
		log.Fatalf("zkgateway: -nodes: %v", err)
	}
	var tel *telemetry.Telemetry
	if *telemetryOn {
		tel = telemetry.New()
	}
	gw, err := cluster.New(cluster.Config{
		Nodes:         nodes,
		Replicas:      *replicas,
		ProbeEvery:    *probeEvery,
		FailThreshold: *failThreshold,
		Cooldown:      *cooldown,
		Telemetry:     tel,
	})
	if err != nil {
		log.Fatalf("zkgateway: %v", err)
	}
	gw.Start()

	handler := gw.Handler()
	if *accessLog {
		handler = httpx.LogRequests(handler)
	}
	// Same edge-timeout posture as zkserve: bound header/body reads and
	// idle keep-alives, but no WriteTimeout — a proxied prove response is
	// bounded by the node-side job deadline, not a connection timer.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = fmt.Sprintf("%s=%s", n.Name, n.URL)
	}
	log.Printf("zkgateway listening on %s, routing to %d nodes: %s",
		*addr, len(nodes), strings.Join(names, " "))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("zkgateway: %v", err)
	case <-ctx.Done():
	}

	log.Printf("zkgateway: draining (deadline %v)…", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("zkgateway: http shutdown: %v", err)
	}
	if err := gw.Shutdown(drainCtx); err != nil {
		log.Printf("zkgateway: %v", err)
		os.Exit(1)
	}
}

// parseNodes parses the -nodes flag: comma-separated name=url pairs,
// or bare URLs that get positional names.
func parseNodes(s string) ([]cluster.NodeConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("at least one node is required")
	}
	var out []cluster.NodeConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nc := cluster.NodeConfig{}
		if eq := strings.Index(part, "="); eq >= 0 && !strings.Contains(part[:eq], "/") {
			nc.Name, nc.URL = part[:eq], part[eq+1:]
		} else {
			nc.Name, nc.URL = fmt.Sprintf("node%d", len(out)), part
		}
		if !strings.Contains(nc.URL, "://") {
			nc.URL = "http://" + nc.URL
		}
		out = append(out, nc)
	}
	return out, nil
}
