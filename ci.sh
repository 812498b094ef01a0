#!/bin/sh
# CI gate: formatting and vet first (cheap, catch drift early), then the
# full test suite under the race detector (the mixed-backend worker pool
# and the lock-free telemetry registry must stay race-clean), then two
# one-shot benchmark smokes: the groth16-vs-plonk head-to-head, and the
# telemetry overhead pair (disabled must stay within noise of the
# pre-telemetry prove path — TestDisabledHookOverhead enforces the
# nanosecond-level bound; this prints the full-prove numbers for review).
# After that, the robustness gates: an explicit fault-injection pass over
# the provesvc failure paths (panic isolation, breaker, deadlines,
# artifact quarantine), and short fuzz smokes over the wire decoders —
# the surfaces that read attacker-controlled bytes.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
go test -race ./...
# The allocation gates (bytes and allocations per GLV MSM and per 2^14
# prove) count what the heap hands out, which the race detector inflates,
# so they are built without it and skipped by the -race run above.
go test -count=1 -run 'Alloc' ./internal/curve/ ./internal/groth16/
go test -run '^$' -bench '^BenchmarkBackends$' -benchtime=1x .
go test -run '^$' -bench '^BenchmarkTelemetryOverhead$' -benchtime=1x .
# Kernel smoke: the 2^10 slice of the NTT/MSM/fixed-base tracking
# benchmark — one iteration per (kernel, curve, thread count) so a kernel
# regression that only shows up off the test sizes still gets exercised in
# CI — plus the pairing primitives (Miller loop, final exponentiation,
# reduced pairing) on both curves.
go test -run '^$' -bench 'BenchmarkKernels/.*/.*/n=2\^10' -benchtime=1x .
go test -run '^$' -bench 'BenchmarkKernels/pairing' -benchtime=1x .
# Batched-verify smoke: the folded multi-pairing's per-proof cost at
# n=64 against the n=1 baseline (the ≥3× amortization target lives in
# the benchmark's us/proof metric; one iteration keeps CI honest).
go test -run '^$' -bench 'BenchmarkVerifyBatch/n=(1|64)$' -benchtime=1x .
go test -race -count=1 \
    -run 'TestPanicMidProve|TestArtifact|TestBreaker|TestDeadline|TestMaxTimeout|TestDrainWithExpiring|TestHTTPErrorCodes' \
    ./internal/provesvc/
# The crash-safe file primitive under all three on-disk stores: torn
# writes, rename-window and directory-fsync faults, corruption, sweep.
go test -race -count=1 ./internal/durable/
go test -run '^$' -fuzz '^FuzzReadProof$' -fuzztime=5s ./internal/backend/
go test -run '^$' -fuzz '^FuzzReadProvingKey$' -fuzztime=5s ./internal/backend/
go test -run '^$' -fuzz '^FuzzReadVerifyingKey$' -fuzztime=5s ./internal/backend/
# The job-journal WAL decoder reads whatever a crash left on disk —
# attacker-grade bytes as far as replay is concerned (lying length
# prefixes, torn frames, bit rot).
go test -run '^$' -fuzz '^FuzzJournalDecode$' -fuzztime=5s ./internal/jobs/
# Cluster smoke: two zkserve nodes behind zkgateway over real loopback
# sockets — async jobs complete, the request ID the gateway logged for a
# submit is in a node's access log, routing stays shard-stable (per-node
# setup counters stop growing), and killing a node fails its shard over.
sh scripts/e2e_cluster.sh
# Durability chaos drill: a journaled zkserve under zkload -async
# traffic is SIGKILLed mid-job and restarted on the same WAL — accepted
# jobs replay, queued-at-crash work re-executes, Idempotency-Key dedup
# crosses the crash, and an injected torn tail quarantines cleanly.
sh scripts/e2e_crash.sh
# Load-harness smoke: a short closed-loop zkload run against an
# in-process zkserve (Zipf 1.0, a few hundred requests) must finish with
# non-zero throughput (zkload exits 1 on zero successes) and a
# well-formed percentile report. The service boots through zkserve's own
# flags and defaults, so the scheduler it checks is the one that ships.
out="$(go run ./cmd/zkload -inproc -serve-flags '-workers 2' -requests 300 \
    -warmup 0s -measure 60s -circuits 8 -clients 4 -zipf 1.0 -seed 7)"
echo "$out"
echo "$out" | grep -q 'zkload: result ok=300 err=0'
echo "$out" | grep -Eq 'zkload: latency_ms all +n=300 p50=[0-9.]+ p90=[0-9.]+ p95=[0-9.]+ p99=[0-9.]+'
echo "$out" | grep -q 'zkload: sched enabled=true'
# The repo benchmark is its own module (benchmark/go.mod), so nothing
# above compiles it: vet and test it, then one short traced run — the
# trace executes the artifact-reload, table-reload and journaled-submit
# replicas, i.e. every internal/durable caller, against the real stores.
go vet -C benchmark ./...
go test -C benchmark ./...
go run -C benchmark . --workload verify_mix --seed 1 --seconds 3 --trace 1
