#!/bin/sh
# e2e smoke for the multi-node proving cluster: two zkserve nodes behind
# a zkgateway on loopback, driven through zkcli.
#
# What it proves, end to end over real sockets:
#   1. async jobs submitted through the gateway run to completion and
#      the proof verifies;
#   2. routing is shard-stable — repeated submits of the same circuits
#      never duplicate a trusted setup onto the other node (per-node
#      setup counters stop growing);
#   3. killing one node fails its shard over to the survivor and the
#      cluster keeps serving;
#   4. the request ID the gateway logged for a job submit is the one the
#      owning node logged — the ID crosses the hop.
#
# Ports are loopback-only and offbeat (1809x) to avoid colliding with a
# developer's running zkserve.
set -eu

BASE="${TMPDIR:-/tmp}/zkperf-e2e-$$"
mkdir -p "$BASE"
NODE_A=127.0.0.1:18091
NODE_B=127.0.0.1:18092
GW=127.0.0.1:18090
GW_URL="http://$GW"

cleanup() {
    # shellcheck disable=SC2046 — word-splitting the PID list is the point
    kill $(cat "$BASE"/*.pid 2>/dev/null) 2>/dev/null || true
    rm -rf "$BASE"
}
trap cleanup EXIT INT TERM

echo "e2e: building binaries into $BASE"
go build -o "$BASE/zkserve" ./cmd/zkserve
go build -o "$BASE/zkgateway" ./cmd/zkgateway
go build -o "$BASE/zkcli" ./cmd/zkcli

"$BASE/zkserve" -addr "$NODE_A" -workers 2 -queue 16 >"$BASE/node-a.log" 2>&1 &
echo $! > "$BASE/node-a.pid"
"$BASE/zkserve" -addr "$NODE_B" -workers 2 -queue 16 >"$BASE/node-b.log" 2>&1 &
echo $! > "$BASE/node-b.pid"
"$BASE/zkgateway" -addr "$GW" -nodes "a=http://$NODE_A,b=http://$NODE_B" \
    -probe-every 200ms -fail-threshold 1 >"$BASE/gateway.log" 2>&1 &
echo $! > "$BASE/gateway.pid"

wait_up() {
    i=0
    while ! "$BASE/zkcli" stats -addr "$1" -json >/dev/null 2>&1; do
        i=$((i+1))
        [ "$i" -gt 50 ] && { echo "e2e: $1 never came up"; tail -n 20 "$BASE"/*.log; exit 1; }
        sleep 0.2
    done
}
wait_up "http://$NODE_A"
wait_up "http://$NODE_B"
wait_up "$GW_URL"
echo "e2e: two nodes + gateway up"

# Two distinct circuits so the shard map has something to keep apart.
"$BASE/zkcli" gen -e 32 -o "$BASE/c32.zkc"
"$BASE/zkcli" gen -e 64 -o "$BASE/c64.zkc"

# setups_total sums the per-node trusted-setup counters (the gateway
# aggregate also carries this, but reading the nodes directly is what
# pins *where* the setups happened).
setups_total() {
    total=0
    for node in "http://$NODE_A" "http://$NODE_B"; do
        n=$("$BASE/zkcli" stats -addr "$node" -json \
            | sed -n '/"cache"/,/}/s/.*"setups": *\([0-9][0-9]*\).*/\1/p')
        total=$((total + n))
    done
    echo "$total"
}

run_job() { # run_job circuit x
    id=$("$BASE/zkcli" job submit -addr "$GW_URL" -circuit "$1" -input "x=$2" 2>>"$BASE/cli.log")
    "$BASE/zkcli" job wait -addr "$GW_URL" -id "$id" -timeout 2m \
        -proof "$BASE/last.proof" >>"$BASE/cli.log" 2>&1
    echo "$id"
}

echo "e2e: async jobs for two circuits through the gateway"
ID1=$(run_job "$BASE/c32.zkc" 3)
ID2=$(run_job "$BASE/c64.zkc" 3)
case "$ID1" in
    *@a|*@b) ;;
    *) echo "e2e: FAIL job id $ID1 lacks the @node suffix"; exit 1 ;;
esac
echo "e2e: one request ID in the gateway's and the node's access logs"
RID=$(grep 'method=POST path=/v1/jobs status=202 ' "$BASE/gateway.log" | head -n 1 \
    | grep -o 'request_id=[^ ]*$' || true)
[ -n "$RID" ] || { echo "e2e: FAIL no /v1/jobs submit in the gateway access log"; exit 1; }
grep -q "method=POST path=/v1/jobs status=202 .*$RID\$" "$BASE/node-a.log" "$BASE/node-b.log" || {
    echo "e2e: FAIL $RID from the gateway log is in no node's access log"; exit 1
}
SETUPS1=$(setups_total)
[ "$SETUPS1" -eq 2 ] || { echo "e2e: FAIL expected 2 setups after 2 circuits, got $SETUPS1"; exit 1; }

echo "e2e: re-submitting both circuits — setups must not grow (shard-stable routing)"
run_job "$BASE/c32.zkc" 5 >/dev/null
run_job "$BASE/c64.zkc" 5 >/dev/null
SETUPS2=$(setups_total)
[ "$SETUPS2" -eq "$SETUPS1" ] || {
    echo "e2e: FAIL setups grew $SETUPS1 -> $SETUPS2 on repeat submits — routing not shard-stable"
    exit 1
}

echo "e2e: batched verify through the gateway (scatter across both shards)"
"$BASE/zkcli" prove -addr "$GW_URL" -circuit "$BASE/c32.zkc" -input x=2 \
    -proof "$BASE/c32.proof" >>"$BASE/cli.log" 2>&1
"$BASE/zkcli" prove -addr "$GW_URL" -circuit "$BASE/c64.zkc" -input x=2 \
    -proof "$BASE/c64.proof" >>"$BASE/cli.log" 2>&1
cat > "$BASE/manifest.json" <<EOF
[
  {"circuit": "$BASE/c32.zkc", "proof": "$BASE/c32.proof", "public": ["4294967296"]},
  {"circuit": "$BASE/c64.zkc", "proof": "$BASE/c64.proof", "public": ["18446744073709551616"]}
]
EOF
"$BASE/zkcli" verify -addr "$GW_URL" -batch "$BASE/manifest.json" >>"$BASE/cli.log" 2>&1 || {
    echo "e2e: FAIL gateway verify-batch rejected valid proofs"; exit 1
}
# A corrupted manifest entry must fail the command (per-item attribution).
cat > "$BASE/manifest-bad.json" <<EOF
[
  {"circuit": "$BASE/c32.zkc", "proof": "$BASE/c32.proof", "public": ["4294967296"]},
  {"circuit": "$BASE/c64.zkc", "proof": "$BASE/c64.proof", "public": ["999"]}
]
EOF
if "$BASE/zkcli" verify -addr "$GW_URL" -batch "$BASE/manifest-bad.json" >>"$BASE/cli.log" 2>&1; then
    echo "e2e: FAIL gateway verify-batch accepted a wrong public input"
    exit 1
fi

echo "e2e: killing node a — its shard must fail over"
kill "$(cat "$BASE/node-a.pid")"
rm -f "$BASE/node-a.pid"
sleep 1 # let a probe round notice

ID3=$(run_job "$BASE/c32.zkc" 7)
ID4=$(run_job "$BASE/c64.zkc" 7)
case "$ID3$ID4" in
    *@a*) echo "e2e: FAIL job routed to the dead node ($ID3 $ID4)"; exit 1 ;;
esac
echo "e2e: jobs after node death: $ID3 $ID4 (both on survivor)"

echo "e2e: PASS"
