#!/usr/bin/env bash
# End-to-end smoke of the resident search daemon over real TCP, wired
# into ctest and scripts/check.sh --server-smoke (docs/server.md).
#
# Builds a demo model and a packed database with the example tools,
# starts finehmmd on an ephemeral port (with the HTTP observability
# endpoint on a second one), then proves the full client surface: PING,
# 200 closed connections that leave the daemon's thread count where it
# was (sessions are reaped), a remote search whose tblout is
# BIT-IDENTICAL to a direct hmmsearch_tool run on the same database
# (reply stamped with a trace id), hmmsearch_tool --connect against the
# daemon, the STATS verb
# (pretty and JSON forms), /metrics + /healthz (valid Prometheus whose
# request-latency p99 matches the STATS value), the tools' exit-code
# contract, and a clean SIGTERM drain (stats flushed, pid file removed,
# exit 0).
set -euo pipefail

TOOLS_DIR=${1:?usage: server_smoke.sh <tools-bin-dir> <examples-bin-dir>}
EXAMPLES_DIR=${2:?usage: server_smoke.sh <tools-bin-dir> <examples-bin-dir>}
WORK=$(mktemp -d)
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

echo "== stage a model and a packed database =="
"$EXAMPLES_DIR/hmmbuild_tool" --demo "$WORK/model.hmm" > /dev/null
"$EXAMPLES_DIR/hmmemit_tool" "$WORK/model.hmm" 12 "$WORK/homologs.fasta"
"$EXAMPLES_DIR/seqconvert_tool" "$WORK/homologs.fasta" "$WORK/db.fsqdb"

echo "== start finehmmd on an ephemeral port (+ metrics endpoint) =="
"$TOOLS_DIR/finehmmd" --port 0 --threads 2 --pid-file "$WORK/d.pid" \
  --metrics-port 0 --slow-ms 1 "$WORK/db.fsqdb" > "$WORK/daemon.log" 2>&1 &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  grep -q "listening on" "$WORK/daemon.log" 2>/dev/null && break
  kill -0 "$DAEMON_PID" 2>/dev/null || {
    echo "daemon died during startup"; cat "$WORK/daemon.log"; exit 1; }
  sleep 0.1
done
PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
  "$WORK/daemon.log")
[ -n "$PORT" ] || { echo "no port in daemon log"; cat "$WORK/daemon.log"; exit 1; }
ADDR="127.0.0.1:$PORT"
METRICS_PORT=$(sed -n 's/.*metrics on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' \
  "$WORK/daemon.log")
[ -n "$METRICS_PORT" ] || {
  echo "no metrics port in daemon log"; cat "$WORK/daemon.log"; exit 1; }
echo "daemon at $ADDR, metrics at 127.0.0.1:$METRICS_PORT (pid $DAEMON_PID)"
grep -qx "$DAEMON_PID" "$WORK/d.pid"

# Plain-python HTTP GET (no curl dependency in CI containers).
http_get() {
  python3 -c 'import sys, urllib.request
print(urllib.request.urlopen(sys.argv[1], timeout=10).read().decode(), end="")' \
    "http://127.0.0.1:$METRICS_PORT$1"
}

echo "== ping =="
"$TOOLS_DIR/finehmm_client" "$ADDR" --ping | grep -qx pong

echo "== connection churn: 200 closed connections leave no threads or stacks behind =="
# Each session thread ends with its connection.  A daemon whose session
# threads outlive their connections would still run about 200 more after
# the churn, so the daemon's thread count (the kernel's Threads: line, not
# VmSize, which also moves with glibc's malloc-arena policy) must come
# back to its pre-churn value; the last sessions may still be closing, so
# poll for up to 10 s.
threads() { awk '/^Threads:/ {print $2}' "/proc/$DAEMON_PID/status"; }
# A session thread that exits but is never joined keeps its stack mapped,
# though it no longer counts in Threads:.  A thread stack is an anonymous
# rw-p region with an anonymous PROT_NONE guard page directly below it.
stacks() {
  awk '{ split($1, r, "-"); anon = (NF == 5 && $5 == 0)
         if (anon && $2 == "rw-p" && guard && r[1] == guard_end) n++
         guard = (anon && $2 == "---p"); guard_end = r[2] }
       END { print n + 0 }' "/proc/$DAEMON_PID/maps"
}
THREADS_BEFORE=$(threads)
STACKS_BEFORE=$(stacks)
for _ in $(seq 1 200); do
  "$TOOLS_DIR/finehmm_client" "$ADDR" --ping > /dev/null
done
for _ in $(seq 1 100); do
  [ "$(threads)" -le "$THREADS_BEFORE" ] && break
  sleep 0.1
done
THREADS_AFTER=$(threads)
echo "daemon threads: $THREADS_BEFORE before 200 connections, $THREADS_AFTER after"
[ "$THREADS_AFTER" -le "$THREADS_BEFORE" ] || {
  echo "the churn left $((THREADS_AFTER - THREADS_BEFORE)) threads behind:" \
    "closed sessions were not reaped"
  exit 1; }
# Joined stacks are unmapped or kept in glibc's stack cache (40 MiB, a
# handful of stacks); one stack per closed connection means the ended
# session threads were never joined.
STACKS_AFTER=$(stacks)
echo "mapped thread stacks: $STACKS_BEFORE before, $STACKS_AFTER after"
[ "$STACKS_AFTER" -le $((STACKS_BEFORE + 16)) ] || {
  echo "the churn left $((STACKS_AFTER - STACKS_BEFORE)) thread stacks" \
    "mapped: ended sessions were not joined"
  exit 1; }
# The STATS probe is itself one open connection; the last ping's session
# may still be closing, so poll briefly.
for _ in $(seq 1 50); do
  "$TOOLS_DIR/finehmm_client" "$ADDR" --stats-json > "$WORK/churn.json"
  python3 - "$WORK/churn.json" <<'PY' && break
import json, sys
sys.exit(0 if json.load(open(sys.argv[1]))["connections_open"] <= 1 else 1)
PY
  sleep 0.1
done
python3 - "$WORK/churn.json" <<'PY'
import json, sys
n = json.load(open(sys.argv[1]))["connections_open"]
assert n <= 1, f"connections_open {n} after the churn, want <= 1"
PY

echo "== remote search is bit-identical to a direct scan =="
"$EXAMPLES_DIR/hmmsearch_tool" --tblout "$WORK/local.tbl" \
  "$WORK/model.hmm" "$WORK/db.fsqdb" > /dev/null
"$TOOLS_DIR/finehmm_client" "$ADDR" --tblout "$WORK/remote.tbl" \
  "$WORK/model.hmm" > /dev/null 2> "$WORK/client.err"
cmp "$WORK/local.tbl" "$WORK/remote.tbl" || {
  echo "finehmm_client tblout differs from the direct scan"; exit 1; }

echo "== reply carries a request-scoped trace id =="
grep -q "trace_id 0x" "$WORK/client.err" || {
  echo "client did not report a trace id"; cat "$WORK/client.err"; exit 1; }
TRACE_ID=$(sed -n 's/.*trace_id \(0x[0-9a-f]*\).*/\1/p' "$WORK/client.err" \
  | head -n1)
echo "search served as trace $TRACE_ID"

echo "== hmmsearch_tool --connect routes through the daemon =="
"$EXAMPLES_DIR/hmmsearch_tool" --connect "$ADDR" \
  --tblout "$WORK/remote2.tbl" "$WORK/model.hmm" > /dev/null
cmp "$WORK/local.tbl" "$WORK/remote2.tbl" || {
  echo "hmmsearch_tool --connect tblout differs from the direct scan"; exit 1; }

echo "== STATS verb (pretty + raw JSON) =="
"$TOOLS_DIR/finehmm_client" "$ADDR" --stats > "$WORK/stats.txt"
grep -q "finehmmd stats (schema finehmm.server_stats.v2)" "$WORK/stats.txt"
grep -q "latency e2e:" "$WORK/stats.txt"

echo "== closed-loop bench smoke =="
"$TOOLS_DIR/finehmm_client" "$ADDR" --bench 3 --clients 2 \
  "$WORK/model.hmm" | grep -q '"requests_per_sec"'

# Snapshot the raw stats JSON AFTER the bench so the histograms are
# quiescent: nothing else touches the daemon between this STATS call and
# the /metrics scrape below, which lets us demand an exact p99 match.
# Histograms are recorded just after each reply is sent, so poll until
# the e2e sample count has caught up with requests_completed.
for _ in $(seq 1 100); do
  "$TOOLS_DIR/finehmm_client" "$ADDR" --stats-json > "$WORK/stats.json"
  python3 - "$WORK/stats.json" <<'PY' && break
import json, sys
s = json.load(open(sys.argv[1]))
sys.exit(0 if s["latency"]["e2e"]["count"] >= s["requests_completed"] else 1)
PY
  sleep 0.1
done
grep -q "finehmm.server_stats.v2" "$WORK/stats.json"
grep -q '"db_sweeps"' "$WORK/stats.json"
grep -q '"latency"' "$WORK/stats.json"
grep -q '"recent_traces"' "$WORK/stats.json"
grep -q "$TRACE_ID" "$WORK/stats.json" || {
  echo "trace $TRACE_ID missing from STATS recent_traces"; exit 1; }

echo "== /metrics is valid Prometheus and matches STATS =="
http_get /metrics > "$WORK/metrics.txt"
http_get /healthz > "$WORK/healthz.txt"
grep -qx "ok" "$WORK/healthz.txt" || {
  echo "/healthz did not report ok"; cat "$WORK/healthz.txt"; exit 1; }
http_get /statusz | grep -q "finehmmd status" || {
  echo "/statusz missing its banner"; exit 1; }
python3 - "$WORK/metrics.txt" "$WORK/stats.json" <<'PY'
import json, sys

metrics = open(sys.argv[1]).read()
stats = json.load(open(sys.argv[2]))

# Every sample family must be declared with # TYPE and # HELP.
typed, helped, families = set(), set(), set()
for line in metrics.splitlines():
    if line.startswith("# TYPE "):
        typed.add(line.split()[2])
    elif line.startswith("# HELP "):
        helped.add(line.split()[2])
    elif line and not line.startswith("#"):
        name = line.split("{")[0].split()[0]
        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
        families.add(base if base in typed else name)
undeclared = sorted(f for f in families if f not in typed or f not in helped)
assert not undeclared, f"families without TYPE/HELP: {undeclared}"

for want in ("finehmm_up 1",
             'finehmm_request_latency_seconds{quantile="0.99"}',
             "finehmm_queue_wait_seconds",
             "finehmm_sweep_seconds",
             'finehmm_server_events_total{event="requests_completed"}'):
    assert want in metrics, f"missing from /metrics: {want}"

# The exported p99 must equal the STATS JSON value for the same window.
p99_line = [l for l in metrics.splitlines()
            if l.startswith('finehmm_request_latency_seconds{quantile="0.99"}')]
assert len(p99_line) == 1, p99_line
metrics_p99 = float(p99_line[0].split()[-1])
stats_p99 = stats["latency"]["e2e"]["p99_seconds"]
assert metrics_p99 == stats_p99, (metrics_p99, stats_p99)
print(f"p99 match: /metrics {metrics_p99} == STATS {stats_p99}")
PY

echo "== exit-code contract (0 ok / 2 bad args / 3 I/O failure) =="
rc=0; "$TOOLS_DIR/finehmm_client" --no-such-flag > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || { echo "bad args gave exit $rc, want 2"; exit 1; }
rc=0; "$TOOLS_DIR/finehmm_client" "$ADDR" "$WORK/missing.hmm" \
  > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "missing model file gave exit $rc, want 3"; exit 1; }
# Port 1 is never a finehmmd: connection refused is an I/O failure.
rc=0; "$TOOLS_DIR/finehmm_client" 127.0.0.1:1 --ping > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || { echo "refused connection gave exit $rc, want 3"; exit 1; }

echo "== SIGTERM drain =="
kill -TERM "$DAEMON_PID"
rc=0; wait "$DAEMON_PID" || rc=$?
DAEMON_PID=""
[ "$rc" -eq 0 ] || { echo "daemon exited $rc after SIGTERM, want 0";
  cat "$WORK/daemon.log"; exit 1; }
grep -q "finehmm.server_stats.v2" "$WORK/daemon.log" || {
  echo "drained daemon did not flush its stats"; cat "$WORK/daemon.log"; exit 1; }
grep -q "drained, bye" "$WORK/daemon.log"
[ ! -f "$WORK/d.pid" ] || { echo "pid file survived the drain"; exit 1; }

echo "ALL SERVER SMOKE TESTS PASSED"
