#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: build p4wnd + p4wn, start the
# daemon, submit the quickstart program, poll to completion, and assert
#
#   1. the served profile is identical to the offline `p4wn profile` output
#      (everything except run-local timing/job metadata, compared via jq);
#   2. the /metrics exposition passes the Prometheus format lint (promlint)
#      and /debug/trace/{id} exports a well-formed Chrome trace;
#   3. resubmitting is answered from the content-addressed store without a
#      second engine run (checked through /metrics counters);
#   4. SIGTERM with a job in flight drains cleanly (exit 0) and persists
#      the result.
#
# Requires: go, curl, jq. Run from anywhere; it cds to the repo root.
set -euo pipefail

cd "$(cd "$(dirname "$0")/.." && pwd)"

PORT="${P4WND_SMOKE_PORT:-18471}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
WORK="$(mktemp -d)"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "serve_smoke: FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$WORK/p4wn" ./cmd/p4wn
go build -o "$WORK/p4wnd" ./cmd/p4wnd
go build -o "$WORK/promlint" ./cmd/promlint

echo "== start daemon on $ADDR"
"$WORK/p4wnd" -addr "$ADDR" -store "$WORK/store" &
DAEMON_PID=$!
for _ in $(seq 1 100); do
  curl -fs "$BASE/readyz" >/dev/null 2>&1 && break
  kill -0 "$DAEMON_PID" 2>/dev/null || fail "daemon died during startup"
  sleep 0.1
done
curl -fs "$BASE/readyz" | grep -q serving || fail "daemon not ready"

echo "== liveness and readiness probes"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")" = "200" ] \
  || fail "/healthz is not 200 on a serving daemon"
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/readyz")" = "200" ] \
  || fail "/readyz is not 200 on a serving daemon"
curl -fs "$BASE/readyz" | grep -q serving || fail "/readyz body does not say serving"

PROG=examples/programs/syn_guard.p4w

echo "== offline profile"
"$WORK/p4wn" profile -file "$PROG" -report "$WORK/offline.json" >/dev/null

echo "== served profile (submit + follow)"
"$WORK/p4wn" submit -addr "$BASE" -file "$PROG" -follow \
  >"$WORK/served.json" 2>"$WORK/follow.log"
grep -q "iter" "$WORK/follow.log" || fail "no progress lines streamed over SSE"

# The profile itself must be identical; only the job block and the
# run-local wall-clock numbers may differ between served and offline runs.
PROFILE_VIEW='{schema_version, kind, program, options, converged, coverage, nodes, ifc}'
jq -S "$PROFILE_VIEW" "$WORK/offline.json" > "$WORK/offline.profile"
jq -S "$PROFILE_VIEW" "$WORK/served.json"  > "$WORK/served.profile"
diff -u "$WORK/offline.profile" "$WORK/served.profile" \
  || fail "served profile differs from offline profile"
jq -e '.job.id and .job.kind == "profile"' "$WORK/served.json" >/dev/null \
  || fail "served report has no job metadata block"
echo "   served profile is identical to offline output"

echo "== metrics exposition passes the Prometheus lint"
"$WORK/promlint" "$BASE/metrics" || fail "/metrics fails the Prometheus format lint"

echo "== trace export opens as Chrome trace_event JSON"
TRACE_JOB=$(jq -r '.job.id' "$WORK/served.json")
"$WORK/p4wn" trace -addr "$BASE" -id "$TRACE_JOB" -o "$WORK/trace.json" 2>/dev/null
jq -e '.traceEvents | length > 0' "$WORK/trace.json" >/dev/null \
  || fail "trace export has no events"
jq -e '[.traceEvents[].name] | contains(["job","run","probprof"])' "$WORK/trace.json" >/dev/null \
  || fail "trace export is missing the job/run/probprof spans"
jq -e '.otherData.trace_id | length == 16' "$WORK/trace.json" >/dev/null \
  || fail "trace export carries no trace_id"
echo "   trace has job/run/probprof spans and a trace_id"

echo "== resubmission is served from the store"
runs_before=$(curl -fs "$BASE/metrics" | awk '$1 == "serve_jobs_run" {print $2}')
"$WORK/p4wn" submit -addr "$BASE" -file "$PROG" > "$WORK/resubmit.out"
grep -q "(cached)" "$WORK/resubmit.out" || fail "resubmission was not served as cached"
runs_after=$(curl -fs "$BASE/metrics" | awk '$1 == "serve_jobs_run" {print $2}')
[ "$runs_before" = "$runs_after" ] || fail "resubmission re-ran the engine ($runs_before -> $runs_after)"
hits=$(curl -fs "$BASE/metrics" | awk '$1 == "serve_store_hits" {print $2}')
[ "${hits:-0}" -ge 1 ] || fail "store hit not counted (serve_store_hits=$hits)"
echo "   cached answer, engine runs unchanged at $runs_after"

echo "== same program under two device targets"
# flowlet's 1024-slot flowlet table diverges under tofino's SRAM clamps, so the
# two submissions must land in distinct store entries AND disagree on the
# profile itself.
"$WORK/p4wn" submit -addr "$BASE" -prog "flowlet (S2)" -target-model idealized -follow \
  >"$WORK/tgt_ideal.json" 2>/dev/null
"$WORK/p4wn" submit -addr "$BASE" -prog "flowlet (S2)" -target-model tofino -follow \
  >"$WORK/tgt_tofino.json" 2>/dev/null
ID_IDEAL=$(jq -r '.job.id' "$WORK/tgt_ideal.json")
ID_TOFINO=$(jq -r '.job.id' "$WORK/tgt_tofino.json")
[ -n "$ID_IDEAL" ] && [ "$ID_IDEAL" != "$ID_TOFINO" ] \
  || fail "two targets share one store key ($ID_IDEAL)"
jq -e '.target == "idealized"' "$WORK/tgt_ideal.json" >/dev/null \
  || fail "idealized result does not name its target"
jq -e '.target == "tofino"' "$WORK/tgt_tofino.json" >/dev/null \
  || fail "tofino result does not name its target"
jq -S '.nodes' "$WORK/tgt_ideal.json" >"$WORK/tgt_ideal.nodes"
jq -S '.nodes' "$WORK/tgt_tofino.json" >"$WORK/tgt_tofino.nodes"
cmp -s "$WORK/tgt_ideal.nodes" "$WORK/tgt_tofino.nodes" \
  && fail "tofino profile is identical to idealized — target model had no effect"
[ -s "$WORK/store/$ID_IDEAL.json" ] && [ -s "$WORK/store/$ID_TOFINO.json" ] \
  || fail "per-target results not both persisted"
echo "   distinct store keys and divergent profiles per target"

echo "== client status/result/cancel surface"
JOB_ID=$(jq -r '.job.id' "$WORK/served.json")
"$WORK/p4wn" status -addr "$BASE" -id "$JOB_ID" | grep -q done || fail "status does not report done"
# Buffer the listing: `grep -q` would close the pipe on the first match,
# and with several jobs listed the client would die on SIGPIPE under
# pipefail before finishing its output.
"$WORK/p4wn" status -addr "$BASE" >"$WORK/jobs.list"
grep -q "$JOB_ID" "$WORK/jobs.list" || fail "job list misses the job"
"$WORK/p4wn" result -addr "$BASE" -id "$JOB_ID" -o "$WORK/fetched.json" 2>/dev/null
cmp -s "$WORK/served.json" "$WORK/fetched.json" || fail "result fetch is not byte-identical to the stored result"
"$WORK/p4wn" cancel -addr "$BASE" -id "$JOB_ID" >/dev/null || fail "cancel of a finished job errored"

echo "== SIGTERM drain with a job in flight"
# Blink is the slowest stateful zoo program (~10s of engine work), which
# guarantees TERM lands while it executes and leaves a wide window to
# observe the readiness flip.
"$WORK/p4wn" submit -addr "$BASE" -prog "Blink (S5)" > "$WORK/drain.out"
DRAIN_ID=$(awk '{print $1}' "$WORK/drain.out")
for _ in $(seq 1 100); do
  "$WORK/p4wn" status -addr "$BASE" -id "$DRAIN_ID" | grep -q running && break
  sleep 0.05
done
kill -TERM "$DAEMON_PID"
# While the in-flight job flushes, the daemon must advertise not-ready
# (balancers route away) but stay live (orchestrators don't kill it).
READY_FLIPPED=0
for _ in $(seq 1 100); do
  code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 1 "$BASE/readyz" || true)
  if [ "$code" = "503" ]; then READY_FLIPPED=1; break; fi
  kill -0 "$DAEMON_PID" 2>/dev/null || break
  sleep 0.02
done
[ "$READY_FLIPPED" = "1" ] || fail "/readyz never went 503 while draining"
if kill -0 "$DAEMON_PID" 2>/dev/null; then
  code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 1 "$BASE/healthz" || true)
  # The daemon may finish its flush between the liveness check and the
  # curl; only a live daemon answering non-200 is a failure.
  if kill -0 "$DAEMON_PID" 2>/dev/null && [ "$code" != "200" ]; then
    fail "/healthz dropped during drain (got $code)"
  fi
fi
if ! wait "$DAEMON_PID"; then fail "daemon exited nonzero on drain"; fi
DAEMON_PID=""
[ -s "$WORK/store/$DRAIN_ID.json" ] || fail "in-flight job's result not persisted through drain"
jq -e . "$WORK/store/$DRAIN_ID.json" >/dev/null || fail "persisted result is not valid JSON"
echo "   drained cleanly, in-flight result persisted"

echo "serve_smoke: PASS"
