#!/usr/bin/env bash
# End-to-end smoke for the gpmrd online job service:
#   1. start the daemon with trace recording,
#   2. submit a small job stream over HTTP (mixed tenants and kinds,
#      including two rejected submissions, one of them an oversized
#      dictionary that used to crash the daemon),
#   3. poll every job to a terminal state,
#   4. drain via SIGINT and capture the live report from stdout,
#   5. replay the recorded arrival trace offline,
#   6. diff the two reports byte for byte.
# Arguments are the daemon's policy flags (default: -policy weighted-fair),
# e.g. `scripts/gpmrd_smoke.sh -policy fifo-exclusive -reserve`.
set -euo pipefail

policy=("$@")
[ "${#policy[@]}" -gt 0 ] || policy=(-policy weighted-fair)

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

addr="127.0.0.1:8373"
base="http://$addr"

go build -o "$workdir/gpmrd" ./cmd/gpmrd
"$workdir/gpmrd" -addr "$addr" -gpus 8 "${policy[@]}" -queue 8 -quota 4 \
  -phys 4096 -timescale 20 -trace "$workdir/trace.jsonl" \
  >"$workdir/live.out" 2>"$workdir/live.log" &
pid=$!

for i in $(seq 1 50); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { echo "gpmrd never became healthy"; cat "$workdir/live.log"; exit 1; }
  sleep 0.1
done

submit() {
  curl -sS -X POST "$base/jobs" -d "$1" -o /dev/null -w '%{http_code}'
}

# A small mixed stream: two tenants, three kinds.
[ "$(submit '{"tenant":"alice","kind":"wo","params":{"bytes":1048576,"gpus":2,"seed":1}}')" = 202 ]
[ "$(submit '{"tenant":"alice","kind":"kmc","params":{"points":1048576,"gpus":2,"seed":2}}')" = 202 ]
[ "$(submit '{"tenant":"bob","kind":"sio","params":{"elements":2097152,"gpus":4,"seed":3}}')" = 202 ]
[ "$(submit '{"tenant":"bob","kind":"wo","params":{"bytes":1048576,"gpus":2,"seed":4}}')" = 202 ]
# Invalid kind: rejected at admission, recorded in the trace all the same.
[ "$(submit '{"tenant":"eve","kind":"nope"}')" = 400 ]
# A dictionary too large to build used to panic the daemon from inside the
# engine: it must be a 400 naming the parameter, with the daemon still up.
curl -sS -X POST "$base/jobs" -d '{"tenant":"eve","kind":"wo","params":{"dict":4194304}}' \
  -o "$workdir/dict.json" -w '%{http_code}' >"$workdir/dict.code"
[ "$(cat "$workdir/dict.code")" = 400 ] && grep -qF 'parameter \"dict\"' "$workdir/dict.json"
curl -fsS "$base/healthz" >/dev/null

# Poll every submitted job to a terminal state.
for i in $(seq 1 200); do
  states="$(curl -fsS "$base/jobs" | tr ',' '\n' | grep '"state"' || true)"
  live="$(echo "$states" | grep -cE 'queued|running' || true)"
  [ "$live" = 0 ] && break
  [ "$i" = 200 ] && { echo "jobs never drained:"; curl -fsS "$base/jobs"; exit 1; }
  sleep 0.1
done

# Metrics sanity while the daemon is still up: counters, and the latency
# histograms' cumulative +Inf buckets must equal the placed-job count.
# (Snapshot to a file: `curl | grep -q` SIGPIPEs curl when grep exits at
# the first match.)
curl -fsS "$base/metrics" >"$workdir/metrics.txt"
grep -q '^gpmr_serve_done_total 4' "$workdir/metrics.txt"
grep -q 'gpmr_serve_rejected_total{reason="invalid"} 2' "$workdir/metrics.txt"
grep -q 'gpmr_serve_wait_seconds_bucket{le="+Inf"} 4' "$workdir/metrics.txt"
grep -q '^gpmr_serve_service_seconds_count 4' "$workdir/metrics.txt"
# Every job is terminal, so the queue and running gauges are back at 0.
grep -q '^gpmr_serve_queue_depth 0$' "$workdir/metrics.txt"
grep -q '^gpmr_serve_running 0$' "$workdir/metrics.txt"

# Per-job timeline: valid Chrome trace-event JSON with this job's lanes.
curl -fsS "$base/jobs/0/timeline" >"$workdir/timeline.json"
python3 - "$workdir/timeline.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
lanes = [e["args"]["name"] for e in evs if e.get("name") == "thread_name"]
assert any(l.startswith("serve/") for l in lanes), lanes
assert any(e.get("ph") == "X" for e in evs), "no spans in timeline"
EOF
# An unknown job is a clean 404.
[ "$(curl -sS -o /dev/null -w '%{http_code}' "$base/jobs/99/timeline")" = 404 ]

# Drain race: submissions racing SIGINT must get terminal HTTP answers
# (202/400/429/503) or fail cleanly at dial time (curl exit 7 once the
# listener is gone) — never a torn connection (exit 52/56).
racepids=""
for i in $(seq 1 8); do
  curl -sS -o /dev/null -w '%{http_code}\n' -X POST "$base/jobs" \
    -d "{\"tenant\":\"race\",\"kind\":\"wo\",\"params\":{\"bytes\":1048576,\"gpus\":2,\"seed\":$((100 + i))}}" \
    >>"$workdir/race.codes" 2>>"$workdir/race.log" &
  racepids="$racepids $!"
done
sleep 0.05
kill -INT "$pid"
for rp in $racepids; do
  rc=0
  wait "$rp" || rc=$?
  case "$rc" in
    0|7) ;;
    *) echo "race submission died with curl exit $rc (torn connection?)"
       cat "$workdir/race.log"; exit 1 ;;
  esac
done
if grep -qvE '^(000|202|400|429|503)$' "$workdir/race.codes"; then
  echo "race submission got a non-terminal answer:"
  cat "$workdir/race.codes"
  exit 1
fi
wait "$pid"

# The header records what the operator asked for: -share is a fixed-share
# knob, so no other policy's trace may carry its default, and -reserve
# must be recorded for the replay to take the same reservations.
head -n 1 "$workdir/trace.jsonl" >"$workdir/header.json"
if grep -q '"share"' "$workdir/header.json"; then
  echo "${policy[*]} trace header records a fixed-share cap:"
  cat "$workdir/header.json"
  exit 1
fi
case " ${policy[*]} " in
  *" -reserve "*)
    grep -qF '"reserve":true' "$workdir/header.json" || {
      echo "trace header does not record -reserve:"; cat "$workdir/header.json"; exit 1; } ;;
esac

# Replay the recorded trace offline: the report must match byte for byte.
"$workdir/gpmrd" -replay "$workdir/trace.jsonl" >"$workdir/replay.out"
if ! diff -u "$workdir/live.out" "$workdir/replay.out"; then
  echo "live and replay reports differ"
  exit 1
fi

echo "gpmrd smoke (${policy[*]}): live report matches offline replay ($(wc -l <"$workdir/live.out") lines)"
