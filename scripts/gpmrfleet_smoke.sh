#!/usr/bin/env bash
# End-to-end smoke for the gpmrfleet router tier:
#   1. start three gpmrd shards (each recording its arrival trace) and a
#      gpmrfleet router fronting them with plain consistent hashing,
#   2. submit jobs across tenants through the router,
#   3. SIGKILL the shard owning the "hot" tenant while it still holds
#      unfinished work, and verify the router marks it down, re-admits
#      the orphans onto survivors, and rides every job to completion,
#   4. SIGKILL the router and start a fresh one on the same shards: it
#      must adopt every job the old one last placed on a survivor, with
#      the same tag, shard and shard job id, and read it done,
#   5. fetch a job's /explain breakdown (JSON + text) and the live
#      stitched fleet /timeline,
#   6. drain the fleet via POST /drain and capture the merged report,
#   7. remove the dead shard's partial trace and replay the survivors'
#      traces with gpmrfleet -replay,
#   8. diff the live merged report against the replay, and the live
#      stitched timeline against the offline -timeline stitch, byte for
#      byte.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
pids=""
trap 'kill $pids 2>/dev/null || true; rm -rf "$workdir"' EXIT

mkdir -p "$workdir/traces"
go build -o "$workdir/gpmrd" ./cmd/gpmrd
go build -o "$workdir/gpmrfleet" ./cmd/gpmrfleet

declare -A shard_addr shard_pid
for i in 0 1 2; do
  addr="127.0.0.1:84$((61 + i))"
  shard_addr[s$i]="$addr"
  "$workdir/gpmrd" -addr "$addr" -gpus 8 -policy weighted-fair -queue -1 \
    -phys 1048576 -trace "$workdir/traces/s$i.jsonl" \
    >"$workdir/s$i.out" 2>"$workdir/s$i.log" &
  shard_pid[s$i]=$!
  pids="$pids $!"
done

raddr="127.0.0.1:8460"
rbase="http://$raddr"
start_router() { # log file; sets rpid
  "$workdir/gpmrfleet" -addr "$raddr" \
    -shard "s0=http://${shard_addr[s0]}" \
    -shard "s1=http://${shard_addr[s1]}" \
    -shard "s2=http://${shard_addr[s2]}" \
    -load-factor -1 -probe 100ms -fail-after 2 \
    -obs "$workdir/traces/router.obs" \
    >"$workdir/router.out" 2>"$1" &
  rpid=$!
  pids="$pids $rpid"
  for i in $(seq 1 50); do
    curl -fsS "$rbase/healthz" >/dev/null 2>&1 && return
    sleep 0.1
  done
  echo "gpmrfleet never became healthy"; cat "$1"; exit 1
}
start_router "$workdir/router.log"

submit() { # tenant seed -> http code
  curl -sS -X POST "$rbase/jobs" \
    -d "{\"tenant\":\"$1\",\"kind\":\"wo\",\"params\":{\"bytes\":1048576,\"gpus\":2,\"seed\":$2}}" \
    -o /dev/null -w '%{http_code}'
}

# One job per tenant: plain hashing spreads them deterministically.
n=0
for t in ana bo cy dan eve hot; do
  n=$((n + 1))
  [ "$(submit "$t" "$n")" = 202 ] || { echo "submit $t failed"; exit 1; }
done

# Find the shard that owns the hot tenant — the designated victim.
victim="$(curl -fsS "$rbase/jobs" | python3 -c '
import json, sys
jobs = json.load(sys.stdin)
print(next(j["shard"] for j in jobs if j["tenant"] == "hot"))')"
vbase="http://${shard_addr[$victim]}"
echo "gpmrfleet smoke: victim shard is $victim"

# Keep feeding the hot tenant bursts of big sort jobs (~1.5s of wall
# time each at this phys budget; 4 GPUs each, so an 8-GPU shard runs
# two at a time and queues the rest) until the victim provably holds
# unfinished work, then fail-stop it — forcing a real failover.
submit_big() { # seed -> http code
  curl -sS -X POST "$rbase/jobs" \
    -d "{\"tenant\":\"hot\",\"kind\":\"sio\",\"params\":{\"elements\":33554432,\"gpus\":4,\"seed\":$1}}" \
    -o /dev/null -w '%{http_code}'
}
killed=""
for i in $(seq 1 50); do
  for b in 1 2 3; do
    n=$((n + 1))
    [ "$(submit_big "$((100 + 3*i + b))")" = 202 ] || { echo "hot submit failed"; exit 1; }
  done
  live="$(curl -fsS "$vbase/jobs" | python3 -c '
import json, sys
jobs = json.load(sys.stdin)
print(sum(1 for j in jobs if j["state"] in ("queued", "running")))')"
  if [ "$live" -gt 0 ]; then
    kill -9 "${shard_pid[$victim]}"
    killed=1
    break
  fi
done
[ -n "$killed" ] || { echo "victim never held unfinished work"; exit 1; }

# The router must mark the victim down and ride every fleet job to done.
for i in $(seq 1 300); do
  down="$(curl -fsS "$rbase/shards" | python3 -c "
import json, sys
st = json.load(sys.stdin)
print(sum(1 for s in st['shards'] if s['id'] == '$victim' and s['state'] == 'down'))")"
  notdone="$(curl -fsS "$rbase/jobs" | python3 -c '
import json, sys
jobs = json.load(sys.stdin)
print(sum(1 for j in jobs if j["state"] != "done"))')"
  [ "$down" = 1 ] && [ "$notdone" = 0 ] && break
  [ "$i" = 300 ] && { echo "fleet never settled (down=$down notdone=$notdone)"; curl -fsS "$rbase/jobs"; exit 1; }
  sleep 0.1
done

# Failover must actually have happened, and be visible in the metrics.
curl -fsS "$rbase/metrics" >"$workdir/metrics.txt"
grep -q "gpmr_fleet_shard_up{shard=\"$victim\"} 0" "$workdir/metrics.txt"
grep -q "gpmr_fleet_shard_state{shard=\"$victim\",state=\"down\"} 1" "$workdir/metrics.txt"
failovers="$(awk '/^gpmr_fleet_failovers_total /{print $2}' "$workdir/metrics.txt")"
[ "$failovers" -ge 1 ] || { echo "no failovers recorded"; cat "$workdir/metrics.txt"; exit 1; }
probefails="$(awk '/^gpmr_fleet_probe_failures_total /{print $2}' "$workdir/metrics.txt")"
[ "$probefails" -ge 1 ] || { echo "dead shard produced no probe failures"; cat "$workdir/metrics.txt"; exit 1; }

# Restart the router: SIGKILL it (no drain, no saved recording) and start
# a fresh one on the same shards. Its first refresh must adopt every job
# the old router last placed on a survivor, as placed and with the same
# digest; once it has marked the dead shard down, its recording is the
# one the live and offline timelines below both read.
curl -fsS "$rbase/jobs" >"$workdir/jobs_before.json"
kill -9 "$rpid"
wait "$rpid" 2>/dev/null || true
start_router "$workdir/router2.log"
for i in $(seq 1 300); do
  curl -fsS "$rbase/jobs" >"$workdir/jobs_after.json"
  curl -fsS "$rbase/shards" >"$workdir/shards_after.json"
  rc=0
  python3 -c '
import json, sys
before, after, shards = (json.load(open(p)) for p in sys.argv[1:4])
victim = sys.argv[4]
now = {j["tag"]: j for j in after}
settled = all(s["state"] == "down" for s in shards["shards"] if s["id"] == victim)
for j in before:
    if j["shard"] == victim:
        continue
    a = now.get(j["tag"])
    if a is None or (a["shard"], a["shardJob"]) != (j["shard"], j["shardJob"]):
        sys.exit("job %s (%s #%d) not adopted as placed: %s" % (j["tag"], j["shard"], j["shardJob"], a))
    settled = settled and a["state"] == "done" and a.get("digest") == j.get("digest")
sys.exit(0 if settled else 3)' \
    "$workdir/jobs_before.json" "$workdir/jobs_after.json" "$workdir/shards_after.json" "$victim" || rc=$?
  [ "$rc" = 0 ] && break
  [ "$rc" = 3 ] || exit 1
  [ "$i" = 300 ] && { echo "restarted router never settled"; cat "$workdir/jobs_after.json"; exit 1; }
  sleep 0.1
done
adopted="$(python3 -c 'import json, sys; print(len(json.load(open(sys.argv[1]))))' "$workdir/jobs_after.json")"

# Explain: the router wraps the owning shard's phase breakdown with its
# own hop record; the phases must partition the job's latency exactly.
curl -fsS "$rbase/jobs/0/explain" >"$workdir/explain.json"
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
ex = d["explain"]
assert d["fleet"]["id"] == 0 and d["fleet"]["traceId"], d["fleet"]
assert d["fleet"]["traceId"] == ex.get("traceId"), (d["fleet"], ex)
phases = ex["phases"]
assert phases, ex
assert sum(p["durNs"] for p in phases) == ex["latencyNs"], ex
print("explain: job 0 state %s, %d phases, bottleneck %s %.1f%%"
      % (ex["state"], len(phases), ex.get("bottleneck"), ex.get("bottleneckPct", 0)))' \
  "$workdir/explain.json"
curl -fsS "$rbase/jobs/0/explain?format=text" >"$workdir/explain.txt"
head -1 "$workdir/explain.txt" | grep -q '^fleet: job 0 ' || {
  echo "text explain missing the fleet hop line"; cat "$workdir/explain.txt"; exit 1; }
grep -q 'bottleneck' "$workdir/explain.txt"

# The live stitched fleet timeline: router lanes + every live shard's
# flight recording, as one Chrome trace.
curl -fsS "$rbase/timeline" >"$workdir/live_timeline.json"
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["traceEvents"], "empty stitched timeline"' "$workdir/live_timeline.json"

# Drain the fleet: the handshake answers with the merged report, the
# router prints the same report to stdout on exit, and each surviving
# shard exits after its own drain.
curl -fsS -X POST "$rbase/drain" >"$workdir/drain.json"
python3 -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert len(d["shards"]) == 2, d["shards"]
open(sys.argv[2], "w").write(d["report"])' "$workdir/drain.json" "$workdir/live_merged.txt"
wait "$rpid"
for s in s0 s1 s2; do
  [ "$s" = "$victim" ] && continue
  wait "${shard_pid[$s]}"
done
diff -u "$workdir/live_merged.txt" "$workdir/router.out"

# Replay the survivors' traces offline: the dead shard's partial trace
# died with it (its jobs live on in the survivors' traces).
rm -f "$workdir/traces/$victim.jsonl"
"$workdir/gpmrfleet" -replay "$workdir/traces" >"$workdir/replay.out"
if ! diff -u "$workdir/live_merged.txt" "$workdir/replay.out"; then
  echo "live and replayed fleet reports differ"
  exit 1
fi

# Stitch the same directory (survivor traces + the router's saved
# recording) into the fleet timeline offline: it must be byte-identical
# to the live /timeline captured before the drain.
"$workdir/gpmrfleet" -replay "$workdir/traces" -timeline - >"$workdir/offline_timeline.json"
if ! diff -q "$workdir/live_timeline.json" "$workdir/offline_timeline.json"; then
  echo "live and offline stitched timelines differ"
  exit 1
fi

echo "gpmrfleet smoke: $n jobs, $failovers failed over past dead $victim, $adopted adopted by a restarted router; merged report and stitched timeline match replay ($(wc -l <"$workdir/replay.out") lines)"
