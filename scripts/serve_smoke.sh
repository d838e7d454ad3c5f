#!/bin/sh
# serve_smoke.sh — CI smoke test for cmd/spotverse-serve:
#
#   1. build the binary;
#   2. generate a deterministic trace and replay it twice — the two
#      summaries must be byte-identical;
#   3. replay an overload burst (arrivals ~4x the admission-controlled
#      service rate under severe chaos) and assert requests were shed
#      and every request got exactly one outcome;
#   4. boot the live server, wait for readiness, issue a placement,
#      send SIGTERM, and assert a clean drain: exit code 0 and a
#      flushed, replayable recorded trace.
set -eu

tmp=$(mktemp -d)
pid=""
# On any exit, stop a live daemon the script started (a failed readiness
# or placement check would otherwise leave it running), then clean up.
cleanup() {
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/spotverse-serve" ./cmd/spotverse-serve

echo "serve smoke: replay determinism"
"$tmp/spotverse-serve" -gen-trace "$tmp/trace.jsonl" -gen-count 2000 -gen-qps 600 -seed 7
"$tmp/spotverse-serve" -replay "$tmp/trace.jsonl" -seed 7 -chaos medium > "$tmp/replay1.txt"
"$tmp/spotverse-serve" -replay "$tmp/trace.jsonl" -seed 7 -chaos medium > "$tmp/replay2.txt"
cmp "$tmp/replay1.txt" "$tmp/replay2.txt"
grep -q '^replay: requests=2000 ' "$tmp/replay1.txt"

echo "serve smoke: overload burst"
"$tmp/spotverse-serve" -gen-trace "$tmp/burst.jsonl" -gen-count 4000 -gen-qps 1200 -seed 11
"$tmp/spotverse-serve" -replay "$tmp/burst.jsonl" -seed 11 -chaos severe \
    -workers 4 -queue 32 -rate 100000 > "$tmp/burst.txt"
cat "$tmp/burst.txt"
grep -q '^replay: requests=4000 ' "$tmp/burst.txt"
shed=$(sed -n 's/^replay: .* shed=\([0-9]*\) .*/\1/p' "$tmp/burst.txt")
errors=$(sed -n 's/^replay: .* error=\([0-9]*\) .*/\1/p' "$tmp/burst.txt")
[ "$shed" -gt 0 ] || { echo "overload burst shed nothing" >&2; exit 1; }
[ "$errors" -eq 0 ] || { echo "overload burst produced $errors errors" >&2; exit 1; }

echo "serve smoke: live drain"
"$tmp/spotverse-serve" -addr 127.0.0.1:0 -record "$tmp/live.jsonl" 2> "$tmp/live.log" &
pid=$!
addr=""
for _ in $(seq 1 60); do
    addr=$(sed -n 's/^spotverse-serve: listening on \([^ ]*\) .*/\1/p' "$tmp/live.log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { cat "$tmp/live.log" >&2; echo "server died before ready" >&2; exit 1; }
    sleep 0.5
done
[ -n "$addr" ] || { echo "server never reported its address" >&2; exit 1; }

code=$(curl -s -o "$tmp/place.json" -w '%{http_code}' -X POST "http://$addr/v1/place" \
    -H 'Content-Type: application/json' -d '{"workload_id":"smoke-1"}')
[ "$code" = "200" ] || { echo "place returned $code" >&2; cat "$tmp/place.json" >&2; exit 1; }

kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || { cat "$tmp/live.log" >&2; echo "SIGTERM drain exited $rc, want 0" >&2; exit 1; }
grep -q 'drained clean' "$tmp/live.log"
grep -q '"endpoint":"place"' "$tmp/live.jsonl"
# The recorded trace must itself replay.
"$tmp/spotverse-serve" -replay "$tmp/live.jsonl" -seed 7 > /dev/null

echo "serve smoke: OK"
