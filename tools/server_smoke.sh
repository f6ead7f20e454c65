#!/usr/bin/env bash
# End-to-end smoke test for specmined, shared by the Release and
# ASan+UBSan CI jobs: launch on an ephemeral port, poll /healthz, hit
# every route once (mining, corpus registration, metrics), exercise the
# error envelope, then SIGTERM and assert a clean exit 0.
#
# Usage: server_smoke.sh BUILD_DIR   (the directory holding ./specmined)
set -euo pipefail

cd "${1:-.}"

printf 'lock read write unlock lock write unlock\nopen read close lock unlock\nlock read unlock open read read close\nopen write close open read close\nlock unlock lock read write unlock\n' \
  > server_smoke_traces.txt

./specmined --port 0 --corpus demo=server_smoke_traces.txt --quiet \
  > server_smoke.out 2> server_smoke.err &
SPECMINED_PID=$!
trap 'kill "$SPECMINED_PID" 2>/dev/null || true' EXIT

# The first stdout line is "listening on http://HOST:PORT".
PORT=
for _ in $(seq 1 100); do
  PORT=$(sed -n 's#^listening on http://[^:]*:##p' server_smoke.out)
  if [ -n "$PORT" ]; then break; fi
  sleep 0.1
done
[ -n "$PORT" ]
BASE="http://127.0.0.1:$PORT"

for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" > healthz.json 2>/dev/null; then break; fi
  sleep 0.1
done
grep '"status": "ok"' healthz.json
grep '"version"' healthz.json

# One request per mining route. Every response body goes to a file before
# it is grepped: piping curl into `grep -q` under pipefail fails with curl
# exit 23 whenever grep exits before curl has written the whole body.
curl -fsS -d '{"corpus": "demo", "min_sup": 0.4}' \
  "$BASE/mine/patterns" > patterns.json
grep -q '"patterns"' patterns.json
curl -fsS -d '{"corpus": "demo", "min_ssup": 0.4, "min_conf": 0.5}' \
  "$BASE/mine/rules" > rules.json
grep -q '"rules"' rules.json
curl -fsS -d '{"corpus": "demo", "min_sup": 0.4, "closed": true}' \
  "$BASE/mine/seq" > seq.json
grep -q '"patterns"' seq.json
curl -fsS -d '{"corpus": "demo", "window": 5}' \
  "$BASE/mine/episodes" > episodes.json
grep -q '"patterns"' episodes.json
curl -fsS -d '{"corpus": "demo", "min_sat": 0.5}' \
  "$BASE/mine/pairs" > pairs.json
grep -q '"pairs"' pairs.json

# Runtime corpus registration, then mine the new corpus.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -d '{"name": "second", "path": "server_smoke_traces.txt"}' "$BASE/corpora")
[ "$code" = 201 ]
curl -fsS "$BASE/corpora" > corpora.json
grep -q '"second"' corpora.json
curl -fsS -d '{"corpus": "second", "min_sup": 0.4}' \
  "$BASE/mine/patterns" > second.json
grep -q '"patterns"' second.json

# Append route: pack a sharded corpus, register it, append traces, and
# check the committed generation both in the response and on re-mine.
./specmine pack server_smoke_traces.txt server_smoke_append.smdbset --shard-bytes 256
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -d '{"name": "growing", "path": "server_smoke_append.smdbset"}' "$BASE/corpora")
[ "$code" = 201 ]
curl -fsS -d '{"traces": ["lock write unlock", "open read close"], "seal": true}' \
  "$BASE/corpora/growing/append" > append.json
grep -q '"appended": 2' append.json
grep -q '"generation": 1' append.json
curl -fsS -d '{"corpus": "growing", "min_sup": 0.4}' \
  "$BASE/mine/patterns" > growing.json
grep -q '"patterns"' growing.json
# Appending to a non-sharded corpus is a clean client error.
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -d '{"traces": ["a b"]}' "$BASE/corpora/demo/append")
[ "$code" = 400 ]

# Error envelope: unknown corpus is 404 with the JSON error body.
curl -s -d '{"corpus": "nope"}' "$BASE/mine/patterns" > notfound.json
grep -q '"http": 404' notfound.json
code=$(curl -s -o /dev/null -w '%{http_code}' \
  -d '{"corpus": "nope"}' "$BASE/mine/patterns")
[ "$code" = 404 ]

# Metrics scrape carries the catalog and the traffic just generated.
curl -fsS "$BASE/metrics" > metrics.out
grep -q '^specmined_requests_total{route="/mine/patterns",code="200"}' metrics.out
grep -q '^specmined_index_cache_misses_total' metrics.out
grep -q '^specmined_mine_backend_total' metrics.out
grep -q '^specmined_corpora 3' metrics.out
grep -q '^specmined_corpus_appends_total 1' metrics.out
grep -q '^specmined_corpus_appended_traces_total 2' metrics.out
grep -q '^specmined_corpus_generation{corpus="growing"} 1' metrics.out

# Clean shutdown: SIGTERM must exit 0.
kill -TERM "$SPECMINED_PID"
trap - EXIT
wait "$SPECMINED_PID"
echo "server smoke: OK"
