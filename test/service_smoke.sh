#!/bin/sh
# End-to-end smoke for the mobisim service daemon. Five scenes:
#
#   1. cache: submit the same sweep twice to one daemon — responses must
#      be byte-identical, and after the warm submit the metrics must show
#      every run served from cache (cells.computed stays at the cold
#      count, hits covers the whole resubmission).
#
#   2. crash: kill -9 the daemon mid-sweep, check a pending checkpoint
#      and a partial cache were left behind, restart, and wait for the
#      replayed job's artifact — it must be byte-identical to the same
#      scenario swept by an uninterrupted daemon in a fresh root.
#
#   3. stream: a cold `submit --progress --series` must emit at least
#      one per-run result line before the sweep completes (i.e. before
#      the final progress line), the streamed result lines must equal
#      the persisted artifact bytes, per-cell series files must
#      validate, and serve-watch / serve-metrics --prom must answer.
#
#   4. bad input: sizes beyond the engine's limits, a malformed floor
#      plan and a zero continuum density each get an error response
#      (never a dead daemon: serve-health must still answer), and a
#      floor-plan cell's result line equals `simulate --scenario` on the
#      same file.
#
#   5. a run that raises: under a 600 MB address-space limit, a cell of
#      3 million agents runs out of memory. `submit` must exit non-zero,
#      the same daemon (restarted in place) must then serve a small
#      submit, and a restart with that job's checkpoint pending must
#      retire it (an error artifact, no checkpoint) and reach listen
#      instead of dying again.
#
# Needs only the built binary: MOBISIM=... overrides the default path.
set -eu

BIN=${MOBISIM:-_build/default/bin/mobisim.exe}
TMP=$(mktemp -d)
PIDS=""

cleanup() {
  for p in $PIDS; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
  echo "service_smoke: FAIL: $1" >&2
  exit 1
}

wait_health() { # root socket
  i=0
  until "$BIN" serve-health --root "$1" --socket "$2" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -gt 200 ] && fail "daemon on $2 never became healthy"
    sleep 0.05
  done
}

metric() { # root socket name -> value (0 when absent)
  "$BIN" serve-metrics --root "$1" --socket "$2" \
    | grep -o "\"$3\":[0-9]*" | head -n1 | cut -d: -f2 || true
}

cache_entries() { # root
  find "$1/cache" -name '*.json' 2>/dev/null | wc -l
}

# --- scene 1: double submit is cache-served and byte-identical ----------

cat > "$TMP/sweep.json" <<'EOF'
{"side": 16, "agents": 8, "protocol": ["broadcast", "gossip"],
 "trials": 2, "seed": 7}
EOF
RUNS=4

ROOT_A=$TMP/a
SOCK_A=$TMP/a.sock
"$BIN" serve --quiet --root "$ROOT_A" --socket "$SOCK_A" --jobs 2 &
PIDS="$PIDS $!"
wait_health "$ROOT_A" "$SOCK_A"

"$BIN" submit "$TMP/sweep.json" --root "$ROOT_A" --socket "$SOCK_A" \
  > "$TMP/cold.out"
"$BIN" submit "$TMP/sweep.json" --root "$ROOT_A" --socket "$SOCK_A" \
  > "$TMP/warm.out"
cmp -s "$TMP/cold.out" "$TMP/warm.out" \
  || fail "cold and warm submissions differ"

computed=$(metric "$ROOT_A" "$SOCK_A" service.cells.computed)
hits=$(metric "$ROOT_A" "$SOCK_A" service.cache.hits)
[ "${computed:-0}" -eq "$RUNS" ] \
  || fail "expected $RUNS computed runs after both submits, got '$computed'"
[ "${hits:-0}" -eq "$RUNS" ] \
  || fail "warm submit should hit the cache $RUNS times, got '$hits'"

"$BIN" serve-stop --root "$ROOT_A" --socket "$SOCK_A" > /dev/null
echo "service_smoke: cache scene ok (runs=$RUNS, warm hits=$hits)"

# --- scene 2: kill -9 mid-sweep, resume byte-identically ----------------

# one slow cell, many trials: the sweep takes long enough that the
# partial-cache window after the first finished run is easy to hit
cat > "$TMP/slow.json" <<'EOF'
{"side": 192, "agents": 8, "trials": 8, "seed": 11}
EOF
SLOW_RUNS=8

ROOT_B=$TMP/b
SOCK_B=$TMP/b.sock
"$BIN" serve --quiet --root "$ROOT_B" --socket "$SOCK_B" --jobs 2 &
DAEMON_B=$!
PIDS="$PIDS $DAEMON_B"
wait_health "$ROOT_B" "$SOCK_B"

"$BIN" submit "$TMP/slow.json" --root "$ROOT_B" --socket "$SOCK_B" \
  > /dev/null 2>&1 &
PIDS="$PIDS $!"

i=0
while [ "$(cache_entries "$ROOT_B")" -lt 1 ]; do
  i=$((i + 1))
  [ "$i" -gt 3000 ] && fail "no cache entry ever appeared in the slow sweep"
  sleep 0.02
done
kill -9 "$DAEMON_B"
wait "$DAEMON_B" 2>/dev/null || true

partial=$(cache_entries "$ROOT_B")
[ "$partial" -lt "$SLOW_RUNS" ] \
  || fail "sweep finished before the kill; pick a slower scenario"
pending=$(find "$ROOT_B/pending" -name '*.json' | wc -l)
[ "$pending" -eq 1 ] \
  || fail "expected exactly one pending checkpoint after the kill, got $pending"
[ -z "$(find "$ROOT_B/results" -name '*.ndjson' 2>/dev/null)" ] \
  || fail "artifact exists even though the sweep was killed"

"$BIN" serve --quiet --root "$ROOT_B" --socket "$SOCK_B" --jobs 2 &
PIDS="$PIDS $!"
wait_health "$ROOT_B" "$SOCK_B"

i=0
while [ "$(find "$ROOT_B/pending" -name '*.json' | wc -l)" -gt 0 ]; do
  i=$((i + 1))
  [ "$i" -gt 6000 ] && fail "replayed job never finished"
  sleep 0.05
done
ARTIFACT_B=$(find "$ROOT_B/results" -name '*.ndjson')
[ -n "$ARTIFACT_B" ] || fail "no artifact after the replayed job finished"

ROOT_C=$TMP/c
SOCK_C=$TMP/c.sock
"$BIN" serve --quiet --root "$ROOT_C" --socket "$SOCK_C" --jobs 2 &
PIDS="$PIDS $!"
wait_health "$ROOT_C" "$SOCK_C"
"$BIN" submit "$TMP/slow.json" --root "$ROOT_C" --socket "$SOCK_C" > /dev/null
ARTIFACT_C=$(find "$ROOT_C/results" -name '*.ndjson')

cmp -s "$ARTIFACT_B" "$ARTIFACT_C" \
  || fail "resumed artifact differs from the uninterrupted run"

"$BIN" serve-stop --root "$ROOT_B" --socket "$SOCK_B" > /dev/null
"$BIN" serve-stop --root "$ROOT_C" --socket "$SOCK_C" > /dev/null
echo "service_smoke: crash scene ok (cached at kill: $partial/$SLOW_RUNS)"

# --- scene 3: streaming submit, series artifacts, live introspection ----

ROOT_D=$TMP/d
SOCK_D=$TMP/d.sock
"$BIN" serve --quiet --root "$ROOT_D" --socket "$SOCK_D" --jobs 2 &
PIDS="$PIDS $!"
wait_health "$ROOT_D" "$SOCK_D"

# cold streaming submit with per-cell series recording
"$BIN" submit "$TMP/sweep.json" --root "$ROOT_D" --socket "$SOCK_D" \
  --progress --series > "$TMP/stream.out"

# at least one result line must land before the sweep completes: its
# line number precedes the final progress line's
first_result=$(grep -n '"result"' "$TMP/stream.out" | head -n1 | cut -d: -f1)
last_progress=$(grep -n '"progress"' "$TMP/stream.out" | tail -n1 | cut -d: -f1)
[ -n "$first_result" ] || fail "streaming submit emitted no result lines"
[ -n "$last_progress" ] || fail "streaming submit emitted no progress lines"
[ "$first_result" -lt "$last_progress" ] \
  || fail "no result line was streamed before sweep completion"

# the streamed result lines are exactly the persisted artifact bytes
ARTIFACT_D=$(find "$ROOT_D/results" -name '*.ndjson')
[ -n "$ARTIFACT_D" ] || fail "streaming submit left no artifact"
grep '"result"' "$TMP/stream.out" > "$TMP/stream_results.out"
cmp -s "$TMP/stream_results.out" "$ARTIFACT_D" \
  || fail "streamed result lines differ from the artifact"

# ... and byte-identical to a plain (non-streaming) submit's body
"$BIN" submit "$TMP/sweep.json" --root "$ROOT_D" --socket "$SOCK_D" \
  > "$TMP/plain.out"
tail -n +2 "$TMP/plain.out" > "$TMP/plain_results.out"
cmp -s "$TMP/stream_results.out" "$TMP/plain_results.out" \
  || fail "streamed result lines differ from the non-streaming body"

# per-cell series artifacts exist and validate
n_series=$(find "$ROOT_D/series" -name '*.series.json' | wc -l)
[ "$n_series" -eq 2 ] \
  || fail "expected 2 per-cell series artifacts, got $n_series"
for f in "$ROOT_D"/series/*.series.json; do
  "$BIN" validate-metrics "$f" > /dev/null \
    || fail "series artifact $f does not validate"
done

# live introspection: watch streams the asked-for snapshot count, and
# the Prometheus rendering is scrapable text
watch_lines=$("$BIN" serve-watch --root "$ROOT_D" --socket "$SOCK_D" \
  --interval-ms 50 --count 2 | wc -l)
[ "$watch_lines" -eq 2 ] \
  || fail "serve-watch --count 2 produced $watch_lines lines"
"$BIN" serve-metrics --prom --root "$ROOT_D" --socket "$SOCK_D" \
  | grep -q '^# TYPE mobisim_' \
  || fail "serve-metrics --prom produced no exposition lines"

"$BIN" serve-stop --root "$ROOT_D" --socket "$SOCK_D" > /dev/null
echo "service_smoke: stream scene ok (first result at line $first_result, series files: $n_series)"

# --- scene 4: bad input gets an error response, the daemon lives on ------

ROOT_E=$TMP/e
SOCK_E=$TMP/e.sock
"$BIN" serve --quiet --root "$ROOT_E" --socket "$SOCK_E" --jobs 1 &
PIDS="$PIDS $!"
wait_health "$ROOT_E" "$SOCK_E"

n_bad=0
for bad in \
  '{"side": 16, "agents": 2, "radius": 4611686018427387889}' \
  '{"side": 3037000500, "agents": 2}' \
  '{"side": 16, "agents": 4611686018427387903}' \
  '{"space": "domain", "side": 12, "agents": 6, "plan": "wall:0"}' \
  '{"space": "continuum", "agents": 8, "density": 0}' \
  '{"space": "continuum", "rc_mult": 1e-170, "sigma_frac": 1e-170}'; do
  n_bad=$((n_bad + 1))
  printf '%s\n' "$bad" > "$TMP/bad$n_bad.json"
  if "$BIN" submit "$TMP/bad$n_bad.json" --root "$ROOT_E" --socket "$SOCK_E" \
    > "$TMP/bad$n_bad.out" 2>&1; then
    fail "bad input $n_bad was accepted: $bad"
  fi
  grep -q '"ok":false' "$TMP/bad$n_bad.out" \
    || fail "bad input $n_bad got no error response: $(cat "$TMP/bad$n_bad.out")"
  "$BIN" serve-health --root "$ROOT_E" --socket "$SOCK_E" > /dev/null \
    || fail "daemon stopped answering after bad input $n_bad"
done

cat > "$TMP/wall.json" <<'EOF'
{"space": "domain", "side": 16, "agents": 8, "radius": 1, "plan": "wall:2",
 "seed": 5}
EOF
"$BIN" submit "$TMP/wall.json" --root "$ROOT_E" --socket "$SOCK_E" \
  > "$TMP/wall.out"
served=$(grep '"result"' "$TMP/wall.out" | sed 's/.*"result"://; s/}$//')
local_run=$("$BIN" simulate --scenario "$TMP/wall.json" | sed -n 's/^result: //p')
[ -n "$served" ] || fail "floor-plan submit returned no result line"
[ "$served" = "$local_run" ] \
  || fail "floor-plan result differs: daemon $served, simulate $local_run"

"$BIN" serve-stop --root "$ROOT_E" --socket "$SOCK_E" > /dev/null
echo "service_smoke: bad-input scene ok ($n_bad rejected, wall:2 result $served)"

# --- scene 5: a run that raises is an error line, not a dead daemon ------

ROOT_F=$TMP/f
SOCK_F=$TMP/f.sock
serve_limited() { # root socket: a daemon with a 600 MB address space
  (ulimit -v 600000 && exec "$BIN" serve --quiet --root "$1" --socket "$2" \
    --jobs 1) &
  DAEMON_F=$!
  PIDS="$PIDS $DAEMON_F"
}
serve_limited "$ROOT_F" "$SOCK_F"
wait_health "$ROOT_F" "$SOCK_F"

printf '%s\n' '{"side":64,"agents":3000000,"radius":0,"seed":1,"max_steps":3}' \
  > "$TMP/huge.json"
if "$BIN" submit "$TMP/huge.json" --root "$ROOT_F" --socket "$SOCK_F" \
  > "$TMP/huge.out" 2>&1; then
  fail "a submit whose run ran out of memory exited 0: $(cat "$TMP/huge.out")"
fi
grep -q '"ok":false' "$TMP/huge.out" \
  || fail "the failed run sent no error line: $(cat "$TMP/huge.out")"
# the daemon restarts in place (same process) to get its memory back
wait_health "$ROOT_F" "$SOCK_F"
kill -0 "$DAEMON_F" 2>/dev/null || fail "the daemon process is gone"
"$BIN" submit "$TMP/sweep.json" --root "$ROOT_F" --socket "$SOCK_F" \
  > "$TMP/after.out" \
  || fail "the daemon did not serve a small submit after the failed run"
cmp -s "$TMP/cold.out" "$TMP/after.out" \
  || fail "the submit after the failed run differs from scene 1's"
HASH_F=$(sed -n '1s/.*"hash":"\([^"]*\)".*/\1/p' "$TMP/huge.out")
[ -n "$HASH_F" ] || fail "the failed submit's header names no hash"
[ -s "$ROOT_F/results/$HASH_F.error.ndjson" ] \
  || fail "the failed job left no error artifact"
[ -z "$(find "$ROOT_F/pending" -name '*.json')" ] \
  || fail "the failed job left its checkpoint behind"
"$BIN" serve-stop --root "$ROOT_F" --socket "$SOCK_F" > /dev/null

# the job's checkpoint, as a daemon killed during the run leaves it
cp "$TMP/huge.json" "$ROOT_F/pending/$HASH_F.json"
rm "$ROOT_F/results/$HASH_F.error.ndjson"
serve_limited "$ROOT_F" "$SOCK_F"
wait_health "$ROOT_F" "$SOCK_F"
[ -z "$(find "$ROOT_F/pending" -name '*.json')" ] \
  || fail "the restarted daemon kept the failing checkpoint"
[ -s "$ROOT_F/results/$HASH_F.error.ndjson" ] \
  || fail "the replayed failing job left no error artifact"
"$BIN" serve-stop --root "$ROOT_F" --socket "$SOCK_F" > /dev/null
echo "service_smoke: raising-run scene ok (job $HASH_F retired)"
echo "service_smoke: OK"
