#!/usr/bin/env bash
#===- scripts/tier1.sh - Tier-1 verification ------------------------------===#
#
# The repo's tier-1 gate, in twelve passes:
#
#   1. Normal build + full ctest suite (ROADMAP.md's tier-1 command).
#   2. ThreadSanitizer build (-DAC_SANITIZE=thread) of the concurrency
#      surface: test_core (full pipeline through the parallel driver),
#      test_threadpool, and test_parallel_determinism. The determinism
#      test runs on the smallest corpus (AC_DET_CORPUS=echronos) to keep
#      the TSan pass within budget; AC_JOBS=4 forces the parallel
#      scheduler even on single-CPU machines.
#   3. Abstraction-cache round trip: the golden suite (ctest -L golden)
#      runs twice against one fresh cache directory. The second run must
#      report cache hits and still match every checked-in fixture —
#      i.e. warm replay is byte-identical to a cold run.
#   4. AddressSanitizer build (-DAC_SANITIZE=address) of the service
#      surface — the daemon juggles detached connection threads, shared
#      cache tiers and a shared pool, exactly where lifetime bugs hide.
#   5. Daemon golden round trip: start a real acd, serve every golden
#      corpus through acc --golden, byte-compare against the checked-in
#      fixtures (cold, then warm with asserted cache hits), require the
#      entry files on disk while it runs, then SIGTERM-drain and require
#      a clean exit.
#   6. Chaos: the fault-injection suite under ASan (every registered
#      site driven through failure and recovery), the AC_FAULTS env
#      path (a cache entry torn mid-write must recover byte-identically
#      on the next run, with a warning), and whole-process failure —
#      kill -9 a live acd mid-request, require acc to degrade to an
#      in-process run with the exact golden bytes, then a fresh acd
#      must bind the same socket path and serve again.
#   7. Observability: a traced acc run must emit byte-identical golden
#      output to an untraced one, and its trace must lint as Chrome
#      trace-event JSON carrying the pipeline's span names plus the full
#      rule profile (>= 40 word-abs, >= 35 heap-abs rules). The daemon's
#      per-request trace (--trace-dir + --trace-id) and Prometheus
#      metrics endpoint lint too, and a trace-file write failure
#      (AC_FAULTS=trace.write.fail) must warn without failing the check
#      or perturbing its output.
#   8. Perf floor: the hash-consed kernel's cold-run speedup over the
#      recorded seed baseline (bench/baselines/seed-perf.txt) must hold
#      (phase_times on the echronos corpus, >= AC_PERF_MIN_SPEEDUP x,
#      default 1.4 — the reference runner measures ~2x, and the slack
#      absorbs its +/-15% wall-clock noise), a cold/warm
#      abstraction-cache pair must stay
#      byte-identical, and a traced run must keep the word-/heap-
#      abstraction span shares at or below the seed's recorded shares
#      (aclint --max-span-share). Baseline walls are machine-dependent:
#      on a runner much slower than the reference, lower
#      AC_PERF_MIN_SPEEDUP or pass --skip-perf (the share and warm-cache
#      checks are ratio-free and still meaningful anywhere).
#   9. Proof certificates: an acc --cert run on the scaling corpus must
#      keep byte-identical output, and its certificate must re-derive
#      under the independent checker (tools/acpc) and lint (aclint
#      cert). The daemon's per-request export (--cert-dir) round-trips
#      through a real acd, including a hostile ../ trace id that must be
#      replaced with a minted path-safe one instead of steering the
#      write. The adversarial certificate suites (mutation + fuzz,
#      ctest label `cert`) replay under ASan, and with recording
#      disabled phase_times must still hold the pass-8 speedup floor —
#      the always-on conclusion threading is required to stay in the
#      noise the floor already absorbs — while enabled per-function
#      export stays within AC_CERT_MAX_ENABLED_RATIO (default 2.0) of
#      the disabled wall.
#  10. Fleet: one authenticated TCP-only acd over a cache directory, on
#      loopback. A wrong token must be refused with auth_failed (a check
#      presenting it must not fall back to a local run); the golden
#      corpora served over TCP must match the checked-in fixtures byte
#      for byte, with their entry files on disk while the daemon runs; a
#      SIGKILL of the acd mid-request must leave acc's in-process
#      fallback with the exact golden bytes; an acd restarted on its
#      port over the same directory must be refilled from the entry
#      files (disk_hits > 0 in its stats) with byte-identical output;
#      drain must stop it cleanly. Unless --skip-perf, the fleet
#      benchmark then runs and its BENCH_fleet.json must lint (aclint
#      fleet) with >= 5x speedup of the acd restarted over the warm
#      shared directory over the cold standalone acd, a >= 0.9 hit rate
#      and zero diffs.
#  11. Soak: one authenticated TCP acd (tenant quotas on), a real
#      process (an ASan build unless --skip-asan), under a seeded churn
#      — SIGKILLs with same-port restarts between requests and damage to
#      entry files (truncations, overwritten bytes) — with the request
#      mix, kills and damage all derived from one pinned seed
#      (AC_SOAK_SEED, default 20260808, so a failing soak replays
#      exactly). The load is bulk/interactive multi-tenant traffic via
#      acc --priority/--tenant; the acd itself (--no-fallback) must
#      answer every request with bytes identical to the checked-in
#      goldens. Afterwards, once the damage is healed, an acd SIGKILLed
#      and restarted must serve every corpus from the directory, its
#      Prometheus exposition must lint with the overload counters and
#      every tenant's samples present, and it must drain cleanly.
#  12. Observability of one TCP acd with --trace-dir: one traced request
#      against the cold daemon must come back byte-identical, and its
#      per-request trace must lint (aclint trace) with the request,
#      queue-wait, pipeline and cache-write spans. The Prometheus
#      exposition must lint, carrying its latency histograms and an
#      exemplar naming the traced request. Unless --skip-perf, the
#      tracing machinery's cost is then bounded on table5_scaling's
#      seL4-scale row: over six interleaved disabled/enabled pairs, the
#      median per-pair ratio of enabled CPU (less 0.05 s) to disabled
#      CPU must stay within 2% — and the disabled hot path (one relaxed
#      atomic per span) is a strict subset of that cost, so the
#      disabled-tracing regression is bounded by the same 2%.
#
# Every pass runs under a watchdog: if a single pass exceeds
# AC_PASS_TIMEOUT seconds (default 900) the gate fails instead of
# hanging — a stuck daemon wait or a deadlocked test is a finding.
#
# Usage: scripts/tier1.sh [--skip-tsan] [--skip-asan] [--skip-perf]
#
#===-----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
SKIP_ASAN=0
SKIP_PERF=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-perf) SKIP_PERF=1 ;;
    *) echo "tier-1: unknown option $arg" >&2; exit 2 ;;
  esac
done

# Per-pass watchdog: each `pass` banner re-arms a timer that fails the
# whole gate if the pass runs past AC_PASS_TIMEOUT seconds. The TERM it
# sends reaches the EXIT trap, so daemons still get cleaned up.
PASS_TIMEOUT="${AC_PASS_TIMEOUT:-900}"
WATCHDOG_PID=""
disarm_watchdog() {
  [[ -n "$WATCHDOG_PID" ]] || return 0
  pkill -P "$WATCHDOG_PID" 2>/dev/null || true
  kill "$WATCHDOG_PID" 2>/dev/null || true
  WATCHDOG_PID=""
}
pass() {
  disarm_watchdog
  echo "=== $1 ==="
  (
    sleep "$PASS_TIMEOUT"
    echo "tier-1: FAILED — '$1' exceeded its ${PASS_TIMEOUT}s watchdog" >&2
    kill -TERM $$
  ) &
  WATCHDOG_PID=$!
}

pass "tier-1 pass 1: normal build + ctest"
if ! cmake -B build -S . >/dev/null; then
  echo "tier-1: FAILED — cmake configure failed." >&2
  echo "tier-1: fix the configure error above (or delete build/ if its" >&2
  echo "tier-1: CMakeCache.txt is stale) and re-run scripts/tier1.sh." >&2
  exit 1
fi
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure -j)

if [[ "$SKIP_TSAN" == 1 ]]; then
  echo "=== tier-1 pass 2: skipped (--skip-tsan) ==="
else
  pass "tier-1 pass 2: ThreadSanitizer (parallel pipeline)"
  if ! cmake -B build-tsan -S . -DAC_SANITIZE=thread >/dev/null; then
    echo "tier-1: FAILED — TSan cmake configure failed (see above)." >&2
    exit 1
  fi
  cmake --build build-tsan -j \
    --target test_core test_threadpool test_parallel_determinism >/dev/null
  (
    cd build-tsan
    export TSAN_OPTIONS="suppressions=$(cd .. && pwd)/scripts/tsan.supp"
    export AC_JOBS=4
    export AC_DET_CORPUS=echronos
    ./tests/test_threadpool
    ./tests/test_core
    ./tests/test_parallel_determinism
  )
fi

pass "tier-1 pass 3: abstraction-cache round trip"
CACHE_DIR="$(mktemp -d)"
ACD_DIR=""
ACD_PID=""
cleanup() {
  disarm_watchdog
  [[ -n "$ACD_PID" ]] && kill -KILL "$ACD_PID" 2>/dev/null || true
  rm -rf "$CACHE_DIR" ${ACD_DIR:+"$ACD_DIR"}
}
trap cleanup EXIT
# Cold run populates the cache; the fixtures must already match.
(cd build && AC_CACHE_DIR="$CACHE_DIR" ctest -L golden --output-on-failure)
# Warm run: same fixtures byte-for-byte, and the [cache] stdout lines
# must report at least one hit (proving the entries were actually used).
WARM_LOG="$(cd build && AC_CACHE_DIR="$CACHE_DIR" ctest -L golden \
  --output-on-failure --verbose)"
if ! grep -q '\[cache\] hits=[1-9]' <<<"$WARM_LOG"; then
  echo "tier-1: FAILED — warm golden run reported no cache hits:" >&2
  grep '\[cache\]' <<<"$WARM_LOG" >&2 || true
  exit 1
fi
echo "warm cache hits confirmed:"
grep '\[cache\]' <<<"$WARM_LOG" | sort | uniq -c

if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "=== tier-1 pass 4: skipped (--skip-asan) ==="
else
  pass "tier-1 pass 4: AddressSanitizer (service surface)"
  if ! cmake -B build-asan -S . -DAC_SANITIZE=address >/dev/null; then
    echo "tier-1: FAILED — ASan cmake configure failed (see above)." >&2
    exit 1
  fi
  cmake --build build-asan -j \
    --target test_service test_json test_threadpool >/dev/null
  (
    cd build-asan
    ./tests/test_json
    ./tests/test_threadpool
    ./tests/test_service
  )
fi

pass "tier-1 pass 5: daemon golden round trip (acd/acc)"
ACD_DIR="$(mktemp -d)"
ACD="build/tools/acd"
ACC="build/tools/acc"
SOCK="$ACD_DIR/acd.sock"
"$ACD" --socket "$SOCK" --cache-dir "$ACD_DIR/cache" \
  >"$ACD_DIR/acd.log" 2>&1 &
ACD_PID=$!
for _ in $(seq 100); do
  [[ -S "$SOCK" ]] && break
  sleep 0.1
done
if ! "$ACC" --socket "$SOCK" --ping >/dev/null; then
  echo "tier-1: FAILED — acd did not come up:" >&2
  cat "$ACD_DIR/acd.log" >&2
  exit 1
fi
# Cold, then warm: daemon-served golden snapshots must match the
# checked-in fixtures byte for byte both times.
for round in cold warm; do
  for c in max gcd swap midpoint reverse; do
    "$ACC" --socket "$SOCK" --corpus "$c" --golden >"$ACD_DIR/$c.$round"
    if ! cmp -s "$ACD_DIR/$c.$round" "tests/golden/$c.expected"; then
      echo "tier-1: FAILED — daemon-served $c ($round) diverged from" \
           "tests/golden/$c.expected:" >&2
      diff "tests/golden/$c.expected" "$ACD_DIR/$c.$round" | head >&2
      exit 1
    fi
  done
done
# The warm round must have come out of the in-memory tier.
STATS="$("$ACC" --socket "$SOCK" --stats)"
if ! grep -qE '"hits":[1-9]' <<<"$STATS"; then
  echo "tier-1: FAILED — warm daemon round reported no cache hits:" >&2
  echo "$STATS" >&2
  exit 1
fi
echo "daemon cache hits confirmed: $(grep -oE '"hits":[0-9]+' <<<"$STATS")"
# Write-through: the entries are on disk while the daemon still runs.
if [[ -z "$(find "$ACD_DIR/cache" -type f -path '*/accache-v*/*' \
    2>/dev/null | head -1)" ]]; then
  echo "tier-1: FAILED — the running acd wrote no cache entry files." >&2
  exit 1
fi
# Graceful drain: SIGTERM must finish in-flight work, remove the socket
# and exit 0.
kill -TERM "$ACD_PID"
ACD_RC=0
wait "$ACD_PID" || ACD_RC=$?
ACD_PID=""
if [[ "$ACD_RC" != 0 ]]; then
  echo "tier-1: FAILED — acd exited $ACD_RC on SIGTERM:" >&2
  cat "$ACD_DIR/acd.log" >&2
  exit 1
fi
if [[ -e "$SOCK" ]]; then
  echo "tier-1: FAILED — acd left its socket file behind." >&2
  exit 1
fi
echo "acd drained cleanly (entries written through, socket removed)"

pass "tier-1 pass 6: chaos (fault injection + daemon kill)"
# 6a. Every registered fault site, driven through failure and recovery.
#     Under ASan when available: injected faults must not leak either.
if [[ "$SKIP_ASAN" == 1 ]]; then
  cmake --build build -j --target test_chaos >/dev/null
  ./build/tests/test_chaos
else
  cmake --build build-asan -j --target test_chaos >/dev/null
  ./build-asan/tests/test_chaos
fi

# 6b. The AC_FAULTS environment path: tear a cache entry file mid-write
#     (the state a power cut leaves), then prove the next run over the
#     same cache directory warns, re-verifies the damaged entry, and
#     still emits the exact golden bytes.
CHAOS_DIR="$ACD_DIR/chaos"
mkdir -p "$CHAOS_DIR"
NOSOCK="$CHAOS_DIR/nobody-home.sock" # nothing listens: acc runs locally
AC_FAULTS=cache.save.crash:1 "$ACC" --socket "$NOSOCK" \
  --cache-dir "$CHAOS_DIR/cache" --corpus gcd --golden \
  >"$CHAOS_DIR/gcd.torn" 2>"$CHAOS_DIR/gcd.torn.err"
if ! cmp -s "$CHAOS_DIR/gcd.torn" "tests/golden/gcd.expected"; then
  echo "tier-1: FAILED — output of the run whose cache write was torn" \
       "diverged from tests/golden/gcd.expected." >&2
  exit 1
fi
"$ACC" --socket "$NOSOCK" --cache-dir "$CHAOS_DIR/cache" --corpus gcd \
  --golden >"$CHAOS_DIR/gcd.recovered" 2>"$CHAOS_DIR/gcd.recovered.err"
if ! cmp -s "$CHAOS_DIR/gcd.recovered" "tests/golden/gcd.expected"; then
  echo "tier-1: FAILED — recovery run over the torn cache diverged from" \
       "tests/golden/gcd.expected." >&2
  exit 1
fi
if ! grep -q "dropped" "$CHAOS_DIR/gcd.recovered.err"; then
  echo "tier-1: FAILED — recovery over a torn cache did not warn about" \
       "dropped entries:" >&2
  cat "$CHAOS_DIR/gcd.recovered.err" >&2
  exit 1
fi
echo "torn cache write recovered byte-identically (with warning)"

# 6c. Whole-process failure: SIGKILL a live acd mid-request. The client
#     must degrade to an in-process run with the exact golden bytes, and
#     a fresh acd must bind the same (now stale) socket path and serve.
SOCK2="$ACD_DIR/acd-chaos.sock"
"$ACD" --socket "$SOCK2" --cache-dir "$ACD_DIR/chaos-cache" \
  >"$ACD_DIR/acd2.log" 2>&1 &
ACD_PID=$!
for _ in $(seq 100); do
  [[ -S "$SOCK2" ]] && break
  sleep 0.1
done
"$ACC" --socket "$SOCK2" --ping >/dev/null
"$ACC" --socket "$SOCK2" --corpus max --debug-delay-ms 3000 --golden \
  >"$ACD_DIR/max.killed" 2>"$ACD_DIR/max.killed.err" &
ACC_PID=$!
sleep 0.5 # let the request reach the daemon's session worker
kill -KILL "$ACD_PID"
ACC_RC=0
wait "$ACC_PID" || ACC_RC=$?
ACD_PID=""
if [[ "$ACC_RC" != 0 ]]; then
  echo "tier-1: FAILED — acc exited $ACC_RC after its daemon was" \
       "SIGKILLed mid-request:" >&2
  cat "$ACD_DIR/max.killed.err" >&2
  exit 1
fi
if ! cmp -s "$ACD_DIR/max.killed" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — fallback output after SIGKILL diverged from" \
       "tests/golden/max.expected:" >&2
  diff "tests/golden/max.expected" "$ACD_DIR/max.killed" | head >&2
  exit 1
fi
if ! grep -q "falling back" "$ACD_DIR/max.killed.err"; then
  echo "tier-1: FAILED — acc did not report its fallback:" >&2
  cat "$ACD_DIR/max.killed.err" >&2
  exit 1
fi
echo "SIGKILLed daemon degraded to an exact in-process run"
# Restart on the same socket path (the dead daemon left a stale file).
"$ACD" --socket "$SOCK2" --cache-dir "$ACD_DIR/chaos-cache" \
  >"$ACD_DIR/acd3.log" 2>&1 &
ACD_PID=$!
for _ in $(seq 100); do
  "$ACC" --socket "$SOCK2" --ping >/dev/null 2>&1 && break
  sleep 0.1
done
"$ACC" --socket "$SOCK2" --no-fallback --corpus max --golden \
  >"$ACD_DIR/max.restarted"
if ! cmp -s "$ACD_DIR/max.restarted" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — restarted daemon on the stale socket path" \
       "diverged from tests/golden/max.expected." >&2
  exit 1
fi
kill -TERM "$ACD_PID"
ACD_RC=0
wait "$ACD_PID" || ACD_RC=$?
ACD_PID=""
if [[ "$ACD_RC" != 0 ]]; then
  echo "tier-1: FAILED — restarted acd exited $ACD_RC on SIGTERM." >&2
  exit 1
fi
echo "fresh acd reclaimed the stale socket and drained cleanly"

pass "tier-1 pass 7: observability (tracing, rule profile, metrics)"
ACLINT="build/tools/aclint"
cmake --build build -j --target aclint >/dev/null
OBS_DIR="$ACD_DIR/obs"
mkdir -p "$OBS_DIR"
NOSOCK7="$OBS_DIR/nobody-home.sock" # nothing listens: acc runs locally

# 7a. Tracing must be invisible to the result: the traced run's golden
#     bytes match the untraced fixture exactly.
"$ACC" --socket "$NOSOCK7" --trace "$OBS_DIR/max.trace.json" \
  --cache-dir "$OBS_DIR/cache" --corpus max --golden \
  >"$OBS_DIR/max.traced" 2>/dev/null
if ! cmp -s "$OBS_DIR/max.traced" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — traced run diverged from tests/golden/max.expected:" >&2
  diff "tests/golden/max.expected" "$OBS_DIR/max.traced" | head >&2
  exit 1
fi
# ...and the trace itself is well-formed Chrome JSON carrying the
# pipeline's spans and the paper-scale rule inventory as a profile.
if ! "$ACLINT" trace "$OBS_DIR/max.trace.json" \
    --require-span parse --require-span core.fn \
    --require-span wordabs.fn --require-span heapabs.fn \
    --require-span monad.peephole --require-span cache.save \
    --min-wa 40 --min-hl 35; then
  echo "tier-1: FAILED — acc trace did not lint (see findings above)." >&2
  exit 1
fi
echo "traced run byte-identical; trace linted (spans + rule profile)"

# 7b. The daemon's per-request traces and metrics endpoint.
SOCK7="$OBS_DIR/acd.sock"
"$ACD" --socket "$SOCK7" --trace-dir "$OBS_DIR/traces" \
  --log-file "$OBS_DIR/acd.jsonl" >"$OBS_DIR/acd.log" 2>&1 &
ACD_PID=$!
for _ in $(seq 100); do
  "$ACC" --socket "$SOCK7" --ping >/dev/null 2>&1 && break
  sleep 0.1
done
"$ACC" --socket "$SOCK7" --no-fallback --trace-id tier1-pass7 \
  --corpus gcd --golden >"$OBS_DIR/gcd.served"
if ! cmp -s "$OBS_DIR/gcd.served" "tests/golden/gcd.expected"; then
  echo "tier-1: FAILED — daemon-served gcd under tracing diverged." >&2
  exit 1
fi
for _ in $(seq 100); do
  [[ -f "$OBS_DIR/traces/tier1-pass7.json" ]] && break
  sleep 0.1
done
if ! "$ACLINT" trace "$OBS_DIR/traces/tier1-pass7.json" \
    --require-span core.fn; then
  echo "tier-1: FAILED — per-request daemon trace did not lint." >&2
  exit 1
fi
"$ACC" --socket "$SOCK7" --metrics >"$OBS_DIR/metrics.txt"
if ! "$ACLINT" metrics "$OBS_DIR/metrics.txt" \
    --require acd_requests_completed_total \
    --require acd_requests_shed_total \
    --require acd_requests_quota_rejected_total; then
  echo "tier-1: FAILED — daemon metrics exposition did not lint." >&2
  exit 1
fi
if ! grep -q '^acd_requests_completed_total 1$' "$OBS_DIR/metrics.txt"; then
  echo "tier-1: FAILED — metrics did not count the served request:" >&2
  grep '^acd_requests' "$OBS_DIR/metrics.txt" >&2 || true
  exit 1
fi
# The structured log is JSONL with the request's lifecycle under its id.
if ! grep -q '"event":"request.completed".*"trace_id":"tier1-pass7"' \
    "$OBS_DIR/acd.jsonl" && \
   ! grep -q '"trace_id":"tier1-pass7".*"event":"request.completed"' \
    "$OBS_DIR/acd.jsonl"; then
  echo "tier-1: FAILED — no request.completed log line for tier1-pass7:" >&2
  cat "$OBS_DIR/acd.jsonl" >&2
  exit 1
fi
kill -TERM "$ACD_PID"
ACD_RC=0
wait "$ACD_PID" || ACD_RC=$?
ACD_PID=""
if [[ "$ACD_RC" != 0 ]]; then
  echo "tier-1: FAILED — traced acd exited $ACD_RC on SIGTERM." >&2
  exit 1
fi
echo "daemon per-request trace, metrics and structured log linted"

# 7c. Observability must never fail the work it observes: inject a trace
#     write failure; the check still exits 0 with the exact golden bytes
#     and only a warning marks the lost trace.
OBS_RC=0
AC_FAULTS=trace.write.fail:1 "$ACC" --socket "$NOSOCK7" \
  --trace "$OBS_DIR/torn.trace.json" --corpus max --golden \
  >"$OBS_DIR/max.torntrace" 2>"$OBS_DIR/max.torntrace.err" || OBS_RC=$?
if [[ "$OBS_RC" != 0 ]]; then
  echo "tier-1: FAILED — a torn trace write failed the check (exit $OBS_RC):" >&2
  cat "$OBS_DIR/max.torntrace.err" >&2
  exit 1
fi
if ! cmp -s "$OBS_DIR/max.torntrace" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — output diverged when the trace write was torn." >&2
  exit 1
fi
if ! grep -q "trace.write_failed" "$OBS_DIR/max.torntrace.err"; then
  echo "tier-1: FAILED — torn trace write did not warn:" >&2
  cat "$OBS_DIR/max.torntrace.err" >&2
  exit 1
fi
echo "torn trace write warned without failing the check"

if [[ "$SKIP_PERF" == 1 ]]; then
  echo "=== tier-1 pass 8: skipped (--skip-perf) ==="
else
  pass "tier-1 pass 8: perf floor (hash-consed kernel)"
  PERF_BASE="bench/baselines/seed-perf.txt"
  if [[ ! -f "$PERF_BASE" ]]; then
    echo "tier-1: FAILED — $PERF_BASE missing (seed perf baseline)." >&2
    exit 1
  fi
  base() { awk -v k="$1" '$1==k{print $2}' "$PERF_BASE"; }
  PERF_DIR="$OBS_DIR/perf"
  mkdir -p "$PERF_DIR"
  cmake --build build -j --target phase_times >/dev/null

  # 8a. Cold-run floor: the same phase_times invocation the seed baseline
  #     recorded, compared as a ratio. The floor is deliberately below
  #     the speedup measured on the reference runner so noise does not
  #     flake the gate, but high enough that losing the hash-consed
  #     fast paths (or the WA/HL memo tables) fails it.
  ./build/bench/phase_times echronos 3 >"$PERF_DIR/phase.log"
  WALL="$(sed -n 's/.*wall=\([0-9.]*\)s.*/\1/p' "$PERF_DIR/phase.log" | head -1)"
  SEED_WALL="$(base phase_echronos3_wall_s)"
  MIN_SPEEDUP="${AC_PERF_MIN_SPEEDUP:-1.4}"
  if [[ -z "$WALL" || -z "$SEED_WALL" ]]; then
    echo "tier-1: FAILED — could not read cold wall (got '$WALL' vs seed '$SEED_WALL')." >&2
    exit 1
  fi
  if ! awk -v w="$WALL" -v s="$SEED_WALL" -v m="$MIN_SPEEDUP" \
      'BEGIN { exit !(w > 0 && s / w >= m) }'; then
    echo "tier-1: FAILED — cold echronos wall ${WALL}s misses the ${MIN_SPEEDUP}x floor vs seed ${SEED_WALL}s." >&2
    echo "tier-1: (baselines are machine-dependent; see $PERF_BASE for the reference runner," >&2
    echo "tier-1:  and AC_PERF_MIN_SPEEDUP / --skip-perf for slower machines.)" >&2
    exit 1
  fi
  echo "cold echronos wall ${WALL}s vs seed ${SEED_WALL}s: floor ${MIN_SPEEDUP}x holds"

  # 8b. Warm-cache behaviour unchanged: a cold and a warm run against one
  #     fresh cache directory must produce byte-identical output.
  "$ACC" --socket "$NOSOCK7" --cache-dir "$PERF_DIR/cache" \
    --corpus echronos --golden >"$PERF_DIR/echronos.cold"
  "$ACC" --socket "$NOSOCK7" --cache-dir "$PERF_DIR/cache" \
    --corpus echronos --golden >"$PERF_DIR/echronos.warm"
  if ! cmp -s "$PERF_DIR/echronos.cold" "$PERF_DIR/echronos.warm"; then
    echo "tier-1: FAILED — warm-cache echronos output diverged from the cold run:" >&2
    diff "$PERF_DIR/echronos.cold" "$PERF_DIR/echronos.warm" | head >&2
    exit 1
  fi
  echo "cold/warm cache pair byte-identical"

  # 8c. The WA/HL share of a traced run must stay at or below the seed's
  #     recorded shares — the span-level proof that the hot abstraction
  #     paths stopped re-walking structure. Ratio-free: valid on any
  #     machine.
  "$ACC" --socket "$NOSOCK7" --trace "$PERF_DIR/echronos.trace.json" \
    --corpus echronos --golden >"$PERF_DIR/echronos.traced"
  if ! cmp -s "$PERF_DIR/echronos.traced" "$PERF_DIR/echronos.cold"; then
    echo "tier-1: FAILED — traced echronos run diverged from the untraced one." >&2
    exit 1
  fi
  if ! "$ACLINT" trace "$PERF_DIR/echronos.trace.json" \
      --require-span wordabs.fn --require-span heapabs.fn \
      --max-span-share "wordabs.fn:$(base trace_echronos_wa_share_pct)" \
      --max-span-share "heapabs.fn:$(base trace_echronos_hl_share_pct)"; then
    echo "tier-1: FAILED — WA/HL span share regressed past the seed baseline." >&2
    exit 1
  fi
  echo "WA/HL span shares at or below the seed's recorded shares"
fi

pass "tier-1 pass 9: proof certificates (acpc round trips)"
ACPC="build/tools/acpc"
cmake --build build -j --target acpc aclint >/dev/null
CERT_T1="$ACD_DIR/certs"
mkdir -p "$CERT_T1"
NOSOCK9="$CERT_T1/nobody-home.sock" # nothing listens: acc runs locally

# 9a. Local round trip on the scaling corpus: exporting a certificate
#     must not move a byte of the run's output; the certificate must
#     re-derive under the independent checker and lint structurally.
"$ACC" --socket "$NOSOCK9" --corpus echronos --golden \
  >"$CERT_T1/echronos.plain"
"$ACC" --socket "$NOSOCK9" --cert "$CERT_T1/echronos.acpc" \
  --corpus echronos --golden >"$CERT_T1/echronos.certed"
if ! cmp -s "$CERT_T1/echronos.plain" "$CERT_T1/echronos.certed"; then
  echo "tier-1: FAILED — exporting a certificate perturbed echronos output:" >&2
  diff "$CERT_T1/echronos.plain" "$CERT_T1/echronos.certed" | head >&2
  exit 1
fi
if ! "$ACPC" "$CERT_T1/echronos.acpc"; then
  echo "tier-1: FAILED — acpc rejected the echronos certificate." >&2
  exit 1
fi
if ! "$ACLINT" cert "$CERT_T1/echronos.acpc" --min-claims 10 \
    --require-meta generator --require-meta functions; then
  echo "tier-1: FAILED — echronos certificate did not lint." >&2
  exit 1
fi
echo "local acc --cert round trip checked and linted"

# 9b. Daemon per-request export: a real acd writes
#     <cert-dir>/<trace_id>.acpc, checkable independently; a hostile
#     path-steering trace id must be replaced with a minted safe one at
#     admission, never composed into the path.
SOCK9="$CERT_T1/acd.sock"
"$ACD" --socket "$SOCK9" --cert-dir "$CERT_T1/dcerts" \
  >"$CERT_T1/acd.log" 2>&1 &
ACD_PID=$!
for _ in $(seq 100); do
  "$ACC" --socket "$SOCK9" --ping >/dev/null 2>&1 && break
  sleep 0.1
done
"$ACC" --socket "$SOCK9" --no-fallback --trace-id tier1-pass9 \
  --corpus gcd --golden >"$CERT_T1/gcd.served"
if ! cmp -s "$CERT_T1/gcd.served" "tests/golden/gcd.expected"; then
  echo "tier-1: FAILED — daemon-served gcd under cert export diverged." >&2
  exit 1
fi
for _ in $(seq 100); do
  [[ -f "$CERT_T1/dcerts/tier1-pass9.acpc" ]] && break
  sleep 0.1
done
if ! "$ACPC" "$CERT_T1/dcerts/tier1-pass9.acpc"; then
  echo "tier-1: FAILED — per-request daemon certificate did not check." >&2
  exit 1
fi
"$ACC" --socket "$SOCK9" --no-fallback --trace-id '../../escape' \
  --corpus max --golden >"$CERT_T1/max.served"
if ! cmp -s "$CERT_T1/max.served" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — daemon-served max (hostile trace id) diverged." >&2
  exit 1
fi
if [[ -e "$ACD_DIR/escape.acpc" || -e "$CERT_T1/escape.acpc" ]]; then
  echo "tier-1: FAILED — a hostile trace id steered a certificate write" \
       "outside --cert-dir." >&2
  exit 1
fi
MINTED=""
for _ in $(seq 100); do
  MINTED="$(ls "$CERT_T1"/dcerts/req-*.acpc 2>/dev/null | head -1)"
  [[ -n "$MINTED" ]] && break
  sleep 0.1
done
if [[ -z "$MINTED" ]] || ! "$ACPC" "$MINTED"; then
  echo "tier-1: FAILED — no checkable minted-id certificate for the" \
       "hostile trace id (got '$MINTED')." >&2
  exit 1
fi
kill -TERM "$ACD_PID"
ACD_RC=0
wait "$ACD_PID" || ACD_RC=$?
ACD_PID=""
if [[ "$ACD_RC" != 0 ]]; then
  echo "tier-1: FAILED — cert-exporting acd exited $ACD_RC on SIGTERM." >&2
  exit 1
fi
echo "daemon per-request certs checked; hostile trace id contained"

# 9c. Adversarial certificate suites under ASan: every registered
#     record-kind mutation rejected, and the checker total under fuzzing
#     (an over-read that returns the right bytes in a plain build still
#     fails here).
if [[ "$SKIP_ASAN" == 1 ]]; then
  echo "(cert mutation/fuzz ASan replay skipped via --skip-asan)"
else
  cmake --build build-asan -j \
    --target test_cert_mutation test_cert_fuzz >/dev/null
  ./build-asan/tests/test_cert_mutation
  ./build-asan/tests/test_cert_fuzz
fi

# 9d. Recording cost: with recording disabled (the default) the
#     phase_times wall must still clear the pass-8 speedup floor against
#     the seed baseline — the baseline predates certificate support, so
#     the always-on conclusion threading has to live inside the noise
#     the floor absorbs. With recording enabled plus per-function export
#     (AC_CERT_DIR), the wall may grow by at most
#     AC_CERT_MAX_ENABLED_RATIO (default 2.0).
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(cert recording-cost gate skipped via --skip-perf)"
else
  cbase() { awk -v k="$1" '$1==k{print $2}' bench/baselines/seed-perf.txt; }
  cmake --build build -j --target phase_times >/dev/null
  ./build/bench/phase_times echronos 3 >"$CERT_T1/phase.off.log"
  WOFF="$(sed -n 's/.*wall=\([0-9.]*\)s.*/\1/p' "$CERT_T1/phase.off.log" | head -1)"
  SEED_WALL="$(cbase phase_echronos3_wall_s)"
  MIN_SPEEDUP="${AC_PERF_MIN_SPEEDUP:-1.4}"
  if [[ -z "$WOFF" || -z "$SEED_WALL" ]]; then
    echo "tier-1: FAILED — could not read cert-gate walls (got '$WOFF'" \
         "vs seed '$SEED_WALL')." >&2
    exit 1
  fi
  if ! awk -v w="$WOFF" -v s="$SEED_WALL" -v m="$MIN_SPEEDUP" \
      'BEGIN { exit !(w > 0 && s / w >= m) }'; then
    echo "tier-1: FAILED — recording-disabled wall ${WOFF}s misses the" \
         "${MIN_SPEEDUP}x floor vs seed ${SEED_WALL}s." >&2
    exit 1
  fi
  AC_CERT_DIR="$CERT_T1/bench-certs" \
    ./build/bench/phase_times echronos 3 >"$CERT_T1/phase.on.log"
  WON="$(sed -n 's/.*wall=\([0-9.]*\)s.*/\1/p' "$CERT_T1/phase.on.log" | head -1)"
  MAX_RATIO="${AC_CERT_MAX_ENABLED_RATIO:-2.0}"
  if [[ -z "$WON" ]]; then
    echo "tier-1: FAILED — could not read recording-enabled wall." >&2
    exit 1
  fi
  if ! awk -v on="$WON" -v off="$WOFF" -v m="$MAX_RATIO" \
      'BEGIN { exit !(off > 0 && on / off <= m) }'; then
    echo "tier-1: FAILED — recording-enabled wall ${WON}s exceeds" \
         "${MAX_RATIO}x the disabled wall ${WOFF}s." >&2
    exit 1
  fi
  if ! ls "$CERT_T1"/bench-certs/*.acpc >/dev/null 2>&1; then
    echo "tier-1: FAILED — AC_CERT_DIR run left no per-function certs." >&2
    exit 1
  fi
  ONE_CERT="$(ls "$CERT_T1"/bench-certs/*.acpc | head -1)"
  if ! "$ACPC" "$ONE_CERT" >/dev/null; then
    echo "tier-1: FAILED — per-function cert $ONE_CERT did not check." >&2
    exit 1
  fi
  echo "recording disabled ${WOFF}s holds the ${MIN_SPEEDUP}x floor;" \
       "enabled ${WON}s within ${MAX_RATIO}x"
fi

pass "tier-1 pass 10: fleet (TCP auth, one acd over a shared cache directory)"
cmake --build build -j --target acd acc aclint fleet_throughput >/dev/null
FLEET="$ACD_DIR/fleet"
mkdir -p "$FLEET"
TOK="$FLEET/token"
echo "tier1-fleet-secret" >"$TOK"
FLEET_PIDS=()
fleet_cleanup() {
  [[ ${#FLEET_PIDS[@]} -eq 0 ]] && return 0
  for pid in "${FLEET_PIDS[@]}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
}
trap 'fleet_cleanup; cleanup' EXIT
port_of() { # log-file -> announced TCP port (polls until the line lands)
  local p=""
  for _ in $(seq 100); do
    p="$(sed -n 's/.*listening on tcp port \([0-9]*\).*/\1/p' "$1" | head -1)"
    [[ -n "$p" ]] && break
    sleep 0.1
  done
  echo "$p"
}
wait_ping() { # acc endpoint args... -> polls until the daemon answers
  for _ in $(seq 100); do
    "$ACC" "$@" --ping >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "tier-1: FAILED — no ping answer from $*" >&2
  return 1
}
disk_hits() { # port token-file -> the daemon's top-level disk_hits
  "$ACC" --connect "127.0.0.1:$1" --auth-token-file "$2" --stats |
    grep -o '"disk_hits":[0-9]*' | head -1 | cut -d: -f2
}
entry_files() { # cache-dir -> entry files under it, one per line, sorted
  find "$1" -type f -path '*/accache-v*/*' ! -name '*.tmp.*' 2>/dev/null |
    sort
}

# 10a. Boot: one authenticated TCP-only acd over the shared directory.
start_acd() { # name cache-dir listen-port(0=ephemeral); pid in $!
  "$ACD" --socket none --listen "127.0.0.1:$3" --auth-token-file "$TOK" \
    --cache-dir "$2" >"$FLEET/$1.log" 2>&1 &
}
start_acd a1 "$FLEET/cache" 0
A_PID=$!
FLEET_PIDS+=("$A_PID")
APORT="$(port_of "$FLEET/a1.log")"
if [[ -z "$APORT" ]]; then
  echo "tier-1: FAILED — the TCP acd did not announce its port:" >&2
  cat "$FLEET/a1.log" >&2
  exit 1
fi
FLEETC=(--connect "127.0.0.1:$APORT" --auth-token-file "$TOK")
wait_ping "${FLEETC[@]}"
# A wrong token must be refused with the typed error before any op, and
# a check presenting it must fail rather than degrade to a local run.
echo "wrong-token" >"$FLEET/bad-token"
if "$ACC" --connect "127.0.0.1:$APORT" --auth-token-file "$FLEET/bad-token" \
    --ping >/dev/null 2>"$FLEET/badauth.err"; then
  echo "tier-1: FAILED — acd accepted a connection with a wrong token." >&2
  exit 1
fi
if "$ACC" --connect "127.0.0.1:$APORT" --auth-token-file "$FLEET/bad-token" \
    --corpus max --golden >/dev/null 2>"$FLEET/badauth.err"; then
  echo "tier-1: FAILED — a check with a wrong token was served or fell" \
       "back to a local run." >&2
  exit 1
fi
if ! grep -q 'auth_failed' "$FLEET/badauth.err"; then
  echo "tier-1: FAILED — a wrong token was not refused with auth_failed:" >&2
  cat "$FLEET/badauth.err" >&2
  exit 1
fi

# 10b. Golden corpora over TCP: the fixtures are the Unix-socket and
#      in-process reference, so byte-equality is the transport's
#      correctness gate.
for c in max gcd swap midpoint reverse; do
  "$ACC" "${FLEETC[@]}" --no-fallback --corpus "$c" --golden \
    >"$FLEET/$c.tcp"
  if ! cmp -s "$FLEET/$c.tcp" "tests/golden/$c.expected"; then
    echo "tier-1: FAILED — TCP-served $c diverged from" \
         "tests/golden/$c.expected:" >&2
    diff "tests/golden/$c.expected" "$FLEET/$c.tcp" | head >&2
    exit 1
  fi
done
# Write-through: every computed entry is on disk while the daemon still
# runs — nothing waits for a drain.
NENTRIES="$(entry_files "$FLEET/cache" | wc -l)"
if [[ "$NENTRIES" -lt 5 ]]; then
  echo "tier-1: FAILED — the running acd wrote $NENTRIES entry files" \
       "(want >= 5, one per corpus)." >&2
  exit 1
fi
echo "golden corpora byte-identical over TCP; $NENTRIES entries on disk"

# 10c. SIGKILL the acd mid-request: acc must degrade to an in-process run
#      with the exact golden bytes — the same fallback contract as the
#      Unix socket (pass 6c), now over TCP.
"$ACC" "${FLEETC[@]}" --corpus max --debug-delay-ms 3000 --golden \
  >"$FLEET/max.killed" 2>"$FLEET/max.killed.err" &
ACC_PID=$!
sleep 0.5 # let the request reach the daemon's session worker
kill -KILL "$A_PID"
ACC_RC=0
wait "$ACC_PID" || ACC_RC=$?
if [[ "$ACC_RC" != 0 ]] ||
    ! cmp -s "$FLEET/max.killed" "tests/golden/max.expected"; then
  echo "tier-1: FAILED — acc over TCP exited $ACC_RC or diverged after" \
       "its daemon was SIGKILLed mid-request:" >&2
  cat "$FLEET/max.killed.err" >&2
  exit 1
fi
if ! grep -q 'falling back' "$FLEET/max.killed.err"; then
  echo "tier-1: FAILED — acc did not report its in-process fallback:" >&2
  cat "$FLEET/max.killed.err" >&2
  exit 1
fi
echo "acd SIGKILL mid-request: TCP client fell back byte-identically"

# 10d. Restart after the SIGKILL: a fresh acd on the old port over the
#      same directory starts with a cold memory tier, and the replay must
#      be served from the entry files the killed daemon wrote — a
#      drain-time save could never give this.
start_acd a1-restart "$FLEET/cache" "$APORT"
A_PID=$!
FLEET_PIDS+=("$A_PID")
if ! wait_ping "${FLEETC[@]}"; then
  cat "$FLEET/a1-restart.log" >&2
  exit 1
fi
for c in max gcd swap midpoint reverse; do
  "$ACC" "${FLEETC[@]}" --no-fallback --corpus "$c" --golden \
    >"$FLEET/$c.restart"
  if ! cmp -s "$FLEET/$c.restart" "tests/golden/$c.expected"; then
    echo "tier-1: FAILED — the restarted acd diverged on $c." >&2
    exit 1
  fi
done
DHITS="$(disk_hits "$APORT" "$TOK")"
if [[ "${DHITS:-0}" -eq 0 ]]; then
  echo "tier-1: FAILED — the acd restarted after a SIGKILL served the" \
       "corpora without a single disk hit." >&2
  exit 1
fi
echo "restart after SIGKILL refilled from the directory ($DHITS disk hits)"

# 10e. Drain on request, exiting 0.
"$ACC" "${FLEETC[@]}" --drain >/dev/null
RC=0
wait "$A_PID" || RC=$?
if [[ "$RC" != 0 ]]; then
  echo "tier-1: FAILED — the acd exited $RC on drain." >&2
  exit 1
fi
FLEET_PIDS=()
echo "acd drained cleanly"

# 10f. The fleet benchmark and its artifact lint. Machine-dependent like
#      pass 8, so --skip-perf skips it.
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(fleet benchmark skipped via --skip-perf)"
else
  FLEET_BENCH="$(pwd)/build/bench/fleet_throughput"
  (cd "$FLEET" && "$FLEET_BENCH" >"$FLEET/bench.log" 2>&1) || {
    echo "tier-1: FAILED — fleet_throughput missed its floor:" >&2
    tail -10 "$FLEET/bench.log" >&2
    exit 1
  }
  tail -8 "$FLEET/bench.log" | head -7
  if ! "$ACLINT" fleet "$FLEET/BENCH_fleet.json" --min-speedup 5 \
      --min-hit-rate 0.9; then
    echo "tier-1: FAILED — BENCH_fleet.json did not lint." >&2
    exit 1
  fi
  echo "fleet benchmark held its floor and its artifact linted"
fi

pass "tier-1 pass 11: soak (seeded acd SIGKILL + entry damage churn, priorities + tenants)"
SOAK_SEED="${AC_SOAK_SEED:-20260808}"
if [[ "$SKIP_ASAN" == 1 ]]; then
  SOAK_BUILD=build
  cmake --build build -j --target acd acc aclint >/dev/null
else
  SOAK_BUILD=build-asan
  cmake --build build-asan -j --target acd acc >/dev/null
  cmake --build build -j --target aclint >/dev/null
fi
SACD="$SOAK_BUILD/tools/acd"
SACC="$SOAK_BUILD/tools/acc"
SOAK="$ACD_DIR/soak"
mkdir -p "$SOAK"
STOK="$SOAK/token"
echo "tier1-soak-secret" >"$STOK"
# The soak asserts memory safety during the run; leak accounting at
# SIGKILL/exit is noise here, not signal.
export ASAN_OPTIONS="detect_leaks=0"

# The whole schedule — request mix, kills, damage — derives from one
# pinned seed through a plain LCG, so a failing soak replays exactly
# with AC_SOAK_SEED.
mapfile -t RAND < <(awk -v s="$SOAK_SEED" 'BEGIN {
  for (i = 0; i < 64; i++) {
    s = (s * 1103515245 + 12345) % 2147483648
    print int(s / 65536) % 32768
  }
}')
echo "soak seed $SOAK_SEED"

# 11a. Boot: one quota-enabled acd over the soak directory. Every
#      restart binds the same port over the same directory.
SOAK_BOOTS=0
start_soak_acd() { # listen-port(0=ephemeral); pid in SA_PID
  SOAK_BOOTS=$(( SOAK_BOOTS + 1 ))
  "$SACD" --socket none --listen "127.0.0.1:$1" --auth-token-file "$STOK" \
    --cache-dir "$SOAK/cache" --tenant-quota-rps 200 \
    >"$SOAK/acd-$SOAK_BOOTS.log" 2>&1 &
  SA_PID=$!
  FLEET_PIDS+=("$SA_PID")
}
start_soak_acd 0
SAPORT="$(port_of "$SOAK/acd-1.log")"
if [[ -z "$SAPORT" ]]; then
  echo "tier-1: FAILED — soak acd did not announce its port:" >&2
  cat "$SOAK/acd-1.log" >&2
  exit 1
fi
SOAKC=(--connect "127.0.0.1:$SAPORT" --auth-token-file "$STOK")
wait_ping "${SOAKC[@]}"
kill_restart_soak_acd() {
  kill -KILL "$SA_PID" 2>/dev/null || true
  wait "$SA_PID" 2>/dev/null || true
  start_soak_acd "$SAPORT"
  if ! wait_ping "${SOAKC[@]}"; then
    cat "$SOAK/acd-$SOAK_BOOTS.log" >&2
    exit 1
  fi
}
damage_entry() { # seed-value -> truncates or overwrites one entry file
  mapfile -t FILES < <(entry_files "$SOAK/cache")
  [[ ${#FILES[@]} -eq 0 ]] && return 0
  local f="${FILES[$(( $1 % ${#FILES[@]} ))]}"
  local size
  size="$(stat -c %s "$f")"
  if (( $1 % 2 )); then
    truncate -s "$(( size / 2 ))" "$f"
  else
    printf '#' | dd of="$f" bs=1 seek="$(( ($1 / 2) % size ))" \
      conv=notrunc status=none
  fi
  echo "  damaged $(basename "$(dirname "$f")")/$(basename "$f")"
}

# 11b. The load: 40 requests, 3:1 bulk:interactive, three tenants, the
#      corpus/tenant picks seeded. Between requests the seeded churn
#      SIGKILLs the acd and restarts it on the same port, and damages
#      entry files under it. The contract is strict: the acd itself
#      (--no-fallback) answers every request with the exact golden bytes
#      — a kill or a damaged entry costs a recompute, never an error and
#      never a byte.
SOAK_CORPORA=(max gcd swap midpoint reverse)
SOAK_TENANTS=(t0 t1 t2)
KILLS=0
for i in $(seq 0 39); do
  r="${RAND[$(( i % 64 ))]}"
  if (( i > 0 && r % 7 == 0 )); then
    damage_entry "$r"
  fi
  if (( i > 0 && r % 5 == 0 )); then
    kill_restart_soak_acd
    KILLS=$(( KILLS + 1 ))
  fi
  c="${SOAK_CORPORA[$(( (r + i) % 5 ))]}"
  t="${SOAK_TENANTS[$(( (r / 5 + i) % 3 ))]}"
  prio=bulk
  [[ $(( i % 4 )) -eq 0 ]] && prio=interactive
  out="$SOAK/req-$i.out"
  if ! "$SACC" "${SOAKC[@]}" --no-fallback --priority "$prio" \
      --tenant "$t" --trace-id "soak-$i" --corpus "$c" \
      --golden >"$out" 2>>"$SOAK/load.err"; then
    echo "tier-1: FAILED — soak request $i ($c, $prio, tenant $t) got no" \
         "answer (AC_SOAK_SEED=$SOAK_SEED replays this schedule):" >&2
    cat "$SOAK/load.err" >&2
    tail -20 "$SOAK/acd-$SOAK_BOOTS.log" >&2
    exit 1
  fi
  if ! cmp -s "$out" "tests/golden/$c.expected"; then
    echo "tier-1: FAILED — soak request $i ($c, $prio, tenant $t)" \
         "diverged from golden (AC_SOAK_SEED=$SOAK_SEED)." >&2
    exit 1
  fi
done
if [[ "$KILLS" -lt 2 ]]; then
  echo "tier-1: FAILED — seed $SOAK_SEED scheduled only $KILLS acd kills;" \
       "the soak needs churn." >&2
  exit 1
fi
echo "40 soak requests byte-identical across $KILLS acd SIGKILL/restarts"

# 11c. Recovery after a SIGKILL: one round heals whatever the churn left
#      damaged, then a second kill + restart must serve every corpus from
#      the directory (disk_hits == 5, one entry each).
kill_restart_soak_acd
for c in "${SOAK_CORPORA[@]}"; do
  "$SACC" "${SOAKC[@]}" --no-fallback --corpus "$c" --golden \
    >"$SOAK/heal-$c.out"
  cmp -s "$SOAK/heal-$c.out" "tests/golden/$c.expected" || {
    echo "tier-1: FAILED — post-churn $c diverged from golden." >&2
    exit 1
  }
done
kill_restart_soak_acd
i=0
for c in "${SOAK_CORPORA[@]}"; do
  t="${SOAK_TENANTS[$(( i % 3 ))]}"
  i=$(( i + 1 ))
  "$SACC" "${SOAKC[@]}" --no-fallback --tenant "$t" --corpus "$c" \
    --golden >"$SOAK/probe-$c.out"
  if ! cmp -s "$SOAK/probe-$c.out" "tests/golden/$c.expected"; then
    echo "tier-1: FAILED — post-restart probe $c diverged from golden." >&2
    exit 1
  fi
done
DHITS="$(disk_hits "$SAPORT" "$STOK")"
if [[ "${DHITS:-0}" -ne 5 ]]; then
  echo "tier-1: FAILED — after a SIGKILL the restarted acd served" \
       "${DHITS:-0}/5 corpora from the directory." >&2
  exit 1
fi
echo "restarted acd served all 5 corpora from the directory after SIGKILL"

# 11d. The overload counters and the per-tenant ledger are in the
#      daemon's exposition.
"$SACC" "${SOAKC[@]}" --metrics >"$SOAK/metrics.txt"
if ! "$ACLINT" metrics "$SOAK/metrics.txt" \
    --require acd_requests_shed_total \
    --require acd_requests_quota_rejected_total \
    --require acd_tenant_admitted_total; then
  echo "tier-1: FAILED — soak metrics lost the overload counters (see" \
       "findings above)." >&2
  exit 1
fi
for t in "${SOAK_TENANTS[@]}"; do
  if ! grep -q "^acd_tenant_admitted_total{tenant=\"$t\"" \
      "$SOAK/metrics.txt"; then
    echo "tier-1: FAILED — tenant $t missing from the exposition." >&2
    exit 1
  fi
done
echo "overload counters present; every tenant in the ledger"

# 11e. Drain on request, exiting 0.
"$SACC" "${SOAKC[@]}" --drain >/dev/null
RC=0
wait "$SA_PID" || RC=$?
if [[ "$RC" != 0 ]]; then
  echo "tier-1: FAILED — the soak acd exited $RC on drain." >&2
  exit 1
fi
FLEET_PIDS=()
unset ASAN_OPTIONS
echo "soak acd drained cleanly"

pass "tier-1 pass 12: observability of one TCP acd (request trace, metrics)"
cmake --build build -j --target acd acc aclint table5_scaling >/dev/null
OBSF="$ACD_DIR/obsfleet"
mkdir -p "$OBSF"
OTOK="$OBSF/token"
echo "tier1-obs-secret" >"$OTOK"

# 12a. Boot one traced acd: every request flushes its spans to
#      <trace-dir>/<trace_id>.json.
"$ACD" --socket none --listen 127.0.0.1:0 --auth-token-file "$OTOK" \
  --cache-dir "$OBSF/cache" --trace-dir "$OBSF/traces" \
  >"$OBSF/obs.log" 2>&1 &
OA_PID=$!
FLEET_PIDS+=("$OA_PID")
OAPORT="$(port_of "$OBSF/obs.log")"
if [[ -z "$OAPORT" ]]; then
  echo "tier-1: FAILED — traced acd did not announce its port:" >&2
  cat "$OBSF/obs.log" >&2
  exit 1
fi
OBSC=(--connect "127.0.0.1:$OAPORT" --auth-token-file "$OTOK")
wait_ping "${OBSC[@]}"

# 12b. One traced request against the cold daemon: every function
#      misses, so the request's trace carries its cache writes — and
#      observability must not move a byte.
"$ACC" "${OBSC[@]}" --no-fallback --trace-id fleet-trace-1 \
  --corpus gcd --golden >"$OBSF/gcd.traced"
if ! cmp -s "$OBSF/gcd.traced" "tests/golden/gcd.expected"; then
  echo "tier-1: FAILED — traced gcd diverged from the golden:" >&2
  diff "tests/golden/gcd.expected" "$OBSF/gcd.traced" | head >&2
  exit 1
fi
TRACE="$OBSF/traces/fleet-trace-1.json"
for _ in $(seq 50); do
  [[ -s "$TRACE" ]] && break
  sleep 0.1
done
if ! "$ACLINT" trace "$TRACE" --require-span acd.request \
    --require-span acd.queue_wait --require-span core.fn \
    --require-span cache.save; then
  echo "tier-1: FAILED — the acd's per-request trace did not lint." >&2
  exit 1
fi
echo "per-request trace linted (request, queue wait, pipeline, cache write)"

# 12c. Metrics: the exposition is lint-clean and carries the latency
#      histograms and an exemplar naming the traced request.
"$ACC" "${OBSC[@]}" --metrics >"$OBSF/acd-metrics.txt"
if ! "$ACLINT" metrics "$OBSF/acd-metrics.txt" \
    --require acd_request_duration_seconds \
    --require acd_queue_wait_seconds \
    --require acd_requests_completed_total; then
  echo "tier-1: FAILED — acd metrics exposition did not lint." >&2
  exit 1
fi
if ! grep -qF ' # {trace_id="fleet-trace-1"' "$OBSF/acd-metrics.txt"; then
  echo "tier-1: FAILED — acd metrics carry no exemplar for the traced" \
       "request." >&2
  exit 1
fi
echo "acd exposition linted; exemplar names the trace"

# 12d. Drain the traced acd cleanly.
"$ACC" "${OBSC[@]}" --drain >/dev/null
RC=0
wait "$OA_PID" || RC=$?
if [[ "$RC" != 0 ]]; then
  echo "tier-1: FAILED — the traced acd exited $RC on drain." >&2
  exit 1
fi
FLEET_PIDS=()
echo "traced acd drained cleanly"

# 12e. Tracing cost bound on table5_scaling's seL4-scale row (summed
#      AutoCorres CPU, the least noisy column). Live tracing *enabled*
#      must stay within 2% (+0.05 s) of the disabled run; the disabled
#      hot path (one relaxed atomic per span) is a strict subset of that
#      cost, so the disabled-tracing regression is bounded by the same
#      2%. One run of either kind swings by tens of percent on a shared
#      host, and the second run of a back-to-back pair tends to read
#      slower than the first, so the gate takes six interleaved off/on
#      pairs, each pair run back to back with the order alternating (three
#      pairs each way), and bounds the median of the per-pair ratios
#      (on - 0.05 s) / off — the mean of the middle two.
if [[ "$SKIP_PERF" == 1 ]]; then
  echo "(tracing-overhead gate skipped via --skip-perf)"
else
  t5cpu() { # AC_TRACE value ("" = disabled) -> seL4-scale AC-cpu seconds
    local out
    if [[ -n "$1" ]]; then
      out="$(AC_TRACE="$1" ./build/bench/table5_scaling 2>/dev/null)"
    else
      out="$(./build/bench/table5_scaling 2>/dev/null)"
    fi
    awk '/^seL4-scale/ { print $6; exit }' <<<"$out"
  }
  RATIOS=()
  for pair in 1 2 3 4 5 6; do
    if (( pair % 2 )); then
      OFF="$(t5cpu "")"
      ON="$(t5cpu "$OBSF/t5.trace.json")"
    else
      ON="$(t5cpu "$OBSF/t5.trace.json")"
      OFF="$(t5cpu "")"
    fi
    if [[ -z "$OFF" || -z "$ON" ]]; then
      echo "tier-1: FAILED — could not read table5_scaling seL4 CPU" \
           "(pair $pair: off='$OFF' on='$ON')." >&2
      exit 1
    fi
    R="$(awk -v off="$OFF" -v on="$ON" \
      'BEGIN { printf "%.4f", (off > 0) ? (on - 0.05) / off : 99 }')"
    echo "  tracing pair $pair: disabled ${OFF}s, enabled ${ON}s," \
         "ratio (on - 0.05) / off = $R"
    RATIOS+=("$R")
  done
  MEDIAN="$(printf '%s\n' "${RATIOS[@]}" | sort -g |
    awk 'NR == 3 || NR == 4 { s += $1 } END { printf "%.4f", s / 2 }')"
  if ! awk -v m="$MEDIAN" 'BEGIN { exit !(m <= 1.02) }'; then
    echo "tier-1: FAILED — live tracing cost exceeded the 2% bound:" \
         "median pair ratio $MEDIAN > 1.02." >&2
    exit 1
  fi
  echo "tracing cost bounded: median pair ratio $MEDIAN <= 1.02"
fi

disarm_watchdog
echo "=== tier-1: all passes green ==="
