#!/usr/bin/env bash
# Tier-1 gate: configure (if needed), build, and run every tier1-labeled
# test.  This is the check CI and pre-commit hooks run; it must stay green.
#
# Usage: scripts/check.sh [build-dir]   (default: build)
#
# Set FPGADBG_SANITIZE=thread (or address) to run the whole gate under a
# sanitized build instead.  The sanitized tree lives in its own directory
# (build-<sanitizer> unless one is given) so it never clobbers the regular
# build, and the standalone *_tsan_smoke tests drop out automatically (the
# full suite is already sanitized).
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZE="${FPGADBG_SANITIZE:-}"
if [ -n "$SANITIZE" ]; then
  BUILD_DIR="${1:-build-$SANITIZE}"
else
  BUILD_DIR="${1:-build}"
fi

# A tree this script creates builds with -Werror, so a new warning fails
# the gate.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DFPGADBG_SANITIZE="$SANITIZE" \
        -DFPGADBG_WERROR=ON
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$(nproc)"

# Under a TSan gate the standalone smokes drop out of ctest (the whole suite
# is already sanitized), but two of them drive cross-thread patterns the
# gtest suites only approximate — run them explicitly.
if [ "$SANITIZE" = "thread" ]; then
  # The introspection server: HTTP scrapers against live telemetry writers
  # is exactly the cross-thread pattern TSan exists to check.
  tests/support/run_introspect_tsan_smoke.sh . "$BUILD_DIR/tsan_smoke"
  # And the sampling profiler: an async-signal handler writing the sample
  # ring on every thread while a reader resolves stacks from it.
  tests/support/run_profiler_tsan_smoke.sh . "$BUILD_DIR/tsan_smoke"
fi

# Schema smoke: run a real debug session with the flight recorder and the
# metrics snapshot enabled, then make `fpgadbg report` ingest both files.
# report parses the journal (JSONL) and the metrics snapshot (JSON) with the
# same loaders the tools use, so a schema drift in either output fails here.
FPGADBG="$BUILD_DIR/src/tools/fpgadbg"
SMOKE_DIR="$BUILD_DIR/schema-smoke"
rm -rf "$SMOKE_DIR" && mkdir -p "$SMOKE_DIR"
"$FPGADBG" gen stereov "$SMOKE_DIR/design.blif" > /dev/null
"$FPGADBG" --journal "$SMOKE_DIR/session.jsonl" \
           --metrics "$SMOKE_DIR/metrics.json" \
           --prom "$SMOKE_DIR/metrics.prom" \
           profile "$SMOKE_DIR/design.blif" --turns 4 --cycles 64 > /dev/null
REPORT=$("$FPGADBG" report "$SMOKE_DIR/session.jsonl" "$SMOKE_DIR/metrics.json")
for needle in "per-turn breakdown" "paper bound" "signal coverage" \
              "frame churn" "metrics snapshot"; do
  if ! grep -q "$needle" <<< "$REPORT"; then
    echo "schema smoke: report output is missing \"$needle\"" >&2
    exit 1
  fi
done
# One "turn" event per debugging turn (the constructor's turn plus the four
# profile turns), and none of the per-turn kinds of the older layout.
TURN_EVENTS=$(grep -c '"ev":"turn"' "$SMOKE_DIR/session.jsonl" || true)
if [ "$TURN_EVENTS" != 5 ]; then
  echo "schema smoke: journal holds $TURN_EVENTS turn events, expected 5" >&2
  exit 1
fi
if grep -Eq '"ev":"(turn_start|scg_eval|icap_write|turn_end|trigger_fire|trace_window)"' \
     "$SMOKE_DIR/session.jsonl"; then
  echo "schema smoke: journal holds an event kind of the older layout" >&2
  exit 1
fi
grep -q '^fpgadbg_debug_turns_total ' "$SMOKE_DIR/metrics.prom" || {
  echo "schema smoke: prometheus exposition is missing fpgadbg_debug_turns_total" >&2
  exit 1
}
echo "schema smoke: OK ($SMOKE_DIR)"

# Shared-cache smoke: two sequential flow runs, as separate processes,
# against ONE cache directory.  The first populates it; the second must
# execute zero stages, replay all six from the shared directory, and report
# exactly six cache hits, one per stage (the cache holds nothing else) —
# this pins the whole chain (temp-file + rename publish, mmap load, digest
# check, stream deserialization) end to end through the CLI.
SHARED_CACHE="$SMOKE_DIR/shared-cache"
rm -rf "$SHARED_CACHE"
COLD=$("$FPGADBG" flow "$SMOKE_DIR/design.blif" --cache-dir "$SHARED_CACHE")
grep -q "6 stages executed, 0 from cache" <<< "$COLD" || {
  echo "shared-cache smoke: cold run did not execute all stages" >&2
  exit 1
}
WARM=$("$FPGADBG" flow "$SMOKE_DIR/design.blif" --cache-dir "$SHARED_CACHE")
grep -q "0 stages executed, 6 from cache" <<< "$WARM" || {
  echo "shared-cache smoke: warm run re-executed stages" >&2
  exit 1
}
CACHE_HITS=$(sed -n 's/.*from cache (.*), \([0-9]*\) cache hits.*/\1/p' <<< "$WARM")
if [ "$CACHE_HITS" != 6 ]; then
  echo "shared-cache smoke: warm run did not report 6 cache hits: $WARM" >&2
  exit 1
fi
"$FPGADBG" cache gc --max-bytes 0 --cache-dir "$SHARED_CACHE" | \
  grep -q "kept 0 entries" || {
  echo "shared-cache smoke: cache gc did not drain the directory" >&2
  exit 1
}
echo "shared-cache smoke: OK ($CACHE_HITS cache hits from $SHARED_CACHE)"

# Timing smoke: the timing-driven flow must run end to end and surface its
# STA summary on stdout and the Fmax gauge in the Prometheus exposition.
TIMING_OUT=$("$FPGADBG" --prom "$SMOKE_DIR/timing.prom" \
             profile "$SMOKE_DIR/design.blif" --turns 1 --cycles 16 \
             --scenarios 0 --timing-driven)
for needle in "Fmax" "worst slack" "critical path" "timing-driven"; do
  if ! grep -q "$needle" <<< "$TIMING_OUT"; then
    echo "timing smoke: profile output is missing \"$needle\"" >&2
    exit 1
  fi
done
grep -q '^fpgadbg_timing_fmax_mhz ' "$SMOKE_DIR/timing.prom" || {
  echo "timing smoke: prometheus exposition is missing fpgadbg_timing_fmax_mhz" >&2
  exit 1
}
echo "timing smoke: OK"

# Introspection smoke: run a profile with the live HTTP server on an
# ephemeral port, scrape every endpoint while the process lingers, and shut
# it down through /quitz.  Exercises the whole chain end to end: flag
# peeling, port announcement on stderr, HTTP framing, Prometheus exposition,
# and the progress registry.
INTRO_ERR="$SMOKE_DIR/introspect.err"
"$FPGADBG" profile "$SMOKE_DIR/design.blif" --turns 1 --cycles 16 \
           --scenarios 64 --introspect 0 --introspect-linger 60 \
           > /dev/null 2> "$INTRO_ERR" &
INTRO_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^fpgadbg: introspect: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$INTRO_ERR" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "introspect smoke: no port announcement on stderr" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
fi
for endpoint in healthz metrics statusz progressz tracez; do
  if ! curl -sf --max-time 5 "http://127.0.0.1:$PORT/$endpoint" \
       > "$SMOKE_DIR/introspect.$endpoint"; then
    echo "introspect smoke: GET /$endpoint failed" >&2
    kill "$INTRO_PID" 2> /dev/null || true
    exit 1
  fi
done
grep -q '^fpgadbg_' "$SMOKE_DIR/introspect.metrics" || {
  echo "introspect smoke: /metrics has no fpgadbg_ samples" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
grep -q '"tasks"' "$SMOKE_DIR/introspect.progressz" || {
  echo "introspect smoke: /progressz has no tasks document" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
curl -sf --max-time 5 "http://127.0.0.1:$PORT/quitz" > /dev/null || {
  echo "introspect smoke: GET /quitz failed" >&2
  kill "$INTRO_PID" 2> /dev/null || true
  exit 1
}
wait "$INTRO_PID" || {
  echo "introspect smoke: fpgadbg exited non-zero" >&2
  exit 1
}
echo "introspect smoke: OK (port $PORT)"

# Profiler smoke: run a profile with the SIGPROF sampler and the live
# server, assert the collapsed-stack export is non-empty (symbolized frames,
# positive counts), and scrape /flamez + /profilez while the process
# lingers.  Pins the whole sampling chain — timer thread, signal fan-out,
# ring capture, symbolization, both report surfaces — end to end.
PROF_ERR="$SMOKE_DIR/profiler.err"
FLAME="$SMOKE_DIR/flame.txt"
"$FPGADBG" profile "$SMOKE_DIR/design.blif" --turns 2 --cycles 256 \
           --scenarios 128 --flame "$FLAME" --sample-hz 997 \
           --introspect 0 --introspect-linger 60 \
           > "$SMOKE_DIR/profiler.out" 2> "$PROF_ERR" &
PROF_PID=$!
PORT=""
for _ in $(seq 1 200); do
  PORT=$(sed -n 's/^fpgadbg: introspect: serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
         "$PROF_ERR" | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.05
done
if [ -z "$PORT" ]; then
  echo "profiler smoke: no port announcement on stderr" >&2
  kill "$PROF_PID" 2> /dev/null || true
  exit 1
fi
# Wait for the workload to finish (flame file written) before scraping, so
# /flamez serves real samples rather than an in-flight ring.
for _ in $(seq 1 400); do
  grep -q "^  flame " "$SMOKE_DIR/profiler.out" 2> /dev/null && break
  sleep 0.05
done
for endpoint in flamez profilez; do
  if ! curl -sf --max-time 5 "http://127.0.0.1:$PORT/$endpoint" \
       > "$SMOKE_DIR/profiler.$endpoint"; then
    echo "profiler smoke: GET /$endpoint failed" >&2
    kill "$PROF_PID" 2> /dev/null || true
    exit 1
  fi
done
curl -sf --max-time 5 "http://127.0.0.1:$PORT/quitz" > /dev/null || {
  echo "profiler smoke: GET /quitz failed" >&2
  kill "$PROF_PID" 2> /dev/null || true
  exit 1
}
wait "$PROF_PID" || {
  echo "profiler smoke: fpgadbg exited non-zero" >&2
  exit 1
}
if ! [ -s "$FLAME" ]; then
  echo "profiler smoke: flame output is empty" >&2
  exit 1
fi
# Collapsed format: "frame;frame;... count" with a positive trailing count.
grep -Eq ';.* [0-9]+$' "$FLAME" || {
  echo "profiler smoke: no multi-frame collapsed stack in $FLAME" >&2
  exit 1
}
grep -q ';' "$SMOKE_DIR/profiler.flamez" || {
  echo "profiler smoke: /flamez served no collapsed stacks" >&2
  exit 1
}
grep -q '^samples: ' "$SMOKE_DIR/profiler.profilez" || {
  echo "profiler smoke: /profilez has no samples field" >&2
  exit 1
}
grep -q "dropped samples" "$SMOKE_DIR/profiler.out" || {
  echo "profiler smoke: CLI output is missing the dropped-samples row" >&2
  exit 1
}
echo "profiler smoke: OK ($(wc -l < "$FLAME") collapsed stacks, port $PORT)"

# Router smoke (unsanitized gate only: the Dijkstra baseline alone takes
# most of its ~15 s without a sanitizer).  bench_route routes route150 and
# route400 with the heuristic-free Dijkstra baseline and with the full
# search stack, and exits non-zero unless both routes are legal and the
# full stack converges within one iteration of the baseline, so a router
# change that loses routability fails the gate.  It runs in the smoke
# directory, where it leaves its BENCH_route.json.
if [ -z "$SANITIZE" ]; then
  BENCH_ROUTE="$(cd "$BUILD_DIR" && pwd)/bench/bench_route"
  if ! (cd "$SMOKE_DIR" && FPGADBG_QUICK=1 "$BENCH_ROUTE" \
        > "$SMOKE_DIR/bench_route.out" 2>&1); then
    cat "$SMOKE_DIR/bench_route.out" >&2
    echo "route smoke: bench_route failed its routability checks" >&2
    exit 1
  fi
  echo "route smoke: OK ($(grep -c '^route' "$SMOKE_DIR/bench_route.out") designs)"

  # Harness smoke: the §V-C1 table, the mux-radix ablation, the §V-B
  # critical-path table, the signal-fraction ablation and the §V-C2
  # run-time overhead harness exit non-zero when any route they report is
  # illegal (about 5 s together; the last also drives a debugging session,
  # its emulator and the introspection server and sampler).
  for HARNESS in bench_compile_time bench_ablation_mux_arity \
      bench_critical_path bench_ablation_signal_fraction \
      bench_runtime_overhead; do
    HARNESS_BIN="$(cd "$BUILD_DIR" && pwd)/bench/$HARNESS"
    if ! (cd "$SMOKE_DIR" && "$HARNESS_BIN" > "$SMOKE_DIR/$HARNESS.out" 2>&1); then
      cat "$SMOKE_DIR/$HARNESS.out" >&2
      echo "harness smoke: $HARNESS failed" >&2
      exit 1
    fi
  done
  echo "harness smoke: OK (bench_compile_time, bench_ablation_mux_arity," \
       "bench_critical_path, bench_ablation_signal_fraction," \
       "bench_runtime_overhead)"
fi
