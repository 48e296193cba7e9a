#!/bin/sh
# Builds and runs the ThreadSanitizer smoke for the SIGPROF sampling
# profiler: the async-signal handler writing the sample ring on every thread
# while a reader thread resolves stacks from it, plus a mid-run restart that
# swaps the ring under live signal traffic.  Compiles only the support core
# (not the whole tree) with -fsanitize=thread, so the tier-1 flow can afford
# to run it on every invocation.
# Usage: run_profiler_tsan_smoke.sh <source-dir> <work-dir>
set -eu

SRC="$1"
WORK="$2"
CXX="${CXX:-c++}"

mkdir -p "$WORK"
BIN="$WORK/profiler_tsan_smoke"

"$CXX" -std=c++20 -O1 -g -fsanitize=thread -fno-omit-frame-pointer \
  -I "$SRC/src" \
  "$SRC/tests/support/profiler_tsan_smoke.cpp" \
  "$SRC/src/support/error.cpp" \
  "$SRC/src/support/log.cpp" \
  "$SRC/src/support/profiler.cpp" \
  "$SRC/src/support/status.cpp" \
  "$SRC/src/support/telemetry.cpp" \
  -lpthread -ldl -o "$BIN"

exec "$BIN"
