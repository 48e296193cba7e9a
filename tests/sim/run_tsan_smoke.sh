#!/bin/sh
# Builds and runs the ThreadSanitizer smoke test for the telemetry registry,
# tracer and logger under concurrent hammering.  Compiles only those sources
# (not the whole tree) with -fsanitize=thread, so the tier-1 flow can afford
# to run it on every invocation.  Usage: run_tsan_smoke.sh <source-dir>
# <work-dir>
set -eu

SRC="$1"
WORK="$2"
CXX="${CXX:-c++}"

mkdir -p "$WORK"
BIN="$WORK/tsan_smoke"

"$CXX" -std=c++20 -O1 -g -fsanitize=thread -fno-omit-frame-pointer \
  -I "$SRC/src" \
  "$SRC/tests/sim/tsan_smoke.cpp" \
  "$SRC/src/support/log.cpp" \
  "$SRC/src/support/telemetry.cpp" \
  -lpthread -o "$BIN"

exec "$BIN"
