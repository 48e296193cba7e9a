#!/usr/bin/env bash
# Builds the benchmark harness in Release mode, runs every bench_* binary,
# and aggregates their BENCH_*.json artifacts into one BENCH_summary.json
# stamped with the commit hash — the single file a tracking dashboard (or a
# before/after comparison across two commits) ingests.
#
# Usage: scripts/bench_all.sh [build-dir] [results-dir]
#          build-dir    default: build-release (configured on first run)
#          results-dir  default: <build-dir>/bench-results
#
# Environment:
#   FPGADBG_QUICK=1   restrict each harness to its quick subset (~minutes
#                     instead of the full paper sweep)
#   BENCH_FILTER=re   run only the bench binaries whose name matches the
#                     (grep -E) regular expression
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-release}"
RESULTS_DIR="${2:-$BUILD_DIR/bench-results}"
FILTER="${BENCH_FILTER:-.}"

# Release build of the harness only: no tests, no examples, full optimizer.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DFPGADBG_BUILD_TESTS=OFF \
    -DFPGADBG_BUILD_EXAMPLES=OFF
fi
cmake --build "$BUILD_DIR" -j "$(nproc)"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "bench_all: no bench binaries under $BUILD_DIR/bench" >&2
  exit 1
fi
# Absolute: each harness runs from the results dir, not the repo root.
BENCH_BIN_DIR="$(cd "$BUILD_DIR/bench" && pwd)"

mkdir -p "$RESULTS_DIR"
RESULTS_DIR="$(cd "$RESULTS_DIR" && pwd)"
rm -f "$RESULTS_DIR"/BENCH_*.json

# Run each harness from the results dir so its BENCH_<name>.json artifact
# (written to the CWD) lands there.  bench_micro is google-benchmark based
# and emits no BENCH_ artifact; it still runs so regressions crash loudly.
ran=()
failed=()
for bin in "$BENCH_BIN_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  echo "$name" | grep -qE "$FILTER" || continue
  echo "=== $name ==="
  if (cd "$RESULTS_DIR" && "$bin" > "$RESULTS_DIR/$name.log" 2>&1); then
    ran+=("$name")
  else
    failed+=("$name")
    echo "bench_all: $name FAILED (log: $RESULTS_DIR/$name.log)" >&2
  fi
done

if [ "${#ran[@]}" -eq 0 ]; then
  echo "bench_all: no benchmarks matched filter '$FILTER'" >&2
  exit 1
fi

# Aggregate: {"commit": ..., "generated": ..., "quick": ..., "results":
# {<name>: <BENCH_<name>.json document>, ...}}.  Pure shell + cat — the
# per-bench files are already JSON, so assembly is concatenation.
COMMIT="$(git rev-parse HEAD 2> /dev/null || echo unknown)"
STAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
SUMMARY="$RESULTS_DIR/BENCH_summary.json"
{
  printf '{\n'
  printf '  "commit": "%s",\n' "$COMMIT"
  printf '  "generated": "%s",\n' "$STAMP"
  printf '  "quick": %s,\n' "$([ -n "${FPGADBG_QUICK:-}" ] && echo true || echo false)"
  printf '  "results": {'
  first=1
  for f in "$RESULTS_DIR"/BENCH_*.json; do
    [ -e "$f" ] || continue
    [ "$f" = "$SUMMARY" ] && continue
    key="$(basename "$f" .json)"
    key="${key#BENCH_}"
    [ "$first" -eq 1 ] || printf ','
    first=0
    printf '\n    "%s": ' "$key"
    cat "$f"
  done
  printf '\n  }\n}\n'
} > "$SUMMARY"

# Validate the aggregate when a JSON tool is on the PATH; a malformed
# per-bench artifact fails the whole run rather than poisoning the dashboard.
if command -v jq > /dev/null 2>&1; then
  jq -e '.commit and (.results | length > 0)' "$SUMMARY" > /dev/null || {
    echo "bench_all: $SUMMARY is not valid JSON" >&2
    exit 1
  }
elif command -v python3 > /dev/null 2>&1; then
  python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$SUMMARY" || {
    echo "bench_all: $SUMMARY is not valid JSON" >&2
    exit 1
  }
fi

# When the compile_time harness ran, the summary must carry the artifact
# cache timings a dashboard tracks across commits: cold, warm and
# invalidated pipeline runs.  A rename or a dropped section fails here
# instead of silently vanishing from the dashboard.
if grep -qE '^bench_compile_time$' <<< "$(printf '%s\n' "${ran[@]}")"; then
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$SUMMARY" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
hist = doc["results"]["compile_time"]["metrics"].get("histograms", {})
missing = [k for k in (
    "bench.cache.cold_seconds", "bench.cache.warm_seconds",
    "bench.cache.invalidated_seconds",
) if k not in hist]
if missing:
    sys.exit("bench_all: summary is missing cache timings: " + ", ".join(missing))
print("bench_all: cache timings present")
EOF
  fi
fi

# Publish the artifacts where the regression gate (and a reviewer) expects
# them: the aggregated summary plus every per-harness BENCH_*.json at the
# repo root, next to bench/baselines/.
cp "$SUMMARY" ./BENCH_summary.json
for f in "$RESULTS_DIR"/BENCH_*.json; do
  [ "$f" = "$SUMMARY" ] && continue
  cp "$f" "./$(basename "$f")"
done
echo "bench_all: copied BENCH_summary.json + per-harness artifacts to $(pwd)"

# Regression gate against the committed baseline: `fpgadbg benchdiff`, from
# the same build (the CLI is part of every build).  Advisory by default (a
# fresh checkout on slower hardware should not fail the whole bench run);
# BENCH_GATE=strict makes a regression fatal for CI.
if [ -f bench/baselines/BENCH_summary.json ]; then
  if "$BUILD_DIR/src/tools/fpgadbg" benchdiff ./BENCH_summary.json; then
    :
  elif [ "${BENCH_GATE:-}" = "strict" ]; then
    echo "bench_all: regression gate FAILED (BENCH_GATE=strict)" >&2
    exit 1
  else
    echo "bench_all: regression gate reported regressions (advisory;" \
      "set BENCH_GATE=strict to fail the run)" >&2
  fi
fi

echo
echo "bench_all: ${#ran[@]} harnesses OK, ${#failed[@]} failed"
echo "bench_all: summary at $SUMMARY (commit $COMMIT)"
[ "${#failed[@]}" -eq 0 ]
