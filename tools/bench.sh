#!/usr/bin/env bash
# Runs the kernel microbenchmarks (google-benchmark) and writes the JSON
# report to BENCH_kernels.json at the repository root — the perf trajectory
# data referenced by ROADMAP.md. Numbers are only meaningful from a Release
# build, so the script refuses any other build type unless --allow-debug is
# given (smoke runs in CI use it); the binary itself stamps the build type
# and the active SIMD dispatch level into the JSON context, so a recording's
# provenance is auditable after the fact.
#
# Usage: tools/bench.sh [--smoke] [--allow-debug] [--build-dir DIR]
#                       [--out FILE] [--filter RE]
#   --smoke       cap per-benchmark min time at 0.01s (CI smoke signal: the
#                 harness runs end to end and emits valid JSON; timings are
#                 noisy and must not be checked in)
#   --allow-debug run even when the build dir is not CMAKE_BUILD_TYPE=Release
#                 (the stamped context still records the real build type)
#   --build-dir   Release build directory (default: build-release)
#   --out         output path (default: <repo>/BENCH_kernels.json)
#   --filter      benchmark regex (default: all)

set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo/build-release"
out="$repo/BENCH_kernels.json"
min_time=0.1
filter='.*'
allow_debug=0

while [ $# -gt 0 ]; do
  case "$1" in
    --smoke) min_time=0.01; shift ;;
    --allow-debug) allow_debug=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --filter) filter="$2"; shift 2 ;;
    *) echo "usage: $0 [--smoke] [--allow-debug] [--build-dir DIR] [--out FILE] [--filter RE]" >&2
       exit 2 ;;
  esac
done

if [ ! -x "$build_dir/bench/bench_kernels" ]; then
  echo "==> configuring Release build in $build_dir"
  cmake -S "$repo" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
fi

# Provenance gate: recordings from non-Release builds are noise, not data.
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$build_dir/CMakeCache.txt" 2>/dev/null || true)"
if [ "$build_type" != "Release" ] && [ "$allow_debug" -ne 1 ]; then
  echo "error: $build_dir is CMAKE_BUILD_TYPE='${build_type:-<unset>}', not Release." >&2
  echo "       Benchmark recordings must come from a Release build; pass" >&2
  echo "       --allow-debug to run anyway (e.g. for a CI smoke check)." >&2
  exit 1
fi

echo "==> building bench_kernels"
cmake --build "$build_dir" --target bench_kernels -j "$(nproc 2>/dev/null || echo 2)"

echo "==> running benchmarks (min_time=${min_time}s, filter=$filter)"
"$build_dir/bench/bench_kernels" \
  --benchmark_filter="$filter" \
  --benchmark_min_time="$min_time" \
  --benchmark_format=json \
  --benchmark_out="$out" \
  --benchmark_out_format=json

echo "==> wrote $out (build_type=$build_type)"

# Telemetry-overhead gate: the observability plane (ProfileScope on the
# cache hot path + the 97 Hz sampler) must cost <5% on the instrumented
# loop. Single runs of the two arms differ by up to +-11% on a quiet
# 4-vCPU host, so the gate times BM_TelemetryOverhead/1 (profiler on) and
# /0 (off) in an invocation of its own, 20 randomly interleaved
# repetitions of 0.05 s per arm (in --smoke runs too), and compares the
# arms' medians. Skipped when the filter excluded them from the recording.
if grep -q '"BM_TelemetryOverhead/' "$out" && command -v python3 > /dev/null 2>&1; then
  gate_out="$(mktemp)"
  trap 'rm -f "$gate_out"' EXIT
  echo "==> telemetry-overhead gate (20 interleaved repetitions per arm)"
  "$build_dir/bench/bench_kernels" \
    --benchmark_filter='^BM_TelemetryOverhead/' \
    --benchmark_repetitions=20 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_min_time=0.05 \
    --benchmark_out="$gate_out" \
    --benchmark_out_format=json > /dev/null
  python3 - "$gate_out" <<'EOF'
import json, statistics, sys
doc = json.load(open(sys.argv[1]))
times = {"0": [], "1": []}
for b in doc.get("benchmarks", []):
    if b.get("run_type") == "iteration":
        times[b["name"].rsplit("/", 1)[1]].append(float(b["real_time"]))
off = statistics.median(times["0"])
on = statistics.median(times["1"])
ratio = on / off
budget = 1.05
assert ratio <= budget, (
    "telemetry overhead %.1f%% exceeds the 5%% budget "
    "(medians of %d: off %.1fns, on %.1fns)"
    % ((ratio - 1.0) * 100.0, len(times["0"]), off, on))
print("telemetry overhead %+.2f%% (budget +5%%; medians of %d: off %.1fns, "
      "on %.1fns)" % ((ratio - 1.0) * 100.0, len(times["0"]), off, on))
EOF
else
  echo "telemetry overhead gate skipped (BM_TelemetryOverhead not in run)"
fi
