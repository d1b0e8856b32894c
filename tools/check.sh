#!/usr/bin/env bash
# Full correctness gate: custom lint, the ids-analyzer static checks, then
# the test suite under TSan and under ASan+UBSan. This is what CI runs on
# every PR (tools/ci.sh) and what a developer should run before pushing
# concurrency-touching changes.
#
# Usage: tools/check.sh [--jobs N]

set -eu

jobs=$(nproc 2>/dev/null || echo 2)
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) jobs="$2"; shift 2 ;;
    *) echo "usage: $0 [--jobs N]" >&2; exit 2 ;;
  esac
done

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "==> lint"
tools/lint.sh

cmake -B build-analyze -S . > build-analyze-configure.log 2>&1 || {
  cat build-analyze-configure.log >&2; exit 1
}
rm -f build-analyze-configure.log
cmake --build build-analyze --target ids-analyzer -j "$jobs"
# SARIF and the stats JSON land next to the build so CI can archive them.
tools/analyzer_gate.sh build-analyze/tools/analyzer/ids-analyzer build-analyze

echo "==> trace smoke (ncnpr_workflow --trace/--metrics)"
cmake --build build-analyze --target ncnpr_workflow -j "$jobs"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
build-analyze/examples/ncnpr_workflow \
  --trace "$smoke_dir/trace.json" --metrics "$smoke_dir/metrics.prom" \
  > "$smoke_dir/stdout.log"
[ -s "$smoke_dir/trace.json" ] || { echo "trace smoke: empty trace" >&2; exit 1; }
grep -q '"traceEvents"' "$smoke_dir/trace.json" || {
  echo "trace smoke: no traceEvents in trace.json" >&2; exit 1
}
grep -q '^ids_cache_hits_total{' "$smoke_dir/metrics.prom" || {
  echo "trace smoke: cache metrics missing from exposition" >&2; exit 1
}
grep -q '^ids_udf_exec_seconds_bucket{' "$smoke_dir/metrics.prom" || {
  echo "trace smoke: UDF latency histogram missing from exposition" >&2; exit 1
}
if command -v python3 > /dev/null 2>&1; then
  python3 -m json.tool "$smoke_dir/trace.json" > /dev/null || {
    echo "trace smoke: trace.json is not valid JSON" >&2; exit 1
  }
fi

echo "==> observability smoke (ncnpr_workflow --serve-obs/--profile)"
# Live-plane end-to-end: the workflow serves /metrics, /statusz, /tracez
# and /profilez on an ephemeral port while holding after the run, and the
# smoke script scrapes it over loopback like an operator with curl would.
bash tools/obs_smoke.sh build-analyze/examples/ncnpr_workflow \
  "$smoke_dir/obs"

build_and_test() {  # $1 = build dir, $2 = IDS_SANITIZE value
  echo "==> $2 build ($1)"
  mkdir -p "$1"
  cmake -B "$1" -S . -DIDS_SANITIZE="$2" -DIDS_WERROR=ON > "$1/configure.log"
  cmake --build "$1" -j "$jobs"
  # Two passes: auto-detected SIMD dispatch, then the forced-scalar
  # kernels. Both must be green under the sanitizer — the scalar run is
  # what non-x86 hosts would execute, and divergence between the passes
  # means the determinism contract (DESIGN.md §11) is broken.
  echo "==> $2 ctest (IDS_SIMD_LEVEL=auto)"
  (cd "$1" && ctest --output-on-failure -j "$jobs")
  echo "==> $2 ctest (IDS_SIMD_LEVEL=scalar)"
  (cd "$1" && IDS_SIMD_LEVEL=scalar ctest --output-on-failure -j "$jobs")
}

build_and_test build-tsan thread
build_and_test build-asan address

echo "==> all checks passed"
