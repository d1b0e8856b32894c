#!/usr/bin/env bash
# CI entry point: the {Release, ASan+UBSan, TSan} × {build, ctest} matrix
# plus the custom lint pass, the ids-analyzer static checks and the
# end-to-end benchmark self-test. Mirrors .github/workflows/ci.yml for
# environments where GitHub Actions is unavailable.

set -eu

jobs=$(nproc 2>/dev/null || echo 2)
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "==> lint"
tools/lint.sh

echo "==> ids-analyzer (src/, SARIF, gated on tools/analyzer_baseline.txt)"
cmake -B build-ci-analyze -S . > /dev/null
cmake --build build-ci-analyze --target ids-analyzer -j "$jobs"
analyzer=build-ci-analyze/tools/analyzer/ids-analyzer
"$analyzer" --format=sarif --stats \
  --stats-json=build-ci-analyze/ids-analyzer-stats.json \
  --baseline=tools/analyzer_baseline.txt src \
  > build-ci-analyze/ids-analyzer.sarif
fresh_baseline=$(mktemp)
"$analyzer" --write-baseline="$fresh_baseline" src > /dev/null || true
if ! diff -u tools/analyzer_baseline.txt "$fresh_baseline"; then
  rm -f "$fresh_baseline"
  echo "ci: tools/analyzer_baseline.txt is stale; regenerate with" >&2
  echo "  $analyzer --write-baseline=tools/analyzer_baseline.txt src" >&2
  exit 1
fi
rm -f "$fresh_baseline"

echo "==> ids-analyzer wall-time budget"
if command -v python3 > /dev/null 2>&1; then
  python3 - build-ci-analyze/ids-analyzer-stats.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
total = doc["phase_seconds"]["total"]
budget = 20.0
assert total <= budget, \
    "analyzer spent %.3fs on src/ (budget %.0fs)" % (total, budget)
print("analyzer wall time %.3fs (budget %.0fs)" % (total, budget))
EOF
fi

echo "==> ids-analyzer certify (concurrent-exec shared-state certificate)"
fresh_cert=$(mktemp)
"$analyzer" --certify=concurrent-exec src > "$fresh_cert"
if ! diff -u tools/concurrency_certificate.json "$fresh_cert"; then
  rm -f "$fresh_cert"
  echo "ci: tools/concurrency_certificate.json is stale; regenerate with" >&2
  echo "  $analyzer --certify=concurrent-exec src > tools/concurrency_certificate.json" >&2
  exit 1
fi
rm -f "$fresh_cert"

echo "==> ids-analyzer self-test (dogfood + resolution ratio)"
bash tests/analyzer_selftest.sh "$analyzer"

run_config() {  # $1 = build dir, $2... = extra cmake args
  local dir="$1"
  shift
  echo "==> configure $dir ($*)"
  cmake -B "$dir" -S . -DIDS_WERROR=ON "$@"
  echo "==> build $dir"
  cmake --build "$dir" -j "$jobs"
  echo "==> ctest $dir"
  (cd "$dir" && ctest --output-on-failure -j "$jobs")
}

run_config build-ci-release -DCMAKE_BUILD_TYPE=Release

echo "==> observability smoke (live /metrics scrape + flamegraph export)"
cmake --build build-ci-release --target ncnpr_workflow -j "$jobs"
bash tools/obs_smoke.sh build-ci-release/examples/ncnpr_workflow

run_config build-ci-asan -DIDS_SANITIZE=address
run_config build-ci-tsan -DIDS_SANITIZE=thread

echo "==> perfbench self-test (Release build + seed-1 reference answers)"
python3 perfbench/run.py --self-test

echo "==> CI matrix green"
