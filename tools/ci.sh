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

cmake -B build-ci-analyze -S . > /dev/null
cmake --build build-ci-analyze --target ids-analyzer -j "$jobs"
tools/analyzer_gate.sh build-ci-analyze/tools/analyzer/ids-analyzer \
  build-ci-analyze

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
