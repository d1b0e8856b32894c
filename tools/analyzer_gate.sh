#!/usr/bin/env bash
# The ids-analyzer gate, shared by tools/check.sh, tools/ci.sh and the CI
# `analyze` job:
#
#   1. the SARIF run over src/, gated on tools/analyzer_baseline.txt;
#   2. baseline drift: regenerating the baseline must reproduce the
#      committed file byte for byte;
#   3. the wall-time budget of the src/ run;
#   4. the concurrent-exec shared-state certificate, which must pass and
#      reproduce tools/concurrency_certificate.json;
#   5. the dogfood self-test (tests/analyzer_selftest.sh).
#
# Usage: tools/analyzer_gate.sh <ids-analyzer binary> <out dir>
# The SARIF report and the stats JSON land in <out dir> as
# ids-analyzer.sarif and ids-analyzer-stats.json, for CI to archive.

set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <ids-analyzer binary> <out dir>" >&2
  exit 2
fi
analyzer="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
mkdir -p "$2"
out="$(cd "$2" && pwd)"
repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"

echo "==> ids-analyzer (src/, SARIF, gated on tools/analyzer_baseline.txt)"
# Findings outside the committed baseline fail the gate.
"$analyzer" --format=sarif --stats \
  --stats-json="$out/ids-analyzer-stats.json" \
  --baseline=tools/analyzer_baseline.txt src \
  > "$out/ids-analyzer.sarif"
# Baseline drift: a fixed finding must also be removed from the baseline,
# so regenerating it has to reproduce the committed file byte-for-byte.
fresh_baseline=$(mktemp)
"$analyzer" --write-baseline="$fresh_baseline" src > /dev/null || true
if ! diff -u tools/analyzer_baseline.txt "$fresh_baseline"; then
  rm -f "$fresh_baseline"
  echo "analyzer gate: tools/analyzer_baseline.txt is stale; regenerate with" >&2
  echo "  $analyzer --write-baseline=tools/analyzer_baseline.txt src" >&2
  exit 1
fi
rm -f "$fresh_baseline"

echo "==> ids-analyzer wall-time budget"
# The summary/spawner fixed points must stay effectively linear in the
# corpus; a superlinear blowup shows up here long before it hurts a
# developer. The budget is ~200x the current wall time on src/.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$out/ids-analyzer-stats.json" <<'EOF'
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
# The certificate must pass (exit 0) AND match the committed inventory, so
# every new or reclassified entry shows up in review.
fresh_cert=$(mktemp)
"$analyzer" --certify=concurrent-exec src > "$fresh_cert"
if ! diff -u tools/concurrency_certificate.json "$fresh_cert"; then
  rm -f "$fresh_cert"
  echo "analyzer gate: tools/concurrency_certificate.json is stale; regenerate with" >&2
  echo "  $analyzer --certify=concurrent-exec src > tools/concurrency_certificate.json" >&2
  exit 1
fi
rm -f "$fresh_cert"

echo "==> ids-analyzer self-test (dogfood + resolution ratio)"
bash tests/analyzer_selftest.sh "$analyzer"
