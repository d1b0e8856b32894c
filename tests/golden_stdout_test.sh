#!/usr/bin/env bash
# Runs a bench or example binary and diffs its stdout against a committed
# golden file: the modeled tables it prints must stay byte-identical unless
# a change deliberately moves the model. Regenerate a golden with
#   build/bench/<bench> > tests/golden/<bench>.stdout
#   (build/examples/<example> for an example)
#
# Usage: tests/golden_stdout_test.sh <binary> <golden file>

set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <bench binary> <golden file>" >&2
  exit 2
fi

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT
"$1" > "$actual"
diff -u "$2" "$actual"
