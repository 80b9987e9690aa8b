#!/usr/bin/env bash
# The size numbers ROADMAP's "Net state" paragraph and the simplicity
# issues quote: Go lines under the root module (benchmark/ is its own
# module and .bench_build/ holds unpacked parents, so neither counts),
# split into non-test and test, the count of With* option functions, and the
# ten largest non-test files. Run from anywhere inside the repo; nothing
# gates on the output.
#
#   scripts/loc.sh [DIR]      DIR defaults to the repo this script is in
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

files() { # $1: -name pattern that must match, $2: -name pattern that must not
	find . -name '*.go' -name "$1" ! -name "$2" \
		! -path './benchmark/*' ! -path './.bench_build/*' -print0
}
count() { files "$1" "$2" | xargs -0 cat | wc -l; }

echo "non-test Go lines: $(count '*.go' '*_test.go')"
echo "test Go lines:     $(count '*_test.go' '')"
echo "With* option funcs: $(files '*.go' '' | xargs -0 cat | grep -c '^func[[:space:]]With' || true)"
echo "largest non-test files:"
files '*.go' '*_test.go' | xargs -0 wc -l | grep -v ' total$' | sort -rn | sed -n 1,10p
