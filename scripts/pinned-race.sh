#!/usr/bin/env bash
# Runs a pinned race step: `go test -race -count=COUNT -run PATTERN PKG`,
# after checking that every alternative of PATTERN (split on `|`, matched
# unanchored as -run does) names at least one test that `go test -list`
# finds in PKG. Without the check a renamed or deleted test leaves the
# step passing on zero runs.
#
#   scripts/pinned-race.sh COUNT PATTERN PKG
set -euo pipefail

count=$1 pattern=$2 pkg=$3
listed=$(go test -list "$pattern" "$pkg" | grep -E '^(Test|Fuzz|Example)' || true)
missing=0
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
	if ! grep -qE -- "$alt" <<<"$listed"; then
		echo "pinned pattern $alt matches no test in $pkg"
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
echo "$pkg: $(wc -l <<<"$listed") tests match $pattern"
go test -race -count="$count" -run "$pattern" "$pkg"
