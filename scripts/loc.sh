#!/usr/bin/env bash
# The size numbers ROADMAP's "Net state" paragraph and the simplicity
# issues quote: Go lines under the root module (benchmark/ is its own
# module and .bench_build/ holds unpacked parents, so neither counts),
# split into non-test and test, the count of With* option functions, the
# count of exported fields of the non-test `type *Config struct`
# declarations (with the With* count, every independently settable value),
# and the ten largest non-test files. Run from anywhere inside the repo; nothing
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
# Exported field names at the top level of each *Config struct: a line
# `\tName, Other Type` counts its exported names; comments and nested
# struct bodies do not count.
config_fields() {
	files '*.go' '*_test.go' | xargs -0 awk '
		/^type [A-Za-z0-9_]*Config struct \{/ { depth = 1; next }
		depth > 0 {
			line = $0
			sub(/\/\/.*/, "", line)
			if (depth == 1 && match(line, /^\t[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)*[ \t]/)) {
				k = split(substr(line, 2, RLENGTH - 2), names, /, */)
				for (i = 1; i <= k; i++) if (names[i] ~ /^[A-Z]/) n++
			}
			depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
		}
		END { print n + 0 }'
}
echo "exported *Config fields: $(config_fields)"
echo "largest non-test files:"
files '*.go' '*_test.go' | xargs -0 wc -l | grep -v ' total$' | sort -rn | sed -n 1,10p
