#!/usr/bin/env bash
# The link census: every function and method declared in a non-test file
# under internal/ must be linked into a product binary, or be listed in
# scripts/reach_allow.txt with the reason it stays.
#
# The five product binaries (dosgid, dosgictl, dosgi-sim, dosgi-load and
# the benchmark driver, built from its own module) are built with
# inlining off (-gcflags=all=-l), so a function that is called keeps its
# own text symbol. Their `go tool nm` text symbols under dosgi/internal/
# are compared with the `^func` lines of the gofmt'd sources. The census
# fails on
#   - an unlinked function with no allowlist entry,
#   - an allowlist entry whose function is linked or no longer declared,
#   - an allowlist entry whose reason is not one of
#       test-seam          a With* option or hook that tests set
#       experiment:<ids>   reached through cmd/cluster-sim or the root benchmarks
#       harness            internal/conformance
#       example:<dir>      reached only by examples/<dir>
#       marker             an interface marker method the linker drops.
#
# Names are package-relative to internal/: `remote.EncodeFrame`,
# `migrate.recordTable.put` (receiver without `*` or type parameters).
# The file also allowlists package-level constants, variables and types
# for the identifier census in options_census_test.go (`pkg.Name`, or
# `cmd/<dir>.Name` under cmd/); such an entry only needs to be declared.
#
#   scripts/reach.sh [DIR]      DIR defaults to the repo this script is in
set -euo pipefail
export LC_ALL=C

cd "${1:-$(dirname "$0")/..}"
root=$(pwd)
allow="$root/scripts/reach_allow.txt"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bin in dosgid dosgictl dosgi-sim dosgi-load; do
	go build -gcflags=all=-l -o "$tmp/$bin" "./cmd/$bin"
done
(cd benchmark && go build -gcflags=all=-l -o "$tmp/benchmark" .)

# Linked: text symbols under dosgi/internal/, normalised to the declared
# form. Generic instantiations print their shape type arguments, which
# contain spaces and nested brackets (`recordTable[go.shape.struct { … }]`),
# so the whole symbol after the type letter is kept and bracket groups are
# stripped innermost first; then the receiver's `(*T)` becomes `T`, and
# closure, go/defer wrapper, method value and numbered init suffixes go.
for bin in dosgid dosgictl dosgi-sim dosgi-load benchmark; do
	go tool nm "$tmp/$bin"
done | sed -nE 's/^ *[0-9a-f]+ [Tt] dosgi\/internal\///p' |
	sed -E ':a; s/\[[^][]*\]//g; ta
		s/\(\*?([^()]*)\)/\1/
		:b; s/(\.(func|gowrap|deferwrap)?[0-9]+|-fm)$//; tb' |
	sort -u >"$tmp/linked"

# Declared: one `name<TAB>file:line<TAB>lines` row per ^func line, with
# the body's length up to its closing `^}`.
find internal -name '*.go' ! -name '*_test.go' | sort | xargs awk '
	function emit(n) { printf "%s\t%s:%d\t%d\n", name, FILENAME, start, n }
	FNR == 1 { pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg); open = 0 }
	open && /^}/ { emit(FNR - start + 1); open = 0 }
	/^func / {
		s = $0; sub(/^func /, "", s)
		if (s ~ /^\(/) {
			recv = substr(s, 2, index(s, ")") - 2); sub(/\[.*/, "", recv)
			k = split(recv, part, / +/); t = part[k]; sub(/^\*/, "", t)
			s = substr(s, index(s, ")") + 1); sub(/^ +/, "", s); s = t "." s
		}
		sub(/[(\[].*/, "", s)
		name = pkg "." s; start = FNR
		if ($0 ~ /}$/) emit(1); else open = 1
	}' | sort -t "$(printf '\t')" -k1,1 >"$tmp/declared"

cut -f1 "$tmp/declared" | sort -u >"$tmp/declared.names"
comm -23 "$tmp/declared.names" "$tmp/linked" >"$tmp/unlinked"

# Package-level constants, variables and types under internal/ and cmd/:
# the root package's identifier census (options_census_test.go) takes its
# allowlist from the same file, so such an entry is not "gone" here.
find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk '
	FNR == 1 { pkg = FILENAME; sub(/^internal\//, "", pkg); sub(/\/[^\/]*$/, "", pkg); block = 0 }
	block && /^\)/ { block = 0; next }
	block && /^\t[A-Za-z_][A-Za-z0-9_]*/ {
		s = substr($0, 2); sub(/[ =\[].*/, "", s); n = split(s, part, /, */)
		for (i = 1; i <= n; i++) print pkg "." part[i]
		next
	}
	/^(const|var|type) \($/ { block = 1; next }
	/^(const|var|type) [A-Za-z_]/ {
		s = $0; sub(/^[a-z]+ /, "", s); sub(/[ =\[].*/, "", s); n = split(s, part, /, */)
		for (i = 1; i <= n; i++) print pkg "." part[i]
	}' | sort -u >"$tmp/idents"

sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" | sort >"$tmp/allow"
cut -d' ' -f1 "$tmp/allow" >"$tmp/allow.names"

fail=0
report() { # $1: heading, $2: file of names; prints the declared location
	if [ -s "$2" ]; then
		echo "$1"
		join -t "$(printf '\t')" "$2" "$tmp/declared" | awk -F '\t' '{ printf "  %s  (%s, %d lines)\n", $1, $2, $3 }'
		join -t "$(printf '\t')" -v 1 "$2" "$tmp/declared.names" | sed 's/^/  /'
		fail=1
	fi
}
comm -23 "$tmp/unlinked" "$tmp/allow.names" >"$tmp/missing"
report "unlinked and not in scripts/reach_allow.txt (delete it, call it, or allow it with a reason):" "$tmp/missing"
comm -12 "$tmp/allow.names" "$tmp/linked" >"$tmp/stale"
report "allowed in scripts/reach_allow.txt but linked (remove the entry):" "$tmp/stale"
sort -u "$tmp/declared.names" "$tmp/idents" | comm -23 "$tmp/allow.names" - >"$tmp/gone"
report "allowed in scripts/reach_allow.txt but not declared (remove the entry):" "$tmp/gone"
if [ "$(uniq -d "$tmp/allow.names" | wc -l)" -ne 0 ]; then
	echo "listed twice in scripts/reach_allow.txt:"; uniq -d "$tmp/allow.names" | sed 's/^/  /'; fail=1
fi
if grep -vE '^[^ ]+ (test-seam|experiment:[A-Z][0-9]+(,[A-Z][0-9]+)*|harness|example:[a-z0-9_-]+|marker)$' "$tmp/allow" >"$tmp/badreason"; then
	echo "entries in scripts/reach_allow.txt without a reason from the fixed set:"; sed 's/^/  /' "$tmp/badreason"; fail=1
fi

lines=$(join -t "$(printf '\t')" "$tmp/unlinked" "$tmp/declared" | awk -F '\t' '{ n += $3 } END { print n + 0 }')
echo "reach: $(wc -l <"$tmp/declared.names") functions declared, $(wc -l <"$tmp/unlinked") unlinked ($lines lines), $(wc -l <"$tmp/allow.names") allowed"
exit "$fail"
