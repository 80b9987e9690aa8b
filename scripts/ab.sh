#!/usr/bin/env bash
# A/B procedure of the repo benchmark (benchmark/README.md, "judging a
# change"): alternating parent/change pairs of ONE workload, each side run
# by its own benchmark/run.sh, then per end-to-end metric both medians, the
# parent's quartile distance, pairs won and a verdict.
#
#   scripts/ab.sh BASE WORKLOAD PAIRS [SECONDS] [FIRST_SEED]
#
# BASE is any commit-ish; its committed files are unpacked (git archive)
# into .bench_build/ab-base — what the driver measures the parent on — and
# the change is this working tree. Pair i runs both sides with seed
# FIRST_SEED+i-1 (default 1..PAIRS); odd pairs run the parent first, even
# pairs the change. SECONDS defaults to BENCHMARK.json's run_seconds.
# Every run's JSON line is kept in .bench_build/ab-<workload>.{base,change}.jsonl.
#
# Verdicts, per metric (bound and direction from BENCHMARK.json):
#   better      change wins >= 9/10 of the pairs (ties count for neither)
#               and the medians differ by more than the parent's quartile
#               distance
#   worse       change median worse than the parent's by more than the bound
#   unresolved  neither, and the parent's own spread (quartile distance over
#               median) exceeds the bound, so "no worse" cannot be shown —
#               unless every change run beats every parent run
#   within      neither, and the parent's spread is inside the bound
# Do not run anything else on the machine meanwhile.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
	echo "usage: scripts/ab.sh BASE WORKLOAD PAIRS [SECONDS] [FIRST_SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seconds=${4:-$(jq -r .run_seconds "$root/BENCHMARK.json")}
seed0=${5:-1}
out="$root/.bench_build"
basedir="$out/ab-base"

rev=$(git -C "$root" rev-parse --verify "$base^{commit}")
rm -rf "$basedir"
mkdir -p "$basedir"
git -C "$root" archive "$rev" | tar -x -C "$basedir"

# run SIDE DIR SEED: one benchmark invocation; the last stdout line is the JSON.
run() {
	local line
	line=$(bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
	echo "$line" | jq -e .metrics >/dev/null || { echo "ab: $1 run printed no metrics: $line" >&2; exit 1; }
	echo "$line" >>"$out/ab-$workload.$1.jsonl"
	echo "$line" | jq -r --arg side "$1" --arg seed "$3" \
		'"# \($side) seed \($seed): failed \(.failed)/\(.attempted) " + ([.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" "))'
}

: >"$out/ab-$workload.base.jsonl"
: >"$out/ab-$workload.change.jsonl"
echo "# ab: $workload, $pairs pairs x ${seconds}s, base $(git -C "$root" rev-parse --short "$rev") vs working tree, seeds $seed0..$((seed0 + pairs - 1))"
for ((i = 0; i < pairs; i++)); do
	seed=$((seed0 + i))
	if ((i % 2 == 0)); then
		run base "$basedir" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run base "$basedir" "$seed"
	fi
done

jq -rn --slurpfile spec "$root/BENCHMARK.json" \
	--slurpfile base "$out/ab-$workload.base.jsonl" \
	--slurpfile change "$out/ab-$workload.change.jsonl" '
	def quantile(q): sort as $s | ((($s | length) - 1) * q) as $p | ($p | floor) as $i
		| $s[$i] + (($s[$i + 1] // $s[$i]) - $s[$i]) * ($p - $i);
	def r: if . >= 100 then (. * 10 | round) / 10 else (. * 10000 | round) / 10000 end;
	def pct(of): "\((. / of * 1000 | round) / 10)%";
	def row: [.[0] + " " * ([18 - (.[0] | length), 1] | max)]
		+ (.[1:] | map(tostring | . + " " * ([18 - length, 1] | max))) | join("");
	"failed ops: base \($base | map(.failed) | add)/\($base | map(.attempted) | add), change \($change | map(.failed) | add)/\($change | map(.attempted) | add)",
	(["metric", "base_median", "change_median", "delta", "base_q1..q3", "base_spread", "pairs_won", "verdict"] | row),
	($spec[0].end_to_end[] | . as $m
		| ($base | map(.metrics[$m.name].value)) as $b
		| ($change | map(.metrics[$m.name].value)) as $c
		| (if $m.better == "higher" then 1 else -1 end) as $dir
		| ($b | quantile(0.5)) as $bm | ($c | quantile(0.5)) as $cm
		| (($b | quantile(0.75)) - ($b | quantile(0.25))) as $iqr
		| ([range(0; $b | length) | select(($c[.] - $b[.]) * $dir > 0)] | length) as $won
		| ([range(0; $b | length) | select(($c[.] - $b[.]) * $dir < 0)] | length) as $lost
		| (($cm - $bm) * $dir) as $gain
		| (if $dir > 0 then ($c | min) > ($b | max) else ($c | max) < ($b | min) end) as $clean
		| (if $won * 10 >= ($b | length) * 9 and $gain > $iqr then "better"
			elif -$gain > $m.bound * $bm then "worse"
			elif $iqr > $m.bound * $bm and ($clean | not) then "unresolved"
			else "within" end) as $verdict
		| [$m.name, ($bm | r), ($cm | r), ($cm - $bm | pct($bm)),
			"\($b | quantile(0.25) | r)..\($b | quantile(0.75) | r)", ($iqr | pct($bm)),
			"\($won)/\($b | length) (lost \($lost))", $verdict] | row)
'
