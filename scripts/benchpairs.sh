#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, the check
# ROADMAP item 1 asks of every performance cut:
#
#   scripts/benchpairs.sh <parent-rev> <workload> [pairs=10] [seconds=26]
#
# It exports <parent-rev> into .bench_build/parent-<sha>/ and runs
#
#   bash bench/run.sh --workload <workload> --seed 1 --seconds <seconds> --trace 0
#
# there and in this checkout, <pairs> times: the parent first in odd
# pairs, the change first in even ones. Each pair prints both runs'
# op_norm_p50_ms and peak_rss_mb, the ratio parent/change of
# op_norm_p50_ms (above 1: the change is faster) and whether the two
# runs' fingerprints agree. The summary gives each side's median
# [quartiles] of op_norm_p50_ms, the win count and the median ratio.
# The export is an archive of the commit, not a worktree, so nothing is
# left in .git; it is removed on exit. Nothing is written under bench/.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
	echo "usage: $0 <parent-rev> <workload> [pairs=10] [seconds=26]" >&2
	exit 2
fi
workload=$2 pairs=${3:-10} seconds=${4:-26}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
parent=$root/.bench_build/parent-${sha:0:12}

rm -rf "$parent"
mkdir -p "$parent"
trap 'rm -rf "$parent"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$parent"

# run DIR: one timed run in checkout DIR, printed as
# "<op_norm_p50_ms> <peak_rss_mb> <fingerprint>". The verdict is the
# last line of the report, one JSON object; the fingerprint is a line of
# the report above it.
run() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed 1 --seconds "$seconds" --trace 0) |
		awk '
			$1 == "fingerprint" { fp = $2 }
			{ last = $0 }
			function metric(name,   key, i, s) {
				key = "\"" name "\":{\"value\":"
				i = index(last, key)
				if (i == 0) return "NaN"
				s = substr(last, i + length(key))
				sub(/[,}].*/, "", s)
				return s
			}
			END {
				if (index(last, "\"correct\":true") == 0) {
					print "benchpairs: run failed: " last > "/dev/stderr"
					exit 1
				}
				print metric("op_norm_p50_ms"), metric("peak_rss_mb"), fp
			}'
}

# spread: the median [lower, upper quartile] of the numbers on stdin.
spread() {
	sort -g | awk '
		{ v[NR] = $1 }
		END {
			q = int((NR + 3) / 4)
			m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
			printf "%.3f [%.3f, %.3f]", m, v[q], v[NR + 1 - q]
		}'
}

printf '%-5s %12s %12s %7s %11s %11s %s\n' pair parent_ms change_ms ratio parent_rss change_rss fingerprint
parents=() changes=() ratios=()
wins=0
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		p=$(run "$parent")
		c=$(run "$root")
	else
		c=$(run "$root")
		p=$(run "$parent")
	fi
	read -r pms prss pfp <<<"$p"
	read -r cms crss cfp <<<"$c"
	ratio=$(awk -v p="$pms" -v c="$cms" 'BEGIN { printf "%.3f", p / c }')
	parents+=("$pms") changes+=("$cms") ratios+=("$ratio")
	if awk -v r="$ratio" 'BEGIN { exit !(r > 1) }'; then
		wins=$((wins + 1))
	fi
	same=same
	[[ $pfp == "$cfp" ]] || same="DIFFERENT ($pfp vs $cfp)"
	printf '%-5d %12.1f %12.1f %7s %11.1f %11.1f %s\n' "$i" "$pms" "$cms" "$ratio" "$prss" "$crss" "$same"
done
echo "$workload op_norm_p50_ms, median [quartiles]:" \
	"parent $(printf '%s\n' "${parents[@]}" | spread)," \
	"change $(printf '%s\n' "${changes[@]}" | spread)"
echo "change faster in $wins/$pairs pairs; ratio parent/change $(printf '%s\n' "${ratios[@]}" | spread)"
