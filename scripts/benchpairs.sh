#!/usr/bin/env bash
# Alternating parent/change pairs of one workload, the check ROADMAP
# item 1 asks of every performance cut, printed and kept as a record:
#
#   scripts/benchpairs.sh [-o record.json] <parent-rev> <workload|scenario.json> [pairs=10] [seconds=26] [seed=1]
#
# It exports <parent-rev> into .bench_build/parent-<sha>/ and times the
# workload there and in this checkout, <pairs> times: the parent first
# in odd pairs, the change first in even ones.
#
# A workload named in BENCHMARK.json runs as
#
#   bash bench/run.sh --workload <workload> --seed <seed> --seconds <seconds> --trace 0
#
# and is compared on op_norm_p50_ms; a pair is "same" when both runs'
# fingerprints agree. A scenario document (a path ending in .json) is
# run by each side's own `reproduce -scenario <doc>` into a fresh -out
# and compared on its wall time; a pair is "same" when the sha256 of
# the two .json tables agree. A document carries its own seed, so
# <seed> and <seconds> apply to benchmark workloads only.
#
# Each pair prints both runs' metric, the ratio parent/change (above 1:
# the change is faster), the second column (peak_rss_mb; events for a
# document) and whether the pair is the same. The summary gives each
# side's median [quartiles], the win count and the median ratio, then
# each side's median [quartiles] of the second column and the number of
# pairs where the change's is lower. The same numbers — every pair (a
# benchmark run with its setup_s and work_norm_per_s too), both sides'
# quartiles of both columns, the host
# (nproc, CPU model), `go version` and both revisions — are appended as
# one element of "pairSets" to the record (default
# .bench_build/benchpairs.json; a new file is created, an existing one
# must end with that array, as this script writes it).
#
# The export is an archive of the commit, not a worktree, so nothing is
# left in .git; it is removed on exit. Nothing is written under bench/.
set -euo pipefail

usage() {
	echo "usage: $0 [-o record.json] <parent-rev> <workload|scenario.json> [pairs=10] [seconds=26] [seed=1]" >&2
	exit 2
}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
record=$root/.bench_build/benchpairs.json
while getopts o: opt; do
	case $opt in
	o) record=$(realpath -m "$OPTARG") ;;
	*) usage ;;
	esac
done
shift $((OPTIND - 1))
[[ $# -ge 2 && $# -le 5 ]] || usage
workload=$2 pairs=${3:-10} seconds=${4:-26} seed=${5:-1}
for n in "$pairs" "$seconds" "$seed"; do
	[[ $n =~ ^[0-9]+$ ]] || usage
done
((pairs > 0)) || usage

# The workload is a scenario document, or one of BENCHMARK.json's.
if [[ $workload == *.json ]]; then
	[[ -f $workload ]] || usage
	scenario=$(realpath "$workload")
else
	scenario=
	awk '/"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
		on && /"name":/ { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json" |
		grep -qxF -- "$workload" || usage
fi

sha=$(git -C "$root" rev-parse --verify "$1^{commit}")
head=$(git -C "$root" rev-parse HEAD)
[[ -z $(git -C "$root" status --porcelain --untracked-files=no) ]] || head=$head+dirty
parent=$root/.bench_build/parent-${sha:0:12}

rm -rf "$parent"
mkdir -p "$parent"
trap 'rm -rf "$parent" "$root/.bench_build/scenario-out"' EXIT
git -C "$root" archive "$sha" | tar -x -C "$parent"

# bench DIR: one timed benchmark run in checkout DIR, printed as
# "<op_norm_p50_ms> <peak_rss_mb> <fingerprint> <side JSON>"; the side
# JSON holds all four end-to-end metrics. The verdict is the last line
# of the report, one JSON object; the fingerprint is a line of the
# report above it.
bench() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) |
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
				ms = metric("op_norm_p50_ms"); rss = metric("peak_rss_mb")
				printf "%s %s %s {\"op_norm_p50_ms\": %s, \"peak_rss_mb\": %s, \"setup_s\": %s, \"work_norm_per_s\": %s, \"fingerprint\": \"%s\"}\n",
					ms, rss, fp, ms, rss, metric("setup_s"), metric("work_norm_per_s"), fp
			}'
}

# scenario DIR: one run of the scenario document by checkout DIR's
# reproduce, printed as "<wall_ms> <events> <table sha256> <side JSON>".
# The build goes where bench/run.sh keeps its own, and is not timed.
scenario() {
	local build=$1/.bench_build out=$root/.bench_build/scenario-out t0 t1
	(cd "$1" && GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off go build -o "$build/reproduce" ./cmd/reproduce)
	rm -rf "$out"
	t0=$(date +%s%N)
	"$build/reproduce" -scenario "$scenario" -out "$out" >/dev/null
	t1=$(date +%s%N)
	local table events hash
	table=$(ls "$out"/*.json | grep -v '/manifest\.json$')
	events=$(grep -o '"events": [0-9]*' "$out/manifest.json" | awk '{ print $2 }')
	hash=$(sha256sum "$table" | awk '{ print $1 }')
	rm -rf "$out"
	awk -v ns=$((t1 - t0)) -v ev="$events" -v h="$hash" 'BEGIN {
		ms = ns / 1e6
		printf "%.1f %s %s {\"wall_ms\": %.1f, \"events\": %s, \"table_sha256\": \"%s\"}\n", ms, ev, h, ms, ev, h
	}'
}

run() {
	if [[ -n $scenario ]]; then scenario "$1"; else bench "$1"; fi
}

# quartiles: "<median> <lower quartile> <upper quartile>" of the numbers
# on stdin.
quartiles() {
	sort -g | awk '
		{ v[NR] = $1 }
		END {
			q = int((NR + 3) / 4)
			m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
			printf "%.3f %.3f %.3f\n", m, v[q], v[NR + 1 - q]
		}'
}

if [[ -n $scenario ]]; then
	metric=wall_ms extra=events ident="table sha256"
else
	metric=op_norm_p50_ms extra=peak_rss_mb ident=fingerprint
fi
printf '%-5s %12s %12s %7s %14s %14s %s\n' pair "parent_ms" "change_ms" ratio "parent_$extra" "change_$extra" "$ident"
parents=() changes=() ratios=() rows=() pextras=() cextras=()
wins=0 lower=0
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		p=$(run "$parent")
		c=$(run "$root")
		first=parent
	else
		c=$(run "$root")
		p=$(run "$parent")
		first=change
	fi
	read -r pms pextra pid pjson <<<"$p"
	read -r cms cextra cid cjson <<<"$c"
	ratio=$(awk -v p="$pms" -v c="$cms" 'BEGIN { printf "%.3f", p / c }')
	parents+=("$pms") changes+=("$cms") ratios+=("$ratio")
	pextras+=("$pextra") cextras+=("$cextra")
	if awk -v r="$ratio" 'BEGIN { exit !(r > 1) }'; then
		wins=$((wins + 1))
	fi
	if awk -v p="$pextra" -v c="$cextra" 'BEGIN { exit !(c < p) }'; then
		lower=$((lower + 1))
	fi
	same=true label=same
	[[ $pid == "$cid" ]] || same=false label="DIFFERENT ($pid vs $cid)"
	printf '%-5d %12.1f %12.1f %7s %14s %14s %s\n' "$i" "$pms" "$cms" "$ratio" "$pextra" "$cextra" "$label"
	rows+=("        {\"pair\": $i, \"first\": \"$first\", \"parent\": $pjson, \"change\": $cjson, \"ratio\": $ratio, \"same\": $same}")
done
read -r pm pq1 pq3 < <(printf '%s\n' "${parents[@]}" | quartiles)
read -r cm cq1 cq3 < <(printf '%s\n' "${changes[@]}" | quartiles)
read -r rm rq1 rq3 < <(printf '%s\n' "${ratios[@]}" | quartiles)
read -r pxm pxq1 pxq3 < <(printf '%s\n' "${pextras[@]}" | quartiles)
read -r cxm cxq1 cxq3 < <(printf '%s\n' "${cextras[@]}" | quartiles)
echo "$workload $metric, median [quartiles]: parent $pm [$pq1, $pq3], change $cm [$cq1, $cq3]"
echo "change faster in $wins/$pairs pairs; ratio parent/change $rm [$rq1, $rq3]"
echo "$workload $extra, median [quartiles]: parent $pxm [$pxq1, $pxq3], change $cxm [$cxq1, $cxq3]"
echo "change lower in $lower/$pairs pairs"

# The pair set as one JSON object, appended to the record.
cpu=$(awk -F': ' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
if [[ -n $scenario ]]; then
	what="\"scenario\": \"$(realpath --relative-to="$root" "$scenario")\", \"seed\": null, \"seconds\": null"
else
	what="\"workload\": \"$workload\", \"seed\": $seed, \"seconds\": $seconds"
fi
set_json=$(
	printf '    {\n'
	printf '      %s, "metric": "%s",\n' "$what" "$metric"
	printf '      "parentRev": "%s", "changeRev": "%s",\n' "$sha" "$head"
	printf '      "host": {"nproc": %s, "cpu": "%s", "go": "%s"},\n' "$(nproc)" "${cpu:-unknown}" "$(go version)"
	printf '      "capturedAt": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '      "pairs": [\n'
	for ((i = 0; i < ${#rows[@]}; i++)); do
		sep=,
		((i + 1 < ${#rows[@]})) || sep=
		printf '%s%s\n' "${rows[i]}" "$sep"
	done
	printf '      ],\n'
	printf '      "parent": {"median": %s, "q1": %s, "q3": %s},\n' "$pm" "$pq1" "$pq3"
	printf '      "change": {"median": %s, "q1": %s, "q3": %s},\n' "$cm" "$cq1" "$cq3"
	printf '      "ratio": {"median": %s, "q1": %s, "q3": %s},\n' "$rm" "$rq1" "$rq3"
	printf '      "changeWins": %s,\n' "$wins"
	printf '      "%s": {"parent": {"median": %s, "q1": %s, "q3": %s}, "change": {"median": %s, "q1": %s, "q3": %s}, "changeLower": %s}\n' \
		"$extra" "$pxm" "$pxq1" "$pxq3" "$cxm" "$cxq1" "$cxq3" "$lower"
	printf '    }'
)
mkdir -p "$(dirname "$record")"
if [[ ! -s $record ]]; then
	printf '{\n  "pairSets": [\n%s\n  ]\n}\n' "$set_json" >"$record"
elif [[ $(tail -n 2 "$record") == $'  ]\n}' ]]; then
	{
		head -n -2 "$record" | sed '$ {/\[$/! s/$/,/}'
		printf '%s\n  ]\n}\n' "$set_json"
	} >"$record.tmp"
	mv "$record.tmp" "$record"
else
	echo "benchpairs: $record does not end with the pairSets array; pair set not recorded" >&2
	exit 1
fi
echo "pair set appended to $record"
