#!/usr/bin/env bash
# Regenerates every recorded table of this directory: one ccatscale
# command per non-empty results/*.txt (record.log's fifteen, plus churn).
# Runs are deterministic in the seed, so each file comes back
# byte-identical except its closing "[setting, seed N, wall …]" line.
#
#   results/regenerate.sh          # rewrite the files in place
#   results/regenerate.sh DIR      # write them into DIR (CI diffs DIR
#                                  # against this directory)
#
# About 80 s on two cores.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${1:-$here}
mkdir -p "$out"
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -C "$here/.." -o "$bin/ccatscale" ./cmd/ccatscale

gen() { # output file, then the ccatscale arguments
	local file=$1
	shift
	echo "+ ccatscale $* > $file" >&2
	"$bin/ccatscale" "$@" > "$out/$file"
}

gen table1_edge.txt      table1 -edge -seed 7
gen fig2_edge.txt        fig2 -edge -seed 7
gen fig3_edge.txt        fig3 -edge -seed 7
gen burstiness_edge.txt  burstiness -edge -seed 7
gen table1_core.txt      table1 -scale 25 -seed 7
gen fig2_core.txt        fig2 -scale 25 -seed 7
gen fig3_core.txt        fig3 -scale 25 -seed 7
gen burstiness_core.txt  burstiness -scale 25 -seed 7
gen intra_reno_core.txt  intra -cca reno -scale 25 -rtt 20ms -duration 120s -seed 7
gen intra_cubic_core.txt intra -cca cubic -scale 25 -rtt 20ms -duration 120s -seed 7
gen fig4_edge.txt        fig4 -edge -seed 7
gen fig4_core.txt        fig4 -scale 25 -seed 7 -duration 90s
gen fig5_core.txt        fig5 -scale 25 -seed 7
gen fig6_core.txt        fig6 -scale 25 -seed 7 -duration 120s
gen fig7_core.txt        fig7 -scale 25 -seed 7 -duration 120s
gen ext_churn_core.txt   churn -scale 25 -seed 7
