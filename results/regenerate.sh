#!/usr/bin/env bash
# Regenerates every committed result. results/ is the paper sweep at the
# scaled tier and results/full/ the paper-scale (10 Gbps) records, each
# written by cmd/reproduce under the strict auditor into a scratch -out
# from which the tables (<job>.txt, <job>.json) and manifest.json are
# kept; the run store and leases stay behind. A fresh -out means every
# run is computed by this build. Runs are deterministic in the seed:
# every table's .json comes back byte-identical, its .txt too except the
# closing "[seed N, wall …]" line.
#
#   results/regenerate.sh       # rewrite results/ and results/full/ in place
#   results/regenerate.sh DIR   # write DIR and DIR/full (CI diffs them against this directory)
#
# About 3 min on two cores: 2 min for the scaled tier, 45 s for results/full/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${1:-$here}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -C "$here/.." -o "$work/reproduce" ./cmd/reproduce
"$work/reproduce" -scale 25 -seed 7 -audit strict -out "$work/scaled"
"$work/reproduce" -scale 1 -seed 7 -audit strict -only '^mathis_core$' -out "$work/full"
mkdir -p "$out/full"
cp "$work"/scaled/*.txt "$work"/scaled/*.json "$out"
cp "$work"/full/*.txt "$work"/full/*.json "$out/full"
