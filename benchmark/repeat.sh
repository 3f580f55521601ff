#!/usr/bin/env bash
# Two full sets of runs of the same commit and seed, back to back, then
# every end-to-end metric of set B checked against set A with the bounds
# declared in BENCHMARK.json; allocs_per_sim_s, goodput_mbps and
# stats_digest must agree exactly. Arguments are passed to run.sh.
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/env.sh"

"$here/run.sh" --out "$here/out/A" "$@"
"$here/run.sh" --out "$here/out/B" "$@"
"$bin" --compare "$here/out/A" "$here/out/B"
