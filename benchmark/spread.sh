#!/usr/bin/env bash
# Run-to-run steadiness, as the benchmark contract measures it: ten
# untraced sets, each with another seed, then per workload and end-to-end
# metric the distance between the first and third quartile as a share of
# the median, beside the metric's bound. Exits non-zero unless every
# spread (setup_s aside) is below a third of its bound.
#   usage: benchmark/spread.sh [first seed, default 1] [workload...]
set -euo pipefail
source "$(dirname "${BASH_SOURCE[0]}")/env.sh"

first="${1:-1}"
shift || true
dirs=()
for ((seed = first; seed < first + 10; seed++)); do
    dirs+=("$here/out/spread/seed$seed")
    "$here/run.sh" --seed "$seed" --out "${dirs[-1]}" --untraced-only "$@" > /dev/null || {
        echo "seed $seed: run.sh failed, see ${dirs[-1]}" >&2
        exit 1
    }
    echo "seed $seed done" >&2
done
"$bin" --spread "${dirs[@]}"
