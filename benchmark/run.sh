#!/usr/bin/env bash
# The one command: build the benchmark, run every requested workload in a
# fresh process (untraced, for the end-to-end metrics), then each again
# traced (for the per-layer ledger), print every metric by name with its
# unit, and leave <workload>.e2e.txt, <workload>.layers.txt,
# <workload>.trace.jsonl and results.json in the output directory.
# Exits non-zero if any operation failed.
set -euo pipefail

usage() {
    echo "usage: benchmark/run.sh [--seed N] [--seconds S] [--out DIR] [--untraced-only] [workload...]" >&2
    exit 2
}

seed=1
seconds=""
out=""
traced=1
workloads=()
while (($#)); do
    case "$1" in
        --seed) seed="${2:?}"; shift 2 ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --out) out="${2:?}"; shift 2 ;;
        --untraced-only) traced=0; shift ;;
        -*) usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done

source "$(dirname "${BASH_SOURCE[0]}")/env.sh"
out="${out:-$here/out}"
mkdir -p "$out"
if ((${#workloads[@]} == 0)); then
    mapfile -t workloads < <("$bin" --list)
fi

files=()
runs="" # results.json entries: the result line of every run, tagged
run() { # workload trace file
    local args=(--workload "$1" --seed "$seed" --trace "$2" --out "$out")
    [[ -n "$seconds" ]] && args+=(--seconds "$seconds")
    "$bin" "${args[@]}" | tee "$3"
    echo
    files+=("$3")
    runs+="${runs:+,}"$'\n'"{\"workload\":\"$1\",\"trace\":$2,\"result\":$(tail -n 1 "$3")}"
}

for w in "${workloads[@]}"; do
    run "$w" 0 "$out/$w.e2e.txt"
done
if ((traced)); then
    for w in "${workloads[@]}"; do
        run "$w" 1 "$out/$w.layers.txt"
    done
fi
printf '{"seed":%s,"nproc":%s,"runs":[%s\n]}\n' "$seed" "$(nproc)" "$runs" > "$out/results.json"

failed=$(awk '$1 == "failed_ops" { n += $2 } END { print n + 0 }' "${files[@]}")
echo "results: $out/results.json   failed_ops: $failed"
((failed == 0))
