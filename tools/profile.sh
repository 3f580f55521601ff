#!/usr/bin/env bash
# Where the benchmark binary's CPU time (or, with --allocs, its heap
# allocations) goes, by layer, source file and symbol, without perf:
# build tools/profile/sampler.c (allocs.c), run one untraced workload of
# the release benchmark binary under it, symbolise the samples.
#   usage: tools/profile.sh <workload> [--stacks | --allocs] [--seconds S] [--seed N] [--out DIR]
# --stacks records call stacks (inclusive shares, and a by-phase table:
# set-up, run, checkpoint, restore, untimed reference runs) instead of
# the interrupted PC alone. Writes <workload>.profile.txt (the tables,
# also printed) and <workload>.profile.raw beside results.json in DIR
# (default benchmark/out). The binary is built with line tables, in
# <target dir>/profile, for the by-source-file table. Needs a C compiler;
# without one it says so and exits 0. Where inside one hot file the
# samples land, line by line, is the same dump again:
#   python3 tools/profile/symbolise.py DIR/<workload>.profile.raw --lines sim/src/radio.rs
# --allocs counts heap allocations instead of CPU time: it preloads
# tools/profile/allocs.c, which records the call stack of every malloc,
# calloc and realloc as one sample, and writes <workload>.allocs.raw and
# <workload>.allocs.txt, the tables over the timed run's allocations
# (symbolise.py's `--phase World::run_until`, what allocs_per_sim_s
# counts; without it, every phase). `samples` is then the allocation
# count and the inclusive by-symbol table the share made under each
# function. It also prints symbolise.py's `--sites` table: each
# allocation by its innermost workspace frame (inlined ones included)
# and that frame's workspace caller, each with its file and line, i.e.
# allocations by call site. Every allocation costs a
# backtrace, so the run is several times slower; at least the five
# timed reps (and one untimed) run, whatever --seconds says.
set -euo pipefail

usage() {
    sed -n '2,28p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

workload=""
allocs=0
stacks=0
seconds=""
seed=1
out=""
while (($#)); do
    case "$1" in
        --stacks) stacks=1; shift ;;
        --allocs) allocs=1; shift ;;
        --seconds) seconds="${2:?}"; shift 2 ;;
        --seed) seed="${2:?}"; shift 2 ;;
        --out) out="${2:?}"; shift 2 ;;
        -*) usage ;;
        *) [[ -z "$workload" ]] || usage; workload="$1"; shift ;;
    esac
done
[[ -n "$workload" ]] || usage

tools="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if ! command -v cc > /dev/null; then
    echo "tools/profile.sh: no C compiler (cc) here; skipping the profile"
    exit 0
fi
# The by-file table needs line tables, which make a different binary: it
# is built in a target directory of its own, beside the one run.sh uses.
export CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$tools/../target/benchmark}/profile"
# shellcheck source=../benchmark/env.sh
source "$tools/../benchmark/env.sh"
out="${out:-$here/out}"
mkdir -p "$out"

if ((allocs)); then
    ((stacks == 0)) || usage
    kind=allocs
else
    kind=sampler
fi
preload="$CARGO_TARGET_DIR/libcmap_$kind.so"
cc -O2 -shared -fPIC -o "$preload" "$tools/profile/$kind.c"

args=(--workload "$workload" --seed "$seed" --trace 0 --out "$out")
[[ -n "$seconds" ]] && args+=(--seconds "$seconds")
name="$workload.profile" e2e="$out/$workload.profiled.e2e.txt"
if ((allocs)); then
    name="$workload.allocs" e2e="$out/$workload.allocs.e2e.txt"
fi
raw="$out/$name.raw"
CMAP_PROFILE_OUT="$raw" CMAP_PROFILE_STACKS="$stacks" LD_PRELOAD="$preload" \
    "$bin" "${args[@]}" > "$e2e"
tail -n 1 "$e2e"
opts=()
((allocs)) && opts=(--phase World::run_until --sites)
python3 "$tools/profile/symbolise.py" "$raw" "${opts[@]}" | tee "$out/$name.txt"
