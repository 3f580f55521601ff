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
# <workload>.allocs.txt, the tables over the allocations of each rep's
# timed region (symbolise.py's `--phase timed`: the run, and for
# ckpt_cycle each cycle's checkpoint, fresh world and restore, which is
# what allocs_per_sim_s counts; without it, every phase). `samples` is
# then the allocation count over the warm-up rep and the timed reps, and
# the inclusive by-symbol table the share made under each function. It
# also prints symbolise.py's `--sites` table: each allocation by its
# innermost workspace frame (inlined ones included) and that frame's
# workspace caller, each with its file and line, i.e. allocations by call
# site, and last a `timed region` line holding the samples per rep
# against the run's allocs_per_sim_s x sim_s_per_rep. Every allocation
# costs a backtrace, so the run is several times slower; at least the
# warm-up and five timed reps run, whatever --seconds says.
set -euo pipefail

usage() {
    sed -n '2,31p' "${BASH_SOURCE[0]}" >&2
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
((allocs)) && opts=(--phase timed --sites)
python3 "$tools/profile/symbolise.py" "$raw" "${opts[@]}" | tee "$out/$name.txt"
if ((allocs)); then
    # Every rep, the warm-up too, runs the same timed region; the run
    # reports the median rep of the first five, so the two differ by the
    # spread of allocations over the reps' seeds.
    awk 'FNR == NR && /^# cmap-benchmark/ {
             for (i = 1; i <= NF; i++) if (sub(/^sim_s_per_rep=/, "", $i)) per_rep = $i
         }
         FNR == NR && $1 == "allocs_per_sim_s" { rate = $3 }
         FNR == NR && $1 == "timed_reps" { reps = $2 + 1 }
         FNR != NR && $1 == "samples" { n = $2 }
         END {
             printf "\ntimed region: %d allocations over %d reps, %.0f per rep; " \
                 "allocs_per_sim_s x sim_s_per_rep = %.0f (%+.2f %%)\n",
                 n, reps, n / reps, rate * per_rep, 100 * (n / reps / (rate * per_rep) - 1)
         }' "$e2e" "$out/$name.txt" | tee -a "$out/$name.txt"
fi
