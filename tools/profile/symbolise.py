#!/usr/bin/env python3
"""Turn a tools/profile/sampler.c dump into share tables.

Usage: symbolise.py <raw dump> [--top N] [--lines <source file>] [--phase <row>] [--sites]

Prints, from the `map` lines (the process's /proc/self/maps) and the
`sample` lines (one PC, or one stack leaf first, per SIGPROF tick):

* self share by symbol, and with stacks the inclusive share beside it
  (a symbol counts once per sample it appears anywhere in);
* the same by layer: `cmap_sim::<module>` for the engine, the crate name
  for every other workspace crate, `libm` / `libc` by shared object,
  `std` for the Rust runtime, and — inclusive only, since it is a phase
  rather than a place — `set-up`, every sample taken under
  `cmap_benchmark::workload` (scenario and world construction);
* with stacks, the share by phase of the benchmark run: each sample goes
  to one row of `PHASES` — the untimed reference runs of a checkpointed
  workload, a rep's own set-up, and the four rows of its timed region (a
  checkpoint, a restore, the run, and the fresh world each checkpoint
  cycle builds), told apart by the line `run_rep` calls out from — else
  to `other`, and a `timed region` line sums the four;
* self share by source file: each sample goes to the file of its
  innermost inlined frame (`addr2line -i`), so code inlined into its
  caller (the queue into `World::run_until`) still counts as its own;
  std's inlined code (a heap's sift, `ptr` moves, `cmp`) counts for the
  frame that called it, and a std function compiled on its own (a sift
  that was not inlined) for its own file. It needs line tables in the
  binary; a file without them is one `[<file name>]` row;
* with `--lines`, the same self shares by line of one source file (named
  as the by-file table names it, e.g. `sim/src/radio.rs`), with the
  line's text: where inside a hot file the samples land;
* with `--phase`, every table over only the samples of one row of the
  by-phase table (e.g. `World::run_until`), or with `--phase timed` of
  the timed region, `samples` then counting those: on an allocation
  dump, what `allocs_per_sim_s` counts (the warm-up rep included);
* with `--sites` and stacks, the share by call site: each sample goes to
  its innermost workspace frame (inlined frames included, the global
  allocator's skipped) and that frame's nearest workspace caller, each
  with its `file:line` (`addr2line -f -i`). On an allocation dump this
  says which line of the workspace allocates, and from where, e.g. a
  `Vec::push` growing inside one helper called from the MAC's receive
  path. addr2line does not name the innermost frame of an inlined chain;
  the table shows it as `inlined in <the function it sits in>`.

Identical stacks are counted once and weighted, so a dump of a million
allocation stacks (tools/profile/allocs.c) reads in seconds.

Symbols come from `nm -C` on each mapped file (`nm -D` as well, for the
stripped system libraries). Standard library only.
"""
import bisect
import collections
import re
import struct
import subprocess
import sys


# The rows of the by-phase table, first match wins. A sample under
# `reference_digest` is untimed whatever it runs inside. Any other sample
# under `run_rep` is timed when `run_rep` called out from between its two
# reads of the allocation counter — the region `sim_rate` and
# `allocs_per_sim_s` measure: the run, and for a checkpointed workload
# each cycle's checkpoint, fresh world and restore — and is the rep's own
# set-up before that region.
TIMED = ("World::checkpoint", "World::restore", "World::run_until",
         "run::cycle's fresh world")
PHASES = ("reference_digest (untimed)", "set-up (untimed)") + TIMED + ("other",)


def phase_of(symbols, timed):
    """The row of `PHASES` a sample whose stack holds `symbols` counts for.
    `timed` says whether its `run_rep` frame lies in the timed region;
    None (no such frame, or no line table to tell) falls back to symbols:
    set-up is then everything under `cmap_benchmark::workload`."""
    def under(prefix):
        return any(re.search(re.escape(prefix) + r"\b", s) for s in symbols)
    if under("cmap_benchmark::run::reference_digest"):
        return PHASES[0]
    if timed is False or (timed is None and under("cmap_benchmark::workload")):
        return PHASES[1] if under("cmap_benchmark::workload") else "other"
    for row in TIMED[:3]:
        if under("cmap_sim::world::" + row):
            return row
    return TIMED[3] if timed else "other"


def timed_span(path):
    """The lines of the benchmark's `run.rs` at `path` between which
    `run_rep` reads the allocation counter twice, or None."""
    try:
        with open(path, encoding="utf-8") as f:
            reads = [i for i, text in enumerate(f, 1) if "alloc::allocations()" in text]
    except OSError:
        return None
    return (reads[0], reads[1]) if len(reads) == 2 else None


def load_bias(path, first_start):
    """Runtime address minus link-time address for `path`: zero for a
    fixed-address executable, else where its first segment landed."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return first_start
        e_type = struct.unpack_from("<H", head, 16)[0]
        if e_type == 2:  # ET_EXEC
            return 0
        phoff, = struct.unpack_from("<Q", head, 32)
        phentsize, phnum = struct.unpack_from("<HH", head, 54)
        f.seek(phoff)
        for _ in range(phnum):
            ph = f.read(phentsize)
            p_type, = struct.unpack_from("<I", ph, 0)
            if p_type == 1:  # PT_LOAD: the first one maps file offset 0
                p_vaddr, = struct.unpack_from("<Q", ph, 16)
                return first_start - p_vaddr
    return first_start


def symbols(path):
    """Sorted (address, size, name) of the code symbols `nm` finds in
    `path`; size 0 where `nm` reports none."""
    found = {}
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(
                ["nm", "-C", "-S", "--defined-only", *extra, path],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            continue
        for line in out.splitlines():
            m = re.match(r"([0-9a-f]+) (?:([0-9a-f]+) )?([tTwWiu]) (.+)", line)
            if m:
                found.setdefault(int(m.group(1), 16),
                                 (int(m.group(2) or "0", 16), m.group(4)))
    return sorted((a, size, name) for a, (size, name) in found.items())


class Image:
    def __init__(self, path, start):
        self.path = path
        self.bias = load_bias(path, start)
        self.syms = symbols(path)
        self.addrs = [a for a, _, _ in self.syms]

    def lookup(self, pc):
        """The symbol covering `pc`. A stripped library exports only its
        entry points, so an address past the nearest one's size is inside
        some unnamed internal function: name the file instead."""
        addr = pc - self.bias
        i = bisect.bisect_right(self.addrs, addr) - 1
        if i >= 0:
            start, size, name = self.syms[i]
            if size == 0 or addr < start + size:
                return name
        return "[%s]" % self.path.rsplit("/", 1)[-1]


def inline_chains(path, addrs):
    """Each of `addrs` (link-time addresses in `path`) as its chain of
    inlined frames, innermost first, each `(function, full path, line)`;
    absent where `path` has no line table for it."""
    if not addrs:
        return {}
    try:
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
            input="\n".join("%x" % a for a in addrs),
            capture_output=True, text=True, check=False).stdout
    except OSError:
        return {}
    # An address line, then a (function, location) pair per inlined frame.
    chains, current, function = {}, None, None
    for line in out.splitlines():
        if function is None and line.startswith("0x"):
            current = chains.setdefault(int(line, 16), [])
        elif function is None:
            function = line
        else:
            if current is not None and not line.startswith("??"):
                name, _, number = line.rpartition(":")
                digits = re.match(r"\d+", number)
                current.append((function, name, int(digits.group()) if digits else 0))
            function = None
    # addr2line names the innermost frame of an inlined chain after the
    # function it was inlined into, not after its own function.
    for chain in chains.values():
        if len(chain) > 1:
            chain[0] = ("inlined in " + chain[0][0],) + chain[0][1:]
    return {addr: chain for addr, chain in chains.items() if chain}


def source_lines(path, addrs):
    """The source line each of `addrs` (link-time addresses in `path`)
    executes, by address, as `(file, line, full path)`: that of its
    innermost inlined frame, where std's inlined code (heap sifts, `ptr`,
    `cmp`, `Vec` indexing) counts for the frame that called it, and a std
    function not inlined anywhere for itself; absent where `path` has no
    line table for it."""
    found = {}
    for addr, chain in inline_chains(path, addrs).items():
        _, name, number = next((f for f in chain if "/library/" not in f[1]), chain[-1])
        found[addr] = (short_path(name), number, name)
    return found


# A global allocator's frames and the shims that call it: what every
# allocation passes through, so never its call site.
ALLOCATOR = re.compile(r"GlobalAlloc|\b__rust_(?:alloc|realloc|alloc_zeroed)\b")


def in_workspace(frame):
    """Whether an inlined frame is the workspace's or the benchmark's own
    code, not std's or a vendored crate's."""
    path = frame[1]
    return ("/crates/" in path or "/benchmark/" in path) and "/vendor/" not in path


def call_sites(samples, image_of):
    """Sample counts by `(site, caller)`: a stack's innermost workspace
    frame outside the allocator (inlined frames included) and the next
    workspace frame outward, each as `function (file:line)`."""
    wanted = collections.defaultdict(set)
    for stack in samples:
        for k, pc in enumerate(stack):
            image = image_of(pc - (k > 0))
            if image is not None:
                wanted[image].add(pc - (k > 0) - image.bias)
    chains = {image: inline_chains(image.path, sorted(addrs)) for image, addrs in wanted.items()}

    def where(frame):
        return "%s (%s:%d)" % (frame[0], short_path(frame[1]), frame[2])

    sites = collections.Counter()
    for stack, weight in samples.items():
        frames = []
        for k, pc in enumerate(stack):
            image = image_of(pc - (k > 0))
            if image is not None:
                frames += chains[image].get(pc - (k > 0) - image.bias, [])
        cut = max((i for i, f in enumerate(frames) if ALLOCATOR.search(f[0])), default=-1)
        ours = [where(f) for f in frames[cut + 1:] if in_workspace(f)]
        site = ours[0] if ours else "(no workspace frame)"
        sites[site, ours[1] if len(ours) > 1 else "-"] += weight
    return sites


def rep_timing(samples, resolved, image_of):
    """Whether each stack's `run_rep` frame (`resolved` names every frame)
    calls out from inside the timed region, by stack: None where the stack
    has no such frame or no line table places the call."""
    site = {}
    for stack in samples:
        site[stack] = next((pc - (k > 0) for k, pc in enumerate(stack) if re.search(
            r"cmap_benchmark::run::run_rep\b", resolved[pc, k > 0][0])), None)
    wanted = collections.defaultdict(set)
    for pc in set(site.values()) - {None}:
        image = image_of(pc)
        wanted[image].add(pc - image.bias)
    where, spans = {}, {}
    for image, addrs in wanted.items():
        for addr, chain in inline_chains(image.path, sorted(addrs)).items():
            # The outermost frame of the chain is `run_rep`'s own call.
            _, path, line = chain[-1]
            spans.setdefault(path, timed_span(path))
            if spans[path] is not None:
                where[addr + image.bias] = spans[path][0] < line < spans[path][1]
    return {stack: where.get(pc) for stack, pc in site.items()}


def line_text(path, number):
    """Line `number` of the source file at `path`, stripped; empty if the
    file is not on this machine."""
    try:
        with open(path, encoding="utf-8") as f:
            for i, text in enumerate(f, 1):
                if i == number:
                    return text.strip()
    except OSError:
        pass
    return ""


def short_path(name):
    """A source path from the workspace, the benchmark, std or a vendored
    crate, without the checkout's or the toolchain's prefix."""
    roots = (("/crates/", ""), ("/benchmark/", "benchmark/"), ("/vendor/", "vendor/"),
             ("/library/", "std/"))
    for root, label in roots:
        if root in name:
            return label + name.rsplit(root, 1)[1]
    return name


def layer_of(symbol, path):
    base = path.rsplit("/", 1)[-1]
    if base.startswith("libm"):
        return "libm"
    if base.startswith(("libc", "ld-", "libgcc", "libpthread")):
        return "libc"
    m = re.search(r"\bcmap_(\w+?)(?:::(\w+))?\b", symbol)
    if m:
        crate = "cmap_" + m.group(1)
        return crate + "::" + m.group(2) if crate == "cmap_sim" and m.group(2) else crate
    if re.search(r"\b(core|alloc|std|hashbrown|rand)::", symbol) or symbol.startswith("__rust"):
        return "std"
    return "other"


def main():
    args = sys.argv[1:]
    top, lines_of = 25, None
    if "--top" in args:
        i = args.index("--top")
        top = int(args[i + 1])
        del args[i:i + 2]
    if "--lines" in args:
        i = args.index("--lines")
        lines_of = args[i + 1]
        del args[i:i + 2]
    sites = "--sites" in args
    if sites:
        args.remove("--sites")
    only_phase = None
    if "--phase" in args:
        i = args.index("--phase")
        only_phase = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit(__doc__)
    maps, samples, dropped = [], collections.Counter(), 0
    first_start = {}
    for line in open(args[0]):
        kind, _, rest = line.partition(" ")
        if kind == "map":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                first_start.setdefault(f[5], lo)
                if "x" in f[1]:
                    maps.append((lo, hi, f[5]))
        elif kind == "sample":
            samples[tuple(int(x, 16) for x in rest.split())] += 1
        elif kind == "dropped":
            dropped = int(rest)
    if not samples:
        sys.exit("no samples in " + args[0])
    maps.sort()
    starts = [lo for lo, _, _ in maps]
    images = {}

    def image_of(pc):
        i = bisect.bisect_right(starts, pc) - 1
        if i < 0 or pc >= maps[i][1]:
            return None
        path = maps[i][2]
        if path not in images:
            images[path] = Image(path, first_start[path])
        return images[path]

    def resolve(pc, caller):
        # A return address points past its call; step back into it.
        image = image_of(pc - caller)
        if image is None:
            return "[unmapped]", "other"
        sym = image.lookup(pc - caller)
        return sym, layer_of(sym, image.path)

    self_sym, incl_sym = collections.Counter(), collections.Counter()
    self_layer, incl_layer = collections.Counter(), collections.Counter()
    by_phase = collections.Counter()
    stacks = any(len(s) > 1 for s in samples)
    resolved = {}
    for stack in samples:
        for k, pc in enumerate(stack):
            if (pc, k > 0) not in resolved:
                resolved[pc, k > 0] = resolve(pc, 1 if k else 0)
    timed = rep_timing(samples, resolved, image_of)
    for stack, weight in list(samples.items()):
        frames = [resolved[pc, k > 0] for k, pc in enumerate(stack)]
        phase = phase_of({s for s, _ in frames}, timed[stack])
        if only_phase is not None and phase not in (
                TIMED if only_phase == "timed" else (only_phase,)):
            del samples[stack]
            continue
        self_sym[frames[0][0]] += weight
        self_layer[frames[0][1]] += weight
        for sym in {s for s, _ in frames}:
            incl_sym[sym] += weight
        layers = {l for _, l in frames}
        if any("cmap_benchmark::workload" in s for s, _ in frames):
            layers.add("set-up")
        for layer in layers:
            incl_layer[layer] += weight
        by_phase[phase] += weight
    if not samples:
        sys.exit("no samples in phase %s of %s" % (only_phase, args[0]))

    n = sum(samples.values())
    print("samples %d  dropped %d  stacks %s" % (n, dropped, "yes" if stacks else "no"))

    def table(title, self_c, incl_c, rows):
        print("\n%s" % title)
        print("%8s %8s  %s" % ("self %", "incl %" if stacks else "", "name"))
        keys = sorted(incl_c if stacks else self_c,
                      key=lambda k: (-self_c[k], -incl_c[k], k))[:rows]
        for k in keys:
            incl = "%8.1f" % (100.0 * incl_c[k] / n) if stacks else " " * 8
            print("%8.1f %s  %s" % (100.0 * self_c[k] / n, incl, k))

    # Each sample's own PC by the file of its innermost inlined frame.
    leaves = collections.defaultdict(collections.Counter)
    for stack, weight in samples.items():
        image = image_of(stack[0])
        if image is not None:
            leaves[image][stack[0] - image.bias] += weight
    self_file, self_line, full = collections.Counter(), collections.Counter(), {}
    for image, addrs in leaves.items():
        where = source_lines(image.path, sorted(addrs))
        for addr, count in addrs.items():
            name, number, path = where.get(addr, ("[%s]" % image.path.rsplit("/", 1)[-1], 0, ""))
            self_file[name] += count
            if lines_of is not None and name == lines_of:
                self_line[number] += count
                full[number] = path
    unmapped = n - sum(self_file.values())
    if unmapped:
        self_file["[unmapped]"] = unmapped

    table("by layer", self_layer, incl_layer, 100)
    if stacks:
        print("\nby phase (each sample once, first match in this order)")
        print("%8s  %s" % ("share %", "phase"))
        for row in PHASES:
            print("%8.1f  %s" % (100.0 * by_phase[row] / n, row))
        print("%8.1f  timed region (the four rows above `other`)"
              % (100.0 * sum(by_phase[row] for row in TIMED) / n))
    print("\nby source file (top %d, innermost inlined frame)" % top)
    print("%8s %8s  %s" % ("self %", "", "file"))
    for k, c in self_file.most_common(top):
        print("%8.1f %8s  %s" % (100.0 * c / n, "", k))
    if lines_of is not None:
        print("\nby line of %s (top %d, %.1f %% of samples in the file)"
              % (lines_of, top, 100.0 * self_file[lines_of] / n))
        print("%8s %8s  %s" % ("self %", "line", "text"))
        for number, c in self_line.most_common(top):
            print("%8.1f %8d  %s" % (100.0 * c / n, number, line_text(full[number], number)))
    if sites and stacks:
        print("\nby call site (top %d: innermost workspace frame, then its workspace caller)"
              % top)
        print("%8s  %s" % ("share %", "site <- caller"))
        for (site, caller), c in sorted(call_sites(samples, image_of).items(),
                                        key=lambda kc: (-kc[1], kc[0]))[:top]:
            print("%8.1f  %s\n%8s  <- %s" % (100.0 * c / n, site, "", caller))
    table("by symbol (top %d by self share)" % top, self_sym, incl_sym, top)
    if stacks:
        print("\nby symbol (top %d by inclusive share)" % top)
        print("%8s %8s  %s" % ("self %", "incl %", "name"))
        # Ties by name: a Counter's tie order is its insertion order, which
        # the per-sample symbol sets (hash-ordered) do not fix.
        for k, c in sorted(incl_sym.items(), key=lambda kc: (-kc[1], kc[0]))[:top]:
            print("%8.1f %8.1f  %s" % (100.0 * self_sym[k] / n, 100.0 * c / n, k))


if __name__ == "__main__":
    main()
