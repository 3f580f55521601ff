#!/usr/bin/env python3
"""The `loc` ledger: non-test source lines and `pub` items per crate, as JSON.

Usage: python3 tools/loc.py [repo-root]

Counts every `.rs` file under `crates/*/`, `vendor/*/`, `src/` and
`examples/`, leaving out `tests/` and `benches/` directories and, inside
a file, everything from its `#[cfg(test)] mod` to the end (this workspace
keeps unit tests in one trailing `mod tests`). `lines` is every
remaining line, `code` the ones that are neither blank nor a `//`
comment, `pub_items` the `pub` declarations (`pub(crate)` and narrower
are not public surface), `config_fields` the fields of every
`struct *Config` (each one a value a caller can set).
"""
import json
import os
import re
import sys

PUB_ITEM = re.compile(
    r"^\s*pub\s+(?:const\s+fn|unsafe\s+fn|fn|struct|enum|trait|const|static|type|mod|use)\b"
)
CONFIG_STRUCT = re.compile(r"^(\s*)(?:pub(?:\([^)]*\))?\s+)?struct\s+\w*Config\s*\{")
FIELD = re.compile(r"^\s*(?:pub(?:\([^)]*\))?\s+)?\w+\s*:")
SKIP_DIRS = {"tests", "benches", "target"}
KEYS = ("files", "lines", "code", "pub_items", "config_fields")


def test_module_start(lines):
    """Index of the `#[cfg(test)]` that opens the trailing test module."""
    for i, raw in enumerate(lines):
        if raw.strip().startswith("#[cfg(test)]"):
            for follow in lines[i + 1 :]:
                item = follow.strip()
                if item.startswith(("#[", "//")):
                    continue
                if item.startswith("mod "):
                    return i
                break
    return len(lines)


def config_fields(lines):
    """Fields declared in the `struct *Config { .. }` blocks of `lines`."""
    fields = 0
    closing = None
    for raw in lines:
        if closing is None:
            opened = CONFIG_STRUCT.match(raw)
            if opened:
                closing = opened.group(1) + "}"
        elif raw.rstrip() == closing:
            closing = None
        elif FIELD.match(raw):
            fields += 1
    return fields


def count_file(path):
    with open(path, encoding="utf-8") as f:
        source = f.readlines()
    source = source[: test_module_start(source)]
    code = sum(1 for raw in source if raw.strip() and not raw.strip().startswith("//"))
    pub_items = sum(1 for raw in source if PUB_ITEM.match(raw))
    return len(source), code, pub_items, config_fields(source)


def count_tree(root):
    total = dict.fromkeys(KEYS, 0)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".rs"):
                counts = count_file(os.path.join(dirpath, name))
                total["files"] += 1
                for key, n in zip(KEYS[1:], counts):
                    total[key] += n
    return total


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    units = {}
    for group in ("crates", "vendor"):
        base = os.path.join(root, group)
        if os.path.isdir(base):
            for name in sorted(os.listdir(base)):
                if os.path.isdir(os.path.join(base, name)):
                    units[f"{group}/{name}"] = count_tree(os.path.join(base, name))
    for single in ("src", "examples"):
        if os.path.isdir(os.path.join(root, single)):
            units[single] = count_tree(os.path.join(root, single))
    total = {key: sum(u[key] for u in units.values()) for key in KEYS}
    json.dump({"schema": "cmap-loc/v1", "units": units, "total": total}, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
