#!/usr/bin/env python3
"""Splice a repro_all report into EXPERIMENTS.md between a pair of GENERATED markers.

Usage: python3 tools/splice_experiments.py [report] [experiments] [marker]
Defaults: repro_report.md, EXPERIMENTS.md, RESULTS

The markers are `<!-- BEGIN GENERATED <marker> -->` and
`<!-- END GENERATED <marker> -->`; everything between them is replaced by
the report. `RESULTS` holds the suite's results, `ABLATIONS` a
`--figure ablations` report.
"""
import sys

report_path = sys.argv[1] if len(sys.argv) > 1 else "repro_report.md"
target_path = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"
marker = sys.argv[3] if len(sys.argv) > 3 else "RESULTS"

report = open(report_path).read().strip()
target = open(target_path).read()

begin = f"<!-- BEGIN GENERATED {marker} -->"
end = f"<!-- END GENERATED {marker} -->"
pre, rest = target.split(begin, 1)
_, post = rest.split(end, 1)
open(target_path, "w").write(pre + begin + "\n" + report + "\n" + end + post)
print(f"spliced {len(report)} bytes of {marker} into {target_path}")
