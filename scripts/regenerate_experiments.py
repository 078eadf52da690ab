#!/usr/bin/env python
"""Regenerate every figure's data artifacts under results/.

Runs the full benchmark-scale experiment for each figure and exports
JSON + CSV via :mod:`repro.harness.export`, then runs the claim battery
on the same figures.  Workloads are hashable specs and every figure
reads one in-process run table (``repro.harness.figures._run``), so each
distinct experiment runs once and the battery reruns none of them.  The
table is never written to disk: a cached result would hide a
nondeterminism that a rerun shows.  EXPERIMENTS.md quotes these
numbers; rerunning this script reproduces them digit-for-digit.

Usage::

    python scripts/regenerate_experiments.py [--quick] [--out results/]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.harness import figures
from repro.harness.calibration import all_hold, run_calibration
from repro.harness.export import export_figure, write_json


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--skip-calibration",
        action="store_true",
        help="skip the final claim battery",
    )
    args = parser.parse_args(argv)
    scale = figures.QUICK_SCALE if args.quick else figures.DEFAULT_SCALE
    out_dir = Path(args.out)

    for name, (fn, description) in sorted(figures.FIGURES.items()):
        started = time.time()
        written = export_figure(name, scale, fn(scale), out_dir)
        print(
            f"{name:7s} {description:45s} "
            f"{time.time() - started:6.1f}s -> {written['json']}"
        )

    if not args.skip_calibration:
        checks = run_calibration(scale)
        write_json(
            out_dir / "calibration.json",
            {
                "all_hold": all_hold(checks),
                "checks": [
                    {
                        "claim": c.claim,
                        "reference": c.reference,
                        "holds": c.holds,
                        "detail": c.detail,
                    }
                    for c in checks
                ],
            },
        )
        verdict = "all hold" if all_hold(checks) else "FAILURES"
        print(f"calibration: {verdict} -> {out_dir / 'calibration.json'}")
        return 0 if all_hold(checks) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
