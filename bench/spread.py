"""Is the benchmark steady?  Ten runs per workload, one seed each.

    python3 bench/spread.py --json bench/results/set1.json
    python3 bench/spread.py --json bench/results/set2.json --against bench/results/set1.json

For every workload this runs ``run.py --trace 0`` once per seed (each
in its own process) and prints, per end-to-end metric, the median of
the runs and their spread — the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median — next to the metric's bound from ``BENCHMARK.json``.  A spread
above a third of the bound is marked ``>1/3``, above the bound
``>BOUND``.  ``--against`` also checks that no median is worse than the
earlier set's by more than the bound.  This is the check a benchmark
has to pass before its bounds mean anything; the records under
``bench/results/`` were made with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run


def main() -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="101-110", help="first-last")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", metavar="PATH")
    parser.add_argument("--against", metavar="PATH", help="an earlier set")
    args = parser.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    record = {
        "host": run.host_record(), "seeds": seeds, "seconds": args.seconds,
        "workloads": {},
    }
    status = 0
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {}
        for seed in seeds:
            done = run.child(name, seed, args.seconds, 0)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{name} seed {seed}: FAILED ({result['failed']} failures)")
                status = 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"== {name}: {len(seeds)} runs, seeds {args.seeds} ==")
        summary = record["workloads"][name] = {}
        for metric in spec["end_to_end"]:
            runs = values[metric["name"]]
            q1, _q2, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            flag = "" if spread < bound / 3 else ">1/3" if spread <= bound else ">BOUND"
            # setup_s is exempt from the spread rule, not from the median rule.
            if spread > bound and metric["name"] != "setup_s":
                status = 1
            line = (
                f"   {metric['name']:<26}{median:>14.6g} {metric['unit']:<14}"
                f"spread {spread:.4f}  bound {bound:<5} {flag:<7}"
            )
            if earlier is not None:
                before = earlier["workloads"][name][metric["name"]]["median"]
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                line += f" vs earlier set: {worse:+.4f} worse"
                if worse > bound:
                    line += "  REGRESSED"
                    status = 1
            print(line, flush=True)
            summary[metric["name"]] = {
                "median": median, "quartiles": [q1, q3], "spread": spread,
                "bound": bound, "runs": runs,
            }
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
