"""Wall-clock benchmark: run→crash→recover, end to end and layer by layer.

    python3 bench/run.py                       every workload, both passes
    python3 bench/run.py --workload sl_msr --seed 7 --seconds 16 --trace 0

Without ``--trace`` this is the one command that runs everything: each
selected workload twice (tracing off for the end-to-end metrics, then
on for the per-layer ones), every run in its own child process, one
after another.  With ``--trace 0|1`` it measures the one named workload
in this process and prints, as the last line of standard output, the
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Every metric is printed by name with its unit; names, units and
regression bounds come from ``BENCHMARK.json``.  Every output is checked
against a serial run of the same events, and any failure makes the exit
code non-zero.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """HEAD's commit, read from ``.git`` without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        return (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def host_speed(kernel_s: List[float]) -> dict:
    """The host-speed kernel over a run: a host that drifted shows as
    start, median and end (medians of ten samples) far apart."""
    from cycle import KERNEL_REFERENCE_S

    return {
        "start": statistics.median(kernel_s[:10]),
        "median": statistics.median(kernel_s),
        "end": statistics.median(kernel_s[-10:]),
        "samples": len(kernel_s),
        "reference": KERNEL_REFERENCE_S,
    }


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) < 1e15:
        return f"{int(value)}"
    return f"{value:.6g}"


def print_measurement(
    spec: dict, host: dict, result, trace: bool, sizes: str
) -> None:
    print(
        f"== {result.workload}  seed {result.seed}  "
        f"{'traced' if trace else 'timed'} pass =="
    )
    print(
        f"   {host['implementation']} {host['python']} on {host['platform']}, "
        f"nproc {host['nproc']}, commit {host['commit'][:12]}"
    )
    print(f"   {sizes}")
    print(f"   timed repetitions {result.timed_reps}, traced {result.traced_reps}")
    spin = host_speed(result.kernel_s)
    print(
        f"   host.spin_s at start / median / at end: {spin['start'] * 1e3:.3f} / "
        f"{spin['median'] * 1e3:.3f} / {spin['end'] * 1e3:.3f} ms "
        f"({spin['samples']} samples; {spin['reference'] * 1e3:.2f} ms = reference speed)"
    )
    print("   end-to-end (tracing off; seconds are reference seconds, see raw.*):")
    for metric in spec["end_to_end"]:
        sample = result.end_to_end[metric["name"]]
        line = f"     {metric['name']:<26}{_fmt(sample.value):>14} {metric['unit']:<14}"
        spread = sample.spread()
        if spread is not None:
            q1, q3 = sample.quartiles()
            line += (
                f"per repetition: quartiles {_fmt(q1)} .. {_fmt(q3)}, "
                f"n {sample.n}, spread {spread:.3f} (bound {metric['bound']})"
            )
            if spread > metric["bound"]:
                line += "  UNRESOLVED"
        else:
            line += sample.note
        print(line)
    if trace:
        print("   per layer (traced repetitions):")
        for metric in spec["per_layer"]:
            value = result.per_layer[metric["name"]]
            print(f"     {metric['name']:<40}{_fmt(value):>14} {metric['unit']}")
        if result.trace_file:
            print(f"   spans written to {result.trace_file}")
    print(f"   ops_attempted {result.attempted}  verify_failures {result.failed}")
    for error in result.errors[:10]:
        print(f"   FAILURE: {error}")


def run_one(args, spec: dict) -> int:
    """Measure one workload in this process (the driver's form)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no engine to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import cases
    import measure

    (name,) = args.workload
    workload = cases.WORKLOADS[name]
    reps = args.reps
    if args.smoke:
        workload, reps = workload.shrunk(epoch_divisor=8), 1
    trace = args.trace == 1
    result = measure.measure(
        name, workload, args.seed, args.seconds, trace, reps=reps, out_dir=OUT_DIR
    )
    first = workload.cells[0]
    sizes = (
        f"{len(workload.cells)} cell(s), "
        f"{sum(c.num_events for c in workload.cells)} events per repetition; "
        f"first cell {first.scheme}/{first.input}: epoch {first.epoch_len}, "
        f"snapshot {first.snapshot_interval}, recover {first.recover_epochs}, "
        f"cycles {first.cycles}"
    )
    host = host_record()
    print_measurement(spec, host, result, trace, sizes)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = (
        result.per_layer
        if trace
        else {k: s.value for k, s in result.end_to_end.items()}
    )
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
    }
    if args.json:
        record = {
            "host": host,
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "smoke": args.smoke,
            "trace": args.trace,
            "timed_reps": result.timed_reps,
            "traced_reps": result.traced_reps,
            "host_spin_s": host_speed(result.kernel_s),
            "attempted": result.attempted,
            "failed": result.failed,
            "errors": result.errors,
            "end_to_end": {k: s.payload() for k, s in result.end_to_end.items()},
            "per_layer": result.per_layer,
        }
        Path(args.json).write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if result.failed else 0


def child(
    name: str, seed: int, seconds: float, trace: int, *extra: str
) -> subprocess.CompletedProcess:
    """One pass over one workload in a process of its own; its standard
    output is captured (the last line is the JSON result)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), *extra,
    ]
    return subprocess.run(command, stdout=subprocess.PIPE, text=True)


def run_all(args, spec: dict) -> int:
    """Every selected workload, each pass in its own child process."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    OUT_DIR.mkdir(exist_ok=True)
    records: List[dict] = []
    status = 0
    for name in names:
        for trace in (0, 1):
            record_path = OUT_DIR / f"record-{name}-trace{trace}.json"
            extra = ["--json", str(record_path)]
            if args.reps is not None:
                extra += ["--reps", str(args.reps)]
            if args.smoke:
                extra.append("--smoke")
            done = child(name, args.seed, args.seconds, trace, *extra)
            # The child's last line is the machine-readable result; the
            # rest is the report a person reads.
            print(done.stdout.rsplit("\n", 2)[0] if done.stdout else "")
            if done.returncode:
                status = 1
                print(f"   {name} (trace {trace}) exited with {done.returncode}")
            if record_path.is_file():
                records.append(json.loads(record_path.read_text()))
                record_path.unlink()
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    print(f"== total: ops_attempted {attempted}, verify_failures {failed} ==")
    if args.json:
        Path(args.json).write_text(
            json.dumps({"host": host_record(), "runs": records}, indent=1)
        )
    return status


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=7, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="how long one run measures",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="fixed number of repetitions instead of --seconds",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="measure the one --workload here: 0 end-to-end, 1 per-layer",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="self-test sizes: one cycle, epochs an eighth, one repetition",
    )
    parser.add_argument("--json", metavar="PATH", help="write the full record here")
    args = parser.parse_args(argv)
    if args.trace is not None and (not args.workload or len(args.workload) != 1):
        parser.error("--trace needs exactly one --workload")
    args.spec = spec
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.trace is None:
        return run_all(args, args.spec)
    return run_one(args, args.spec)


if __name__ == "__main__":
    sys.exit(main())
