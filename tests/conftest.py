"""Shared fixtures: small, fast workload/scheme configurations.

Tests run the full runtime → crash → recovery cycle on reduced sizes
(QUICK-scale: tens of events per epoch) so the entire suite stays fast
while still exercising every code path the paper figures use.
"""

from __future__ import annotations

import copy
import io
import json
import math
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

import pytest

from repro.check import explorer
from repro.check.explorer import CheckReport
from repro.cli import main
from repro.engine.execution import preprocess
from repro.engine.serial import execute_serial
from repro.ft.checkpoint import GlobalCheckpoint
from repro.harness import figures
from repro.harness.calibration import QUICK_CALIBRATION_SCALE, run_calibration
from repro.storage import codec
from repro.workloads.grep_sum import GrepSum
from repro.workloads.streaming_ledger import StreamingLedger
from repro.workloads.toll_processing import TollProcessing


@pytest.fixture
def sl():
    """Small Streaming Ledger with natural and forced aborts."""
    return StreamingLedger(
        64,
        transfer_ratio=0.6,
        multi_partition_ratio=0.5,
        skew=0.4,
        forced_abort_ratio=0.05,
        num_partitions=4,
    )


@pytest.fixture
def gs():
    """Small skewed Grep&Sum with aborts."""
    return GrepSum(
        128,
        list_len=4,
        skew=0.8,
        multi_partition_ratio=0.5,
        abort_ratio=0.1,
        num_partitions=4,
    )


@pytest.fixture
def tp():
    """Small Toll Processing with capacity-driven aborts."""
    return TollProcessing(32, skew=0.4, capacity=10.0, num_partitions=4)


@pytest.fixture(params=["sl", "gs", "tp"])
def workload(request, sl, gs, tp):
    """Parametrized over all three benchmark applications."""
    return {"sl": sl, "gs": gs, "tp": tp}[request.param]


def serial_ground_truth(workload, events):
    """(final store, outcome) of the reference serial execution."""
    store = workload.initial_state()
    txns = preprocess(events, workload, 0)
    outcome = execute_serial(store, txns)
    return store, txns, outcome


#: The repository root, where the committed ``BENCH_*.json`` records live.
REPO_ROOT = Path(__file__).resolve().parent.parent


def numeric_leaves(record, keys=()):
    """The key path (a tuple) of every int or float leaf of a nested dict."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from numeric_leaves(value, keys + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield keys + (key,)


def nudged(record, keys):
    """(copy of ``record`` with the leaf at ``keys`` one ulp higher, old, new)."""
    moved = copy.deepcopy(record)
    parent = moved
    for key in keys[:-1]:
        parent = parent[key]
    old = parent[keys[-1]]
    parent[keys[-1]] = new = math.nextafter(old, math.inf)
    return moved, old, new


@pytest.fixture
def diverging_ckpt(monkeypatch):
    """CKPT whose ``recover()`` silently installs one wrong record.

    Returns a list that receives each corrupted :class:`StateRef`, so
    harness tests can assert that their divergence diagnostic names it.
    """
    corrupted = []
    recover = GlobalCheckpoint.recover

    def recover_wrong(self):
        report = recover(self)
        ref = next(iter(self.store.refs()))
        self.store.set(ref, self.store.get(ref) + 1.0)
        corrupted.append(ref)
        return report

    monkeypatch.setattr(GlobalCheckpoint, "recover", recover_wrong)
    return corrupted


@pytest.fixture
def encoded_bytes(monkeypatch):
    """A one-element list summing ``len()`` of every ``encode`` result.

    ``from repro.storage.codec import encode`` copies the binding, so
    the counting wrapper replaces it in every ``repro.*`` namespace
    (the way ``bench/spans.py`` traces it).
    """
    original = codec.encode
    total = [0]

    def counting(*args, **kwargs):
        blob = original(*args, **kwargs)
        total[0] += len(blob)
        return blob

    patched = set()
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counting)
                patched.add(name)
    assert {"repro.storage.stores", "repro.ft.base", "repro.core.logmanager"} <= patched
    return total


@dataclass
class CheckRun:
    """One ``repro check`` invocation and the report it explored."""

    code: int
    out: str
    doc: Dict[str, object]
    report: CheckReport
    repro_dir: Path


def _run_check(tmp_path: Path, *flags: str, mutation: str = "") -> CheckRun:
    """Run ``repro check`` through the CLI, keeping the explorer's report."""
    reports = []
    explore = explorer.explore

    def keep(cfg):
        reports.append(explore(cfg))
        return reports[-1]

    json_path, repro_dir = tmp_path / "check.json", tmp_path / "repros"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(explorer, "explore", keep)
        if mutation:
            mp.setenv("REPRO_CHECK_MUTATION", mutation)
        with redirect_stdout(out):
            code = main(
                ["check", *flags, "--json", str(json_path),
                 "--repro-dir", str(repro_dir)]
            )
    (report,) = reports
    doc = json.loads(json_path.read_text())
    return CheckRun(code, out.getvalue(), doc, report, repro_dir)


#: The CKPT schedule space without cluster kills: 144 schedules.
CKPT_CHECK = ("--schemes", "CKPT", "--no-cluster")


@pytest.fixture(scope="session")
def ckpt_check(tmp_path_factory):
    """The whole CKPT space, explored once for every test that reads it."""
    return _run_check(tmp_path_factory.mktemp("ckpt-check"), *CKPT_CHECK)


@pytest.fixture(scope="session")
def ckpt_check_mutated(tmp_path_factory):
    """CI's checker self-test: the CKPT space with ``skip-ladder-rung``."""
    return _run_check(
        tmp_path_factory.mktemp("ckpt-check-mutated"),
        *CKPT_CHECK,
        "--no-coverage",
        mutation="skip-ladder-rung",
    )


@pytest.fixture(scope="session")
def figure_data():
    """Every figure's default sweep at the battery's scale, run once."""
    return {
        name: fn(QUICK_CALIBRATION_SCALE)
        for name, (fn, _desc) in figures.FIGURES.items()
    }


@pytest.fixture(scope="session")
def battery():
    """The claim battery at ``repro calibrate --quick``'s scale, run once."""
    return run_calibration(QUICK_CALIBRATION_SCALE)


@pytest.fixture(scope="session")
def claims(battery):
    """claim id -> its :class:`~repro.harness.calibration.CalibrationCheck`."""
    return {check.claim: check for check in battery}
