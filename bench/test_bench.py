"""Self-test of the benchmark (``python -m pytest bench -q``, ~10 s).

Runs every workload once at ``--smoke`` size (one cycle, epochs an
eighth, one repetition) and checks the benchmark's own plumbing: the
names it prints, the patch table, the span accounting, that tracing
leaves the engine as it found it, and that a wrong output is caught.
Timings from smoke sizes mean nothing and are never compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cases  # noqa: E402
import cycle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(*argv: str):
    """Run the command in-process; ``(exit code, stdout, result)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    text = out.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload."""
    return {
        w["name"]: bench("--workload", w["name"], "--trace", "1", "--smoke")
        for w in SPEC["workloads"]
    }


def test_spec_is_inside_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 <= bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # 4 + 22 runs per workload, each a little over run_seconds, in 3420 s.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 10) < 3420


def test_workloads_match_the_table_in_cases():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == cases.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    matrix = cases.WORKLOADS["scheme_matrix"].cells
    assert len(matrix) == 24 and sum(c.num_events for c in matrix) == 61_440
    assert cases.WORKLOADS["sl_msr"].cells[0].num_events == 30_720


def test_every_entry_point_resolves():
    # A renamed function must fail here, not silently lose its span.
    for _name, module, attr in spans.ENTRY_POINTS:
        spans.resolve(module, attr)
    with pytest.raises((AttributeError, KeyError)):
        spans.resolve("repro.storage.codec", "no_such_function")
    with pytest.raises(KeyError):
        spans.resolve("repro.ft.base", "FTScheme.no_such_method")


def test_every_metric_is_printed_on_every_workload(traced):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, (code, text, result) in traced.items():
        assert code == 0 and result["correct"] and result["failed"] == 0, text
        assert result["attempted"] >= 1
        assert f"== {name} " in text
        printed = set(re.findall(r"^\s+([A-Za-z0-9_.-]+)\s+\S+ \S", text, re.M))
        listed = {m["name"] for m in SPEC["end_to_end"]} | set(per_layer)
        assert listed <= printed, sorted(listed - printed)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == per_layer


def test_untraced_pass_reports_the_end_to_end_metrics():
    code, _text, result = bench(
        "--workload", "sl_ckpt", "--trace", "0", "--smoke", "--seed", "11"
    )
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_self_times_add_up_to_the_traced_wall(traced):
    for name, (_code, _text, result) in traced.items():
        shares = sum(
            result["metrics"][f"share.{layer}"]["value"] for layer in spans.LAYERS
        )
        assert abs(shares - 1.0) < 0.02, (name, shares)


def test_layers_run_where_the_workloads_say(traced):
    def calls(workload, entry):
        return traced[workload][2]["metrics"][f"{entry}.calls"]["value"]

    assert calls("sl_msr", "core.explore_chains") > 0
    assert calls("sl_ckpt", "core.greedy_partition") == 0
    assert calls("gs_bigstate_ckpt", "core.greedy_partition") == 0
    assert calls("gs_pacman", "ft.static_batches") == 4
    assert calls("sl_msr", "ft.static_batches") == 0
    assert calls("scheme_matrix", "ft.recover") == 21  # NAT never recovers


def test_tracing_leaves_the_engine_as_it_found_it(traced):
    import repro.ft.base
    import repro.storage.codec
    import repro.storage.stores

    def patched():
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in vars(module).items():
                if hasattr(value, "span_name"):
                    found.append(f"{mod_name}.{key}")
                if isinstance(value, type):
                    found += [
                        f"{mod_name}.{key}.{attr}"
                        for attr, member in vars(value).items()
                        if hasattr(member, "span_name")
                    ]
        return found

    assert patched() == []
    original = repro.storage.codec.encode
    with spans.Tracer():
        assert repro.storage.codec.encode is not original
        assert repro.storage.stores.encode is repro.storage.codec.encode
        assert len(patched()) > len(spans.ENTRY_POINTS)
    assert repro.storage.codec.encode is original
    assert repro.ft.base.encode is original
    assert patched() == []


def test_a_wrong_expected_output_fails_the_run(monkeypatch):
    honest = cycle.reference

    def tampered(input_name, num_events, seed):
        ref = honest(input_name, num_events, seed)
        seq = next(iter(ref.outputs))
        ref.outputs[seq] = ref.outputs[seq] + ("tampered",)
        return ref

    monkeypatch.setattr(cycle, "reference", tampered)
    code, text, result = bench("--workload", "gs_pacman", "--trace", "0", "--smoke")
    assert code != 0
    assert result["correct"] is False and result["failed"] > 0
    assert "verify_failures 0" not in text
