"""Result export: JSON/CSV artifacts round-trip and flatten correctly."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.errors import ConfigError
from repro.harness.export import (
    export_figure,
    figure_payload,
    to_csv,
    write_json,
)
from repro.harness.figures import QUICK_SCALE


class TestJson:
    def test_payload_shape(self):
        payload = figure_payload("fig2", QUICK_SCALE, {"MSR": 1.0})
        assert payload["figure"] == "fig2"
        assert payload["scale"]["epoch_len"] == QUICK_SCALE.epoch_len
        assert payload["data"] == {"MSR": 1.0}

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "fig.json"
        payload = figure_payload("x", QUICK_SCALE, [1, 2, 3])
        write_json(path, payload)
        assert json.loads(path.read_text()) == json.loads(json.dumps(payload))

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": 2})
        write_json(b, {"a": 2, "z": 1})
        assert a.read_text() == b.read_text()


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


class TestCsv:
    def test_scalar_map(self):
        rows = _rows(to_csv({"MSR": 1.5, "WAL": 9.0}))
        assert rows[0] == ["key", "value"]
        assert ["MSR", "1.5"] in rows

    def test_nested_map(self):
        rows = _rows(to_csv({"MSR": {"reload": 1.0, "wait": 2.0}}))
        assert rows[0] == ["key", "reload", "wait"]
        assert rows[1] == ["MSR", "1.0", "2.0"]

    def test_curves_long_format(self):
        rows = _rows(to_csv({"MSR": [(1, 10.0), (2, 20.0)]}))
        assert rows[0] == ["key", "x", "y1"]
        assert ["MSR", "1", "10.0"] in rows

    def test_plain_point_list(self):
        rows = _rows(to_csv([(0.1, 1.0, 2.0)]))
        assert rows[0] == ["x", "y1", "y2"]
        assert rows[1] == ["0.1", "1.0", "2.0"]

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ConfigError):
            to_csv("a string")


class TestExportFigure:
    def test_flat_figure_writes_json_and_csv(self, tmp_path):
        written = export_figure(
            "fig12c", QUICK_SCALE, {"MSR": 100, "WAL": 200}, tmp_path
        )
        assert written["json"].exists()
        assert written["csv"].exists()
        payload = json.loads(written["json"].read_text())
        assert payload["data"] == {"MSR": 100, "WAL": 200}

    def test_per_app_figure_writes_one_csv_per_app(self, tmp_path):
        data = {
            "SL": {"MSR": {"reload": 1.0}, "WAL": {"reload": 2.0}},
            "GS": {"MSR": {"reload": 3.0}, "WAL": {"reload": 4.0}},
        }
        written = export_figure("fig11", QUICK_SCALE, data, tmp_path)
        assert (tmp_path / "fig11_SL.csv").exists()
        assert (tmp_path / "fig11_GS.csv").exists()
        assert written["csv:SL"].read_text().startswith("key,reload")

    def test_tuples_become_lists_in_json(self, tmp_path):
        written = export_figure(
            "fig12b", QUICK_SCALE, [(0.1, 1.0, 2.0)], tmp_path
        )
        payload = json.loads(written["json"].read_text())
        assert payload["data"] == [[0.1, 1.0, 2.0]]


class TestRegenerationScript:
    def test_quick_regeneration_end_to_end(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "regenerate_experiments.py"
        )
        result = subprocess.run(
            [
                sys.executable,
                str(script),
                "--quick",
                "--skip-calibration",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=1200,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        produced = {p.name for p in tmp_path.glob("*.json")}
        assert "fig2.json" in produced
        assert "fig13.json" in produced
        assert len(produced) >= 12
