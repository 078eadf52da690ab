"""Result export: JSON and CSV artifacts for every figure.

Benchmarks print tables; this module persists the same data as files so
EXPERIMENTS.md can be regenerated mechanically and downstream tooling
(plots, diffs between calibrations) has stable inputs.

The JSON layout is uniform: ``{"figure": ..., "scale": {...},
"data": <figure-specific>}`` with the figure-specific part exactly what
:mod:`repro.harness.figures` returned.  CSV export flattens the common
shapes (scheme→scalar maps, scheme→curve maps, breakdown tables).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict

from repro.errors import ConfigError
from repro.harness.figures import FigureScale


def figure_payload(name: str, scale: FigureScale, data: Any) -> Dict:
    """The canonical JSON document for one reproduced figure."""
    return {
        "figure": name,
        "scale": asdict(scale),
        "data": data,
    }


def write_json(path: Path, payload: Dict) -> None:
    """Write a payload with stable formatting (sorted keys, 2-space)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def without(record: Dict, *omit: str) -> Dict:
    """``record`` minus the keys an export's committed schema leaves out."""
    return {k: v for k, v in record.items() if k not in omit}


def to_csv(data: Any) -> str:
    """Flatten a figure's data into CSV.

    Supported shapes (everything :mod:`figures` produces):

    - ``{key: scalar}`` → two columns;
    - ``{key: {subkey: scalar}}`` → one row per key, one column per subkey;
    - ``{key: [(x, y...), ...]}`` → long format: key, x, y columns;
    - ``[(x, y...), ...]`` → x, y columns.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if isinstance(data, dict):
        first = next(iter(data.values()), None)
        if isinstance(first, dict):
            columns = sorted({k for row in data.values() for k in row})
            writer.writerow(["key", *columns])
            for key, row in data.items():
                writer.writerow([key, *(row.get(c, "") for c in columns)])
        elif isinstance(first, (list, tuple)):
            width = max((len(p) for pts in data.values() for p in pts), default=2)
            writer.writerow(
                ["key", "x", *(f"y{i}" for i in range(1, width))]
            )
            for key, points in data.items():
                for point in points:
                    writer.writerow([key, *point])
        else:
            writer.writerow(["key", "value"])
            for key, value in data.items():
                writer.writerow([key, value])
    elif isinstance(data, (list, tuple)):
        width = max((len(p) for p in data), default=2)
        writer.writerow(["x", *(f"y{i}" for i in range(1, width))])
        for point in data:
            writer.writerow(list(point))
    else:
        raise ConfigError(f"cannot flatten {type(data).__name__} to CSV")
    return buffer.getvalue()


def export_figure(
    name: str,
    scale: FigureScale,
    data: Any,
    out_dir: Path,
) -> Dict[str, Path]:
    """Write ``<name>.json`` and ``<name>.csv`` under ``out_dir``.

    Nested per-app figures (fig11/fig12a/fig13) get one CSV per app.
    Returns the written paths keyed by artifact name.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}

    json_path = out_dir / f"{name}.json"
    write_json(json_path, figure_payload(name, scale, _jsonable(data)))
    written["json"] = json_path

    if isinstance(data, dict) and data and all(
        isinstance(v, dict)
        and v
        and isinstance(next(iter(v.values())), (dict, list, tuple))
        for v in data.values()
    ):
        # app -> scheme -> row/curve: one CSV per app.
        for app, per_app in data.items():
            csv_path = out_dir / f"{name}_{app}.csv"
            csv_path.write_text(to_csv(per_app))
            written[f"csv:{app}"] = csv_path
    else:
        csv_path = out_dir / f"{name}.csv"
        csv_path.write_text(to_csv(data))
        written["csv"] = csv_path
    return written


def _jsonable(data: Any) -> Any:
    """Tuples → lists so json round-trips shape-stably."""
    if isinstance(data, dict):
        return {str(k): _jsonable(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_jsonable(v) for v in data]
    return data
