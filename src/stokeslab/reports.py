"""Deterministic CSV/JSON emission for experiment artifacts.

Floats are written with repr (shortest round-trip form) and keys are
sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        # streamed: the text of a large payload is never held whole in memory
        json.dump(payload, fh, sort_keys=True, indent=2, default=_coerce)
        fh.write("\n")
    return path


def _coerce(obj):
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def write_csv(path, rows: Iterable[Mapping], columns: Sequence[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])
    return path


def _cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(repr(float(v)) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return int(value) if isinstance(value, np.integer) else value


def family_to_csv(family, path) -> Path:
    """family.csv from the columns of the family's piece table: write_csv of family.rows()."""
    table = family.pairs
    columns = [[";".join(map(repr, tag)) for tag in table.tags.tolist()]] + [
        list(map(repr, getattr(table, name).tolist()))
        for name in ("diam", "mass", "boundary_mass", "reg", "gauge_at_tag", "eta_at_tag")]
    lines = ["piece_id,tag,diam,mass,boundary_mass,reg,delta_at_tag,eta_at_tag"]
    lines += [f"{i},{','.join(row)}" for i, row in enumerate(zip(*columns))]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def slice_table_to_csv(radii, masses, path) -> Path:
    rows = [{"r": float(r), "slice_mass": float(m)} for r, m in zip(radii, masses)]
    return write_csv(path, rows, ["r", "slice_mass"])


def profile_to_csv(profile, path) -> Path:
    rows = [
        {"r": r, "measure": m, "content_value": v}
        for r, m, v in zip(profile.radii, profile.measures, profile.values)
    ]
    return write_csv(path, rows, ["r", "measure", "content_value"])


def error_curve_to_csv(curve, path) -> Path:
    rows = [
        {
            "j": c["j"],
            "max_diam": c.get("max_diam", ""),
            "riemann_sum": c.get("riemann_sum", ""),
            "oracle": c.get("oracle", ""),
            "abs_err": c.get("abs_err", c.get("error", "")),
        }
        for c in curve
    ]
    return write_csv(path, rows, ["j", "max_diam", "riemann_sum", "oracle", "abs_err"])
