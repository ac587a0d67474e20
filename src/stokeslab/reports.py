"""Deterministic CSV/JSON emission for experiment artifacts.

Floats are written with repr (shortest round-trip form) and keys are
sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import json
import re
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


def family_to_json(family, path) -> Path:
    """pieces.json from the piece table: write_json of every piece's descriptor(), byte for byte.

    json.dumps runs once for each shape of piece, a cube piece on n cubes or a
    chart piece over a Rect on one of the table's charts, on a descriptor whose
    numbers are slots; each piece fills its shape's slots from the columns and
    cells.  Other pieces are refused before the file is opened.
    """
    from .currents import chart_descriptor, top_dim_descriptor
    from .dyadic import cubes_payload

    table = family.pairs
    bad = np.flatnonzero((table.chart < 0) == (table.root < 0))
    if bad.size:
        raise ValueError(f"piece {bad[0]} is neither a cube piece nor a chart piece over a Rect")
    owner, _, _, gen, index = table.cubes
    w = index.shape[1] + 1  # the numbers of a root box, and of a cube

    @functools.cache
    def template(chart: int, n: int) -> str:
        """A piece's text in pieces.json, each number of its skeleton made a format field.

        The other leaves are strings; no string's text ends a line, so a number that does is a slot.
        """
        if chart >= 0:
            skeleton = chart_descriptor(0, table.charts[chart].name, {"rect": [1, 2, 3, 4]})
        else:
            cubes = [range(w + 1 + j * w, w + 1 + (j + 1) * w) for j in range(n)]
            skeleton = top_dim_descriptor(0, cubes_payload(
                range(1, w), w, [c[0] for c in cubes], [list(c[1:]) for c in cubes]))
        text = json.dumps([skeleton], sort_keys=True, indent=2)[2:-2]  # without the brackets
        return re.sub(r"(?<= )(\d+)(?=,?\n)", r"{\1}", text.replace("{", "{{").replace("}", "}}"))

    lo, hi = table.rects[1:]
    theta = _spelled(table.theta.tolist())
    roots = _spelled([v for box in table.roots for v in (*box.corner, box.side)])
    cells = _spelled(np.column_stack([gen, index]).ravel().tolist())
    rects = _spelled(np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]]).ravel().tolist())
    counts = np.bincount(owner, minlength=len(table)).tolist()

    def texts():
        a, b = 0, 0  # the next cube piece's first number in cells, and chart piece's in rects
        for k, (c, r, n) in enumerate(zip(table.chart.tolist(), table.root.tolist(), counts)):
            if c >= 0:
                fields, b = rects[b:b + 4], b + 4
            else:
                fields, a = roots[w * r:w * r + w] + cells[a:a + n * w], a + n * w
            yield (",\n" if k else "[\n") + template(c, n).format(theta[k], *fields)

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.writelines(texts())
        fh.write("\n]\n" if len(table) else "[]\n")
    return path


def _spelled(numbers: list) -> list[str]:
    """JSON's text of each number, as json.dumps spells it: no number's text holds ", "."""
    return json.dumps(numbers)[1:-1].split(", ") if numbers else []


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
    columns = ["j", "max_diam", "riemann_sum", "oracle", "abs_err"]
    rows = [{"j": c["j"], **{key: c.get(key, "") for key in columns[1:4]},
             "abs_err": c.get("abs_err", c.get("error", ""))} for c in curve]
    return write_csv(path, rows, columns)
