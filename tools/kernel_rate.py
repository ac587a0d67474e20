"""Integrand points and panels per second of the quadrature kernel on chart pieces.

    PYTHONPATH=src python tools/kernel_rate.py [--sweeps 20] [--summary FILE]

The ``stokes`` run of the ``parabolic_graph`` current with the form
``xz_dy`` (the first run of the ``smooth_charts`` benchmark workload) is made
once through ``stokeslab.cli.main``, and every ``chart_masses`` call it makes
is recorded: the area element over the rectangles of its pieces, and the
lifted speed over their edges.  The recorded calls are then replayed, once
counting the integrand calls, points and panels that ``integrate_boxes``
hands the integrand, and then ``--sweeps`` times untouched.  The rate of
each kind of sweep is its count over its median sweep time.  A Markdown
table goes to stdout, and is appended to ``--summary`` when given (CI
passes its job summary).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from unittest import mock

CONFIG = {"current": {"kind": "parabolic_graph"}, "form": {"kind": "xz_dy"}}


def recorded_calls() -> list[tuple]:
    """The (chart, lo, hi, tol, boundary) of every chart_masses call of the stokes run."""
    from stokeslab import cli, cousin, currents

    calls = []
    original = currents.chart_masses

    def recording(chart, lo, hi, tol, boundary=False):
        calls.append((chart, lo, hi, tol, boundary))
        return original(chart, lo, hi, tol, boundary)

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        for module in (currents, cousin):
            stack.enter_context(mock.patch.object(module, "chart_masses", recording))
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(CONFIG))
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["stokes", "--config", str(config), "--out", str(Path(tmp) / "out")])
    if code != 0:
        raise SystemExit(f"the stokes run exited {code}")
    return calls


def counts(calls) -> dict:
    """Integrand calls, points and panels of one sweep of the calls."""
    from stokeslab import currents

    seen = {"integrand calls": 0, "points": 0, "panels": 0}
    original = currents.integrate_boxes

    def counting(f, *args, **kwargs):
        def counted(box, *coords):
            seen["integrand calls"] += 1
            seen["points"] += coords[0].size
            seen["panels"] += len(box)
            return f(box, *coords)
        return original(counted, *args, **kwargs)

    with mock.patch.object(currents, "integrate_boxes", counting):
        sweep(calls)
    return seen


def sweep(calls) -> float:
    """Wall time of one replay of the calls."""
    from stokeslab.currents import chart_masses

    t0 = perf_counter()
    for call in calls:
        chart_masses(*call)
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=20)
    parser.add_argument("--summary", type=Path, default=None,
                        help="a file to append the table to, such as $GITHUB_STEP_SUMMARY")
    args = parser.parse_args(argv)

    calls = recorded_calls()
    kinds = {"rectangles": [c for c in calls if not c[4]], "edges": [c for c in calls if c[4]],
             "both": calls}
    lines = [f"Kernel rate: `chart_masses` sweeps of the `parabolic_graph` stokes run, "
             f"median of {args.sweeps} warm sweeps.", "",
             "| sweep | calls | integrand calls | points | panels | median s "
             "| points/s | panels/s |", "|---|---|---|---|---|---|---|---|"]
    for kind, kind_calls in kinds.items():
        seen = counts(kind_calls)
        sweep(kind_calls)
        median = statistics.median(sweep(kind_calls) for _ in range(args.sweeps))
        lines.append(f"| {kind} | {len(kind_calls)} | {seen['integrand calls']} "
                     f"| {seen['points']} | {seen['panels']} | {median:.4f} "
                     f"| {seen['points'] / median:.3e} | {seen['panels'] / median:.3e} |")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.summary is not None:
        with args.summary.open("a") as out:
            out.write("\n" + text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
