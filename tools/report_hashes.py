"""Print the sha256 of every output file of every benchmark workload run.

    PYTHONPATH=src python tools/report_hashes.py [--seed N]

Each run of ``perfbench/workloads.py`` is made once at the given seed
(default 1) through ``stokeslab.cli.main``, in a temporary directory, and
every file it writes is hashed; so is each run of ``EXTRA_RUNS``, which no
workload makes.  The output is a
Markdown table, one row per file, so that two commits whose reports should
be byte-identical can be compared line by line (and CI can append it to
its job summary).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

# (name, command, config, CLI seed) of runs hashed beside the workloads: the polar
# ladder of the counterexample; the Stokes check on the counterexample surface,
# whose left side goes through the tangent grid of the surface integral; a
# point excised from the unit square, whose refine follows the arcs of a ball; the
# console-script run of CI, a 3-D cube set whose pieces.json holds m = 3 cubes; the
# Stokes check of the two planar CLI forms on the unit square; the Stokes check on a
# staircase of cubes of three generations with multiplicity -2, whose boundary has
# facets of different lengths meeting at hanging vertices; and the content profile of
# the counterexample surface around its singular segment, on a radius grid unlike
# that of the counterexample report, whose windows all go through one y-rule pass
POINT = {"kind": "point", "at": [0.5, 0.5]}
STAIRCASE = {"root": {"corner": [0.0, 0.0], "side": 1.0}, "cubes": [
    {"generation": g, "corner": corner}
    for g, corner in ((1, [0, 0]), (1, [1, 0]), (2, [0, 2]), (2, [1, 2]), (3, [2, 5]))]}
EXTRA_RUNS = [
    ("cylindrical", "counterexample", {"cylindrical": True, "n_strips": 8}, 0),
    ("stokes_surface", "stokes", {
        "current": {"kind": "counterexample"}, "form": {"kind": "counterexample_omega"},
        "exceptional_set": {"kind": "singular_set"},
    }, 0),
    ("excise_point", "cousin", {
        "current": {"kind": "unit_square"}, "exceptional_set": POINT,
        "gauge": {"kind": "distance", "to": POINT, "scale": 0.5, "cap": 0.2}, "epsilon": 0.05,
    }, 0),
    ("cube_3d", "cousin", {
        "current": {"kind": "cube_set", "region": {
            "root": {"corner": [0.0, 0.0, 0.0], "side": 1.0},
            "cubes": [{"generation": 0, "corner": [0, 0, 0]}]}},
        "gauge": {"kind": "constant", "value": 1.0}, "eta": 0.01,
    }, 0),
    *((f"stokes_{form}", "stokes", {"current": {"kind": "unit_square"}, "form": {"kind": form}}, 0)
      for form in ("x_dy", "constant_dy")),
    ("stokes_staircase", "stokes", {
        "current": {"kind": "cube_set", "theta": -2, "region": STAIRCASE},
        "form": {"kind": "x_dy"},
    }, 0),
    ("minkowski_surface", "minkowski", {
        "current": {"kind": "counterexample"}, "exceptional_set": {"kind": "singular_set"},
        "grid": {"r0": 0.3, "q": 0.5, "steps": 20},
    }, 0),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    from stokeslab import cli

    print("| workload | run | command | exit | file | sha256 |")
    print("|---|---|---|---|---|---|")
    runs = [(name, i, run.command, run.config, run.seed)
            for name, workload in WORKLOADS.items()
            for i, run in enumerate(workload(args.seed))]
    runs += [(name, 0, command, config, seed) for name, command, config, seed in EXTRA_RUNS]
    with tempfile.TemporaryDirectory() as tmp:
        for name, i, command, run_config, seed in runs:
            work = Path(tmp) / name / f"run{i}"
            work.mkdir(parents=True)
            config = work / "config.json"
            config.write_text(json.dumps(run_config))
            out = work / "out"
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main([command, "--config", str(config), "--out", str(out),
                                 "--seed", str(seed)])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"| {name} | {i} | {command} | {code} "
                      f"| {path.relative_to(out)} | {digest} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
