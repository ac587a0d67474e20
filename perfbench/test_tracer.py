"""Checks of the layer tracer on tiny configs.

    python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

from stokeslab import certify, cli, cousin, minkowski, quadrature  # noqa: E402
from tracer import LayerTracer  # noqa: E402

TINY = [
    ("stokes", {"current": {"kind": "parabolic_graph"}, "form": {"kind": "xz_dy"}}),
    ("cousin", {"current": {"kind": "unit_square"},
                "exceptional_set": {"kind": "point", "at": [0.5, 0.5]},
                "gauge": {"kind": "distance", "to": {"kind": "point", "at": [0.5, 0.5]},
                          "scale": 0.5, "cap": 0.3},
                "epsilon": 0.2}),
]


@pytest.fixture
def out_dir() -> Path:
    path = HERE.parent / ".perfbench-out" / "test"
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def tracer():
    t = LayerTracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _traced_run(tracer, out_dir: Path) -> tuple[dict, float]:
    tracer.reset()
    wall = 0.0
    for i, (command, config) in enumerate(TINY):
        path = out_dir / f"config{i}.json"
        path.write_text(json.dumps(config))
        t0 = perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([command, "--config", str(path), "--out", str(out_dir / f"run{i}")])
        wall += perf_counter() - t0
        assert code == 0
    return tracer.metrics(), wall


def test_reimported_names_are_wrapped_and_restored():
    original = quadrature.integrate_2d
    t = LayerTracer()
    t.install()
    try:
        wrapped = quadrature.integrate_2d
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert certify.integrate_2d is wrapped
        assert cousin.neighborhood_mass is minkowski.neighborhood_mass
        assert cousin.neighborhood_mass.__wrapped__ is not None
    finally:
        t.uninstall()
    assert quadrature.integrate_2d is original and certify.integrate_2d is original
    assert not hasattr(cousin.neighborhood_mass, "__wrapped__")


def test_self_times_sum_to_traced_wall(tracer, out_dir):
    metrics, wall = _traced_run(tracer, out_dir)
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(tracer.root_s, rel=1e-9)
    assert 0.95 * wall <= total_self <= wall


def test_work_counts_repeat_exactly(tracer, out_dir):
    first, _ = _traced_run(tracer, out_dir)
    second, _ = _traced_run(tracer, out_dir)
    counts = {k for k in first if not k.endswith("_s")}
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["quadrature.integrand_calls"] > 0
    assert first["cousin.pieces"] > 0 and first["certify.pieces"] > 0
    assert first["minkowski.radii"] > 0
