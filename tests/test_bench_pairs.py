import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(wall: float, rss: float) -> dict:
    return {"metrics": {"batch_wall_ref": {"value": wall}, "peak_rss_mb": {"value": rss}},
            "failed": 0, "attempted": 5}


def test_compare_writes_the_relative_change_of_the_medians_beside_the_pairs_won():
    metrics = [{"name": "batch_wall_ref", "unit": "ref", "better": "lower"},
               {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"}]
    results = [(_run(1.2, 40.0), _run(1.0, 41.0)), (_run(1.3, 40.0), _run(0.9, 41.0)),
               (_run(1.25, 40.0), _run(1.3, 41.0))]
    out = bench_pairs.compare(results, metrics)
    wall = out["batch_wall_ref"]
    assert wall["median_change"] == pytest.approx(1.0 / 1.25 - 1)
    assert wall["pairs_won"] == 2
    assert out["peak_rss_mb"]["median_change"] == pytest.approx(41.0 / 40.0 - 1)
    assert out["peak_rss_mb"]["pairs_won"] == 0
    assert out["failed"] == {"base": 0, "head": 0, "attempted": 30}
