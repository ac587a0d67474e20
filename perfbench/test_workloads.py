"""Checks of the failure_surface workload's tangential-curl sample seed.

    python3 -m pytest perfbench/test_workloads.py

The CLI seed picks the 400 tangential-curl sample points of the
``counterexample`` run.  Some seeds put a point in a deep strip, where the
central-difference step 5e-6 * lambda**k is so small that rounding error
dominates and the curl reads above the CLI's 1e-3 limit.  The workload
therefore runs the CLI's default seed.  The points below are known
defects of the program: the tests are strict expected failures, so they
start to fail (and must be turned into plain checks) once the
finite-difference curl is fixed.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stokeslab.counterexample import Params, SurfaceModel  # noqa: E402
from workloads import A, CURL_SEED, H, LAMBDA_INVERSE  # noqa: E402

CURL_LIMIT = 1e-3

# (CLI seed, x, y, strip) of the worst sample point of each failing seed.
FAILING_POINTS = [
    (3, 0.522521386160423, 0.49989304826656145, 7),
    (132461039, 1.2073814792966187, 0.49996239269677123, 8),
]


@pytest.fixture(scope="module")
def model() -> SurfaceModel:
    params = Params(a=A, h=H, lam=1.0 / LAMBDA_INVERSE)
    return SurfaceModel(params, tail_cut=1e-12, panels_per_osc=8)


def test_workload_params_are_the_default_counterexample():
    assert Params(a=A, h=H, lam=1.0 / LAMBDA_INVERSE) == Params.default()


def test_pinned_seed_samples_pass(model):
    curls = model.tangential_curl_samples(400, np.random.default_rng(CURL_SEED))
    assert curls.max() < CURL_LIMIT


@pytest.mark.xfail(strict=True, reason="finite-difference curl is rounding-dominated in deep strips")
@pytest.mark.parametrize("seed,x,y,strip", FAILING_POINTS)
def test_deep_strip_curl_is_below_limit(model, seed, x, y, strip):
    assert int(model.strip_index(y)) == strip
    step = 5e-6 * model.params.lam ** strip
    assert model.tangential_curl_at(x, y, step) < CURL_LIMIT
