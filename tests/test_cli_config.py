"""Every number of a CLI config is read through one checked reader.

A malformed value is a usage error (exit 64) that names its key, never a
run that ends in a verdict, a resource stop or an internal error.
"""

import contextlib
import copy
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeslab.cli import EXIT_INTERNAL, EXIT_USAGE, _cube_set, main
from stokeslab.dyadic import MAX_GENERATION, CubeSet, RootBox

ROOT = Path(__file__).resolve().parents[1]
CUBE = {"kind": "cube_set", "region": {"root": {"corner": [0.0, 0.0, 0.0], "side": 1.0},
                                       "cubes": [{"generation": 1, "corner": [0, 0, 0]}]}}
POINT = {"kind": "point", "at": [0.5, 0.5]}
FLAT = {"current": {"kind": "flat_graph"}, "form": {"kind": "xz_dy"}}
PARABOLIC = {"current": {"kind": "parabolic_graph"}, "form": {"kind": "xz_dy"}}


def _run(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("command, config, key", [
    # exit 3, "2-D quadrature stalled ... error nan"
    ("stokes", {**FLAT, "current": {"kind": "flat_graph", "width": math.nan}}, "width"),
    ("stokes", {**FLAT, "current": {"kind": "flat_graph", "height": math.inf}}, "height"),
    ("stokes", {**PARABOLIC, "current": {"kind": "parabolic_graph", "scale": math.nan}}, "scale"),
    ("stokes", {**PARABOLIC, "current": {"kind": "parabolic_graph", "side": math.nan}}, "side"),
    # exit 0
    ("stokes", {**FLAT, "current": {"kind": "flat_graph", "width": True}}, "width"),
    ("stokes", {**FLAT, "current": {"kind": "flat_graph", "width": "3"}}, "width"),
    # exit 70 on an OverflowError of the chart's Lipschitz bound
    ("stokes", {**PARABOLIC, "current": {"kind": "parabolic_graph", "scale": 1e308}}, "scale"),
    # exit 2, "a must lie in (0, 1)"; h "0.3" ran
    ("counterexample", {"current": {"kind": "counterexample", "a": math.nan}}, "a"),
    ("counterexample", {"current": {"kind": "counterexample", "a": True}}, "a"),
    ("counterexample", {"current": {"kind": "counterexample", "h": "0.3"}}, "h"),
    # exit 0
    ("slice", {"grid": {"r_min": 0.5, "r_max": 0.1}}, "r_max"),
    ("slice", {"grid": {"r_max": True}}, "r_max"),
    ("slice", {"grid": {"r_min": "0.1"}}, "r_min"),
    ("cousin", {"gauge": {"kind": "constant", "value": True}}, "value"),
    ("cousin", {"gauge": {"kind": "constant", "value": "0.4"}}, "value"),
    ("cousin", {"exceptional_set": POINT, "gauge": {"kind": "distance", "cap": True}}, "cap"),
    ("cousin", {"exceptional_set": POINT, "gauge": {"kind": "distance", "scale": True}}, "scale"),
    ("cousin", {"exceptional_set": {"kind": "point", "at": [True, 0.5]}}, "at"),
    # exit 70 on an AttributeError
    ("minkowski", {"grid": [0.2, 0.7]}, "grid"),
    ("stokes", {"current": [1, 2]}, "current"),
    ("counterexample", {"current": [1, 2]}, "current"),
    ("stokes", {"form": "x_dy"}, "form"),
    ("cousin", {"exceptional_set": 5}, "exceptional_set"),
    ("cousin", {"gauge": 5}, "gauge"),
    # exit 0: the gauge's own set was not read
    ("cousin", {"exceptional_set": POINT, "gauge": {"kind": "distance", "to": 5}}, "to"),
    # exit 70 on an OverflowError: the integer is past the float range
    ("stokes", {**FLAT, "current": {"kind": "flat_graph", "width": 10 ** 400}}, "width"),
    ("counterexample", {"current": {"kind": "counterexample", "lambda_inverse": 10 ** 400}},
     "lambda_inverse"),
])
def test_a_malformed_value_is_a_usage_error_naming_its_key(tmp_path, capsys, command, config,
                                                           key):
    assert _run(tmp_path, command, config) == EXIT_USAGE
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scale, side", [(1e308, 1.0), (1e200, 1.0), (1.0, 1e308)])
def test_an_overflowing_lipschitz_bound_is_a_usage_error(tmp_path, capsys, scale, side):
    # (2 * scale * side) ** 2 raised an OverflowError (exit 70), or with an
    # infinite product gave an infinite bound
    config = {**PARABOLIC, "current": {"kind": "parabolic_graph", "scale": scale, "side": side}}
    assert _run(tmp_path, "stokes", config) == EXIT_USAGE
    assert "scale" in capsys.readouterr().err


def test_a_nan_segment_end_is_refused(tmp_path, capsys):
    # min and max dropped the nan, so the segment became the point (0.5, 0) (exit 0)
    segment = {"kind": "segment", "from": [0.5, 0.0], "to": [0.5, math.nan]}
    assert _run(tmp_path, "cousin", {"exceptional_set": segment}) == EXIT_USAGE
    assert "(0.5, nan) needs finite coordinates" in capsys.readouterr().err


@pytest.mark.parametrize("to, message", [
    ({"kind": "point", "at": [math.nan, 0.1]}, "needs finite coordinates"),
    ({"kind": "point", "at": [0.3, 0.1]}, "gauge vanishes outside the declared singular set"),
])
def test_a_distance_gauge_measures_the_distance_to_its_own_set(tmp_path, capsys, to, message):
    # the gauge measured the distance to the exceptional set and ignored "to" (exit 0)
    config = {"exceptional_set": {"kind": "point", "at": [0.5, 0.1]},
              "gauge": {"kind": "distance", "to": to, "cap": 0.2}}
    assert _run(tmp_path, "cousin", config) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    # "grid ratio q must lie in (0, 1)"
    ({"q": 1.5}, "grid q must be below 1, not 1.5"),
    ({"q": 1}, "grid q must be below 1, not 1.0"),
    # "initial radius must be below the support diameter"
    ({"r0": 50}, "grid r0 must be below the support diameter 1.4142135623730951, not 50.0"),
    ({"r0": 2 ** 0.5}, "grid r0 must be below the support diameter"),
])
def test_a_minkowski_grid_refusal_names_its_key(tmp_path, capsys, grid, message):
    config = {"current": {"kind": "unit_square"}, "exceptional_set": POINT, "grid": grid}
    assert _run(tmp_path, "minkowski", config) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_grid_ratio_of_one_or_more_is_refused_without_a_profile(tmp_path, capsys):
    # an empty set builds no profile, and a q of 1.5 was read without a check (exit 0)
    assert _run(tmp_path, "minkowski", {"grid": {"q": 1.5}}) == EXIT_USAGE
    assert "grid q must be below 1" in capsys.readouterr().err


def test_saks_henstock_integrates_a_cube_set_over_all_three_axes(tmp_path):
    # the oracle integrated over the x-y face of each cube, 0.25 for the mass
    # 0.125 of [0, 1/2]^3, so the Riemann sums failed it at every j (exit 1)
    config = {"current": CUBE, "polynomial": {"const": 1}, "max_j": 2}
    assert _run(tmp_path, "saks-henstock", config) == 0
    curve = json.loads((tmp_path / "out" / "report.json").read_text())["curve"]
    assert [row["oracle"] for row in curve] == [pytest.approx(0.125, abs=1e-15)] * 3


# -- fuzz of the README and benchmark configs ----------------------------------------


def _readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def _workload_runs():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [run for make in module.WORKLOADS.values() for run in make(1)]


def _numbers(node, path=()):
    """The path of every number in a JSON tree, list items among them."""
    if type(node) in (int, float):
        yield path
    elif isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _numbers(child, path + (key,))


def _objects(node, path=()):
    """The path of every object below the root of a JSON tree."""
    for key, child in node.items() if isinstance(node, dict) else ():
        if isinstance(child, dict):
            yield path + (key,)
            yield from _objects(child, path + (key,))


CONFIGS = [("counterexample", _readme_config())] + [(run.command, run.config)
                                                     for run in _workload_runs()]
TARGETS = [(command, config, path) for command, config in CONFIGS for path in _numbers(config)]
OBJECT_TARGETS = [(command, config, path)
                  for command, config in CONFIGS for path in _objects(config)]
NON_OBJECTS = [[1, 2], 5, "x_dy", None, True]
MALFORMED = [math.nan, math.inf, -math.inf, True, "0.5", None, [1.0]]
# the library constructors that check these keys' values keep their messages,
# which show a non-finite value instead of the key
CONSTRUCTOR_CHECKED = {"value", "cap", "from", "to", "at"}


def _mutated(config, path, value):
    config = copy.deepcopy(config)
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _key(path):
    return next(key for key in reversed(path) if isinstance(key, str))


def test_the_fuzz_reaches_every_benchmark_and_readme_key():
    keys = {_key(path) for _, _, path in TARGETS}
    assert keys >= {"schema_version", "a", "h", "lambda_inverse", "n_strips", "seed", "from",
                    "to", "scale", "cap", "epsilon", "value", "x", "y", "const", "eps1", "max_j"}


def _fuzz_run(command, config):
    """main's exit code and stderr on config, in a fresh directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        code = _run(Path(tmp), command, config)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(target=st.sampled_from(TARGETS), value=st.sampled_from(MALFORMED))
def test_a_malformed_number_anywhere_exits_64_naming_its_key(target, value):
    command, config, path = target
    code, err = _fuzz_run(command, _mutated(config, path, value))
    assert code == EXIT_USAGE, (path, value, err)
    key = _key(path)
    shown = key in CONSTRUCTOR_CHECKED and isinstance(value, float) and repr(value) in err
    assert re.search(rf"\b{key}\b", err) or shown, (path, value, err)


def test_a_non_object_anywhere_exits_64_naming_its_key():
    keys = {_key(path) for _, _, path in OBJECT_TARGETS}
    assert keys == {"current", "exceptional_set", "gauge", "to", "form", "polynomial"}
    for command, config, path in OBJECT_TARGETS:
        for value in NON_OBJECTS:
            code, err = _fuzz_run(command, _mutated(config, path, value))
            assert code == EXIT_USAGE, (path, value, err)
            assert re.search(rf"\b{_key(path)}\b", err), (path, value, err)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(target=st.sampled_from(TARGETS), sign=st.sampled_from([0, -1]))
def test_a_zero_or_negative_number_exits_with_a_documented_code(target, sign):
    command, config, path = target
    node = config
    for key in path:
        node = node[key]
    code, err = _fuzz_run(command, _mutated(config, path, sign * node))
    assert code in (0, 1, 2, 3, EXIT_USAGE) and code != EXIT_INTERNAL, (path, sign, err)


@st.composite
def _regions(draw):
    """Canonical cube sets of dimension 1 to 3, on roots of any finite corner and side."""
    m = draw(st.integers(1, 3))
    coord = st.floats(-1e6, 1e6, allow_nan=False)
    root = RootBox(tuple(draw(coord) for _ in range(m)),
                   draw(st.floats(1e-6, 1e6, exclude_min=True)))
    gens, indices = [], []
    for _ in range(draw(st.integers(0, 6))):
        g = draw(st.integers(0, MAX_GENERATION))
        indices.append(tuple(draw(st.integers(0, 2 ** g - 1)) for _ in range(m)))
        gens.append(g)
    return CubeSet.of(root, gens, indices)


@settings(max_examples=300, deadline=None)
@given(_regions())
def test_the_config_reader_reads_back_every_region_payload(region):
    # the region format has one reader, the checked one of the cube_set config
    text = json.dumps(region.payload())
    back = _cube_set(json.loads(text))
    assert back == region
    assert json.dumps(back.payload()) == text
