import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cube_refs

from stokeslab import certify, cli
from stokeslab.cli import EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_UNDECIDED, EXIT_USAGE, main


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cousin_unit_square_demo(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {
        "schema_version": 1,
        "current": {"kind": "unit_square"},
        "gauge": {"kind": "constant", "value": 0.4},
        "epsilon": 1e-3,
    })
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["certificates_pass"]
    assert report["summary"]["pieces"] == 16
    csv_text = (out / "family.csv").read_text()
    assert csv_text.splitlines()[0].startswith("piece_id,tag,diam,mass")
    assert len(csv_text.splitlines()) == 17


def test_cousin_certifies_a_cube_of_stacked_cubes(tmp_path):
    # eight cubes, four pairs of them stacked in z: none may overlap another
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "cube_set", "region": {
            "root": {"corner": [0.0, 0.0, 0.0], "side": 1.0},
            "cubes": [{"generation": 0, "corner": [0, 0, 0]}]}},
        "gauge": {"kind": "constant", "value": 1.0},
        "eta": 0.01,
    })
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["pieces"] == 8
    assert report["certificates_pass"] is True and report["violations"] == []


def test_cousin_refuses_divergent_set(tmp_path):
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "counterexample"},
        "exceptional_set": {"kind": "singular_set"},
        "gauge": {"kind": "constant", "value": 0.3},
        "epsilon": 1e-2,
    })
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_UNDECIDED
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "refused"


def test_stokes_flat_square(tmp_path):
    cfg = _write_config(tmp_path, "s.json", {
        "current": {"kind": "unit_square"},
        "form": {"kind": "x_dy"},
    })
    out = tmp_path / "out"
    assert main(["stokes", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "HOLDS"
    assert abs(report["gap"]) < 1e-9


def test_stokes_smooth_graph(tmp_path):
    cfg = _write_config(tmp_path, "s.json", {
        "current": {"kind": "parabolic_graph"},
        "form": {"kind": "xz_dy"},
    })
    out = tmp_path / "out"
    assert main(["stokes", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert abs(report["gap"]) < 1e-6


def test_minkowski_bounded_profile(tmp_path):
    cfg = _write_config(tmp_path, "m.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": {"kind": "segment", "from": [0.5, 0.0], "to": [0.5, 1.0]},
        "grid": {"r0": 0.2, "q": 0.7, "steps": 10},
    })
    out = tmp_path / "out"
    assert main(["minkowski", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["accepted"] and abs(report["constant"] - 1.0) < 1e-6
    assert (out / "profile.csv").exists()
    assert (out / "certificate.json").exists()


def test_slice_coarea(tmp_path):
    cfg = _write_config(tmp_path, "sl.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": {"kind": "point", "at": [0.5, 0.5]},
        "grid": {"r_min": 0.04, "r_max": 0.7, "steps": 18},
    })
    out = tmp_path / "out"
    assert main(["slice", "--config", cfg, "--out", str(out)]) == EXIT_OK
    rows = (out / "slices.csv").read_text().splitlines()
    assert rows[0] == "r,slice_mass"
    assert len(rows) == 19


def test_saks_henstock_subcommand(tmp_path):
    cfg = _write_config(tmp_path, "sh.json", {
        "current": {"kind": "unit_square"},
        "polynomial": {"x": 1.0, "const": 0.5},
        "eps1": 1e-6,
        "max_j": 4,
    })
    out = tmp_path / "out"
    assert main(["saks-henstock", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "curve.csv").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "d.json", {
        "current": {"kind": "unit_square"},
        "form": {"kind": "x_dy"},
        "seed": 7,
    })
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["stokes", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["stokes", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    if (out1 / "refinement.csv").exists():
        assert (out1 / "refinement.csv").read_bytes() == (out2 / "refinement.csv").read_bytes()


def test_malformed_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stokes", "--config", str(bad)]) == EXIT_USAGE


def test_unknown_schema_version(tmp_path):
    cfg = _write_config(tmp_path, "v.json", {"schema_version": 99})
    assert main(["stokes", "--config", cfg]) == EXIT_USAGE


def test_missing_subcommand_is_usage():
    assert main([]) == EXIT_USAGE


def test_counterexample_refusal_exit_code(tmp_path):
    cfg = _write_config(tmp_path, "x.json", {
        "current": {"kind": "counterexample", "a": 1 / 3, "h": 1 / 3, "lambda_inverse": 2}
    })
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == EXIT_UNDECIDED


def test_cylindrical_experimental_report(tmp_path):
    cfg = _write_config(tmp_path, "cyl.json", {
        "cylindrical": True,
        "n_strips": 4,
    })
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "experimental"
    assert abs(report["circulation"] - 1.0) < 1e-6


def test_stalled_quadrature_is_a_resource_exit(tmp_path):
    # the ball indicator around a point on the graph is discontinuous, so the
    # adaptive chart quadrature runs out of panels
    cfg = _write_config(tmp_path, "m.json", {
        "current": {"kind": "parabolic_graph"},
        "exceptional_set": {"kind": "point", "at": [0.5, 0.5, 0.25]},
    })
    assert main(["minkowski", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_RESOURCE
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["status"] == "resource"


def test_eta_above_cube_regularity_is_refused(tmp_path, capsys):
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "unit_square"},
        "gauge": {"kind": "constant", "value": 0.1},
        "epsilon": 1e-3,
        "eta": 0.5,
    })
    assert main(["cousin", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "not below the cube regularity" in capsys.readouterr().err


@pytest.mark.parametrize("current, form", [("unit_square", "xz_dy"), ("parabolic_graph", "x_dy")])
def test_form_and_current_dimensions_must_agree(tmp_path, capsys, current, form):
    # a 3-dimensional form on a planar current used to end in an IndexError (exit 1)
    cfg = _write_config(tmp_path, "d.json", {"current": {"kind": current}, "form": {"kind": form}})
    assert main(["stokes", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "the current in R^" in capsys.readouterr().err


def test_a_form_of_the_wrong_degree_is_refused_before_any_integral(tmp_path, capsys,
                                                                   monkeypatch):
    # a 1-form on the 3-dimensional unit cube computed the left side first and then
    # exited 64 with "boundary curves are only provided in the plane"
    from stokeslab import integration

    def no_integral(*args, **kwargs):
        raise AssertionError("stokes_check ran")

    monkeypatch.setattr(integration, "stokes_check", no_integral)
    cfg = _write_config(tmp_path, "d.json", {"current": {"kind": "cube_set", "region": {
        "root": {"corner": [0.0, 0.0, 0.0], "side": 1.0},
        "cubes": [{"generation": 0, "corner": [0, 0, 0]}]}}, "form": {"kind": "xz_dy"}})
    out = tmp_path / "out"
    assert main(["stokes", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "form 'x z dy' has degree 1" in err and "is 3-dimensional and takes degree 2" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["stokes", "counterexample"])
def test_refused_parameters_exit_alike_in_every_subcommand(tmp_path, command):
    # h * a / lambda = 1.2 breaks the area condition; stokes used to exit 64
    cfg = _write_config(tmp_path, "a.json", {
        "current": {"kind": "counterexample", "a": 0.9},
        "form": {"kind": "counterexample_omega"},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_UNDECIDED
    assert json.loads((out / "report.json").read_text())["status"] == "refused"


@pytest.mark.parametrize("command", ["stokes", "counterexample"])
def test_zero_lambda_inverse_is_refused(tmp_path, command):
    # 1 / lambda_inverse used to raise ZeroDivisionError before Params saw it (exit 1)
    cfg = _write_config(tmp_path, "z.json", {
        "current": {"kind": "counterexample", "lambda_inverse": 0},
        "form": {"kind": "counterexample_omega"},
    })
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_UNDECIDED
    assert json.loads((out / "report.json").read_text())["status"] == "refused"


@pytest.mark.parametrize("payload, message", [
    ({"panels_per_osc": 0}, "panels_per_osc must be at least 1, not 0"),
    ({"tail_cut": 2}, "tail_cut must be a number strictly between 0 and 1, not 2"),
    ({"tail_cut": 0.0}, "tail_cut must be a number strictly between 0 and 1, not 0.0"),
    ({"tail_cut": "1e-9"}, "tail_cut must be a number strictly between 0 and 1, not '1e-9'"),
    ({"n_tangent_samples": 0}, "n_tangent_samples must be at least 1, not 0"),
    ({"n_strips": -1}, "n_strips must lie in [0, 60], the strips of the model's table, not -1"),
    ({"cylindrical": True, "n_strips": 70}, "n_strips must lie in [0, 60]"),
    ({"cylindrical": "false"}, "cylindrical must be true or false, not 'false'"),
    ({"cylindrical": 1}, "cylindrical must be true or false, not 1"),
    ({"cylindrical": None}, "cylindrical must be true or false, not None"),
])
def test_counterexample_options_out_of_range_are_usage_errors(tmp_path, capsys, payload, message):
    # panels_per_osc 0 and the polar n_strips 70 used to end in a
    # ZeroDivisionError and an IndexError (exit 70), tail_cut 2 ran to exit 1
    # and n_strips -1 to exit 0; cylindrical was read by truthiness, so
    # "false" ran the polar ladder to exit 0
    cfg = _write_config(tmp_path, "r.json", payload)
    assert main(["counterexample", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    {"tail_cut": 1e-40},
    {"current": {"kind": "counterexample", "a": 0.9, "h": 0.26}},
])
def test_tail_cut_past_the_strip_table_is_refused(tmp_path, payload):
    # the strips that the tail cut needs (85 and 264 here) lie past the
    # model's table of 60: an IndexError (exit 70) after the circulation ran
    cfg = _write_config(tmp_path, "t.json", payload)
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == EXIT_UNDECIDED
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "refused" and "past the 60 of the strip table" in report["reason"]


def test_unexpected_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def broken(config):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._SUBCOMMANDS, "slice", (broken, "always raises"))
    assert main(["slice", "--out", str(tmp_path / "out")]) == EXIT_INTERNAL == 70
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("command, payload, key", [
    ("counterexample", {"current": {"kind": "counterexample", "lambda_inverse": 4.5}},
     "lambda_inverse"),
    ("saks-henstock", {"current": {"kind": "unit_square"}, "max_j": 2.5}, "max_j"),
])
def test_fractional_integer_value_is_usage_error(tmp_path, capsys, command, payload, key):
    # int() used to truncate: lambda_inverse 4.5 ran as lambda = 1/4 (exit 0)
    cfg = _write_config(tmp_path, "f.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_integral_float_is_accepted_as_integer(tmp_path):
    cfg = _write_config(tmp_path, "i.json", {"current": {"kind": "unit_square"}, "max_j": 2.0})
    assert main(["saks-henstock", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
    curve = json.loads((tmp_path / "out" / "report.json").read_text())["curve"]
    assert [row["j"] for row in curve] == [0, 1, 2]


@pytest.mark.parametrize("command, payload, status", [
    ("counterexample", {"current": {"kind": "counterexample", "lambda_inverse": 0}}, "refused"),
    ("minkowski", {"current": {"kind": "parabolic_graph"},
                   "exceptional_set": {"kind": "point", "at": [0.5, 0.5, 0.25]}}, "resource"),
])
def test_unwritable_stop_report_is_an_internal_error(tmp_path, capsys, command, payload, status):
    # a stop report under a regular file used to end in a traceback (exit 1)
    cfg = _write_config(tmp_path, "s.json", payload)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main([command, "--config", cfg, "--out", str(blocker / "out")]) == EXIT_INTERNAL
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"{status}: ")
    assert [line for line in err if line.startswith("internal error: ")] == err[-1:]


def test_depth_stop_during_excision_is_a_resource_exit(tmp_path, capsys):
    # every radius down to the retry limit stops at the depth cap, so the run
    # ends on that stop instead of a refusal (exit 2)
    cfg = _write_config(tmp_path, "e.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": {"kind": "point", "at": [0.5, 0.5]},
        "gauge": {"kind": "constant", "value": 0.3},
        "epsilon": 1e-18,
    })
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_RESOURCE
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "resource"
    assert "past generation 26" in report["reason"]


def test_excision_retries_a_smaller_radius_after_a_depth_stop(tmp_path, monkeypatch):
    # at r0 = 7.6e-7 the ball holds 1.83e-12 of eps = 1.9e-12, so the dropped
    # layer cannot fit the rest by generation 26; at r0/2 the ball mass falls
    # about 4x and the layer fits
    from stokeslab import cousin
    from stokeslab.dyadic import DepthError

    depth_stops = []
    excise = cousin.excise

    def logged(*args, **kwargs):
        try:
            return excise(*args, **kwargs)
        except DepthError as exc:
            depth_stops.append(exc)
            raise

    monkeypatch.setattr(cousin, "excise", logged)
    cfg = _write_config(tmp_path, "e.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": {"kind": "point", "at": [0.5, 0.5]},
        "gauge": {"kind": "constant", "value": 0.3},
        "epsilon": 1.9e-12,
    })
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(depth_stops) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "decomposed"
    assert report["certificates_pass"]


def test_over_budget_cousin_run_exits_promptly(tmp_path):
    # a constant gauge of 1e-3 needs about 4.2M pieces of the unit square
    # against the 50,000-piece budget; the run must stop, not build them all
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "unit_square"},
        "gauge": {"kind": "constant", "value": 1e-3},
    })
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "stokeslab.cli", "cousin", "--config", cfg,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == EXIT_RESOURCE
    assert "decomposition exceeded the piece budget (50000)" in proc.stderr


def test_the_cli_runs_the_counterexample_without_scipy(tmp_path):
    # scipy.stats fitted one slope and scipy.interpolate one spline; the
    # package now computes both, so scipy waits for a large cube set's hull
    cfg = _write_config(tmp_path, "c.json", {"n_strips": 3, "n_tangent_samples": 5})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys\n"
        "from stokeslab import cli\n"
        "from stokeslab.counterexample import default_transition\n"
        "default_transition()\n"
        f"code = cli.main(['counterexample', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env, check=True)
    assert proc.stdout.split(maxsplit=1) == [str(EXIT_OK), "[]\n"]
    assert (tmp_path / "out" / "strips.csv").exists()


def test_three_dimensional_point_excision_stops_at_the_cube_cap(tmp_path):
    # the 3-D ball sandwich around a point would refine some 10^7 cubes a round;
    # it ran for minutes and past 5 GB before refine capped its rounds
    point = {"kind": "point", "at": [0.5, 0.5, 0.5]}
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "cube_set", "region": {
            "root": {"corner": [0.0, 0.0, 0.0], "side": 1.0},
            "cubes": [{"generation": 0, "corner": [0, 0, 0]}]}},
        "exceptional_set": point,
        "gauge": {"kind": "distance", "to": point, "scale": 0.5, "cap": 0.2},
        "epsilon": 0.05,
    })
    src = str(Path(__file__).resolve().parents[1] / "src")
    # one BLAS thread, so that the address-space cap measures the refine and not
    # the stacks and buffers of a thread pool sized to the host
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{limit}; from stokeslab.cli import main; raise SystemExit(main())",
         "cousin", "--config", cfg, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == EXIT_RESOURCE, proc.stderr
    assert "over the cap" in proc.stderr


FLAT_XZ_DY = {"current": {"kind": "flat_graph"}, "form": {"kind": "xz_dy"}}


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
def test_stokes_refuses_a_tolerance_that_is_not_finite_and_positive(tmp_path, capsys, tol):
    # the identity holds here, yet -1 and nan used to exit 1 and inf held on any data
    cfg = _write_config(tmp_path, "t.json", FLAT_XZ_DY)
    out = tmp_path / "out"
    assert main(["stokes", "--config", cfg, "--out", str(out), "--tol", tol]) == EXIT_USAGE
    assert "tol must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [True, "1e-3"])
def test_stokes_refuses_a_tolerance_that_is_not_a_number(tmp_path, capsys, tol):
    # true used to count as a tolerance of 1
    cfg = _write_config(tmp_path, "t.json", {**FLAT_XZ_DY, "tol": tol})
    assert main(["stokes", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert "tol must be a finite positive number" in capsys.readouterr().err


def test_stokes_accepts_a_finite_positive_tolerance(tmp_path):
    cfg = _write_config(tmp_path, "t.json", FLAT_XZ_DY)
    out = tmp_path / "out"
    assert main(["stokes", "--config", cfg, "--out", str(out), "--tol", "1e-6"]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["tolerance"] == 1e-6


@pytest.mark.parametrize("options, message", [
    ([1, 2], "surface_options must be an object with keys among"),
    ({"x_panel": 3}, "not {'x_panel': 3}"),
    ({"y_panels": -1}, "surface_options y_panels must be at least 1"),
    ({"x_panels": 0}, "surface_options x_panels must be at least 1"),
    ({"order": 0}, "surface_options order must be at least 1"),
    ({"max_strip": -1}, "surface_options max_strip must be at least 0"),
    ({"order": 2.5}, "order must be an integer"),
    ({"y_panels": True}, "y_panels must be an integer"),
])
def test_stokes_refuses_bad_surface_options(tmp_path, capsys, options, message):
    # a list used to end in an AttributeError (exit 70); the rest ran silently to exit 1
    cfg = _write_config(tmp_path, "o.json", {
        "current": {"kind": "counterexample"},
        "form": {"kind": "counterexample_omega"},
        "surface_options": options,
    })
    assert main(["stokes", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, config, key", [
    ("stokes", {"current": {"kind": "unit_square"}, "form": {"kind": "counterexample_omega"}},
     "counterexample_omega"),
    *((command, {"current": {"kind": "parabolic_graph"},
                 "exceptional_set": {"kind": "singular_set"}}, "singular_set")
      for command in ("minkowski", "cousin")),
])
def test_own_forms_and_singular_sets_of_other_kinds_are_usage_errors(tmp_path, capsys, command,
                                                                     config, key):
    # only the counterexample current carries a form and a singular set of its own
    cfg = _write_config(tmp_path, "k.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and key in err
    assert not (tmp_path / "out").exists()


def test_integral_surface_options_are_accepted(tmp_path):
    cfg = _write_config(tmp_path, "o.json", {
        **FLAT_XZ_DY, "surface_options": {"max_strip": 0, "order": 4.0, "x_panels": 1},
    })
    assert main(["stokes", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK


@pytest.mark.parametrize("epsilon", [float("nan"), -1, 0, float("inf"), True])
def test_cousin_refuses_a_budget_that_is_not_finite_and_positive(tmp_path, capsys, epsilon):
    # nan used to certify any family (exit 0), since no remainder is ever >= nan;
    # -1 and 0 were refused by the engine (exit 2), as if the current were at fault
    cfg = _write_config(tmp_path, "e.json", {"current": {"kind": "unit_square"},
                                             "epsilon": epsilon})
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert "epsilon must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"eps1": float("nan")}, "eps1 must be a finite positive number"),
    ({"eps1": -1}, "eps1 must be a finite positive number"),
    ({"eps1": float("inf")}, "eps1 must be a finite positive number"),
    ({"max_j": -2}, "max_j must be at least 0, not -2"),
])
def test_saks_henstock_refuses_a_bad_budget_or_curve(tmp_path, capsys, payload, message):
    # each used to exit 1, "fails"; max_j -2 ran an empty curve
    cfg = _write_config(tmp_path, "s.json", {"current": {"kind": "unit_square"}, **payload})
    out = tmp_path / "out"
    assert main(["saks-henstock", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"eta": float("nan")}, "regularity thresholds are finite and nonnegative, not nan"),
    ({"eta": float("inf")}, "regularity thresholds are finite and nonnegative, not inf"),
    ({"gauge": {"kind": "constant", "value": float("nan")}},
     "constant gauges must be positive and finite, not nan"),
    ({"gauge": {"kind": "constant", "value": float("inf")}},
     "constant gauges must be positive and finite, not inf"),
    ({"gauge": {"kind": "distance", "to": {"kind": "point", "at": [0.5, 0.5]},
                "cap": float("nan")}}, "constant gauges must be positive and finite, not nan"),
])
def test_cousin_refuses_a_threshold_or_gauge_that_is_not_finite(tmp_path, capsys, payload,
                                                                message):
    # eta nan used to exit 1, failing every regularity check of the certificate,
    # and a constant gauge of value nan exited 3
    cfg = _write_config(tmp_path, "c.json", {"current": {"kind": "unit_square"}, **payload})
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, key", [
    ({"r0": -1}, "r0"), ({"r0": 0}, "r0"), ({"r0": float("nan")}, "r0"),
    ({"r0": float("inf")}, "r0"), ({"r0": True}, "r0"), ({"q": float("nan")}, "q"),
    ({"q": -0.5}, "q"),
])
def test_minkowski_refuses_a_grid_that_is_not_finite_and_positive(tmp_path, capsys, grid, key):
    # r0 -1 used to exit 0 with accepted: true and trend VANISHING, from a profile
    # on negative radii, and r0 nan exited 2 with an all-nan profile
    cfg = _write_config(tmp_path, "m.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": {"kind": "point", "at": [0.5, 0.5]},
        "grid": grid,
    })
    out = tmp_path / "out"
    assert main(["minkowski", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert f"{key} must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_excision_run_builds_no_cube_object_outside_the_certifier(tmp_path, monkeypatch):
    # the excise_segment benchmark run: cube sets are arrays from the excision to
    # the Cousin table, where this run used to build 6,137 DyadicCube objects
    segment = {"kind": "segment", "from": [0.5, 0], "to": [0.5, 1]}
    cfg = _write_config(tmp_path, "c.json", {
        "current": {"kind": "unit_square"},
        "exceptional_set": segment,
        "gauge": {"kind": "distance", "to": segment, "scale": 0.5, "cap": 0.2},
        "epsilon": 5e-2,
    })
    built = {"engine": 0, "certifier": 0}
    checking = [False]
    init, check = cube_refs.DyadicCube.__post_init__, certify.check_family

    def counted(self):
        built["certifier" if checking[0] else "engine"] += 1
        init(self)

    def checked(*args, **kwargs):
        checking[0] = True
        try:
            return check(*args, **kwargs)
        finally:
            checking[0] = False

    monkeypatch.setattr(cube_refs.DyadicCube, "__post_init__", counted)
    monkeypatch.setattr(certify, "check_family", checked)
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out), "--seed", "1"]) == EXIT_OK
    assert json.loads((out / "report.json").read_text())["summary"]["pieces"] > 1000
    assert built["engine"] == 0


POINT = {"kind": "point", "at": [0.5, 0.5]}


def _cube_region(corner, generation, index):
    return {"kind": "cube_set", "region": {"root": {"corner": corner, "side": 1.0},
                                           "cubes": [{"generation": generation, "corner": index}]}}


@pytest.mark.parametrize("command, payload, message", [
    ("minkowski", {"exceptional_set": {"kind": "point", "at": [float("nan"), 0.5]}},
     "element (nan, 0.5), (nan, 0.5) needs finite coordinates"),
    ("cousin", {"exceptional_set": {"kind": "segment", "from": [0.5, 0.0],
                                    "to": [0.5, float("inf")]}},
     "element (0.5, 0.0), (0.5, inf) needs finite coordinates"),
    ("cousin", {"current": _cube_region([float("nan"), 0.0], 0, [0, 0])},
     "root box corner (nan, 0.0) and side 1.0 must be finite"),
    ("cousin", {"exceptional_set": POINT, "gauge": {"kind": "distance", "to": POINT,
                                                     "scale": float("nan")}},
     "not scale nan and offset 0.0"),
    ("cousin", {"current": _cube_region([0.0, 0.0], 40, [2 ** 70 - 1, 0])},
     f"cube generation or index {2 ** 70 - 1} does not fit in int64"),
    ("minkowski", {"exceptional_set": POINT, "grid": {"steps": 1}},
     "steps must be at least 3, not 1"),
    ("minkowski", {"exceptional_set": POINT, "grid": {"steps": 2}},
     "steps must be at least 3, not 2"),
    ("slice", {"grid": {"steps": 0}}, "steps must be at least 2, not 0"),
    ("slice", {"grid": {"steps": 1}}, "steps must be at least 2, not 1"),
    ("saks-henstock", {"polynomial": [1, 2]}, "polynomial must be an object of finite numbers"),
    ("saks-henstock", {"polynomial": {"x": float("nan")}}, "not {'x': nan}"),
    ("saks-henstock", {"polynomial": {"x": True}}, "not {'x': True}"),
    ("saks-henstock", {"polynomial": {"z": 1.0}}, "with keys among x, y, xx and const"),
])
def test_non_finite_geometry_and_counts_out_of_range_are_usage_errors(tmp_path, capsys, command,
                                                                       payload, message):
    # the nan point exited 0 with accepted: true and an all-zero profile, the
    # infinite segment and the nan scale exited 3 on the piece budget, the nan
    # corner exited 1 and the index past int64 exited 70 on an OverflowError;
    # one minkowski radius exited 0 with a BOUNDED verdict, no slice radius exited
    # 0 with an empty table, a list of coefficients exited 70 and a nan one 3
    cfg = _write_config(tmp_path, "c.json", {"current": {"kind": "unit_square"}, **payload})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, message", [
    ({"exceptional_set": {"kind": "point", "at": 5}},
     "exceptional_set at must be a list of numbers, not 5"),
    ({"exceptional_set": {"kind": "point"}},
     "exceptional_set at must be a list of numbers, not None"),
    ({"exceptional_set": {"kind": "segment", "from": [0.5, 0.0], "to": "up"}},
     "exceptional_set to must be a list of numbers, not 'up'"),
    ({"current": {"kind": "cube_set", "region": 5}}, "current region must be an object, not 5"),
    ({"current": {"kind": "cube_set"}}, "current region must be an object, not None"),
    ({"current": {"kind": "cube_set", "region": {"root": 5, "cubes": []}}},
     "current region root must be an object, not 5"),
    ({"current": {"kind": "cube_set", "region": {"root": {"corner": [0.0, 0.0], "side": 1.0},
                                                 "cubes": [{"generation": 0}]}}},
     "current region cubes[0] corner must be a list of numbers, not None"),
    ({"current": {"kind": "cube_set", "region": {"root": {"corner": [0.0, 0.0], "side": -1},
                                                 "cubes": []}}},
     "current region root side must be a finite positive number, not -1"),
    ({"current": _cube_region([0.0, 0.0], 1, [2, 0])},
     "current region cubes: index (2, 0) outside the root box at generation 1"),
    ({"current": _cube_region([0.0, 0.0], 1.5, [0, 0])},
     "current region cubes[0] generation must be an integer, not 1.5"),
    ({"current": _cube_region([0.0, 0.0], 1, [0.5, 0])},
     "current region cubes[0] corner 0 must be an integer, not 0.5"),
    ({"current": _cube_region(["0.5", 0.0], 0, [0, 0])},
     "current region root corner 0 must be a number, not '0.5'"),
    ({"gauge": {"kind": "constant", "value": 0}},
     "gauge value: constant gauges must be positive and finite, not 0.0"),
    ({"exceptional_set": POINT, "gauge": {"kind": "distance", "scale": 0}},
     "gauge scale and offset: distance gauges need a finite scale > 0"),
    ({"eta": -1}, "eta: regularity thresholds are finite and nonnegative, not -1.0"),
    ({"exceptional_set": {"kind": "box", "lo": [0.6, 0.5], "hi": [0.4, 0.5]}},
     "exceptional_set lo and hi: element (0.6, 0.5), (0.4, 0.5) needs finite coordinates "
     "with lo <= hi"),
])
def test_a_malformed_point_or_region_is_a_usage_error_naming_its_key(tmp_path, capsys, payload,
                                                                     message):
    # each exited 64 naming no key: "'int' object is not iterable", "'at'",
    # "'int' object is not subscriptable", "'corner'", "root box side must be
    # positive", and the library constructors' messages without their keys; a
    # generation of 1.5, a corner index of 0.5 and a root corner of "0.5" exited 0,
    # read as 1, 0 and 0.5
    cfg = _write_config(tmp_path, "c.json", {"current": {"kind": "unit_square"}, **payload})
    out = tmp_path / "out"
    assert main(["cousin", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("generation", [40, 41, 1075])
def test_a_cube_past_the_finest_generation_is_a_usage_error(tmp_path, capsys, generation):
    # generation 41 exited 0 with HOLDS, and at 1075 the side underflowed to 0
    # and the run held with lhs = rhs = 0; the set algebra refines to generation 40
    cfg = _write_config(tmp_path, "c.json", {"current": _cube_region([0.0, 0.0], generation,
                                                                     [0, 0])})
    out = tmp_path / "out"
    code = main(["stokes", "--config", cfg, "--out", str(out)])
    if generation <= 40:
        assert code == EXIT_OK
        return
    assert code == EXIT_USAGE
    assert (f"current region cubes[0] generation must lie in [0, 40], the generations of the "
            f"dyadic engine, not {generation}") in capsys.readouterr().err
    assert not out.exists()
