"""Experiment runner: every verification pipeline as a subcommand.

Each run is a pure function of its JSON config (plus --seed/--tol/--out
overrides) and writes report.json and CSV tables to the output directory.

Exit codes: 0 identity holds / all checks pass, 1 fails, 2 undecided or
refused, 3 resource exhausted, 64 usage error, 70 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401 -- loaded here, not lazily inside the first run's seed

from .counterexample import ParamsError
from .cousin import DecompositionRefusal, ResourceBudgetError
from .dyadic import DepthError
from .quadrature import QuadratureError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64  # EX_USAGE
EXIT_INTERNAL = 70  # EX_SOFTWARE: an unexpected exception, never reported as 1


class UsageError(ValueError):
    pass


def _load_config(args) -> dict:
    if args.config is None:
        config = {}
    else:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    version = config.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version}")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tol is not None:
        config["tol"] = args.tol
    config.setdefault("seed", 0)
    config["out_dir"] = args.out or config.get("out_dir", "out")
    return config


def _integer(desc: dict, key: str, default: int, least: float = -math.inf) -> int:
    """desc[key] as an int, at least least; a fractional or non-numeric value is a usage error."""
    value = desc.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise UsageError(f"{key} must be an integer, not {value!r}")
    if value < least:
        raise UsageError(f"{key} must be at least {least}, not {value}")
    return value


def _positive(config: dict, key: str, default=None):
    """config[key], a finite positive number and not a bool; anything else is a usage error."""
    value = config.get(key, default)
    if not (type(value) in (int, float) and 0.0 < value < math.inf):
        raise UsageError(f"{key} must be a finite positive number, not {value!r}")
    return value


def _surface_options(config: dict) -> dict:
    """config["surface_options"] as integers, each at or above its least value."""
    desc = config.get("surface_options", {})
    least = {"max_strip": 0, "y_panels": 1, "x_panels": 1, "order": 1}
    if not isinstance(desc, dict) or not set(desc) <= set(least):
        raise UsageError(f"surface_options must be an object with keys among "
                         f"{', '.join(least)}, not {desc!r}")
    options = {key: _integer(desc, key, 0) for key in desc}
    for key, value in options.items():
        if value < least[key]:
            raise UsageError(f"surface_options {key} must be at least {least[key]}, not {value}")
    return options


def _build_current(desc: dict):
    from .counterexample import Params, build_surface_current
    from .currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
    from .dyadic import CubeSet, RootBox

    kind = desc.get("kind", "unit_square")
    theta = _integer(desc, "theta", 1)
    if kind == "unit_square":
        return TopDimCurrent(CubeSet.whole(RootBox((0.0, 0.0), 1.0)), theta)
    if kind == "cube_set":
        return TopDimCurrent(CubeSet.from_json(json.dumps(desc["region"])), theta)
    if kind == "flat_graph":
        w = float(desc.get("width", math.pi))
        h = float(desc.get("height", 0.5))
        zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        chart = ChartMap(psi=zeros, dpsi_dx=zeros, dpsi_dy=zeros, lip_upper=1.0, name="flat")
        return ChartCurrent(Rect(0.0, w, 0.0, h), chart, theta)
    if kind == "parabolic_graph":
        scale = float(desc.get("scale", 0.25))
        side = float(desc.get("side", 1.0))
        lip = math.sqrt(1.0 + (2 * scale * side) ** 2 + scale ** 2)
        chart = ChartMap(
            psi=lambda x, y: scale * (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)),
            dpsi_dx=lambda x, y: 2.0 * scale * np.asarray(x, dtype=float),
            dpsi_dy=lambda x, y: scale * np.ones_like(np.asarray(x, dtype=float)),
            lip_upper=lip, name="parabolic",
        )
        return ChartCurrent(Rect(0.0, side, 0.0, side), chart, theta)
    if kind == "counterexample":
        params = _params_from(desc)
        return build_surface_current(params)
    raise UsageError(f"unknown current kind {kind!r}")


def _params_from(desc: dict):
    from .counterexample import Params

    a = float(desc.get("a", 1.0 / 3.0))
    h = float(desc.get("h", 1.0 / 3.0))
    lam_inv = _integer(desc, "lambda_inverse", 4)
    if lam_inv < 1:
        raise ParamsError("lambda_inverse must be a positive integer")
    return Params(a=a, h=h, lam=1.0 / lam_inv)


def _build_form(desc: dict, current=None):
    from . import forms

    kind = desc.get("kind", "x_dy")
    if kind == "x_dy":
        return forms.FormField(
            2, 1,
            evaluate=lambda p: forms.KCovector(2, 1, [0.0, p[0]]),
            differential=lambda p: forms.KCovector(2, 2, [1.0]),
            name="x dy",
        )
    if kind == "constant_dy":
        return forms.FormField(
            2, 1,
            evaluate=lambda p: forms.KCovector(2, 1, [0.0, 1.0]),
            differential=lambda p: forms.KCovector(2, 2, [0.0]),
            name="dy",
        )
    if kind == "xz_dy":
        return forms.FormField(
            3, 1,
            evaluate=lambda p: forms.KCovector(3, 1, [0.0, p[0] * p[2], 0.0]),
            differential=lambda p: forms.KCovector(3, 2, [p[2], 0.0, -p[0]]),
            name="x z dy",
        )
    if kind == "counterexample_omega":
        from .currents import SurfaceCurrent

        if not isinstance(current, SurfaceCurrent):
            raise UsageError("counterexample_omega needs a counterexample current")
        return current.model.omega_field()
    raise UsageError(f"unknown form kind {kind!r}")


def _build_exceptional(desc: dict, current=None):
    from .currents import SurfaceCurrent
    from .dyadic import ExceptionalSet

    kind = desc.get("kind", "empty")
    if kind == "empty":
        return ExceptionalSet.empty()
    if kind == "point":
        return ExceptionalSet.points([tuple(desc["at"])])
    if kind == "segment":
        return ExceptionalSet.segment(tuple(desc["from"]), tuple(desc["to"]))
    if kind == "box":
        return ExceptionalSet.box(tuple(desc["lo"]), tuple(desc["hi"]))
    if kind == "singular_set":
        if not isinstance(current, SurfaceCurrent):
            raise UsageError("singular_set refers to a counterexample current")
        return current.model.singular_set()
    raise UsageError(f"unknown exceptional-set kind {kind!r}")


def _build_gauge(desc: dict, E=None):
    from .cousin import Gauge

    kind = desc.get("kind", "constant")
    if kind == "constant":
        return Gauge.constant(float(desc.get("value", 0.4)))
    if kind == "distance":
        if E is None:
            E = _build_exceptional(desc["to"])
        g = Gauge.distance_to(E, float(desc.get("scale", 1.0)), float(desc.get("offset", 0.0)))
        if "cap" in desc:
            g = g.min_with(Gauge.constant(float(desc["cap"])))
        return g
    raise UsageError(f"unknown gauge kind {kind!r}")


# -- subcommands -------------------------------------------------------------


def run_cousin(config: dict) -> int:
    """Decompose a current into a fine, regular, full tagged family."""
    from . import certify, reports
    from .cousin import RegularityFn, SubadditiveFn, gauge_decompose

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    delta = _build_gauge(config.get("gauge", {"kind": "constant", "value": 0.4}), E)
    eta = RegularityFn.constant(float(config.get("eta", 0.05)))
    eps = float(_positive(config, "epsilon", 1e-3))
    G = SubadditiveFn.mass()
    family = gauge_decompose(T, E, delta, eta, G, eps)
    check = certify.check_family(family, delta, eta, G)
    reports.family_to_csv(family, out / "family.csv")
    reports.family_to_json(family, out / "pieces.json")
    reports.write_json(out / "report.json", {
        "status": "decomposed",
        "summary": family.summary(),
        "certificates_pass": check.passed,
        "violations": check.violations,
    })
    return EXIT_OK if check.passed else EXIT_FAIL


def run_stokes(config: dict) -> int:
    """Verify the boundary identity: integral of d(form) vs boundary circulation."""
    from . import integration, reports

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    omega = _build_form(config.get("form", {}), T)
    if omega.n != T.n:
        raise UsageError(f"form {omega.name!r} lives in R^{omega.n}, the current in R^{T.n}")
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    tol = None if config.get("tol") is None else _positive(config, "tol")
    report = integration.stokes_check(T, omega, E, tol=tol,
                                      surface_options=_surface_options(config))
    reports.write_json(out / "report.json", report.as_dict())
    if report.refinement_curve:
        reports.error_curve_to_csv(report.refinement_curve, out / "refinement.csv")
    if report.verdict == integration.HOLDS:
        return EXIT_OK
    if report.verdict == integration.FAILS:
        return EXIT_FAIL
    return EXIT_UNDECIDED


def run_counterexample(config: dict) -> int:
    """Demonstrate the failure surface: circulation 1 against vanishing curl."""
    from . import reports
    from .counterexample import cylindrical_variant, verify_failure

    out = Path(config["out_dir"])
    params = _params_from(config.get("current", config))
    options = _counterexample_options(config)
    if options.pop("cylindrical"):
        model = cylindrical_variant(params)
        areas = [dict(zip(("area", "bound"), model.annulus_area(k))) | {"k": k}
                 for k in range(0, options["n_strips"])]
        payload = {
            "status": "experimental",
            "circulation": model.boundary_circulation(),
            "sup_omega_per_circle": [
                {"k": k, "sup_omega": model.sup_omega_on_circle(k)}
                for k in range(1, options["n_strips"])
            ],
            "annulus_areas": areas,
        }
        reports.write_json(out / "report.json", payload)
        reports.write_csv(out / "annuli.csv", areas, ["k", "area", "bound"])
        return EXIT_OK
    report = verify_failure(params, seed=_integer(config, "seed", 0), **options)
    reports.write_json(out / "report.json", report)
    reports.write_csv(out / "strips.csv", report["strip_areas"],
                      ["k", "area", "bound", "section_length", "sup_omega",
                       "content_value", "partial_sum"])
    ok = (
        abs(report["circulation"]["value"] - 1.0) < 1e-3
        and report["tangential_curl"]["max"] < 1e-3
        and report["content_profile"]["trend"] == "DIVERGENT"
        and abs(report["boundary_mass"]["value"] - report["boundary_mass"]["expected"]) < 1e-6
    )
    return EXIT_OK if ok else EXIT_FAIL


def _counterexample_options(config: dict) -> dict:
    """The counterexample keys of config, each checked against its range.

    cylindrical must be a JSON boolean.  n_strips (default 8 on the polar
    ladder, else 12) must lie within the model's strip table; the polar run
    reads no other key.
    """
    from .counterexample import StripModel

    cylindrical = config.get("cylindrical", False)
    if not isinstance(cylindrical, bool):
        raise UsageError(f"cylindrical must be true or false, not {cylindrical!r}")
    options = {"cylindrical": cylindrical,
               "n_strips": _integer(config, "n_strips", 8 if cylindrical else 12)}
    if not 0 <= options["n_strips"] <= StripModel.K_TABLE:
        raise UsageError(f"n_strips must lie in [0, {StripModel.K_TABLE}], the strips of the "
                         f"model's table, not {options['n_strips']}")
    if cylindrical:
        return options
    for key, default in (("n_tangent_samples", 400), ("panels_per_osc", 8)):
        options[key] = _integer(config, key, default, least=1)
    tail_cut = options["tail_cut"] = config.get("tail_cut", 1e-12)
    if not (type(tail_cut) in (int, float) and 0.0 < tail_cut < 1.0):
        raise UsageError(f"tail_cut must be a number strictly between 0 and 1, not {tail_cut!r}")
    return options


def run_minkowski(config: dict) -> int:
    """Estimate the intrinsic content of a set relative to a current."""
    from . import minkowski, reports

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    grid = config.get("grid", {})
    r0 = float(_positive(grid, "r0", 0.2))
    q = float(_positive(grid, "q", 0.7))
    steps = _integer(grid, "steps", 12)
    evidence = minkowski.excisability_evidence(T, E, r0, q, steps)
    reports.write_json(out / "report.json", evidence.as_dict())
    if evidence.profile is not None:
        reports.profile_to_csv(evidence.profile, out / "profile.csv")
        reports.write_json(out / "certificate.json", {
            "C": evidence.constant,
            "grid": {"r0": r0, "q": q, "steps": steps},
            "rule": "tail ratios >= 1.1 diverge; tail spread <= 5% bounded",
        })
    return EXIT_OK if evidence.accepted else EXIT_UNDECIDED


def run_slice(config: dict) -> int:
    """Slice a current by the distance to a set and check the coarea bound."""
    from . import reports
    from .currents import coarea_slice_check

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    E = _build_exceptional(config.get("exceptional_set", {"kind": "point", "at": [0.5, 0.5]}), T)
    grid = config.get("grid", {})
    r_min = float(grid.get("r_min", 0.02))
    r_max = float(grid.get("r_max", 0.7))
    steps = _integer(grid, "steps", 24)
    radii = np.linspace(r_min, r_max, steps)
    result = coarea_slice_check(T, E, radii)
    reports.slice_table_to_csv(result["radii"], result["slice_masses"], out / "slices.csv")
    reports.write_json(out / "report.json", result)
    return EXIT_OK if result["bound_holds"] else EXIT_FAIL


def run_saks_henstock(config: dict) -> int:
    """Riemann sums on shrinking gauges against the quadrature oracle."""
    from . import integration, reports

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    coeffs = config.get("polynomial", {"x": 1.0})
    cx = float(coeffs.get("x", 0.0))
    cy = float(coeffs.get("y", 0.0))
    cxx = float(coeffs.get("xx", 0.0))
    c0 = float(coeffs.get("const", 0.0))

    def f(pts):
        return c0 + cx * pts[:, 0] + cy * pts[:, 1] + cxx * pts[:, 0] ** 2

    eps1 = float(_positive(config, "eps1", 1e-4))
    j_hi = _integer(config, "max_j", 6, least=0)
    result = integration.saks_henstock_test(f, T, eps1, j_range=range(0, j_hi + 1))
    reports.error_curve_to_csv(result["curve"], out / "curve.csv")
    reports.write_json(out / "report.json", result)
    return EXIT_OK if result["achieved"] else EXIT_FAIL


_SUBCOMMANDS = {
    "cousin": (run_cousin, "build a fine, regular, full tagged decomposition and re-verify its certificates"),
    "stokes": (run_stokes, "compare the integral of the exterior derivative with the boundary circulation"),
    "counterexample": (run_counterexample, "run the oscillating-surface demonstration: circulation 1, tangential curl 0, divergent content"),
    "minkowski": (run_minkowski, "profile ||T||(B(E,r))/(2r) and classify its trend"),
    "slice": (run_slice, "tabulate slice masses and check they integrate below the total mass"),
    "saks-henstock": (run_saks_henstock, "check Riemann sums over shrinking gauges converge to the quadrature oracle"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokeslab",
        description="Verification experiments for boundary identities on integral currents.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON experiment config")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


_PARSER = _parser()  # built with the module, so that no run pays for it


def main(argv=None) -> int:
    parser = _PARSER
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    runner, _ = _SUBCOMMANDS[args.command]
    try:
        config = _load_config(args)
        np.random.seed(config.get("seed", 0) % (2 ** 32))
        try:
            return runner(config)
        except (ParamsError, DecompositionRefusal) as exc:
            return _stopped(config, "refused", exc, EXIT_UNDECIDED)
        except (DepthError, ResourceBudgetError, QuadratureError) as exc:
            return _stopped(config, "resource", exc, EXIT_RESOURCE)
    except (KeyError, TypeError, ValueError) as exc:  # UsageError among them
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _stopped(config: dict, status: str, exc: Exception, code: int) -> int:
    """Report a run that was refused or ran out of a resource."""
    from . import reports

    print(f"{status}: {exc}", file=sys.stderr)
    reports.write_json(Path(config["out_dir"]) / "report.json",
                       {"status": status, "reason": str(exc)})
    return code


if __name__ == "__main__":
    sys.exit(main())
