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
from .dyadic import MAX_GENERATION, DepthError
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


_REQUIRED = object()  # the default of a key that must be given


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
    version = _number(config, "schema_version", SCHEMA_VERSION, integer=True)
    if version != SCHEMA_VERSION:
        raise UsageError(f"unsupported schema_version {version}")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tol is not None:
        config["tol"] = args.tol
    config["seed"] = _number(config, "seed", 0, integer=True)
    config["out_dir"] = args.out or config.get("out_dir", "out")
    return config


def _object(desc, where: str) -> dict:
    """desc, which must be a JSON object, else a usage error naming where."""
    if not isinstance(desc, dict):
        raise UsageError(f"{where} must be an object, not {desc!r}")
    return desc


def _number(desc: dict, key, default=None, lo=None, hi=math.inf, *, integer=False,
            where: str = "", why: str = ""):
    """desc[key], or default where desc has no key: a JSON number, else a usage error naming key.

    A default of _REQUIRED is refused as the value None.  An integer may be written as an
    integral float and must lie in [lo, hi].  A real is returned as a float; given lo, it
    must be finite and lie in (lo, hi), and without lo the constructor it goes to checks
    it.  where names the object desc, why the bounds.
    """
    if key not in _object(desc, where) and default is not _REQUIRED:
        return default
    value, name = desc.get(key), f"{where} {key}".lstrip()
    if integer:
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int:
            raise UsageError(f"{name} must be an integer, not {value!r}")
        if lo is not None and not lo <= value <= hi:
            bound = f"be at least {lo}" if hi == math.inf else f"lie in [{lo}, {hi}]{why}"
            raise UsageError(f"{name} must {bound}, not {value}")
        return value
    rule = ("a number" if lo is None else f"a number strictly between {lo} and {hi}"
            if hi < math.inf else "a finite positive number" if lo == 0
            else "a finite number" if lo == -math.inf else f"a finite number above {lo}")
    try:  # an integer past the float range is no number
        number = float(value) if type(value) in (int, float) else None
    except OverflowError:
        number = None
    if number is None or lo is not None and not lo < number < hi:
        raise UsageError(f"{name} must be {rule}, not {value!r}")
    return number


def _point(desc: dict, key: str, where: str, **bounds) -> tuple:
    """desc[key], a list of JSON numbers each read with bounds; without bounds the caller
    checks that they are finite (ExceptionalSet does)."""
    if not isinstance(desc.get(key), list):
        raise UsageError(f"{where} {key} must be a list of numbers, not {desc.get(key)!r}")
    coords = dict(enumerate(desc[key]))
    return tuple(_number(coords, i, where=f"{where} {key}", **bounds) for i in coords)


def _keyed(where: str, build, *args):
    """build(*args), its ValueError a usage error naming where, the key of the args."""
    try:
        return build(*args)
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from None


def _surface_options(config: dict) -> dict:
    """config["surface_options"] as integers, each at or above its least value."""
    desc = config.get("surface_options", {})
    least = {"max_strip": 0, "y_panels": 1, "x_panels": 1, "order": 1}
    if not isinstance(desc, dict) or not set(desc) <= set(least):
        raise UsageError(f"surface_options must be an object with keys among "
                         f"{', '.join(least)}, not {desc!r}")
    return {key: _number(desc, key, lo=least[key], integer=True, where="surface_options")
            for key in desc}


def _build_current(desc: dict):
    from .counterexample import build_surface_current
    from .currents import ChartCurrent, ChartMap, Rect, TopDimCurrent
    from .dyadic import CubeSet, RootBox

    kind = _object(desc, "current").get("kind", "unit_square")
    theta = _number(desc, "theta", 1, integer=True)
    if kind == "unit_square":
        return TopDimCurrent(CubeSet.whole(RootBox((0.0, 0.0), 1.0)), theta)
    if kind == "cube_set":
        return TopDimCurrent(_cube_set(_object(desc.get("region"), "current region")), theta)
    if kind == "flat_graph":
        w = _number(desc, "width", math.pi, 0)
        h = _number(desc, "height", 0.5, 0)
        zeros = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        chart = ChartMap(zeros, lambda x, y: (zeros(x, y), zeros(x, y)), 1.0, "flat")
        return ChartCurrent(Rect(0.0, w, 0.0, h), chart, theta)
    if kind == "parabolic_graph":
        scale = _number(desc, "scale", 0.25, -math.inf)
        side = _number(desc, "side", 1.0, 0)
        try:
            lip = math.sqrt(1.0 + (2 * scale * side) ** 2 + scale ** 2)
        except OverflowError:
            lip = math.inf
        if lip == math.inf:
            raise UsageError(f"scale {scale!r} with side {side!r} overflows the Lipschitz bound")
        chart = ChartMap(
            psi=lambda x, y: scale * (np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float)),
            gradient=lambda x, y: (2.0 * scale * np.asarray(x, dtype=float),
                                   scale * np.ones_like(np.asarray(x, dtype=float))),
            lip_upper=lip, name="parabolic",
        )
        return ChartCurrent(Rect(0.0, side, 0.0, side), chart, theta)
    if kind == "counterexample":
        params = _params_from(desc)
        return build_surface_current(params)
    raise UsageError(f"unknown current kind {kind!r}")


def _cube_set(region: dict):
    """The cube set of a region {"root": {"corner", "side"}, "cubes": [{"generation", ...}]}."""
    from .dyadic import CubeSet, RootBox

    where, cubes = "current region root", region.get("cubes")
    root = _object(region.get("root"), where)
    corner, side = _point(root, "corner", where), _number(root, "side", _REQUIRED, 0, where=where)
    if not all(map(math.isfinite, corner)):
        raise UsageError(f"{where}: root box corner {corner} and side {side} must be finite")
    if not isinstance(cubes, list):
        raise UsageError(f"current region cubes must be a list of objects, not {cubes!r}")
    gen, index = [], []
    for k, cube in enumerate(cubes):
        at = f"current region cubes[{k}]"
        gen.append(_number(cube, "generation", _REQUIRED, 0, MAX_GENERATION, integer=True,
                           where=at, why=", the generations of the dyadic engine"))
        index.append(_point(cube, "corner", at, lo=0, integer=True))
    return _keyed("current region cubes", CubeSet.of, RootBox(corner, side), gen, index)


def _params_from(desc: dict):
    from .counterexample import Params

    a = _number(desc, "a", 1.0 / 3.0, -math.inf)
    h = _number(desc, "h", 1.0 / 3.0, -math.inf)
    lam_inv = _number(desc, "lambda_inverse", 4, integer=True)
    if lam_inv < 1:
        raise ParamsError("lambda_inverse must be a positive integer")
    try:
        lam = 1.0 / lam_inv
    except OverflowError:
        raise UsageError(f"lambda_inverse {lam_inv} is past the float range") from None
    return Params(a=a, h=h, lam=lam)


_FORMS = {  # kind: dimension, coefficient columns and those of the differential at x, name
    "x_dy": (2, lambda x: [0.0, x[0]], lambda x: [1.0], "x dy"),
    "constant_dy": (2, lambda x: [0.0, 1.0], lambda x: [0.0], "dy"),
    "xz_dy": (3, lambda x: [0.0, x[0] * x[2], 0.0], lambda x: [x[2], 0.0, -x[0]], "x z dy"),
}


def _columns(f):
    """The array field of f, which gives each column from the coordinate rows x of the points."""
    return lambda points: np.column_stack([np.broadcast_to(c, len(points)) for c in f(points.T)])


def _build_form(desc: dict, current=None):
    from . import forms

    kind = _object(desc, "form").get("kind", "x_dy")
    if kind in _FORMS:
        n, form, d, name = _FORMS[kind]
        return forms.FormField(n, 1, _columns(form), _columns(d), name=name)
    if kind == "counterexample_omega":
        from .currents import SurfaceCurrent

        if not isinstance(current, SurfaceCurrent):
            raise UsageError("counterexample_omega needs a counterexample current")
        return current.model.omega_field()
    raise UsageError(f"unknown form kind {kind!r}")


def _build_exceptional(desc: dict, current=None, where: str = "exceptional_set"):
    from .currents import SurfaceCurrent
    from .dyadic import ExceptionalSet

    kind = _object(desc, where).get("kind", "empty")
    if kind == "empty":
        return ExceptionalSet.empty()
    if kind == "point":
        return _keyed(f"{where} at", ExceptionalSet.points, [_point(desc, "at", where)])
    if kind == "segment":
        return _keyed(f"{where} from and to", ExceptionalSet.segment, _point(desc, "from", where),
                      _point(desc, "to", where))
    if kind == "box":
        return _keyed(f"{where} lo and hi", ExceptionalSet.box, _point(desc, "lo", where),
                      _point(desc, "hi", where))
    if kind == "singular_set":
        if not isinstance(current, SurfaceCurrent):
            raise UsageError("singular_set refers to a counterexample current")
        return current.model.singular_set()
    raise UsageError(f"unknown exceptional-set kind {kind!r}")


def _build_gauge(desc: dict, E, current):
    """The gauge of desc; a distance gauge measures the distance to its set "to", by default E."""
    from .cousin import Gauge

    kind = _object(desc, "gauge").get("kind", "constant")
    if kind == "constant":
        return _keyed("gauge value", Gauge.constant, _number(desc, "value", 0.4))
    if kind == "distance":
        to = _build_exceptional(desc["to"], current, "to") if "to" in desc else E
        g = _keyed("gauge scale and offset", Gauge.distance_to, to, _number(desc, "scale", 1.0),
                   _number(desc, "offset", 0.0))
        cap = _number(desc, "cap")
        return g if cap is None else g.min_with(_keyed("gauge cap", Gauge.constant, cap))
    raise UsageError(f"unknown gauge kind {kind!r}")


# -- subcommands -------------------------------------------------------------


def run_cousin(config: dict) -> int:
    """Decompose a current into a fine, regular, full tagged family."""
    from . import certify, reports
    from .cousin import RegularityFn, SubadditiveFn, gauge_decompose

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    delta = _build_gauge(config.get("gauge", {"kind": "constant", "value": 0.4}), E, T)
    eta = _keyed("eta", RegularityFn.constant, _number(config, "eta", 0.05))
    eps = _number(config, "epsilon", 1e-3, 0)
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
    if (omega.n, omega.k) != (T.n, T.m - 1):
        raise UsageError(f"form {omega.name!r} has degree {omega.k} and lives in R^{omega.n}, the "
                         f"current in R^{T.n} is {T.m}-dimensional and takes degree {T.m - 1}")
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    tol = _number(config, "tol", None, 0)
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
    params = _params_from(_object(config.get("current", config), "current"))
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
    report = verify_failure(params, seed=config["seed"], **options)
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
    """The counterexample keys of config, each checked; the polar run reads only n_strips."""
    from .counterexample import StripModel

    cylindrical = config.get("cylindrical", False)
    if not isinstance(cylindrical, bool):
        raise UsageError(f"cylindrical must be true or false, not {cylindrical!r}")
    options = {"cylindrical": cylindrical,
               "n_strips": _number(config, "n_strips", 8 if cylindrical else 12, 0,
                                   StripModel.K_TABLE, integer=True,
                                   why=", the strips of the model's table")}
    if cylindrical:
        return options
    return options | {
        "n_tangent_samples": _number(config, "n_tangent_samples", 400, 1, integer=True),
        "panels_per_osc": _number(config, "panels_per_osc", 8, 1, integer=True),
        "tail_cut": _number(config, "tail_cut", 1e-12, 0, 1),
    }


def run_minkowski(config: dict) -> int:
    """Estimate the intrinsic content of a set relative to a current."""
    from . import minkowski, reports

    out = Path(config["out_dir"])
    T = _build_current(config.get("current", {}))
    E = _build_exceptional(config.get("exceptional_set", {"kind": "empty"}), T)
    grid = config.get("grid", {})
    r0 = _number(grid, "r0", 0.2, 0, where="grid")
    q = _number(grid, "q", 0.7, 0, where="grid")
    if q >= 1.0:
        raise UsageError(f"grid q must be below 1, not {q!r}")
    # the profile runs on a nonempty set only, and its radii start below the support
    if not E.is_empty() and r0 >= (diameter := T.support_diameter()):
        raise UsageError(f"grid r0 must be below the support diameter {diameter}, not {r0!r}")
    steps = _number(grid, "steps", 12, 3, integer=True, where="grid")  # the tail _classify reads
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
    r_min = _number(grid, "r_min", 0.02, 0, where="grid")
    r_max = _number(grid, "r_max", 0.7, r_min, where="grid")
    steps = _number(grid, "steps", 24, 2, integer=True, where="grid")  # the trapezoid's fewest
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
    coeffs, terms = config.get("polynomial", {"x": 1.0}), ("x", "y", "xx", "const")
    try:
        if not (isinstance(coeffs, dict) and set(coeffs) <= set(terms)):
            raise UsageError
        cx, cy, cxx, c0 = (_number(coeffs, t, 0.0, -math.inf) for t in terms)
    except UsageError:
        raise UsageError(f"polynomial must be an object of finite numbers with keys among "
                         f"x, y, xx and const, not {coeffs!r}") from None

    def f(pts):
        return c0 + cx * pts[:, 0] + cy * pts[:, 1] + cxx * pts[:, 0] ** 2

    eps1 = _number(config, "eps1", 1e-4, 0)
    j_hi = _number(config, "max_j", 6, 0, integer=True)
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
        np.random.seed(config["seed"] % (2 ** 32))
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
