"""Outside-in layer tracer for the stokeslab package.

The tracer times the calls into each module's public functions and methods
from outside the program: it replaces them with wrappers while installed
and restores the originals on ``uninstall``.  A function that other modules
re-import (``integrate_2d`` is also bound in ``integration``, ``minkowski``,
``certify`` and ``currents``) is rebound under every name that holds it, so
those calls are seen too.  ``__call__`` counts as public; properties,
generators and other dunder methods are left alone, so their time falls to
the calling span.

Each wrapped call is a span.  A layer's self time is the duration of its
spans minus the time of their child spans, kept on a span stack; so the
self times of all layers add up to the time spent inside any span.

A few calls also carry work counters (integrand calls, pieces, radii, ...)
that repeat exactly between runs of the same input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "stokeslab"
LAYERS = (
    "quadrature", "counterexample", "cousin", "certify", "dyadic",
    "minkowski", "currents", "integration", "forms", "reports",
)

# The private surface evaluator: its points are counted, but it is not a span.
_STRIP_DATA = "counterexample.SurfaceModel._strip_data"
_LENGTH_CALLS = {
    f"counterexample.SurfaceModel.{name}"
    for name in ("section_length", "partial_length", "dy_section_length", "dy_partial_length")
}


def _is_public(name: str) -> bool:
    return not name.startswith("_") or name == "__call__"


class LayerTracer:
    """Span-stack self times and work counters for the stokeslab layers."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self._restore: list[tuple[object, str, object]] = []
        # mutable cells that the wrappers hold: [self seconds, calls] per layer,
        # [calls, inclusive seconds, depth] per function, [seconds] at the root
        self._layers = {layer: [0.0, 0] for layer in LAYERS}
        self._functions: dict[str, list] = {}
        self._root = [0.0]
        self._stack: list[float] = []
        self.counts = defaultdict(int)
        self._seen_lengths: set = set()
        self._seen_errors: set = set()

    # -- recording ------------------------------------------------------------

    def reset(self):
        """Forget every span and counter recorded so far (between runs only)."""
        for cell in self._layers.values():
            cell[:] = [0.0, 0]
        for cell in self._functions.values():
            cell[:] = [0, 0.0, 0]
        self._root[0] = 0.0
        for container in (self._stack, self.counts, self._seen_lengths, self._seen_errors):
            container.clear()

    @property
    def root_s(self) -> float:
        """Time spent inside any span: the sum of every layer's self time."""
        return self._root[0]

    def _span(self, layer: str, qualname: str, fn):
        stack = self._stack
        root = self._root
        totals = self._layers[layer]
        own = self._functions.setdefault(qualname, [0, 0.0, 0])
        before = self._before_hook(qualname)
        after = self._after_hook(qualname)
        on_error = self._error_hook(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            own[2] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = perf_counter() - t0
                totals[0] += dt - stack.pop()
                totals[1] += 1
                own[0] += 1
                own[2] -= 1
                if not own[2]:
                    own[1] += dt  # outermost activation only, so recursion counts once
                if stack:
                    stack[-1] += dt
                else:
                    root[0] += dt
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(model, x, y):
            counts["counterexample.points"] += getattr(x, "size", 1)
            return fn(model, x, y)

        return wrapper

    # -- per-call work counters -------------------------------------------------

    def _before_hook(self, qualname: str):
        counts = self.counts
        if qualname in ("quadrature.integrate_1d", "quadrature.integrate_2d"):
            def count_integrand(args, kwargs):
                f = args[0]

                def counted(*coords):
                    counts["quadrature.integrand_calls"] += 1
                    counts["quadrature.points"] += getattr(coords[0], "size", 1)
                    return f(*coords)

                return (counted,) + args[1:], kwargs
            return count_integrand
        if qualname in _LENGTH_CALLS:
            seen = self._seen_lengths

            def note_argument(args, kwargs):
                key = (qualname, id(args[0])) + tuple(float(v) for v in args[1:])
                counts["counterexample.length_calls"] += 1
                if key in seen:
                    counts["counterexample.length_repeats"] += 1
                else:
                    seen.add(key)
                return args, kwargs
            return note_argument
        if qualname == "certify.check_family":
            def count_family(args, kwargs):
                counts["certify.pieces"] += len(args[0].pairs)
                return args, kwargs
            return count_family
        if qualname == "integration.riemann_sum":
            def count_pieces(args, kwargs):
                counts["integration.riemann_pieces"] += len(args[1].pairs)
                return args, kwargs
            return count_pieces
        return None

    def _after_hook(self, qualname: str):
        counts = self.counts
        if qualname in ("quadrature.integrate_1d", "quadrature.integrate_2d"):
            def count_panels(result):
                counts["quadrature.panels"] += result.panels
            return count_panels
        if qualname == "cousin.gauge_decompose":
            def count_pieces(family):
                counts["cousin.pieces"] += len(family.pairs)
            return count_pieces
        if qualname == "certify.check_family":
            def count_violations(report):
                counts["certify.violations"] += len(report.violations)
            return count_violations
        return None

    def _error_hook(self, qualname: str):
        counts = self.counts
        if qualname in ("quadrature.integrate_1d", "quadrature.integrate_2d"):
            error = self.modules["quadrature"].QuadratureError
            seen = self._seen_errors

            def count_error(exc):
                # a nested quadrature re-raises the same error: count it once
                if isinstance(exc, error) and id(exc) not in seen:
                    seen.add(id(exc))
                    counts["quadrature.errors"] += 1
            return count_error
        if qualname == "cousin.gauge_decompose":
            refusal = self.modules["cousin"].DecompositionRefusal

            def count_refusal(exc):
                if isinstance(exc, refusal):
                    counts["cousin.refusals"] += 1
            return count_refusal
        return None

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every public function and method of every layer module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif _is_public(name) and callable(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._span(layer, f"{layer}.{name}", obj)
        # rebind each wrapped function under every name that holds it
        owners = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in owners:
            for name, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._replace(module, name, obj, wrapper)

    def _wrap_class(self, layer: str, cls):
        for name, raw in list(vars(cls).items()):
            qualname = f"{layer}.{cls.__name__}.{name}"
            if qualname == _STRIP_DATA:
                self._replace(cls, name, raw, self._counted(raw))
                continue
            if not _is_public(name):
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if not inspect.isgeneratorfunction(fn):
                    self._replace(cls, name, raw, type(raw)(self._span(layer, qualname, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._replace(cls, name, raw, self._span(layer, qualname, raw))

    def _replace(self, owner, name: str, original, replacement):
        setattr(owner, name, replacement)
        self._restore.append((owner, name, original))

    def uninstall(self):
        """Put every original function and method back."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<metric>`` for what was recorded."""
        out: dict[str, float] = {}
        for layer, (self_s, calls) in self._layers.items():
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = calls
        c = self.counts
        for name in ("quadrature.integrand_calls", "quadrature.points", "quadrature.panels",
                     "quadrature.errors", "counterexample.points", "cousin.pieces",
                     "cousin.refusals", "certify.pieces", "certify.violations",
                     "integration.riemann_pieces"):
            out[name] = c[name]

        def calls(qualname):
            return self._functions.get(qualname, [0])[0]

        def seconds(qualname):
            return self._functions.get(qualname, [0, 0.0])[1]

        out["counterexample.omega_calls"] = calls("counterexample.SurfaceModel.omega_coeffs")
        out["counterexample.repeat_ratio"] = _ratio(c["counterexample.length_repeats"],
                                                    c["counterexample.length_calls"])
        out["dyadic.difference_s"] = seconds("dyadic.CubeSet.difference")
        out["cousin.pieces_per_s"] = _ratio(c["cousin.pieces"], seconds("cousin.gauge_decompose"))
        out["certify.pieces_per_s"] = _ratio(c["certify.pieces"], seconds("certify.check_family"))
        out["minkowski.radii"] = calls("minkowski.neighborhood_mass")
        out["minkowski.radii_per_s"] = _ratio(calls("minkowski.neighborhood_mass"),
                                              seconds("minkowski.neighborhood_mass"))
        out["forms.evals"] = calls("forms.FormField.__call__") + calls("forms.FormField.d")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
