"""Per-layer spans recorded from outside the program.

``Tracer`` wraps the public functions of each layer by rebinding every
module attribute of ``gridspin`` that refers to them, so calls made
through ``from .spin import _right_mul`` style imports are seen too.  A
span's self time is its duration minus the durations of the wrapped calls
made inside it.  Spans are aggregated per name as they close; keeping
every span would cost more memory than a traced n = 7 run uses itself.
"""
from __future__ import annotations

import sys
import time

# (span name, module, functions); a function missing from the program is
# skipped and its span reports zero
LAYERS = (
    ("cli", "gridspin.cli", ("main",)),
    ("homology.assembly", "gridspin.homology", ("bigraded_homology",)),
    ("homology.snf", "gridspin.homology", ("smith_normal_form",)),
    ("homology.hat", "gridspin.homology", ("hat_reduction",)),
    ("complexes.differential_terms", "gridspin.complexes", ("differential_terms",)),
    ("complexes.sign_axioms", "gridspin.complexes", ("check_sign_axioms",)),
    ("complexes.d_squared", "gridspin.complexes", ("d_squared_offenders",)),
    ("complexes.mod2", "gridspin.complexes", ("differential_minus", "unsigned_differential_mod2")),
    ("grid.empty_rectangles", "gridspin.grid", ("empty_rectangles",)),
    ("grid.realize_rectangle", "gridspin.grid", ("realize_rectangle",)),
    ("grid.gradings", "gridspin.grid", ("maslov", "alexander2")),
    ("spin.right_mul", "gridspin.spin", ("_right_mul",)),
    ("spin.cocycle", "gridspin.spin", ("cocycle",)),
)


class Span:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "total", "self_time", "max", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.max = 0.0
        self.counts: dict[str, int] = {}

    def count(self, key: str, k: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "s": self.total,
            "self_s": self.self_time,
            "max_s": self.max,
            "counts": dict(self.counts),
        }


def _gridspin_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "gridspin" or name.startswith("gridspin."))]


class Tracer:
    """Install with ``install()`` around the traced calls, remove with
    ``uninstall()``; the spans accumulate across installs."""

    def __init__(self) -> None:
        self.spans = {name: Span() for name, _, _ in LAYERS}
        self._stack: list[float] = []
        self.originals: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object, object]] = []
        hooks = self._hooks()
        modules = _gridspin_modules()
        for span_name, module_name, functions in LAYERS:
            module = sys.modules.get(module_name)
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                self.originals[fname] = original
                pre, post = hooks.get(fname, (None, None))
                wrapper = self._wrap(original, self.spans[span_name], pre, post)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bindings.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _wrap(self, fn, span: Span, pre, post):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = pre() if pre is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                span.calls += 1
                span.total += dt
                span.self_time += dt - inner
                if dt > span.max:
                    span.max = dt
            if post is not None:
                post(span, token, args, kwargs, result)
            return result

        return traced

    def _hooks(self) -> dict:
        rectangles = self.spans["grid.empty_rectangles"]

        def found(span, _token, _args, _kwargs, result):
            span.count("found", len(result))

        def rectangles_seen():
            return rectangles.counts.get("found", 0)

        def kept(span, before, args, kwargs, result):
            flavor = args[2] if len(args) > 2 else kwargs.get("flavor")
            if getattr(flavor, "name", None) == "TILDE_GRADED":
                span.count("tilde_kept", len(result))
                span.count("tilde_found", rectangles_seen() - before)

        def matrix(span, _token, args, kwargs, _result):
            A = args[0] if args else next(iter(kwargs.values()))
            span.count("nnz", len(getattr(A, "entries", ())))
            span.count("cells", getattr(A, "rows", 0) * getattr(A, "cols", 0))

        return {
            "empty_rectangles": (None, found),
            "differential_terms": (rectangles_seen, kept),
            "smith_normal_form": (None, matrix),
        }

    def right_mul_cache(self) -> tuple[int, int]:
        """(hits, misses) of the normal-form cache since it was last
        cleared; (0, 0) when the program keeps no such cache."""
        info = getattr(self.originals.get("_right_mul"), "cache_info", None)
        if info is None:
            return 0, 0
        ci = info()
        return ci.hits, ci.misses
