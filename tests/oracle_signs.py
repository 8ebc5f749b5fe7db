"""Reference sign formulas that read the cocycle in other argument orders.

The program's sign of the empty rectangle r with label (a, b) out of x is
eps(r) * c(x, t), where t = x^-1 y is the plain transposition (a b), c the
cocycle of the double cover and eps(r) = -1 exactly for horizontally torn
rectangles.  The argument order follows the composition convention for
words, and these two formulas show that it matters:

* ``reversed_sign``: eps(r) * c(t, x^-1), the same construction with words
  read in the opposite order.  It is a genuine sign assignment, related to
  the program's by a 1-coboundary but not equal to it.
* ``swapped_sign``: eps(r) * c(t, x), the bare argument swap under this
  convention.  It fails the annulus axioms.

Both have the ``(x, label) -> +-1`` shape that ``check_sign_axioms`` and
``check_coboundary_equivalence`` take; the latter, the gauge search
between two sign assignments, lives here too.
"""
from __future__ import annotations

from dataclasses import dataclass

from gridspin.complexes import SignFn
from gridspin.grid import is_horizontally_torn
from gridspin.spin import cocycle, inverse_perm, transposition


def _eps(label):
    return -1 if is_horizontally_torn(label) else 1


def reversed_sign(x, label):
    return _eps(label) * cocycle(transposition(len(x), *label), inverse_perm(x))


def swapped_sign(x, label):
    return _eps(label) * cocycle(transposition(len(x), *label), x)


@dataclass
class CoboundaryResult:
    gauge: dict[tuple[int, ...], int] | None
    components: int
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.gauge is not None


def check_coboundary_equivalence(S1: SignFn, S2: SignFn, table: tuple[list, list]) -> CoboundaryResult:
    """Search for f with S1(r) = f(x) f(y) S2(r) on every empty rectangle
    of a ``gridspin.complexes.rectangle_table``.

    Propagates f over a spanning forest of the rectangle graph (one gauge
    choice per connected component) and then checks every edge, including
    parallel ones; a failed edge is returned as the witness.
    """
    gens, rects = table
    edges = [[(r[1], S1(x, r[0]) * S2(x, r[0])) for r in rs] for x, rs in zip(gens, rects)]
    f = [0] * len(gens)
    components = 0
    for start in range(len(gens)):
        if f[start]:
            continue
        components += 1
        f[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j, ratio in edges[i]:
                if not f[j]:
                    f[j] = f[i] * ratio
                    queue.append(j)
    for i, out in enumerate(edges):
        for j, ratio in out:
            if f[i] * f[j] != ratio:
                return CoboundaryResult(None, components, witness=(gens[i], gens[j], ratio, f[i], f[j]))
    return CoboundaryResult(dict(zip(gens, f)), components)
