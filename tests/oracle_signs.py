"""The program's sign formula by the generic group law, and reference
formulas that read the cocycle in other argument orders.

The program's sign of the empty rectangle r with label (a, b) out of x is
(-1)^bit, for the central bit of s(x) * t(a, b) that its rectangle table
holds.  ``sign_assignment`` gives it in cocycle form, eps(r) * c(x, t),
where t = x^-1 y is the plain transposition (a b), c the cocycle of the
double cover computed by ``gridspin.spin.cocycle`` and eps(r) = -1 exactly
for horizontally torn rectangles.  The argument order follows the
composition convention for words, and two other formulas show that it
matters:

* ``reversed_sign``: eps(r) * c(t, x^-1), the same construction with words
  read in the opposite order.  It is a genuine sign assignment, related to
  the program's by a 1-coboundary but not equal to it.
* ``swapped_sign``: eps(r) * c(t, x), the bare argument swap under this
  convention.  It fails the annulus axioms.

Both have the ``x -> (label -> +-1)`` shape that ``signed_table`` and
``check_coboundary_equivalence`` take: ``signed_table`` writes a sign
function into the bits of a rectangle table, so that
``gridspin.complexes.check_sign_axioms`` checks it, and the latter is the
gauge search between two sign assignments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from gridspin import grid
from gridspin.spin import Label, cocycle, is_permutation, transposition
from oracle_chain import inverse_perm
from oracle_rectangles import cyclic_span

SignFn = Callable[[tuple[int, ...]], Callable[[Label], int]]  # x -> (label -> +-1)


def is_horizontally_torn(label: Label) -> bool:
    """The column span wraps through the right edge of the fundamental
    domain exactly when the label descends."""
    a, b = label
    return a > b


def _eps(label):
    return -1 if is_horizontally_torn(label) else 1


def sign_assignment(G: grid.GridDiagram, x: tuple[int, ...], label: Label) -> int:
    """Sign of the empty rectangle with the given label out of x, as
    eps(r) * c(x, t) by the generic group law.

    With this argument order the cocycle form matches right multiplication
    in the double cover, hence reproduces the minus differential exactly.
    Raises ValueError unless x is a generator of G and the label names an
    empty rectangle out of it.
    """
    x = tuple(x)
    n = G.n
    if len(x) != n or not is_permutation(x):
        raise ValueError(f"{x} is not a generator of a grid of size {n}")
    a, b = label
    if not (0 <= a < n and 0 <= b < n and a != b):
        raise ValueError(f"invalid label {label}")
    # empty iff every column strictly inside (a, b) has its point above the
    # height, by row offset from x[a] (the rule of empty_rectangles)
    h = (x[b] - x[a]) % n
    if any((x[c] - x[a]) % n < h for c in cyclic_span(a, b, n)[1:]):
        raise ValueError(f"rectangle {label} out of {x} is not empty")
    return _eps(label) * cocycle(x, transposition(n, a, b))


def reversed_sign(x):
    x_inv = inverse_perm(x)
    return lambda label: _eps(label) * cocycle(transposition(len(x), *label), x_inv)


def swapped_sign(x):
    return lambda label: _eps(label) * cocycle(transposition(len(x), *label), x)


def signed_table(table: tuple[list, list], S: SignFn) -> tuple[list, list]:
    """The rectangle table with each record's bit replaced by 1 where
    S(x)(label) is -1, so the checks of the table read the signs of S."""
    gens, rects = table
    return gens, [
        [(label, y, int(s(label) < 0), okey, cells) for label, y, _, okey, cells in rs]
        for s, rs in zip(map(S, gens), rects)
    ]


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
    edges = [[(r[1], s1(r[0]) * s2(r[0])) for r in rs] for s1, s2, rs in zip(map(S1, gens), map(S2, gens), rects)]
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
