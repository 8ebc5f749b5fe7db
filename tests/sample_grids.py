"""Sample grids for the tests: every grid of a size, seeded random grids,
torus links and three named examples.

``torus_grid(p, q)`` is the size-(p + q) grid with X on the diagonal and
the O of column c in row (c + p) mod (p + q); ``trefoil5`` is
``torus_grid(2, 3)``.  Under the package's conventions it presents the
*mirror* of the positive torus knot T(p, q): ``trefoil5`` has hat
homology in (Maslov, Alexander) = (2, 1), (1, 0), (0, -1), the
left-handed trefoil.  The tests check T(2,3), T(2,5), T(3,4) and T(3,5)
against the closed form for L-space knots (Alexander polynomial
(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), rank one per nonzero
coefficient, Maslov gradings on the mirrored staircase).
"""
from __future__ import annotations

import itertools
import random
from typing import Iterator

from gridspin.grid import GridDiagram


def all_grids(n: int) -> Iterator[GridDiagram]:
    """Every valid grid of size n (both marker permutations, no shared cell)."""
    for o in itertools.permutations(range(n)):
        for x in itertools.permutations(range(n)):
            if all(o[c] != x[c] for c in range(n)):
                yield GridDiagram(n, o, x)


def random_grid(n: int, rng: random.Random) -> GridDiagram:
    o = list(range(n))
    rng.shuffle(o)
    while True:
        x = list(range(n))
        rng.shuffle(x)
        if all(o[c] != x[c] for c in range(n)):
            return GridDiagram(n, tuple(o), tuple(x))


# Named examples used throughout the tests.
UNKNOT_2 = (2, (1, 0), (0, 1))
TREFOIL_5 = (5, (2, 3, 4, 0, 1), (0, 1, 2, 3, 4))
HOPF_4 = (4, (2, 3, 0, 1), (0, 1, 2, 3))


def torus_grid(p: int, q: int) -> GridDiagram:
    """The torus link T(p, q) on a grid of size p + q (see the module
    docstring for which link it presents)."""
    if p < 1 or q < 1:
        raise ValueError(f"torus_grid needs p, q >= 1, got ({p}, {q})")
    n = p + q
    return GridDiagram(n, tuple((c + p) % n for c in range(n)), tuple(range(n)))


def unknot2() -> GridDiagram:
    return GridDiagram(*UNKNOT_2)


def trefoil5() -> GridDiagram:
    return GridDiagram(*TREFOIL_5)


def hopf4() -> GridDiagram:
    return GridDiagram(*HOPF_4)
