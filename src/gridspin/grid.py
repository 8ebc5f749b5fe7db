"""Grid diagrams: validation, link tracing, gradings and rectangles.

A grid of size n is a pair of permutations giving the row of the O and X
marker in each column; the origin sits at the bottom-left and the
fundamental domain is [0, n) x [0, n) on the torus.  Generators are
permutations drawn as lattice points (i, x(i)); markers sit at cell
centres, so every comparison between a point and a marker is a strict
inequality that integer row and column indices decide exactly.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .spin import Label, is_permutation

Point = tuple[int, int]


class GridError(ValueError):
    """Raised for structurally invalid grids; code names the failed check."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ComponentData:
    """Link components traced through the markers.

    Component indices run from 1 to l.  ``comp_of_o[c]`` / ``comp_of_x[c]``
    give the component of the marker in column c, ``n_i[j-1]`` the number
    of rows (horizontal segments) of component j, and ``o_numbering`` the
    columns of the O markers in ascending marker-number order; the first l
    entries lie on pairwise distinct components.
    """

    l: int
    comp_of_o: tuple[int, ...]
    comp_of_x: tuple[int, ...]
    n_i: tuple[int, ...]
    o_numbering: tuple[int, ...]


@dataclass(frozen=True)
class GridDiagram:
    n: int
    o_rows: tuple[int, ...]
    x_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "o_rows", tuple(self.o_rows))
        object.__setattr__(self, "x_rows", tuple(self.x_rows))
        validate(self.n, self.o_rows, self.x_rows)

    @cached_property
    def components(self) -> ComponentData:
        return trace_components(self)

    @cached_property
    def grading_constants(self) -> tuple[int, tuple[int, ...]]:
        return _grading_constants(self)


def validate(n: int, o_rows: Sequence[int], x_rows: Sequence[int]) -> None:
    """Accept exactly the diagrams with one O and one X per row and column,
    no shared cell, and n >= 2."""
    if n < 2:
        raise GridError("TooSmall", f"grid size {n} < 2")
    if len(o_rows) != n or len(x_rows) != n:
        raise GridError("NotAPermutation", "marker rows must list one row per column")
    if not is_permutation(o_rows) or not is_permutation(x_rows):
        raise GridError("NotAPermutation", f"O rows {o_rows} / X rows {x_rows}")
    for c in range(n):
        if o_rows[c] == x_rows[c]:
            raise GridError("SharedCell", f"column {c} has O and X in row {o_rows[c]}")


def trace_components(G: GridDiagram) -> ComponentData:
    """Trace horizontal O-to-X and vertical X-to-O segments into cycles."""
    n = G.n
    x_col_of_row = [0] * n
    for c, r in enumerate(G.x_rows):
        x_col_of_row[r] = c
    comp_of_row = [0] * n
    cycles: list[list[int]] = []
    for start in range(n):
        if comp_of_row[start]:
            continue
        cycle = []
        r = start
        while not comp_of_row[r]:
            comp_of_row[r] = len(cycles) + 1
            cycle.append(r)
            r = G.o_rows[x_col_of_row[r]]
        cycles.append(cycle)
    # renumber components by their smallest O column, so numbering is stable
    comp_key = []
    for idx, cycle in enumerate(cycles):
        cols = [c for c in range(n) if comp_of_row[G.o_rows[c]] == idx + 1]
        comp_key.append((min(cols), idx))
    order = {idx: rank + 1 for rank, (_, idx) in enumerate(sorted(comp_key))}
    comp_of_row = [order[c - 1] for c in comp_of_row]
    l = len(cycles)
    comp_of_o = tuple(comp_of_row[G.o_rows[c]] for c in range(n))
    comp_of_x = tuple(comp_of_row[G.x_rows[c]] for c in range(n))
    n_i = tuple(sum(1 for r in range(n) if comp_of_row[r] == j) for j in range(1, l + 1))
    first = []
    taken = set()
    for j in range(1, l + 1):
        col = min(c for c in range(n) if comp_of_o[c] == j)
        first.append(col)
        taken.add(col)
    rest = [c for c in range(n) if c not in taken]
    return ComponentData(l, comp_of_o, comp_of_x, n_i, tuple(first + rest))


# ---------------------------------------------------------------------------
# Gradings
#
# Generator points are the lattice points (i, x[i]); the marker of column c
# in row r sits at the cell centre (c + 1/2, r + 1/2).  With I(A, B) the
# number of pairs a in A, b in B with a strictly south-west of b and
# J2(A, B) = I(A, B) + I(B, A) (twice the symmetrised count J),
#
#   M(x)     = I(x, x) - J2(x, O) + I(O, O) + 1,
#   2 A_j(x) = J2(x, X_j) - J2(x, O_j) - J2(X + O, X_j - O_j) / 2 - (n_j - 1).
#
# The marker-only terms are computed once per grid (grading_constants).


def _markers_j2(A: Sequence[Point], B: Sequence[Point]) -> int:
    """J2(A, B) for lists of marker cells (c, r): pairs with one cell
    strictly SW of the other, counted in both directions."""
    return sum(1 for c, r in A for d, s in B if (c < d and r < s) or (d < c and s < r))


def _grading_constants(G: GridDiagram) -> tuple[int, tuple[int, ...]]:
    """The marker-only terms: I(O, O) + 1 for the Maslov degree and, per
    component j, -J2(X + O, X_j - O_j) / 2 - (n_j - 1) for the doubled
    Alexander grading."""
    comps = G.components
    O = list(enumerate(G.o_rows))
    X = list(enumerate(G.x_rows))
    alex = []
    for j in range(1, comps.l + 1):
        Oj = [m for m in O if comps.comp_of_o[m[0]] == j]
        Xj = [m for m in X if comps.comp_of_x[m[0]] == j]
        j2 = _markers_j2(X + O, Xj) - _markers_j2(X + O, Oj)
        if j2 % 2:
            raise AssertionError("Alexander grading is not a half-integer")
        alex.append(-j2 // 2 - (comps.n_i[j - 1] - 1))
    return _markers_j2(O, O) // 2 + 1, tuple(alex)


def _gradings(G: GridDiagram, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(Maslov degree, doubled Alexander multi-grading) of x in one pass
    over the columns c, with ``seen`` the bitmask of the rows x[0..c].

    With P the number of points (i, v), i <= c, with v <= r, the points on
    the same side as the marker (c, r) in both coordinates number
    P + (n - 1 - c) - (r + 1 - P), so J2(x, {m}) = 2P + n - c - r - 2.
    I(x, x) gains the rows below x[c] seen before column c.
    """
    n = G.n
    comps = G.components
    m0, alex = G.grading_constants
    out = list(alex)
    inside = j2_o = seen = 0
    for c, (v, o, xr) in enumerate(zip(x, G.o_rows, G.x_rows)):
        inside += (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
        k = 2 * (seen & ((2 << o) - 1)).bit_count() + n - c - o - 2
        j2_o += k
        out[comps.comp_of_o[c] - 1] -= k
        out[comps.comp_of_x[c] - 1] += 2 * (seen & ((2 << xr) - 1)).bit_count() + n - c - xr - 2
    return inside - j2_o + m0, tuple(out)


def maslov(G: GridDiagram, x: Sequence[int]) -> int:
    """Maslov degree I(x, x) - J2(x, O) + I(O, O) + 1."""
    return _gradings(G, x)[0]


def alexander2(G: GridDiagram, x: Sequence[int]) -> tuple[int, ...]:
    """Doubled Alexander multi-grading (one integer per link component).

    Componentwise A_j = J(x - (X+O)/2, X_j - O_j) - (n_j - 1)/2, stored as
    2*A_j to stay in exact integers.
    """
    return _gradings(G, x)[1]


# ---------------------------------------------------------------------------
# Rectangles


def cyclic_span(a: int, b: int, n: int) -> tuple[int, ...]:
    """The half-open cyclic interval [a, b) in Z/n."""
    return tuple((a + k) % n for k in range((b - a) % n))


def is_horizontally_torn(label: Label) -> bool:
    """The column span wraps through the right edge of the fundamental
    domain exactly when the label descends."""
    a, b = label
    return a > b


def empty_rectangles(G: GridDiagram, x: Sequence[int], marker_free: bool = False) -> list[tuple]:
    """The empty rectangles out of x: (label, target, o_counts, cells)
    with the O-counts indexed by column and cell (c, r) of the rectangle
    at bit c*n + r of the integer ``cells``, or with ``marker_free`` only
    those containing no marker, as (label, target).

    One cyclic scan per left column a: b runs through a+1, a+2, ... and
    ``lowest`` is the smallest row offset (x[c] - x[a]) mod n of the
    columns c passed so far.  Offsets of distinct columns differ, so
    (a, b) is empty exactly when its height h = (x[b] - x[a]) mod n is
    below ``lowest``.  A marker of column c in the span [a, b) lies inside
    exactly when its row offset from x[a] is below h; ``mark``, the
    smallest marker offset of the span, makes the rectangle marker-free
    exactly when h <= mark.
    """
    n = G.n
    x = tuple(x)
    o_rows, x_rows = G.o_rows, G.x_rows
    out = []
    for a in range(n):
        xa = x[a]
        lowest = mark = n
        for width in range(1, n):
            b = (a + width) % n
            if marker_free:  # column b - 1 joins the span (index -1 is column n - 1)
                k = (o_rows[b - 1] - xa) % n
                if k < mark:
                    mark = k
                k = (x_rows[b - 1] - xa) % n
                if k < mark:
                    mark = k
                if not mark:
                    break  # a marker lies on the bottom row of every later (a, b)
            h = (x[b] - xa) % n
            if h >= lowest:
                continue
            lowest = h
            if marker_free and h > mark:
                continue
            y = list(x)
            y[a], y[b] = x[b], xa
            if marker_free:
                out.append(((a, b), tuple(y)))
                continue
            # the rows xa, ..., xa + h - 1 mod n (h < n, so reducing mod
            # 2^n - 1 moves the bits past row n - 1 back to the bottom)
            rows = (((1 << h) - 1) << xa) % ((1 << n) - 1)
            o_cols = [0] * n
            cells = 0
            for c in cyclic_span(a, b, n):
                o_cols[c] = int((o_rows[c] - xa) % n < h)
                cells |= rows << c * n
            out.append(((a, b), tuple(y), tuple(o_cols), cells))
    return out


# ---------------------------------------------------------------------------
# Text format and enumeration


def parse_grid_text(text: str) -> GridDiagram:
    """Parse the grid file format: '#' comments, then records
    ``n <int>``, ``O <n row indices>``, ``X <n row indices>``."""
    fields: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if key not in ("n", "o", "x"):
            raise GridError("Parse", f"line {lineno}: unknown record {parts[0]!r}")
        if key in fields:
            raise GridError("Parse", f"line {lineno}: repeated record {parts[0]!r}")
        try:
            fields[key] = [int(p) for p in parts[1:]]
        except ValueError:
            raise GridError("Parse", f"line {lineno}: non-integer entry") from None
    for key in ("n", "o", "x"):
        if key not in fields:
            raise GridError("Parse", f"missing record {key.upper()!r}")
    if len(fields["n"]) != 1:
        raise GridError("Parse", "record n must hold a single integer")
    n = fields["n"][0]
    return GridDiagram(n, tuple(fields["o"]), tuple(fields["x"]))


def format_grid_text(G: GridDiagram, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    lines.append(f"n {G.n}")
    lines.append("O " + " ".join(map(str, G.o_rows)))
    lines.append("X " + " ".join(map(str, G.x_rows)))
    return "\n".join(lines) + "\n"


def ascii_art(G: GridDiagram) -> str:
    """Rows printed top to bottom."""
    rows = []
    for r in range(G.n - 1, -1, -1):
        cells = []
        for c in range(G.n):
            cells.append("O" if G.o_rows[c] == r else "X" if G.x_rows[c] == r else ".")
        rows.append(" ".join(cells))
    return "\n".join(rows)


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


# Named examples used throughout the tests and docs.
UNKNOT_2 = (2, (1, 0), (0, 1))
TREFOIL_5 = (5, (2, 3, 4, 0, 1), (0, 1, 2, 3, 4))
HOPF_4 = (4, (2, 3, 0, 1), (0, 1, 2, 3))


def torus_grid(p: int, q: int) -> GridDiagram:
    """The torus link T(p, q) on a grid of size p + q: X on the diagonal and
    the O of column c in row (c + p) mod (p + q).  Under this package's
    conventions the diagram presents the mirror of the positive torus
    link (its hat homology is the negative torus knot's when p and q are
    coprime); ``trefoil5()`` is ``torus_grid(2, 3)``."""
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
