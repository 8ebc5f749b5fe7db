"""Grid diagrams: validation, link tracing, gradings and rectangles.

A grid of size n is a pair of permutations giving the row of the O and X
marker in each column; the origin sits at the bottom-left and the
fundamental domain is [0, n) x [0, n) on the torus.  Generators are
permutations drawn as lattice points (i, x(i)); markers sit at cell
centres, which we keep exact by doubling all coordinates (lattice points
at even pairs, markers at odd pairs).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
    def _o_pts(self) -> tuple[Point, ...]:
        return tuple((2 * c + 1, 2 * r + 1) for c, r in enumerate(self.o_rows))

    @cached_property
    def _x_pts(self) -> tuple[Point, ...]:
        return tuple((2 * c + 1, 2 * r + 1) for c, r in enumerate(self.x_rows))


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
# Planar pair counts


def count_pairs_I(A: Iterable[Sequence], B: Iterable[Sequence]) -> int:
    """Number of pairs a in A, b in B with both coordinates of a strictly
    below those of b."""
    B = list(B)
    return sum(1 for a in A for b in B if a[0] < b[0] and a[1] < b[1])


def count_pairs_J(A: Iterable[Sequence], B: Iterable[Sequence]) -> Fraction:
    """Symmetrised count (I(A,B) + I(B,A)) / 2."""
    A, B = list(A), list(B)
    return Fraction(count_pairs_I(A, B) + count_pairs_I(B, A), 2)


def generator_points(x: Sequence[int]) -> tuple[Point, ...]:
    return tuple((2 * i, 2 * v) for i, v in enumerate(x))


def _J2(A: Sequence[Point], B: Sequence[Point]) -> int:
    return count_pairs_I(A, B) + count_pairs_I(B, A)


def maslov(G: GridDiagram, x: Sequence[int], S: Sequence[Point] | None = None) -> int:
    """Maslov degree J(x - S, x - S) + 1 with S defaulting to the O markers.

    Generic marker sets can give half-integers; the O markers always give
    an integer, which is asserted.
    """
    pts = generator_points(x)
    S = tuple(S) if S is not None else G._o_pts
    doubled = _J2(pts, pts) - 2 * _J2(pts, S) + _J2(S, S) + 2
    if doubled % 2:
        raise ValueError("half-integral Maslov value for this marker set")
    return doubled // 2


def maslov_x(G: GridDiagram, x: Sequence[int]) -> int:
    """Maslov degree computed with the X markers in place of the O's."""
    return maslov(G, x, G._x_pts)


def alexander2(G: GridDiagram, x: Sequence[int]) -> tuple[int, ...]:
    """Doubled Alexander multi-grading (one integer per link component).

    Componentwise A_j = J(x - (X+O)/2, X_j - O_j) - (n_j - 1)/2, stored as
    2*A_j to stay in exact integers.
    """
    comps = G.components
    pts = generator_points(x)
    out = []
    for j in range(1, comps.l + 1):
        xj = tuple(G._x_pts[c] for c in range(G.n) if comps.comp_of_x[c] == j)
        oj = tuple(G._o_pts[c] for c in range(G.n) if comps.comp_of_o[c] == j)
        quad = 2 * (_J2(pts, xj) - _J2(pts, oj))
        quad -= _J2(G._x_pts, xj) - _J2(G._x_pts, oj) + _J2(G._o_pts, xj) - _J2(G._o_pts, oj)
        quad -= 2 * (comps.n_i[j - 1] - 1)
        if quad % 2:
            raise AssertionError("Alexander grading is not a half-integer")
        out.append(quad // 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# Rectangles


def cyclic_span(a: int, b: int, n: int) -> tuple[int, ...]:
    """The half-open cyclic interval [a, b) in Z/n."""
    return tuple((a + k) % n for k in range((b - a) % n))


@dataclass(frozen=True)
class RectangleInstance:
    """One of the two rectangles between x and x * (a b), realised on the
    torus: its bottom-left corner is the generator point in column a."""

    base: tuple[int, ...]
    label: Label
    col_span: tuple[int, ...]
    row_span: tuple[int, ...]

    @property
    def corners_base(self) -> tuple[Point, Point]:
        a, b = self.label
        return ((a, self.base[a]), (b, self.base[b]))

    @property
    def width(self) -> int:
        return len(self.col_span)

    @property
    def height(self) -> int:
        return len(self.row_span)

    def cells(self) -> Iterator[Point]:
        for c in self.col_span:
            for r in self.row_span:
                yield (c, r)


def realize_rectangle(G: GridDiagram, x: Sequence[int], label: Label) -> RectangleInstance:
    a, b = label
    x = tuple(x)
    if not (0 <= a < G.n and 0 <= b < G.n and a != b):
        raise ValueError(f"invalid label {label}")
    return RectangleInstance(
        base=x,
        label=label,
        col_span=cyclic_span(a, b, G.n),
        row_span=cyclic_span(x[a], x[b], G.n),
    )


def is_empty(G: GridDiagram, x: Sequence[int], rect: RectangleInstance) -> bool:
    """No generator point of x strictly inside both spans."""
    a, b = rect.label
    interior_rows = set(rect.row_span[1:])
    for c in rect.col_span[1:]:
        if x[c] in interior_rows:
            return False
    return True


def marker_counts(G: GridDiagram, rect: RectangleInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-marker counts of O's and X's inside the rectangle, indexed by
    marker number (see ComponentData.o_numbering); X's are numbered by the
    same column order as the O's."""
    cols, rows = set(rect.col_span), set(rect.row_span)
    numbering = G.components.o_numbering
    return (
        tuple(int(c in cols and G.o_rows[c] in rows) for c in numbering),
        tuple(int(c in cols and G.x_rows[c] in rows) for c in numbering),
    )


def is_horizontally_torn(label: Label) -> bool:
    """The column span wraps through the right edge of the fundamental
    domain exactly when the label descends."""
    a, b = label
    return a > b


def empty_rectangles(G: GridDiagram, x: Sequence[int]) -> list[tuple[Label, tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The empty rectangles out of x: (label, target, o_counts, x_counts)
    with counts indexed by column.

    One cyclic scan per left column a: b runs through a+1, a+2, ... and
    ``lowest`` is the smallest row offset (x[c] - x[a]) mod n of the
    columns c passed so far.  Offsets of distinct columns differ, so
    (a, b) is empty exactly when its height h = (x[b] - x[a]) mod n is
    below ``lowest``.  A marker of column c in the span [a, b) lies inside
    exactly when its row offset from x[a] is below h.
    """
    n = G.n
    x = tuple(x)
    out = []
    for a in range(n):
        xa = x[a]
        lowest = n
        for width in range(1, n):
            b = (a + width) % n
            h = (x[b] - xa) % n
            if h >= lowest:
                continue
            lowest = h
            y = list(x)
            y[a], y[b] = x[b], xa
            o_cols = [0] * n
            x_cols = [0] * n
            for c in cyclic_span(a, b, n):
                o_cols[c] = int((G.o_rows[c] - xa) % n < h)
                x_cols[c] = int((G.x_rows[c] - xa) % n < h)
            out.append(((a, b), tuple(y), tuple(o_cols), tuple(x_cols)))
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


def unknot2() -> GridDiagram:
    return GridDiagram(*UNKNOT_2)


def trefoil5() -> GridDiagram:
    return GridDiagram(*TREFOIL_5)


def hopf4() -> GridDiagram:
    return GridDiagram(*HOPF_4)
