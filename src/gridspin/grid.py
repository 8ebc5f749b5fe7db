"""Grid diagrams: validation, link tracing, gradings and rectangles.

A grid of size n is a pair of permutations giving the row of the O and X
marker in each column; the origin sits at the bottom-left and the
fundamental domain is [0, n) x [0, n) on the torus.  Generators are
permutations drawn as lattice points (i, x(i)); markers sit at cell
centres, so every comparison between a point and a marker is a strict
inequality that integer row and column indices decide exactly.

Per-grid tables serve the paths that visit every generator.  The homology
path reads the packed grading weight of each lattice point
(``grading_table``), summed along a depth-first walk of the permutation
prefix tree (``graded_generators``), and for each left column and bottom
row the smallest marker offset of each column span (``marker_caps``),
read by the marker-free rectangle scan.  The full scan reads the label,
O-counts and cell mask of each rectangle shape (``rectangle_shapes``).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
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
    def grading_constants(self) -> tuple[int, tuple[int, ...]]:
        return _grading_constants(self)

    @cached_property
    def grading_table(self) -> tuple[tuple[int, ...], ...]:
        return _grading_table(self)

    @cached_property
    def marker_caps(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        return _marker_caps(self)

    @cached_property
    def rectangle_shapes(self) -> tuple[tuple[tuple[tuple[int, tuple], ...], ...], ...]:
        return _rectangle_shapes(self)


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
    """Trace horizontal O-to-X and vertical X-to-O segments into cycles,
    numbered by their smallest O column so the numbering is stable."""
    n = G.n
    x_col_of_row = [0] * n
    for c, r in enumerate(G.x_rows):
        x_col_of_row[r] = c
    cycle_of_row = [0] * n
    cycles = 0
    for start in range(n):
        if cycle_of_row[start]:
            continue
        cycles += 1
        r = start
        while not cycle_of_row[r]:
            cycle_of_row[r] = cycles
            r = G.o_rows[x_col_of_row[r]]
    # one pass over the O columns meets each cycle first at its smallest
    # O column, which is that component's first entry of o_numbering
    number = [0] * (cycles + 1)
    first = []
    for c, r in enumerate(G.o_rows):
        k = cycle_of_row[r]
        if not number[k]:
            first.append(c)
            number[k] = len(first)
    comp_of_row = [number[k] for k in cycle_of_row]
    n_i = [0] * cycles
    for j in comp_of_row:
        n_i[j - 1] += 1
    comp_of_o = tuple(comp_of_row[r] for r in G.o_rows)
    comp_of_x = tuple(comp_of_row[r] for r in G.x_rows)
    taken = set(first)
    rest = [c for c in range(n) if c not in taken]
    return ComponentData(cycles, comp_of_o, comp_of_x, tuple(n_i), tuple(first + rest))


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
# A point (i, v) and a marker (c, r) form a J2 pair exactly when
# (i <= c and v <= r) or (c < i and r < v), so J2(x, M) = sum_i w_M[i][x[i]]
# for the per-point weight w_M[i][v], the number of markers of M paired
# with (i, v).  I(x, x) is n(n - 1)/2 minus the inversions of x.  Both
# gradings are packed into one integer per point (_point_weights), with
# the marker-only terms folded into column 0, which every generator meets
# once; a generator's gradings are the sum of its n point weights less
# its inversions.  The walk over all generators reads the weights from an
# n x n table cached per grid (grading_table).


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


def _field_bits(n: int) -> int:
    """Bits per field of a packed grading key.  The Maslov degree and each
    doubled Alexander grading lie below 5 n^2 in absolute value, inside
    the 2^(bits - 1) > 8 n^2 of a field, so a generator's summed key
    decodes exactly (``_unpack``)."""
    return (8 * n * n).bit_length() + 1


def _point_weights(G: GridDiagram, points: Iterable[Point]) -> Iterator[int]:
    """The weight of each lattice point (i, v) of ``points``, packed into
    fields of ``_field_bits(n)`` bits: the Maslov degree in field 0 and
    the doubled Alexander grading of component j in field j.  An O marker
    of component j counts -1 in fields 0 and j, an X marker +1 in field j,
    and the points of column 0 also carry the marker-only terms and the
    n(n - 1)/2 of I(x, x)."""
    n = G.n
    bits = _field_bits(n)
    comps = G.components
    m0, alex = G.grading_constants
    base = m0 + n * (n - 1) // 2 + sum(a << bits * j for j, a in enumerate(alex, 1))
    markers = []
    for c in range(n):
        markers.append((c, G.o_rows[c], -1 - (1 << bits * comps.comp_of_o[c])))
        markers.append((c, G.x_rows[c], 1 << bits * comps.comp_of_x[c]))
    for i, v in points:
        w = 0 if i else base
        for c, r, weight in markers:
            if (i <= c and v <= r) or (c < i and r < v):
                w += weight
        yield w


def _grading_table(G: GridDiagram) -> tuple[tuple[int, ...], ...]:
    """table[i][v]: the packed weight of the point (i, v)."""
    n = G.n
    return tuple(tuple(_point_weights(G, [(i, v) for v in range(n)])) for i in range(n))


def _unpack(key: int, bits: int, l: int) -> tuple[int, tuple[int, ...]]:
    """(Maslov degree, doubled Alexander grading) from a packed key."""
    half = 1 << (bits - 1)
    fields = []
    for _ in range(l + 1):
        f = ((key + half) & ((half << 1) - 1)) - half
        fields.append(f)
        key = (key - f) >> bits
    return fields[0], tuple(fields[1:])


def _gradings(G: GridDiagram, x: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """(Maslov degree, doubled Alexander multi-grading) of x: the sum of
    its points' weights, less its inversions, each point (i, x[i])
    counting the rows below x[i] not yet taken by x[0..i-1].  The weights
    of the n points are computed directly, so a single generator costs
    O(n^2) and no n x n table."""
    key = 0
    free = (1 << G.n) - 1
    for w, v in zip(_point_weights(G, enumerate(x)), x):
        key += w - (free & ((1 << v) - 1)).bit_count()
        free ^= 1 << v
    return _unpack(key, _field_bits(G.n), G.components.l)


def graded_generators(G: GridDiagram) -> dict[tuple[int, tuple[int, ...]], list[tuple[int, ...]]]:
    """Every generator grouped by (Maslov degree, doubled Alexander
    grading), keys and lists in ``itertools.permutations`` order.

    A depth-first walk of the permutation prefix tree: a prefix x[0..c-1]
    carries its packed partial sum, and each child adds one entry of
    ``G.grading_table`` less its inversions, so about e n! node steps
    replace n steps per generator.  Each distinct key is decoded once, at
    the end.  ``_descend`` is a module function: a nested function that
    called itself would be a reference cycle holding every generator
    until the next cyclic collection.
    """
    groups: dict[int, list[tuple[int, ...]]] = {}
    _descend(G.grading_table, 0, 0, tuple(range(G.n)), (), groups)
    bits, l = _field_bits(G.n), G.components.l
    return {_unpack(key, bits, l): xs for key, xs in groups.items()}


def _descend(table: tuple[tuple[int, ...], ...], c: int, key: int, free: tuple[int, ...],
             prefix: tuple[int, ...], groups: dict[int, list[tuple[int, ...]]]) -> None:
    """Extend ``prefix`` (columns 0..c-1) by each free row in increasing
    order; the free row of rank k has k free rows below it, which later
    columns take: k inversions."""
    row = table[c]
    c += 1
    if c == len(table):
        groups.setdefault(key + row[free[0]], []).append(prefix + free)
        return
    for k, v in enumerate(free):
        _descend(table, c, key + row[v] - k, free[:k] + free[k + 1:], prefix + (v,), groups)


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


def _marker_caps(G: GridDiagram) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """caps[a][v]: the pairs (b, cap) for b = a + 1, a + 2, ... (mod n),
    with cap the smallest row offset (r - v) mod n of a marker in the
    columns [a, b).  The tuple stops before the first cap of 0: from there
    on a marker lies on the bottom row v of every rectangle from column a.
    """
    n = G.n
    caps = []
    for a in range(n):
        per_row = []
        for v in range(n):
            pairs = []
            cap = n
            for width in range(1, n):
                c = (a + width - 1) % n  # the column that joins the span
                cap = min(cap, (G.o_rows[c] - v) % n, (G.x_rows[c] - v) % n)
                if not cap:
                    break
                pairs.append(((a + width) % n, cap))
            per_row.append(tuple(pairs))
        caps.append(tuple(per_row))
    return tuple(caps)


def _rectangle_shapes(G: GridDiagram) -> tuple[tuple[tuple[tuple[int, tuple], ...], ...], ...]:
    """shapes[a][v]: the pairs (b, per_height) for b = a + 1, a + 2, ...
    (mod n), where per_height[h] is (label, o_counts, cells) of the
    rectangle with label (a, b), bottom row v and height h, in the form
    ``empty_rectangles`` returns them.  One label object serves every
    shape with that label, and one O-counts tuple every shape with those
    counts (197 tuples for the 3,584 shapes of ``torus_grid(3, 5)``)."""
    n = G.n
    counts: dict[tuple[int, ...], tuple[int, ...]] = {}
    shapes = []
    for a in range(n):
        labels = [(a, (a + width) % n) for width in range(1, n)]
        per_row = []
        for v in range(n):
            pairs = []
            for label in labels:
                span = cyclic_span(a, label[1], n)
                per_height = []
                for h in range(n):
                    # the rows v, ..., v + h - 1 mod n (h < n, so reducing
                    # mod 2^n - 1 moves the bits past row n - 1 back to the bottom)
                    rows = (((1 << h) - 1) << v) % ((1 << n) - 1)
                    o_cols = [0] * n
                    cells = 0
                    for c in span:
                        o_cols[c] = int((G.o_rows[c] - v) % n < h)
                        cells |= rows << c * n
                    o_cols = tuple(o_cols)
                    per_height.append((label, counts.setdefault(o_cols, o_cols), cells))
                pairs.append((label[1], tuple(per_height)))
            per_row.append(tuple(pairs))
        shapes.append(tuple(per_row))
    return tuple(shapes)


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
    exactly when its row offset from x[a] is below h, so the rectangle is
    marker-free exactly when h is at most the span's ``cap``; the
    marker-free scan reads the columns b and caps from ``G.marker_caps``,
    the full scan the columns b and each height's label, O-counts and
    cells from ``G.rectangle_shapes``.
    """
    n = G.n
    x = tuple(x)
    out = []
    if marker_free:
        caps = G.marker_caps
        for a, xa in enumerate(x):
            lowest = n
            for b, cap in caps[a][xa]:
                h = (x[b] - xa) % n
                if h < lowest:
                    lowest = h
                    if h <= cap:
                        y = list(x)
                        y[a], y[b] = x[b], xa
                        out.append(((a, b), tuple(y)))
        return out
    shapes = G.rectangle_shapes
    for a, xa in enumerate(x):
        lowest = n
        for b, per_height in shapes[a][xa]:
            h = (x[b] - xa) % n
            if h < lowest:
                lowest = h
                y = list(x)
                y[a], y[b] = x[b], xa
                label, o_cols, cells = per_height[h]
                out.append((label, tuple(y), o_cols, cells))
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
