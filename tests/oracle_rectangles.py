"""Per-label rectangle geometry, kept as the oracle for the one-pass scans
in ``gridspin.complexes.rectangle_table`` (every empty rectangle) and
``gridspin.grid.empty_rectangles`` (the marker-free ones).

Each geometry function realises or inspects a single labelled rectangle
on the torus from its row and column spans, independently of the scans'
offset bookkeeping; ``per_label_scan`` lists every empty rectangle out of
a generator from them.  ``full_scan`` reads the records of the table
back in the per-label form, for the tests that walk the rectangles.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from gridspin.complexes import rectangle_table
from gridspin.grid import GridDiagram, Point
from gridspin.spin import Label


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


def cell_bitmask(G: GridDiagram, rect: RectangleInstance) -> int:
    """The rectangle's cells in the encoding of the scan's records: cell
    (c, r) at bit 2(c*n + r), two bits per cell."""
    return sum(1 << 2 * (c * G.n + r) for c, r in rect.cells())


def x_counts(G: GridDiagram, cells: int) -> tuple[int, ...]:
    """Per-column count (0 or 1) of the X markers inside the rectangle
    with the given cell bitmask (two bits per cell)."""
    return tuple((cells >> 2 * (c * G.n + r)) & 1 for c, r in enumerate(G.x_rows))


def per_label_scan(G: GridDiagram, x: Sequence[int]) -> list[tuple]:
    """Every empty rectangle out of x, sorted, as (label, target, O-counts,
    cells): realise all n(n-1) labels, keep the empty ones, count the O's
    of each column inside and list the cells."""
    out = []
    for a, b in itertools.permutations(range(G.n), 2):
        rect = realize_rectangle(G, x, (a, b))
        if not is_empty(G, x, rect):
            continue
        y = list(x)
        y[a], y[b] = y[b], y[a]
        rows = set(rect.row_span)
        o_cols = tuple(int(c in rect.col_span and G.o_rows[c] in rows) for c in range(G.n))
        out.append(((a, b), tuple(y), o_cols, cell_bitmask(G, rect)))
    return sorted(out)


# several grids: criterion 9 alternates a grid and its two cyclic images
@functools.lru_cache(maxsize=8)
def _table(G: GridDiagram) -> tuple[dict, list, list]:
    gens, rects = rectangle_table(G)
    return {x: i for i, x in enumerate(gens)}, gens, rects


def full_scan(G: GridDiagram, x: Sequence[int]) -> list[tuple]:
    """The records of ``rectangle_table(G)`` out of x, in scan order, as
    (label, target, O-counts, cells) with the target a generator tuple and
    the O-counts a tuple indexed by column."""
    index, gens, rects = _table(G)
    return [
        (label, gens[y], tuple((okey >> 2 * c) & 3 for c in range(G.n)), cells)
        for label, y, _, okey, cells in rects[index[tuple(x)]]
    ]
