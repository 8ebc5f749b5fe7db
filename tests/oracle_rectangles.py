"""Per-label rectangle geometry, kept as the oracle for the one-pass scan
in ``gridspin.grid.empty_rectangles``.

Each function realises or inspects a single labelled rectangle on the
torus from its row and column spans, independently of the scan's offset
bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from gridspin.grid import GridDiagram, Point, cyclic_span
from gridspin.spin import Label


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
    (c, r) at bit c*n + r."""
    return sum(1 << (c * G.n + r) for c, r in rect.cells())


def x_counts(G: GridDiagram, cells: int) -> tuple[int, ...]:
    """Per-column count (0 or 1) of the X markers inside the rectangle
    with the given cell bitmask."""
    return tuple((cells >> (c * G.n + r)) & 1 for c, r in enumerate(G.x_rows))
