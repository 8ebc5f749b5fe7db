"""The grid moves of ``gridspin.moves`` as first written, kept as an oracle.

``_stabilize`` and ``_destabilize`` walk every marker through shift
functions and per-type dicts and check the result cell by cell;
``_cyclic`` spells out each direction.  The production functions build
the moved grid straight from its marker rows and must agree with these
on every input, errors included.
"""
from __future__ import annotations

from gridspin import grid as _grid
from gridspin.grid import GridDiagram
from gridspin.moves import VARIANTS, MoveError


def _cyclic(G: GridDiagram, direction: str) -> GridDiagram:
    n = G.n
    if direction == "up":
        return GridDiagram(n, tuple((r + 1) % n for r in G.o_rows), tuple((r + 1) % n for r in G.x_rows))
    if direction == "down":
        return GridDiagram(n, tuple((r - 1) % n for r in G.o_rows), tuple((r - 1) % n for r in G.x_rows))
    if direction == "left":
        return GridDiagram(n, tuple(G.o_rows[(c + 1) % n] for c in range(n)), tuple(G.x_rows[(c + 1) % n] for c in range(n)))
    if direction == "right":
        return GridDiagram(n, tuple(G.o_rows[(c - 1) % n] for c in range(n)), tuple(G.x_rows[(c - 1) % n] for c in range(n)))
    raise MoveError("Parse", f"bad cyclic direction {direction!r}")


def _stabilize(G: GridDiagram, axis: str, index: int, marker: str, variant: str) -> GridDiagram:
    n = G.n
    if variant not in VARIANTS or marker not in ("X", "O"):
        raise MoveError("Parse", f"bad stabilization {marker}{variant}")
    rows = G.x_rows if marker == "X" else G.o_rows
    if axis == "row":
        if not 0 <= index < n:
            raise MoveError("BadPosition", f"row {index} out of range")
        c = rows.index(index)
        r = index
    elif axis == "col":
        if not 0 <= index < n:
            raise MoveError("BadPosition", f"column {index} out of range")
        c = index
        r = rows[c]
    else:
        raise MoveError("Parse", f"bad axis {axis!r}")

    def shift_col(col: int) -> int:
        return col + 1 if col > c else col

    def shift_row(row: int) -> int:
        return row + 1 if row > r else row

    # split markers: two of the marker's type on a diagonal of the 2x2
    # block at columns {c, c+1} rows {r, r+1}; the opposite type takes the
    # variant corner; same-line markers move off the block's full lines
    corner = {
        "NW": (c, r + 1),
        "NE": (c + 1, r + 1),
        "SW": (c, r),
        "SE": (c + 1, r),
    }[variant]
    if variant in ("NW", "SE"):
        main = [(c, r), (c + 1, r + 1)]  # SW + NE
    else:
        main = [(c + 1, r), (c, r + 1)]  # SE + NW
    new_o: dict[int, int] = {}
    new_x: dict[int, int] = {}
    occupied_cols = [p[0] for p in main + [corner]]
    occupied_rows = [p[1] for p in main + [corner]]
    # same-column other-type marker moves right exactly when the block
    # column c is full; same-row marker moves up when block row r is full
    other_col = c if occupied_cols.count(c) < 2 else c + 1
    other_row = r if occupied_rows.count(r) < 2 else r + 1
    for col in range(n):
        for rows_of, out in ((G.o_rows, new_o), (G.x_rows, new_x)):
            row = rows_of[col]
            if col == c and row == r and rows_of is rows:
                continue  # the split marker itself
            ncol, nrow = shift_col(col), shift_row(row)
            if col == c:
                ncol = other_col
            if row == r:
                nrow = other_row
            out[ncol] = nrow
    main_out = new_x if marker == "X" else new_o
    corner_out = new_o if marker == "X" else new_x
    for col, row in main:
        main_out[col] = row
    corner_out[corner[0]] = corner[1]
    o = tuple(new_o[cc] for cc in range(n + 1))
    x = tuple(new_x[cc] for cc in range(n + 1))
    return GridDiagram(n + 1, o, x)


def _destabilize(G: GridDiagram, position: tuple[int, int]) -> GridDiagram:
    n = G.n
    c, r = position
    if not (0 <= c < n - 1 and 0 <= r < n - 1):
        raise MoveError("BadPosition", f"block corner {position} out of range")
    block = [(c, r), (c + 1, r), (c, r + 1), (c + 1, r + 1)]
    o_in = [p for p in block if G.o_rows[p[0]] == p[1]]
    x_in = [p for p in block if G.x_rows[p[0]] == p[1]]
    if len(o_in) + len(x_in) != 3 or not (len(o_in) == 1 or len(x_in) == 1):
        raise MoveError("BadPosition", f"block at {position} holds {len(o_in)} O and {len(x_in)} X markers")
    marker = "X" if len(x_in) == 2 else "O"
    new_o: dict[int, int] = {}
    new_x: dict[int, int] = {}

    def unshift_col(col: int) -> int:
        return col - 1 if col > c else col

    def unshift_row(row: int) -> int:
        return row - 1 if row > r else row

    for col in range(n):
        for rows_of, out in ((G.o_rows, new_o), (G.x_rows, new_x)):
            row = rows_of[col]
            if (col, row) in block:
                continue
            ncol, nrow = unshift_col(col), unshift_row(row)
            if ncol in out:
                raise MoveError("BadPosition", f"block at {position} is not a stabilization block")
            out[ncol] = nrow
    merged = new_x if marker == "X" else new_o
    merged[c] = r
    if sorted(new_o) != list(range(n - 1)) or sorted(new_x) != list(range(n - 1)):
        raise MoveError("BadPosition", f"block at {position} is not a stabilization block")
    try:
        return GridDiagram(n - 1, tuple(new_o[cc] for cc in range(n - 1)), tuple(new_x[cc] for cc in range(n - 1)))
    except _grid.GridError as exc:
        raise MoveError("BadPosition", f"destabilized grid invalid: {exc}") from None
