"""Grid moves and the invariance harness.

Moves: the four cyclic permutations, commutation of adjacent columns or
rows (legal when the two marker spans are disjoint or strictly nested),
and (de)stabilization in all four variants at any marker.

Stabilization splits the chosen marker's cell into a 2x2 block holding
two markers of its type on a diagonal and one of the opposite type; the
variant letter names the corner taken by the new opposite-type marker
(the new column is inserted to the right of the marker's column, the new
row above its row).  Destabilization inverts this: it recognises a 2x2
block holding three markers and merges it back to one.

The invariance harness compares hat homology across two grids, matching
components up to renumbering and Alexander shift, and checks the extra
tilde factor across a stabilization.  Both tilde homologies are reduced
on their own symmetric halves, never derived from hat, so the factor
check stays independent of the hat comparison.
"""
from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from . import grid as _grid
from . import homology as _hom
from .grid import GridDiagram
from .homology import HomologySummary, Laurent


class MoveError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


VARIANTS = ("NW", "NE", "SW", "SE")


class MoveSpec(NamedTuple):
    kind: str  # cyclic | commute_cols | commute_rows | stabilize | destabilize
    direction: str | None = None  # cyclic: up/down/left/right
    index: int | None = None  # commute: first of the two adjacent lines
    axis: str | None = None  # stabilize: row/col locating the marker
    marker: str | None = None  # stabilize: X or O
    variant: str | None = None  # stabilize: NW/NE/SW/SE
    position: tuple[int, int] | None = None  # destabilize: block SW corner


def parse_move(line: str) -> MoveSpec:
    words = line.split("#", 1)[0].split()
    if not words:
        raise MoveError("Parse", "empty move line")
    head = words[0].lower()
    try:
        if head == "cyclic" and len(words) == 2 and words[1] in ("up", "down", "left", "right"):
            return MoveSpec("cyclic", direction=words[1])
        if head == "commute" and len(words) == 3 and words[1] in ("cols", "rows"):
            return MoveSpec(f"commute_{words[1]}", index=int(words[2]))
        if head == "stabilize" and len(words) == 4 and words[1] in ("row", "col"):
            tag = words[3].upper()
            if tag[0] in "XO" and tag[1:] in VARIANTS:
                return MoveSpec(
                    "stabilize", axis=words[1], index=int(words[2]), marker=tag[0], variant=tag[1:]
                )
        if head == "destabilize" and len(words) == 3:
            return MoveSpec("destabilize", position=(int(words[1]), int(words[2])))
    except ValueError as exc:
        raise MoveError("Parse", f"bad move line {line!r}: {exc}") from None
    raise MoveError("Parse", f"bad move line {line!r}")


def parse_script(text: str) -> list[MoveSpec]:
    moves = []
    for raw in text.splitlines():
        if raw.split("#", 1)[0].strip():
            moves.append(parse_move(raw))
    return moves


# ---------------------------------------------------------------------------
# Applying moves


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


def _interval(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _commutable(s1: tuple[int, int], s2: tuple[int, int]) -> bool:
    # legal when the closed spans are disjoint or one strictly contains the
    # other; shared endpoints count as interleaved
    a1, b1 = s1
    a2, b2 = s2
    if b1 < a2 or b2 < a1:
        return True
    return (a1 < a2 and b2 < b1) or (a2 < a1 and b1 < b2)


def _commute_cols(G: GridDiagram, i: int) -> GridDiagram:
    n = G.n
    if not 0 <= i < n - 1:
        raise MoveError("BadPosition", f"column pair ({i},{i+1}) out of range")
    s1 = _interval(G.o_rows[i], G.x_rows[i])
    s2 = _interval(G.o_rows[i + 1], G.x_rows[i + 1])
    if not _commutable(s1, s2):
        raise MoveError("IllegalCommutation", f"columns {i},{i+1} have interleaved spans")
    o = list(G.o_rows)
    x = list(G.x_rows)
    o[i], o[i + 1] = o[i + 1], o[i]
    x[i], x[i + 1] = x[i + 1], x[i]
    return GridDiagram(n, tuple(o), tuple(x))


def _commute_rows(G: GridDiagram, j: int) -> GridDiagram:
    n = G.n
    if not 0 <= j < n - 1:
        raise MoveError("BadPosition", f"row pair ({j},{j+1}) out of range")
    o_col = {r: c for c, r in enumerate(G.o_rows)}
    x_col = {r: c for c, r in enumerate(G.x_rows)}
    s1 = _interval(o_col[j], x_col[j])
    s2 = _interval(o_col[j + 1], x_col[j + 1])
    if not _commutable(s1, s2):
        raise MoveError("IllegalCommutation", f"rows {j},{j+1} have interleaved spans")
    swap = {j: j + 1, j + 1: j}
    return GridDiagram(
        G.n,
        tuple(swap.get(r, r) for r in G.o_rows),
        tuple(swap.get(r, r) for r in G.x_rows),
    )


def _stabilize(G: GridDiagram, axis: str, index: int, marker: str, variant: str) -> GridDiagram:
    n = G.n
    if variant not in VARIANTS or marker not in "XO":
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


def apply_move(G: GridDiagram, move: MoveSpec) -> GridDiagram:
    if move.kind == "cyclic":
        return _cyclic(G, move.direction)
    if move.kind == "commute_cols":
        return _commute_cols(G, move.index)
    if move.kind == "commute_rows":
        return _commute_rows(G, move.index)
    if move.kind == "stabilize":
        return _stabilize(G, move.axis, move.index, move.marker, move.variant)
    if move.kind == "destabilize":
        return _destabilize(G, move.position)
    raise MoveError("Parse", f"unknown move kind {move.kind!r}")


def apply_script(G: GridDiagram, moves: Iterable[MoveSpec]) -> GridDiagram:
    for move in moves:
        G = apply_move(G, move)
    return G


# ---------------------------------------------------------------------------
# Invariance harness


class InvarianceReport(NamedTuple):
    hat1: HomologySummary
    hat2: HomologySummary
    hat_equal: bool
    component_map: tuple[int, ...] | None  # hat2 component for each hat1 component
    alexander2_shifts: tuple[int, ...] | None
    tilde_factor_ok: bool | None = None  # set when sizes differ by one
    stabilized_component: int | None = None

    @property
    def ok(self) -> bool:
        return self.hat_equal and (self.tilde_factor_ok is not False)

    def to_json_dict(self) -> dict:
        return {
            "hat_equal": self.hat_equal,
            "component_map": list(self.component_map) if self.component_map else None,
            "alexander2_shifts": list(self.alexander2_shifts) if self.alexander2_shifts else None,
            "tilde_factor_ok": self.tilde_factor_ok,
            "stabilized_component": self.stabilized_component,
            "hat1": self.hat1.to_json_dict(),
            "hat2": self.hat2.to_json_dict(),
        }


def _permute_t(p: Laurent, perm: Sequence[int]) -> Laurent:
    """Relabel t variables: new variable perm[i] carries old variable i."""
    return Laurent.from_dict(
        p.nvars,
        {
            (q, tuple(t2[perm.index(i)] for i in range(p.nvars))): c
            for (q, t2), c in p.terms
        },
    )


def _match_up_to_shift(p1: Laurent, p2: Laurent, l: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Search component relabelings and per-component shifts making p2
    equal to p1; returns (component_map, doubled shifts) or None."""
    for perm in itertools.permutations(range(l)):
        # hat1 variable perm[i] carries hat2 variable i
        candidate = _permute_t(p2, list(perm))
        shift = _hom.equal_up_to_t_shift(p1, candidate)
        if shift is not None:
            return tuple(perm.index(i) for i in range(l)), shift
    return None


def invariance_report(G1: GridDiagram, G2: GridDiagram) -> InvarianceReport:
    """Compare hat homology of two grids, matching components up to
    renumbering and per-component Alexander shift; across a stabilization
    (sizes differing by one) also peel the predicted extra tilde factor
    off the larger grid's whole tilde table and match the smaller one's."""
    h1 = _hom.hat_homology(G1)
    h2 = _hom.hat_homology(G2)
    if h1.l != h2.l:
        return InvarianceReport(h1, h2, False, None, None)
    match = _match_up_to_shift(h1.poincare, h2.poincare, h1.l)
    if match is None:
        return InvarianceReport(h1, h2, False, None, None)
    comp_map, shifts = match
    if abs(G1.n - G2.n) != 1:
        return InvarianceReport(h1, h2, True, comp_map, shifts)
    t1 = _hom.tilde_homology(G1)
    t2 = _hom.tilde_homology(G2)
    return InvarianceReport(h1, h2, True, comp_map, shifts, *_check_tilde_factor(t1, t2, G1, G2, comp_map))


def _check_tilde_factor(t1, t2, G1, G2, comp_map) -> tuple[bool, int | None]:
    small, big = (t1, t2) if G1.n < G2.n else (t2, t1)
    small_ni = (G1 if G1.n < G2.n else G2).components.n_i
    big_ni = (G2 if G1.n < G2.n else G1).components.n_i
    if G1.n < G2.n:
        mapping = list(comp_map)  # small component j -> big component mapping[j]
    else:
        mapping = [comp_map.index(j) for j in range(len(comp_map))]
    candidates = [j for j in range(len(small_ni)) if big_ni[mapping[j]] == small_ni[j] + 1]
    small_p = _permute_t(small.poincare, mapping)
    for j in candidates:
        try:
            quotient = _hom.divide_hat_factor(dict(big.poincare.terms), mapping[j])
        except _hom.NotDivisible:
            continue
        if _hom.equal_up_to_t_shift(small_p, Laurent.from_dict(small_p.nvars, quotient)) is not None:
            return True, j + 1
    return False, None
