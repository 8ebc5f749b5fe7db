"""Grid moves and the invariance harness.

Moves: the four cyclic permutations, commutation of adjacent columns or
rows (legal when the two marker spans are disjoint or strictly nested),
and (de)stabilization in all four variants at any marker.

Stabilization at the marker cell (c, r) inserts a column right of c and a
row above r, making (c, r) the south-west corner of a 2x2 block.  The new
opposite-type marker takes the variant's corner (c + dc, r + dr), where
dc = 1 for E and dr = 1 for N; two of the split type fill the other
diagonal, and the opposite-type markers of column c and row r move to the
block's other column c + 1 - dc and row r + 1 - dr.  Destabilization
inverts this: a block's three markers leave, column c + 1 and row r + 1
close up, and the type with two of them takes (c, r).

The invariance harness compares hat homology across two grids, matching
components up to renumbering and Alexander shift, and checks the extra
tilde factor across a stabilization.  Both tilde homologies are reduced
on their own symmetric halves, never derived from hat, so the factor
check stays independent of the hat comparison.
"""
from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

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


# (column offset, row shift) per direction: column k takes column k + dc's
# markers, each row moved by dv
_CYCLIC = {"up": (0, 1), "down": (0, -1), "left": (1, 0), "right": (-1, 0)}


def _cyclic(G: GridDiagram, direction: str) -> GridDiagram:
    if direction not in _CYCLIC:
        raise MoveError("Parse", f"bad cyclic direction {direction!r}")
    n, (dc, dv) = G.n, _CYCLIC[direction]
    o, x = ([(rows[(k + dc) % n] + dv) % n for k in range(n)] for rows in (G.o_rows, G.x_rows))
    return GridDiagram(n, o, x)


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
    if variant not in VARIANTS or marker not in ("X", "O"):
        raise MoveError("Parse", f"bad stabilization {marker}{variant}")
    rows, other = (G.x_rows, G.o_rows) if marker == "X" else (G.o_rows, G.x_rows)
    if axis not in ("row", "col"):
        raise MoveError("Parse", f"bad axis {axis!r}")
    if not 0 <= index < n:
        raise MoveError("BadPosition", f"{'row' if axis == 'row' else 'column'} {index} out of range")
    c, r = (rows.index(index), index) if axis == "row" else (index, rows[index])
    dc, dr = "WE".index(variant[1]), "SN".index(variant[0])
    # rows above r move up; row r's opposite-type marker moves to the
    # block's other row r + 1 - dr
    lift = [v + (v > r) for v in range(n)]
    lift[r] = r + 1 - dr
    same = [lift[v] for v in rows]
    opp = [lift[v] for v in other]
    # the opposite type takes the corner (c + dc, r + dr), pushing column
    # c's opposite-type marker to the block's other column c + 1 - dc;
    # the split type fills the other diagonal
    opp.insert(c + dc, r + dr)
    same.insert(c + 1 - dc, r + dr)
    same[c + dc] = r + 1 - dr
    return GridDiagram(n + 1, *((opp, same) if marker == "X" else (same, opp)))


def _destabilize(G: GridDiagram, position: tuple[int, int]) -> GridDiagram:
    n = G.n
    c, r = position
    if not (0 <= c < n - 1 and 0 <= r < n - 1):
        raise MoveError("BadPosition", f"block corner {position} out of range")
    # each type's markers outside the block, column c + 1 and row r + 1 closed up
    o, x = (
        [v - (v > r) for k, v in enumerate(rows) if not (c <= k <= c + 1 and r <= v <= r + 1)]
        for rows in (G.o_rows, G.x_rows)
    )
    if len(o) + len(x) != 2 * n - 3:
        raise MoveError("BadPosition", f"block at {position} holds {n - len(o)} O and {n - len(x)} X markers")
    # no further check: on a valid grid the block's two same-type markers lie
    # on a diagonal, so columns c, c + 1 and rows r, r + 1 each keep one
    # marker outside it, and closing them up leaves a valid grid
    (x if len(x) < len(o) else o).insert(c, r)
    return GridDiagram(n - 1, o, x)


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
    stabilized_component: int | None = None  # numbered in the smaller grid

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
    t1, t2 = _hom.tilde_homology(G1), _hom.tilde_homology(G2)
    # mapping[j]: the larger grid's number for the smaller grid's component j
    if G1.n < G2.n:
        small, big, mapping = t1, t2, comp_map
    else:
        small, big, mapping = t2, t1, tuple(comp_map.index(j) for j in range(len(comp_map)))
    return InvarianceReport(h1, h2, True, comp_map, shifts, *_check_tilde_factor(small, big, mapping))


def _check_tilde_factor(small: HomologySummary, big: HomologySummary, mapping: Sequence[int]) -> tuple[bool, int | None]:
    """Whether peeling one factor V off some component's tilde table in
    ``big`` leaves ``small``'s, and that component's number (from 1) in ``small``."""
    candidates = [j for j in range(small.l) if big.n_i[mapping[j]] == small.n_i[j] + 1]
    small_p = _permute_t(small.poincare, mapping)
    for j in candidates:
        try:
            quotient = _hom.divide_hat_factor(dict(big.poincare.terms), mapping[j])
        except _hom.NotDivisible:
            continue
        if _hom.equal_up_to_t_shift(small_p, Laurent.from_dict(small_p.nvars, quotient)) is not None:
            return True, j + 1
    return False, None
