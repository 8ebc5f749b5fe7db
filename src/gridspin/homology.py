"""Exact integer homology of the fully graded complex.

Generators split by (Maslov, Alexander) bigrading and the marker-free
differential maps each piece to the piece one Maslov degree down.  Each
such boundary block is built as sparse columns, one {row: value} dict per
source generator, and reduced as soon as it is built; only its Smith form
is kept.  Free ranks and torsion come from the Smith normal forms over Z
of the incoming and outgoing blocks.  Within each Alexander grading the
blocks go from the highest Maslov degree down, and a generator that the
block above used as a unit pivot row gets an empty column unscanned
(clearing: Chen and Kerber, Persistent homology computation with a twist,
EuroCG 2011).  It is exact over Z: the unit stage of
``smith_normal_form`` only adds multiples of a pivot row to other rows and
drops the row once used, so its row operations L have L[P, not P] = 0 for
the unit pivot rows P.  Then {L^-1 e_p : p in P} and {e_x : x not in P}
form a basis, the first part is a boundary that d^2 = 0 kills, and the
block's Smith form, torsion included, is that of its columns outside P.
Pivots of the residual stage need not be units and clear nothing.

Both flavours reduce only the region R of bigradings with 2A >= c
lexicographically and fill in the rest by a symmetry over Z, torsion
included: (M, 2A) -> (M - sum(2A - c), 2c - 2A).  The blocks keep the
Alexander grading, so the homology on R is R's own; with d = 2A - c,
d > 0 gives -d < 0 lexicographically, so the mirror takes R off the
plane 2A = c one to one onto the rest and fixes that plane.  Hat has
c = 0: HFL-hat_d(L, h) = HFL-hat_{d - 2 sum h_i}(L, -h) (Ozsvath-Szabo,
math/0209056, math/0512286).  Tilde = hat (x) V^(n - l), with V_j free
at (0, 0) and (-1, -2 e_j) (Manolescu-Ozsvath-Sarkar, math/0607691), so
tilde is symmetric about c = (1 - n_j)_j, the sum of the centres.  Hat
peels V_j off its R, which only moves rank down in one A_j, so the peel
reads R alone; tilde holds hat at the same bigrading, and hat torsion
anywhere has a mirror image in R, so refusing tilde torsion in R loses
nothing.  ``tests/oracle_hat.py`` checks both against the full walk and
the full peel, and ``tests/oracle_alexander.py`` guards the symmetry
assertion of ``alexander_polynomial``, which holds by construction.

Alexander exponents are half-integers in general, so t-exponents are
stored doubled throughout; q-exponents (Maslov) stay plain integers.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple, Sequence

from . import grid as _grid
from .grid import GridDiagram
from .spin import _peel, _right_mul


class NotDivisible(ArithmeticError):
    """Hat reduction failed: the tilde polynomial lacks the predicted factor."""


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials in q, t_1..t_l (t-exponents doubled)

Exponent = tuple[int, tuple[int, ...]]


class Laurent(NamedTuple):
    """Integer Laurent polynomial; terms maps (q_exp, t2_exps) -> coeff."""

    nvars: int  # number of t variables
    terms: tuple[tuple[Exponent, int], ...]

    @classmethod
    def from_dict(cls, nvars: int, d: dict[Exponent, int]) -> "Laurent":
        return cls(nvars, tuple(sorted((e, c) for e, c in d.items() if c)))

    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self) -> "Laurent":
        return Laurent(self.nvars, tuple((e, -c) for e, c in self.terms))

    def at_q_minus_one(self) -> "Laurent":
        """Specialise q to -1 (the Euler characteristic)."""
        d: dict[Exponent, int] = {}
        for (q, t2), c in self.terms:
            e = (0, t2)
            d[e] = d.get(e, 0) + (-c if q % 2 else c)
        return Laurent.from_dict(self.nvars, d)

    def shifted(self, dq: int, dt2: Sequence[int]) -> "Laurent":
        return Laurent(
            self.nvars,
            tuple(
                ((q + dq, tuple(a + b for a, b in zip(t2, dt2))), c)
                for (q, t2), c in self.terms
            ),
        )

    def t_reversed(self) -> "Laurent":
        """Substitute every t_i by its inverse."""
        return Laurent.from_dict(
            self.nvars, {(q, tuple(-a for a in t2)): c for (q, t2), c in self.terms}
        )

    def __str__(self) -> str:
        return render_polynomial(self)


def half_str(a2: int) -> str:
    """a2 / 2 as an integer or a reduced fraction: 3 -> '3/2', -4 -> '-2'."""
    return str(a2 // 2) if a2 % 2 == 0 else f"{a2}/2"


def _exp_str(e2: int) -> str:
    s = half_str(e2)
    return f"({s})" if e2 % 2 else s


def render_polynomial(p: Laurent) -> str:
    """Canonical string: terms in descending lexicographic exponent order."""
    if p.is_zero():
        return "0"
    tnames = ["t"] if p.nvars == 1 else [f"t{i+1}" for i in range(p.nvars)]
    chunks = []
    for (q, t2), c in sorted(p.terms, reverse=True):
        factors = []
        if q:
            factors.append("q" if q == 1 else f"q^{q}")
        for name, e2 in zip(tnames, t2):
            if e2:
                factors.append(name if e2 == 2 else f"{name}^{_exp_str(e2)}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        chunks.append((c < 0, body))
    out = ("-" if chunks[0][0] else "") + chunks[0][1]
    for neg, body in chunks[1:]:
        out += (" - " if neg else " + ") + body
    return out


def equal_up_to_t_shift(p: Laurent, q: Laurent) -> tuple[int, ...] | None:
    """If q equals p with every t_i shifted by a constant, return the
    doubled shifts (q-exponents must match on the nose); else None."""
    if p.is_zero() and q.is_zero():
        return (0,) * p.nvars
    if p.is_zero() or q.is_zero() or len(p.terms) != len(q.terms):
        return None
    (q1, t1), _ = max(p.terms)
    (q2, t2), _ = max(q.terms)
    if q1 != q2:
        return None
    shift = tuple(b - a for a, b in zip(t1, t2))
    return shift if p.shifted(0, shift) == q else None


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, and
    the rows the unit stage of ``smith_normal_form`` pivoted on (not
    compared, not shown)."""

    __slots__ = ("diagonal", "pivot_rows")

    def __init__(self, diagonal: tuple[int, ...], pivot_rows: frozenset[int] = frozenset()):
        self.diagonal, self.pivot_rows = diagonal, pivot_rows

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.diagonal == other.diagonal

    def __hash__(self) -> int:
        return hash(self.diagonal)

    def __repr__(self) -> str:
        return f"SmithForm(diagonal={self.diagonal!r})"

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def smith_normal_form(columns: Sequence[dict[int, int]]) -> SmithForm:
    """Invariant factors over Z of the integer matrix whose column c is
    columns[c], a {row: value} dict of its nonzero entries.  Rows are
    whatever keys appear; an empty column, or no columns at all, is a
    zero part of the matrix.  Rows are kept as {col: value} and columns as
    sets of rows, and one loop reduces them in place, first in the unit
    stage and then in the residual stage.  Both reduce the pivot column by
    the same row operations, which take every other entry of the column to
    its remainder modulo the pivot.

    1. Unit stage.  Columns are taken fewest nonzeros first from a bucket
       queue indexed by nonzero count (an entry whose count has since
       changed is skipped when taken); in the chosen column the pivot is
       an entry of absolute value one in the shortest row (the first one
       met on ties).  The row operations clear the rest of the pivot
       column, after which the pivot row and column leave the matrix.
       When the pivot is alone in its row, as about half of them are on
       boundary blocks, those row operations only delete the other
       entries of the pivot column, so the step does just that, with no
       arithmetic.  Every step is unimodular and contributes the
       invariant factor 1.  Boundary blocks of grid complexes have almost
       only +-1 entries, so this stage usually leaves nothing behind.
       The pivot rows are reported as ``pivot_rows``; no row operation
       ever adds to one of them after it pivoted, which is what lets the
       homology assembly clear them.
    2. Residual stage, once the queue is empty.  The smallest entry left
       pivots (the shortest row on ties).  The row operations reduce its
       column; once the column holds only the pivot, column operations
       reduce its row modulo the pivot, touching that row alone.  When
       both are clear, the pivot leaves with its row and column;
       otherwise a smaller remainder is left and takes over.  So the
       smallest entry left strictly shrinks between removals, and the
       stage ends.  Its pivots are not reported: a remainder that takes
       over adds multiples of its row to the row that pivoted before it,
       so they lack the property that clearing needs.  Pairwise gcd and
       lcm then turn the removed pivots into a divisibility chain.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for c, column in enumerate(columns):
        if column:
            cols[c] = set(column)
            for r, v in column.items():
                rows.setdefault(r, {})[c] = v
    # queue[k] holds columns queued with k nonzeros and no bucket below
    # low is occupied; a column never has more nonzeros than there are
    # rows.  Unlike heapq this loads no extension module, which would add
    # about 0.2 MB to every process that imports gridspin
    nrows = len(rows)
    queue: list[list[int]] = [[] for _ in range(nrows + 1)]
    for c, members in cols.items():
        queue[len(members)].append(c)
    low = 1
    pivots = []
    chain = []
    while rows:
        unit = low <= nrows
        if unit:
            if not queue[low]:
                low += 1
                continue
            c = queue[low].pop()
            members = cols.get(c)
            if members is None or len(members) != low:
                continue
            # the first shortest row with a unit in column c; a row holds
            # at most one entry per live column
            p, best = None, len(cols) + 1
            for r in members:
                row = rows[r]
                if len(row) < best and row[c] in (1, -1):
                    p, best = r, len(row)
                    if best == 1:
                        break
            if p is None:
                continue  # re-queued if elimination changes its count
            if best == 1:
                # the pivot is alone in its row, so the row operations
                # only delete entry c from the other rows of column c
                for r in cols.pop(c):
                    row = rows[r]
                    del row[c]
                    if not row:
                        del rows[r]
                pivots.append(p)
                continue
        else:
            _, _, p, c = min((abs(v), len(row), r, c) for r, row in rows.items() for c, v in row.items())
        # row operations take every other entry of column c to its
        # remainder modulo the pivot d, so a unit is left alone there
        top = rows[p]
        d = top[c]
        for r in list(cols[c]):
            if r == p:
                continue
            row = rows[r]
            f = row[c] // d
            for j, w in top.items():
                v = row.get(j, 0) - f * w
                if v:
                    if j not in row:
                        cols[j].add(r)
                    row[j] = v
                else:
                    del row[j]
                    cols[j].discard(r)
            if not row:
                del rows[r]
        if unit:
            # column c now holds only the pivot, so column operations
            # clear the rest of row p without touching any other row
            del rows[p], cols[c]
            for j in top:
                if j != c:
                    cols[j].discard(p)
                    if cols[j]:
                        k = len(cols[j])
                        queue[k].append(j)
                        low = min(low, k)
                    else:
                        del cols[j]
            pivots.append(p)
        elif len(cols[c]) == 1:  # else a remainder in column c is smaller than d
            for j in [j for j in top if j != c]:
                v = top[j] % d
                if v:
                    top[j] = v
                else:
                    del top[j]
                    cols[j].discard(p)
                    if not cols[j]:
                        del cols[j]
            if len(top) == 1:
                del rows[p], cols[c]
                chain.append(abs(d))

    # diag(a, b) is equivalent to diag(gcd, lcm); one pass per position
    # turns the diagonal into a divisibility chain
    units = len(pivots) + chain.count(1)
    chain = [d for d in chain if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return SmithForm((1,) * units + tuple(chain), frozenset(pivots))


# ---------------------------------------------------------------------------
# Bigraded homology


class Bigrading(NamedTuple):
    maslov: int
    alexander2: tuple[int, ...]


Piece = tuple[Bigrading, int, tuple[int, ...]]  # (bigrading, free rank, torsion)


class HomologySummary(NamedTuple):
    flavor: str
    l: int
    n_i: tuple[int, ...]
    pieces: tuple[Piece, ...]
    poincare: Laurent
    euler: Laurent

    @property
    def total_rank(self) -> int:
        return sum(rank for _, rank, _ in self.pieces)

    def to_json_dict(self) -> dict:
        return {
            "flavor": self.flavor,
            "pieces": [
                {
                    "maslov": bg.maslov,
                    "alexander2": list(bg.alexander2),
                    "free_rank": rank,
                    "torsion": list(tor),
                }
                for bg, rank, tor in self.pieces
            ],
            "poincare": render_polynomial(self.poincare),
            "euler": render_polynomial(self.euler),
        }


def bigraded_homology(G: GridDiagram, a2: tuple[int, ...]) -> list[Piece]:
    """Homology of the marker-free differential at the bigradings whose
    doubled Alexander grading is lexicographically at least ``a2``: the
    (bigrading, free rank, torsion) pieces that are not zero, sorted by
    bigrading.  Each block maps one Alexander grading to itself, so any
    set of Alexander gradings spans a direct summand of the complex, and
    its blocks are the full complex's."""
    by_grading = {Bigrading(*bg): xs for bg, xs in _grid.graded_generators(G, a2).items()}

    # each block is reduced as soon as it is built, so the columns of one
    # block at a time are alive; the column of x merges its rectangles per
    # target and drops zero sums, since on a split grid (a, b) and (b, a)
    # out of x can both be marker-free and cancel.  Blocks go down in
    # Maslov degree per Alexander grading, and the unit pivot rows of a
    # block are kept only until the block below, where they are cleared
    snfs: dict[Bigrading, SmithForm] = {}
    cleared: dict[Bigrading, frozenset[int]] = {}
    for bg in sorted(by_grading, key=lambda bg: (bg.alexander2, -bg.maslov)):
        down = Bigrading(bg.maslov - 1, bg.alexander2)
        targets = {y: r for r, y in enumerate(by_grading.get(down, ()))}
        skip = cleared.pop(bg, frozenset())
        columns = []
        for c, x in enumerate(by_grading[bg]):
            column: dict[int, int] = {}
            rects = () if c in skip else _grid.empty_rectangles(G, x)
            if rects:
                peeled = _peel(x)  # one peel serves every sign out of x
            for (a, b), y in rects:  # y is one Maslov degree down
                r = targets[y]
                v = -1 if _right_mul(peeled, a, b) else 1
                if r in column:  # only on split grids
                    v += column[r]
                    if not v:
                        del column[r]
                        continue
                column[r] = v
            columns.append(column)
        S = smith_normal_form(columns)
        if S.pivot_rows:
            cleared[down] = S.pivot_rows
        snfs[bg] = SmithForm(S.diagonal)

    pieces = []
    for bg in sorted(by_grading):
        dim = len(by_grading[bg])
        rank_out = snfs[bg].rank
        up = Bigrading(bg.maslov + 1, bg.alexander2)
        rank_in = snfs[up].rank if up in snfs else 0
        torsion = snfs[up].torsion() if up in snfs else ()
        free = dim - rank_out - rank_in
        assert free >= 0
        if free or torsion:
            pieces.append((bg, free, torsion))
    return pieces


def _mirrored(flavor: str, G: GridDiagram, pieces: Sequence[Piece], centre: tuple[int, ...]) -> HomologySummary:
    """The summary of ``pieces``, on the region 2A >= centre, and their mirror images."""
    comps = G.components
    every = list(pieces)
    for bg, free, torsion in pieces:
        d = [a - c for a, c in zip(bg.alexander2, centre)]
        if any(d):
            every.append((Bigrading(bg.maslov - sum(d), tuple(c - e for c, e in zip(centre, d))), free, torsion))
    every.sort()
    p = Laurent.from_dict(comps.l, {(bg.maslov, bg.alexander2): free for bg, free, _ in every})
    return HomologySummary(flavor, comps.l, comps.n_i, tuple(every), p, p.at_q_minus_one())


def tilde_homology(G: GridDiagram) -> HomologySummary:
    """Tilde homology: the pieces on the region 2A >= (1 - n_j)_j and their
    mirror images, (M, 2A) -> (M - sum 2A_i - (n - l), -2A - 2(n_j - 1)_j)."""
    centre = tuple(1 - k for k in G.components.n_i)
    return _mirrored("tilde", G, bigraded_homology(G, centre), centre)


def divide_hat_factor(
    ranks: dict[Exponent, int], j: int, a2: tuple[int, ...] | None = None
) -> dict[Exponent, int]:
    """Quotient of a {(q, t2): rank} table by (1 + q^-1 t_j^-1), the
    Poincare polynomial of the free factor V_j that each extra row of
    component j adds to the tilde homology.

    Peels from the top: the lexicographically largest bigrading left holds
    a quotient rank c, and c is taken off one step down, at (q - 1, t_j - 1).
    A negative value raises NotDivisible.  A table without the factor
    always ends in one, at the bottom of some line, so the walk stops.

    With ``a2`` the table covers only the region t2 >= a2
    (lexicographically), which raising any t_j never leaves: the quotient
    at a bigrading reads the table at that bigrading and above it along
    t_j, so it is exact on the region, and a step down out of the region
    is dropped instead of taken off."""
    left = {e: c for e, c in ranks.items() if c}
    quotient: dict[Exponent, int] = {}
    while left:
        e = max(left)
        c = left.pop(e)
        if c < 0:
            raise NotDivisible(f"negative remainder {c} at {e}")
        quotient[e] = c
        q, t2 = e
        below = (q - 1, t2[:j] + (t2[j] - 2,) + t2[j + 1 :])
        if a2 is not None and below[1] < a2:
            continue
        rest = left.pop(below, 0) - c
        if rest:
            left[below] = rest
    return quotient


def hat_homology(G: GridDiagram) -> HomologySummary:
    """Hat homology: the tilde pieces on the region 2A >= 0, the factor
    V_j peeled off them n_j - 1 times per component, and their mirror
    images.  Tilde torsion there, or a negative rank on the way, raises
    NotDivisible."""
    comps = G.components
    zero = (0,) * comps.l
    pieces = bigraded_homology(G, zero)
    if any(torsion for _, _, torsion in pieces):
        raise NotDivisible("tilde homology has torsion; hat ranks are undefined here")
    ranks = {(bg.maslov, bg.alexander2): free for bg, free, _ in pieces}
    for j in range(comps.l):
        for _ in range(comps.n_i[j] - 1):
            ranks = divide_hat_factor(ranks, j, zero)
    return _mirrored("hat", G, [(Bigrading(q, t2), c, ()) for (q, t2), c in ranks.items()], zero)


def alexander_polynomial(G: GridDiagram) -> Laurent:
    """Euler characteristic of the hat homology, signed so that, for knots,
    the value at t = 1 is one.  The hat mirror maps 2A to -2A, so the
    polynomial is already centred; its symmetry under t -> 1/t is asserted."""
    e = hat_homology(G).euler
    if e.is_zero():
        return e
    if e.t_reversed() != e:
        raise AssertionError("Euler polynomial is not symmetric")
    total = sum(c for _, c in e.terms)
    if total < 0 or (total == 0 and max(e.terms)[1] < 0):
        e = -e
    return e
