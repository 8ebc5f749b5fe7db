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
Pivots of the residual stage need not be units and clear nothing.  The
hat reduction peels the free factor of each extra grid row off the
bigraded ranks, and the Poincare, Euler and Alexander polynomials are
exact Laurent polynomials.

Alexander exponents are half-integers in general, so t-exponents are
stored doubled throughout; q-exponents (Maslov) stay plain integers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple, Sequence

from . import grid as _grid
from .grid import ComponentData, GridDiagram
from .spin import _right_mul


class NotDivisible(ArithmeticError):
    """Hat reduction failed: the tilde polynomial lacks the predicted factor."""


# ---------------------------------------------------------------------------
# Sparse Laurent polynomials in q, t_1..t_l (t-exponents doubled)

Exponent = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class Laurent:
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


def _exp_str(e2: int) -> str:
    if e2 % 2 == 0:
        return str(e2 // 2)
    return f"({e2}/2)"


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


@dataclass(frozen=True)
class SmithForm:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix, and
    the rows the unit stage of ``smith_normal_form`` pivoted on (not
    compared, not shown)."""

    diagonal: tuple[int, ...]
    pivot_rows: frozenset[int] = field(default=frozenset(), compare=False, repr=False)

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
       an entry of absolute value one in the shortest row.  The row
       operations clear the rest of the pivot column, after which the
       pivot row and column leave the matrix.  Every step is unimodular
       and contributes the invariant factor 1.  Boundary blocks of grid
       complexes have almost only +-1 entries, so this stage usually
       leaves nothing behind.  The pivot rows are reported as
       ``pivot_rows``; no row operation ever adds to one of them after it
       pivoted, which is what lets the homology assembly clear them.
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
            p = min((r for r in members if rows[r][c] in (1, -1)), key=lambda r: len(rows[r]), default=None)
            if p is None:
                continue  # re-queued if elimination changes its count
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


@dataclass(frozen=True)
class HomologySummary:
    flavor: str
    l: int
    n_i: tuple[int, ...]
    pieces: tuple[tuple[Bigrading, int, tuple[int, ...]], ...]  # (bigrading, free rank, torsion)
    poincare: Laurent
    euler: Laurent

    @property
    def total_rank(self) -> int:
        return sum(rank for _, rank, _ in self.pieces)

    @property
    def has_torsion(self) -> bool:
        return any(tor for _, _, tor in self.pieces)

    def piece(self, maslov: int, alexander2: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        for bg, rank, tor in self.pieces:
            if bg == Bigrading(maslov, tuple(alexander2)):
                return rank, tor
        return 0, ()

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


def bigraded_homology(G: GridDiagram) -> HomologySummary:
    """Homology of the marker-free differential, split by bigrading."""
    comps = G.components
    by_grading = {Bigrading(*bg): xs for bg, xs in _grid.graded_generators(G).items()}

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
            if c not in skip:
                for label, y in _grid.empty_rectangles(G, x, marker_free=True):  # y is one Maslov degree down
                    r = targets[y]
                    v = column.get(r, 0) + (-1 if _right_mul(x, *label) else 1)
                    if v:
                        column[r] = v
                    else:
                        del column[r]
            columns.append(column)
        S = smith_normal_form(columns)
        if S.pivot_rows:
            cleared[down] = S.pivot_rows
        snfs[bg] = SmithForm(S.diagonal)

    pieces = []
    poincare: dict[Exponent, int] = {}
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
        if free:
            poincare[(bg.maslov, bg.alexander2)] = free
    p = Laurent.from_dict(comps.l, poincare)
    return HomologySummary(
        flavor="tilde",
        l=comps.l,
        n_i=comps.n_i,
        pieces=tuple(pieces),
        poincare=p,
        euler=p.at_q_minus_one(),
    )


def divide_hat_factor(ranks: dict[Exponent, int], j: int) -> dict[Exponent, int]:
    """Quotient of a {(q, t2): rank} table by (1 + q^-1 t_j^-1), the
    Poincare polynomial of the free factor V_j that each extra row of
    component j adds to the tilde homology.

    Peels from the top: the lexicographically largest bigrading left holds
    a quotient rank c, and c is taken off one step down, at (q - 1, t_j - 1).
    A negative value raises NotDivisible.  A table without the factor
    always ends in one, at the bottom of some line, so the walk stops."""
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
        rest = left.pop(below, 0) - c
        if rest:
            left[below] = rest
    return quotient


def hat_reduction(H: HomologySummary, components: ComponentData) -> HomologySummary:
    """Peel the factor V_i off the tilde ranks n_i - 1 times per component;
    a negative rank on the way signals an upstream bug and raises
    NotDivisible."""
    if H.flavor != "tilde":
        raise ValueError("hat reduction applies to tilde summaries")
    if H.has_torsion:
        raise NotDivisible("tilde homology has torsion; hat ranks are undefined here")
    l = components.l
    ranks = dict(H.poincare.terms)
    for j in range(l):
        for _ in range(components.n_i[j] - 1):
            ranks = divide_hat_factor(ranks, j)
    quotient = Laurent.from_dict(l, ranks)
    return HomologySummary(
        flavor="hat",
        l=l,
        n_i=components.n_i,
        pieces=tuple((Bigrading(q, t2), c, ()) for (q, t2), c in quotient.terms),
        poincare=quotient,
        euler=quotient.at_q_minus_one(),
    )


def alexander_polynomial(G: GridDiagram) -> Laurent:
    """Euler characteristic of the hat homology, symmetrised under t -> 1/t
    and, for knots, signed so the value at t = 1 is one."""
    comps = G.components
    hat = hat_reduction(bigraded_homology(G), comps)
    e = hat.euler
    if e.is_zero():
        return e
    l = comps.l
    shift = []
    for i in range(l):
        exps = [t2[i] for (_, t2), _ in e.terms]
        lo, hi = min(exps), max(exps)
        if (lo + hi) % 2:
            raise AssertionError("cannot centre the Euler polynomial")
        shift.append(-(lo + hi) // 2)
    e = e.shifted(0, shift)
    if e.t_reversed() != e:
        raise AssertionError("centred Euler polynomial is not symmetric")
    total = sum(c for _, c in e.terms)
    if total < 0 or (total == 0 and max(e.terms)[1] < 0):
        e = -e
    return e
