"""Independent unsigned mod-2 homology oracle for cross-checks.

Self-contained on purpose: rectangles, gradings and ranks are recomputed
here from the raw grid data, with ranks coming from bitmask Gaussian
elimination over GF(2).  Nothing is imported from the package's sign
machinery or its Smith normal form engine.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


def _pairs_below(A, B) -> int:
    return sum(1 for a in A for b in B if a[0] < b[0] and a[1] < b[1])


def _J(A, B) -> Fraction:
    return Fraction(_pairs_below(A, B) + _pairs_below(B, A), 2)


def _components(n, o_rows, x_rows):
    x_col = {r: c for c, r in enumerate(x_rows)}
    comp_of_row = {}
    comps = []
    for start in range(n):
        if start in comp_of_row:
            continue
        cur = []
        r = start
        while r not in comp_of_row:
            comp_of_row[r] = len(comps)
            cur.append(r)
            r = o_rows[x_col[r]]
        comps.append(cur)
    return comp_of_row, comps


def gradings(n, o_rows, x_rows, x):
    """(maslov, doubled alexander tuple) computed from first principles."""
    pts = [(2 * i, 2 * v) for i, v in enumerate(x)]
    O = [(2 * c + 1, 2 * r + 1) for c, r in enumerate(o_rows)]
    X = [(2 * c + 1, 2 * r + 1) for c, r in enumerate(x_rows)]
    m = _J(pts, pts) - 2 * _J(pts, O) + _J(O, O) + 1
    assert m.denominator == 1
    comp_of_row, comps = _components(n, o_rows, x_rows)
    # order components the same way the package does: by smallest O column
    keyed = sorted(range(len(comps)), key=lambda k: min(c for c in range(n) if comp_of_row[o_rows[c]] == k))
    alex = []
    for k in keyed:
        Oj = [O[c] for c in range(n) if comp_of_row[o_rows[c]] == k]
        Xj = [X[c] for c in range(n) if comp_of_row[x_rows[c]] == k]
        ni = len(comps[k])
        a = _J(pts, Xj) - _J(pts, Oj) - Fraction(1, 2) * (
            _J(X, Xj) - _J(X, Oj) + _J(O, Xj) - _J(O, Oj)
        ) - Fraction(ni - 1, 2)
        a2 = 2 * a
        assert a2.denominator == 1
        alex.append(int(a2))
    return int(m), tuple(alex)


def marker_free_empty_rectangles(n, o_rows, x_rows, x):
    """Targets of empty rectangles from x containing no marker, listed per
    ordered column pair by direct cell scanning."""
    out = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            width = (b - a) % n
            height = (x[b] - x[a]) % n
            cols = [(a + i) % n for i in range(width)]
            rows = set((x[a] + i) % n for i in range(height))
            if any(x[k] in rows and x[k] != x[a] for k in cols[1:]):
                continue  # generator point strictly inside
            if any(o_rows[c] in rows or x_rows[c] in rows for c in cols):
                continue  # contains a marker
            y = list(x)
            y[a], y[b] = y[b], y[a]
            out.append(tuple(y))
    return out


def _gf2_rank(columns: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for v in columns:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            rank += 1
    return rank


def bigraded_ranks(n, o_rows, x_rows) -> dict[tuple[int, tuple[int, ...]], int]:
    """Mod-2 homology ranks of the marker-free differential per bigrading."""
    gens = list(itertools.permutations(range(n)))
    grade = {x: gradings(n, o_rows, x_rows, x) for x in gens}
    pieces: dict[tuple[int, tuple[int, ...]], list] = {}
    for x in gens:
        pieces.setdefault(grade[x], []).append(x)
    index = {bg: {x: i for i, x in enumerate(v)} for bg, v in pieces.items()}
    ranks: dict[tuple, int] = {}
    for bg, members in pieces.items():
        below = (bg[0] - 1, bg[1])
        tgt = index.get(below, {})
        cols = []
        for x in members:
            v = 0
            for y in marker_free_empty_rectangles(n, o_rows, x_rows, x):
                v ^= 1 << tgt[y]
            cols.append(v)
        ranks[bg] = _gf2_rank(cols)
    out = {}
    for bg, members in pieces.items():
        up = (bg[0] + 1, bg[1])
        dim = len(members)
        h = dim - ranks[bg] - ranks.get(up, 0)
        if h:
            out[bg] = h
    return out


def total_rank(n, o_rows, x_rows) -> int:
    return sum(bigraded_ranks(n, o_rows, x_rows).values())


def table_mismatch(table) -> tuple | None:
    """The first generator of a rectangle table (generators, per generator
    records (label, target, bit, okey, cells)) whose signed sum (-1 for a
    true bit, +1 otherwise) and plain count per key target << 2n | okey
    differ mod 2, or None: one dict sum over every record."""
    gens, rects = table
    n = len(gens[0])
    for x, records in zip(gens, rects):
        sums: dict[int, list[int]] = {}
        for _, y, bit, okey, _ in records:
            signed_count = sums.setdefault(y << 2 * n | okey, [0, 0])
            signed_count[0] += -1 if bit else 1
            signed_count[1] += 1
        if any((signed - count) % 2 for signed, count in sums.values()):
            return x
    return None
