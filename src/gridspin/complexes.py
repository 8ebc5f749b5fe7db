"""The sign assignment of the grid chain complex and its whole-complex checks.

The complex is the free module over Z[U_1..U_n] on the double-cover
elements, with the central element identified with -1; coefficients
therefore live on plain permutations.  A monomial is the tuple of
U-exponents indexed by column (the variable of column c belongs to the O
marker there).  The rectangle through columns (a, b) out of x carries the
group-law sign of s(x) * t(a, b), (-1)^bit for the central bit of that
product; it equals eps(r) * c(x, t), the cocycle form of the sign, which
the test suite checks against the generic group law.

The whole-complex checks (d^2 = 0, the sign axioms and the mod-2
consistency check) read ``rectangle_table(G)``, which scans every empty
rectangle, markers and all, once per orbit of the row translation and
peels each generator once; the record layout is built and read only in
this module.  d^2 and the sign axioms share one walk over the composable
pairs that reads each record's bit as its sign and keys each domain by
its end and 2-chain, from one start per orbit of the torus translations.
Reference formulas with other cocycle argument orders, the gauge search
between assignments and the chain maps on double-cover elements are test
oracles.
"""
from __future__ import annotations

import functools
import itertools
from types import MappingProxyType

from .grid import GridDiagram
from .spin import _peel, _right_mul


# ---------------------------------------------------------------------------
# Whole-complex checks


def rectangle_table(G: GridDiagram) -> tuple[list, list]:
    """(generators, rectangles): the generators in ``itertools.permutations``
    order and per generator, in scan order, a record (label, target, bit,
    okey, cells) for each empty rectangle.  ``target`` indexes the
    generators, ``bit`` is the central bit of section(x) * lift(label), read
    from one peel of x, and ``cells`` is the rectangle's 2-chain, cell (c, r)
    at bit 2(c n + r), so two masks add with no carry.  ``okey`` packs the
    O-counts (each 0 or 1) two bits per column, so the key of a composite
    is the sum of two keys, which never carries (no column sum exceeds 2).

    One cyclic scan per left column a: b runs through a+1, a+2, ... and
    ``lowest`` is the smallest row offset (x[c] - x[a]) mod n of the
    columns c passed so far.  Offsets of distinct columns differ, so
    (a, b) is empty exactly when its height h = (x[b] - x[a]) mod n is
    below ``lowest``.  Label, okey and cells come from ``_shapes``, built
    once per call, so every record of one shape shares their objects.

    The row translation x -> x + 1 mod n keeps every height, hence the
    empty rectangles and their order: only x with x[0] = 0 is scanned, and
    its translates reuse its (a, b, h) list, targets carried by the row
    map, each with its own peel, bits and shapes (bottom row x[a]).
    """
    n = G.n
    gens, index, row, _ = _generator_maps(n)
    gens = list(gens)
    shapes = _shapes(G)
    rects = [None] * len(gens)
    for i in range(len(gens) // n):  # x[0] = 0: one generator per row orbit
        x = gens[i]
        scan, targets = [], []
        for a, xa in enumerate(x):
            lowest = n
            for j, (b, _) in enumerate(shapes[a][xa]):
                h = (x[b] - xa) % n
                if h < lowest:
                    lowest = h
                    y = list(x)
                    y[a], y[b] = x[b], xa
                    scan.append((a, b, j, h))
                    targets.append(index[tuple(y)])
        for _ in range(n):
            x = gens[i]
            peeled = _peel(x)
            records = []
            for (a, b, j, h), y in zip(scan, targets):
                label, okey, cells = shapes[a][x[a]][j][1][h]
                records.append((label, y, _right_mul(peeled, a, b), okey, cells))
            rects[i] = records
            i, targets = row[i], [row[y] for y in targets]
    return gens, rects


@functools.cache
def _generator_maps(n: int) -> tuple:
    """(gens, index, row, col) for the generators of size n, read-only:
    the permutations in ``itertools.permutations`` order, the index of
    each, and the index maps of x -> (x + 1) mod n and x -> x[1:] + x[:1]."""
    gens = tuple(itertools.permutations(range(n)))
    index = {x: i for i, x in enumerate(gens)}
    # tuple() of a list, not a generator: no resized tuple is left in CPython's free list
    row = tuple([index[tuple([(v + 1) % n for v in x])] for x in gens])
    col = tuple([index[x[1:] + x[:1]] for x in gens])
    return gens, MappingProxyType(index), row, col


def _shapes(G: GridDiagram) -> list:
    """shapes[a][v]: the pairs (b, per_height) for b = a + 1, a + 2, ...
    (mod n), where per_height[h] is (label, okey, cells) of the rectangle
    with label (a, b), bottom row v and height h.  One label object
    serves every shape with that label.

    rows[h] holds the rows v, ..., v + h - 1 mod n two bits each (reduced
    mod 4^n - 1, which wraps past row n - 1), below[h] the O columns on
    them; a span's cells are rows[h] times its column mask cmask (blocks
    2n bits apart, so no copies meet) and its okey below[h] & omask."""
    n = G.n
    o_col = sorted(range(n), key=G.o_rows.__getitem__)
    per_row = []
    for v in range(n):
        rows, below = [], [0]
        for h in range(n):
            rows.append(((4**h - 1) // 3 << 2 * v) % (4**n - 1))
            below.append(below[-1] | 1 << 2 * o_col[(v + h) % n])
        per_row.append((rows, below))
    shapes = []
    for a in range(n):
        spans, omask, cmask = [], 0, 0
        for width in range(1, n):
            c = (a + width - 1) % n
            omask, cmask = omask | 1 << 2 * c, cmask | 1 << 2 * c * n
            spans.append(((a, (c + 1) % n), omask, cmask))
        shapes.append([
            [(label[1], [(label, below[h] & o, rows[h] * m) for h in range(n)]) for label, o, m in spans]
            for rows, below in per_row
        ])
    return shapes


def mod2_mismatch(table: tuple[list, list]) -> tuple | None:
    """The first generator whose signed and unsigned sums per (target,
    okey), keyed y << 2n | okey (okey < 4^n), differ mod 2, or None.  A
    consistency check: k terms +-1 sum to k mod 2, so it cannot fail.  A
    lone term differs by 0 or 2, so only generators with a repeat are summed."""
    gens, rects = table
    shift = 2 * len(gens[0])
    for x, records in zip(gens, rects):
        keys = [y << shift | okey for _, y, _, okey, _ in records]
        if len(set(keys)) == len(keys):
            continue
        signed, unsigned = {}, {}
        for k, (_, _, bit, _, _) in zip(keys, records):
            signed[k] = signed.get(k, 0) + (-1 if bit else 1)
            unsigned[k] = unsigned.get(k, 0) + 1
        if any((signed[k] - unsigned[k]) % 2 for k in unsigned):
            return x
    return None


class SignAxiomReport:
    """The sign-axiom verdict, and the d^2 offenders that the same walk
    finds (left out of the repr, which states the sign axioms alone)."""

    def __init__(self, square_pairs: int, vertical_annuli: int, horizontal_annuli: int,
                 violations: list[tuple], d2_offenders: list[tuple] | None = None):
        self.square_pairs = square_pairs
        self.vertical_annuli = vertical_annuli
        self.horizontal_annuli = horizontal_annuli
        self.violations = violations
        self.d2_offenders = [] if d2_offenders is None else d2_offenders

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return (f"SignAxiomReport(square_pairs={self.square_pairs!r},"
                f" vertical_annuli={self.vertical_annuli!r},"
                f" horizontal_annuli={self.horizontal_annuli!r}, violations={self.violations!r})")

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sign_axioms(table: tuple[list, list]) -> SignAxiomReport:
    """Verify the square, vertical-annulus and horizontal-annulus axioms for
    the signs (-1)^bit of the table's records on every composable pair, and
    collect the d^2 offenders of the same signs on the same walk.

    Composable pairs returning to their start are annuli (same ordered
    label twice: vertical; opposite labels: horizontal).  All other pairs
    are grouped by domain, keyed by its end and its 2-chain m1 + m2; each
    group must consist of exactly two decompositions with opposite sign
    products.  The same walk sums each pair's sign product into the d^2
    coefficient of its end and O-counts o1 + o2, and lists the
    violations and d^2 offenders of each start in the order of a plain
    walk.  A domain fixes the O-counts of its pairs, so a passing domain
    adds 0 to d^2; each O lies in one vertical thin annulus (its
    column's) and one horizontal (its row's) out of every x, so vertical
    products -1 and horizontal +1 cancel in d^2 wherever the markers are.

    The torus translations carry the pairs out of x to those out of its
    translate.  Once ``_translation_gauges`` finds each bit carried to
    itself up to a gauge g(x) ^ g(y), which cancels in a domain (both ends
    shared) and in an annulus, one start per orbit, weighted by the orbit
    size, decides the report; if that fails, every start is walked.
    """
    gens, rects = table
    maps = _translation_gauges(gens, rects)
    if maps is not None:
        report = _walk(gens, rects, _orbits(*maps[:2]))
        if report.ok and not report.d2_offenders:
            return report
    return _walk(gens, rects, ((i, 1) for i in range(len(gens))))


def _walk(gens: list, rects: list, starts) -> SignAxiomReport:
    """The report of the pairs out of each (start, weight), counts weighted;
    one loop per start serves d^2, the domains and the annuli."""
    violations: list[tuple] = []
    offenders: list[tuple] = []
    n_sq = n_v = n_h = 0
    for i, weight in starts:
        x = gens[i]
        acc: dict[tuple[int, int], int] = {}
        decomps: dict[tuple[int, int], list[tuple]] = {}
        for l1, y, b1, o1, m1 in rects[i]:
            for l2, w, b2, o2, m2 in rects[y]:
                s = -1 if b1 ^ b2 else 1
                key = (w, o1 + o2)
                acc[key] = acc.get(key, 0) + s
                if w != i:
                    decomps.setdefault((w, m1 + m2), []).append((l1, l2, s))
                elif l2 == l1:
                    n_v += weight
                    if s == 1:
                        violations.append(("V", x, l1, l2, s))
                elif l2 == (l1[1], l1[0]):
                    n_h += weight
                    if s == -1:
                        violations.append(("H", x, l1, l2, s))
                else:
                    violations.append(("loop", x, l1, l2))
        n = len(x)
        offenders.extend(
            (x, (gens[w], tuple((m >> 2 * c) & 3 for c in range(n))), k) for (w, m), k in acc.items() if k
        )
        for (w, _), ds in decomps.items():
            if len(ds) != 2:
                violations.append(("Sq-count", x, gens[w], ds))
                continue
            n_sq += weight
            if ds[0][2] != -ds[1][2]:
                violations.append(("Sq", x, gens[w], ds))
    return SignAxiomReport(n_sq, n_v, n_h, violations, offenders)


def _translation_gauges(gens: list, rects: list) -> tuple | None:
    """(row, col, g_row, g_col), or None on a misaligned record or a
    mismatch: the index maps of x -> (x + 1) mod n and x -> x[1:] + x[:1],
    which ``rectangle_table`` has cached in ``_generator_maps``, and gauges
    g under which a record (x, l, y, b) translates to the bit g(x) ^ g(y) ^ b.
    A row translate keeps the record's place and label; a column translate
    relabels (a, b) as (a - 1, b - 1) mod n, moving the block a = 0 last.
    Every x but the identity (g = 0) has a descent, whose width-one strip
    leaves an earlier x, so one pass in generator order spreads both gauges.
    """
    n = len(gens[0])
    _, _, row, col = _generator_maps(n)
    shifted = {(a, b): ((a - 1) % n, (b - 1) % n) for a in range(n) for b in range(n) if a != b}
    unset = b"\0" + b"\2" * (len(gens) - 1)  # 2 until the pass spreads a bit there
    g_row, g_col = bytearray(unset), bytearray(unset)
    for i, rs in enumerate(rects):
        gr, gc, up, left = g_row[i], g_col[i], rects[row[i]], rects[col[i]]
        if gr > 1 or not len(rs) == len(up) == len(left):
            return None
        m = sum(r[0][0] != 0 for r in rs)
        for (l, y, b, _, _), (ul, uy, ub, _, _), (ll, ly, lb, _, _) in zip(rs, up, left[m:] + left[:m]):
            if ul != l or ll != shifted[l] or uy != row[y] or ly != col[y]:
                return None
            if g_row[y] > 1:  # the first record into y spreads both gauges there
                g_row[y], g_col[y] = gr ^ b ^ ub, gc ^ b ^ lb
            elif g_row[y] != gr ^ b ^ ub or g_col[y] != gc ^ b ^ lb:
                return None
    return row, col, g_row, g_col


def _orbits(row: list, col: list):
    """(start, size) per orbit of the translations, the start first in
    generator order: the union of the row cycles through its column cycle."""
    seen = bytearray(len(row))
    for i in range(len(row)):
        size, j = 0, i
        while not seen[i] or j != i:
            k = j
            while not seen[k]:
                seen[k], size, k = 1, size + 1, row[k]
            j = col[j]
        if size:
            yield i, size

