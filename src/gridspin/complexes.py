"""The sign assignment of the grid chain complex and its whole-complex checks.

The complex is the free module over Z[U_1..U_n] on the double-cover
elements, with the central element identified with -1; coefficients
therefore live on plain permutations.  A monomial is the tuple of
U-exponents indexed by column (the variable of column c belongs to the O
marker there).  The rectangle through columns (a, b) out of x carries the
group-law sign of s(x) * t(a, b), and ``sign_assignment`` gives the same
sign by the cocycle formula.

The whole-complex checks (d^2 = 0 and the sign axioms) read
``rectangle_table(G)``, which scans and peels each generator once, and
share one walk over the composable pairs.  The sign check takes any sign
assignment one generator at a time, as a function x -> (label -> +-1); the
program has one, the signs of ``sign_assignment``, and reference formulas
with other cocycle argument orders, the gauge search between assignments
and the chain maps on double-cover elements are test oracles.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from . import grid as _grid
from .grid import GridDiagram
from .spin import Label, _peel, _right_mul, _transposition_cocycle, is_permutation

SignFn = Callable[[tuple[int, ...]], Callable[[Label], int]]  # x -> (label -> +-1)


def sign_assignment(G: GridDiagram, x: tuple[int, ...], label: Label) -> int:
    """Sign of the empty rectangle with the given label out of x.

    The sign is eps(r) * c(x, t), a cocycle value on the pair of x and the
    transposition t = x^-1 y; with this argument order it matches right
    multiplication in the double cover, hence reproduces the minus
    differential exactly.  eps(r) is -1 exactly for horizontally torn
    rectangles.  Raises ValueError unless x is a generator of G and the
    label names an empty rectangle out of it.
    """
    x = tuple(x)
    n = G.n
    if len(x) != n or not is_permutation(x):
        raise ValueError(f"{x} is not a generator of a grid of size {n}")
    a, b = label
    if not (0 <= a < n and 0 <= b < n and a != b):
        raise ValueError(f"invalid label {label}")
    # empty iff every column strictly inside (a, b) has its point above the
    # height, by row offset from x[a] (the rule of empty_rectangles)
    h = (x[b] - x[a]) % n
    if any((x[c] - x[a]) % n < h for c in _grid.cyclic_span(a, b, n)[1:]):
        raise ValueError(f"rectangle {label} out of {x} is not empty")
    return _rectangle_signs(x)(label)


def _rectangle_signs(x: tuple[int, ...]) -> Callable[[Label], int]:
    """``sign_assignment`` out of the generator x, for labels already known
    to name empty rectangles out of it; x is peeled once for all of them."""
    peeled = _peel(x)

    def sign(label: Label) -> int:
        # x^-1 y is the plain transposition (a b)
        eps = -1 if _grid.is_horizontally_torn(label) else 1
        return eps * _transposition_cocycle(peeled, *label)

    return sign


# ---------------------------------------------------------------------------
# Whole-complex checks


def rectangle_table(G: GridDiagram) -> tuple[list, list]:
    """(generators, rectangles): the generators in ``itertools.permutations``
    order and per generator, in scan order, a record (label, target, bit,
    okey, cells) for each empty rectangle.  ``target`` indexes the
    generators, ``bit`` is the central bit of section(x) * lift(label), read
    from one peel of x, and ``cells`` the scan's 2-chain.  ``okey`` packs
    the O-counts (each 0 or 1) two bits per column, so the key of a composite
    is the sum of two keys, which never carries (no column sum exceeds 2).
    Labels and cell masks are the objects of ``G.rectangle_shapes``, one per shape.
    """
    gens = list(itertools.permutations(range(G.n)))
    index = {x: i for i, x in enumerate(gens)}
    pack = functools.cache(lambda ocols: sum(k << 2 * c for c, k in enumerate(ocols)))
    rects = [
        [
            (label, index[y], _right_mul(peeled, *label), pack(ocols), cells)
            for label, y, ocols, cells in _grid.empty_rectangles(G, x)
        ]
        for x, peeled in zip(gens, map(_peel, gens))
    ]
    return gens, rects


@dataclass
class SignAxiomReport:
    """The sign-axiom verdict, and the d^2 offenders of the table's
    group-law bits that the same walk finds (left out of the repr, which
    states the sign axioms alone)."""

    square_pairs: int
    vertical_annuli: int
    horizontal_annuli: int
    violations: list[tuple]
    d2_offenders: list[tuple] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_sign_axioms(table: tuple[list, list], S: SignFn = _rectangle_signs) -> SignAxiomReport:
    """Verify the square, vertical-annulus and horizontal-annulus axioms for
    the signs S(x)(label) (by default those of ``sign_assignment``) on every
    composable pair in the table, and collect the d^2 offenders of the
    table's group-law bits on the same walk.

    Composable pairs returning to their start are annuli (same ordered
    label twice: vertical; opposite labels: horizontal).  All other pairs
    are grouped by domain, keyed by its 2-chain m1 + m2 (x and the 2-chain
    fix the end); each group must consist of exactly two decompositions with
    opposite sign products.  A domain fixes the O-counts of its pairs, so one
    of two decompositions with opposite group-law products adds 0 to d^2.  A
    start generator whose annuli cancel in d^2 and whose domains all pass both
    tests is done; any other is walked again pair by pair, which lists its
    violations and d^2 offenders in the order of a plain walk.
    """
    gens, rects = table
    # per rectangle: the group-law bit in bit 0, and bit 1 set where S is -1;
    # one byte each, parallel to the table's records
    codes = [bytes([bit | (s(label) < 0) << 1 for label, _, bit, _, _ in rs]) for s, rs in zip(map(S, gens), rects)]
    violations: list[tuple] = []
    offenders: list[tuple] = []
    n_sq = n_v = n_h = 0
    for i, x in enumerate(gens):
        # every domain out of x is complete once x's pairs are seen; each
        # lists the pair codes c1 ^ c2 of its decompositions
        domains: dict[int, list[int]] = {}
        add = domains.setdefault
        annuli: dict[int, int] = {}  # d^2 sums of the pairs back to x, by okey
        for (l1, y, _, o1, m1), c1 in zip(rects[i], codes[i]):
            for (l2, w, _, o2, m2), c2 in zip(rects[y], codes[y]):
                if w == i:
                    p = c1 ^ c2
                    annuli[o1 + o2] = annuli.get(o1 + o2, 0) + (-1 if p & 1 else 1)
                    if l2 == l1:
                        n_v += 1
                        if not p & 2:
                            violations.append(("V", x, l1, l2, 1))
                    elif l2 == (l1[1], l1[0]):
                        n_h += 1
                        if p & 2:
                            violations.append(("H", x, l1, l2, -1))
                    else:
                        violations.append(("loop", x, l1, l2))
                    continue
                add(m1 + m2, []).append(c1 ^ c2)
        # two decompositions with opposite products in both bits: pair
        # codes whose XOR is 3
        if not any(annuli.values()) and all(len(ps) == 2 and ps[0] ^ ps[1] == 3 for ps in domains.values()):
            n_sq += len(domains)
            continue
        # a failure: walk x's pairs again, pair by pair, to list it in order
        acc, decomps = _pair_sums(table, codes, i)
        n = len(x)
        offenders.extend(
            (x, (gens[w], tuple((m >> 2 * c) & 3 for c in range(n))), k) for (w, m), k in acc.items() if k
        )
        for w, ds in decomps.values():
            if len(ds) != 2:
                violations.append(("Sq-count", x, gens[w], ds))
                continue
            n_sq += 1
            if ds[0][2] != -ds[1][2]:
                violations.append(("Sq", x, gens[w], ds))
    return SignAxiomReport(n_sq, n_v, n_h, violations, offenders)


def _pair_sums(table: tuple[list, list], codes: list[bytes], i: int) -> tuple[dict, dict]:
    """For the composable pairs out of generator i, pair by pair: the d^2 sums
    keyed (end, okey) and each domain's end and decompositions (l1, l2, sign
    product), both in first-seen order."""
    rects = table[1]
    acc: dict[tuple[int, int], int] = {}
    decomps: dict[int, tuple[int, list[tuple]]] = {}
    for (l1, y, _, o1, m1), c1 in zip(rects[i], codes[i]):
        for (l2, w, _, o2, m2), c2 in zip(rects[y], codes[y]):
            p = c1 ^ c2
            key = (w, o1 + o2)
            acc[key] = acc.get(key, 0) + (-1 if p & 1 else 1)
            if w != i:
                decomps.setdefault(m1 + m2, (w, []))[1].append((l1, l2, -1 if p & 2 else 1))
    return acc, decomps
