"""Differentials on the grid chain complex and the induced sign assignment.

The complex is the free module over Z[U_1..U_n] on the double-cover
elements, with the central element identified with -1; coefficients
therefore live on plain permutations.  A ``ChainElement`` maps generators
to sparse polynomials; a monomial is the tuple of U-exponents indexed by
column (the variable of column c belongs to the O marker there).

Each differential reads the one rectangle scan ``grid.empty_rectangles``
itself:

* minus        - every empty rectangle, signs from the group law;
* signed       - every empty rectangle, signs from the cocycle formula;
* graded       - the scan's marker-free rectangles only, group-law signs;
* mod2         - every empty rectangle, unsigned, coefficients mod 2.

The whole-complex checks (d^2 = 0, the sign axioms, gauge equivalence)
share ``rectangle_table(G)``, which scans each generator once; d^2 and the
sign axioms also share one walk over the composable pairs.  The sign
checks take any sign assignment as a function (x, label) -> +-1; the
program has one, ``sign_assignment``, and reference formulas with other
cocycle argument orders are test oracles.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import grid as _grid
from .grid import GridDiagram
from .spin import Label, SpinElement, _right_mul, _transposition_cocycle, is_permutation

Monomial = tuple[int, ...]
Poly = dict[Monomial, int]
SignFn = Callable[[tuple[int, ...], Label], int]  # (x, label) -> +-1


@dataclass
class ChainElement:
    """Finite map from generators to integer polynomials in the U's."""

    n: int
    terms: dict[tuple[int, ...], Poly] = field(default_factory=dict)

    def add(self, perm: tuple[int, ...], mono: Monomial, coeff: int) -> None:
        if not coeff:
            return
        poly = self.terms.setdefault(perm, {})
        c = poly.get(mono, 0) + coeff
        if c:
            poly[mono] = c
        else:
            del poly[mono]
            if not poly:
                del self.terms[perm]

    def reduced_mod2(self) -> "ChainElement":
        out = ChainElement(self.n)
        for perm, poly in self.terms.items():
            for mono, c in poly.items():
                if c % 2:
                    out.add(perm, mono, 1)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], Monomial, int]]:
        for perm, poly in sorted(self.terms.items()):
            for mono, c in sorted(poly.items()):
                yield perm, mono, c

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChainElement) and self.terms == other.terms


# ---------------------------------------------------------------------------
# Differentials


def differential_minus(G: GridDiagram, g: SpinElement) -> ChainElement:
    """Sum of U^(O-counts) * (g * lift(rectangle)) over empty rectangles,
    with the central element already identified with -1."""
    out = ChainElement(G.n)
    outer = -1 if g.bit else 1
    for label, y, ocols, _ in _grid.empty_rectangles(G, g.perm):
        out.add(y, ocols, -outer if _right_mul(g.perm, *label) else outer)
    return out


def graded_differential(G: GridDiagram, g: SpinElement) -> ChainElement:
    """Only rectangles containing no marker at all contribute; preserves
    the Alexander grading and drops the Maslov degree by one."""
    out = ChainElement(G.n)
    outer = -1 if g.bit else 1
    unit = (0,) * G.n
    for label, y in _grid.empty_rectangles(G, g.perm, marker_free=True):
        out.add(y, unit, -outer if _right_mul(g.perm, *label) else outer)
    return out


def unsigned_differential_mod2(G: GridDiagram, x: tuple[int, ...]) -> ChainElement:
    """Every empty rectangle with coefficient one over Z/2."""
    out = ChainElement(G.n)
    for _, y, ocols, _ in _grid.empty_rectangles(G, x):
        out.add(y, ocols, 1)
    return out.reduced_mod2()


def _generator(G: GridDiagram, x) -> tuple[int, ...]:
    """x as a tuple, after checking that it is a generator of G."""
    x = tuple(x)
    if len(x) != G.n or not is_permutation(x):
        raise ValueError(f"{x} is not a generator of a grid of size {G.n}")
    return x


def sign_assignment(G: GridDiagram, x: tuple[int, ...], label: Label) -> int:
    """Sign of the empty rectangle with the given label out of x.

    The sign is eps(r) * c(x, t), a cocycle value on the pair of x and the
    transposition t = x^-1 y; with this argument order it matches right
    multiplication in the double cover, hence reproduces the minus
    differential exactly.  eps(r) is -1 exactly for horizontally torn
    rectangles.  Raises ValueError unless x is a generator of G and the
    label names an empty rectangle out of it.
    """
    x = _generator(G, x)
    n = G.n
    a, b = label
    if not (0 <= a < n and 0 <= b < n and a != b):
        raise ValueError(f"invalid label {label}")
    # empty iff every column strictly inside (a, b) has its point above the
    # height, by row offset from x[a] (the rule of empty_rectangles)
    h = (x[b] - x[a]) % n
    if any((x[c] - x[a]) % n < h for c in _grid.cyclic_span(a, b, n)[1:]):
        raise ValueError(f"rectangle {label} out of {x} is not empty")
    return _rectangle_sign(x, label)


def _rectangle_sign(x: tuple[int, ...], label: Label) -> int:
    """``sign_assignment`` for a label already known to name an empty
    rectangle out of the generator x."""
    # x^-1 y is the plain transposition (a b)
    eps = -1 if _grid.is_horizontally_torn(label) else 1
    return eps * _transposition_cocycle(x, *label)


def differential_signed(G: GridDiagram, x: tuple[int, ...]) -> ChainElement:
    """The sign-assignment form of the differential on plain generators."""
    x = _generator(G, x)
    out = ChainElement(G.n)
    for label, y, ocols, _ in _grid.empty_rectangles(G, x):
        out.add(y, ocols, _rectangle_sign(x, label))
    return out


# ---------------------------------------------------------------------------
# Whole-complex checks


def rectangle_table(G: GridDiagram) -> tuple[list, list]:
    """(generators, rectangles): the generators in ``itertools.permutations``
    order and per generator, in scan order, a record (label, target, bit,
    okey, cells) for each empty rectangle.  ``target`` indexes the
    generators, ``bit`` is the central bit of section(x) * lift(label) and
    ``cells`` the scan's cell bitmask.  ``okey`` packs the O-counts (each 0
    or 1) two bits per column, so the key of a composite is the sum of two
    keys: no column sum exceeds 2, so the sum never carries.  Labels and
    cell masks are the objects of ``G.rectangle_shapes``, one per shape.
    """
    gens = list(itertools.permutations(range(G.n)))
    index = {x: i for i, x in enumerate(gens)}
    pack = functools.cache(lambda ocols: sum(k << 2 * c for c, k in enumerate(ocols)))
    rects = [
        [
            (label, index[y], _right_mul(x, *label), pack(ocols), cells)
            for label, y, ocols, cells in _grid.empty_rectangles(G, x)
        ]
        for x in gens
    ]
    return gens, rects


def d_squared_offenders(table: tuple[list, list]) -> list[tuple]:
    """Generators where the minus differential fails to square to zero
    over Z, as (x, (w, monomial), coefficient); empty on every valid grid.
    The pair walk of ``check_sign_axioms`` finds them."""
    return check_sign_axioms(table).d2_offenders


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


def check_sign_axioms(table: tuple[list, list], S: SignFn = _rectangle_sign) -> SignAxiomReport:
    """Verify the square, vertical-annulus and horizontal-annulus axioms for
    the signs S(x, label) (by default those of ``sign_assignment``) on every
    composable pair in the table, and collect the d^2 offenders of the
    table's group-law bits on the same walk.

    Composable pairs returning to their start are annuli (same ordered
    label twice: vertical; opposite labels: horizontal).  All other pairs
    are grouped by domain, keyed (end, support, cells covered twice); each
    group must consist of exactly two decompositions with opposite sign
    products.  A domain fixes the O-counts of its pairs, so one of two
    decompositions with opposite group-law products adds 0 to d^2.  A
    start generator whose annuli cancel in d^2 and whose domains all pass
    both tests is done; any other is walked again pair by pair, which
    lists its violations and d^2 offenders in the order of a plain walk.
    """
    gens, rects = table
    # per rectangle: the group-law bit in bit 0, and bit 1 set where S is -1;
    # one byte each, parallel to the table's records
    codes = [bytes([bit | (S(x, label) < 0) << 1 for label, _, bit, _, _ in rs]) for x, rs in zip(gens, rects)]
    violations: list[tuple] = []
    offenders: list[tuple] = []
    n_sq = n_v = n_h = 0
    for i, x in enumerate(gens):
        # every domain out of x is complete once x's pairs are seen; each
        # lists the pair codes c1 ^ c2 of its decompositions
        domains: dict[tuple, list[int]] = {}
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
                # each rectangle covers a cell at most once, so union and
                # intersection fix the multiset of cells of the domain
                add((w, m1 | m2, m1 & m2), []).append(c1 ^ c2)
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
        for (w, _, _), ds in decomps.items():
            if len(ds) != 2:
                violations.append(("Sq-count", x, gens[w], ds))
                continue
            n_sq += 1
            if ds[0][2] != -ds[1][2]:
                violations.append(("Sq", x, gens[w], ds))
    return SignAxiomReport(n_sq, n_v, n_h, violations, offenders)


def _pair_sums(table: tuple[list, list], codes: list[bytes], i: int) -> tuple[dict, dict]:
    """For the composable pairs out of generator i, pair by pair: the d^2
    sums keyed (end, okey) and each domain's decompositions (l1, l2, sign
    product), both in first-seen order."""
    rects = table[1]
    acc: dict[tuple[int, int], int] = {}
    decomps: dict[tuple, list[tuple]] = {}
    for (l1, y, _, o1, m1), c1 in zip(rects[i], codes[i]):
        for (l2, w, _, o2, m2), c2 in zip(rects[y], codes[y]):
            p = c1 ^ c2
            key = (w, o1 + o2)
            acc[key] = acc.get(key, 0) + (-1 if p & 1 else 1)
            if w != i:
                decomps.setdefault((w, m1 | m2, m1 & m2), []).append((l1, l2, -1 if p & 2 else 1))
    return acc, decomps


@dataclass
class CoboundaryResult:
    gauge: dict[tuple[int, ...], int] | None
    components: int
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return self.gauge is not None


def check_coboundary_equivalence(S1: SignFn, S2: SignFn, table: tuple[list, list]) -> CoboundaryResult:
    """Search for f with S1(r) = f(x) f(y) S2(r) on every empty rectangle.

    Propagates f over a spanning forest of the rectangle graph (one gauge
    choice per connected component) and then checks every edge, including
    parallel ones; a failed edge is returned as the witness.
    """
    gens, rects = table
    edges = [[(r[1], S1(x, r[0]) * S2(x, r[0])) for r in rs] for x, rs in zip(gens, rects)]
    f = [0] * len(gens)
    components = 0
    for start in range(len(gens)):
        if f[start]:
            continue
        components += 1
        f[start] = 1
        queue = [start]
        while queue:
            i = queue.pop()
            for j, ratio in edges[i]:
                if not f[j]:
                    f[j] = f[i] * ratio
                    queue.append(j)
    for i, out in enumerate(edges):
        for j, ratio in out:
            if f[i] * f[j] != ratio:
                return CoboundaryResult(None, components, witness=(gens[i], gens[j], ratio, f[i], f[j]))
    return CoboundaryResult(dict(zip(gens, f)), components)
