"""The composable-pair checks as two plain walks, one per check.

``gridspin.complexes.check_sign_axioms`` walks every composable pair of a
rectangle table once: it finds the sign-axiom violations and the d^2
offenders of the table's group-law bits together, and forms per-pair sums
only for a start generator that has a failure.  The two walks here are
the straightforward forms it replaced, kept as its reference:

* ``d_squared_offenders`` sums the minus differential's d^2 over every
  pair, keyed by (end, monomial);
* ``check_sign_axioms`` keeps every decomposition of every domain and
  checks the annuli and the squares from the full lists.

Both read a table of ``gridspin.complexes.rectangle_table``; the report
has the production type, with its ``d2_offenders`` left empty.
"""
from __future__ import annotations

from gridspin.complexes import SignAxiomReport, SignFn, _rectangle_sign


def d_squared_offenders(table: tuple[list, list]) -> list[tuple]:
    """Generators where the minus differential fails to square to zero
    over Z, as (x, (w, monomial), coefficient)."""
    gens, rects = table
    n = len(gens[0])
    bad = []
    for x, terms in zip(gens, rects):
        acc: dict[tuple[int, int], int] = {}
        for _, y, b1, m1, _ in terms:
            for _, w, b2, m2, _ in rects[y]:
                key = (w, m1 + m2)
                acc[key] = acc.get(key, 0) + (-1 if b1 ^ b2 else 1)
        bad.extend(
            (x, (gens[w], tuple((m >> 2 * c) & 3 for c in range(n))), k)
            for (w, m), k in acc.items()
            if k
        )
    return bad


def check_sign_axioms(table: tuple[list, list], S: SignFn = _rectangle_sign) -> SignAxiomReport:
    """The square, vertical-annulus and horizontal-annulus axioms for the
    signs S(x, label) on every composable pair in the table."""
    gens, rects = table
    signs = [[S(x, r[0]) for r in rs] for x, rs in zip(gens, rects)]
    violations: list[tuple] = []
    n_sq = n_v = n_h = 0
    for i, x in enumerate(gens):
        domains: dict[tuple, list[tuple]] = {}
        for (l1, y, _, _, m1), s1 in zip(rects[i], signs[i]):
            for (l2, w, _, _, m2), s2 in zip(rects[y], signs[y]):
                if w == i:
                    if l2 == l1:
                        n_v += 1
                        if s1 * s2 != -1:
                            violations.append(("V", x, l1, l2, s1 * s2))
                    elif l2 == (l1[1], l1[0]):
                        n_h += 1
                        if s1 * s2 != 1:
                            violations.append(("H", x, l1, l2, s1 * s2))
                    else:
                        violations.append(("loop", x, l1, l2))
                    continue
                key = (w, m1 | m2, m1 & m2)
                decomps = domains.get(key)
                if decomps is None:
                    domains[key] = [(l1, l2, s1 * s2)]
                else:
                    decomps.append((l1, l2, s1 * s2))
        for (w, _, _), decomps in domains.items():
            if len(decomps) != 2:
                violations.append(("Sq-count", x, gens[w], decomps))
                continue
            n_sq += 1
            if decomps[0][2] != -decomps[1][2]:
                violations.append(("Sq", x, gens[w], decomps))
    return SignAxiomReport(n_sq, n_v, n_h, violations)
