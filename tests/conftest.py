import itertools
import random
from dataclasses import dataclass, field

import pytest

from oracle_rectangles import full_scan
from oracle_signs import sign_assignment
from oracle_spin import right_mul
from sample_grids import all_grids, random_grid


def corpus_grids():
    """The differential-check corpus: every valid grid with n = 3 and
    n = 4, then 200 random grids at n = 5 and 50 at n = 6 (seeded)."""
    yield from all_grids(3)
    yield from all_grids(4)
    rng = random.Random(1205)
    for _ in range(200):
        yield random_grid(5, rng)
    rng = random.Random(1206)
    for _ in range(50):
        yield random_grid(6, rng)


@dataclass
class CorpusVerdicts:
    grids: int = 0
    generators: int = 0
    rectangles: int = 0
    d2_failures: list = field(default_factory=list)
    mod2_mismatches: list = field(default_factory=list)
    signed_mismatches: list = field(default_factory=list)


@pytest.fixture(scope="session")
def corpus_verdicts():
    """One pass over the corpus feeding acceptance criteria 2, 4 and 5:
    the differential squares to zero over Z, its mod-2 reduction matches
    the unsigned rectangle count, and the cocycle sign formula (right
    argument order) reproduces the group-law sign of every rectangle.  The
    group-law signs come from the peeling loop of ``oracle_spin`` and the
    cocycle from the generic group law of ``gridspin.spin.cocycle``, two
    independent normal forms."""
    out = CorpusVerdicts()
    for G in corpus_grids():
        out.grids += 1
        raw = {}
        for x in itertools.permutations(range(G.n)):
            out.generators += 1
            terms = []
            for label, y, ocols, _ in full_scan(G, x):
                # the O-count of column c in bits 2c and 2c + 1: the
                # monomial of a composite (at most 2 per column) is the
                # sum of its two packed monomials, without carries
                mono = sum(k << 2 * c for c, k in enumerate(ocols))
                terms.append((label, y, mono, -1 if right_mul(x, *label) else 1))
            raw[x] = terms
        for x, terms in raw.items():
            out.rectangles += len(terms)
            acc = {}
            for _, y, mono, s in terms:
                key = (y, mono)
                acc[key] = acc.get(key, 0) + s
            comp = {}
            for _, y, m1, s1 in terms:
                for _, w, m2, s2 in raw[y]:
                    key = (w, m1 + m2)
                    comp[key] = comp.get(key, 0) + s1 * s2
            if any(comp.values()):
                out.d2_failures.append((G, x))
            minus_mod2 = {k for k, v in acc.items() if v % 2}
            parity = {}
            for _, y, mono, _s in terms:
                key = (y, mono)
                parity[key] = parity.get(key, 0) ^ 1
            if minus_mod2 != {k for k, v in parity.items() if v}:
                out.mod2_mismatches.append((G, x))
            for label, y, mono, s in terms:
                if sign_assignment(G, x, label) != s:
                    out.signed_mismatches.append((G, x, label))
    return out
