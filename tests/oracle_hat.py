"""Hat homology by the full top-down peel of the full tilde homology.

The production path (``homology.hat_homology``) reduces and peels only
the bigradings with 2A >= 0 lexicographically and fills in the rest by
the symmetry of hat link Floer homology.  This oracle assumes no
symmetry: it peels the factor V_j off the tilde ranks at every bigrading,
n_j - 1 times per component j, and raises NotDivisible on a negative
remainder anywhere, so it also proves tilde = hat (x) V^(n - l).
"""
from __future__ import annotations

from gridspin.homology import (
    Bigrading,
    HomologySummary,
    Laurent,
    NotDivisible,
    divide_hat_factor,
)


def hat_reduction(H: HomologySummary) -> HomologySummary:
    """Peel the factor V_i off the tilde ranks n_i - 1 times per component;
    a negative rank on the way signals an upstream bug and raises
    NotDivisible."""
    if H.flavor != "tilde":
        raise ValueError("hat reduction applies to tilde summaries")
    if H.has_torsion:
        raise NotDivisible("tilde homology has torsion; hat ranks are undefined here")
    l = H.l
    ranks = dict(H.poincare.terms)
    for j in range(l):
        for _ in range(H.n_i[j] - 1):
            ranks = divide_hat_factor(ranks, j)
    quotient = Laurent.from_dict(l, ranks)
    return HomologySummary(
        flavor="hat",
        l=l,
        n_i=H.n_i,
        pieces=tuple((Bigrading(q, t2), c, ()) for (q, t2), c in quotient.terms),
        poincare=quotient,
        euler=quotient.at_q_minus_one(),
    )
