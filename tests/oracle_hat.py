"""Tilde homology from the full walk, and hat homology by the full
top-down peel of it.

The production paths (``homology.tilde_homology`` and
``homology.hat_homology``) reduce only a symmetric half of the
bigradings and fill in the rest by a symmetry.  These oracles assume no
symmetry: ``full_tilde`` reduces the region at a floor below every
generator, so every bigrading, and ``hat_reduction`` peels the factor
V_j off the tilde ranks at every bigrading, n_j - 1 times per component
j, and raises NotDivisible on a negative remainder anywhere, so it also
proves tilde = hat (x) V^(n - l).
"""
from __future__ import annotations

from gridspin import homology
from gridspin.grid import GridDiagram
from gridspin.homology import (
    Bigrading,
    HomologySummary,
    Laurent,
    NotDivisible,
    divide_hat_factor,
)


def piece(H: HomologySummary, maslov: int, alexander2: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion) of H at one bigrading; (0, ()) off its support."""
    for bg, rank, tor in H.pieces:
        if bg == Bigrading(maslov, tuple(alexander2)):
            return rank, tor
    return 0, ()


def has_torsion(H: HomologySummary) -> bool:
    return any(tor for _, _, tor in H.pieces)


def below_every_generator(G: GridDiagram) -> tuple[int, ...]:
    """A doubled Alexander grading lexicographically below that of every
    generator: each lies below 5 n^2 in absolute value."""
    return (-5 * G.n * G.n,) * G.components.l


def full_tilde(G: GridDiagram) -> HomologySummary:
    """Tilde homology of every bigrading, read off the blocks of all n!
    generators through ``homology.bigraded_homology``; no mirror."""
    pieces = tuple(homology.bigraded_homology(G, below_every_generator(G)))
    p = Laurent.from_dict(G.components.l, {(bg.maslov, bg.alexander2): free for bg, free, _ in pieces})
    return HomologySummary("tilde", G.components.l, G.components.n_i, pieces, p, p.at_q_minus_one())


def hat_reduction(H: HomologySummary) -> HomologySummary:
    """Peel the factor V_i off the tilde ranks n_i - 1 times per component;
    a negative rank on the way signals an upstream bug and raises
    NotDivisible."""
    if H.flavor != "tilde":
        raise ValueError("hat reduction applies to tilde summaries")
    if has_torsion(H):
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
