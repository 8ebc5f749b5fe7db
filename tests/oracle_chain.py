"""The minus complex on double-cover elements and the cyclic chain isomorphisms.

The program never forms chain elements: homology reads the marker-free
rectangles and ``check`` reads the rectangle table.  The paper's explicit
chain isomorphisms for cyclic permutation act on the minus complex over
the double cover, by group multiplication with the distinguished lift of
the n-cycle; this module is their only implementation, and acceptance
criterion 9 checks that they are bijections, commute with the differential
and shift no grading.

A chain is a dict {(generator, monomial): coefficient} without zero
coefficients; a monomial is the tuple of U-exponents indexed by column.
The plain permutation inverse and sign parity that the maps need live
here too.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from gridspin import grid
from gridspin.moves import MoveSpec, apply_move
from gridspin.spin import SpinElement, identity, multiply, section
from oracle_rectangles import full_scan
from oracle_spin import right_mul


def inverse_perm(p: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def signature(p: Sequence[int]) -> int:
    """Parity in {0,1} of the number of transpositions in any factorisation."""
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def add_term(chain: dict, key: tuple, coeff: int) -> None:
    c = chain.get(key, 0) + coeff
    if c:
        chain[key] = c
    else:
        chain.pop(key, None)


def differential_minus(G: grid.GridDiagram, g: SpinElement) -> dict:
    """Sum of U^(O-counts) * (g * lift(rectangle)) over empty rectangles,
    with the central element identified with -1."""
    out: dict = {}
    outer = -1 if g.bit else 1
    for label, y, ocols, _ in full_scan(G, g.perm):
        add_term(out, (y, ocols), -outer if right_mul(g.perm, *label) else outer)
    return out


def sigma_element(n: int) -> SpinElement:
    """The distinguished lift t(0,1)*t(1,2)*...*t(n-2,n-1) of the n-cycle."""
    perm, bit = list(range(n)), 0
    for i in range(n - 1):
        bit ^= right_mul(perm, i, i + 1)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return SpinElement(tuple(perm), bit)


def inverse(g: SpinElement) -> SpinElement:
    """The inverse; multiply(g, inverse(g)) is the identity with bit 0."""
    w = inverse_perm(g.perm)
    residue = multiply(g, SpinElement(w, 0))
    assert residue.perm == identity(g.n)
    return SpinElement(w, residue.bit)


def phi_cyclic_vertical(G: grid.GridDiagram, g: SpinElement) -> SpinElement:
    """Left multiplication by the lifted n-cycle: the chain isomorphism
    onto the complex of ``cyclic up`` applied to G (generator points move
    one row up together with the markers)."""
    return multiply(sigma_element(G.n), g)


def phi_cyclic_horizontal(G: grid.GridDiagram, g: SpinElement) -> SpinElement:
    """Right multiplication by the inverse lifted n-cycle, weighted by
    (-1)^(sgn(sigma) sgn(x)): the chain isomorphism onto the complex of
    ``cyclic right`` applied to G.  The weight is absorbed into the
    central bit since the complex identifies the central element with -1."""
    out = multiply(g, inverse(sigma_element(G.n)))
    weight = ((G.n - 1) & 1) * signature(g.perm)  # sgn of the n-cycle is n-1 mod 2
    return SpinElement(out.perm, out.bit ^ (weight & 1))


# which isomorphism -> (the cyclic move it maps across, the map)
CYCLIC = {"vertical": ("up", phi_cyclic_vertical), "horizontal": ("right", phi_cyclic_horizontal)}


def cyclic_component_map(G: grid.GridDiagram, direction: str) -> dict[int, int]:
    """Component of the shifted grid matching each component of G (cyclic
    moves permute the component numbering when columns move)."""
    H = apply_move(G, MoveSpec("cyclic", direction=direction))
    shift = {"up": 0, "down": 0, "left": -1, "right": 1}[direction]
    return {G.components.comp_of_o[c]: H.components.comp_of_o[(c + shift) % G.n] for c in range(G.n)}


def grading_shifts(G: grid.GridDiagram, which: str) -> set[tuple[int, ...]]:
    """Every (Maslov shift, doubled Alexander shift per component) that the
    isomorphism ``which`` applies to a generator of G, components matched
    through the move."""
    direction, phi = CYCLIC[which]
    H = apply_move(G, MoveSpec("cyclic", direction=direction))
    cmap = cyclic_component_map(G, direction)
    shifts = set()
    for x in itertools.permutations(range(G.n)):
        y = phi(G, section(x)).perm
        a_g, a_h = grid.alexander2(G, x), grid.alexander2(H, y)
        m = grid.maslov(H, y) - grid.maslov(G, x)
        shifts.add((m, *(a_h[cmap[j + 1] - 1] - a for j, a in enumerate(a_g))))
    return shifts
