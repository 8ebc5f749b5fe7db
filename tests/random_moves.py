"""Seeded random legal moves for the invariance tests.

``random_move`` picks a cyclic permutation, a legal commutation or (below
``max_n``) a stabilization of a random marker row.
"""
import random

from gridspin.grid import GridDiagram
from gridspin.moves import VARIANTS, MoveError, MoveSpec, _commute_cols, _commute_rows


def legal_commutations(G: GridDiagram) -> list[MoveSpec]:
    out = []
    for i in range(G.n - 1):
        try:
            _commute_cols(G, i)
            out.append(MoveSpec("commute_cols", index=i))
        except MoveError:
            pass
        try:
            _commute_rows(G, i)
            out.append(MoveSpec("commute_rows", index=i))
        except MoveError:
            pass
    return out


def random_stabilization(G: GridDiagram, rng: random.Random) -> MoveSpec:
    return MoveSpec(
        "stabilize",
        axis="row",
        index=rng.randrange(G.n),
        marker=rng.choice("XO"),
        variant=rng.choice(VARIANTS),
    )


def random_move(G: GridDiagram, rng: random.Random, max_n: int = 7) -> MoveSpec:
    kinds = ["cyclic"] * 4 + ["commute"] * 3
    if G.n < max_n:
        kinds += ["stabilize"] * 2
    kind = rng.choice(kinds)
    if kind == "cyclic":
        return MoveSpec("cyclic", direction=rng.choice(("up", "down", "left", "right")))
    if kind == "commute":
        legal = legal_commutations(G)
        if legal:
            return rng.choice(legal)
        return MoveSpec("cyclic", direction=rng.choice(("up", "down", "left", "right")))
    return random_stabilization(G, rng)
