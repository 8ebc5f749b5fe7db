import random

import pytest

import random_moves
from oracle_chain import cyclic_component_map, phi_cyclic_horizontal, phi_cyclic_vertical
from gridspin import grid, moves, spin
from gridspin.grid import GridDiagram
from gridspin.homology import Laurent
from gridspin.moves import (
    MoveError,
    MoveSpec,
    apply_move,
    apply_script,
    invariance_report,
    parse_move,
    parse_script,
)


def test_parse_move_lines():
    assert parse_move("cyclic up") == MoveSpec("cyclic", direction="up")
    assert parse_move("commute cols 3") == MoveSpec("commute_cols", index=3)
    assert parse_move("stabilize row 2 XNW") == MoveSpec(
        "stabilize", axis="row", index=2, marker="X", variant="NW"
    )
    assert parse_move("destabilize 1 2") == MoveSpec("destabilize", position=(1, 2))
    for bad in ("cyclic sideways", "commute cols x", "stabilize row 2 XQQ", "frobnicate"):
        with pytest.raises(MoveError):
            parse_move(bad)
    script = parse_script("# header\ncyclic up\n\ncommute rows 0 # tail\n")
    assert [m.kind for m in script] == ["cyclic", "commute_rows"]


def test_cyclic_round_trips():
    G = grid.trefoil5()
    assert apply_move(apply_move(G, MoveSpec("cyclic", direction="up")), MoveSpec("cyclic", direction="down")) == G
    H = G
    for _ in range(G.n):
        H = apply_move(H, MoveSpec("cyclic", direction="left"))
    assert H == G


def test_commutation_legality():
    # columns 0,1 of the 2x2 unknot have spans [0,1] and [0,1]: interleaved
    with pytest.raises(MoveError) as err:
        apply_move(grid.unknot2(), MoveSpec("commute_cols", index=0))
    assert err.value.code == "IllegalCommutation"
    # nested spans commute: column 0 spans rows [0,3], column 1 rows [1,2]
    G = GridDiagram(4, (0, 1, 2, 3), (3, 2, 0, 1))
    H = apply_move(G, MoveSpec("commute_cols", index=0))
    assert H.o_rows == (1, 0, 2, 3) and H.x_rows == (2, 3, 0, 1)
    with pytest.raises(MoveError) as err:
        apply_move(G, MoveSpec("commute_cols", index=9))
    assert err.value.code == "BadPosition"


def test_commutation_preserves_link():
    rng = random.Random(2)
    for _ in range(40):
        G = grid.random_grid(rng.randint(3, 6), rng)
        for mv in random_moves.legal_commutations(G):
            H = apply_move(G, mv)
            assert sorted(H.components.n_i) == sorted(G.components.n_i)


def test_stabilize_all_variants():
    G = grid.unknot2()
    for marker in "XO":
        for variant in moves.VARIANTS:
            H = apply_move(G, MoveSpec("stabilize", axis="row", index=0, marker=marker, variant=variant))
            assert H.n == 3 and H.components.l == 1
            assert H.components.n_i == (3,)


def test_stabilize_by_column():
    G = grid.trefoil5()
    H = apply_move(G, MoveSpec("stabilize", axis="col", index=2, marker="O", variant="SE"))
    assert H.n == 6 and H.components.n_i == (6,)


def test_destabilize_inverts_stabilize():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(2, 5)
        G = grid.random_grid(n, rng)
        marker = rng.choice("XO")
        variant = rng.choice(moves.VARIANTS)
        r = rng.randrange(n)
        H = apply_move(G, MoveSpec("stabilize", axis="row", index=r, marker=marker, variant=variant))
        rows = G.x_rows if marker == "X" else G.o_rows
        c = rows.index(r)
        assert apply_move(H, MoveSpec("destabilize", position=(c, r))) == G


def test_destabilize_rejects_non_blocks():
    with pytest.raises(MoveError):
        apply_move(grid.trefoil5(), MoveSpec("destabilize", position=(0, 0)))


def test_stabilization_grows_one_component_row():
    rng = random.Random(13)
    for _ in range(30):
        G = grid.random_grid(rng.randint(3, 5), rng)
        mv = random_moves.random_stabilization(G, rng)
        H = apply_move(G, mv)
        assert H.components.l == G.components.l
        assert sorted(H.components.n_i) != sorted(G.components.n_i) or G.components.l > 1
        assert sum(H.components.n_i) == sum(G.components.n_i) + 1


def test_phi_vertical_example():
    G = grid.unknot2()
    assert phi_cyclic_vertical(G, spin.spin_identity(2)) == spin.SpinElement((1, 0), 0)


def test_phi_horizontal_example():
    G = grid.unknot2()
    assert phi_cyclic_horizontal(G, spin.spin_identity(2)) == spin.SpinElement((1, 0), 1)


def test_invariance_unknot_stabilization():
    G = grid.unknot2()
    H = apply_move(G, MoveSpec("stabilize", axis="row", index=0, marker="X", variant="NE"))
    rep = invariance_report(G, H)
    assert rep.ok and rep.hat_equal and rep.tilde_factor_ok
    assert rep.stabilized_component == 1


def test_invariance_detects_difference():
    rep = invariance_report(grid.unknot2(), grid.trefoil5())
    assert not rep.hat_equal and not rep.ok


def test_invariance_renumbered_components():
    # swapping which component is numbered first must not matter
    G = grid.hopf4()
    H = apply_move(apply_move(G, MoveSpec("cyclic", direction="left")), MoveSpec("cyclic", direction="left"))
    rep = invariance_report(G, H)
    assert rep.hat_equal


# 3-component grids from seeded n = 6 draws whose cyclic move in the given
# direction renumbers the components by a 3-cycle.  Where hat1 has
# symmetries several matchings fit and the first one found is reported; on
# these grids it is the move's own renumbering.
THREE_COMPONENT_CYCLES = [
    ((1, 0, 5, 4, 2, 3), (5, 2, 1, 3, 0, 4), "right"),
    ((1, 5, 0, 4, 3, 2), (4, 2, 3, 1, 0, 5), "left"),
    ((0, 2, 3, 5, 1, 4), (4, 5, 1, 2, 3, 0), "left"),
]


@pytest.mark.parametrize("o_rows, x_rows, direction", THREE_COMPONENT_CYCLES)
def test_invariance_component_map_runs_from_hat1_to_hat2(o_rows, x_rows, direction):
    G = GridDiagram(6, o_rows, x_rows)
    assert G.components.l == 3
    for d in ("up", "down", "left", "right"):
        rep = invariance_report(G, apply_move(G, MoveSpec("cyclic", direction=d)))
        assert rep.ok
        # hat1's t_i renamed t_(component_map[i]), then shifted, is hat2
        relabelled = {}
        for (q, t2), c in rep.hat1.poincare.terms:
            t = [0] * 3
            for i, a in enumerate(t2):
                t[rep.component_map[i]] = a + rep.alexander2_shifts[i]
            relabelled[(q, tuple(t))] = c
        assert Laurent.from_dict(3, relabelled) == rep.hat2.poincare
        if d == direction:
            cmap = cyclic_component_map(G, d)
            assert rep.component_map == tuple(cmap[i + 1] - 1 for i in range(3))
            assert rep.component_map[rep.component_map[0]] != 0  # not an involution


def test_apply_script_roundtrip():
    G = grid.trefoil5()
    script = parse_script("cyclic up\ncyclic left\ncyclic right\ncyclic down\n")
    assert apply_script(G, script) == G


def test_six_random_legal_moves_preserve_hat():
    rng = random.Random(99)
    for _ in range(2):
        G = grid.random_grid(rng.randint(3, 5), rng)
        H = G
        for _ in range(6):
            H = apply_move(H, random_moves.random_move(H, rng, max_n=7))
        rep = invariance_report(G, H)
        assert rep.hat_equal, (G, H)
