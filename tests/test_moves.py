import random

import pytest

import oracle_moves
import random_moves
from oracle_chain import cyclic_component_map, phi_cyclic_horizontal, phi_cyclic_vertical
from sample_grids import all_grids, hopf4, random_grid, trefoil5, unknot2
from gridspin import moves, spin
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
    G = trefoil5()
    assert apply_move(apply_move(G, MoveSpec("cyclic", direction="up")), MoveSpec("cyclic", direction="down")) == G
    H = G
    for _ in range(G.n):
        H = apply_move(H, MoveSpec("cyclic", direction="left"))
    assert H == G


def test_commutation_legality():
    # columns 0,1 of the 2x2 unknot have spans [0,1] and [0,1]: interleaved
    with pytest.raises(MoveError) as err:
        apply_move(unknot2(), MoveSpec("commute_cols", index=0))
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
        G = random_grid(rng.randint(3, 6), rng)
        for mv in random_moves.legal_commutations(G):
            H = apply_move(G, mv)
            assert sorted(H.components.n_i) == sorted(G.components.n_i)


def test_stabilize_all_variants():
    G = unknot2()
    for marker in "XO":
        for variant in moves.VARIANTS:
            H = apply_move(G, MoveSpec("stabilize", axis="row", index=0, marker=marker, variant=variant))
            assert H.n == 3 and H.components.l == 1
            assert H.components.n_i == (3,)


def test_stabilize_by_column():
    G = trefoil5()
    H = apply_move(G, MoveSpec("stabilize", axis="col", index=2, marker="O", variant="SE"))
    assert H.n == 6 and H.components.n_i == (6,)


def _outcome(move, *args):
    try:
        return move(*args)
    except MoveError as exc:
        return exc.code, str(exc)


def test_moves_match_the_oracle():
    # every input, bad ones included, on every grid with n <= 4 and on
    # seeded larger grids: the same grid or the same error code and message
    rng = random.Random(2701)
    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    grids += [random_grid(n, rng) for n in (5, 6, 7) for _ in range(4)]
    for G in grids:
        n = G.n
        for axis in ("row", "col", "diag"):
            for index in range(-1, n + 1):
                for marker in ("X", "O", "Q", "", "XO"):
                    for variant in moves.VARIANTS + ("QQ",):
                        args = (G, axis, index, marker, variant)
                        assert _outcome(moves._stabilize, *args) == _outcome(oracle_moves._stabilize, *args), args
        for c in range(-1, n + 1):
            for r in range(-1, n + 1):
                args = (G, (c, r))
                assert _outcome(moves._destabilize, *args) == _outcome(oracle_moves._destabilize, *args), args
        for direction in ("up", "down", "left", "right", "sideways"):
            args = (G, direction)
            assert _outcome(moves._cyclic, *args) == _outcome(oracle_moves._cyclic, *args), args


@pytest.mark.parametrize("marker", ["", "XO"])
def test_stabilize_refuses_marker_strings_other_than_one_letter(marker):
    with pytest.raises(MoveError, match=f"^bad stabilization {marker}NE$") as exc:
        moves._stabilize(unknot2(), "row", 0, marker, "NE")
    assert exc.value.code == "Parse"


CORNERS = {"NW": (0, 1), "NE": (1, 1), "SW": (0, 0), "SE": (1, 0)}


def test_destabilize_inverts_stabilize():
    rng = random.Random(8)
    cases = []
    for _ in range(80):
        n = rng.randint(2, 5)
        G = random_grid(n, rng)
        cases.append((G, "row", rng.randrange(n), rng.choice("XO"), rng.choice(moves.VARIANTS)))
    for n in (2, 3, 4):
        for G in all_grids(n):
            for axis in ("row", "col"):
                for index in range(n):
                    for marker in "XO":
                        cases += [(G, axis, index, marker, variant) for variant in moves.VARIANTS]
    for G, axis, index, marker, variant in cases:
        H = apply_move(G, MoveSpec("stabilize", axis=axis, index=index, marker=marker, variant=variant))
        rows = G.x_rows if marker == "X" else G.o_rows
        c, r = (rows.index(index), index) if axis == "row" else (index, rows[index])
        # the 2x2 block at (c, r): two split-type markers, and the opposite
        # type alone at the variant's corner
        split, opposite = (H.x_rows, H.o_rows) if marker == "X" else (H.o_rows, H.x_rows)
        block = [(c + i, r + j) for i in (0, 1) for j in (0, 1)]
        dc, dr = CORNERS[variant]
        assert [p for p in block if opposite[p[0]] == p[1]] == [(c + dc, r + dr)]
        assert sum(split[p[0]] == p[1] for p in block) == 2
        assert apply_move(H, MoveSpec("destabilize", position=(c, r))) == G


def test_destabilize_rejects_non_blocks():
    with pytest.raises(MoveError):
        apply_move(trefoil5(), MoveSpec("destabilize", position=(0, 0)))


def test_stabilization_grows_one_component_row():
    rng = random.Random(13)
    for _ in range(30):
        G = random_grid(rng.randint(3, 5), rng)
        mv = random_moves.random_stabilization(G, rng)
        H = apply_move(G, mv)
        assert H.components.l == G.components.l
        assert sorted(H.components.n_i) != sorted(G.components.n_i) or G.components.l > 1
        assert sum(H.components.n_i) == sum(G.components.n_i) + 1


def test_phi_vertical_example():
    G = unknot2()
    assert phi_cyclic_vertical(G, spin.spin_identity(2)) == spin.SpinElement((1, 0), 0)


def test_phi_horizontal_example():
    G = unknot2()
    assert phi_cyclic_horizontal(G, spin.spin_identity(2)) == spin.SpinElement((1, 0), 1)


def test_invariance_unknot_stabilization():
    G = unknot2()
    H = apply_move(G, MoveSpec("stabilize", axis="row", index=0, marker="X", variant="NE"))
    rep = invariance_report(G, H)
    assert rep.ok and rep.hat_equal and rep.tilde_factor_ok
    assert rep.stabilized_component == 1


def test_invariance_detects_difference():
    rep = invariance_report(unknot2(), trefoil5())
    assert not rep.hat_equal and not rep.ok


def test_invariance_renumbered_components():
    # swapping which component is numbered first must not matter
    G = hopf4()
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
    G = trefoil5()
    script = parse_script("cyclic up\ncyclic left\ncyclic right\ncyclic down\n")
    assert apply_script(G, script) == G


def test_six_random_legal_moves_preserve_hat():
    rng = random.Random(99)
    for _ in range(2):
        G = random_grid(rng.randint(3, 5), rng)
        H = G
        for _ in range(6):
            H = apply_move(H, random_moves.random_move(H, rng, max_n=7))
        rep = invariance_report(G, H)
        assert rep.hat_equal, (G, H)


@pytest.mark.parametrize("o_rows, x_rows, direction", THREE_COMPONENT_CYCLES)
def test_tilde_factor_names_the_component_under_renumbering(o_rows, x_rows, direction):
    # the cyclic move renumbers the components, so the factor check must
    # carry the smaller grid's numbering across in both argument orders
    G = GridDiagram(6, o_rows, x_rows)
    for r in range(G.n):
        H = apply_move(G, MoveSpec("stabilize", axis="row", index=r, marker="X", variant="NE"))
        H = apply_move(H, MoveSpec("cyclic", direction=direction))
        split = G.components.comp_of_x[G.x_rows.index(r)]
        for rep in (invariance_report(G, H), invariance_report(H, G)):
            assert rep.tilde_factor_ok and rep.stabilized_component == split
