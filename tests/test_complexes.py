import itertools
import random
import re

import pytest

import oracle_pairs
import oracle_rectangles as rects
from oracle_chain import differential_minus
from oracle_signs import check_coboundary_equivalence, reversed_sign, swapped_sign
from gridspin import complexes, grid, spin
from gridspin.complexes import check_sign_axioms, rectangle_table, sign_assignment
from gridspin.grid import GridDiagram


def test_unknot_minus_differential():
    G = grid.unknot2()
    assert differential_minus(G, spin.section((0, 1))) == {}
    d = differential_minus(G, spin.section((1, 0)))
    # the two rectangles carry the O of column 1 and column 0 with
    # opposite group-law signs
    assert d == {((0, 1), (0, 1)): 1, ((0, 1), (1, 0)): -1}
    # the central bit scales by -1
    d2 = differential_minus(G, spin.SpinElement((1, 0), 1))
    assert d2 == {((0, 1), (0, 1)): -1, ((0, 1), (1, 0)): 1}


def test_unknot_sign_values():
    G = grid.unknot2()
    assert sign_assignment(G, (0, 1), (0, 1)) == 1
    assert sign_assignment(G, (1, 0), (0, 1)) == -1
    assert sign_assignment(G, (1, 0), (1, 0)) == 1
    with pytest.raises(ValueError):
        sign_assignment(GridDiagram(3, (1, 2, 0), (0, 1, 2)), (0, 1, 2), (0, 2))
    for label in ((0, 0), (1, 1), (0, 2), (-1, 0), (2, 1)):
        with pytest.raises(ValueError):
            sign_assignment(G, (0, 1), label)


def test_signs_refuse_non_generators():
    G = grid.trefoil5()
    for x in ((0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (0, 0, 1, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(str(x))):
            sign_assignment(G, x, (0, 1))
    # a list is accepted and read as the tuple
    for label, *_ in grid.empty_rectangles(G, (1, 0, 2, 3, 4)):
        assert sign_assignment(G, [1, 0, 2, 3, 4], label) == sign_assignment(G, (1, 0, 2, 3, 4), label)


def test_rectangle_sign_is_the_cocycle_formula():
    # the one-step sign against eps(r) * c(x, t) by the generic group law
    rng = random.Random(1005)
    grids = [*grid.all_grids(2), *grid.all_grids(3), *grid.all_grids(4)]
    grids += [grid.random_grid(5, rng) for _ in range(3)]
    for G in grids:
        for x in itertools.permutations(range(G.n)):
            for label, *_ in grid.empty_rectangles(G, x):
                eps = -1 if grid.is_horizontally_torn(label) else 1
                want = eps * spin.cocycle(x, spin.transposition(G.n, *label))
                assert complexes._rectangle_sign(x, label) == want, (G, x, label)


def test_unknot_graded_differential_vanishes():
    # every rectangle of the 2x2 grid holds a marker
    G = grid.unknot2()
    for x in ((0, 1), (1, 0)):
        assert grid.empty_rectangles(G, x, marker_free=True) == []


def test_rectangle_table_matches_the_scan():
    G = grid.hopf4()
    gens, per_generator = rectangle_table(G)
    assert gens == list(itertools.permutations(range(4)))
    for x, records in zip(gens, per_generator):
        unpacked = [
            (label, gens[y], bit, tuple((okey >> 2 * c) & 3 for c in range(4)), cells)
            for label, y, bit, okey, cells in records
        ]
        scan = grid.empty_rectangles(G, x)
        assert unpacked == [(label, y, spin._right_mul(x, *label), o, cells) for label, y, o, cells in scan]


def test_d_squared_zero_all_n3():
    for G in grid.all_grids(3):
        assert not check_sign_axioms(rectangle_table(G)).d2_offenders


def test_d_squared_offenders_report_monomials(monkeypatch):
    # flip the group-law sign of one rectangle: the offenders, with their
    # monomials as tuples, must equal a plain recomputation of d^2; this
    # rectangle's composites include U-exponents of 2
    from gridspin import complexes

    G = grid.trefoil5()
    x0, label0 = (1, 0, 2, 3, 4), (0, 1)
    right_mul = spin._right_mul

    def flipped(x, a, b):
        return right_mul(x, a, b) ^ ((tuple(x), (a, b)) == (x0, label0))

    monkeypatch.setattr(complexes, "_right_mul", flipped)
    d = {
        x: [(y, -1 if flipped(x, *label) else 1, ocols) for label, y, ocols, _ in grid.empty_rectangles(G, x)]
        for x in itertools.permutations(range(G.n))
    }
    want = []
    for x, terms in d.items():
        acc = {}
        for y, s1, m1 in terms:
            for w, s2, m2 in d[y]:
                key = (w, tuple(u + v for u, v in zip(m1, m2)))
                acc[key] = acc.get(key, 0) + s1 * s2
        want.extend((x, key, c) for key, c in acc.items() if c)
    got = check_sign_axioms(rectangle_table(G)).d2_offenders
    assert got and got == want
    assert any(2 in mono for _, (_, mono), _ in got)


@pytest.mark.parametrize("n", [4, 5, 6], ids=["n<=4", "n5", "n6"])
def test_pair_walk_matches_the_two_walk_oracle(n):
    # the one pair walk of check_sign_axioms against the two walks of
    # oracle_pairs, d^2 offenders in order included: the program's signs,
    # both reference formulas, and three mutants (a flipped group-law bit,
    # a flipped cocycle sign, a table with one record dropped)
    if n == 4:
        grids = [G for m in (2, 3, 4) for G in grid.all_grids(m)]
    else:
        rng = random.Random(1600 + n)
        grids = [grid.random_grid(n, rng) for _ in range(20 if n == 5 else 2)]
    rng = random.Random(1616)
    kinds = set()
    for G in grids:
        table = rectangle_table(G)
        gens, per_generator = table
        i = rng.choice([i for i, rs in enumerate(per_generator) if rs])
        k = rng.randrange(len(per_generator[i]))
        x0, (label0, y, bit, okey, cells) = gens[i], per_generator[i][k]
        flipped_bit, dropped = list(per_generator), list(per_generator)
        flipped_bit[i] = [*per_generator[i][:k], (label0, y, bit ^ 1, okey, cells), *per_generator[i][k + 1 :]]
        dropped[i] = per_generator[i][:k] + per_generator[i][k + 1 :]

        def flipped_sign(x, label):
            s = complexes._rectangle_sign(x, label)
            return -s if (x, label) == (x0, label0) else s

        cases = {
            "signs": (table, {}),
            "reversed": (table, {"S": reversed_sign}),
            "swapped": (table, {"S": swapped_sign}),
            "flipped sign": (table, {"S": flipped_sign}),
            "flipped bit": ((gens, flipped_bit), {}),
            "dropped": ((gens, dropped), {}),
        }
        for case, (t, sign) in cases.items():
            want = oracle_pairs.check_sign_axioms(t, **sign)
            want.d2_offenders = oracle_pairs.d_squared_offenders(t)
            assert check_sign_axioms(t, **sign) == want, (G, case)
            kinds.update((case, kind) for kind, *_ in want.violations)
            if want.d2_offenders:
                kinds.add((case, "d2"))
    # the mutants reach every failure path of the walk
    assert {("flipped bit", "d2"), ("flipped sign", "Sq"), ("dropped", "d2"), ("dropped", "Sq-count")} <= kinds


def test_graded_d_squared_zero_all_n3():
    # the marker-free rectangles with group-law signs square to zero
    for G in grid.all_grids(3):
        for x in itertools.permutations(range(3)):
            dd = {}
            for l1, y in grid.empty_rectangles(G, x, marker_free=True):
                for l2, w in grid.empty_rectangles(G, y, marker_free=True):
                    dd[w] = dd.get(w, 0) + (-1 if spin._right_mul(x, *l1) ^ spin._right_mul(y, *l2) else 1)
            assert not any(dd.values()), (G, x)


def test_graded_differential_preserves_alexander():
    for G in grid.all_grids(3):
        for x in itertools.permutations(range(3)):
            A = grid.alexander2(G, x)
            M = grid.maslov(G, x)
            for _, y, ocols, cells in grid.empty_rectangles(G, x):
                if any(ocols) or any(rects.x_counts(G, cells)):
                    continue
                assert grid.alexander2(G, y) == A
                assert grid.maslov(G, y) == M - 1


def test_sign_axioms_unknot_products():
    G = grid.unknot2()
    report = check_sign_axioms(rectangle_table(G))
    assert report.ok
    assert report.vertical_annuli == 4 and report.horizontal_annuli == 4
    # the explicit annulus products
    s = lambda x, l: sign_assignment(G, x, l)
    assert s((0, 1), (0, 1)) * s((1, 0), (0, 1)) == -1  # vertical
    assert s((0, 1), (0, 1)) * s((1, 0), (1, 0)) == 1  # horizontal


@pytest.mark.parametrize("sign", [{}, {"S": reversed_sign}], ids=["right", "reversed"])
def test_sign_axioms_all_n3(sign):
    for G in grid.all_grids(3):
        report = check_sign_axioms(rectangle_table(G), **sign)
        assert report.ok, (G, report.violations[:3])


@pytest.mark.parametrize(
    "G,counts,swapped",
    [(grid.hopf4(), (488, 96, 96), 232), (grid.trefoil5(), (5400, 600, 600), 2233)],
    ids=["hopf4", "trefoil5"],
)
def test_sign_axiom_counts_pinned(G, counts, swapped):
    # (square, vertical, horizontal) counts and the swapped formula's
    # violations, as recorded with the per-cell support bookkeeping
    table = rectangle_table(G)
    # the default signs are those of sign_assignment
    assert check_sign_axioms(table) == check_sign_axioms(table, lambda x, l: sign_assignment(G, x, l))
    for report in (check_sign_axioms(table), check_sign_axioms(table, reversed_sign)):
        assert report.ok
        assert (report.square_pairs, report.vertical_annuli, report.horizontal_annuli) == counts
    report = check_sign_axioms(table, swapped_sign)
    assert (report.square_pairs, report.vertical_annuli, report.horizontal_annuli) == counts
    assert len(report.violations) == swapped
    assert {kind for kind, *_ in report.violations} == {"H", "Sq", "V"}


def test_swapped_variant_fails_annulus_axioms():
    # the bare argument swap is not a sign assignment: it violates the
    # annulus axioms already on a 3x3 grid
    G = GridDiagram(3, (0, 1, 2), (1, 2, 0))
    report = check_sign_axioms(rectangle_table(G), swapped_sign)
    assert not report.ok
    assert any(kind in ("V", "H") for kind, *_ in report.violations)


def test_coboundary_trivial_gauge():
    G = grid.unknot2()
    S = lambda x, l: sign_assignment(G, x, l)
    res = check_coboundary_equivalence(S, S, rectangle_table(G))
    assert res.ok and set(res.gauge.values()) <= {1, -1}


def test_coboundary_recovers_maslov_twist():
    G = GridDiagram(3, (1, 2, 0), (0, 1, 2))

    def S1(x, label):
        return sign_assignment(G, x, label)

    def S2(x, label):
        a, b = label
        y = list(x)
        y[a], y[b] = y[b], y[a]
        return S1(x, label) * (-1) ** grid.maslov(G, x) * (-1) ** grid.maslov(G, tuple(y))

    res = check_coboundary_equivalence(S1, S2, rectangle_table(G))
    assert res.ok
    # the recovered gauge is the twist up to a constant per component
    base = res.gauge[(0, 1, 2)] * (-1) ** grid.maslov(G, (0, 1, 2))
    for x, f in res.gauge.items():
        assert f == base * (-1) ** grid.maslov(G, x)


def test_coboundary_right_vs_reversed_n3():
    for G in grid.all_grids(3):
        S1 = lambda x, l: sign_assignment(G, x, l)
        res = check_coboundary_equivalence(S1, reversed_sign, rectangle_table(G))
        assert res.ok


def test_coboundary_detects_inconsistency():
    G = grid.unknot2()
    S1 = lambda x, l: sign_assignment(G, x, l)
    # flipping a single rectangle breaks every gauge
    S2 = lambda x, l: S1(x, l) * (-1 if (x, l) == ((0, 1), (0, 1)) else 1)
    res = check_coboundary_equivalence(S1, S2, rectangle_table(G))
    assert not res.ok and res.witness is not None


def test_d_squared_on_random_n5():
    import random

    rng = random.Random(17)
    G = grid.random_grid(5, rng)
    assert not check_sign_axioms(rectangle_table(G)).d2_offenders


def test_minus_differential_bidegree():
    # every summand drops the Maslov degree by one; Alexander degrees of
    # summands never rise, with equality exactly for X-free rectangles
    import random

    rng = random.Random(3)
    for _ in range(5):
        G = grid.random_grid(4, rng)
        comps = G.components
        for x in itertools.permutations(range(4)):
            M, A = grid.maslov(G, x), grid.alexander2(G, x)
            for label, y, ocols, cells in grid.empty_rectangles(G, x):
                xcols = rects.x_counts(G, cells)
                My, Ay = grid.maslov(G, y), grid.alexander2(G, y)
                assert My - 2 * sum(ocols) == M - 1
                for j in range(1, comps.l + 1):
                    oj = sum(ocols[c] for c in range(4) if comps.comp_of_o[c] == j)
                    xj = sum(xcols[c] for c in range(4) if comps.comp_of_x[c] == j)
                    term = Ay[j - 1] - 2 * oj
                    assert term <= A[j - 1]
                    assert (term == A[j - 1]) == (xj == 0)
