import itertools
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_alexander
import oracle_mod2
import oracle_rectangles
import oracle_snf
import oracle_spin
from sample_grids import all_grids, hopf4, random_grid, torus_grid, trefoil5, unknot2
from gridspin import grid, homology
from gridspin.grid import GridDiagram
from gridspin.homology import (
    Laurent,
    NotDivisible,
    alexander_polynomial,
    bigraded_homology,
    divide_hat_factor,
    equal_up_to_t_shift,
    half_str,
    render_polynomial,
    smith_normal_form,
    tilde_homology,
)
from oracle_hat import full_tilde, has_torsion, hat_reduction, piece
from oracle_snf import IntegerMatrix

# ---------------------------------------------------------------------------
# Smith normal form


def _certified_diagonal(A):
    """The oracle's invariant factors, certified by U * A * V = D; the
    production routine must report the same ones."""
    S = oracle_snf.smith_normal_form(A)
    assert oracle_snf.snf_product_check(A, S)
    assert smith_normal_form(oracle_snf.columns(A)).diagonal == S.diagonal
    return S.diagonal


def test_snf_examples():
    assert _certified_diagonal(IntegerMatrix.from_dense([[0, 0], [0, 0]])) == ()
    assert _certified_diagonal(IntegerMatrix.from_dense([[1, 2], [3, 4]])) == (1, 2)
    assert _certified_diagonal(IntegerMatrix.from_dense([[2, 0], [0, 3]])) == (1, 6)
    # the block shapes the homology assembly hands over: no columns (a
    # bigrading that is nobody's source), columns with no rows (the lowest
    # Maslov block of every grid), an all-empty column among non-empty ones
    assert smith_normal_form([]).diagonal == ()
    assert _certified_diagonal(IntegerMatrix(0, 0, ())) == ()
    assert _certified_diagonal(IntegerMatrix(0, 3, ())) == ()
    assert _certified_diagonal(IntegerMatrix.from_dense([[1, 0, 2], [0, 0, 4]])) == (1, 4)
    assert _certified_diagonal(IntegerMatrix.from_dense([[0, 2, 0], [0, 0, 3]])) == (1, 6)


def test_snf_merges_duplicate_entries():
    A = IntegerMatrix.from_entries(1, 1, [(0, 0, 1), (0, 0, -1)])
    assert A.entries == ()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda m: st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )
)
def test_snf_properties(dense):
    diagonal = _certified_diagonal(IntegerMatrix.from_dense(dense))
    assert all(d > 0 for d in diagonal)
    assert all(diagonal[i + 1] % diagonal[i] == 0 for i in range(len(diagonal) - 1))


def _det(mat):
    mat = [row[:] for row in mat]
    n = len(mat)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k]:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def test_snf_transforms_unimodular():
    rng = random.Random(12)
    for _ in range(15):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = IntegerMatrix.from_dense([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        S = oracle_snf.smith_normal_form(A)
        assert abs(_det([list(r) for r in S.U])) == 1
        assert abs(_det([list(r) for r in S.V])) == 1
        assert smith_normal_form(oracle_snf.columns(A)).diagonal == S.diagonal


def test_snf_dense_60():
    rng = random.Random(60)
    A = IntegerMatrix.from_dense([[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)])
    _certified_diagonal(A)


def test_snf_sparse_200():
    # boundary-matrix shaped input: 200x200, ~1200 entries of +-1
    rng = random.Random(200)
    seen = {}
    for _ in range(1200):
        seen[(rng.randrange(200), rng.randrange(200))] = rng.choice((-1, 1))
    A = IntegerMatrix.from_entries(200, 200, [(r, c, v) for (r, c), v in seen.items()])
    _certified_diagonal(A)


def test_snf_rows_zeroed_partway():
    # the rows of 2A, and the A-part of A + B, are cancelled by the rows of
    # A, so elimination empties rows before the last pivot
    rng = random.Random(7)
    for _ in range(10):
        k, n = rng.randint(2, 6), rng.randint(2, 8)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        stacked = A + [[2 * a for a in row] for row in A] + [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)
        ]
        _certified_diagonal(IntegerMatrix.from_dense(stacked))


def _mod2_ranks(H):
    """GF(2) dimensions by universal coefficients: the dimension at (M, A)
    is the free rank there plus the even invariant factors at (M, A) and
    (M - 1, A)."""
    expected = {}
    for bg, rank, torsion in H.pieces:
        even = sum(1 for f in torsion if f % 2 == 0)
        for key, k in (((bg.maslov, bg.alexander2), rank + even), ((bg.maslov + 1, bg.alexander2), even)):
            if k:
                expected[key] = expected.get(key, 0) + k
    return expected


def _cancelling_targets(G):
    """(x, y) pairs whose marker-free rectangles from x to y have group-law
    signs summing to zero."""
    out = []
    for x in itertools.permutations(range(G.n)):
        total = {}
        for label, y in grid.empty_rectangles(G, x):
            total.setdefault(y, []).append(-1 if oracle_spin.right_mul(x, *label) else 1)
        out.extend((x, y) for y, signs in total.items() if len(signs) > 1 and not sum(signs))
    return out


def test_marker_free_targets_repeat_on_split_grids():
    # why bigraded_homology merges its column entries per target and drops
    # zero sums: on the split unlink both rectangles from x to y are
    # marker-free and cancel
    G = GridDiagram(4, (0, 1, 2, 3), (1, 0, 3, 2))
    x = (2, 1, 0, 3)
    found = grid.empty_rectangles(G, x)
    assert [y for _, y in found] == [(0, 1, 2, 3)] * 2
    assert sorted(oracle_spin.right_mul(x, *label) for label, _ in found) == [0, 1]
    assert (x, (0, 1, 2, 3)) in _cancelling_targets(G)
    assert _mod2_ranks(tilde_homology(G)) == oracle_mod2.bigraded_ranks(G.n, G.o_rows, G.x_rows)
    assert sum(len(_cancelling_targets(G)) for n in (2, 3, 4) for G in all_grids(n)) == 32


def test_one_snf_call_per_bigrading_block(monkeypatch):
    # the assembly reduces every block of the region at the tilde centre
    # 2A >= (1 - n_j)_j once, through the module-level name
    calls = []
    solve = homology.smith_normal_form

    def counting(columns):
        calls.append(len(columns))
        return solve(columns)

    monkeypatch.setattr(homology, "smith_normal_form", counting)
    for G in (hopf4(), trefoil5()):
        calls.clear()
        centre = tuple(1 - k for k in G.components.n_i)
        H = bigraded_homology(G, centre)
        sizes = {}
        for x in itertools.permutations(range(G.n)):
            key = (grid.maslov(G, x), grid.alexander2(G, x))
            if key[1] >= centre:
                sizes[key] = sizes.get(key, 0) + 1
        assert sorted(calls) == sorted(sizes.values())
        monkeypatch.setattr(homology, "smith_normal_form", solve)
        assert bigraded_homology(G, centre) == H
        monkeypatch.setattr(homology, "smith_normal_form", counting)


def test_assembly_leaves_no_reference_cycles():
    # with the cyclic collector off, anything the assembly leaves in a
    # reference cycle (a recursive closure that names itself, say) stays
    # alive, every generator tuple it reaches included, until the next
    # collection, which then reports it
    import gc

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for G in (trefoil5(), hopf4()):
            tilde_homology(G)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _graded_terms(G, x):
    """(target, group-law sign) of every marker-free empty rectangle out of x."""
    return [
        (y, -1 if oracle_spin.right_mul(x, *label) else 1)
        for label, y, ocols, cells in oracle_rectangles.full_scan(G, x)
        if not (any(ocols) or any(oracle_rectangles.x_counts(G, cells)))
    ]


def _boundary_blocks(G):
    """(bigrading, block) for every boundary block of the marker-free
    differential, each column full (nothing cleared): +-1 entries, the
    shape the homology path reduces."""
    by_grading = {}
    for x in itertools.permutations(range(G.n)):
        by_grading.setdefault((grid.maslov(G, x), grid.alexander2(G, x)), []).append(x)
    for (maslov, alexander), members in by_grading.items():
        below = {y: i for i, y in enumerate(by_grading.get((maslov - 1, alexander), []))}
        entries = [
            (below[y], col, sign) for col, x in enumerate(members) for y, sign in _graded_terms(G, x)
        ]
        yield (maslov, alexander), IntegerMatrix.from_entries(len(below), len(members), entries)


def test_snf_boundary_blocks():
    for G in (trefoil5(), random_grid(6, random.Random(66))):
        for _, A in _boundary_blocks(G):
            _certified_diagonal(A)


def test_snf_n7_knot_blocks():
    # blocks of an n = 7 knot (up to 686 generators a side); the oracle is
    # certified on smaller inputs above, and its product check would take
    # most of a minute here
    G = random_grid(7, random.Random(2))
    assert G.components.l == 1
    for _, A in _boundary_blocks(G):
        assert smith_normal_form(oracle_snf.columns(A)).diagonal == oracle_snf.smith_normal_form(A).diagonal


def _uncleared_pieces(G):
    """The pieces of the tilde homology at every bigrading from full
    blocks: every generator's column is scanned and reduced, none is
    cleared, and nothing is mirrored."""
    snfs, dims = {}, {}
    for bg, A in _boundary_blocks(G):
        snfs[bg] = smith_normal_form(oracle_snf.columns(A))
        dims[bg] = A.cols
    pieces = []
    for maslov, alexander in sorted(dims):
        up = snfs.get((maslov + 1, alexander))
        free = dims[(maslov, alexander)] - snfs[(maslov, alexander)].rank - (up.rank if up else 0)
        torsion = up.torsion() if up else ()
        if free or torsion:
            pieces.append(((maslov, alexander), free, torsion))
    return pieces


def _clearing_grids():
    """Every grid with n <= 4, 20 seeded n = 5 grids, the first two
    seeded n = 6 grids of each component count 1, 2 and 3, and one seeded
    n = 7 knot, the size of the benchmark's largest workload.  Pivot rows
    filed under the wrong block agree with the full blocks on every grid
    with n <= 5 but not at n = 6."""
    yield from (G for n in (2, 3, 4) for G in all_grids(n))
    rng = random.Random(605)
    yield from (random_grid(5, rng) for _ in range(20))
    rng = random.Random(606)
    wanted = {1: 2, 2: 2, 3: 2}
    while any(wanted.values()):
        G = random_grid(6, rng)
        if wanted.get(G.components.l):
            wanted[G.components.l] -= 1
            yield G
    rng = random.Random(607)
    yield next(G for G in iter(lambda: random_grid(7, rng), None) if G.components.l == 1)


def test_clearing_matches_full_blocks():
    # every piece, free rank and torsion, equals the one read off blocks
    # in which no generator is cleared
    count = 0
    for G in _clearing_grids():
        assert list(tilde_homology(G).pieces) == _uncleared_pieces(G), G
        count += 1
    assert count == 230 + 20 + 6 + 1


def test_clearing_skips_the_unit_pivot_rows_above(monkeypatch):
    # only the generators no block above pivoted on are scanned; when every
    # pivot is a unit, the pivots of all blocks on the region R at the
    # tilde centre number the rank of the differential there,
    # (|R| - rank of R's homology) / 2, so (|R| + that rank) / 2 are
    # scanned.  An assembly that walks up in Maslov degree clears nothing
    # and scans all of R
    scans, unit_only = [], []
    scan, solve = grid.empty_rectangles, homology.smith_normal_form

    def counting(G, x):
        scans.append(x)
        return scan(G, x)

    def reporting(columns):
        S = solve(columns)
        unit_only.append(len(S.pivot_rows) == S.rank)
        return S

    monkeypatch.setattr(grid, "empty_rectangles", counting)
    monkeypatch.setattr(homology, "smith_normal_form", reporting)
    rng = random.Random(6)
    grids = [trefoil5(), hopf4(), unknot2()] + [random_grid(n, rng) for n in (5, 5, 6, 6)]
    counts = []
    for G in grids:
        scans.clear()
        unit_only.clear()
        centre = tuple(1 - k for k in G.components.n_i)
        pieces = bigraded_homology(G, centre)
        region = sum(grid.alexander2(G, x) >= centre for x in itertools.permutations(range(G.n)))
        assert all(unit_only) and not any(torsion for _, _, torsion in pieces)
        assert len(scans) == len(set(scans)) == (region + sum(free for _, free, _ in pieces)) // 2
        counts.append((len(scans), region))
    assert counts[0] == (57, 83)  # 83 of the trefoil's 120 generators lie in R


def test_clearing_keeps_non_unit_pivot_rows():
    # C2 -> C1 -> C0 by hand: d2 sends e0 to r0 + 2 r1 and e1 to 2 r2, d1
    # sends r0 to -2 s0, r1 to s0 and r2 to 0, so d1 d2 = 0 and
    # H1 = ker d1 / im d2 = Z/2.  The unit stage pivots on the unit at
    # r0 only; the x2 at r2 is left to the residual stage
    d2 = [{0: 1, 1: 2}, {2: 2}]
    d1 = [{0: -2}, {0: 1}, {}]
    assert all(sum(d1[r].get(0, 0) * v for r, v in col.items()) == 0 for col in d2)
    S2 = smith_normal_form(d2)
    assert S2.diagonal == (1, 2) and S2.pivot_rows == {0}
    S1 = smith_normal_form(d1)
    cleared = smith_normal_form([{} if r in S2.pivot_rows else col for r, col in enumerate(d1)])
    assert cleared == S1 and S1.diagonal == (1,)
    assert (3 - S1.rank - S2.rank, S2.torsion()) == (0, (2,))  # H1 = Z/2
    # clearing the row of a x2 entry as well drops the rank of d1 and would
    # report a free Z in H1
    wrong = smith_normal_form([{} if r in {0, 1} else col for r, col in enumerate(d1)])
    assert wrong.rank == 0 and 3 - wrong.rank - S2.rank == 1
    # the report changes neither equality nor repr
    assert S2 == homology.SmithForm((1, 2)) and repr(S2) == "SmithForm(diagonal=(1, 2))"


def _mixed(dense, rng, steps):
    """dense after random unimodular row and column operations."""
    D = [row[:] for row in dense]
    m, n = len(D), len(D[0])
    for _ in range(steps):
        i, k = rng.sample(range(m), 2)
        q = rng.choice((-2, -1, 1, 2))
        D[i] = [a + q * b for a, b in zip(D[i], D[k])]
        j, l = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        for row in D:
            row[j] += q * row[l]
    return D


def test_snf_residual_after_units():
    # a sparse +-1 block next to a block without units, mixed: the unit
    # stage can only contribute factors 1, so the torsion below must come
    # from the residual stage
    rng = random.Random(17)
    for _ in range(6):
        p, q = rng.randint(6, 14), rng.randint(6, 14)
        k = rng.randint(2, 5)
        dense = [[0] * (q + k) for _ in range(p + k)]
        for _ in range(2 * p):
            dense[rng.randrange(p)][rng.randrange(q)] = rng.choice((-1, 1))
        for i in range(k):
            for j in range(k):
                dense[p + i][q + j] = rng.choice((0, 2, -2, 3, -3, 6, -6))
        dense[p][q] = 6  # keeps the non-unit block nonzero
        diagonal = _certified_diagonal(IntegerMatrix.from_dense(_mixed(dense, rng, 3 * (p + k))))
        assert any(d > 1 for d in diagonal)


_NON_UNITS = (2, -2, 3, -3, 4, -4, 6, -6, 9, -9)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda m: st.lists(
            st.dictionaries(st.integers(0, m - 1), st.sampled_from(_NON_UNITS)), min_size=1, max_size=10
        ).map(lambda columns: (m, columns))
    )
)
def test_snf_residual_phase(block):
    # no entry is a unit, so the unit stage pivots nothing and every
    # nonzero block is reduced by the residual stage alone
    m, columns = block
    entries = [(r, c, v) for c, col in enumerate(columns) for r, v in col.items()]
    _certified_diagonal(IntegerMatrix.from_entries(m, len(columns), entries))
    assert not smith_normal_form(columns).pivot_rows


def test_snf_large_unit_free_block():
    # 200 copies of diag(+-2, +-3), rows and columns shuffled: the
    # invariant factors are 1 and 6, 200 times each.  The residual stage
    # works on the sparse entries; a dense copy of this block alone would
    # take about 1.3 MB
    rng = random.Random(400)
    rows, cols = rng.sample(range(400), 400), rng.sample(range(400), 400)
    columns = [{} for _ in range(400)]
    for k in range(400):
        columns[cols[k]][rows[k]] = rng.choice((1, -1)) * (2, 3)[k % 2]
    tracemalloc.start()
    try:
        S = smith_normal_form(columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S.diagonal == (1,) * 200 + (6,) * 200
    assert peak < 800_000, peak
    # a unit that a Euclid step creates is never offered for clearing
    S = smith_normal_form([{0: 2, 1: 3}])
    assert S.diagonal == (1,) and not S.pivot_rows


def test_snf_pivot_row_is_the_shortest_unit_row():
    # row 0 has two entries and row 2 three, so row 0 pivots in column 3;
    # the shortest row adds the fewest entries to the rows it clears
    columns = [{0: 1, 3: 1}, {2: 1, 3: 1}, {2: 1, 4: 1}, {0: 1, 2: 1}]
    assert smith_normal_form(columns).pivot_rows == {0, 3, 4}


_SPARSE = (1, -1, 1, -1, 2, -2, 3, -3)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 16).flatmap(
        lambda m: st.lists(
            st.dictionaries(st.integers(0, m - 1), st.sampled_from(_SPARSE), min_size=1, max_size=3),
            min_size=1,
            max_size=12,
        ).map(lambda columns: (m, columns))
    )
)
def test_snf_sparse_mixed_blocks(block):
    # few entries over many rows, so many rows hold one entry and the
    # unit stage often pivots on a unit alone in its row; the +-2 and +-3
    # entries it leaves go to the residual stage
    m, columns = block
    entries = [(r, c, v) for c, col in enumerate(columns) for r, v in col.items()]
    _certified_diagonal(IntegerMatrix.from_entries(m, len(columns), entries))
    # a unit pivot row held, when it pivoted, its row of the input plus
    # multiples of earlier pivot rows, a unit in its pivot column and
    # zeros in the earlier pivot columns.  So the input's pivot rows times
    # the pivot columns is unimodular, and the pivot rows alone have the
    # invariant factors 1, one per row
    P = sorted(smith_normal_form(columns).pivot_rows)
    index = {r: i for i, r in enumerate(P)}
    rows_P = IntegerMatrix.from_entries(
        len(P), len(columns), [(index[r], c, v) for r, c, v in entries if r in index]
    )
    assert oracle_snf.smith_normal_form(rows_P).diagonal == (1,) * len(P)


# ---------------------------------------------------------------------------
# Laurent polynomials


def test_laurent_arithmetic():
    p = Laurent.from_dict(1, {(0, (0,)): 1, (-1, (-2,)): 1, (3, (2,)): 0})
    assert p.terms == (((-1, (-2,)), 1), ((0, (0,)), 1))  # sorted, zeros dropped
    assert (-p).terms == (((-1, (-2,)), -1), ((0, (0,)), -1))
    assert Laurent.from_dict(1, {(0, (0,)): 0}).is_zero()
    assert p.at_q_minus_one() == Laurent.from_dict(1, {(0, (0,)): 1, (0, (-2,)): -1})
    # odd and even q-powers, negative ones included, and terms that merge
    r = Laurent.from_dict(1, {(-3, (2,)): 2, (2, (2,)): 5, (1, (0,)): 4, (-2, (0,)): 1})
    assert r.at_q_minus_one() == Laurent.from_dict(1, {(0, (2,)): 3, (0, (0,)): -3})


def _times_hat_factor(ranks, j):
    """ranks * (1 + q^-1 t_j^-1), the table of ranks tensored with V_j."""
    out = dict(ranks)
    for (q, t2), c in ranks.items():
        below = (q - 1, t2[:j] + (t2[j] - 2,) + t2[j + 1 :])
        out[below] = out.get(below, 0) + c
    return out


@st.composite
def _ranks_with_factor(draw):
    l = draw(st.integers(1, 3))
    exponents = st.tuples(st.integers(-4, 4), st.tuples(*[st.integers(-6, 6)] * l))
    ranks = draw(st.dictionaries(exponents, st.integers(0, 5), max_size=8))
    return ranks, draw(st.integers(0, l - 1)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_ranks_with_factor(), st.data())
def test_peel_inverts_the_hat_factor(case, data):
    # Q * V_j^k peeled k times is Q; the same product missing any one of
    # its terms is not divisible and the peel says so
    ranks, j, k = case
    product = ranks
    for _ in range(k):
        product = _times_hat_factor(product, j)
    quotient = product
    for _ in range(k):
        quotient = divide_hat_factor(quotient, j)
    assert quotient == {e: c for e, c in ranks.items() if c}
    support = sorted(e for e, c in product.items() if c)
    if support:
        gone = data.draw(st.sampled_from(support))
        quotient = {e: c for e, c in product.items() if e != gone}
        with pytest.raises(NotDivisible):
            for _ in range(k):
                quotient = divide_hat_factor(quotient, j)


@settings(max_examples=200, deadline=None)
@given(_ranks_with_factor(), st.data())
def test_region_peel_is_the_full_peel_on_the_region(case, data):
    # on the bigradings with t2 >= a2 (lexicographically) the peel that
    # drops the steps out of the region gives the full quotient
    ranks, j, k = case
    l = len(next(iter(ranks))[1]) if ranks else 1
    a2 = data.draw(st.tuples(*[st.integers(-6, 6)] * l))
    product = ranks
    for _ in range(k):
        product = _times_hat_factor(product, j)
    quotient = {e: c for e, c in product.items() if e[1] >= a2}
    for _ in range(k):
        quotient = divide_hat_factor(quotient, j, a2)
    assert quotient == {e: c for e, c in ranks.items() if c and e[1] >= a2}


def test_peel_examples():
    p = {(0, (0,)): 1, (-1, (-2,)): 1}  # 1 + q^-1 t^-1
    assert divide_hat_factor(p, 0) == {(0, (0,)): 1}
    cube = _times_hat_factor(_times_hat_factor(p, 0), 0)
    assert divide_hat_factor(cube, 0) == _times_hat_factor(p, 0)
    with pytest.raises(NotDivisible):
        divide_hat_factor({(0, (0,)): 1, (0, (2,)): 1}, 0)  # 1 + t


def test_laurent_rendering():
    p = Laurent.from_dict(1, {(0, (0,)): 1, (-1, (-2,)): 1})
    assert render_polynomial(p) == "1 + q^-1*t^-1"
    q = Laurent.from_dict(2, {(2, (1, -4)): -3})
    assert render_polynomial(q) == "-3*q^2*t1^(1/2)*t2^-2"
    assert render_polynomial(Laurent.from_dict(1, {})) == "0"
    assert render_polynomial(Laurent.from_dict(1, {(0, (2,)): 1, (0, (0,)): -1, (0, (-2,)): 1})) == "t - 1 + t^-1"


def test_half_str_matches_fraction():
    for a in range(-60, 61):
        assert half_str(a) == str(Fraction(a, 2))


def test_equal_up_to_t_shift():
    p = Laurent.from_dict(1, {(0, (0,)): 1, (-1, (-2,)): 2})
    q = p.shifted(0, (4,))
    assert equal_up_to_t_shift(p, q) == (4,)
    assert equal_up_to_t_shift(p, p.shifted(1, (0,))) is None
    assert equal_up_to_t_shift(p, Laurent.from_dict(1, {(0, (0,)): 2, (-1, (-2,)): 2})) is None


# ---------------------------------------------------------------------------
# Bigraded homology


def test_unknot_homology_exact():
    G = unknot2()
    H = tilde_homology(G)
    assert H.total_rank == 2 and not has_torsion(H)
    assert piece(H, 0, (0,)) == (1, ())
    assert piece(H, -1, (-2,)) == (1, ())
    assert render_polynomial(H.poincare) == "1 + q^-1*t^-1"
    assert render_polynomial(H.euler) == "1 - t^-1"
    hat = hat_reduction(full_tilde(G))
    assert hat.total_rank == 1 and piece(hat, 0, (0,)) == (1, ())
    assert render_polynomial(alexander_polynomial(G)) == "1"


def test_unknot_3x3_hat():
    # a stabilized unknot: bigger tilde group, same hat homology
    G = GridDiagram(3, (2, 0, 1), (0, 1, 2))
    assert G.components.l == 1
    H = tilde_homology(G)
    assert H.total_rank == 4
    hat = hat_reduction(full_tilde(G))
    assert hat.total_rank == 1
    assert render_polynomial(alexander_polynomial(G)) == "1"


def test_unlink_homology():
    G = GridDiagram(4, (0, 1, 2, 3), (1, 0, 3, 2))
    H = tilde_homology(G)
    assert H.total_rank == 8 and not has_torsion(H)
    hat = hat_reduction(full_tilde(G))
    assert hat.total_rank == 2
    assert render_polynomial(hat.poincare) == "1 + q^-1"


def test_trefoil_homology():
    T = trefoil5()
    H = tilde_homology(T)
    assert H.total_rank == 48 and not has_torsion(H)
    hat = hat_reduction(full_tilde(T))
    assert hat.total_rank == 3
    gradings = sorted(bg.alexander2[0] for bg, r, _ in hat.pieces)
    assert gradings == [-2, 0, 2]  # three consecutive Alexander levels
    assert render_polynomial(alexander_polynomial(T)) == "t - 1 + t^-1"


def _torus_delta(p, q):
    """Coefficients, lowest degree first, of the Alexander polynomial
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) of the torus knot T(p, q)."""

    def mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return out

    num = mul([-1] + [0] * (p * q - 1) + [1], [-1, 1])
    den = mul([-1] + [0] * (p - 1) + [1], [-1] + [0] * (q - 1) + [1])
    quotient = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quotient))):  # den is monic
        quotient[k] = c = num[k + len(den) - 1]
        for i, d in enumerate(den):
            num[k + i] -= c * d
    assert not any(num)
    return quotient


@pytest.mark.parametrize("p, q", [(2, 3), (2, 5), (3, 4), (3, 5)])
def test_torus_knots_match_closed_form(p, q):
    # torus knots are L-space knots: Delta = sum_k (-1)^k t^(n_k) with
    # n_0 > n_1 > ..., and HFK-hat is Z in Alexander grading n_k and Maslov
    # grading d_k, d_0 = 0, d_k = d_(k-1) - 1 for even k and
    # d_(k-1) - 2 (n_(k-1) - n_k) + 1 for odd k (Ozsvath-Szabo).  The grid
    # presents the mirror, whose hat homology sits at (-d_k, -n_k).
    G = torus_grid(p, q)
    assert G.n == p + q and G.components.l == 1
    coeffs = _torus_delta(p, q)
    degree = len(coeffs) - 1
    assert degree == (p - 1) * (q - 1)
    delta = {(0, (2 * e - degree,)): c for e, c in enumerate(coeffs) if c}
    assert render_polynomial(alexander_polynomial(G)) == render_polynomial(Laurent.from_dict(1, delta))

    staircase = sorted(((e - degree // 2, c) for e, c in enumerate(coeffs) if c), reverse=True)
    assert [c for _, c in staircase] == [(-1) ** k for k in range(len(staircase))]
    expected = {(0, (-2 * staircase[0][0],)): 1}
    d = 0
    for k in range(1, len(staircase)):
        d -= 1 if k % 2 == 0 else 2 * (staircase[k - 1][0] - staircase[k][0]) - 1
        expected[(-d, (-2 * staircase[k][0],))] = 1
    hat = hat_reduction(full_tilde(G))
    assert {(bg.maslov, bg.alexander2): r for bg, r, _ in hat.pieces} == expected
    assert not has_torsion(hat)


def _at_one_t(euler):
    """A multivariable Euler characteristic at t_i = t, as coefficients
    lowest first, up to a power of t."""
    spec = {}
    for (_, t2), c in euler.terms:
        spec[sum(t2)] = spec.get(sum(t2), 0) + c
    spec = {e: c for e, c in spec.items() if c}
    if not spec:
        return []
    low = min(spec)
    out = [0] * ((max(spec) - low) // 2 + 1)
    for e, c in spec.items():
        assert (e - low) % 2 == 0
        out[(e - low) // 2] = c
    return out


def test_winding_determinant_oracle():
    # the Euler characteristic from o_rows and x_rows alone: the knots'
    # Alexander polynomials exactly, the links' hat Euler characteristic at
    # t_i = t up to +-t^k.  chi telescopes out of the ranks, so this sees
    # the gradings and the hat peel, not the signs, ranks or clearing
    from conftest import corpus_grids

    grids = list(corpus_grids())
    for path in sorted((Path(__file__).resolve().parent.parent / "grids").glob("*.grid")):
        try:
            grids.append(grid.parse_grid_text(path.read_text(encoding="utf-8")))
        except grid.GridError:
            pass  # the deliberately broken examples
    assert len(grids) == 478 + 4
    knots = links = 0
    for G in grids:
        if G.components.l == 1:
            knots += 1
            got = {t2[0]: c for (_, t2), c in alexander_polynomial(G).terms}
            assert got == oracle_alexander.alexander_polynomial(G.o_rows, G.x_rows), G
        else:
            chi = oracle_alexander.euler_at_t(G.o_rows, G.x_rows)
            got = _at_one_t(hat_reduction(full_tilde(G)).euler)
            assert got in (chi, [-c for c in chi]), G
            links += bool(chi)
    assert knots == 285 and links == 32


def test_torus_grid_shape():
    assert torus_grid(2, 3) == trefoil5()
    G = torus_grid(3, 5)
    assert G.x_rows == tuple(range(8)) and G.o_rows == (3, 4, 5, 6, 7, 0, 1, 2)
    for p, q in ((0, 3), (3, 0), (-1, 4)):
        with pytest.raises(ValueError):
            torus_grid(p, q)


def test_hopf_link_hat():
    G = hopf4()
    hat = hat_reduction(full_tilde(G))
    assert hat.total_rank == 4  # Hopf link hat homology has rank four


def test_tilde_euler_factors_through_alexander():
    # for knots the tilde Euler characteristic carries the extra factor
    # (1 - 1/t)^(n-1) on top of the Alexander polynomial
    for G in (unknot2(), trefoil5()):
        H = tilde_homology(G)
        delta = alexander_polynomial(G)
        n = G.n
        expected = delta
        for _ in range(n - 1):
            # times (1 - t^-1): take off the copy shifted by t^-1
            terms = dict(expected.terms)
            for e, c in expected.shifted(0, (-2,)).terms:
                terms[e] = terms.get(e, 0) - c
            expected = Laurent.from_dict(1, terms)
        shift = equal_up_to_t_shift(expected, H.euler)
        if shift is None:
            shift = equal_up_to_t_shift(-expected, H.euler)
        assert shift is not None


def test_mod2_oracle_agrees_on_random_grids():
    # universal coefficients against the GF(2) oracle
    rng = random.Random(31)
    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    grids += [random_grid(5, rng) for _ in range(5)]
    grids += [random_grid(6, rng) for _ in range(2)]
    for G in grids:
        assert oracle_mod2.bigraded_ranks(G.n, G.o_rows, G.x_rows) == _mod2_ranks(tilde_homology(G)), G


def test_homology_independent_of_basis_order():
    # permuting the generator basis inside each piece leaves ranks and
    # torsion unchanged
    rng = random.Random(5)
    G = random_grid(4, rng)
    gens = list(itertools.permutations(range(4)))
    grading = {x: (grid.maslov(G, x), grid.alexander2(G, x)) for x in gens}
    pieces = {}
    for x in gens:
        pieces.setdefault(grading[x], []).append(x)
    H = tilde_homology(G)
    for _ in range(3):
        shuffled = {bg: rng.sample(members, len(members)) for bg, members in pieces.items()}
        index = {bg: {x: i for i, x in enumerate(v)} for bg, v in shuffled.items()}
        ranks = {}
        tors = {}
        for bg, members in shuffled.items():
            below = (bg[0] - 1, bg[1])
            tgt = index.get(below, {})
            entries = []
            for col, x in enumerate(members):
                for y, s in _graded_terms(G, x):
                    entries.append((tgt[y], col, s))
            S = smith_normal_form(oracle_snf.columns(IntegerMatrix.from_entries(len(tgt), len(members), entries)))
            ranks[bg] = S.rank
            tors[bg] = S.torsion()
        for bg, members in shuffled.items():
            up = (bg[0] + 1, bg[1])
            free = len(members) - ranks[bg] - ranks.get(up, 0)
            want_rank, want_tor = piece(H, bg[0], bg[1])
            assert free == want_rank
            assert tors.get(up, ()) == want_tor


def _region_grids():
    """Every grid with n <= 4, seeded n = 5..7 grids of one to three
    components and torus grids of one to four components."""
    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    rng = random.Random(2501)
    wanted = {(5, 1): 4, (5, 2): 4, (6, 1): 3, (6, 2): 3, (6, 3): 2, (7, 1): 2, (7, 2): 2, (7, 3): 2}
    while any(wanted.values()):
        G = random_grid(rng.choice((5, 6, 7)), rng)
        if wanted.get((G.n, G.components.l)):
            wanted[G.n, G.components.l] -= 1
            grids.append(G)
    torus = ((2, 3), (2, 4), (3, 3), (2, 5), (3, 4), (2, 6), (3, 5), (4, 4))
    grids += [torus_grid(p, q) for p, q in torus]
    assert {G.components.l for G in grids} == {1, 2, 3, 4}
    return grids


def test_region_hat_matches_the_full_peel():
    # hat_homology reduces and peels only the bigradings with 2A >= 0 and
    # fills in the rest by the symmetry of hat link Floer homology; the
    # oracle peels the tilde homology of every bigrading, read off the
    # full walk, and assumes no symmetry
    for G in _region_grids():
        assert homology.hat_homology(G) == hat_reduction(full_tilde(G)), G


def test_region_tilde_matches_the_full_walk():
    # tilde_homology reduces only the bigradings with 2A >= (1 - n_j)_j
    # and fills in the rest by the symmetry of tilde, torsion included;
    # the oracle reduces the blocks of all n! generators
    for G in _region_grids():
        assert tilde_homology(G) == full_tilde(G), G


def test_hat_reduction_bad_inputs():
    G = unknot2()
    hat = hat_reduction(full_tilde(G))
    with pytest.raises(ValueError):
        hat_reduction(hat)


def test_summary_json_shape():
    G = unknot2()
    d = tilde_homology(G).to_json_dict()
    assert set(d) == {"flavor", "pieces", "poincare", "euler"}
    assert d["pieces"][0].keys() == {"maslov", "alexander2", "free_rank", "torsion"}
