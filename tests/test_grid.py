import itertools
import math
from fractions import Fraction

import pytest

import oracle_mod2
import oracle_rectangles as rects
from oracle_hat import below_every_generator
from oracle_signs import is_horizontally_torn
from sample_grids import all_grids, hopf4, random_grid, torus_grid, trefoil5, unknot2
from gridspin import grid
from gridspin.grid import GridDiagram, GridError


def test_validate_accepts_unknot():
    G = unknot2()
    assert G.n == 2 and G.o_rows == (1, 0) and G.x_rows == (0, 1)


@pytest.mark.parametrize(
    "args,code",
    [
        ((2, (0, 0), (1, 1)), "NotAPermutation"),
        ((2, (0, 1), (0, 1)), "SharedCell"),
        ((1, (0,), (0,)), "TooSmall"),
        ((3, (0, 1), (1, 0, 2)), "NotAPermutation"),
    ],
)
def test_validate_rejects(args, code):
    with pytest.raises(GridError) as err:
        GridDiagram(*args)
    assert err.value.code == code


def test_trace_components_unknot():
    c = unknot2().components
    assert c.l == 1 and c.n_i == (2,)


def test_trace_components_two_component():
    c = GridDiagram(4, (1, 0, 3, 2), (0, 1, 2, 3)).components
    assert c.l == 2 and c.n_i == (2, 2)
    assert c.comp_of_o == (1, 1, 2, 2)


def test_components_partition_rows():
    import random

    rng = random.Random(0)
    for _ in range(30):
        G = random_grid(rng.randint(2, 6), rng)
        c = G.components
        assert sum(c.n_i) == G.n
        assert sorted(set(c.comp_of_o)) == list(range(1, c.l + 1))
        # the first l numbered markers sit on distinct components
        assert len({c.comp_of_o[col] for col in c.o_numbering[: c.l]}) == c.l


def _components_reference(G):
    """ComponentData from the oracle's cycles, numbered by smallest O
    column, with the first O column of each component leading o_numbering."""
    comp_of_row, cycles = oracle_mod2._components(G.n, G.o_rows, G.x_rows)
    first = {}
    for c, r in enumerate(G.o_rows):
        first.setdefault(comp_of_row[r], c)
    number = {k: j for j, k in enumerate(first, 1)}
    lead = list(first.values())
    return grid.ComponentData(
        len(cycles),
        tuple(number[comp_of_row[r]] for r in G.o_rows),
        tuple(number[comp_of_row[r]] for r in G.x_rows),
        tuple(len(cycles[k]) for k in first),
        tuple(lead + [c for c in range(G.n) if c not in lead]),
    )


def test_components_match_oracle():
    import random

    rng = random.Random(12)
    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    grids += [random_grid(rng.randint(5, 30), rng) for _ in range(200)]
    grids += [torus_grid(p, q) for p in range(1, 6) for q in range(1, 6)]
    # n/2 two-row components, the case a per-component rescan made quadratic
    n = 400
    grids.append(GridDiagram(n, tuple(r ^ 1 for r in range(n)), tuple(range(n))))
    for G in grids:
        assert G.components == _components_reference(G), G


def test_count_pairs_examples():
    assert oracle_mod2._pairs_below([], [(0.5, 1.5)]) == 0
    assert oracle_mod2._pairs_below([(0, 0), (1, 1)], [(0.5, 1.5), (1.5, 0.5)]) == 2
    assert oracle_mod2._pairs_below([(0, 0), (1, 1)], [(0, 0), (1, 1)]) == 1
    A = [(0, 0), (1, 1)]
    assert oracle_mod2._J(A, A) == oracle_mod2._pairs_below(A, A)
    O = [(0.5, 1.5), (1.5, 0.5)]
    assert oracle_mod2._J(A, O) == Fraction(1)
    assert oracle_mod2._J(O, O) == 0


def count_pairs_J_formal(A, B):
    """Bilinear extension of the symmetrised count over formal sums: each
    argument is a list of (coefficient, point set) pairs."""
    A = [(ca, list(pa)) for ca, pa in A]
    B = [(cb, list(pb)) for cb, pb in B]
    total = Fraction(0)
    for ca, pa in A:
        for cb, pb in B:
            total += ca * cb * oracle_mod2._J(pa, pb)
    return total


def test_count_pairs_formal_bilinearity():
    A = [(0, 0), (2, 2)]
    B = [(1, 1)]
    C = [(3, 0)]
    lhs = count_pairs_J_formal([(1, A), (-2, B)], [(1, C)])
    rhs = oracle_mod2._J(A, C) - 2 * oracle_mod2._J(B, C)
    assert lhs == rhs


def test_maslov_unknot():
    G = unknot2()
    assert grid.maslov(G, (0, 1)) == 0
    assert grid.maslov(G, (1, 0)) == -1


def test_alexander_unknot():
    G = unknot2()
    assert grid.alexander2(G, (0, 1)) == (0,)
    assert grid.alexander2(G, (1, 0)) == (-2,)


def test_gradings_match_oracle():
    # the integer closed form against the rational J-formula recomputed
    # from first principles, on every generator; the prefix-tree walk
    # against grouping those gradings in itertools.permutations order
    import random

    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    rng = random.Random(35)
    grids += [random_grid(5, rng) for _ in range(20)]
    grids += [random_grid(6, rng) for _ in range(3)]
    grids.append(torus_grid(3, 3))  # three components
    for G in grids:
        by_grading = {}
        for x in itertools.permutations(range(G.n)):
            got = (grid.maslov(G, x), grid.alexander2(G, x))
            assert got == oracle_mod2.gradings(G.n, G.o_rows, G.x_rows, x), (G, x)
            by_grading.setdefault(got, []).append(x)
        assert list(grid.graded_generators(G, below_every_generator(G)).items()) == list(by_grading.items()), G
    # T(3, 5) at n = 8, past the sizes above: the oracle on a seeded
    # sample, the walk on all 40,320 generators
    T = torus_grid(3, 5)
    for x in [tuple(rng.sample(range(8), 8)) for _ in range(300)]:
        got = (grid.maslov(T, x), grid.alexander2(T, x))
        assert got == oracle_mod2.gradings(8, T.o_rows, T.x_rows, x), x
    by_grading = {}
    for x in itertools.permutations(range(8)):
        by_grading.setdefault(grid._gradings(T, x), []).append(x)
    assert list(grid.graded_generators(T, below_every_generator(T)).items()) == list(by_grading.items())
    assert sum(map(len, by_grading.values())) == 40320


def _counting_walk(monkeypatch):
    # every _descend call, one per visited prefix node, with its arguments
    calls = []
    descend = grid._descend

    def counted(*args):
        calls.append(args)
        descend(*args)

    monkeypatch.setattr(grid, "_descend", counted)
    return calls


def test_region_walk_is_the_filtered_full_walk(monkeypatch):
    # the walk pruned at 2A >= a2 (lexicographically) keeps exactly the
    # keys of the full walk at or above a2, with the same lists in the same
    # order: a2 = 0 on every grid with n <= 5 and on seeded one-, two- and
    # three-component grids, other thresholds on a knot.  The full walk
    # is the one at a floor below every generator, which
    # test_gradings_match_oracle holds to the per-generator grouping.  The
    # pruning is exact: the walk visits the distinct prefixes x[0..c-1],
    # 0 <= c < n, of the generators with A_1(x) >= a2[0] and no others
    import random

    grids = [G for n in (2, 3, 4, 5) for G in all_grids(n)]
    rng = random.Random(2502)
    wanted = {(6, 1): 2, (6, 2): 3, (6, 3): 2, (7, 1): 2, (7, 2): 2, (7, 3): 2}
    while any(wanted.values()):
        G = random_grid(rng.choice((6, 7)), rng)
        if wanted.get((G.n, G.components.l)):
            wanted[G.n, G.components.l] -= 1
            grids.append(G)
    T = torus_grid(3, 4)
    cases = [(G, (0,) * G.components.l) for G in grids]
    cases += [(T, (a,)) for a in (-20, -7, -2, 0, 1, 4, 6, 7)]
    nodes = _counting_walk(monkeypatch)
    visited = {}
    for G, a2 in cases:
        full = grid.graded_generators(G, below_every_generator(G))
        assert sum(map(len, full.values())) == math.factorial(G.n)
        want = [(bg, xs) for bg, xs in full.items() if bg[1] >= a2]
        nodes.clear()
        assert list(grid.graded_generators(G, a2).items()) == want, (G, a2)
        prefixes = {x[:c] for bg, xs in full.items() if bg[1][0] >= a2[0] for x in xs for c in range(G.n)}
        assert len(nodes) == len(prefixes), (G, a2)
        visited[G, a2] = len(nodes)
    assert {G.components.l for G in grids} == {1, 2, 3}
    # T(3, 4) has 8,660 prefix nodes in all; 625 lead to 2A >= 0, and no
    # generator reaches 2A = 7 (the top is 2g = 6), so the walk starts none
    assert visited[T, (-20,)] == sum(math.perm(7, c) for c in range(7)) == 8660
    assert (visited[T, (0,)], visited[T, (7,)]) == (625, 0)


def test_completion_table_is_the_best_completion(monkeypatch):
    # best[m], read off the walk's first call, is the largest A_1 sum that
    # the last |m| columns take over every bijection onto the rows of m;
    # best of every row is the largest A_1 of a generator
    import random

    rng = random.Random(3103)
    grids = [G for n in (2, 3) for G in all_grids(n)]
    grids += [random_grid(n, rng) for n in (4, 5, 6) for _ in range(6)]
    grids.append(torus_grid(3, 3))
    calls = _counting_walk(monkeypatch)
    for G in grids:
        n, bits, l = G.n, grid._field_bits(G.n), G.components.l
        calls.clear()
        full = grid.graded_generators(G, below_every_generator(G))
        best = calls[0][2]
        alex1 = [[grid._unpack(w, bits, l)[1][0] for w in row] for row in G.grading_table]
        assert len(best) == 2 ** n
        for m in range(2 ** n):
            rows = [v for v in range(n) if m >> v & 1]
            sums = [sum(alex1[n - len(rows) + i][v] for i, v in enumerate(p)) for p in itertools.permutations(rows)]
            assert best[m] == max(sums), (G, m)
        assert best[-1] == max(bg[1][0] for bg in full), G


def test_unpack_round_trips_at_the_field_bound():
    # every field at +-(5 n^2 - 1), just inside the documented bound, in
    # every sign pattern: a key packed with _field_bits(n) bits per field
    # decodes to the same fields
    for n in range(2, 13):
        bits, v = grid._field_bits(n), 5 * n * n - 1
        for l in (1, 2, 3):
            for signs in itertools.product((1, -1), repeat=l + 1):
                fields = [s * v for s in signs]
                key = sum(f << bits * j for j, f in enumerate(fields))
                assert grid._unpack(key, bits, l) == (fields[0], tuple(fields[1:])), (n, l, signs)


def test_alexander_parity_constant_per_component():
    import random

    rng = random.Random(4)
    for _ in range(20):
        G = random_grid(rng.randint(2, 5), rng)
        parities = None
        for x in itertools.permutations(range(G.n)):
            p = tuple(a % 2 for a in grid.alexander2(G, x))
            assert parities is None or p == parities
            parities = p


def _scan_grids():
    """Every grid with n <= 4, ten seeded n = 5, two n = 6 and one n = 7."""
    import random

    grids = [G for n in (2, 3, 4) for G in all_grids(n)]
    rng = random.Random(25)
    grids += [random_grid(5, rng) for _ in range(10)]
    grids += [random_grid(6, rng) for _ in range(2)]
    grids.append(random_grid(7, rng))
    return grids


def test_empty_rectangles_match_per_label_oracle():
    # the records of the rectangle table, the scan of every empty rectangle
    for G in _scan_grids():
        for x in itertools.permutations(range(G.n)):
            assert sorted(rects.full_scan(G, x)) == rects.per_label_scan(G, x)


def test_marker_free_scan_matches_filter_and_cell_oracle():
    # the marker-free scan against the rectangle table's records filtered by
    # their counts and against the mod-2 oracle, which scans the cells of
    # each rectangle
    for G in _scan_grids():
        for x in itertools.permutations(range(G.n)):
            fast = sorted(grid.empty_rectangles(G, x))
            full = [r for r in rects.full_scan(G, x) if not (any(r[2]) or any(rects.x_counts(G, r[3])))]
            assert fast == sorted((label, y) for label, y, _, _ in full), (G, x)
            cells = oracle_mod2.marker_free_empty_rectangles(G.n, G.o_rows, G.x_rows, x)
            assert sorted(y for _, y in fast) == sorted(cells), (G, x)


def test_realize_rectangle_spans():
    G = unknot2()
    r = rects.realize_rectangle(G, (0, 1), (0, 1))
    assert r.col_span == (0,) and r.row_span == (0,)
    r = rects.realize_rectangle(G, (0, 1), (1, 0))
    assert r.col_span == (1,) and r.row_span == (1,)
    G3 = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    r = rects.realize_rectangle(G3, (0, 1, 2), (0, 2))
    assert r.col_span == (0, 1) and r.row_span == (0, 1)
    assert r.corners_base == ((0, 0), (2, 2))


def test_complementary_rectangles():
    G3 = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    for x in itertools.permutations(range(3)):
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                r1 = rects.realize_rectangle(G3, x, (a, b))
                r2 = rects.realize_rectangle(G3, x, (b, a))
                assert r1.width + r2.width == 3
                assert r1.height + r2.height == 3
                assert set(r1.cells()).isdisjoint(r2.cells())


def test_is_empty():
    G = unknot2()
    for label in ((0, 1), (1, 0)):
        assert rects.is_empty(G, (0, 1), rects.realize_rectangle(G, (0, 1), label))
    G3 = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    r = rects.realize_rectangle(G3, (0, 1, 2), (0, 2))
    assert not rects.is_empty(G3, (0, 1, 2), r)


def test_marker_counts():
    G = unknot2()
    oc, xc = rects.marker_counts(G, rects.realize_rectangle(G, (0, 1), (0, 1)))
    assert sum(oc) == 0 and sum(xc) == 1
    oc, xc = rects.marker_counts(G, rects.realize_rectangle(G, (1, 0), (0, 1)))
    assert sum(oc) == 1 and sum(xc) == 0
    # a full annulus of height one holds exactly one O and one X: compose
    # the two complementary rectangles of a pair
    G3 = GridDiagram(3, (1, 2, 0), (0, 1, 2))
    x = (0, 1, 2)
    r1 = rects.realize_rectangle(G3, x, (0, 1))
    y = (1, 0, 2)
    r2 = rects.realize_rectangle(G3, y, (1, 0))
    if r1.height == r2.height:  # same row band: horizontal annulus
        o1, x1 = rects.marker_counts(G3, r1)
        o2, x2 = rects.marker_counts(G3, r2)
        assert sum(o1) + sum(o2) == r1.height and sum(x1) + sum(x2) == r1.height


def test_is_horizontally_torn():
    assert not is_horizontally_torn((0, 1))
    assert is_horizontally_torn((1, 0))
    assert is_horizontally_torn((3, 2))


def test_grading_drop_identities_exhaustive_n3():
    for G in all_grids(3):
        comps = G.components
        for x in itertools.permutations(range(3)):
            M = grid.maslov(G, x)
            A = grid.alexander2(G, x)
            for label, y, ocols, cells in rects.full_scan(G, x):
                xcols = rects.x_counts(G, cells)
                assert M - grid.maslov(G, y) == 1 - 2 * sum(ocols)
                Ay = grid.alexander2(G, y)
                for j in range(1, comps.l + 1):
                    xj = sum(xcols[c] for c in range(3) if comps.comp_of_x[c] == j)
                    oj = sum(ocols[c] for c in range(3) if comps.comp_of_o[c] == j)
                    assert A[j - 1] - Ay[j - 1] == 2 * (xj - oj)


def test_grid_counts():
    assert sum(1 for _ in all_grids(2)) == 2
    assert sum(1 for _ in all_grids(3)) == 12


def test_named_grids():
    assert trefoil5().components.n_i == (5,)
    assert hopf4().components.n_i == (2, 2)


def test_text_format_roundtrip():
    T = trefoil5()
    text = grid.format_grid_text(T, comment="example")
    assert grid.parse_grid_text(text) == T


def test_text_format_errors():
    for text in ("n 2\nO 1 0\n", "n 2 3\nO 1 0\nX 0 1\n", "q 1\n", "n 2\nO 1 x\nX 0 1\n"):
        with pytest.raises(GridError):
            grid.parse_grid_text(text)


def test_ascii_art():
    art = grid.ascii_art(unknot2())
    assert art.splitlines() == ["O X", "X O"]
