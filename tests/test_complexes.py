import itertools
import math
import random
import re

import pytest

import oracle_mod2
import oracle_pairs
import oracle_rectangles as rects
import oracle_spin
from oracle_chain import differential_minus
from oracle_signs import (
    check_coboundary_equivalence,
    is_horizontally_torn,
    reversed_sign,
    sign_assignment,
    signed_table,
    swapped_sign,
)
from sample_grids import all_grids, hopf4, random_grid, trefoil5, unknot2
from gridspin import grid, spin
from gridspin.complexes import _generator_maps, _orbits, _shapes, _translation_gauges, _walk, check_sign_axioms, mod2_mismatch, rectangle_table
from gridspin.grid import GridDiagram


def test_unknot_minus_differential():
    G = unknot2()
    assert differential_minus(G, spin.section((0, 1))) == {}
    d = differential_minus(G, spin.section((1, 0)))
    # the two rectangles carry the O of column 1 and column 0 with
    # opposite group-law signs
    assert d == {((0, 1), (0, 1)): 1, ((0, 1), (1, 0)): -1}
    # the central bit scales by -1
    d2 = differential_minus(G, spin.SpinElement((1, 0), 1))
    assert d2 == {((0, 1), (0, 1)): -1, ((0, 1), (1, 0)): 1}


def test_unknot_sign_values():
    G = unknot2()
    assert sign_assignment(G, (0, 1), (0, 1)) == 1
    assert sign_assignment(G, (1, 0), (0, 1)) == -1
    assert sign_assignment(G, (1, 0), (1, 0)) == 1
    with pytest.raises(ValueError):
        sign_assignment(GridDiagram(3, (1, 2, 0), (0, 1, 2)), (0, 1, 2), (0, 2))
    for label in ((0, 0), (1, 1), (0, 2), (-1, 0), (2, 1)):
        with pytest.raises(ValueError):
            sign_assignment(G, (0, 1), label)


def test_signs_refuse_non_generators():
    G = trefoil5()
    for x in ((0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (0, 0, 1, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(str(x))):
            sign_assignment(G, x, (0, 1))
    # a list is accepted and read as the tuple
    for label, *_ in rects.full_scan(G, (1, 0, 2, 3, 4)):
        assert sign_assignment(G, [1, 0, 2, 3, 4], label) == sign_assignment(G, (1, 0, 2, 3, 4), label)


def test_rectangle_sign_is_the_cocycle_formula():
    # each table bit's sign (-1)^bit against eps(r) * c(x, t) by the
    # generic group law
    rng = random.Random(1005)
    grids = [*all_grids(2), *all_grids(3), *all_grids(4)]
    grids += [random_grid(5, rng) for _ in range(3)]
    for G in grids:
        for x, records in zip(*rectangle_table(G)):
            for label, _, bit, _, _ in records:
                eps = -1 if is_horizontally_torn(label) else 1
                want = eps * spin.cocycle(x, spin.transposition(G.n, *label))
                assert (-1) ** bit == want, (G, x, label)


def test_unknot_graded_differential_vanishes():
    # every rectangle of the 2x2 grid holds a marker
    G = unknot2()
    for x in ((0, 1), (1, 0)):
        assert grid.empty_rectangles(G, x) == []


def test_rectangle_table_matches_the_scan():
    # each generator's records, unpacked, against the per-label oracle and
    # the peeling loop's group-law bit, in the order of a plain scan of x,
    # on every grid with n <= 4 and seeded n = 5, 6, 7 grids
    rng = random.Random(2801)
    for G in [G for n in (2, 3, 4) for G in all_grids(n)] + [random_grid(n, rng) for n in (5, 6, 7)]:
        n = G.n
        gens, per_generator = rectangle_table(G)
        assert gens == list(itertools.permutations(range(n)))
        for x, records in zip(gens, per_generator):
            unpacked = [
                (label, gens[y], bit, tuple((okey >> 2 * c) & 3 for c in range(n)), cells)
                for label, y, bit, okey, cells in records
            ]
            want = [(label, y, oracle_spin.right_mul(x, *label), o, cells) for label, y, o, cells in rects.per_label_scan(G, x)]
            assert sorted(unpacked) == want, (G, x)
            assert [label for label, *_ in records] == _scan_order(x), (G, x)


def _scan_order(x):
    # the labels of the empty rectangles out of x in the cyclic scan's
    # order: left column a ascending, then b = a + 1, a + 2, ... mod n
    n = len(x)
    order = []
    for a in range(n):
        for width in range(1, n):
            b = (a + width) % n
            inside = [(x[(a + k) % n] - x[a]) % n for k in range(1, width)]
            if all(h > (x[b] - x[a]) % n for h in inside):
                order.append((a, b))
    return order


def test_shapes_match_the_rectangle_oracle():
    # every shape (a, bottom row v, b, height h), reached by a scan or not,
    # against the oracle's cells and O-counts of the same rectangle, on
    # every grid with n <= 3 and seeded n = 4..8 grids
    rng = random.Random(2802)
    for G in [G for n in (2, 3) for G in all_grids(n)] + [random_grid(n, rng) for n in range(4, 9) for _ in range(2)]:
        n = G.n
        shapes = _shapes(G)
        assert len(shapes) == n and all(len(per_row) == n for per_row in shapes)
        for a, per_row in enumerate(shapes):
            for v, pairs in enumerate(per_row):
                assert [b for b, _ in pairs] == [(a + w) % n for w in range(1, n)]
                for b, per_height in pairs:
                    assert len(per_height) == n
                    for h, (label, okey, cells) in enumerate(per_height):
                        assert label == (a, b) and label is shapes[a][0][(b - a) % n - 1][1][0][0]
                        rect = rects.RectangleInstance(
                            base=(), label=(a, b), col_span=rects.cyclic_span(a, b, n), row_span=rects.cyclic_span(v, v + h, n)
                        )
                        assert cells == rects.cell_bitmask(G, rect), (G, a, v, b, h)
                        o_counts, _ = rects.marker_counts(G, rect)
                        want = sum(k << 2 * c for c, k in zip(G.components.o_numbering, o_counts))
                        assert okey == want, (G, a, v, b, h)


def test_records_of_one_shape_share_their_objects():
    # a shape is (a, bottom row v, b, height h); every record of one shape
    # holds the same label and cell mask objects, so the table holds no
    # per-record int or tuple beyond its target index and bit
    G = random_grid(5, random.Random(23))
    n = G.n
    _, per_generator = rectangle_table(G)
    records = [r for rs in per_generator for r in rs]
    assert len(records) > n**3 * (n - 1)
    assert len({id(cells) for *_, cells in records}) <= n**3 * (n - 1)
    assert len({id(label) for label, *_ in records}) <= n * (n - 1)


def _crafted_tables():
    # tables with random targets and okeys, bits other than 0 and 1,
    # duplicated records and repeated (target, okey) keys with other bits
    rng = random.Random(2803)
    bits = (0, 1, 2, -1, 3, True, False)
    for n in (2, 3, 4):
        gens = list(itertools.permutations(range(n)))
        for _ in range(10):
            table = []
            for _ in gens:
                records = [((0, 1), rng.randrange(len(gens)), rng.choice(bits), rng.randrange(4**n), 0) for _ in range(rng.randrange(5))]
                if records and rng.random() < 0.3:
                    records.append(rng.choice(records))
                if records and rng.random() < 0.3:
                    label, y, _, okey, cells = rng.choice(records)
                    records.insert(rng.randrange(len(records) + 1), (label, y, rng.choice(bits), okey, cells))
                table.append(records)
            yield gens, table


def test_mod2_mismatch_matches_the_dict_sum_oracle():
    unique = repeated = 0
    for n in (2, 3, 4):
        real = rectangle_table(random_grid(n, random.Random(n)))
        assert mod2_mismatch(real) is None is oracle_mod2.table_mismatch(real)
    for gens, table in _crafted_tables():
        n = len(gens[0])
        for records in table:
            keys = [y << 2 * n | okey for _, y, _, okey, _ in records]
            unique += len(set(keys)) == len(keys)
            repeated += len(set(keys)) < len(keys)
        assert mod2_mismatch((gens, table)) == oracle_mod2.table_mismatch((gens, table))
    # both branches ran: generators whose keys are all distinct and ones with a repeat
    assert unique and repeated


@pytest.mark.parametrize("field", [1, 3])
def test_mod2_mismatch_reads_every_record(field):
    # a malformed target or okey in the table's last record fails both the
    # check and the oracle
    G = random_grid(4, random.Random(2804))
    gens, table = rectangle_table(G)
    table = [list(records) for records in table]
    last = list(table[-1][-1])
    last[field] = "?"
    table[-1][-1] = tuple(last)
    for check in (mod2_mismatch, oracle_mod2.table_mismatch):
        with pytest.raises(TypeError):
            check((gens, table))


def test_d_squared_zero_all_n3():
    for G in all_grids(3):
        assert not check_sign_axioms(rectangle_table(G)).d2_offenders


def test_d_squared_offenders_report_monomials(monkeypatch):
    # flip the group-law sign of one rectangle: the offenders, with their
    # monomials as tuples, must equal a plain recomputation of d^2 from the
    # peeling loop; this rectangle's composites include U-exponents of 2
    from gridspin import complexes

    G = trefoil5()
    x0, label0 = (1, 0, 2, 3, 4), (0, 1)
    right_mul = spin._right_mul

    def flipped(peeled, a, b):
        # the peel table carries its generator first
        return right_mul(peeled, a, b) ^ ((peeled[0], (a, b)) == (x0, label0))

    def flipped_oracle(x, label):
        return oracle_spin.right_mul(x, *label) ^ ((x, label) == (x0, label0))

    monkeypatch.setattr(complexes, "_right_mul", flipped)
    d = {
        x: [(y, -1 if flipped_oracle(x, label) else 1, ocols) for label, y, ocols, _ in rects.full_scan(G, x)]
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
    # both reference formulas, and four mutants (a flipped group-law bit, a
    # table with one record dropped, one record given the target of another
    # record of the same generator, every sign +1); the genuine sign
    # assignments take the walk over one start per translation orbit and
    # the others fall back to the walk over every start, every sign +1
    # after the gauge pass has held and the orbit walk has failed
    if n == 4:
        grids = [G for m in (2, 3, 4) for G in all_grids(m)]
    else:
        rng = random.Random(1600 + n)
        grids = [random_grid(n, rng) for _ in range(20 if n == 5 else 2)]
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
        cases = {
            "signs": table,
            "reversed": signed_table(table, reversed_sign),
            "swapped": signed_table(table, swapped_sign),
            "flipped bit": (gens, flipped_bit),
            "dropped": (gens, dropped),
            "unsigned": signed_table(table, lambda x: lambda label: 1),
        }
        # at n = 2 both records of a generator share their target
        targets = [r[1] for r in per_generator[i] if r[1] != y]
        if targets:
            retargeted = list(per_generator)
            record = (label0, rng.choice(targets), bit, okey, cells)
            retargeted[i] = [*per_generator[i][:k], record, *per_generator[i][k + 1 :]]
            cases["retargeted"] = (gens, retargeted)
        for case, t in cases.items():
            want = oracle_pairs.check_sign_axioms(t)
            want.d2_offenders = oracle_pairs.d_squared_offenders(t)
            assert check_sign_axioms(t) == want, (G, case)
            # at n = 2 the swapped formula is a sign assignment too
            fast = case in ("signs", "reversed") or (G.n, case) == (2, "swapped")
            assert _takes_orbit_walk(t) == fast, (G, case)
            if case == "unsigned":
                assert _translation_gauges(*t) is not None
            kinds.update((case, kind) for kind, *_ in want.violations)
            if want.d2_offenders:
                kinds.add((case, "d2"))
    # the mutants reach every failure path of the walk
    assert {
        ("flipped bit", "d2"),
        ("flipped bit", "Sq"),
        ("dropped", "d2"),
        ("dropped", "Sq-count"),
        ("retargeted", "loop"),
        ("retargeted", "d2"),
    } <= kinds


def _takes_orbit_walk(table):
    # check_sign_axioms stops after the orbit walk exactly when the gauge
    # pass holds and every orbit start passes
    maps = _translation_gauges(*table)
    if maps is None:
        return False
    report = _walk(*table, _orbits(*maps[:2]))
    return report.ok and not report.d2_offenders


def test_gauge_pass_rejects_every_single_bit_flip():
    # each (x, label) group-law bit of an n = 4 table flipped in turn: the
    # gauge pass rejects the flip, and the fallback walk gives the oracle's
    # report
    G = random_grid(4, random.Random(2204))
    gens, rects = table = rectangle_table(G)
    assert _translation_gauges(*table) is not None
    flips = 0
    for i, rs in enumerate(rects):
        for k, (label, y, bit, okey, cells) in enumerate(rs):
            mutant = list(rects)
            mutant[i] = [*rs[:k], (label, y, bit ^ 1, okey, cells), *rs[k + 1 :]]
            t = (gens, mutant)
            assert _translation_gauges(*t) is None, (gens[i], label)
            want = oracle_pairs.check_sign_axioms(t)
            want.d2_offenders = oracle_pairs.d_squared_offenders(t)
            assert check_sign_axioms(t) == want, (gens[i], label)
            flips += 1
    assert flips == sum(map(len, rects)) > 100


def test_gauge_pass_rejects_row_orbit_mutants():
    # a change made alike at every row translate of x keeps the row identity
    # and the row alignment, so the column translation has to reject it, and
    # check_sign_axioms then gives the oracle's report: a flipped bit,
    # a reversed label or two records out of order on a sample of records,
    # and every record sent to the target of another record of x (some of
    # those keep both gauge identities, so only the column target check
    # rejects them)
    G = random_grid(4, random.Random(2206))
    gens, rects = table = rectangle_table(G)
    row = _translation_gauges(*table)[0]
    rng = random.Random(2207)
    sample = [(i, rng.randrange(len(rects[i]) - 1)) for i in rng.sample(range(len(gens)), 8)]
    mutations = [
        (i, lambda rs, k=k: [*rs[:k], (rs[k][0], rs[k][1], rs[k][2] ^ 1, *rs[k][3:]), *rs[k + 1 :]])
        for i, k in sample
    ]
    mutations += [(i, lambda rs, k=k: [*rs[:k], (rs[k][0][::-1], *rs[k][1:]), *rs[k + 1 :]]) for i, k in sample]
    mutations += [(i, lambda rs, k=k: [*rs[:k], rs[k + 1], rs[k], *rs[k + 2 :]]) for i, k in sample]
    mutations += [
        (i, lambda rs, k=k, k2=k2: [*rs[:k], (rs[k][0], rs[k2][1], *rs[k][2:]), *rs[k + 1 :]])
        for i, rs in enumerate(rects)
        for k in range(len(rs))
        for k2 in range(len(rs))
        if rs[k2][1] != rs[k][1]
    ]
    for i, mutate in mutations:
        mutant, j = list(rects), i
        for _ in range(G.n):
            mutant[j] = mutate(rects[j])
            j = row[j]
        t = (gens, mutant)
        assert _translation_gauges(*t) is None, gens[i]
        want = oracle_pairs.check_sign_axioms(t)
        want.d2_offenders = oracle_pairs.d_squared_offenders(t)
        assert check_sign_axioms(t) == want, gens[i]


def test_translation_gauges_equal_their_closed_forms():
    # the gauges that the pass spreads from the identity are the bit of
    # c(sigma, x) for the row translation sigma x and the bit of
    # c(x, rho) ^ (parity rho & parity x) for the column translation x rho,
    # with sigma = rho = (1, 2, ..., n - 1, 0) in word form; the index maps
    # pin the alignment of the translated records, labels and targets; and
    # the orbits of the two translations partition the generators
    rng = random.Random(2205)
    parity = lambda p: len(spin.canonical_word(p)) % 2
    grids = [random_grid(n, rng) for n in range(2, 7)] + [G for m in (2, 3, 4) for G in all_grids(m)]
    for G in grids:
        n = G.n
        shift = tuple(range(1, n)) + (0,)
        gens, rects = rectangle_table(G)
        row, col, g_row, g_col = _translation_gauges(gens, rects)
        for i, x in enumerate(gens):
            assert gens[row[i]] == spin.compose(shift, x) and gens[col[i]] == spin.compose(x, shift)
            assert g_row[i] == (spin.cocycle(shift, x) == -1), x
            assert g_col[i] == (spin.cocycle(x, shift) == -1) ^ (parity(shift) & parity(x)), x
            up = [(l, spin.compose(shift, gens[y])) for l, y, *_ in rects[i]]
            assert [(l, gens[y]) for l, y, *_ in rects[row[i]]] == up
            left = [(((a - 1) % n, (b - 1) % n), spin.compose(gens[y], shift)) for (a, b), y, *_ in rects[i]]
            k = sum(a == 0 for (a, _), *_ in rects[i])
            assert [(l, gens[y]) for l, y, *_ in rects[col[i]]] == left[k:] + left[:k]
        orbits = list(_orbits(row, col))
        for start, size in orbits:
            orbit, j = set(), start
            for _ in range(n):
                k = j
                for _ in range(n):
                    orbit.add(k)
                    k = row[k]
                j = col[j]
            assert len(orbit) == size and min(orbit) == start
        assert sum(size for _, size in orbits) == math.factorial(n)


@pytest.mark.parametrize("n", [4, 5, 6], ids=["n<=4", "n5", "n6"])
def test_domain_2chain_key_matches_the_oracle_key(n):
    # x and a domain's 2-chain fix its end: grouping the composable pairs
    # out of x by the sum m1 + m2 of their two-bit cell masks gives the
    # partition that the oracle's key (w, m1 | m2, m1 & m2) gives, pairs
    # back to x included
    if n == 4:
        grids = [G for m in (2, 3, 4) for G in all_grids(m)]
    else:
        rng = random.Random(2000 + n)
        grids = [random_grid(n, rng) for _ in range(20 if n == 5 else 2)]
    covered_twice = 0
    for G in grids:
        gens, rects = rectangle_table(G)
        for x, rs in zip(gens, rects):
            by_sum, by_oracle_key = {}, {}
            for k1, (_, y, _, _, m1) in enumerate(rs):
                for k2, (_, w, _, _, m2) in enumerate(rects[y]):
                    by_sum.setdefault(m1 + m2, []).append((k1, k2))
                    by_oracle_key.setdefault((w, m1 | m2, m1 & m2), []).append((k1, k2))
                    covered_twice += bool(m1 & m2)
            assert list(by_sum.values()) == list(by_oracle_key.values()), (G, x)
    # the walk reaches domains with cells of multiplicity 2
    assert covered_twice


def test_graded_d_squared_zero_all_n3():
    # the marker-free rectangles with group-law signs square to zero
    for G in all_grids(3):
        for x in itertools.permutations(range(3)):
            dd = {}
            for l1, y in grid.empty_rectangles(G, x):
                for l2, w in grid.empty_rectangles(G, y):
                    dd[w] = dd.get(w, 0) + (-1 if oracle_spin.right_mul(x, *l1) ^ oracle_spin.right_mul(y, *l2) else 1)
            assert not any(dd.values()), (G, x)


def test_graded_differential_preserves_alexander():
    for G in all_grids(3):
        for x in itertools.permutations(range(3)):
            A = grid.alexander2(G, x)
            M = grid.maslov(G, x)
            for _, y, ocols, cells in rects.full_scan(G, x):
                if any(ocols) or any(rects.x_counts(G, cells)):
                    continue
                assert grid.alexander2(G, y) == A
                assert grid.maslov(G, y) == M - 1


def test_sign_axioms_unknot_products():
    G = unknot2()
    report = check_sign_axioms(rectangle_table(G))
    assert report.ok
    assert report.vertical_annuli == 4 and report.horizontal_annuli == 4
    # the explicit annulus products
    s = lambda x, l: sign_assignment(G, x, l)
    assert s((0, 1), (0, 1)) * s((1, 0), (0, 1)) == -1  # vertical
    assert s((0, 1), (0, 1)) * s((1, 0), (1, 0)) == 1  # horizontal


@pytest.mark.parametrize("sign", [None, reversed_sign], ids=["right", "reversed"])
def test_sign_axioms_all_n3(sign):
    for G in all_grids(3):
        table = rectangle_table(G)
        report = check_sign_axioms(signed_table(table, sign) if sign else table)
        assert report.ok, (G, report.violations[:3])


@pytest.mark.parametrize(
    "G,counts,swapped",
    [(hopf4(), (488, 96, 96), 232), (trefoil5(), (5400, 600, 600), 2233)],
    ids=["hopf4", "trefoil5"],
)
def test_sign_axiom_counts_pinned(G, counts, swapped):
    # (square, vertical, horizontal) counts and the swapped formula's
    # violations, as recorded with the per-cell support bookkeeping
    table = rectangle_table(G)
    # the table's signs are those of sign_assignment
    assert signed_table(table, lambda x: lambda l: sign_assignment(G, x, l)) == table
    for report in (check_sign_axioms(table), check_sign_axioms(signed_table(table, reversed_sign))):
        assert report.ok
        assert (report.square_pairs, report.vertical_annuli, report.horizontal_annuli) == counts
    report = check_sign_axioms(signed_table(table, swapped_sign))
    assert (report.square_pairs, report.vertical_annuli, report.horizontal_annuli) == counts
    assert len(report.violations) == swapped
    assert {kind for kind, *_ in report.violations} == {"H", "Sq", "V"}


def test_swapped_variant_fails_annulus_axioms():
    # the bare argument swap is not a sign assignment: it violates the
    # annulus axioms already on a 3x3 grid
    G = GridDiagram(3, (0, 1, 2), (1, 2, 0))
    report = check_sign_axioms(signed_table(rectangle_table(G), swapped_sign))
    assert not report.ok
    assert any(kind in ("V", "H") for kind, *_ in report.violations)


def test_coboundary_trivial_gauge():
    G = unknot2()
    S = lambda x: lambda l: sign_assignment(G, x, l)
    res = check_coboundary_equivalence(S, S, rectangle_table(G))
    assert res.ok and set(res.gauge.values()) <= {1, -1}


def test_coboundary_recovers_maslov_twist():
    G = GridDiagram(3, (1, 2, 0), (0, 1, 2))

    def S1(x):
        return lambda label: sign_assignment(G, x, label)

    def S2(x):
        def sign(label):
            a, b = label
            y = list(x)
            y[a], y[b] = y[b], y[a]
            return S1(x)(label) * (-1) ** grid.maslov(G, x) * (-1) ** grid.maslov(G, tuple(y))

        return sign

    res = check_coboundary_equivalence(S1, S2, rectangle_table(G))
    assert res.ok
    # the recovered gauge is the twist up to a constant per component
    base = res.gauge[(0, 1, 2)] * (-1) ** grid.maslov(G, (0, 1, 2))
    for x, f in res.gauge.items():
        assert f == base * (-1) ** grid.maslov(G, x)


def test_coboundary_right_vs_reversed_n3():
    for G in all_grids(3):
        S1 = lambda x: lambda l: sign_assignment(G, x, l)
        res = check_coboundary_equivalence(S1, reversed_sign, rectangle_table(G))
        assert res.ok


def test_coboundary_detects_inconsistency():
    G = unknot2()
    S1 = lambda x: lambda l: sign_assignment(G, x, l)
    # flipping a single rectangle breaks every gauge
    S2 = lambda x: lambda l: S1(x)(l) * (-1 if (x, l) == ((0, 1), (0, 1)) else 1)
    res = check_coboundary_equivalence(S1, S2, rectangle_table(G))
    assert not res.ok and res.witness is not None


def test_d_squared_on_random_n5():
    import random

    rng = random.Random(17)
    G = random_grid(5, rng)
    assert not check_sign_axioms(rectangle_table(G)).d2_offenders


def test_minus_differential_bidegree():
    # every summand drops the Maslov degree by one; Alexander degrees of
    # summands never rise, with equality exactly for X-free rectangles
    import random

    rng = random.Random(3)
    for _ in range(5):
        G = random_grid(4, rng)
        comps = G.components
        for x in itertools.permutations(range(4)):
            M, A = grid.maslov(G, x), grid.alexander2(G, x)
            for label, y, ocols, cells in rects.full_scan(G, x):
                xcols = rects.x_counts(G, cells)
                My, Ay = grid.maslov(G, y), grid.alexander2(G, y)
                assert My - 2 * sum(ocols) == M - 1
                for j in range(1, comps.l + 1):
                    oj = sum(ocols[c] for c in range(4) if comps.comp_of_o[c] == j)
                    xj = sum(xcols[c] for c in range(4) if comps.comp_of_x[c] == j)
                    term = Ay[j - 1] - 2 * oj
                    assert term <= A[j - 1]
                    assert (term == A[j - 1]) == (xj == 0)


def test_generator_maps_are_shared_and_read_only():
    # rectangle_table and the gauge pass read one cached set of maps per n;
    # nothing in it can be changed by a caller, and the table's generator
    # list is the caller's own copy
    G = random_grid(4, random.Random(2208))
    _generator_maps.cache_clear()
    gens, rects = rectangle_table(G)
    maps = _generator_maps(4)
    assert _translation_gauges(gens, rects)[:2] == maps[2:] and _generator_maps.cache_info().currsize == 1
    all_gens, index, row, col = maps
    assert list(all_gens) == gens == list(itertools.permutations(range(4)))
    assert all(index[x] == i for i, x in enumerate(gens)) and len(index) == 24
    assert isinstance(all_gens, tuple) and isinstance(row, tuple) and isinstance(col, tuple)
    with pytest.raises(TypeError):
        index[gens[0]] = 1
    gens.reverse()
    assert rectangle_table(G)[0] == list(all_gens) and _generator_maps(4) is maps
