import doctest
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridspin import clifford, spin
from gridspin.spin import (
    GeneratorWord,
    SpinElement,
    canonical_word,
    cocycle,
    compose,
    conjugate_transposition,
    evaluate_word,
    inverse,
    lift,
    multiply,
    right_mul_transposition,
    section,
    sigma_element,
    signature,
    spin_identity,
    central,
)


def perms(n):
    return st.permutations(range(n)).map(tuple)


def test_docstring_examples():
    # the examples must run, not only be absent
    failures, attempted = doctest.testmod(spin, verbose=False)
    assert failures == 0 and attempted >= 7


def test_compose_convention():
    assert compose((0, 1), (1, 0)) == (1, 0)
    assert compose((1, 0), (1, 0)) == (0, 1)
    # (0 1) then (1 2) is the 3-cycle sending 0 to 1, 1 to 2, 2 to 0
    assert compose(spin.transposition(3, 0, 1), spin.transposition(3, 1, 2)) == (1, 2, 0)
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_right_multiplication_swaps_values():
    x = (2, 0, 1, 3)
    y = compose(x, spin.transposition(4, 1, 3))
    assert y == (2, 3, 1, 0)


def test_signature():
    assert signature((0, 1, 2)) == 0
    assert signature((1, 0, 2)) == 1
    assert signature((1, 2, 0)) == 0


def test_canonical_word_examples():
    assert canonical_word((0, 1, 2)) == ()
    assert canonical_word((1, 0)) == ((0, 1),)
    assert canonical_word((1, 2, 0)) == ((0, 1), (1, 2))


def test_canonical_word_shape():
    # ascending labels, strictly increasing top index, product recovers x
    for x in itertools.permutations(range(5)):
        word = canonical_word(x)
        assert all(a < b for a, b in word)
        tops = [b for _, b in word]
        assert tops == sorted(set(tops))
        acc = spin.identity(5)
        for a, b in word:
            acc = compose(acc, spin.transposition(5, a, b))
        assert acc == x


def test_section_projects_back():
    for x in itertools.permutations(range(4)):
        g = section(x)
        assert g.perm == x and g.bit == 0


def test_right_mul_examples():
    assert right_mul_transposition(spin_identity(2), (0, 1)) == SpinElement((1, 0), 0)
    assert right_mul_transposition(section((1, 0)), (0, 1)) == SpinElement((0, 1), 1)
    assert right_mul_transposition(section((1, 0)), (1, 0)) == SpinElement((0, 1), 0)
    with pytest.raises(ValueError):
        right_mul_transposition(spin_identity(2), (0, 2))


def test_multiply_examples():
    g = section((2, 0, 3, 1))
    assert multiply(g, spin_identity(4)) == g
    t0 = lift(4, (0, 1))
    assert multiply(t0, t0) == central(4)
    ab = multiply(lift(4, (0, 1)), lift(4, (2, 3)))
    ba = multiply(lift(4, (2, 3)), lift(4, (0, 1)))
    assert ab.perm == ba.perm and ab.bit != ba.bit


def test_inverse_examples():
    assert inverse(spin_identity(3)) == spin_identity(3)
    assert inverse(lift(3, (0, 1))) == SpinElement((1, 0, 2), 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(perms(n), perms(n), perms(n))))
def test_associativity(triple):
    p, q, r = triple
    g, h, k = section(p), section(q), section(r)
    assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(perms(n), st.integers(0, 1))))
def test_inverse_roundtrip(data):
    p, bit = data
    g = SpinElement(p, bit)
    assert multiply(g, inverse(g)) == spin_identity(len(p))
    assert inverse(inverse(g)) == g


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_cocycle_matches_group_law(pair):
    p, q = pair
    prod = multiply(section(p), section(q))
    assert prod.perm == compose(p, q)
    assert cocycle(p, q) == (-1 if prod.bit else 1)


def test_cocycle_values():
    n = 4
    e = tuple(range(n))
    t01 = spin.transposition(n, 0, 1)
    t23 = spin.transposition(n, 2, 3)
    assert cocycle(e, t01) == 1 and cocycle(t01, e) == 1
    assert cocycle(t01, t01) == -1
    assert cocycle(t01, t23) == 1
    assert cocycle(t23, t01) == -1


def test_cocycle_condition_exhaustive_n3():
    perms3 = list(itertools.permutations(range(3)))
    c = {(p, q): cocycle(p, q) for p in perms3 for q in perms3}
    for x, y, w in itertools.product(perms3, repeat=3):
        assert c[(y, w)] * c[(compose(x, y), w)] * c[(x, compose(y, w))] * c[(x, y)] == 1


def test_conjugation_examples():
    g = spin_identity(4)
    assert conjugate_transposition(g, (1, 2)) == (0, (1, 2))
    assert conjugate_transposition(lift(4, (0, 1)), (2, 3)) == (1, (2, 3))
    cyc = section((1, 2, 0))
    assert conjugate_transposition(cyc, (0, 2)) == (0, (1, 0))


def test_conjugation_rule_exhaustive_n3():
    labels = [(a, b) for a in range(3) for b in range(3) if a != b]
    for g in spin.all_spin_elements(3):
        for lab in labels:
            flip, new = conjugate_transposition(g, lab)
            direct = multiply(multiply(g, lift(3, lab)), inverse(g))
            expected = lift(3, new)
            assert direct == SpinElement(expected.perm, expected.bit ^ flip)


def test_group_closure_order_n3():
    gens = [lift(3, (i, i + 1)) for i in range(2)] + [central(3)]
    seen = {spin_identity(3)}
    frontier = [spin_identity(3)]
    while frontier:
        nxt = []
        for g in frontier:
            for t in gens:
                h = multiply(g, t)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    assert len(seen) == 2 * math.factorial(3)


def test_quaternion_subgroup():
    gens = [lift(4, (0, 1)), lift(4, (2, 3)), central(4)]
    seen = {spin_identity(4)}
    frontier = [spin_identity(4)]
    while frontier:
        nxt = []
        for g in frontier:
            for t in gens:
                h = multiply(g, t)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    assert len(seen) == 8
    orders = set()
    for g in seen:
        o, h = 1, g
        while h != spin_identity(4):
            h = multiply(h, g)
            o += 1
        orders.add(o)
    assert max(orders) == 4


def test_evaluate_word_and_generator_word():
    assert evaluate_word(3, []) == spin_identity(3)
    assert evaluate_word(3, [(0, 1), (0, 1)]) == central(3)
    w = GeneratorWord(((0, 1), (1, 2)), zexp=1)
    assert evaluate_word(3, w) == SpinElement((1, 2, 0), 1)
    # evaluation agrees with folding multiply over lifts
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 5)
        labels = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 8))]
        g = spin_identity(n)
        for lab in labels:
            g = multiply(g, lift(n, lab))
        assert evaluate_word(n, labels) == g


def test_sigma_element():
    for n in range(2, 6):
        s = sigma_element(n)
        assert s.perm == tuple((k + 1) % n for k in range(n))
        assert s.bit == 0


def test_clifford_oracle_examples():
    assert clifford.clifford_oracle_bit(3, []) == 0
    assert clifford.clifford_oracle_bit(3, [(0, 1), (0, 1)]) == 1
    a = clifford.word_multivector([(0, 1), (2, 3)])
    b = clifford.word_multivector([(2, 3), (0, 1)])
    assert a == {blade: -c for blade, c in b.items()}
    with pytest.raises(clifford.CliffordOverflow):
        clifford.clifford_oracle_bit(9, [(0, 1)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            max_size=10,
        )
    )
)
def test_clifford_oracle_agrees_with_rewriting(labels):
    n = 1 + max((max(a, b) for a, b in labels), default=1)
    assert evaluate_word(n, labels).bit == clifford.clifford_oracle_bit(n, labels)