import ast
import doctest
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_clifford
import oracle_spin
from oracle_chain import inverse, sigma_element, signature
from gridspin import spin
from gridspin.spin import (
    SpinElement,
    _peel,
    _right_mul,
    canonical_word,
    cocycle,
    compose,
    lift,
    multiply,
    section,
    spin_identity,
    central,
)


def perms(n):
    return st.permutations(range(n)).map(tuple)


def fold_lifts(n, labels):
    """t(labels[0]) * ... * t(labels[-1]) by the group law on lifts."""
    g = spin_identity(n)
    for label in labels:
        g = multiply(g, lift(n, label))
    return g


def conjugate(g, label):
    """g * t(label) * g^-1."""
    return multiply(multiply(g, lift(g.n, label)), inverse(g))


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
    # s(x) * t(a, b) = z^bit * s(x (a b)); a descending label costs one z
    assert _right_mul(_peel((0, 1)), 0, 1) == 0
    assert _right_mul(_peel((1, 0)), 0, 1) == 1
    assert _right_mul(_peel((1, 0)), 1, 0) == 0
    # the peel table carries perm itself first, where sign mutants key on it
    x = (2, 0, 3, 1)
    assert _peel(x) == (x, [0, 0, 0, 2], [1, 1, 0, 1]) and _peel(x)[0] is x
    assert multiply(section((1, 0)), lift(2, (0, 1))) == SpinElement((0, 1), 1)
    assert multiply(section((1, 0)), lift(2, (1, 0))) == SpinElement((0, 1), 0)
    with pytest.raises(ValueError):
        lift(2, (0, 2))


def test_right_mul_matches_the_peeling_loop():
    # the relabel walk on one peel per x against the per-label peeling
    # loop, on every x and every ordered label with n <= 7
    for n in range(2, 8):
        for x in itertools.permutations(range(n)):
            peeled = _peel(x)
            for a, b in itertools.permutations(range(n), 2):
                assert _right_mul(peeled, a, b) == oracle_spin.right_mul(x, a, b), (x, a, b)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(perms(n), st.permutations(range(n)).map(lambda p: p[:2]))))
def test_right_mul_matches_the_peeling_loop_large(case):
    x, (a, b) = case
    peeled = _peel(x)
    assert _right_mul(peeled, a, b) == oracle_spin.right_mul(x, a, b)
    assert _right_mul(peeled, b, a) == oracle_spin.right_mul(x, b, a)


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


def test_right_mul_bit_is_the_signed_cocycle():
    # on every ordered pair the one-step sign (-1)^bit equals eps * c(x, t)
    # by the generic formula, with eps = -1 exactly for a descending label
    for n in range(2, 6):
        for x in itertools.permutations(range(n)):
            peeled = _peel(x)
            for a, b in itertools.permutations(range(n), 2):
                want = (-1 if a > b else 1) * cocycle(x, spin.transposition(n, a, b))
                assert (-1) ** _right_mul(peeled, a, b) == want, (x, a, b)


def test_cocycle_keeps_its_permutation_checks():
    for p, q in (((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 2), (0, 1))):
        with pytest.raises(ValueError, match="not a permutation"):
            cocycle(p, q)


def test_cocycle_condition_exhaustive_n3():
    perms3 = list(itertools.permutations(range(3)))
    c = {(p, q): cocycle(p, q) for p in perms3 for q in perms3}
    for x, y, w in itertools.product(perms3, repeat=3):
        assert c[(y, w)] * c[(compose(x, y), w)] * c[(x, compose(y, w))] * c[(x, y)] == 1


def test_conjugation_examples():
    assert conjugate(spin_identity(4), (1, 2)) == lift(4, (1, 2))
    assert conjugate(lift(4, (0, 1)), (2, 3)) == multiply(central(4), lift(4, (2, 3)))
    assert conjugate(section((1, 2, 0)), (0, 2)) == lift(3, (1, 0))


def test_conjugation_rule_exhaustive_n3():
    # g * t(a, b) * g^-1 = z^sgn(g) * t(g(a), g(b)): the central bit of g
    # cancels against itself
    labels = [(a, b) for a in range(3) for b in range(3) if a != b]
    for perm in itertools.permutations(range(3)):
        for bit in (0, 1):
            g = SpinElement(perm, bit)
            for a, b in labels:
                expected = lift(3, (perm[a], perm[b]))
                assert conjugate(g, (a, b)) == SpinElement(expected.perm, expected.bit ^ signature(perm))


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


def test_word_fold_matches_multiply():
    assert fold_lifts(3, []) == spin_identity(3)
    assert fold_lifts(3, [(0, 1), (0, 1)]) == central(3)
    assert multiply(central(3), fold_lifts(3, [(0, 1), (1, 2)])) == SpinElement((1, 2, 0), 1)
    # folding _right_mul over the labels agrees with folding multiply over
    # lifts, descending labels included
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(2, 5)
        labels = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 8))]
        perm, bit = list(range(n)), 0
        for a, b in labels:
            bit ^= _right_mul(_peel(perm), a, b)
            perm[a], perm[b] = perm[b], perm[a]
        assert SpinElement(tuple(perm), bit) == fold_lifts(n, labels)


def test_sigma_element():
    for n in range(2, 6):
        s = sigma_element(n)
        assert s.perm == tuple((k + 1) % n for k in range(n))
        assert s.bit == 0
        assert s == fold_lifts(n, [(i, i + 1) for i in range(n - 1)])


def test_clifford_oracle_examples():
    assert oracle_clifford.clifford_oracle_bit(3, []) == 0
    assert oracle_clifford.clifford_oracle_bit(3, [(0, 1), (0, 1)]) == 1
    a = oracle_clifford.word_multivector([(0, 1), (2, 3)])
    b = oracle_clifford.word_multivector([(2, 3), (0, 1)])
    assert a == {blade: -c for blade, c in b.items()}
    with pytest.raises(oracle_clifford.CliffordOverflow):
        oracle_clifford.clifford_oracle_bit(9, [(0, 1)])


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
    assert fold_lifts(n, labels).bit == oracle_clifford.clifford_oracle_bit(n, labels)


def test_clifford_oracle_imports_nothing_from_gridspin():
    tree = ast.parse(Path(oracle_clifford.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "gridspin"]


def test_package_loads_no_oracle():
    src = Path(spin.__file__).resolve().parent.parent
    code = (
        "import sys, gridspin, gridspin.cli; "
        "print([m for m in sys.modules if 'clifford' in m or m.rsplit('.', 1)[-1].startswith('oracle_')])"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, about 1 MB of
    # resident memory in every process that runs the command line
    src = Path(spin.__file__).resolve().parent.parent
    code = "import sys, gridspin.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_cli_loads_neither_fractions_nor_decimal():
    # half-integers print through homology.half_str; fractions would pull
    # in decimal at every start of the command line
    src = Path(spin.__file__).resolve().parent.parent
    code = "import sys, gridspin.cli; print(sorted({'fractions', 'decimal', '_decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
