"""Exact arithmetic in the spin double cover of the symmetric group.

Permutations of ``{0, ..., n-1}`` are stored in word form: the tuple
``(x(0), ..., x(n-1))``.  Composition is right-to-left,

    compose(p, q)(k) = p(q(k)),

so multiplying ``x`` on the right by the transposition ``(a b)`` swaps the
*values* of ``x`` at positions ``a`` and ``b``.

The double cover is generated by a central element ``z`` of order two and
one lifted transposition ``t(a, b)`` for every ordered pair ``a != b``,
subject to

    t(a,b)^2 = z,                 t(b,a) = z * t(a,b),
    t(a,b) * t(c,d) = z * t(c,d) * t(a,b)   when {a,b} and {c,d} are disjoint,
    t(a,b) * t(b,c) * t(a,b) = t(b,c) * t(a,b) * t(b,c) = t(a,c).

All three families follow from the single conjugation rule

    t(a,b) * t(c,d) = z * t(w(c), w(d)) * t(a,b),   w = (a b),   (c,d) != (a,b),

which is what the normal-form routine below applies.

Every element has a unique normal form ``z^u * s(x)`` where the section
``s`` sends ``x`` to the product of lifts of its column-peeling
factorisation

    x = (i_0 0) * (i_1 1) * ... * (i_{n-1} n-1),

obtained by peeling, for k = n-1 down to 0, the factor that moves the
preimage of k into place (factors with i_k = k are omitted).  A
``SpinElement`` stores the pair ``(x, u)``.

Right multiplication s(x) * t(a, b) pushes the lift down through these
factors, top level first.  Each step peels the working permutation (it
finds the position of the top value and swaps that value into place) and
rewrites the label by the conjugation rule.  The peel reads only the
permutation, never the label, so its steps depend on x alone: ``_peel``
tabulates them once per permutation, and ``_right_mul`` reads the central
bit of any label from that table by a short relabel walk.
"""
from __future__ import annotations

from typing import Sequence

Label = tuple[int, int]


# ---------------------------------------------------------------------------
# Plain permutations


def is_permutation(word: Sequence[int]) -> bool:
    """Check that word lists each of 0..n-1 exactly once.

    >>> is_permutation((1, 0, 2)), is_permutation((1, 1, 2))
    (True, False)
    """
    return sorted(word) == list(range(len(word)))


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    """The transposition exchanging a and b in S_n."""
    if not (0 <= a < n and 0 <= b < n and a != b):
        raise ValueError(f"invalid transposition ({a},{b}) for n={n}")
    word = list(range(n))
    word[a], word[b] = word[b], word[a]
    return tuple(word)


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Compose permutations, applying q first: compose(p, q)(k) = p(q(k)).

    >>> compose((1, 0, 2), (0, 2, 1))
    (1, 2, 0)
    """
    if len(p) != len(q):
        raise ValueError(f"size mismatch: {len(p)} vs {len(q)}")
    return tuple(p[j] for j in q)


def canonical_word(perm: tuple[int, ...]) -> tuple[Label, ...]:
    """Column-peeling factorisation of a permutation into transpositions.

    Factors are ordered left to right; each label ``(i, k)`` has ``i < k``
    and the second entries strictly increase.  The identity gives the
    empty word.

    >>> canonical_word((1, 2, 0))
    ((0, 1), (1, 2))
    >>> canonical_word((0, 1, 2))
    ()
    """
    _, P, _ = _peel(perm)
    return tuple((P[k], k) for k in range(len(perm)) if P[k] != k)


# ---------------------------------------------------------------------------
# Normal-form core


def _peel(perm: Sequence[int]) -> tuple[Sequence[int], list[int], list[int]]:
    """The peel table (perm, P, S) of a permutation.

    P[k] is the position peeled at level k (the factor (P[k] k) of the
    canonical word), or k when level k has no factor; S[k] is the parity
    of the number of factors at levels >= k.  Level k finds the position
    p of the value k in the working permutation and moves the value at k
    to p.  The search is ``list.index``, which at the sizes a grid complex
    can reach (n! generators) costs less than keeping an inverse array up
    to date in Python.

    >>> _peel((1, 2, 0))[1:]
    ([0, 0, 1], [0, 0, 1])
    """
    x = list(perm)
    P = list(range(len(x)))
    S = [0] * len(x)
    parity = 0
    for k in range(len(x) - 1, -1, -1):
        p = x.index(k)
        if p != k:
            P[k] = p
            x[p] = x[k]
            parity ^= 1
        S[k] = parity
    return perm, P, S


def _right_mul(peeled: tuple, a: int, b: int) -> int:
    """Normal form of s(perm) * t(a, b), for peeled = _peel(perm); returns
    phi in {0,1}, the exponent of z in s(perm) * t(a,b) = z^phi *
    s(perm * (a b)).  The permutation perm * (a b) swaps the values of
    perm at a and b; callers that need it swap them themselves.

    Pushing the lift t(a, b), a < b, down through the canonical factors
    costs one z per factor it passes.  Above level b the label keeps its
    indices.  At level b there are three cases: no factor, and the lift
    sits in canonical position; the factor (a b) itself, whose square is
    z; or a factor (p b) with p != a, and conjugation turns the label into
    (a, p) if a < p, or into (p, a) at the cost of one more z.  The walk
    goes on from the new larger index, so the result is that relabel
    count plus the number of factors at levels >= the final b, S[b].

    >>> _right_mul(_peel((1, 0)), 0, 1), _right_mul(_peel((1, 0)), 1, 0)
    (1, 0)
    """
    _, P, S = peeled
    bit = 0
    if a > b:
        a, b = b, a
        bit = 1
    p = P[b]
    while p != b and p != a:
        if a < p:
            b = p
        else:
            a, b = p, a
            bit ^= 1
        p = P[b]
    return bit ^ S[b]


# ---------------------------------------------------------------------------
# Spin elements


class SpinElement:
    """Normal form z^bit * s(perm) of an element of the double cover."""

    __slots__ = ("perm", "bit")

    def __init__(self, perm: tuple[int, ...], bit: int):
        assert bit in (0, 1)
        self.perm, self.bit = perm, bit

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.perm, self.bit) == (other.perm, other.bit)

    def __hash__(self) -> int:
        return hash((self.perm, self.bit))

    def __repr__(self) -> str:
        return f"SpinElement(perm={self.perm!r}, bit={self.bit!r})"

    @property
    def n(self) -> int:
        return len(self.perm)


def section(perm: Sequence[int]) -> SpinElement:
    """The set-theoretic section s: bit 0 on every permutation."""
    perm = tuple(perm)
    if not is_permutation(perm):
        raise ValueError(f"not a permutation: {perm}")
    return SpinElement(perm, 0)

def spin_identity(n: int) -> SpinElement:
    return SpinElement(identity(n), 0)


def central(n: int) -> SpinElement:
    return SpinElement(identity(n), 1)


def lift(n: int, label: Label) -> SpinElement:
    """The lifted transposition t(a, b); the descending label costs one z."""
    a, b = label
    perm = transposition(n, a, b)
    return SpinElement(perm, 1 if a > b else 0)


def multiply(g: SpinElement, h: SpinElement) -> SpinElement:
    """Group law, by folding h's canonical word into g from the right."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    perm, bit = list(g.perm), g.bit ^ h.bit
    for a, b in canonical_word(h.perm):
        bit ^= _right_mul(_peel(perm), a, b)
        perm[a], perm[b] = perm[b], perm[a]
    return SpinElement(tuple(perm), bit)


def cocycle(p: Sequence[int], q: Sequence[int]) -> int:
    """The {+1,-1}-valued 2-cocycle measuring s(p)*s(q) = c(p,q)*s(p*q).

    >>> cocycle((1, 0), (1, 0))
    -1
    >>> cocycle((0, 1), (1, 0))
    1
    """
    prod = multiply(section(p), section(q))
    return -1 if prod.bit else 1
