"""The normal-form step of the double cover as a plain peeling loop.

``gridspin.spin._right_mul`` reads the central bit of s(x) * t(a, b) from
a peel table of x that serves every label.  This module keeps the loop it
replaced: copy x, then peel it level by level with ``list.index`` while
pushing the lift down, once per label.  It is the reference that the
table walk and every group-law sign in the test suite are checked
against.
"""
from __future__ import annotations

from typing import Sequence


def right_mul(perm: Sequence[int], a: int, b: int) -> int:
    """phi in {0,1} with s(perm) * t(a, b) = z^phi * s(perm * (a b)).

    The loop peels the top canonical factor of perm and pushes the lift
    through it with the conjugation rule.  Each pass either ends the
    reduction (the lift matches the peeled factor and squares to z, or it
    lands in canonical position) or makes the working permutation fix the
    top position, after which the top strips off.  The label keeps its
    indices while being pushed except when it contains the top index,
    which the conjugation replaces by the peeled position.
    """
    bit = 0
    if a > b:
        a, b = b, a
        bit = 1
    x = list(perm)
    m = len(x)
    while True:
        top = m - 1
        if x[top] == top:
            if b == top:
                break  # canonical append: s(x) * t(a, top) is already normal
            m -= 1
            continue
        p = x.index(top)
        if a == p and b == top:
            bit ^= 1  # t(p, top)^2 = z
            break
        bit ^= 1  # conjugation past the peeled factor t(p, top)
        x[p], x[top] = x[top], x[p]
        if b == top:
            if a < p:
                b = p
            else:
                a, b = p, a
                bit ^= 1
    return bit
