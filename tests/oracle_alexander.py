"""Euler characteristic of a grid from its winding-number determinant.

Reads only the marker rows ``o_rows`` and ``x_rows``; nothing from
``gridspin``.  Let a(i, j) be the winding number of the grid's link around
the lattice point (i, j), 0 <= i, j < n: the signed count of vertical
segments in the columns c >= i with min(o, x) < j <= max(o, x), +1 where
the O of column c lies above its X.  Then

    det(t^-a(i, j)) = +-t^k (1 - t)^(n - l) chi(t, ..., t)

with l the number of components and chi the Euler characteristic of hat
link Floer homology; for a knot chi is the Alexander polynomial
(Manolescu-Ozsvath-Sarkar, math/0607691).  The determinant costs O(n^3)
polynomial operations (Bareiss fraction-free elimination over Z[t]), with
no n! anywhere.  Polynomials are coefficient lists, lowest degree first,
with no trailing zeros; [] is zero.
"""
from __future__ import annotations

from typing import Sequence


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def _sub(p: list[int], q: list[int]) -> list[int]:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] -= b
    return _trim(out)


def _exact_div(p: list[int], q: list[int]) -> list[int]:
    """p / q in Z[t]; raises ArithmeticError unless q divides p."""
    p = p[:]
    if not p:
        return []
    quotient = [0] * (len(p) - len(q) + 1)
    for k in reversed(range(len(quotient))):
        c, r = divmod(p[k + len(q) - 1], q[-1])
        if r:
            raise ArithmeticError("not divisible")
        quotient[k] = c
        for i, d in enumerate(q):
            p[k + i] -= c * d
    if any(p):
        raise ArithmeticError("not divisible")
    return _trim(quotient)


def winding_numbers(o_rows: Sequence[int], x_rows: Sequence[int]) -> list[list[int]]:
    """a[i][j], the winding number around the lattice point (i, j)."""
    n = len(o_rows)
    a = [[0] * n for _ in range(n)]
    for i in reversed(range(n)):
        lo, hi = sorted((o_rows[i], x_rows[i]))
        sign = 1 if o_rows[i] > x_rows[i] else -1
        for j in range(n):
            right = a[i + 1][j] if i + 1 < n else 0
            a[i][j] = right + (sign if lo < j <= hi else 0)
    return a


def determinant(o_rows: Sequence[int], x_rows: Sequence[int]) -> list[int]:
    """det(t^-a(i, j)) times a power of t that makes every entry a
    polynomial."""
    a = winding_numbers(o_rows, x_rows)
    top = max(map(max, a))
    M = [[[0] * (top - w) + [1] for w in row] for row in a]
    n, sign, prev = len(M), 1, [1]
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((i for i in range(k + 1, n) if M[i][k]), None)
            if swap is None:
                return []
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = _exact_div(_sub(_mul(M[i][j], M[k][k]), _mul(M[i][k], M[k][j])), prev)
        prev = M[k][k]
    return [sign * c for c in M[-1][-1]]


def components(o_rows: Sequence[int], x_rows: Sequence[int]) -> int:
    """Number of link components: cycles of the column map that follows
    each column's O row to the column whose X sits in that row."""
    column_of_x = {r: c for c, r in enumerate(x_rows)}
    seen, l = set(), 0
    for start in range(len(o_rows)):
        if start not in seen:
            l += 1
            c = start
            while c not in seen:
                seen.add(c)
                c = column_of_x[o_rows[c]]
    return l


def euler_at_t(o_rows: Sequence[int], x_rows: Sequence[int]) -> list[int]:
    """chi(t, ..., t) up to +-t^k: the determinant divided by
    (1 - t)^(n - l), lowest zeros stripped."""
    p = determinant(o_rows, x_rows)
    for _ in range(len(o_rows) - components(o_rows, x_rows)):
        p = _exact_div(p, [1, -1])
    while p and not p[0]:
        p.pop(0)
    return p


def alexander_polynomial(o_rows: Sequence[int], x_rows: Sequence[int]) -> dict[int, int]:
    """Alexander polynomial of a knot grid as {doubled exponent: coeff},
    centred on t^0 and signed so its value at t = 1 is one."""
    if components(o_rows, x_rows) != 1:
        raise ValueError("the grid is a link, not a knot")
    p = euler_at_t(o_rows, x_rows)
    sign = 1 if sum(p) > 0 else -1
    return {2 * k - (len(p) - 1): sign * c for k, c in enumerate(p) if c}
