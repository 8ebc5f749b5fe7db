"""Reference Smith normal form that also returns its unimodular transforms.

The production ``gridspin.homology.smith_normal_form`` reports invariant
factors only.  This oracle keeps dense U and V with U * A * V equal to the
padded diagonal, so ``snf_product_check`` and a determinant check certify
each answer independently; the tests then require the production diagonal
to equal this one.  ``IntegerMatrix`` is the test-side matrix both routines
read: ``columns`` hands it to the production routine in the sparse column
form the homology assembly builds.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntegerMatrix:
    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]  # (row, col, value), no zeros

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries: Iterable[tuple[int, int, int]]) -> "IntegerMatrix":
        merged: dict[tuple[int, int], int] = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            merged[(r, c)] = merged.get((r, c), 0) + v
        return cls(rows, cols, tuple((r, c, v) for (r, c), v in sorted(merged.items()) if v))

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]]) -> "IntegerMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        return cls.from_entries(
            rows, cols, ((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row))
        )


def to_dense(A: IntegerMatrix) -> list[list[int]]:
    out = [[0] * A.cols for _ in range(A.rows)]
    for r, c, v in A.entries:
        out[r][c] = v
    return out


def columns(A: IntegerMatrix) -> list[dict[int, int]]:
    """A as one {row: value} dict per column, the input of
    ``gridspin.homology.smith_normal_form``."""
    out: list[dict[int, int]] = [{} for _ in range(A.cols)]
    for r, c, v in A.entries:
        out[c][r] = v
    return out


@dataclass(frozen=True)
class SmithForm:
    """Nonzero invariant factors d1 | d2 | ... and the unimodular transforms
    with U * A * V equal to the padded diagonal."""

    diagonal: tuple[int, ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d > 1)


def _pivot(D: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    best = None
    for i in range(t, m):
        row = D[i]
        for j in range(t, n):
            v = row[j]
            if v:
                a = abs(v)
                if a == 1:
                    return (i, j)
                if best is None or a < best[0]:
                    best = (a, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(A: IntegerMatrix) -> SmithForm:
    """Diagonalise over Z by unimodular row and column operations.

    Pivots prefer entries of absolute value one, then minimal absolute
    value, which keeps intermediate growth tame on boundary matrices.
    Python integers make the arithmetic exact at any size.
    """
    m, n = A.rows, A.cols
    D = to_dense(A)
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i: int, k: int, q: int) -> None:  # row_i -= q * row_k
        if not q:
            return
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        U[i] = [a - q * b for a, b in zip(U[i], U[k])]

    def col_op(j: int, k: int, q: int) -> None:  # col_j -= q * col_k
        if not q:
            return
        for row in D:
            row[j] -= q * row[k]
        for row in V:
            row[j] -= q * row[k]

    def swap_rows(i: int, k: int) -> None:
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]

    def swap_cols(j: int, k: int) -> None:
        for row in D:
            row[j], row[k] = row[k], row[j]
        for row in V:
            row[j], row[k] = row[k], row[j]

    def diagonalize(start: int) -> int:
        t = start
        while t < min(m, n):
            pv = _pivot(D, t, m, n)
            if pv is None:
                break
            while True:
                # re-selecting the smallest pivot before every sweep keeps
                # the gcd cascade at the pivot position and tames growth
                i, j = pv
                if i != t:
                    swap_rows(i, t)
                if j != t:
                    swap_cols(j, t)
                for i in range(t + 1, m):
                    if D[i][t]:
                        row_op(i, t, D[i][t] // D[t][t])
                for j in range(t + 1, n):
                    if D[t][j]:
                        col_op(j, t, D[t][j] // D[t][t])
                if not any(D[i][t] for i in range(t + 1, m)) and not any(
                    D[t][j] for j in range(t + 1, n)
                ):
                    break
                pv = _pivot(D, t, m, n)
            t += 1
        return t

    rank = diagonalize(0)
    # enforce the divisibility chain: fold an offending column into an
    # earlier one and re-diagonalize from there; each fold replaces the
    # earlier diagonal entry by a proper divisor, so this terminates
    while True:
        offender = None
        for i in range(rank - 1):
            for j in range(i + 1, rank):
                if D[j][j] % D[i][i]:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender is None:
            break
        i, j = offender
        col_op(i, j, -1)  # col_i += col_j
        diagonalize(i)
    for i in range(rank):
        if D[i][i] < 0:
            for j in range(n):
                D[i][j] = -D[i][j]
            for j in range(m):
                U[i][j] = -U[i][j]

    diagonal = tuple(D[i][i] for i in range(rank))
    assert all(diagonal[i + 1] % diagonal[i] == 0 for i in range(rank - 1))
    return SmithForm(diagonal, tuple(map(tuple, U)), tuple(map(tuple, V)))


def snf_product_check(A: IntegerMatrix, S: SmithForm) -> bool:
    """U * A * V equals the padded diagonal; used by the test suite."""
    m, n = A.rows, A.cols
    dense = to_dense(A)
    UA = [[sum(S.U[i][k] * dense[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
    UAV = [[sum(UA[i][k] * S.V[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
    for i in range(m):
        for j in range(n):
            want = S.diagonal[i] if i == j and i < len(S.diagonal) else 0
            if UAV[i][j] != want:
                return False
    return True
