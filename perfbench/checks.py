"""Output checks that do not trust the layers under test.

Gradings and link components are recomputed from the grid with the
benchmark's own code (the J-formula of Manolescu-Ozsvath-Sarkar), and
polynomial strings are parsed here, so a fault in a layer of gridspin
cannot hide itself by corrupting the check as well.

Homology (hat, JSON): the pieces, the Poincare string and the Euler
string agree with one another, and

    euler * prod_i (1 - t_i^-1)^(n_i - 1) = sum_x (-1)^M(x) t^A(x)

over all n! generators; for a knot the Euler polynomial is +-1 at t = 1.
Check (default suites): all three suites pass and both annulus counts
equal n * n!.  Exponents of t are doubled throughout.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass

from workloads import components

Poly = dict  # (q exponent, doubled t exponents) -> integer coefficient


# ---------------------------------------------------------------------------
# Gradings


def _markers(rows, cols) -> list[tuple[int, int]]:
    """Doubled coordinates of the markers in the given columns."""
    return [(2 * c + 1, 2 * rows[c] + 1) for c in cols]


def _j2(A, B) -> int:
    """2 J(A, B): pairs with one point strictly south-west of the other."""
    return sum(
        1 for a in A for b in B
        if (a[0] < b[0] and a[1] < b[1]) or (b[0] < a[0] and b[1] < a[1])
    )


def _point_table(n: int, markers) -> list[list[int]]:
    """2 J({p}, markers) for every lattice point p = (2i, 2v)."""
    return [[_j2([(2 * i, 2 * v)], markers) for v in range(n)] for i in range(n)]


@dataclass(frozen=True)
class Gradings:
    """What the checks need to know about a grid's generators."""

    euler: Poly  # sum_x (-1)^M(x) t^A(x), keys (0, doubled A)
    n_i: list[int]  # rows per component
    blocks: int  # number of (M, A) bigradings
    block_dim_max: int  # generators in the largest bigrading


def gradings(n: int, o_rows, x_rows) -> Gradings:
    """Maslov and doubled Alexander gradings of all n! generators, folded
    into the Euler sum and the bigrading block sizes."""
    comp_o, comp_x, n_i = components(n, o_rows, x_rows)
    l = len(n_i)
    cols = range(n)
    O = _markers(o_rows, cols)
    X = _markers(x_rows, cols)
    o_table = _point_table(n, O)
    oo = _j2(O, O)
    per_comp = []
    for j in range(1, l + 1):
        Xj = _markers(x_rows, [c for c in cols if comp_x[c] == j])
        Oj = _markers(o_rows, [c for c in cols if comp_o[c] == j])
        const = _j2(X, Xj) - _j2(X, Oj) + _j2(O, Xj) - _j2(O, Oj)
        assert const % 2 == 0
        table = _point_table(n, Xj)
        table_o = _point_table(n, Oj)
        diff = [[table[i][v] - table_o[i][v] for v in range(n)] for i in range(n)]
        per_comp.append((diff, const // 2 + n_i[j - 1] - 1))
    out: Poly = {}
    sizes: dict[tuple, int] = {}
    for x in itertools.permutations(range(n)):
        noninv = sum(1 for i in range(n) for k in range(i + 1, n) if x[i] < x[k])
        m2 = 2 * noninv - 2 * sum(o_table[i][x[i]] for i in cols) + oo + 2
        a2 = tuple(sum(diff[i][x[i]] for i in cols) - shift for diff, shift in per_comp)
        key = (0, a2)
        out[key] = out.get(key, 0) + (-1 if (m2 // 2) % 2 else 1)
        sizes[(m2, a2)] = sizes.get((m2, a2), 0) + 1
    euler = {k: v for k, v in out.items() if v}
    return Gradings(euler, n_i, len(sizes), max(sizes.values()))


# ---------------------------------------------------------------------------
# Polynomials


def _exponent2(text: str) -> int:
    if text.startswith("(") and text.endswith("/2)"):
        return int(text[1:-3])
    return 2 * int(text)


def parse_polynomial(text: str, nvars: int) -> Poly:
    """Parse the canonical rendering, e.g. ``-t1^(1/2)*t2 + 2*q^-1*t^-1``."""
    if text == "0":
        return {}
    chunks = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in chunks[1::2]]
    out: Poly = {}
    for sign, body in zip(signs, chunks[0::2]):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff, q, t2 = 1, 0, [0] * nvars
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name.isdigit() and not exp:
                coeff = int(name)
            elif name == "q":
                q = int(exp) if exp else 1
            elif name == "t" and nvars == 1:
                t2[0] = _exponent2(exp) if exp else 2
            elif re.fullmatch(r"t[1-9][0-9]*", name) and int(name[1:]) <= nvars and nvars > 1:
                t2[int(name[1:]) - 1] = _exponent2(exp) if exp else 2
            else:
                raise ValueError(f"bad factor {factor!r} in {text!r}")
        key = (q, tuple(t2))
        if key in out:
            raise ValueError(f"repeated monomial in {text!r}")
        out[key] = sign * coeff
    return out


def multiply(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for (q1, t1), c1 in a.items():
        for (q2, t2), c2 in b.items():
            key = (q1 + q2, tuple(u + v for u, v in zip(t1, t2)))
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def one_minus_inverse(nvars: int, i: int) -> Poly:
    """1 - t_i^-1."""
    t2 = [0] * nvars
    t2[i] = -2
    return {(0, (0,) * nvars): 1, (0, tuple(t2)): -1}


# ---------------------------------------------------------------------------
# Operation checks


def check_homology(stdout: str, expected: Gradings) -> list[str]:
    """Problems with one ``homology --flavor hat --json`` output."""
    n_i = expected.n_i
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    l = len(n_i)
    problems = []
    if doc.get("flavor") != "hat":
        problems.append(f"flavor {doc.get('flavor')!r}")
    poincare: Poly = {}
    for piece in doc.get("pieces", []):
        a2 = tuple(piece["alexander2"])
        if len(a2) != l or piece["free_rank"] < 1 or piece["torsion"]:
            problems.append(f"bad piece {piece}")
            continue
        key = (piece["maslov"], a2)
        poincare[key] = poincare.get(key, 0) + piece["free_rank"]
    try:
        if parse_polynomial(doc["poincare"], l) != poincare:
            problems.append("poincare string disagrees with the pieces")
        euler = parse_polynomial(doc["euler"], l)
    except (KeyError, ValueError) as exc:
        return problems + [f"unreadable polynomial: {exc}"]
    from_pieces: Poly = {}
    for (q, t2), c in poincare.items():
        key = (0, t2)
        from_pieces[key] = from_pieces.get(key, 0) + (-c if q % 2 else c)
    if euler != {k: v for k, v in from_pieces.items() if v}:
        problems.append("euler string disagrees with the pieces")
    product = euler
    for i, rows in enumerate(n_i):
        for _ in range(rows - 1):
            product = multiply(product, one_minus_inverse(l, i))
    if product != expected.euler:
        problems.append("euler * prod (1 - t_i^-1)^(n_i - 1) differs from the generator sum")
    if l == 1 and sum(euler.values()) not in (1, -1):
        problems.append(f"knot Alexander polynomial is {sum(euler.values())} at t = 1")
    return problems


_SIGNS = re.compile(r"signs: pass \(square (\d+), vertical (\d+), horizontal (\d+)\)")


def check_check(stdout: str, n: int) -> list[str]:
    """Problems with one ``check`` output (default suites)."""
    lines = stdout.splitlines()
    if len(lines) != 3 or lines[0] != "d2: pass" or lines[2] != "mod2: pass":
        return [f"unexpected suite lines {lines}"]
    m = _SIGNS.fullmatch(lines[1])
    if m is None:
        return [f"unexpected signs line {lines[1]!r}"]
    annuli = n * math.factorial(n)
    if int(m.group(2)) != annuli or int(m.group(3)) != annuli:
        return [f"annulus counts {m.group(2)}, {m.group(3)}, want {annuli}"]
    return []
