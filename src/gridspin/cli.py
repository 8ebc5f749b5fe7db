"""Command-line front end.

Exit codes: 0 success, 1 a verified property failed, 2 malformed input.
All output is deterministic for fixed inputs and flags; randomized suites
take an explicit --seed.
"""
from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import complexes as _cx
from . import grid as _grid
from . import homology as _hom
from . import moves as _moves
from . import spin as _spin

OK, FAIL, BAD_INPUT = 0, 1, 2

# size bound of each command that enumerates all n! generators; check reads
# every empty rectangle with its marker counts, homology only marker-free ones
MAX_N = {"homology": 9, "alexander": 9, "invariance": 9, "check": 8}
# info draws the grid (2 n^2 - 1 characters) only up to this size
MAX_DRAWN_N = 100


def _load_grid(path: str) -> _grid.GridDiagram:
    text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped
    return _grid.parse_grid_text(text)


def _load_bounded(path: str, command: str) -> _grid.GridDiagram:
    G = _load_grid(path)
    if G.n > MAX_N[command]:
        raise _grid.GridError(
            "TooLarge", f"grid size {G.n} exceeds the bound n <= {MAX_N[command]} (all n! generators are enumerated)"
        )
    return G


def _print_summary(summary: _hom.HomologySummary, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary.to_json_dict(), sort_keys=True, separators=(",", ":")))
        return
    print(f"flavor: {summary.flavor}")
    print(f"components: {summary.l}  rows per component: {list(summary.n_i)}")
    print(f"total free rank: {summary.total_rank}")
    for bg, rank, torsion in summary.pieces:
        alex = ", ".join(str(Fraction(a, 2)) for a in bg.alexander2)
        tor = f" torsion {list(torsion)}" if torsion else ""
        print(f"  M={bg.maslov:>3}  A=({alex})  rank {rank}{tor}")
    print(f"poincare: {_hom.render_polynomial(summary.poincare)}")
    print(f"euler:    {_hom.render_polynomial(summary.euler)}")


def _cmd_validate(args) -> int:
    try:
        _load_grid(args.grid)
    except _grid.GridError as exc:
        print(f"invalid: {exc.code}: {exc}")
        return BAD_INPUT
    print("ok")
    return OK


def _cmd_info(args) -> int:
    G = _load_grid(args.grid)
    comps = G.components
    print(f"n {G.n}")
    print(f"components {comps.l}")
    print(f"rows_per_component {' '.join(map(str, comps.n_i))}")
    print(_grid.ascii_art(G) if G.n <= MAX_DRAWN_N else f"drawing omitted (n > {MAX_DRAWN_N})")
    if args.generator is not None:
        try:
            x = tuple(int(p) for p in args.generator.split())
        except ValueError:
            print("generator must be space-separated images", file=sys.stderr)
            return BAD_INPUT
        if len(x) != G.n or not _spin.is_permutation(x):
            print(f"generator must be a permutation of 0..{G.n-1}", file=sys.stderr)
            return BAD_INPUT
        alex = ", ".join(str(Fraction(a, 2)) for a in _grid.alexander2(G, x))
        print(f"maslov {_grid.maslov(G, x)}")
        print(f"alexander ({alex})")
    return OK


def _check_spin_relations(n: int, rng: random.Random) -> list[str]:
    failures = []
    one = _spin.spin_identity(n)
    z = _spin.central(n)
    labels = [(a, b) for a in range(n) for b in range(n) if a != b]
    lifts = {lab: _spin.lift(n, lab) for lab in labels}
    if _spin.multiply(z, z) != one:
        failures.append("z^2 != 1")
    for lab in labels:
        t = lifts[lab]
        if _spin.multiply(t, t) != z:
            failures.append(f"t{lab}^2 != z")
        if _spin.multiply(z, t) != _spin.multiply(t, z):
            failures.append(f"z not central at {lab}")
        if _spin.multiply(z, lifts[(lab[1], lab[0])]) != t:
            failures.append(f"flip relation fails at {lab}")
    for l1 in labels:
        for l2 in labels:
            if set(l1) & set(l2):
                continue
            if _spin.multiply(lifts[l1], lifts[l2]) != _spin.multiply(
                z, _spin.multiply(lifts[l2], lifts[l1])
            ):
                failures.append(f"disjoint anticommutation fails at {l1},{l2}")
    for i, j, k in itertools.permutations(range(n), 3):
        lhs = _spin.multiply(_spin.multiply(lifts[(i, j)], lifts[(j, k)]), lifts[(i, j)])
        if lhs != lifts[(i, k)]:
            failures.append(f"triple identity fails at ({i},{j},{k})")
    # cocycle condition on a seeded sample of triples
    perms = list(itertools.permutations(range(n))) if n <= 4 else None
    for _ in range(500):
        if perms:
            x, y, w = (rng.choice(perms) for _ in range(3))
        else:
            x, y, w = (tuple(rng.sample(range(n), n)) for _ in range(3))
        prod = (
            _spin.cocycle(y, w)
            * _spin.cocycle(_spin.compose(x, y), w)
            * _spin.cocycle(x, _spin.compose(y, w))
            * _spin.cocycle(x, y)
        )
        if prod != 1:
            failures.append(f"cocycle condition fails at {x},{y},{w}")
    return failures


def _cmd_check(args) -> int:
    G = _load_bounded(args.grid, args.command)
    rng = random.Random(args.seed)
    chosen = (("d2", args.d2), ("signs", args.signs), ("spin-relations", args.spin_relations), ("mod2", args.mod2))
    suites = [suite for suite, on in chosen if on] or ["d2", "signs", "mod2"]
    # one scan per generator, shared by the suites that read rectangles, and
    # one walk over the composable pairs for both d2 and signs
    table = _cx.rectangle_table(G) if {"d2", "signs", "mod2"} & set(suites) else None
    report = _cx.check_sign_axioms(table) if {"d2", "signs"} & set(suites) else None
    failed = False
    for suite in suites:
        if suite == "d2":
            bad = report.d2_offenders
            ok = not bad
            detail = "" if ok else f" ({len(bad)} offending compositions, first {bad[0]})"
        elif suite == "signs":
            ok = report.ok
            detail = (
                f" (square {report.square_pairs}, vertical {report.vertical_annuli},"
                f" horizontal {report.horizontal_annuli})"
                if ok
                else f" (first violation {report.violations[0]})"
            )
        elif suite == "spin-relations":
            failures = _check_spin_relations(G.n, rng)
            ok = not failures
            detail = "" if ok else f" ({failures[0]})"
        else:
            # a consistency check: the signed and unsigned readings of one
            # table agree mod 2 by construction (k terms +-1 sum to k mod 2)
            ok, detail = True, ""
            for x, rects in zip(*table):
                signed, unsigned = {}, {}
                for _, y, bit, okey, _ in rects:
                    signed[y, okey] = signed.get((y, okey), 0) + (-1 if bit else 1)
                    unsigned[y, okey] = unsigned.get((y, okey), 0) + 1
                if any((signed[k] - unsigned[k]) % 2 for k in unsigned):
                    ok, detail = False, f" (mismatch at generator {x})"
                    break
        print(f"{suite}: {'pass' if ok else 'FAIL'}{detail}")
        failed |= not ok
    return FAIL if failed else OK


def _cmd_homology(args) -> int:
    G = _load_bounded(args.grid, args.command)
    summary = _hom.bigraded_homology(G)
    if args.flavor == "hat":
        summary = _hom.hat_reduction(summary, G.components)
    _print_summary(summary, args.json)
    return OK


def _cmd_alexander(args) -> int:
    G = _load_bounded(args.grid, args.command)
    print(_hom.render_polynomial(_hom.alexander_polynomial(G)))
    return OK


def _cmd_move(args) -> int:
    G = _load_grid(args.grid)
    script = _moves.parse_script(Path(args.script).read_text(encoding="utf-8-sig"))
    H = _moves.apply_script(G, script)
    # encoded before the file opens: a name that cannot be encoded leaves
    # no partial output behind
    out = _grid.format_grid_text(H, comment=f"moved by {args.script}").encode("utf-8")
    Path(args.output).write_bytes(out)
    print(f"wrote {args.output} (n={H.n})")
    return OK


def _cmd_invariance(args) -> int:
    G1 = _load_bounded(args.grid1, args.command)
    G2 = _load_bounded(args.grid2, args.command)
    report = _moves.invariance_report(G1, G2)
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(f"hat polynomials equal: {report.hat_equal}")
        if report.component_map is not None:
            print(f"component matching: {list(report.component_map)}")
            shifts = [str(Fraction(s, 2)) for s in report.alexander2_shifts]
            print(f"alexander shifts: {shifts}")
        if report.tilde_factor_ok is not None:
            print(f"stabilization tilde factor: {report.tilde_factor_ok}")
        print(f"hat 1: {_hom.render_polynomial(report.hat1.poincare)}")
        print(f"hat 2: {_hom.render_polynomial(report.hat2.poincare)}")
    return OK if report.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridspin",
        description="Integer link Floer chain complexes from grid diagrams",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a grid file")
    p.add_argument("grid")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="grid facts and optional generator gradings")
    p.add_argument("grid")
    p.add_argument("--generator", help="generator images, e.g. '1 0 2'")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("check", help="run verification suites on a grid")
    p.add_argument("grid")
    p.add_argument("--d2", action="store_true", help="differential squares to zero")
    p.add_argument("--signs", action="store_true", help="sign assignment axioms")
    p.add_argument("--spin-relations", action="store_true", help="double-cover presentation relations")
    p.add_argument("--mod2", action="store_true", help="mod-2 reduction matches the unsigned differential")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("homology", help="bigraded homology of the fully graded complex")
    p.add_argument("grid")
    p.add_argument("--flavor", choices=("tilde", "hat"), default="tilde")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("alexander", help="normalized Alexander polynomial")
    p.add_argument("grid")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("move", help="apply a move script to a grid")
    p.add_argument("grid")
    p.add_argument("--script", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_move)

    p = sub.add_parser("invariance", help="compare two grids' homology")
    p.add_argument("grid1")
    p.add_argument("grid2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariance)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_grid.GridError, _moves.MoveError) as exc:
        print(f"error: {getattr(exc, 'code', 'Input')}: {exc}", file=sys.stderr)
        return BAD_INPUT
    except (OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except _hom.NotDivisible as exc:
        print(f"error: NotDivisible: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    raise SystemExit(main())
