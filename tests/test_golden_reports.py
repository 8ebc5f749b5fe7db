"""Replay of recorded sign-axiom and d^2 reports.

``golden_reports.json`` holds, for every grid in ``report_grids()``, the
sha256 of ``repr`` of the complete ``check_sign_axioms`` report for the
package's signs and for the two reference formulas of ``oracle_signs``,
and of its d^2 offenders with the group-law bit of one rectangle
flipped (the first rectangle out of (1, 0, 2, ..., n-1)).  The hashes pin
the counts and every violation list in order.  The file was recorded
once from a known-good tree; ``python tests/test_golden_reports.py``
re-records it after a deliberate output change.
"""
import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

from oracle_signs import reversed_sign, swapped_sign
from gridspin import complexes, grid, spin

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_reports.json")


def report_grids():
    yield "hopf4", grid.hopf4()
    yield "trefoil5", grid.trefoil5()
    yield "unlink4", grid.parse_grid_text((ROOT / "grids/unlink4.grid").read_text(encoding="utf-8"))
    rng = random.Random(4010)
    for k in range(10):
        yield f"random4-{k}", grid.random_grid(4, rng)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def reports(G) -> dict:
    table = complexes.rectangle_table(G)
    out = {
        "signs": _digest(complexes.check_sign_axioms(table)),
        "reversed": _digest(complexes.check_sign_axioms(table, reversed_sign)),
        "swapped": _digest(complexes.check_sign_axioms(table, swapped_sign)),
    }
    x0 = (1, 0, *range(2, G.n))
    label0 = grid.empty_rectangles(G, x0)[0][0]
    right_mul = spin._right_mul

    def flipped(x, a, b):
        return right_mul(x, a, b) ^ ((tuple(x), (a, b)) == (x0, label0))

    with mock.patch.object(complexes, "_right_mul", flipped):
        offenders = complexes.check_sign_axioms(complexes.rectangle_table(G)).d2_offenders
    assert offenders
    out["d2_flipped"] = _digest(offenders)
    return out


def test_reports_match_recorded_hashes():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(recorded) == [name for name, _ in report_grids()]
    for name, G in report_grids():
        assert reports(G) == recorded[name], name


if __name__ == "__main__":
    records = {name: reports(G) for name, G in report_grids()}
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} grids in {GOLDEN}", file=sys.stderr)
