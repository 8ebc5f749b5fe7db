"""Replay of recorded ``gridspin invariance`` outputs across stabilizations.

``golden_invariance.json`` holds, for every grid G and script in
``invariance_cases()``, the exit code, stdout and stderr of
``gridspin invariance`` on (G, H) and on (H, G), with and without
``--json``, where H is G after the script (written by ``gridspin move``,
whose output ``golden_move.json`` pins).  The sizes differ by one, so every
case runs the stabilization branch: the extra tilde factor of the larger
grid is divided out and compared with the smaller grid's tilde homology.
The grids have at most two components.  The file was recorded once from a
known-good tree; ``python tests/test_golden_invariance.py`` re-records it
after a deliberate output change.
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridspin import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_invariance.json")

SCRIPTS = {
    "stabilize": "stabilize row 0 XSE\n",
    "stabilize_cyclic": "stabilize row 1 ONW\ncyclic left\n",
}


def invariance_cases():
    for grid in ("grids/unknot2.grid", "grids/hopf4.grid", "grids/trefoil5.grid", "grids/unlink4.grid"):
        for name in SCRIPTS:
            for order in ("GH", "HG"):
                for flags in ([], ["--json"]):
                    yield grid, name, order, flags


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_invariance(grid: str, name: str, order: str, flags: list) -> dict:
    """Build H from G in the working directory, then compare the two."""
    Path(f"{name}.txt").write_text(SCRIPTS[name], encoding="utf-8")
    code, _, _ = _run(["move", str(ROOT / grid), "--script", f"{name}.txt", "-o", f"{name}.grid"])
    assert code == 0
    pair = [str(ROOT / grid), f"{name}.grid"]
    code, out, err = _run(["invariance", *(pair if order == "GH" else pair[::-1]), *flags])
    return {"grid": grid, "script": name, "order": order, "flags": flags, "exit": code, "stdout": out, "stderr": err}


def test_invariance_across_stabilization_matches_recorded_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(r["grid"], r["script"], r["order"], r["flags"]) for r in recorded] == list(invariance_cases())
    for want in recorded:
        assert run_invariance(want["grid"], want["script"], want["order"], want["flags"]) == want


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        records = [run_invariance(*case) for case in invariance_cases()]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} cases in {GOLDEN}", file=sys.stderr)
