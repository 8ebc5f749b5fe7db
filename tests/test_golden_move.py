"""Replay of recorded ``gridspin move`` outputs.

``golden_move.json`` holds, for every grid and script in ``move_cases()``,
the exit code, stdout and the text of the written grid file, recorded once
from a known-good tree.  The scripts cover every move kind: the four
cyclic directions, a legal column and row commutation, one stabilization
per variant and a destabilization back to the start.  A change that alters
any byte of the written grids fails this test.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridspin import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_move.json")

SCRIPTS = {
    "cyclic_up": "cyclic up\n",
    "cyclic_down": "cyclic down\n",
    "cyclic_left": "cyclic left\n",
    "cyclic_right": "cyclic right\n",
    # neither grid has a legal commutation; one stabilization makes room
    "commute_cols": "stabilize row 0 XNE\ncommute cols 1\n",
    "commute_rows": "stabilize row 0 XNE\ncommute rows 1\n",
    "stabilize_nw": "stabilize row 1 XNW\n",
    "stabilize_ne": "stabilize col 2 ONE\n",
    "stabilize_sw": "stabilize row 0 OSW\n",
    "stabilize_se": "stabilize col 1 XSE\n",
    "destabilize": "stabilize row 1 XNW\ndestabilize 1 1\n",
}


def move_cases():
    for grid in ("grids/hopf4.grid", "grids/trefoil5.grid"):
        for name, script in SCRIPTS.items():
            yield grid, name, script


def run_move(grid: str, name: str, script: str) -> dict:
    """Run ``gridspin move`` with the script and output file named relative
    to the working directory, so the comment line it writes is fixed."""
    Path(f"{name}.txt").write_text(script, encoding="utf-8")
    output = Path(f"{name}.grid")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["move", str(ROOT / grid), "--script", f"{name}.txt", "-o", f"{name}.grid"])
    return {
        "grid": grid,
        "script": name,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "output": output.read_text(encoding="utf-8"),
    }


def test_move_output_matches_recorded_grids(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [(r["grid"], r["script"]) for r in recorded] == [(g, s) for g, s, _ in move_cases()]
    for want in recorded:
        assert run_move(want["grid"], want["script"], SCRIPTS[want["script"]]) == want
        if want["script"] == "destabilize":
            # below the comment line, the grid is the one it started from
            start = (ROOT / want["grid"]).read_text(encoding="utf-8").splitlines()[1:]
            assert want["output"].splitlines()[1:] == start
