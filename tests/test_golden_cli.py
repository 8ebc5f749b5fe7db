"""Replay of recorded CLI transcripts.

``golden_cli.json`` holds the stdout, stderr and exit code of each
command in ``golden_commands()`` on every grid file in ``grids/``, run
from the repository root.  It was recorded once from a known-good tree
and is only read here: a change that alters any byte of the command-line
output fails this test, and a deliberate output change has to re-record
the file and say so.
"""
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from gridspin import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_cli.json")


def golden_commands():
    """The README commands on each grid file, as argv lists relative to the
    repository root."""
    for path in sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "grids").glob("*.grid")):
        # the n record, read without validation: invalid grids are replayed too
        n = next(int(line.split()[1]) for line in (ROOT / path).read_text().splitlines() if line.startswith("n "))
        yield ["validate", path]
        yield ["info", path]
        yield ["info", path, "--generator", " ".join(map(str, range(n)))]
        yield ["check", path]
        yield ["check", path, "--d2", "--signs", "--mod2", "--spin-relations"]
        for flavor in ("tilde", "hat"):
            yield ["homology", path, "--flavor", flavor]
            yield ["homology", path, "--flavor", flavor, "--json"]
        yield ["alexander", path]
        yield ["invariance", path, path]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_recorded_transcripts(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == list(golden_commands())
    for want in recorded:
        assert run_cli(want["argv"]) == want
