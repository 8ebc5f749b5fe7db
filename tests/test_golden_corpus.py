"""Replay of recorded homology, Alexander and check output on the test corpus.

``golden_corpus.json`` holds, for each command in ``COMMANDS`` and each
grid size, one sha256 over the exit code, stdout and stderr of that command
on every grid of that size, in order: the grids of
``conftest.corpus_grids()`` (each written to a grid file first), then the
files in ``grids/``, run from the repository root.  A command named in
``MAX_N`` skips the grids past its size: the default ``check`` stops at
n = 5, which keeps its share of the replay at a few seconds.  Invariant
factors are unique, so a change to the reduction or the assembly that keeps
the answers keeps every hash.  The file was recorded once from a known-good
tree; ``python tests/test_golden_corpus.py`` re-records it after a
deliberate output change.
"""
import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import corpus_grids
from gridspin import cli, grid

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_corpus.json")
COMMANDS = (["homology", "--json"], ["homology", "--flavor", "hat", "--json"], ["alexander"], ["check"])
MAX_N = {"check": 5}


def _grid_files(scratch: Path):
    """(n, path) of every corpus grid, written to one reused file, then of
    every file in ``grids/`` relative to the repository root."""
    path = scratch / "corpus.grid"
    for G in corpus_grids():
        path.write_text(grid.format_grid_text(G), encoding="utf-8")
        yield G.n, str(path)
    for path in sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "grids").glob("*.grid")):
        # the n record, read without validation: invalid grids are replayed too
        n = next(int(line.split()[1]) for line in (ROOT / path).read_text().splitlines() if line.startswith("n "))
        yield n, path


def digests(scratch: Path) -> dict:
    hashes = {}
    for n, path in _grid_files(scratch):
        for command in COMMANDS:
            if n > MAX_N.get(command[0], n):
                continue
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([command[0], path, *command[1:]])
            key = f"{' '.join(command)} n={n}"
            record = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
            hashes.setdefault(key, hashlib.sha256()).update(record)
    return {key: h.hexdigest() for key, h in sorted(hashes.items())}


def test_corpus_output_matches_recorded_hashes(monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(tmp_path) == recorded


if __name__ == "__main__":
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        records = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(records)} hashes in {GOLDEN}", file=sys.stderr)
