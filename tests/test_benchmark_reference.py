"""Replay of the benchmark's reference outputs.

``perfbench/reference/<workload>.json`` holds the stdout and exit code
that the benchmark expects of every grid of its pool.  The benchmark
compares every operation with it byte for byte; this test does the same
once per grid, so a change that alters the output on a benchmark grid
fails here and not only in a benchmark run.  The files are only read.
"""
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from gridspin import cli
from gridspin.grid import GridDiagram, format_grid_text

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("workload", ["homology-n6", "homology-n7", "check-n6"])
def test_cli_reproduces_the_benchmark_reference(workload, tmp_path):
    doc = json.loads((REFERENCE / f"{workload}.json").read_text())
    assert len(doc["grids"]) == len(doc["output_index"]) == len(doc["exit_codes"])
    for (o_rows, x_rows), k, code in zip(doc["grids"], doc["output_index"], doc["exit_codes"]):
        path = tmp_path / "pool.grid"
        path.write_text(format_grid_text(GridDiagram(len(o_rows), o_rows, x_rows)))
        out = io.StringIO()
        with redirect_stdout(out):
            got = cli.main([str(path) if a == "{grid}" else a for a in doc["command"]])
        assert (got, out.getvalue()) == (code, doc["outputs"][k]), (o_rows, x_rows)
