"""Record the reference stdout of every pool operation of a workload.

    python3 perfbench/record.py WORKLOAD [WORKLOAD ...]

Run it only on a commit whose output is the reference (the seed commit
of the benchmark): the benchmark compares every later run to these files
byte for byte.  Writes ``perfbench/reference/<workload>.json`` holding
the pool grids, their exit codes and their distinct outputs.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from worker import ROOT, import_cli, reset_caches, run_op
from workloads import DEFAULT_SEED, WORKLOADS, write_grids

REFERENCE = Path(__file__).resolve().parent / "reference"


def record(name: str) -> None:
    w = WORKLOADS[name]
    cli, _ = import_cli()
    grids = w.grids()
    workdir = ROOT / ".perfbench-work" / f"record-{name}"
    paths = write_grids(workdir, grids)
    outputs: list[str] = []
    index, codes = [], []
    try:
        for i, path in enumerate(paths):
            reset_caches()
            op = run_op(cli, w.argv(path))
            if op["rc"] != 0 or op["error"]:
                raise RuntimeError(f"{name} grid {i} failed: {op}")
            if op["stdout"] not in outputs:
                outputs.append(op["stdout"])
            index.append(outputs.index(op["stdout"]))
            codes.append(op["rc"])
            print(f"{name} {i + 1}/{len(paths)} {op['seconds']:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "pool_seed": DEFAULT_SEED,
        "command": list(w.command),
        "grids": [[list(g.o_rows), list(g.x_rows)] for g in grids],
        "exit_codes": codes,
        "output_index": index,
        "outputs": outputs,
    }
    (REFERENCE / f"{name}.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    for workload in sys.argv[1:]:
        record(workload)
