"""The gridspin benchmark.

    python3 perfbench/run.py --workload homology-n6 --seed 1 --seconds 36 --trace 0

Runs one workload in one fresh single-threaded worker process for the
given number of seconds, checks every output, and prints the metrics of
BENCHMARK.json as the last line of stdout, one JSON object.  With
``--trace 0`` those are the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import calibrate
import checks
from workloads import WORKLOADS, Grid, Workload, run_order, write_grids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 9  # fresh processes that only import gridspin, besides the worker
PROBE = "import sys; sys.path.insert(0, 'perfbench'); import worker; print(worker.setup_sample()[1])"
WORKER_GRACE_S = 60  # the worker's start and exit, beyond twice the seconds given


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_reference(w: Workload) -> list[str]:
    """Reference stdout of every pool grid, after checking the pool the
    benchmark generates is the pool that was recorded."""
    doc = json.loads((HERE / "reference" / f"{w.name}.json").read_text())
    recorded = [(tuple(o), tuple(x)) for o, x in doc["grids"]]
    if recorded != [(g.o_rows, g.x_rows) for g in w.grids()] or doc["command"] != list(w.command):
        raise BenchError(f"reference/{w.name}.json does not match the generated pool")
    return [doc["outputs"][k] for k in doc["output_index"]]


def run_worker(job: dict, workdir: Path, timeout: float) -> dict:
    job_path, result_path = workdir / "job.json", workdir / "result.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(result_path.read_text())


def setup_probe() -> float:
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import probe failed:\n{proc.stderr.strip()}")
    return float(proc.stdout)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    return env


def check_ops(w: Workload, pool: list[Grid], order: list[int], ops: list[dict],
              reference: list[str], oracle: dict[int, checks.Gradings]) -> list[str]:
    """Check every operation; returns one line per failed operation.
    Fills ``oracle`` with the gradings of each homology grid seen."""
    failures = []
    for op in ops:
        k = order[op["index"]]
        g = pool[k]
        problems = []
        if op["error"] or op["rc"] != 0:
            problems.append(f"exit {op['rc']} {op['error'] or op['stderr'].strip()}")
        if op["stdout"] != reference[k]:
            problems.append("stdout differs from the reference byte for byte")
        if w.kind == "homology":
            if k not in oracle:
                oracle[k] = checks.gradings(g.n, g.o_rows, g.x_rows)
            problems += checks.check_homology(op["stdout"], oracle[k])
        else:
            problems += checks.check_check(op["stdout"], g.n)
        if problems:
            failures.append(f"pool grid {k} {'traced' if op['traced'] else 'untraced'}: {'; '.join(problems)}")
    return failures


def scaled_seconds(result: dict) -> list[float]:
    """Seconds of each operation at the reference host speed
    (``calibrate.py``), from the calibrations on either side of it."""
    cal = result["calibrations"]
    return [calibrate.scale(op["seconds"], calibrate.around(cal, op["calibrations_before"]))
            for op in result["ops"]]


def per_grid_seconds(result: dict) -> list[float]:
    """Median scaled seconds of each pool grid the untraced operations
    ran, so every run weighs each grid once, however often it came up."""
    samples: dict[int, list[float]] = {}
    for op, s in zip(result["ops"], scaled_seconds(result)):
        if not op["traced"]:
            samples.setdefault(op["index"], []).append(s)
    return [statistics.median(v) for v in samples.values()]


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    times = per_grid_seconds(result)
    return {
        "grids_per_s": (len(times) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setup_samples + [result["setup_s"]]), "s"),
    }


def per_layer(result: dict, blocks: list[checks.Gradings]) -> dict:
    """Per-layer metrics of the traced operations; times and counts are
    per operation, maxima over the run.  ``blocks`` holds the gradings of
    each traced homology operation's grid."""
    traced = [op["seconds"] for op in result["ops"] if op["traced"]]
    plain = [op["seconds"] for op in result["ops"] if not op["traced"]]
    ops = len(traced)
    sp = result["spans"]

    def per_op(name, field):
        return sp[name][field] / ops

    def count(name, key):
        return sp[name]["counts"].get(key, 0)

    hits, misses = result["right_mul_cache"]
    tilde_found = count("complexes.differential_terms", "tilde_found")
    gradings = sp["grid.gradings"]
    out = {
        "homology.snf.s": (per_op("homology.snf", "s"), "s/op"),
        "homology.snf.s.max": (sp["homology.snf"]["max_s"], "s"),
        "homology.snf.calls": (per_op("homology.snf", "calls"), "count/op"),
        "homology.blocks": (sum(b.blocks for b in blocks) / ops, "count/op"),
        "homology.block_dim.max": (max((b.block_dim_max for b in blocks), default=0), "count"),
        "homology.matrix.nnz": (count("homology.snf", "nnz") / ops, "count/op"),
        "homology.matrix.cells": (count("homology.snf", "cells") / ops, "count/op"),
        "grid.empty_rectangles.s": (per_op("grid.empty_rectangles", "s"), "s/op"),
        "grid.empty_rectangles.calls": (per_op("grid.empty_rectangles", "calls"), "count/op"),
        "grid.empty_rectangles.found": (count("grid.empty_rectangles", "found") / ops, "count/op"),
        "complexes.differential_terms.self_s": (per_op("complexes.differential_terms", "self_s"), "s/op"),
        "complexes.differential_terms.kept_ratio": (
            count("complexes.differential_terms", "tilde_kept") / tilde_found if tilde_found else 0.0, "ratio"),
        "grid.gradings.s": (gradings["s"] / ops, "s/op"),
        "grid.gradings.calls": (gradings["calls"] / ops, "count/op"),
        "spin.right_mul.calls": (per_op("spin.right_mul", "calls"), "count/op"),
        "spin.right_mul.s": (per_op("spin.right_mul", "s"), "s/op"),
        "spin.right_mul.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "spin.cocycle.calls": (per_op("spin.cocycle", "calls"), "count/op"),
        "spin.cocycle.s": (per_op("spin.cocycle", "s"), "s/op"),
        "complexes.sign_axioms.self_s": (per_op("complexes.sign_axioms", "self_s"), "s/op"),
        "complexes.d_squared.self_s": (per_op("complexes.d_squared", "self_s"), "s/op"),
        "complexes.mod2.self_s": (per_op("complexes.mod2", "self_s"), "s/op"),
        "grid.realize_rectangle.calls": (per_op("grid.realize_rectangle", "calls"), "count/op"),
        "grid.realize_rectangle.s": (per_op("grid.realize_rectangle", "s"), "s/op"),
        "homology.assembly.self_s": (per_op("homology.assembly", "self_s"), "s/op"),
        "homology.hat.s": (per_op("homology.hat", "s"), "s/op"),
        "cli.self_s": (per_op("cli", "self_s"), "s/op"),
        "trace.op_s": (sum(traced) / ops, "s/op"),
        "trace.overhead_frac": (sum(traced) / sum(plain) - 1, "ratio"),
        "host.calibration_s": (statistics.median(result["calibrations"]), "s"),
    }
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "gridspin" / "__init__.py").is_file():
        raise BenchError(f"no gridspin source under {ROOT / 'src'}")
    w = WORKLOADS[workload]
    reference = load_reference(w)
    pool = w.grids()
    order = run_order(len(pool), seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        paths = write_grids(workdir, [pool[k] for k in order])
        job = {"argv": [w.argv(p) for p in paths], "seconds": seconds, "trace": trace}
        setup_samples = [] if trace else [setup_probe() for _ in range(SETUP_PROBES)]
        result = run_worker(job, workdir, 2 * seconds + WORKER_GRACE_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    oracle: dict[int, checks.Gradings] = {}
    failures = check_ops(w, pool, order, result["ops"], reference, oracle)
    if trace:
        blocks = [oracle[order[op["index"]]] for op in result["ops"] if op["traced"] and w.kind == "homology"]
        metrics = per_layer(result, blocks)
    else:
        metrics = end_to_end(result, setup_samples)
    attempted = len(result["ops"])
    for line in failures[:20]:
        print(f"FAILED {line}")
    wall = [op["seconds"] for op in result["ops"] if not op["traced"]]
    print(f"{workload}: seed {seed}, {attempted} operations, fail_frac {len(failures)}/{attempted}, "
          f"unscaled {len(wall) / sum(wall):.4g} grids/s, "
          f"calibration median {statistics.median(result['calibrations']):.4g} s")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
