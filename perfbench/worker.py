"""One benchmark worker: a fresh single-threaded process that imports
gridspin from the checkout, runs a closed loop of CLI operations for at
most a given number of seconds and writes what it saw to a JSON file.

    python3 perfbench/worker.py JOB.json RESULT.json

Every operation calls ``gridspin.cli.main`` in-process with stdout and
stderr captured.  Before each one the program's function caches are
cleared and garbage is collected, so it starts as a fresh ``gridspin``
process would, and, if a second has passed since the last calibration,
the kernel of ``calibrate.py`` is timed; that work is outside the timed
region.  One more calibration follows the last operation, so every
operation lies between two.  In a traced job
every grid runs twice, untraced and traced in alternating order, so the
tracing overhead is measured on the same inputs.  The loop starts
another grid only while it is expected to finish within the seconds
given, so a run does not overrun its time by most of an operation; but
it goes on past them, up to twice the seconds given, until every grid
has run once.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALIBRATE_EVERY_S = 1.0  # the longest stretch of operations between two calibrations


def import_cli():
    """Import gridspin from the checkout; returns (cli module, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import gridspin.cli as cli
    seconds = time.perf_counter() - t0
    import gridspin

    if Path(gridspin.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"gridspin imported from {gridspin.__file__}, not from {SRC}")
    return cli, seconds


def setup_sample():
    """Import gridspin between two calibrations; returns (cli module,
    import seconds at the reference speed)."""
    before = calibrate.measure()
    cli, seconds = import_cli()
    return cli, calibrate.scale(seconds, [before, calibrate.measure()])


def reset_caches() -> None:
    """Clear every functools cache held at module level in gridspin."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gridspin" or name.startswith("gridspin.")):
            continue
        for obj in list(vars(mod).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def run_op(cli, argv: list[str]) -> dict:
    """One timed call of the CLI; a raised exception is recorded, not
    propagated, so the loop goes on and the failure is counted."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse reports bad arguments this way
            rc = exc.code
        except Exception as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error, "seconds": seconds}


def run_job(job: dict) -> dict:
    cli, setup_s = setup_sample()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    hits = misses = 0
    ops = []
    argvs = job["argv"]
    laps: list[float] = []
    calibrations: list[float] = []
    calls = 1
    last_calibration = -math.inf
    start = time.perf_counter()
    for i in itertools.count():
        lap_start = time.perf_counter()
        k = i % len(argvs)
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for traced in modes:
            reset_caches()
            gc.collect()
            if time.perf_counter() - last_calibration >= CALIBRATE_EVERY_S:
                calibrations.append(calibrate.measure(calls))
                last_calibration = time.perf_counter()
            if traced:
                tracer.install()
            try:
                op = run_op(cli, argvs[k])
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                h, m = tracer.right_mul_cache()
                hits += h
                misses += m
            op.update(index=k, traced=traced, calibrations_before=len(calibrations))
            ops.append(op)
            calls = calibrate.calls_for(op["seconds"])
        now = time.perf_counter()
        laps.append(now - lap_start)
        elapsed = now - start
        if elapsed + statistics.median(laps) > job["seconds"] and (
                i + 1 >= len(argvs) or elapsed > 2 * job["seconds"]):
            break
    calibrations.append(calibrate.measure(calls))
    result = {
        "setup_s": setup_s,
        "calibrations": calibrations,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if tracer is not None:
        result["spans"] = {name: span.as_dict() for name, span in tracer.spans.items()}
        result["right_mul_cache"] = [hits, misses]
    return result


def main(argv: list[str]) -> int:
    job_path, result_path = argv
    job = json.loads(Path(job_path).read_text())
    result = run_job(job)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
