"""Self-tests of the benchmark.  From the repository root:

    python3 -m pytest -q perfbench

They take about a minute: every workload runs once, untraced and traced,
for the shortest possible run.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _op(index: int, stdout: str, rc: int = 0) -> dict:
    return {"index": index, "rc": rc, "stdout": stdout, "stderr": "", "error": None,
            "seconds": 1.0, "traced": False}


def _failures(name: str, ops: list[dict]) -> list[str]:
    w = WORKLOADS[name]
    reference = run.load_reference(w)
    return run.check_ops(w, w.grids(), list(range(w.pool)), ops, reference, {})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_outputs_pass_every_check(name):
    reference = run.load_reference(WORKLOADS[name])
    ops = [_op(k, reference[k]) for k in range(0, WORKLOADS[name].pool, 10)]
    assert _failures(name, ops) == []


def test_flipped_rank_fails_even_without_the_reference():
    reference = run.load_reference(WORKLOADS["homology-n6"])
    doc = json.loads(reference[0])
    doc["pieces"][0]["free_rank"] += 1
    corrupted = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert len(_failures("homology-n6", [_op(0, corrupted)])) == 1
    g = WORKLOADS["homology-n6"].grids()[0]
    assert checks.check_homology(corrupted, checks.gradings(g.n, g.o_rows, g.x_rows))


def test_wrong_annulus_count_and_exit_code_fail():
    reference = run.load_reference(WORKLOADS["check-n6"])
    corrupted = reference[0].replace("vertical 4320", "vertical 4319")
    assert checks.check_check(corrupted, 6)
    ops = [_op(0, corrupted), _op(1, reference[1], rc=1), _op(2, reference[2])]
    assert len(_failures("check-n6", ops)) == 2


def test_own_gradings_agree_with_the_program():
    import itertools

    sys.path.insert(0, str(ROOT / "src"))
    from gridspin import grid as _grid

    for g in WORKLOADS["homology-n6"].grids()[:3]:
        G = _grid.GridDiagram(g.n, g.o_rows, g.x_rows)
        want: dict = {}
        for x in itertools.permutations(range(g.n)):
            key = (0, _grid.alexander2(G, x))
            want[key] = want.get(key, 0) + (-1 if _grid.maslov(G, x) % 2 else 1)
        got = checks.gradings(g.n, g.o_rows, g.x_rows)
        assert got.euler == {k: v for k, v in want.items() if v}
        assert got.n_i == list(G.components.n_i)


def test_scaling_cancels_the_host_but_not_the_program():
    def result(seconds, calibration):
        ops = [dict(_op(k % 3, ""), seconds=t, calibrations_before=k + 1) for k, t in enumerate(seconds)]
        return {"ops": ops, "calibrations": [calibration] * (len(ops) + 1), "peak_rss_kb": 2048, "setup_s": 0.05}

    base = run.end_to_end(result([0.3, 0.5, 0.4, 0.35], 0.1), [0.05])
    assert base["op_s.p50"][0] == pytest.approx(0.4)  # grid 0 ran twice: median 0.325
    assert base["grids_per_s"][0] == pytest.approx(3 / 1.225)
    slow_host = run.end_to_end(result([0.6, 1.0, 0.8, 0.7], 0.2), [0.05])
    assert {k: v[0] for k, v in slow_host.items()} == pytest.approx({k: v[0] for k, v in base.items()})
    slow_program = run.end_to_end(result([0.6, 1.0, 0.8, 0.7], 0.1), [0.05])
    assert slow_program["op_s.p50"][0] == pytest.approx(2 * base["op_s.p50"][0])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == (2 if trace == "1" else 1)
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_without_the_program_it_fails_without_a_result():
    stripped = ROOT / ".perfbench-work" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    try:
        shutil.copytree(HERE, stripped / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        proc = _bench(stripped, "--workload", "homology-n6", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
