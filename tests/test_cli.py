import codecs
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridspin import cli, grid

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def grid_file(tmp_path):
    def write(name, G, text=None):
        p = tmp_path / name
        p.write_text(text if text is not None else grid.format_grid_text(G))
        return str(p)

    return write


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(grid_file, capsys):
    path = grid_file("u.grid", grid.unknot2())
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out.strip() == "ok"


def test_validate_shared_cell(grid_file, capsys):
    path = grid_file("b.grid", None, text="n 2\nO 0 1\nX 0 1\n")
    code, out, _ = run(capsys, "validate", path)
    assert code == 2 and "SharedCell" in out


def test_validate_parse_error(grid_file, capsys):
    for text in ("nonsense\n", "n 2\nO 1 0\nX 0 1\nO 0 1\n"):
        path = grid_file("b.grid", None, text=text)
        code, out, _ = run(capsys, "validate", path)
        assert code == 2 and "Parse" in out


def test_missing_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.grid"
    latin1.write_bytes("# caf\xe9\nn 2\nO 1 0\nX 0 1\n".encode("latin-1"))
    for path in ("/nonexistent/zzz.grid", str(tmp_path), str(latin1)):
        code, _, err = run(capsys, "validate", path)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_info_with_generator(grid_file, capsys):
    path = grid_file("t.grid", grid.trefoil5())
    code, out, _ = run(capsys, "info", path, "--generator", "0 1 2 3 4")
    assert code == 0
    assert "n 5" in out and "components 1" in out
    assert "maslov 2" in out and "alexander (1)" in out


def test_info_output_linear_past_the_drawing_bound(grid_file, capsys):
    # the drawing has 2 n^2 - 1 characters; past the bound info prints one
    # line instead, and the rest of its output is O(n)
    for n in (cli.MAX_DRAWN_N, cli.MAX_DRAWN_N + 1):
        code, out, _ = run(capsys, "info", grid_file("u.grid", _unknot(n)))
        assert code == 0 and ("drawing omitted" in out) == (n > cli.MAX_DRAWN_N)
    n = 2000
    links = grid.GridDiagram(n, tuple(c ^ 1 for c in range(n)), tuple(range(n)))  # 1000 unknots
    for G in (_unknot(n), links):
        code, out, _ = run(capsys, "info", grid_file("big.grid", G))
        lines = out.splitlines()
        assert code == 0 and lines[0] == f"n {n}" and lines[-1] == f"drawing omitted (n > {cli.MAX_DRAWN_N})"
        assert len(out) < 4 * n + 100


def test_info_bad_generator(grid_file, capsys):
    path = grid_file("t.grid", grid.trefoil5())
    code, _, err = run(capsys, "info", path, "--generator", "0 0 1 2 3")
    assert code == 2


def test_check_passes(grid_file, capsys):
    path = grid_file("u.grid", grid.unknot2())
    code, out, _ = run(capsys, "check", path, "--d2", "--signs", "--mod2", "--spin-relations")
    assert code == 0
    assert out.count("pass") == 4


def test_check_default_suites(grid_file, capsys):
    path = grid_file("u.grid", grid.unknot2())
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and "d2: pass" in out


def test_check_reports_a_flipped_group_law_sign(grid_file, capsys, monkeypatch):
    # one rectangle's group-law bit flipped: d^2 fails, while the cocycle
    # signs of the sign-axiom suite and the mod-2 consistency check, which
    # cannot see a sign, still pass
    from gridspin import complexes, spin

    x0, label0 = (1, 0, 2, 3, 4), (0, 1)
    right_mul = spin._right_mul

    def flipped(x, a, b):
        return right_mul(x, a, b) ^ ((tuple(x), (a, b)) == (x0, label0))

    monkeypatch.setattr(complexes, "_right_mul", flipped)
    path = grid_file("t.grid", grid.trefoil5())
    code, out, _ = run(capsys, "check", path)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].startswith("d2: FAIL (") and lines[0].endswith(")")
    assert lines[1:] == ["signs: pass (square 5400, vertical 600, horizontal 600)", "mod2: pass"]


def test_check_reports_a_flipped_cocycle_sign(grid_file, capsys, monkeypatch):
    # the mirror case: one rectangle's cocycle sign flipped fails the sign
    # axioms only, so the signs suite reads its own cocycle, not the
    # group-law bits of the table that d2 and mod2 read
    from gridspin import complexes, spin

    x0, label0 = (1, 0, 2, 3, 4), (0, 1)
    cocycle = spin._transposition_cocycle

    def flipped(x, a, b):
        c = cocycle(x, a, b)
        return -c if (tuple(x), (a, b)) == (x0, label0) else c

    monkeypatch.setattr(complexes, "_transposition_cocycle", flipped)
    path = grid_file("t.grid", grid.trefoil5())
    code, out, _ = run(capsys, "check", path)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0] == "d2: pass" and lines[2] == "mod2: pass"
    assert lines[1].startswith("signs: FAIL (first violation (") and lines[1].endswith(")")


def test_check_scans_each_generator_once(grid_file, capsys, monkeypatch):
    calls = []
    scan = grid.empty_rectangles

    def counted(*args, **kwargs):
        calls.append(args[1])
        return scan(*args, **kwargs)

    monkeypatch.setattr(grid, "empty_rectangles", counted)
    path = grid_file("t.grid", grid.trefoil5())
    assert run(capsys, "check", path)[0] == 0
    assert len(calls) == 120 and len(set(calls)) == 120  # 5! generators, one scan each
    calls.clear()
    assert run(capsys, "check", path, "--spin-relations")[0] == 0
    assert not calls


def test_homology_text_and_json_deterministic(grid_file, capsys):
    path = grid_file("u.grid", grid.unknot2())
    code, out1, _ = run(capsys, "homology", path, "--flavor", "hat", "--json")
    code2, out2, _ = run(capsys, "homology", path, "--flavor", "hat", "--json")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["flavor"] == "hat"
    assert data["poincare"] == "1"
    assert data["pieces"] == [{"alexander2": [0], "free_rank": 1, "maslov": 0, "torsion": []}]


def test_homology_tilde_text(grid_file, capsys):
    path = grid_file("u.grid", grid.unknot2())
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    assert "total free rank: 2" in out
    assert "poincare: 1 + q^-1*t^-1" in out


def test_hat_without_the_factor_exits_one(grid_file, capsys, monkeypatch):
    # a torsion-free tilde summary lacking the factor 1 + q^-1 t^-1 that
    # the second row of the unknot predicts: the peel fails with one line
    from gridspin import homology
    from gridspin.homology import Bigrading, HomologySummary, Laurent

    p = Laurent.from_dict(1, {(0, (0,)): 1})
    summary = HomologySummary("tilde", 1, (2,), ((Bigrading(0, (0,)), 1, ()),), p, p)
    monkeypatch.setattr(homology, "bigraded_homology", lambda G: summary)
    path = grid_file("u.grid", grid.unknot2())
    code, out, err = run(capsys, "homology", path, "--flavor", "hat")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: NotDivisible: ")


def test_alexander(grid_file, capsys):
    path = grid_file("t.grid", grid.trefoil5())
    code, out, _ = run(capsys, "alexander", path)
    assert code == 0 and out.strip() == "t - 1 + t^-1"


def test_move_and_invariance(grid_file, capsys, tmp_path):
    path = grid_file("t.grid", grid.trefoil5())
    script = tmp_path / "moves.txt"
    script.write_text("cyclic up\nstabilize row 0 ONW\n")
    out_path = tmp_path / "moved.grid"
    code, out, _ = run(capsys, "move", path, "--script", str(script), "-o", str(out_path))
    assert code == 0 and out_path.exists()
    moved = grid.parse_grid_text(out_path.read_text())
    assert moved.n == 6
    code, out, _ = run(capsys, "invariance", path, str(out_path))
    assert code == 0
    assert "hat polynomials equal: True" in out


def test_invariance_matches_three_components_across_a_stabilization(grid_file, capsys, tmp_path):
    # the component map runs from hat1 to hat2; here it is the 3-cycle of
    # the cyclic move, and the stabilized component is found through it
    path = grid_file("g.grid", None, "n 6\nO 0 1 5 4 2 3\nX 3 4 2 1 5 0\n")
    script = tmp_path / "moves.txt"
    script.write_text("stabilize row 5 XSE\ncyclic left\n")
    moved = str(tmp_path / "moved.grid")
    assert run(capsys, "move", path, "--script", str(script), "-o", moved)[0] == 0
    code, out, _ = run(capsys, "invariance", path, moved)
    assert code == 0
    assert "component matching: [2, 0, 1]" in out.splitlines()
    assert "stabilization tilde factor: True" in out.splitlines()


def test_invariance_failure_exit_code(grid_file, capsys):
    p1 = grid_file("u.grid", grid.unknot2())
    p2 = grid_file("t.grid", grid.trefoil5())
    code, out, _ = run(capsys, "invariance", p1, p2)
    assert code == 1
    assert "hat polynomials equal: False" in out


def test_invariance_json(grid_file, capsys):
    p1 = grid_file("u.grid", grid.unknot2())
    code, out, _ = run(capsys, "invariance", p1, p1, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hat_equal"] is True


def test_bad_move_script(grid_file, capsys, tmp_path):
    path = grid_file("u.grid", grid.unknot2())
    script = tmp_path / "moves.txt"
    script.write_text("commute cols 0\n")  # interleaved on the 2x2 unknot
    code, _, err = run(capsys, "move", path, "--script", str(script), "-o", str(tmp_path / "x.grid"))
    assert code == 2 and "IllegalCommutation" in err


def test_byte_order_mark_is_accepted(tmp_path, capsys, monkeypatch):
    # Notepad and PowerShell 5 write UTF-8 with a leading byte-order mark;
    # a grid file or a move script that has one reads as the same text
    # without it.  Each copy sits in its own folder under the same names,
    # so the outputs, the script name in the moved grid included, agree
    trefoil = (ROOT / "grids" / "trefoil5.grid").read_bytes()
    runs = {}
    for name, head in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("t.grid").write_bytes(head + trefoil)
        Path("s.txt").write_bytes(head + b"cyclic up\n")
        runs[name] = [
            run(capsys, *argv)
            for argv in (
                ["validate", "t.grid"],
                ["homology", "t.grid", "--json"],
                ["alexander", "t.grid"],
                ["move", "t.grid", "--script", "s.txt", "-o", "out.grid"],
            )
        ]
        runs[name].append(Path("out.grid").read_bytes())
    assert runs["bom"] == runs["plain"]
    assert [code for code, _, _ in runs["plain"][:-1]] == [0, 0, 0, 0]


def _move_in_locale(cwd, locale_env, script, output):
    """Run ``gridspin move`` on the trefoil in a fresh interpreter with the
    given locale settings; script and output may be bytes paths."""
    dropped = ("PYTHONUTF8", "PYTHONCOERCECLOCALE", "PYTHONIOENCODING", "PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG")) and k not in dropped}
    env.update(locale_env, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-m", "gridspin.cli", "move", str(ROOT / "grids" / "trefoil5.grid")]
    return subprocess.run([*argv, "--script", script, "-o", output], cwd=cwd, env=env, capture_output=True)


ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_move_reads_and_writes_utf8_in_any_locale(tmp_path):
    # a script is UTF-8 text like a grid file, whatever the locale says
    (tmp_path / "cafe.txt").write_bytes("# café\ncyclic up\n".encode("utf-8"))
    ascii_run = _move_in_locale(tmp_path, ASCII_LOCALE, "cafe.txt", "ascii.grid")
    utf8_run = _move_in_locale(tmp_path, {"PYTHONUTF8": "1"}, "cafe.txt", "utf8.grid")
    assert (ascii_run.returncode, ascii_run.stderr) == (0, b"")
    assert utf8_run.returncode == 0
    assert (tmp_path / "ascii.grid").read_bytes() == (tmp_path / "utf8.grid").read_bytes()


def test_move_with_unencodable_name_leaves_no_partial_file(tmp_path):
    # under an ASCII locale the name arrives with surrogate escapes, which
    # the UTF-8 comment line cannot hold
    name = "é.txt".encode("utf-8")
    (tmp_path / os.fsdecode(name)).write_bytes(b"cyclic up\n")
    run = _move_in_locale(tmp_path, ASCII_LOCALE, name, "out.grid")
    assert run.returncode in (0, 2) and b"Traceback" not in run.stderr
    if run.returncode == 2:
        assert run.stderr.startswith(b"error: ") and run.stderr.count(b"\n") == 1
        assert not (tmp_path / "out.grid").exists()
    else:
        assert grid.parse_grid_text((tmp_path / "out.grid").read_text(encoding="utf-8")).n == 5


def _unknot(n):
    return grid.GridDiagram(n, tuple(range(1, n)) + (0,), tuple(range(n)))


def test_size_bound(grid_file, capsys):
    # one step past each command's bound, refused before any work: a 10x10
    # unknot for the homology commands, a 9x9 one for check
    p10 = grid_file("big10.grid", _unknot(10))
    p9 = grid_file("big9.grid", _unknot(9))
    cases = [(("homology", p10), 9), (("alexander", p10), 9), (("invariance", p10, p10), 9), (("check", p9), 8)]
    for argv, bound in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: TooLarge: ") and f"n <= {bound}" in err and err.count("\n") == 1
    for path, n in ((p9, 9), (p10, 10)):
        code, out, _ = run(capsys, "info", path)
        assert code == 0 and f"n {n}" in out


def test_threads_positive(grid_file, capsys):
    # --threads is no option: even a positive count is malformed input
    path = grid_file("u.grid", grid.unknot2())
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "validate", path])
    assert exc.value.code == 2
