import argparse
import codecs
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sample_grids import torus_grid, trefoil5, unknot2
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
    path = grid_file("u.grid", unknot2())
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
    path = grid_file("t.grid", trefoil5())
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
    path = grid_file("t.grid", trefoil5())
    # a malformed generator exits before the grid facts reach stdout
    for generator in ("0 0 1 2 3", "a"):
        code, out, err = run(capsys, "info", path, "--generator", generator)
        assert code == 2 and out == "" and err, generator


def test_check_passes(grid_file, capsys):
    path = grid_file("u.grid", unknot2())
    code, out, _ = run(capsys, "check", path, "--d2", "--signs", "--mod2", "--spin-relations")
    assert code == 0
    assert out.count("pass") == 4


def test_check_default_suites(grid_file, capsys):
    path = grid_file("u.grid", unknot2())
    code, out, _ = run(capsys, "check", path)
    assert code == 0 and "d2: pass" in out


def test_check_reports_a_flipped_group_law_sign(grid_file, capsys, monkeypatch):
    # one rectangle's group-law bit flipped: d^2 and the sign axioms, which
    # read the same bit, fail, while the mod-2 consistency check, which
    # cannot see a sign, still passes
    from gridspin import complexes, spin

    x0, label0 = (1, 0, 2, 3, 4), (0, 1)
    right_mul = spin._right_mul

    def flipped(peeled, a, b):
        # the peel table carries its generator first
        return right_mul(peeled, a, b) ^ ((peeled[0], (a, b)) == (x0, label0))

    monkeypatch.setattr(complexes, "_right_mul", flipped)
    path = grid_file("t.grid", trefoil5())
    code, out, _ = run(capsys, "check", path)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 3
    assert lines[0].startswith("d2: FAIL (") and lines[0].endswith(")")
    assert lines[1].startswith("signs: FAIL (first violation (") and lines[1].endswith(")")
    assert lines[2] == "mod2: pass"


def test_check_torus_3_5_counts(grid_file, capsys):
    # n = 8, the largest check: one start per translation orbit, weighted by
    # the orbit size, gives the counts of the walk over all 8! starts
    path = grid_file("t35.grid", torus_grid(3, 5))
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert out == "d2: pass\nsigns: pass (square 7927616, vertical 322560, horizontal 322560)\nmod2: pass\n"


def test_check_scans_each_generator_once(grid_file, capsys, monkeypatch):
    # the default suites share one rectangle table (one scan per generator:
    # see the peel count below); the spin relations read none
    from gridspin import complexes

    calls = []
    table = complexes.rectangle_table

    def counted(G):
        calls.append(G)
        return table(G)

    monkeypatch.setattr(complexes, "rectangle_table", counted)
    path = grid_file("t.grid", trefoil5())
    assert run(capsys, "check", path)[0] == 0
    assert calls == [trefoil5()]
    calls.clear()
    assert run(capsys, "check", path, "--spin-relations")[0] == 0
    assert not calls


def test_check_peels_each_generator_once(grid_file, capsys, monkeypatch):
    # the rectangle table scans and peels each generator once, and its peel
    # gives every sign that d2 and signs read
    from gridspin import complexes

    calls = []
    peel = complexes._peel

    def counted(perm):
        calls.append(perm)
        return peel(perm)

    monkeypatch.setattr(complexes, "_peel", counted)
    path = grid_file("t.grid", trefoil5())
    assert run(capsys, "check", path)[0] == 0
    assert len(calls) == 120 and len(set(calls)) == 120  # 5! generators, one peel each


def test_homology_text_and_json_deterministic(grid_file, capsys):
    path = grid_file("u.grid", unknot2())
    code, out1, _ = run(capsys, "homology", path, "--flavor", "hat", "--json")
    code2, out2, _ = run(capsys, "homology", path, "--flavor", "hat", "--json")
    assert code == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["flavor"] == "hat"
    assert data["poincare"] == "1"
    assert data["pieces"] == [{"alexander2": [0], "free_rank": 1, "maslov": 0, "torsion": []}]


def test_homology_tilde_text(grid_file, capsys):
    path = grid_file("u.grid", unknot2())
    code, out, _ = run(capsys, "homology", path)
    assert code == 0
    assert "total free rank: 2" in out
    assert "poincare: 1 + q^-1*t^-1" in out


def test_hat_without_the_factor_exits_one(grid_file, capsys, monkeypatch):
    # torsion-free region pieces lacking the factor 1 + q^-1 t^-1 that
    # the second row of the unknot predicts: rank 1 at (0, (2,)) leaves -1
    # at (-1, (0,)), inside the region 2A >= 0 that the hat path peels, so
    # the peel fails with one line
    from gridspin import homology
    from gridspin.homology import Bigrading

    monkeypatch.setattr(homology, "bigraded_homology", lambda G, a2: [(Bigrading(0, (2,)), 1, ())])
    path = grid_file("u.grid", unknot2())
    code, out, err = run(capsys, "homology", path, "--flavor", "hat")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: NotDivisible: ")


def test_region_torsion_is_mirrored_or_refused(grid_file, capsys, monkeypatch):
    # no grid in reach has tilde torsion, so the region's pieces are made
    # up: Z/2 off the unknot's fixed plane 2A = 1 - n_1 = -1, at (0, 1),
    # and Z/2 on it, at (-1, -1).  Tilde shows the first at its bigrading
    # and at its mirror (0 - (1 + 1), -1 - 2) = (-2, -3), and the second
    # once; hat refuses tilde torsion with one line
    from gridspin import homology
    from gridspin.homology import Bigrading

    floors = []

    def pieces(G, a2):
        floors.append(a2)
        return [(Bigrading(-1, (-1,)), 0, (2,)), (Bigrading(0, (1,)), 0, (2,))]

    monkeypatch.setattr(homology, "bigraded_homology", pieces)
    path = grid_file("u.grid", unknot2())
    code, out, err = run(capsys, "homology", path, "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert [(p["maslov"], p["alexander2"], p["free_rank"], p["torsion"]) for p in data["pieces"]] == [
        (-2, [-3], 0, [2]),
        (-1, [-1], 0, [2]),
        (0, [1], 0, [2]),
    ]
    assert data["flavor"] == "tilde" and data["poincare"] == data["euler"] == "0"
    code, out, err = run(capsys, "homology", path, "--flavor", "hat")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: NotDivisible: ")
    assert floors == [(-1,), (0,)]


def test_alexander(grid_file, capsys):
    path = grid_file("t.grid", trefoil5())
    code, out, _ = run(capsys, "alexander", path)
    assert code == 0 and out.strip() == "t - 1 + t^-1"


def test_move_and_invariance(grid_file, capsys, tmp_path):
    path = grid_file("t.grid", trefoil5())
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
    p1 = grid_file("u.grid", unknot2())
    p2 = grid_file("t.grid", trefoil5())
    code, out, _ = run(capsys, "invariance", p1, p2)
    assert code == 1
    assert "hat polynomials equal: False" in out


def test_invariance_json(grid_file, capsys):
    p1 = grid_file("u.grid", unknot2())
    code, out, _ = run(capsys, "invariance", p1, p1, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["hat_equal"] is True


def test_bad_move_script(grid_file, capsys, tmp_path):
    path = grid_file("u.grid", unknot2())
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
    path = grid_file("u.grid", unknot2())
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", "2", "validate", path])
    assert exc.value.code == 2


class _Parsed(Exception):
    """Raised in place of running a command, carrying its parsed namespace."""


def _parse(parser_of, argv):
    """(exit code, stdout, stderr, vars of the namespace) of parsing argv, where
    parser_of returns the parser; exit code None means the parse succeeded."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parser_of(argv)
        except _Parsed as parsed:
            namespace = vars(parsed.args[0])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def _full(argv):
    # the reference: every subcommand built in full
    raise _Parsed(cli.build_parser().parse_args(argv))


def _through_main(monkeypatch):
    """Parse argv the way ``main`` does, with the parser ``main`` builds, and
    stop before the command runs."""
    build = cli.build_parser

    def spy(command=None):
        parser = build(command)
        parse = parser.parse_args

        def stop(args):
            raise _Parsed(parse(args))

        parser.parse_args = stop
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    return cli.main


def _random_argvs(count, seed):
    """Token lists drawn from the command names, the options and their values."""
    tokens = [*cli.COMMANDS, "bogus", "-h", "--help", "--seed", "--see", "--s", "--seed=2", "--", "-x",
              "--d2", "--signs", "--spin-relations", "--mod2", "--flavor", "--flavor=hat", "--fl", "--json",
              "--generator", "--script", "-o", "--output", "--bogus", "3", "-1", "x", "g", "hat", "tilde", "che"]
    rng = random.Random(seed)
    for _ in range(count):
        yield [rng.choice(tokens) for _ in range(rng.randrange(7))]


def _golden_cases():
    return json.loads((ROOT / "tests" / "golden_cli.json").read_text(encoding="utf-8"))


def test_parser_of_the_running_command_matches_the_full_parser(monkeypatch):
    # main builds only the subcommand that runs; on the recorded commands,
    # every help, the argparse errors and a seeded stream of random token
    # lists it parses exactly as the parser with every subcommand does
    monkeypatch.setenv("COLUMNS", "80")
    main = _through_main(monkeypatch)
    argvs = [case["argv"] for case in _golden_cases()]
    argvs += [[name, "-h"] for name in cli.COMMANDS] + [["-h"], ["--help"], [], ["bogus"]]
    argvs += [["--seed", "x", "check", "g"], ["--see", "3", "homology", "g"], ["homology", "g", "--bogus"],
              ["--", "check", "g"], ["move", "g"]]
    argvs += _random_argvs(3000, 3001)
    outcomes = set()
    for argv in argvs:
        got = _parse(main, argv)
        assert got == _parse(_full, argv), argv
        outcomes.add(got[0])
    # the stream reaches successful parses, helps and errors
    assert outcomes == {None, 0, 2}


def test_only_the_running_command_gets_its_arguments():
    # the running subcommand alone gets a parser; the others are a name in
    # choices and a help line
    sub = lambda parser: next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lean, full = sub(cli.build_parser("homology")), sub(cli.build_parser())
    assert list(lean.choices) == list(full.choices) == list(cli.COMMANDS)
    assert [a.dest for a in lean._choices_actions] == [a.dest for a in full._choices_actions] == list(cli.COMMANDS)
    assert [a.help for a in lean._choices_actions] == [help_ for help_, _, _ in cli.COMMANDS.values()]
    assert {name for name, parser in lean.choices.items() if parser is not None} == {"homology"}
    assert set(lean.choices["homology"]._option_string_actions) == {"-h", "--help", "--flavor", "--json"}
    assert all(isinstance(parser, argparse.ArgumentParser) for parser in full.choices.values())
    assert {"-h", "--d2", "--signs", "--spin-relations", "--mod2"} <= set(full.choices["check"]._option_string_actions)


def test_main_leaves_no_parser_behind(capsys):
    before = dict(vars(cli))
    assert cli.main(["homology", str(ROOT / "grids" / "trefoil5.grid"), "--flavor", "hat", "--json"]) == 0
    assert vars(cli) == before


def _module_run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "gridspin.cli", *argv], cwd=ROOT, env=env, capture_output=True, text=True)


def test_console_entry_reads_sys_argv():
    # main() with no argv scans sys.argv[1:] for the command it builds
    argv = ["homology", "grids/trefoil5.grid", "--flavor", "hat", "--json"]
    want = next(case for case in _golden_cases() if case["argv"] == argv)
    run = _module_run(*argv)
    assert (run.returncode, run.stdout, run.stderr) == (want["exit"], want["stdout"], want["stderr"])
    run = _module_run("check", "-h")
    assert run.returncode == 0 and run.stdout.startswith("usage: gridspin check") and "--spin-relations" in run.stdout
