"""Property tests of the input boundary: the grid parser, the move-script
parser and the CLI never let an unexpected exception escape."""
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridspin import cli, grid, moves

# integers near the valid range, and words that int() rejects or that
# only look numeric
_tokens = st.one_of(
    st.integers(-2, 5).map(str),
    st.sampled_from(["", "-0", "+1", "1.5", "0x1", "1_0", "٣", "9" * 30, "9" * 5000]),
    st.text(max_size=4),
)
_records = st.builds(
    lambda key, args: " ".join([key, *args]),
    st.sampled_from(["n", "N", "O", "o", "X", "x", "q", "#", "n#", "O\t"]),
    st.lists(_tokens, max_size=6),
)


@st.composite
def grid_texts(draw):
    """Grid files with n <= 4: a valid grid in any record order, half of
    them with one record dropped, repeated, replaced or added."""
    n = draw(st.integers(2, 4))
    o = draw(st.permutations(range(n)))
    x = draw(st.permutations(range(n)).filter(lambda x: all(a != b for a, b in zip(o, x))))
    lines = [f"n {n}", "O " + " ".join(map(str, o)), "X " + " ".join(map(str, x)), "# fuzz"]
    i = draw(st.integers(0, len(lines) - 1))
    junk = draw(st.one_of(_records, st.text(max_size=12)))
    mutation = draw(st.sampled_from(["none", "none", "none", "drop", "repeat", "replace", "add"]))
    if mutation == "drop":
        del lines[i]
    elif mutation == "repeat":
        lines.append(lines[i])
    elif mutation == "replace":
        lines[i] = junk
    elif mutation == "add":
        lines.append(junk)
    return "\n".join(draw(st.permutations(lines)))



_indices = st.one_of(st.integers(-1, 5).map(str), _tokens)
_move_lines = st.one_of(
    st.builds("cyclic {}".format, st.sampled_from(["up", "down", "left", "right", "in"])),
    st.builds("commute {} {}".format, st.sampled_from(["cols", "rows", "diag"]), _indices),
    st.builds(
        "stabilize {} {} {}{}".format,
        st.sampled_from(["row", "col", "cell"]),
        _indices,
        st.sampled_from(["X", "O", "x", "Q"]),
        st.sampled_from(["NW", "NE", "SW", "SE", "", "N"]),
    ),
    st.builds("destabilize {} {}".format, _indices, _indices),
    st.builds(" ".join, st.lists(_tokens, max_size=4)),
    st.text(max_size=12),
)
_scripts = st.lists(_move_lines, max_size=3).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_texts(), st.text(max_size=40)))
def test_parse_grid_text_raises_only_grid_error(text):
    try:
        G = grid.parse_grid_text(text)
    except grid.GridError:
        return
    assert isinstance(G, grid.GridDiagram)


@settings(max_examples=300, deadline=None)
@given(_scripts)
def test_parse_script_raises_only_move_error(text):
    try:
        script = moves.parse_script(text)
    except moves.MoveError:
        return
    assert all(isinstance(mv, moves.MoveSpec) for mv in script)


_commands = st.one_of(
    st.just(["validate"]),
    st.builds(
        lambda gen: ["info"] + ([] if gen is None else ["--generator", gen]),
        st.one_of(
            st.none(),
            st.lists(st.integers(-1, 4), max_size=5).map(lambda v: " ".join(map(str, v))),
            st.text(max_size=6),
        ),
    ),
    st.just(["move"]),
    st.builds(
        lambda flags: ["check", *flags],
        st.lists(st.sampled_from(["--d2", "--signs", "--mod2", "--spin-relations"]), max_size=2, unique=True),
    ),
    st.builds(
        lambda flavor, js: ["homology", "--flavor", flavor] + (["--json"] if js else []),
        st.sampled_from(["tilde", "hat"]),
        st.booleans(),
    ),
    st.just(["alexander"]),
    st.builds(lambda js: ["invariance"] + (["--json"] if js else []), st.booleans()),
)


# tmp_path is shared by the examples of one test run; every example
# rewrites the same three files, so no state carries over
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_commands, grid_texts(), _scripts, st.one_of(st.just(b""), st.binary(max_size=3)))
def test_cli_exit_codes(tmp_path, command, text, script, tail):
    grid_path = tmp_path / "fuzz.grid"
    # trailing raw bytes are often invalid UTF-8, which must exit 2 cleanly
    grid_path.write_bytes(text.encode() + tail)
    argv = [command[0], str(grid_path), *command[1:]]
    if command[0] == "invariance":
        argv.insert(2, str(grid_path))  # the fuzzed grid against itself
    if command[0] == "move":
        script_path = tmp_path / "fuzz.moves"
        script_path.write_bytes(script.encode() + tail)
        argv += ["--script", str(script_path), "-o", str(tmp_path / "moved.grid")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
