import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from snake_atlas import cli
from snake_atlas.bijections import phi1_inv
from snake_atlas.cli import main
from snake_atlas.forests import WHITE
from snake_atlas.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_q4(capsys):
    code, out, _ = run(capsys, "poly", "--which", "Q", "--n", "4")
    assert code == 0
    assert json.loads(out) == {"min_exp": 0, "coeffs": [5, 0, 28, 0, 24]}


def test_poly_q_analogue(capsys):
    code, out, _ = run(capsys, "poly", "--which", "R", "--n", "2", "--q")
    assert code == 0
    assert json.loads(out) == {"t": [[1, 1], [], [1, 2, 2, 1]]}


def test_zeta2_worked_example(capsys):
    code, out, _ = run(capsys, "bijection", "--name", "zeta2",
                       "--input", "[4,-2,1,3,8,5,9,-7,6]")
    assert code == 0
    assert json.loads(out) == [3, -1, 2, 4, 7, 5, 8, -6]


def test_arnold_csv_matches_table_layout(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "arnold", "--n", "6",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[1:] == ["-6", "-5", "-4", "-3", "-2", "-1",
                                       "1", "2", "3", "4", "5", "6"]
    assert lines[6] == "6,0,80,160,236,304,361,361,418,464,496,512,512"


def test_triangle_json_row(capsys):
    code, out, _ = run(capsys, "triangle", "--kind", "entringer", "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert [r["value"] for r in obj["rows"]] == [0, 1, 2, 2]


def test_family_listing(capsys):
    code, out, _ = run(capsys, "family", "--name", "rsi-d", "--n", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 5
    assert [1, 2, -3] in obj["members"]


def test_family_anchor(capsys):
    code, out, _ = run(capsys, "family", "--name", "snakes", "--n", "3",
                       "--anchor", "first", "--value", "2")
    assert json.loads(out)["count"] == 4


def test_bijection_inverse_direction(capsys):
    code, out, _ = run(capsys, "bijection", "--name", "gamma",
                       "--direction", "inverse", "--input", "[4,-2,5,-3,-1]")
    assert code == 0
    assert json.loads(out) == [5, 3, "e", 1, "e", 4, "e", 2, "e"]


def test_bijection_trace(capsys):
    code, out, _ = run(capsys, "bijection", "--name", "phi1", "--trace",
                       "--input", "[1]")
    assert code == 0
    obj = json.loads(out)
    assert "result" in obj and "trace" in obj
    assert obj["trace"][0][0] == "i"


def test_psi_maps_via_cli(capsys):
    code, out, _ = run(capsys, "bijection", "--name", "psi-cap", "--input", "[1]")
    assert code == 0
    assert json.loads(out) == ["e", 1, "e"]


def test_exit_codes(capsys):
    assert run(capsys, "family", "--name", "snakes", "--n", "99")[0] == 3
    assert run(capsys, "bijection", "--name", "phi1", "--input", "[3,2,1]")[0] == 5
    assert run(capsys, "bijection", "--name", "phi1", "--input", "[3,2,")[0] == 4
    with pytest.raises(SystemExit) as exc:
        run(capsys, "family", "--name", "bogus", "--n", "3")
    assert exc.value.code == 2


def test_a_dash_payload_reaches_the_decoder_only_as_input_equals(capsys):
    # argparse reads "-1e-05" after "--input" as an option, not a value
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "--name", "zeta2", "--input", "-1e-05"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: ")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "snake-atlas bijection: error: argument --input: expected one argument"]
    code, out, err = run(capsys, "bijection", "--name", "zeta2", "--input=-1e-05")
    assert code == 4 and out == ""
    assert err == "invalid input: expected a JSON array of nonzero integers\n"


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "eq-1", "--n-max", "6")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["check_id"] == "eq-1" and reports[0]["status"] == "pass"


def test_output_is_byte_stable(capsys):
    a = run(capsys, "family", "--name", "rsii-b", "--n", "3")
    b = run(capsys, "family", "--name", "rsii-b", "--n", "3")
    assert a == b


def test_booleans_are_not_window_entries(capsys):
    code, out, err = run(capsys, "bijection", "--name", "zeta2", "--direction",
                         "inverse", "--input", "[true]")
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--name", "phi1", "--direction", "inverse", "--input", '{"x":1}'),
    ("--name", "mu", "--direction", "inverse", "--input", "[1,2]"),
    ("--name", "gamma", "--input", '{"label":1}'),
])
def test_malformed_tree_and_forest_json_exit_4(capsys, argv):
    code, out, err = run(capsys, "bijection", *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("family", "--name", "snakes", "--n", "0"),
    ("triangle", "--kind", "arnold", "--n", "0"),
    ("poly", "--which", "P", "--n", "-1"),
])
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    assert exc.value.code == 2


def test_poly_n0_stays_valid(capsys):
    code, out, _ = run(capsys, "poly", "--which", "P", "--n", "0")
    assert code == 0
    assert json.loads(out) == {"min_exp": 1, "coeffs": [1]}


@pytest.mark.parametrize("argv", [
    ("--name", "zeta2", "--direction", "inverse", "--input", "[1.7]"),
    ("--name", "gamma", "--direction", "inverse", "--input", "[2.9,-1]"),
])
def test_non_integral_window_entries_exit_4(capsys, argv):
    code, out, err = run(capsys, "bijection", *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--name", "psi-cap", "--input", "[true]"),
    ("--name", "psi-cap", "--input", "[1.5]"),
    ("--name", "psi-cap", "--direction", "inverse", "--input", '["e",true,"e"]'),
    ("--name", "gamma", "--input", '{"leaf":true}'),
    ("--name", "gamma", "--input", '{"label":1.0,"left":"empty","right":"empty"}'),
    ("--name", "phi1", "--direction", "inverse",
     "--input", '{"components":[{"color":"white","root":true,"child":"empty"}]}'),
    ("--name", "phi1", "--direction", "inverse",
     "--input", '{"components":[{"color":"white","root":1.5,"child":"empty"}]}'),
])
def test_boolean_and_non_integral_labels_exit_4(capsys, argv):
    code, out, err = run(capsys, "bijection", *argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1


def test_ceiling_inside_a_check_is_reported_not_aborted(capsys, monkeypatch):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "3")
    code, out, _ = run(capsys, "verify", "--check", "thm-4-5", "--n-max", "3")
    assert code == 3
    [report] = json.loads(out)
    assert report["status"] == "error"
    assert "exceeds ceiling 3" in report["counterexample"]["error"]


@pytest.mark.parametrize("check", ["thm-1-1", "eq-1"])
def test_verify_n_max_below_one_is_a_usage_error(capsys, check):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "verify", "--check", check, "--n-max", "0")
    assert exc.value.code == 2


def test_non_integer_ceiling_setting_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SNAKE_ATLAS_MAX_N", "x")
    code, out, err = run(capsys, "family", "--name", "snakes", "--n", "2")
    assert code == 2 and out == ""
    assert err == "SNAKE_ATLAS_MAX_N must be an integer, got 'x'\n"


@pytest.mark.parametrize("extra", [("--anchor", "first"), ("--value", "2")])
def test_anchor_and_value_go_together(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "family", "--name", "snakes", "--n", "3", *extra)
    assert exc.value.code == 2
    assert "--anchor and --value go together" in capsys.readouterr().err


PARSER_REUSE_SEQUENCE = [
    ("bijection", "--name", "phi1", "--input", "[2,8,-3,4,-7,1,-6,-5]", "--trace"),
    ("bijection", "--name", "phi1", "--input", "[2,8,-3,4,-7,1,-6,-5]"),
    ("family", "--name", "snakes", "--n", "3", "--anchor", "first", "--value", "1"),
    ("family", "--name", "snakes", "--n", "3"),
    ("family", "--name", "bogus", "--n", "3"),
    ("poly", "--which", "Q", "--n", "4"),
    ("bijection", "--name", "phi2", "--direction", "inverse", "--trace",
     "--input", '{"components":[{"color":"white","root":1,"child":"empty"}]}'),
    ("verify", "--check", "eq-1", "--n-max", "0"),
    ("triangle", "--kind", "arnold", "--n", "3", "--format", "csv"),
]


def _run_sequence(capsys):
    results = []
    for argv in PARSER_REUSE_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        results.append((code, out.out, out.err))
    return results


def test_shared_parser_matches_a_fresh_parser_per_call(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    shared = _run_sequence(capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_sequence(capsys)
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 0, 0, 2, 0]


def test_bijection_requests_call_the_shared_table(capsys, monkeypatch):
    """``cli.BIJECTIONS``, built on its first read, is the table that
    ``main`` calls: an entry replaced in place answers the next request."""
    from snake_atlas.cli import BIJECTIONS
    assert BIJECTIONS is cli.BIJECTIONS
    monkeypatch.setitem(BIJECTIONS, "zeta1",
                        (lambda w, trace=False: w[::-1], *BIJECTIONS["zeta1"][1:]))
    code, out, _ = run(capsys, "bijection", "--name", "zeta1", "--input", "[2,-1,3]")
    assert (code, out) == (0, "[3,-1,2]\n")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_subcommands_own_parser_matches_the_full_parser(monkeypatch, command):
    """``parse`` builds only the named subcommand's parser; it prints the
    help and usage that subcommand prints inside the full parser."""
    monkeypatch.setenv("COLUMNS", "80")
    own, full = cli.build_parser(command), cli.build_parser().commands[command]
    assert own is not full
    assert (own.format_help(), own.format_usage()) == (full.format_help(), full.format_usage())


def load_script(name):
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _parsed(parse, argv, capsys):
    try:
        got = vars(parse(list(argv)))
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    return got, out.out, out.err


@pytest.mark.parametrize("argv", load_script("cli_digest.py").PARSE_CASES,
                         ids=lambda argv: " ".join(argv) or "no-argv")
def test_one_parse_pass_matches_parse_args(capsys, argv):
    """``cli.parse`` hands argv naming a subcommand to that subcommand's
    parser; every request parses as ``parse_args`` parses it, to the same
    namespace or to the same exit code, help and message."""
    reference = _parsed(lambda a: cli.build_parser().parse_args(a), argv, capsys)
    assert _parsed(cli.parse, argv, capsys) == reference


# stdout and exit code of every example in the README "Command line"
# block, with the `elapsed` field of a verify report masked.  The bare
# `verify` runs the whole suite (about 50 s) and is left out.
README_EXAMPLES = {
    ('triangle', '--kind', 'arnold', '--n', '6', '--format', 'csv'): (
        0,
        'n\\k,-6,-5,-4,-3,-2,-1,1,2,3,4,5,6\r\n'
        '1,,,,,,1,1,,,,,\r\n'
        '2,,,,,0,1,1,2,,,,\r\n'
        '3,,,,0,2,3,3,4,4,,,\r\n'
        '4,,,0,4,8,11,11,14,16,16,,\r\n'
        '5,,0,16,32,46,57,57,68,76,80,80,\r\n'
        '6,0,80,160,236,304,361,361,418,464,496,512,512\r\n'),
    ('triangle', '--kind', 'arnold-poly', '--n', '5'): (
        0,
        '{"n":5,"rows":[{"k":-5,"value":{"coeffs":[],"min_exp":0}},{"k":-'
        '4,"value":{"coeffs":[2,0,8,0,6],"min_exp":0}},{"k":-3,"value":{"'
        'coeffs":[4,0,16,0,12],"min_exp":0}},{"k":-2,"value":{"coeffs":[5'
        ',0,23,0,18],"min_exp":0}},{"k":-1,"value":{"coeffs":[5,0,28,0,24'
        '],"min_exp":0}},{"k":1,"value":{"coeffs":[5,0,28,0,24],"min_exp"'
        ':2}},{"k":2,"value":{"coeffs":[10,0,34,0,24],"min_exp":2}},{"k":'
        '3,"value":{"coeffs":[14,0,38,0,24],"min_exp":2}},{"k":4,"value":'
        '{"coeffs":[16,0,40,0,24],"min_exp":2}},{"k":5,"value":{"coeffs":'
        '[16,0,40,0,24],"min_exp":2}}]}\n'),
    ('family', '--name', 'rsi-d', '--n', '3'): (
        0,
        '{"count":5,"family":"rsi-d","members":[[-3,1,-2],[-2,1,-3],[1,2,'
        '-3],[2,1,-3],[3,1,-2]],"n":3}\n'),
    ('family', '--name', 'snakes', '--n', '3', '--anchor', 'first', '--value', '2'): (
        0,
        '{"count":4,"family":"snakes","members":[[2,-3,-1],[2,-3,1],[2,-1'
        ',3],[2,1,3]],"n":3}\n'),
    ('poly', '--which', 'Q', '--n', '4'): (
        0,
        '{"coeffs":[5,0,28,0,24],"min_exp":0}\n'),
    ('poly', '--which', 'R', '--n', '3', '--q'): (
        0,
        '{"t":[[],[2,5,5,3,1],[],[1,3,5,6,5,3,1]]}\n'),
    ('bijection', '--name', 'zeta2', '--input', '[4,-2,1,3,8,5,9,-7,6]'): (
        0,
        '[3,-1,2,4,7,5,8,-6]\n'),
    ('bijection', '--name', 'phi1', '--input', '[2,8,-3,4,-7,1,-6,-5]', '--trace'): (
        0,
        '{"result":{"components":[{"child":{"label":2,"left":"empty","rig'
        'ht":{"label":3,"left":{"label":4,"left":"empty","right":{"leaf":'
        '7}},"right":{"label":8,"left":"empty","right":"empty"}}},"color"'
        ':"white","root":1},{"child":{"leaf":6},"color":"black","root":5}'
        ']},"trace":[["i","new-root","1"],["ii","fill-intermediate","1"],'
        '["iii","attach-at-peak","2"],["iii","attach-at-peak","-3"],["i",'
        '"new-root","5"],["ii","fill-intermediate","5"],["iii","attach-at'
        '-peak","4"],["ii","fill-intermediate","3"]]}\n'),
    ('verify', '--check', 'thm-2-10', '--n-max', '5'): (
        0,
        '[{"check_id":"thm-2-10","counterexample":null,"elapsed":0,"n_ran'
        'ge":[1,5],"status":"pass"}]\n'),
}


def readme_commands():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line, comments=True)[1:]) for line in block.strip().splitlines()]


def test_readme_command_line_examples(capsys):
    commands = readme_commands()
    commands.remove(("verify",))
    assert sorted(commands) == sorted(README_EXAMPLES)
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        out = re.sub(r'"elapsed":[0-9.e-]+', '"elapsed":0', out)
        assert (code, out) == README_EXAMPLES[argv], argv


def test_bare_verify_runs_every_check_at_its_default_depth(capsys):
    code, out, _ = run(capsys, "verify")
    reports = json.loads(out)
    assert code == 0
    assert len(reports) == 25
    assert all(r["status"] == "pass" for r in reports)
    assert {r["check_id"]: r["n_range"] for r in reports} == \
        {cid: [1, depth] for cid, (depth, _) in CHECKS.items()}


def run_script(name, *args, **env):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def test_census_size_below_one_is_a_usage_error():
    r = run_script("bijection_census.py", "--n", "0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "argument --n: expected an integer >= 1, got 0" in r.stderr


def test_census_past_the_ceiling_prints_one_line_and_exits_3():
    r = run_script("bijection_census.py", "--n", "3", SNAKE_ATLAS_MAX_N="2")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == "family 'rsi-b' enumeration: n=3 exceeds ceiling 2\n"


def test_census_checks_the_default_ceiling_before_any_size():
    """``--n 9`` stops at once, not after computing every size up to 8."""
    env = {k: v for k, v in os.environ.items() if k != "SNAKE_ATLAS_MAX_N"}
    path = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, str(ROOT / "scripts" / "bijection_census.py"),
                        "--n", "9"], capture_output=True, text=True, timeout=30,
                       env={**env, "PYTHONPATH": path})
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == "family 'rsi-b' enumeration: n=9 exceeds ceiling 8\n"


@pytest.mark.parametrize("name, args", [("bijection_census.py", ("--n", "2")),
                                        ("run_checks.py", ("--n-max", "1"))])
def test_scripts_report_a_bad_ceiling_setting_in_one_line(name, args):
    r = run_script(name, *args, SNAKE_ATLAS_MAX_N="x")
    assert r.returncode == 2
    assert r.stderr == "SNAKE_ATLAS_MAX_N must be an integer, got 'x'\n"


def test_run_checks_rejects_an_unwritable_report_path_before_any_check(tmp_path):
    r = run_script("run_checks.py", "--n-max", "1", "--out", str(tmp_path / "missing" / "r.json"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "argument --out: can't open" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("n", ["0", "-2"])
def test_print_tables_size_below_one_is_a_usage_error(n):
    r = run_script("print_tables.py", "--n", n)
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"argument --n: expected an integer >= 1, got {n}" in r.stderr


@pytest.mark.parametrize("name", ["bijection_census.py", "print_tables.py",
                                  "run_checks.py"])
def test_scripts_import_and_print_help(name):
    r = run_script(name, "--help")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("usage: ")


def test_python_dash_m_matches_cli_main(capsys):
    argv = ["bijection", "--name", "psi-star", "--input", '["e",1,2]']
    code, out, err = run(capsys, *argv)
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    r = subprocess.run([sys.executable, "-m", "snake_atlas", *argv],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert code == 0 and err == ""
    assert (r.returncode, r.stdout, r.stderr) == (code, out, err)


# A right comb 1 -> 2 -> ... -> 1200 along empty left leaves nests deeper
# than the recursion limit.  It ends in the labelled leaf 1200 (star class)
# or in 1200 over two empty leaves (circ class), as each map's domain needs.
STAR_WORD = [x for i in range(1, 1200) for x in ("e", i)] + [1200]
CIRC_WORD = [x for i in range(1, 1201) for x in ("e", i)] + ["e"]
DEEP_NESTED = '{"leaf": 1200}'
for _i in range(1199, 0, -1):
    DEEP_NESTED = f'{{"label": {_i}, "left": "empty", "right": {DEEP_NESTED}}}'


@pytest.mark.parametrize("form", ["word", "nested"])
@pytest.mark.parametrize("name, direction, word", [
    ("gamma", "forward", STAR_WORD), ("psi-cap", "forward", STAR_WORD),
    ("psi-star", "inverse", CIRC_WORD), ("mu", "forward", CIRC_WORD),
    ("phi1-b", "inverse", CIRC_WORD), ("phi2-d", "inverse", STAR_WORD),
], ids=["gamma-forward", "psi-cap-forward", "psi-star-inverse", "mu-forward",
        "phi1-b-inverse", "phi2-d-inverse"])
def test_too_deep_a_tree_is_a_size_ceiling(capsys, form, name, direction, word):
    """Only the nested form is too deep.  The word form is flat: the map
    answers it, and the other direction gives the word back."""
    if form == "nested":
        code, out, err = run(capsys, "bijection", "--name", name,
                             "--direction", direction, "--input", DEEP_NESTED)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert err.startswith("size ceiling exceeded: input nested too deeply ")
        return
    code, out, err = run(capsys, "bijection", "--name", name,
                         "--direction", direction, "--input", json.dumps(word))
    assert code == 0 and err == ""
    back = "inverse" if direction == "forward" else "forward"
    code, out, err = run(capsys, "bijection", "--name", name,
                         "--direction", back, "--input", out)
    assert code == 0 and err == "" and json.loads(out) == word


def test_too_deep_an_output_is_named_as_the_output(capsys):
    # phi1 of this flat window is a white chain 1 -> 2 -> ... -> 3000 down
    # the left children, whose nested forest form is too deep for ``json``
    child = (3000,)
    for k in range(2999, 1, -1):
        child = (k, child, "e")
    window = phi1_inv(((WHITE, 1, child),))
    code, out, err = run(capsys, "bijection", "--name", "phi1",
                         "--input", json.dumps(list(window)))
    assert code == 3 and out == ""
    assert err == ("size ceiling exceeded: output nested too deeply "
                   f"(recursion limit {sys.getrecursionlimit()})\n")
