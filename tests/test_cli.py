import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qubitgeom as qg
from qubitgeom import cli

from test_dynamics import _reference_csv

GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "qubitgeom.cli", *args],
        capture_output=True,
        # the width argparse wraps its help to; any warning ends the process, exit 1
        env=dict(os.environ, COLUMNS="80", PYTHONWARNINGS="error"),
    )
    if check:
        assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["check", "--eta", "-1", "-1", "-1"], "check_universal_not.json"),
        (["project", "--eta", "-1", "-1", "-1"], "project_universal_not.json"),
        (["qkd", "--protocol", "four-state", "--dmax", "0.25"],
         "qkd_four_state_dmax025.json"),
        (["dynamics", "--alpha2", "0.2", "0.3", "0.5", "--tmax", "3", "--steps", "200"],
         "dynamics_alpha2_steps200.csv"),
        # a non-diagonal CP channel: the canonical form's factors reach the network
        (["compile", "--in", str(GOLDEN_DIR / "rotated_channel.json")], "compile_rotated.json"),
        (["run", "--in", str(GOLDEN_DIR / "rotated_channel.json")], "run_rotated.json"),
        (["run", "--catalog", "depolarize:0.5", "--state", "0", "0", "1", "--n", "10000",
          "--seed", "1"], "run_depolarize_sampled.json"),
        (["design", "--eta", "0.2", "-0.1", "0.05"], "design_eta.json"),
        (["sw", "--eta", "-0.9", "-0.8", "-0.7"], "sw_eta.json"),
        (["qkd", "--protocol", "six-state", "--dmax", "0.2", "--grid-resolution", "0.002"],
         "qkd_six_state_grid.json"),
        (["canon", "--in", str(GOLDEN_DIR / "rotated_channel.json")], "canon_rotated.json"),
        (["-h"], "help.txt"),  # every verb's parser
        (["check", "-h"], "help_check.txt"),  # the named verb's alone
        (["qkd", "--protocol", "four-state", "--dmax", "0.4", "--grid-resolution", "0.005"],
         "qkd_four_state_grid.json"),
        # its last six rows have t >= 10, which the renderer formats with "%.17g"
        (["dynamics", "--alpha2", "0.2", "0.3", "0.5", "--tmax", "12.3", "--steps", "30"],
         "dynamics_tmax12.csv"),
    ],
)
def test_goldens_byte_identical(argv, golden):
    out = run_cli(*argv).stdout
    assert out == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("argv,stderr", [
    (["compile", "--eta", "-1", "-1", "-1"],
     b'{"error": "NotCP", "message": "channel is not CP (Choi min eigenvalue -5.000e-01)"}\n'),
    (["design", "--eta", "-1", "-1", "-1"],
     b'{"error": "NotCP", "message": "target [-1.0, -1.0, -1.0] is not a CP diagonal channel"}\n'),
    # the least weight, -7.5e307, as it is: its face slack -4 p overflows
    (["compile", "--eta", "-1e308", "-1e308", "-1e308"],
     b'{"error": "NotCP", "message": "channel is not CP (Choi min eigenvalue -7.500e+307)"}\n'),
])
def test_not_cp_refusal_bytes(argv, stderr):
    proc = run_cli(*argv, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", stderr)


@pytest.mark.parametrize("argv,golden", [([], "no_verb.stderr"), (["bogus"], "bogus_verb.stderr")])
def test_argparse_refusal_bytes(argv, golden):
    """With no verb or an unknown one, every verb's parser is built: argparse's message is whole."""
    proc = run_cli(*argv, check=False)
    expected = (GOLDEN_DIR / golden).read_bytes()
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", expected)


def test_usage_and_unknown_verb_refusal_are_the_clis_own(monkeypatch):
    """The usage line, whatever the width, and the unknown-verb refusal from the unquoted
    choices that Python 3.13's argparse writes: the bytes of help.txt and bogus_verb.stderr."""
    usage = (GOLDEN_DIR / "help.txt").read_text().split("\n\n")[0] + "\n"
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli._build_parser().format_usage() == usage
    unquoted = f"argument verb: invalid choice: 'bogus' (choose from {', '.join(cli.VERBS)})"
    with pytest.raises(cli._ArgumentError) as exc:
        cli._Parser().error(unquoted)
    assert (GOLDEN_DIR / "bogus_verb.stderr").read_text() == cli.qg.serialize.dumps(
        {"error": "_ArgumentError", "message": str(exc.value)}) + "\n"


def test_main_builds_only_the_named_verb(monkeypatch, capsys):
    """main builds one subparser when argv[0] names a verb exactly, else all of them."""
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser",
                        lambda verbs=cli.VERBS: built.append(sorted(verbs)) or build(verbs))
    for argv in (["check", "--eta", "1", "1", "1"], ["sw", "-h"], [], ["-h"], ["bogus"], ["chec"],
                 ["--", "check"]):
        cli.main(argv)
    every = sorted(cli.VERBS)
    assert built == [["check"], ["sw"], every, every, every, every, every]
    capsys.readouterr()


@pytest.mark.parametrize("verb", sorted(cli.VERBS))
def test_one_verb_parser_reads_as_the_full_one(verb):
    """The named verb's parser writes the same help, and parses the same namespace."""
    alone, full = cli._build_parser([verb]), cli._build_parser()
    helps = []
    for parser in (alone, full):
        with pytest.raises(cli._Help) as answer:
            parser.parse_args([verb, "-h"])
        helps.append(str(answer.value))
    assert helps[0] == helps[1]
    for argv in _VERB_ARGVS[verb]:
        assert vars(alone.parse_args([verb, *argv])) == vars(full.parse_args([verb, *argv]))


def test_huge_state_error_is_one_json_object():
    """A Bloch vector whose s . s would overflow is refused before the dot, so
    stderr holds the JSON error alone, with no numpy warning ahead of it."""
    proc = run_cli("run", "--catalog", "identity", "--state", "1e155", "0", "0", "--n", "10",
                   check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr) == {"error": "UnphysicalBloch", "message": "|s| = 1e+155 exceeds 1"}


@pytest.mark.parametrize("argv,error", [
    (["weights", "--from-p", "1e308", "-1e308", "0.5", "0.5"], "NonFiniteInput"),
    (["weights", "--from-p", "1e308", "1e308", "-1e308", "-1e308"], "NonFiniteInput"),
    (["project", "--catalog", "depolarize:0.5", "--fix", "x=1e300"], "EmptyIntersection"),
    (["project", "--catalog", "depolarize:0.5", "--fix", "x=1.7e308"], "EmptyIntersection"),
])
def test_overflowing_input_error_is_one_json_object(argv, error):
    """Under -W error any numpy warning would end the process first: stderr holds the JSON error alone."""
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "qubitgeom.cli", *argv],
                          capture_output=True)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1 and json.loads(proc.stderr)["error"] == error


@pytest.mark.parametrize("verb", ["check", "canon", "compile", "run"])
def test_overflowing_singular_value_error_is_one_json_object(verb, tmp_path):
    """A finite A of 1.7e308 has a singular value past the largest double: NonFiniteInput,
    where a CP verdict, a canonical form or a NotCP message would read inf."""
    f = tmp_path / "ch.json"
    f.write_text(json.dumps({"A": [[1.7e308] * 3] * 3}))
    proc = run_cli(verb, "--in", str(f), check=False)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    assert json.loads(proc.stderr) == {"error": "NonFiniteInput", "message": "a singular value overflows"}


def test_dumps_null_and_unknown_type():
    assert qg.serialize.dumps(None) == "null"
    with pytest.raises(TypeError, match="cannot serialize"):
        qg.serialize.dumps(object())


def test_golden_values():
    # the committed bytes encode the expected numbers
    obj = json.loads((GOLDEN_DIR / "check_universal_not.json").read_text())
    assert obj == {"cp": False, "min_eigenvalue": -0.5}
    obj = json.loads((GOLDEN_DIR / "project_universal_not.json").read_text())
    assert np.max(np.abs(np.array(obj["eta"]) + 1 / 3)) < 1e-12
    obj = json.loads((GOLDEN_DIR / "qkd_four_state_dmax025.json").read_text())
    assert obj["eta"] == [0.5, 0, 0.5]
    assert abs(obj["p_c"] - (0.5 + 0.5 * np.sqrt(11 / 12))) < 1e-12


def test_verb_table_covers_subcommands():
    parser = cli._build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    assert set(cli.VERBS) == set(sub.choices) == set(_VERB_ARGVS)


def test_verb_table_operations_exist_and_unique():
    seen = {}
    for verb, entry in cli.VERBS.items():
        for op in entry.operations:
            assert hasattr(qg, op), op
            assert op not in seen, f"{op} owned by {seen.get(op)} and {verb}"
            seen[op] = verb


# argvs that between them reach every operation a verb lists
_VERB_ARGVS = {
    "check": [["--eta", "1", "1", "1"]],
    "choi": [["--eta", "0", "0", "0"]],
    "weights": [["--eta", "0", "0", "0"], ["--from-p", "0.25", "0.25", "0.25", "0.25"]],
    "project": [["--eta", "-1", "-1", "-1"], ["--eta", "1", "1", "0", "--fix", "z=0"]],
    "canon": [["--catalog", "transpose"]],
    "compile": [["--catalog", "depolarize:0.5"]],
    "run": [["--eta", ".5", ".5", ".5"], ["--eta", ".5", ".5", ".5", "--n", "100"]],
    "dynamics": [["--alpha2", ".3", ".3", ".4", "--steps", "2"],
                 ["--alpha2", ".3", ".3", ".4", "--oracle-state", "0", "0", "1", "--t", "1"]],
    "design": [["--eta", "0", "0", "0"]],
    "qkd": [["--protocol", "four-state", "--dmax", "0.25", "--grid-resolution", "0.01"]],
    "sw": [["--catalog", "universal_not"]],
}


def _spy(fn, name, called):
    def spy(*args, **kwargs):
        called.add(name)
        return fn(*args, **kwargs)
    return spy


@pytest.mark.parametrize("verb", sorted(_VERB_ARGVS))
def test_verb_runs_its_operations(verb, monkeypatch, capsys):
    called = set()
    for op in cli.VERBS[verb].operations:
        fn = getattr(qg, op)
        monkeypatch.setattr(sys.modules[fn.__module__], op, _spy(fn, op, called))
    for argv in _VERB_ARGVS[verb]:
        assert cli.main([verb, *argv]) == 0, capsys.readouterr().err
    assert called == set(cli.VERBS[verb].operations)


def test_check_json_file_input(tmp_path):
    f = tmp_path / "ch.json"
    f.write_text('{"eta": [1.0, -1.0, 1.0]}')
    out = json.loads(run_cli("check", "--in", str(f)).stdout)
    assert out["cp"] is False and abs(out["min_eigenvalue"] + 0.5) < 1e-12


def test_input_source_required():
    proc = run_cli("check", check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "error" in err and "message" in err


def test_two_input_sources_rejected():
    proc = run_cli("check", "--eta", "1", "1", "1", "--catalog", "identity",
                   check=False)
    assert proc.returncode == 2


def test_catalog_input():
    out = json.loads(run_cli("sw", "--catalog", "universal_not").stdout)
    assert out["p"] == 0
    assert out["cp2"] == [-1, 1, -1]
    out = json.loads(run_cli("check", "--catalog", "depolarize:0.5").stdout)
    assert out["cp"] is True


def test_choi_verb():
    out = json.loads(run_cli("choi", "--eta", "0", "0", "0").stdout)
    C = np.array(out["choi"])  # entries as [re, im] pairs
    assert C.shape == (4, 4, 2)
    assert np.max(np.abs(C[..., 0] - np.eye(4) / 4)) < 1e-12
    assert np.max(np.abs(C[..., 1])) < 1e-12


def test_weights_verb_and_inverse():
    out = json.loads(run_cli("weights", "--catalog", "transpose").stdout)
    assert out["p"] == [0.5, 0.5, -0.5, 0.5]
    assert out["signed"] is True
    out = json.loads(
        run_cli("weights", "--catalog", "identity", "--from-p",
                "0", "0.5", "0.5", "0").stdout
    )
    assert out["eta"] == [0, 0, -1]


def test_project_with_fix():
    out = json.loads(run_cli("project", "--eta", "1", "1", "0", "--fix", "z=0").stdout)
    assert np.max(np.abs(np.array(out["eta"]) - [0.5, 0.5, 0.0])) < 1e-12


def test_canon_verb():
    out = json.loads(run_cli("canon", "--catalog", "transpose").stdout)
    Q, delta, R = np.array(out["Q"]), np.array(out["delta"]), np.array(out["R"])
    recon = Q @ np.diag(delta) @ Q.T @ R
    assert np.max(np.abs(recon - np.diag([1.0, -1.0, 1.0]))) < 1e-10


def test_compile_and_run_verbs():
    out = json.loads(run_cli("compile", "--eta", "0", "0", "0").stdout)
    assert out["amplitudes"] == [0.5, 0.5, 0.5, 0.5]
    out = json.loads(
        run_cli("run", "--eta", "0.5", "0.5", "0.5", "--state", "0", "0", "1").stdout
    )
    assert np.max(np.abs(np.array(out["bloch"]) - [0, 0, 0.5])) < 1e-12
    out = json.loads(
        run_cli("run", "--eta", "0", "0", "0", "--n", "1000", "--seed", "5").stdout
    )
    assert out["n"] == 1000 and out["seed"] == 5
    assert out["generator"] == "numpy-pcg64"


def test_run_sampled_byte_stable():
    args = ("run", "--eta", "0.2", "0.3", "0.4", "--n", "5000", "--seed", "9")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_dynamics_verb_csv():
    out = run_cli("dynamics", "--alpha2", "0.333333333333333333",
                  "0.333333333333333333", "0.333333333333333333",
                  "--tmax", "3.14159", "--steps", "10").stdout.decode()
    lines = out.strip().split("\n")
    assert lines[0] == "t,eta_x,eta_y,eta_z"
    assert len(lines) == 12


@pytest.mark.parametrize("seed,tmax", [(7, None), (8, "1e17")])
def test_dynamics_csv_matches_per_value_format(seed, tmax):
    # tmax 1e17 sends the times through format's exponent notation
    rng = np.random.default_rng(seed)
    alpha2 = rng.dirichlet(np.ones(3))
    steps = int(rng.integers(50, 400))
    tmax = float(tmax or rng.uniform(0.5, 4.0))
    out = run_cli("dynamics", "--alpha2", *map(repr, alpha2.tolist()),
                  "--tmax", repr(tmax), "--steps", str(steps)).stdout
    traj = qg.trajectory(qg.CouplingSpec.from_alpha2(alpha2), np.linspace(0.0, tmax, steps + 1))
    assert out == _reference_csv(traj).encode()


def test_dynamics_oracle_flag():
    out = json.loads(
        run_cli("dynamics", "--alpha2", "0.3333333333333333", "0.3333333333333333",
                "0.3333333333333334", "--oracle-state", "0", "0", "1",
                "--t", "1.0471975511965976").stdout
    )
    assert np.max(np.abs(np.array(out["bloch"]))) < 1e-8
    assert np.max(np.abs(np.array(out["eta"]))) < 1e-12


def test_design_verb():
    out = json.loads(run_cli("design", "--eta", "0", "0", "0").stdout)
    assert np.max(np.abs(np.array(out["alpha2"]) - 1 / 3)) < 1e-12
    assert abs(out["t"] - np.pi / 3) < 1e-12


def test_qkd_verb_with_grid():
    out = json.loads(
        run_cli("qkd", "--protocol", "six-state", "--dmax", "0.25",
                "--grid-resolution", "0.001").stdout
    )
    assert out["eta"] == [0.5, 0.5, 0.5]
    assert np.max(np.abs(np.array(out["grid_eta"]) - 0.5)) < 1e-3 + 1e-12


def _positional(v):
    # shortest exact round trip; "-6.666666666666667e-10" must parse as a number
    return repr(float(v))


def _verdicts(capsys, eta, fmt=_positional):
    """(check cp, not weights signed, sw p == 1, compile ok, design ok,
    project returns eta) from the CLI verbs, run in process."""
    args = ["--eta", *map(fmt, eta)]
    out = {}
    for verb in ("check", "weights", "sw", "compile", "design", "project"):
        code = cli.main([verb, *args])
        text = capsys.readouterr()
        out[verb] = json.loads(text.out) if code == 0 else json.loads(text.err)["error"]
    return (out["check"]["cp"], not out["weights"]["signed"], out["sw"]["p"] == 1.0,
            out["compile"] != "NotCP", out["design"] != "NotCP",
            np.array_equal(out["project"]["eta"], eta))


def test_verbs_agree_in_the_tolerance_band(capsys):
    from test_channel import _band_points

    eta = -(1 / 3 + 1e-10) * np.ones(3)  # face slack 3e-10: CP by every verb
    assert _verdicts(capsys, eta) == (True,) * 6
    for eta in _band_points():  # face slack 2e-9 to 3e-9: CP by none
        assert _verdicts(capsys, eta) == (False,) * 6
    eta = _band_points()[1]  # the same values without exponent notation
    assert _verdicts(capsys, eta, lambda v: np.format_float_positional(v, unique=True)) \
        == (False,) * 6


def test_negative_numbers_in_exponent_notation(capsys):
    assert cli.main(["check", "--eta", "0.5", "-2e-10", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["cp"] is True
    assert cli.main(["run", "--eta", "1", "1", "1", "--state", "-1E+0", "0", "-0.0e0"]) == 0
    assert json.loads(capsys.readouterr().out)["bloch"] == [-1, 0, 0]
    assert cli.main(["dynamics", "--alpha2", "-1e-3", ".5", ".5", "--steps", "1"]) == 2
    assert "must be nonnegative" in json.loads(capsys.readouterr().err)["message"]
    for argv in (["check", "--eta", "-inf", "0", "0"], ["check", "--eta", "0", "-nan", "0"],
                 ["run", "--eta", "1", "1", "1", "--state", "-inf", "0", "0"]):
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteInput"


def test_validation_error_exit_code():
    proc = run_cli("qkd", "--protocol", "four-state", "--dmax", "0.7", check=False)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "DisturbanceOutOfRange"


def test_missing_file_exit_code():
    proc = run_cli("check", "--in", "/nonexistent/ch.json", check=False)
    assert proc.returncode == 2


def test_non_finite_eta_exit_code(tmp_path):
    proc = run_cli("check", "--eta", "nan", "0", "0", check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "NonFiniteInput"
    f = tmp_path / "ch.json"
    f.write_text('{"eta": [NaN, 0, 0]}')
    assert run_cli("check", "--in", str(f), check=False).returncode == 2


@pytest.mark.parametrize("steps", ["0", "-1"])
def test_dynamics_rejects_empty_grid(steps):
    proc = run_cli("dynamics", "--alpha2", ".3", ".3", ".4", "--steps", steps,
                   check=False)
    assert proc.returncode == 2 and proc.stdout == b""
    err = json.loads(proc.stderr)
    assert "error" in err and "--steps" in err["message"]


@pytest.mark.parametrize("tmax,code", [("-1e-300", 2), ("-0.0", 0), ("0", 0)])
def test_dynamics_refuses_a_negative_tmax(tmax, code):
    proc = run_cli("dynamics", "--alpha2", ".3", ".3", ".4", "--tmax", tmax, "--steps", "2",
                   check=False)
    assert proc.returncode == code
    if code:
        assert proc.stdout == b""
        assert json.loads(proc.stderr) == {"error": "_ArgumentError",
                                           "message": f"--tmax must be >= 0, got {float(tmax)}"}


@pytest.mark.parametrize("argv,error", [
    (["qkd", "--protocol", "four-state", "--dmax", "0", "--grid-resolution", "0.03"],
     "EmptyIntersection"),
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--tmax", "nan", "--steps", "2"],
     "NonFiniteInput"),
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--oracle-state", "0", "0", "1",
      "--t", "inf"], "NonFiniteInput"),
    (["run", "--eta", ".5", ".5", ".5", "--state", "nan", "0", "0"], "NonFiniteInput"),
    (["run", "--eta", ".5", ".5", ".5", "--state", "nan", "0", "0", "--n", "10"],
     "NonFiniteInput"),
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--oracle-state", "nan", "0", "0",
      "--t", "1"], "NonFiniteInput"),
    (["weights", "--eta", "0", "0", "0", "--from-p", "nan", "0", "0", "1"], "NonFiniteInput"),
    (["project", "--eta", "1", "1", "0", "--fix", "z=nan"], "NonFiniteInput"),
    (["check", "--catalog", "depolarize:abc"], "_ArgumentError"),
    (["project", "--eta", "1", "1", "1", "--fix", "z=abc"], "_ArgumentError"),
    (["check", "--in", '{"eta": "abc"}'], "BadDimension"),
    (["check", "--in", '{"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": "x"}'], "BadDimension"),
    (["check", "--in", '"eta"'], "BadDimension"),
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--tmax", "-inf", "--steps", "4"],
     "NonFiniteInput"),  # no numpy warning before the one JSON object on stderr
    (["check", "--in", '{"eta": [true, false, 0]}'], "BadDimension"),  # numpy reads 1, 0
    (["canon", "--in", '{"A": [[true, 0, 0], [0, true, 0], [0, 0, false]], "b": [false, 0, 0]}'],
     "BadDimension"),
    (["check", "--in", b"\xff"], "_ArgumentError"),  # not UTF-8
    (["check", "--in", '{"eta": [' + "1" * 5000 + ', 0, 0]}'], "_ArgumentError"),  # past the int digit limit
    (["check", "--in", '{"A": [["1", 0, 0], [0, 1, 0], [0, 0, 1]]}'], "BadDimension"),  # numpy reads 1
    (["check", "--in", '{"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": ["0", 0, 0]}'],
     "BadDimension"),
    (["check", "--in", '{"eta": ["1", "1", "1"]}'], "BadDimension"),
    (["sw", "--in", '{"A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b": [0.1, 0, 0]}'],
     "_ArgumentError"),  # this verb needs a diagonal unital channel
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--oracle-state", "0", "0", "1"],
     "_ArgumentError"),  # --oracle-state requires --t
    (["dynamics", "--alpha2", ".3", ".3", ".4", "--tmax", "-1"],
     "_ArgumentError"),  # a negative --tmax gives no grid; -0.0 and 0 do
])
def test_validation_errors_exit_2(argv, error, tmp_path):
    if "--in" in argv:  # the argument after --in is the file's content
        f = tmp_path / "ch.json"
        content = argv[-1]
        f.write_bytes(content) if isinstance(content, bytes) else f.write_text(content)
        argv = [*argv[:-1], str(f)]
    proc = run_cli(*argv, check=False)
    assert proc.returncode == 2 and proc.stdout == b""
    assert json.loads(proc.stderr)["error"] == error


def test_bad_matrix_shape_exit_code(tmp_path):
    f = tmp_path / "ch.json"
    f.write_text('{"A": [[1, 0], [0, 1]]}')
    proc = run_cli("check", "--in", str(f), check=False)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "BadDimension"


def test_entry_exits_with_mains_code(monkeypatch, capsys):
    events = []
    main = cli.main
    monkeypatch.setattr(cli, "main", lambda argv=None: events.append("main") or main(argv))
    monkeypatch.setattr(os, "_exit", lambda code: events.append(("exit", code)))  # not the test process
    monkeypatch.setattr(sys, "argv", ["qubitgeom", "check", "--eta", "-1", "-1", "-1"])
    cli.entry()
    assert events == ["main", ("exit", 0)]
    assert capsys.readouterr().out == (GOLDEN_DIR / "check_universal_not.json").read_text()


class _FailingStream(io.StringIO):
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
def test_entry_failed_flush_exits_nonzero(stream, monkeypatch):
    """entry ends the process without teardown, so the interpreter's exit flush
    never runs: a flush that fails in entry exits 120, as that one would."""
    codes = []
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr(sys, stream, _FailingStream())
    monkeypatch.setattr(sys, "argv", ["qubitgeom", "check", "--eta", "-1", "-1", "-1"])
    cli.entry()
    assert codes == [120]


def test_closed_stdout_exits_nonzero():
    """A reader that has gone away: the flush of the buffered answer, or the write
    itself under PYTHONUNBUFFERED, fails with EPIPE; the process exits 120 and
    prints no traceback. The help of -h is an answer like any other."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["check", "--eta", "0", "0", "0"], ["-h"], ["check", "-h"]):
            for unbuffered in ("", "1"):  # an empty PYTHONUNBUFFERED counts as unset
                proc = subprocess.run([sys.executable, "-m", "qubitgeom.cli", *argv],
                                      stdout=write_end, stderr=subprocess.PIPE, timeout=60,
                                      env=dict(os.environ, PYTHONUNBUFFERED=unbuffered))
                assert (proc.returncode, proc.stderr) == (120, b""), (argv, unbuffered)
    finally:
        os.close(write_end)


def test_missing_stdout_exits_120():
    """With file descriptor 1 closed, sys.stdout is None: an answer exits 120 with
    no traceback, and an input error still exits 2 with its JSON on stderr."""
    script = 'exec "$0" -m qubitgeom.cli "$@" >&-'
    for argv, code in ((["check", "--eta", "0", "0", "0"], 120), (["check", "-h"], 120),
                       (["check", "--eta", "x", "0", "0"], 2)):
        proc = subprocess.run(["sh", "-c", script, sys.executable, *argv],
                              capture_output=True, timeout=60)
        assert proc.returncode == code, (argv, proc.stderr)
        if code == 120:
            assert proc.stderr == b""
        else:
            assert json.loads(proc.stderr)["error"] == "_ArgumentError"


def test_import_loads_only_the_core_modules():
    """import qubitgeom loads errors, linalg, geometry and channel (and numpy); the
    other modules and their names load on first access, and dir() lists them all."""
    script = """if True:
        import sys
        import qubitgeom as qg
        lazy = ["qubitgeom.dynamics", "qubitgeom.network", "qubitgeom.qkd", "qubitgeom.serialize"]
        assert "numpy" in sys.modules
        assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)
        public = [n for n in dir(qg) if not n.startswith("_")]
        submodules = ["channel", "dynamics", "errors", "geometry", "linalg", "network", "qkd", "serialize"]
        assert public == sorted(qg.__all__ + submodules), public
        assert len(set(qg.__all__)) == len(qg.__all__) == 55
        from qubitgeom import network
        assert "qubitgeom.qkd" not in sys.modules and qg.compile_channel is network.compile_channel
        for name in qg.__all__:  # each the object its defining module holds
            obj = getattr(qg, name)
            assert getattr(sys.modules[obj.__module__], name) is obj, name
        for name in submodules:
            assert getattr(qg, name) is sys.modules["qubitgeom." + name], name
        assert [n for n in dir(qg) if not n.startswith("_")] == public
        try:
            qg.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'qubitgeom' has no attribute 'no_such_name'"
        else:
            raise AssertionError("qg.no_such_name resolved")
    """
    subprocess.run([sys.executable, "-c", script], check=True)


@pytest.mark.parametrize("verb", sorted(_VERB_ARGVS))
def test_cli_process_imports_one_verb_module(verb):
    """Each verb loads at most one of dynamics, network and qkd."""
    argv = [verb, *_VERB_ARGVS[verb][0]]
    script = ("import sys\nfrom qubitgeom import cli\ncli.main(sys.argv[1:])\n"
              "print(sorted(m for m in sys.modules if m in "
              "('qubitgeom.dynamics', 'qubitgeom.network', 'qubitgeom.qkd')))")
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          check=True)
    loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert loaded == {"compile": ["qubitgeom.network"], "run": ["qubitgeom.network"],
                      "dynamics": ["qubitgeom.dynamics"], "design": ["qubitgeom.dynamics"],
                      "qkd": ["qubitgeom.qkd"]}.get(verb, [])


@pytest.mark.parametrize("verb", ["check", "dynamics", "qkd"])
def test_cli_process_does_not_load_dataclasses(verb):
    """The value types generate no code: a real process never imports dataclasses."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qubitgeom.cli", verb,
                           *_VERB_ARGVS[verb][0]], capture_output=True, text=True, check=True)
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "qubitgeom.channel" in imported and "dataclasses" not in imported


@pytest.mark.parametrize("depth,error", [(900, "BadDimension"), (100_000, "_ArgumentError")])
def test_deeply_nested_in_exits_2(depth, error, tmp_path, capsys):
    """A 900-deep A fails the number check, past numpy's 64 dimensions; json.load itself
    gives up on 100,000 lists. Neither is an internal fault."""
    f = tmp_path / "deep.json"
    f.write_text('{"A": ' + "[" * depth + "1" + "]" * depth + "}")
    assert cli.main(["check", "--in", str(f)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_frozen_process_loses_nothing_at_exit(capsys):
    """python -m qubitgeom.cli runs entry(), which ends the process without
    teardown: its output equals main()'s in process, to the last byte."""
    argv = ["dynamics", "--alpha2", "0.2", "0.3", "0.5", "--steps", "20000"]
    assert cli.main(argv) == 0
    proc = run_cli(*argv)
    assert proc.stdout.decode() == capsys.readouterr().out and proc.stderr == b""
    assert proc.stdout.count(b"\n") == 20002
    proc = run_cli("dynamics", "--alpha2", "0.2", "0.3", "0.5", "--steps", "0", check=False)
    assert proc.returncode == 2 and proc.stdout == b""
    err = proc.stderr.decode()
    assert err.endswith("\n") and err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}
