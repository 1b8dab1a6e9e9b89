import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import rmfact
from rmfact import (
    EvaluationError,
    VerificationError,
    evaluate,
    frequency_grid,
    full_rank_factorize,
    make_dss,
    parse_system_file,
    polynomial_rank2_discrete,
    stable_rank2_continuous,
    write_system_file,
)
from rmfact.cli import _DISPATCH, build_parser, run_command

from support import (
    assert_multiset_close,
    failing_gges,
    overflowing_pencil_system,
    run_cli,
    run_cli_json,
    write_examples,
)


@pytest.fixture()
def examples(tmp_path):
    return write_examples(tmp_path)


def test_system_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    awkward = np.array([[0.1, 1.0 / 3.0, np.pi], [1e-300, -2.5e17, 7.0]])
    g = make_dss(
        rng.standard_normal((2, 2)) * 1e-3,
        None,
        awkward[:, :2].T.copy(),
        awkward[:2, :2],
        awkward[:, 1:],
        "continuous",
    )
    path = tmp_path / "g.json"
    write_system_file(g, str(path))
    h = parse_system_file(str(path))
    assert h.E is None and h.ts == g.ts
    for x, y in ((g.A, h.A), (g.B, h.B), (g.C, h.C), (g.D, h.D)):
        assert np.array_equal(x, y)


def test_descriptor_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    g = make_dss(
        rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)),
        rng.standard_normal((3, 1)),
        rng.standard_normal((2, 3)),
        rng.standard_normal((2, 1)),
        "discrete",
    )
    path = tmp_path / "g.json"
    write_system_file(g, str(path))
    h = parse_system_file(str(path))
    assert np.array_equal(g.E, h.E)
    assert np.array_equal(g.A, h.A) and np.array_equal(g.D, h.D)


def test_zero_state_round_trip(tmp_path):
    g = make_dss(np.zeros((0, 0)), None, np.zeros((0, 3)), np.zeros((2, 0)), np.ones((2, 3)), "continuous")
    path = tmp_path / "g.json"
    write_system_file(g, str(path))
    h = parse_system_file(str(path))
    assert h.n == 0 and h.p == 2 and h.m == 3
    code, out, _ = run_cli(["info", path])
    assert code == 0 and "order 0" in out


def test_missing_file_is_input_error(tmp_path):
    code, _, err = run_cli(["info", tmp_path / "nope.json"])
    assert code == 2
    assert "not found" in err


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"ts": "contínuous"}'.encode("latin-1"))
    return ["info", path], "not UTF-8 text"


def _system_is_a_directory(tmp_path):
    return ["info", tmp_path], f"cannot read system file {tmp_path}"


def _factor_is_a_directory(tmp_path):
    ex1, _ = write_examples(tmp_path)
    return ["verify", ex1, ex1, tmp_path], f"cannot read system file {tmp_path}"


def _out_is_a_file(tmp_path):
    ex1, _ = write_examples(tmp_path)
    return ["frf", ex1, "--out", ex1], f"--out directory {ex1}"


@pytest.mark.parametrize("case", [_not_utf8, _system_is_a_directory, _factor_is_a_directory, _out_is_a_file])
def test_unreadable_input_is_exit_2(tmp_path, case):
    argv, message = case(tmp_path)
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_malformed_json_is_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"ts": "continuous", "A": [[1,')
    code, _, err = run_cli(["info", bad])
    assert code == 2
    assert "invalid JSON" in err


def test_dimension_mismatch_is_input_error(tmp_path):
    doc = {
        "ts": "continuous",
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "E": None,
        "B": [[1.0]],
        "C": [[1.0, 0.0]],
        "D": [[0.0]],
    }
    bad = tmp_path / "mismatch.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["info", bad])
    assert code == 2
    assert "error" in err


def test_eval_at_pole_is_exit_3(examples):
    ex1, _ = examples
    code, _, err = run_cli(["eval", ex1, "--point=-1"])
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("point", ["inf", "nan", "1+infj"])
def test_eval_at_nonfinite_point_is_exit_2(examples, point):
    ex1, _ = examples
    code, out, err = run_cli(["eval", ex1, "--point", point])
    assert code == 2
    assert out == ""
    assert "is not finite" in err


def test_eval_where_the_pencil_overflows_is_exit_2(tmp_path):
    path = tmp_path / "wide.json"
    write_system_file(overflowing_pencil_system(), str(path))
    code, out, err = run_cli(["eval", path, "--point", "1e308"])
    assert code == 2
    assert out == ""
    assert "evaluation point (1e+308+0j) overflows" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{ex1}", "{ex1}", "{ex1}", "--grid", "-2"],
        ["verify", "{ex1}", "{ex1}", "{ex1}", "--seed", "-1"],
        ["frf", "{ex1}", "--grid", "-3"],
        ["frf", "{ex1}", "--grid", "0"],
        ["frf", "{ex1}", "--seed", "-1"],
        ["nrcf", "{ex1}", "--grid", "-3"],
        ["iofac", "{ex1}", "--grid", "-3"],
        ["pinv", "{ex1}", "--grid", "2.5"],
    ],
    ids=["verify-grid", "verify-seed", "frf-grid", "frf-grid-zero", "frf-seed", "nrcf-grid", "iofac-grid", "pinv-grid-fraction"],
)
def test_grid_and_seed_out_of_range_are_exit_2(examples, argv, capsys):
    ex1, _ = examples
    with pytest.raises(SystemExit) as done:
        run_command([str(ex1) if a == "{ex1}" else a for a in argv] + ["--json"])
    assert done.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
def test_verify_threshold_must_be_finite_and_nonnegative(examples, value, capsys):
    ex1, _ = examples
    with pytest.raises(SystemExit) as done:
        run_command(["verify", str(ex1), str(ex1), str(ex1), f"--threshold={value}", "--json"])
    assert done.value.code == 2
    err = capsys.readouterr().err
    assert "argument --threshold" in err and "finite number >= 0" in err


def test_smallest_grid_and_seed_are_accepted(examples):
    ex1, _ = examples
    rep = run_cli_json(["frf", ex1, "--grid", "1", "--seed", "0"])
    assert rep["results"]["grid_points"] == 1


def test_grid_flag_reaches_every_check(examples, tmp_path, monkeypatch):
    # every residual and inner check of every command samples --grid
    # points: the counts of both point generators are recorded
    ex1, ex2 = examples
    frf = run_cli_json(["frf", ex1, "--out", tmp_path / "frf"])["outputs"]
    iofac = run_cli_json(["iofac", ex2, "--out", tmp_path / "io"])["outputs"]
    counts = []

    def record(generator):
        def wrapped(systems_or_ts, count, *args):
            counts.append(count)
            return generator(systems_or_ts, count, *args)
        return wrapped

    monkeypatch.setattr("rmfact.fact.frequency_grid", record(rmfact.fact.frequency_grid))
    monkeypatch.setattr("rmfact.fact.nonpole_evaluations", record(rmfact.fact.nonpole_evaluations))
    for argv in (
        ["frf", ex1],
        ["dual-frf", ex1],
        ["range", ex1, "--inner"],
        ["nrcf", ex1],
        ["pinv", ex2],
        ["iofac", ex1],
        ["verify", ex1, frf["R"], frf["X"]],
        ["verify", ex2, iofac["inner"], iofac["outer"], "--inner"],
    ):
        counts.clear()
        rep = run_cli_json(argv + ["--grid", "5"])
        assert counts and set(counts) == {5}, (argv, counts)
        assert rep["results"].get("grid_points", 5) == 5


@pytest.fixture()
def grid_pole(tmp_path):
    """System files of a discrete 1x1 G whose A rotates by pi/4, so its
    pole e^{i pi/4} is a point of the 4-point frequency grid, and of
    the identity I."""
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    g = make_dss(np.array([[c, -s], [s, c]]), None, np.array([[1.0], [0.0]]),
                 np.array([[1.0, 0.0]]), np.array([[1.0]]), "discrete")
    with pytest.raises(EvaluationError):
        evaluate(g, frequency_grid("discrete", 4)[0])
    ident = make_dss(np.zeros((0, 0)), None, np.zeros((0, 1)), np.zeros((1, 0)), np.eye(1), "discrete")
    paths = tmp_path / "g.json", tmp_path / "i.json"
    write_system_file(g, str(paths[0]))
    write_system_file(ident, str(paths[1]))
    return paths


def test_pinv_skips_a_grid_point_at_a_pole(grid_pole):
    # the Hermitian identities hold where G and G# evaluate; a grid
    # point at a pole is left out of their maximum
    g, _ = grid_pole
    res = run_cli_json(["pinv", g, "--grid", "4"])["results"]["identity_residuals"]
    assert sorted(res) == ["G_Gp_G", "Gp_G_Gp", "hermitian_G_Gp", "hermitian_Gp_G"]
    assert all(np.isfinite(v) and v <= 1e-12 for v in res.values()), res


def test_inner_check_at_a_grid_pole_is_exit_3(grid_pole):
    # an inner factor must evaluate on the whole grid: a pole there
    # fails the check instead of being skipped
    g, ident = grid_pole
    code, out, err = run_cli(["verify", g, g, ident, "--inner", "--grid", "4"])
    assert code == 3 and out == ""
    assert "is a pole to working precision" in err


def test_failed_qz_iteration_is_exit_3(examples, monkeypatch, capsys):
    ex1, _ = examples
    monkeypatch.setattr(rmfact.numkernel, "_lapack", failing_gges(rmfact.numkernel._lapack))
    assert run_command(["info", str(ex1)]) == 3
    assert "QZ iteration failed" in capsys.readouterr().err


def test_nonstabilizable_realization_is_exit_3(tmp_path):
    # [E B] row rank deficient: no feedback can cure the infinite mode
    doc = {
        "ts": "continuous",
        "A": [[1.0]],
        "E": [[0.0]],
        "B": [[0.0]],
        "C": [[1.0]],
        "D": [[1.0]],
    }
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["range", path])
    assert code == 3
    assert "stabilizable" in err


def test_eval_reports_value_at_origin(examples):
    ex1, _ = examples
    rep = run_cli_json(["eval", ex1, "--point", "0"])
    want = [[-0.5, 0.0, 0.5], [0.0, -2.0, -2.0], [-0.5, -1.0, -0.5]]
    got = np.array(rep["results"]["value_real"])
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(rep["results"]["value_imag"], 0.0, atol=1e-12)


def test_info_report_shape(examples):
    ex1, _ = examples
    rep = run_cli_json(["info", ex1])
    assert rep["schema_version"] == 1
    assert rep["command"] == "info"
    inp = rep["input"]
    assert inp["ts"] == "continuous"
    assert inp["order"] == 4 and inp["rows"] == 3 and inp["cols"] == 3
    assert inp["descriptor_E"] is False
    res = rep["results"]
    assert res["normal_rank"] == 2
    assert res["mcmillan_degree"] == 4
    assert_multiset_close([a + 1j * b for a, b in res["poles"]["finite"]], [-1, -1, -2, -2])
    assert_multiset_close([a + 1j * b for a, b in res["zeros"]["finite"]], [1, 2])
    assert sum(e["multiplicity"] for e in res["zeros"]["infinite"]) == 1


def test_klf_report(examples):
    ex1, _ = examples
    rep = run_cli_json(["klf", ex1])
    res = rep["results"]
    assert res["pencil_rows"] == 7 and res["pencil_cols"] == 7
    assert res["right_minimal_indices"] == [0]
    assert res["left_minimal_indices"] == [1]
    assert sorted(res["infinite_divisor_degrees"]) == [1, 2]
    assert_multiset_close([a + 1j * b for a, b in res["finite_eigenvalues"]], [1, 2])


def test_sklf_report(examples):
    ex1, _ = examples
    rep = run_cli_json(["sklf", ex1, "--zeros", "bad"])
    res = rep["results"]
    assert (res["n_rg"], res["n_bl"], res["m_n"], res["r"]) == (1, 3, 0, 2)
    assert res["c1"] == res["n_rg"] + 3 - res["r"]
    rep = run_cli_json(["sklf", ex1, "--zeros", "none"])
    res = rep["results"]
    assert (res["n_rg"], res["n_bl"], res["m_n"], res["r"]) == (3, 1, 0, 2)


def test_range_zero_free_basis_report(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--zeros", "none"])
    block = rep["results"]["R"]
    assert block["mcmillan_degree"] == 1
    assert block["zeros"]["total"] == 0
    assert block["normal_rank"] == 2
    assert rep["results"]["inner"] is False


def test_range_inner_reports_residual(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--inner"])
    assert rep["results"]["inner"] is True
    assert rep["results"]["inner_residual"] <= 1e-8


def test_iofac_report(examples):
    _, ex2 = examples
    rep = run_cli_json(["iofac", ex2])
    res = rep["results"]
    assert res["inner_residual"] <= 1e-8
    assert res["max_relative_residual"] <= 1e-8
    assert res["inner"]["mcmillan_degree"] == 1
    assert_multiset_close([a + 1j * b for a, b in res["outer"]["zeros"]["finite"]], [0, 1])


def test_nrcf_report(examples):
    ex1, _ = examples
    rep = run_cli_json(["nrcf", ex1])
    res = rep["results"]
    assert res["normalization_residual"] <= 1e-8
    assert res["M"]["rows"] == 3 and res["M"]["cols"] == 3
    assert res["N"]["rows"] == 3


def test_pinv_report(examples):
    _, ex2 = examples
    rep = run_cli_json(["pinv", ex2])
    res = rep["results"]["identity_residuals"]
    assert res["G_Gp_G"] <= 1e-7 and res["Gp_G_Gp"] <= 1e-7
    assert res["hermitian_G_Gp"] <= 1e-6 and res["hermitian_Gp_G"] <= 1e-6
    assert rep["results"]["pinv"]["rows"] == 3


def test_frf_writes_factors_that_verify(examples, tmp_path):
    ex1, _ = examples
    outdir = tmp_path / "factors"
    rep = run_cli_json(["frf", ex1, "--out", outdir])
    assert rep["results"]["max_relative_residual"] <= 1e-8
    paths = rep["outputs"]
    code, out, _ = run_cli(["verify", ex1, paths["R"], paths["X"]])
    assert code == 0
    assert "PASSED" in out


def test_iofac_factors_verify_with_inner_check(examples, tmp_path):
    _, ex2 = examples
    outdir = tmp_path / "io"
    rep = run_cli_json(["iofac", ex2, "--out", outdir])
    paths = rep["outputs"]
    code, out, _ = run_cli(["verify", ex2, paths["inner"], paths["outer"], "--inner"])
    assert code == 0
    assert "PASSED" in out


def test_verify_rejects_corrupted_factor(examples, tmp_path):
    ex1, _ = examples
    outdir = tmp_path / "factors"
    rep = run_cli_json(["frf", ex1, "--out", outdir])
    x = parse_system_file(rep["outputs"]["X"])
    doubled = make_dss(x.A, x.E, x.B, 2.0 * x.C, 2.0 * x.D, x.ts)
    bad_path = tmp_path / "X2.json"
    write_system_file(doubled, str(bad_path))
    code, out, err = run_cli(["verify", ex1, rep["outputs"]["R"], bad_path])
    assert code == 4
    assert "FAILED" in out
    assert "error" in err


def test_verify_dimension_guard(examples, tmp_path):
    ex1, ex2 = examples
    code, _, err = run_cli(["verify", ex1, ex1, ex2])
    assert code == 2
    assert "do not" in err


def test_dual_frf_report(examples):
    ex1, _ = examples
    rep = run_cli_json(["dual-frf", ex1])
    res = rep["results"]
    assert res["max_relative_residual"] <= 1e-8
    # dual splits on the left: X is p x r, R is r x m
    assert res["X"]["cols"] == res["R"]["rows"] == 2


def test_repeat_invocations_are_identical(examples):
    ex1, _ = examples
    first = run_cli(["frf", ex1, "--json"])
    second = run_cli(["frf", ex1, "--json"])
    assert first == second


def test_written_factor_files_evaluate(examples, tmp_path):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--zeros", "none", "--out", tmp_path / "r"])
    r = parse_system_file(rep["outputs"]["R"])
    g = stable_rank2_continuous()
    # the written basis spans the range: [R G] keeps rank 2 pointwise
    for s in (0.7, 1.3j, 2.0 + 0.5j):
        stacked = np.hstack([evaluate(r, s), evaluate(g, s)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        assert sv[2] < 1e-10 * sv[0]


def test_tol_flag_is_accepted(examples):
    ex1, _ = examples
    rep = run_cli_json(["range", ex1, "--tol", "1e-12"])
    assert rep["results"]["R"]["normal_rank"] == 2


@pytest.mark.parametrize("argv", [["--tol", "inf"], ["--tol", "nan"], ["--tol=-1e-12"]])
def test_nonfinite_or_negative_tolerance_is_exit_2(examples, argv):
    ex1, _ = examples
    code, out, err = run_cli(["info", ex1, "--json"] + argv)
    assert code == 2
    assert out == ""
    assert "finite and nonnegative" in err


# which of the two costly scipy packages are loaded, after `import
# rmfact.cli` and after the given commands have run in the same process
HYGIENE_PROBE = """
import contextlib, io, json, sys
import rmfact.cli
def loaded():
    return [name for name in ("scipy.signal", "scipy.linalg") if name in sys.modules]
report = {"import": loaded(), "codes": []}
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        report["codes"].append(rmfact.cli.run_command(argv + ["--json"]))
report["run"] = loaded()
print(json.dumps(report))
"""


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    # every subcommand on both example systems, so that no path of a
    # cold command loads either package lazily
    argvs = []
    for name, argv in GOLDEN_COMMANDS.items():
        for ex in (EX1, EX2):
            run = [argv[0], ex] + argv[2:]
            if argv[0] == "verify":
                fr = full_rank_factorize(parse_system_file(str(REPO / ex)))
                stem = pathlib.Path(ex).stem
                run += [write_system_file(fr.left, str(tmp_path / f"L_{stem}.json")),
                        write_system_file(fr.right, str(tmp_path / f"R_{stem}.json"))]
            if run not in argvs:
                argvs.append(run)
    assert sorted({a[0] for a in argvs}) == sorted(
        ["info", "frf", "dual-frf", "nrcf", "pinv", "iofac", "klf", "sklf", "range", "eval", "verify"]
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rmfact.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", HYGIENE_PROBE, json.dumps(argvs)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(done.stdout)
    assert report == {"import": [], "codes": [0] * len(argvs), "run": []}


# `rmfact <cmd> --json` reports on the shipped example systems, pinned
# byte for byte; the report carries the system path as given, so the
# commands run from the repository root with relative paths
REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EX1, EX2 = "demos/data/ex1.json", "demos/data/ex2.json"
GOLDEN_COMMANDS = {
    "info_ex1": ["info", EX1],
    "frf_ex1": ["frf", EX1, "--zeros", "none"],
    "dual_frf_ex1": ["dual-frf", EX1],
    "nrcf_ex1": ["nrcf", EX1],
    "pinv_ex1": ["pinv", EX1],
    "iofac_ex1": ["iofac", EX1],
    "info_ex2": ["info", EX2],
    "frf_ex2": ["frf", EX2, "--zeros", "none"],
    "dual_frf_ex2": ["dual-frf", EX2],
    "nrcf_ex2": ["nrcf", EX2],
    "pinv_ex2": ["pinv", EX2],
    "iofac_ex2": ["iofac", EX2],
    "klf_ex1": ["klf", EX1],
    "sklf_ex2": ["sklf", EX2],
    "range_ex1": ["range", EX1, "--zeros", "bad"],
    "eval_ex2": ["eval", EX2, "--point", "0.5+0.5j"],
    "verify_ex1": ["verify", EX1],
}


@pytest.mark.parametrize("name", list(GOLDEN_COMMANDS))
def test_json_report_matches_golden(name, monkeypatch, tmp_path):
    monkeypatch.chdir(REPO)
    argv = GOLDEN_COMMANDS[name]
    if argv[0] == "verify":
        fr = full_rank_factorize(parse_system_file(EX1))
        argv = argv + [write_system_file(fr.left, str(tmp_path / "L.json")),
                       write_system_file(fr.right, str(tmp_path / "R.json"))]
    code, out, err = run_cli(argv + ["--json"])
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


# flags that a subcommand once took and its handler never read
IGNORED_FLAGS = (
    [("sklf", ["--stabilize"]), ("sklf", ["--inner"])]
    + [(command, flag) for command in ("info", "klf", "sklf", "eval") for flag in (["--grid", "5"], ["--seed", "0"])]
    + [("eval", ["--tol", "0"]), ("range", ["--seed", "0"]), ("nrcf", ["--seed", "0"])]
)


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS, ids=[f"{c}{f[0]}" for c, f in IGNORED_FLAGS])
def test_a_flag_the_handler_ignores_is_exit_2(examples, command, flag, capsys):
    ex1, _ = examples
    point = ["--point", "0.5"] if command == "eval" else []
    with pytest.raises(SystemExit) as done:
        run_command([command, str(ex1), *point, *flag, "--json"])
    assert done.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class ReadRecorder(argparse.Namespace):
    """Parsed arguments that record the name of every attribute read."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


def test_every_subcommand_reads_every_flag_it_defines(tmp_path, monkeypatch):
    # each handler, run on both examples with the default flags and with
    # each switch set in turn, reads every dest its subparser defines: a
    # flag it never reads is dead
    monkeypatch.chdir(REPO)
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert sorted(subparsers) == sorted(_DISPATCH)
    for command, subparser in subparsers.items():
        switches = [a.option_strings[0] for a in subparser._actions if isinstance(a, argparse._StoreTrueAction)]
        reads = set()
        for ex in (EX1, EX2):
            extra = {"eval": ["--point", "0.5+0.5j"]}.get(command, [])
            if command == "verify":
                fr = full_rank_factorize(parse_system_file(ex))
                extra = [write_system_file(f, str(tmp_path / f"{side}.json")) for side, f in (("L", fr.left), ("R", fr.right))]
            for switch in [[]] + [[s] for s in switches]:
                args = parser.parse_args([command, ex, *extra, *switch], namespace=ReadRecorder())
                args._reads.clear()
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert _DISPATCH[command](args) == 0
                except VerificationError:
                    assert switch == ["--inner"]  # the full-rank left factor is not inner
                reads |= args._reads
        dests = {action.dest for action in subparser._actions if action.dest != "help"}
        assert dests - reads == set(), command
