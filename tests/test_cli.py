import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adjointkit
from adjointkit import cli, network, selftest, stability, sturm
from adjointkit.cli import _csv, build_parser, main
from adjointkit.core import AdjointReport
from adjointkit.errors import NumericalError
from adjointkit.stability import (SeirsModel, damped_oscillator, hurwitz_check,
                                  jacobian_verdict, linearize, r0,
                                  stability_verdict)
from adjointkit.sturm import MAX_SL_NODES

EXAMPLE_RECORD = {"rows": 2, "cols": 3,
                   "entries": [2.0, 0.0, 1.0, 2.0, 4.0 / 3.0, 1.0 / 3.0]}
# finite entries whose norm overflows
OVERFLOW_RECORD = {"rows": 2, "cols": 2, "entries": [1e308, 1e308, 1e308, 1e308]}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- plumbing ------------------------------------------------------------------

def test_unknown_flag_rejected(capsys):
    code, out, err = run(capsys, "svd", "--op", "x.json", "--bogus")
    assert code == 2
    assert "usage" in err.lower()


def test_malformed_json_exit_2_no_output(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run(capsys, "svd", "--op", str(bad))
    assert code == 2
    assert out == ""
    assert err != ""


def test_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "svd", "--op", str(tmp_path / "none.json"))
    assert code == 2
    assert out == ""


def test_numerical_failure_exit_3_with_diagnostic(capsys, tmp_path):
    f = write_json(tmp_path / "f.json", {"rows": 2, "cols": 2,
                                         "entries": [1.0, 0.0, 0.0, 1.0]})
    v = write_json(tmp_path / "v.json", {"rows": 2, "cols": 2,
                                         "entries": [0.0, 0.0, 0.0, 0.0]})
    code, out, err = run(capsys, "r0", "--F", f, "--V", v)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "numerical-failure"


def test_output_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", EXAMPLE_RECORD)
    target = tmp_path / "result.json"
    code, out, err = run(capsys, "adjoint-check", "--op", op,
                         "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["max_defect"] <= 1e-12


# every subcommand with --output: argv templates over the files of output_case_files
OUTPUT_CASES = {
    "adjoint-check": ("adjoint-check", "--op", "{op}"),
    "svd": ("svd", "--op", "{op}"),
    "solve": ("solve", "--op", "{op}", "--rhs", "{rhs}"),
    "tikhonov": ("tikhonov", "--op", "{op}", "--rhs", "{rhs}", "--kappa", "0.1"),
    "picard": ("picard", "--op", "{op}", "--rhs", "{rhs}"),
    "train": ("train", "--spec", "2,3,1", "--data", "{data}", "--iters", "5"),
    "stability": ("stability", "--model", "seirs"),
    "r0": ("r0", "--F", "{F}", "--V", "{V}"),
    "sturm": ("sturm", "--n", "9", "--modes", "3"),
    "pdeopt-dump": ("pdeopt", "--problem", "advection", "--n", "8"),
    "pdeopt-check-gradient": ("pdeopt", "--problem", "advection", "--check-gradient"),
    "pdeopt-descend": ("pdeopt", "--problem", "elliptic", "--n", "15", "--descend",
                       "--iters", "5"),
}


def output_case_files(tmp_path):
    return {"op": write_json(tmp_path / "op.json", EXAMPLE_RECORD),
            "rhs": write_json(tmp_path / "rhs.json", [1.0, 2.0]),
            "data": write_json(tmp_path / "data.json",
                               [{"x": [0.1, 0.2], "a_obs": [0.3]},
                                {"x": [0.5, -0.2], "a_obs": [0.7]}]),
            "F": write_json(tmp_path / "f.json",
                            {"rows": 2, "cols": 2, "entries": [0.0, 0.6, 0.0, 0.0]}),
            "V": write_json(tmp_path / "v.json",
                            {"rows": 2, "cols": 2, "entries": [0.5, 0.0, -0.5, 0.25]})}


@pytest.mark.parametrize("argv", OUTPUT_CASES.values(), ids=OUTPUT_CASES)
def test_output_file_holds_exactly_the_stdout(capsys, tmp_path, argv):
    files = output_case_files(tmp_path)
    argv = [arg.format(**files) for arg in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "result.txt"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == out


def test_output_cases_cover_every_command_with_output():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    with_output = {name for name, parser in sub.choices.items()
                   if any("--output" in a.option_strings for a in parser._actions)}
    assert with_output == {argv[0] for argv in OUTPUT_CASES.values()}
    assert "selftest" not in with_output


def readme_command_lines():
    """Each ``adjointkit ...`` line of the README's "Command line" block, comment cut."""
    readme = (Path(adjointkit.__file__).resolve().parents[2] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()
            if line.startswith("adjointkit ")]


def test_readme_command_lines_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {line.split()[1] for line in readme_command_lines()} == set(sub.choices)


@pytest.mark.parametrize("line", readme_command_lines())
def test_readme_command_line_parses(line):
    # argparse checks the flags, choices and required options; no file is opened
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


# -- adjoint-check ---------------------------------------------------------------

def test_adjoint_check_rejects_non_finite_entries(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", {"rows": 2, "cols": 2,
                                           "entries": [1.0, float("nan"), 0.0, 1.0]})
    code, out, err = run(capsys, "adjoint-check", "--op", op)
    assert code == 2
    assert out == ""
    assert "non-finite entries" in err


def test_adjoint_check_overflowing_operator_exit_3(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", OVERFLOW_RECORD)
    code, out, err = run(capsys, "adjoint-check", "--op", op)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "numerical-failure"
    assert "overflows" in payload["detail"]
    assert "max_defect" not in payload


@pytest.mark.parametrize("codomain_metric", [[1e300, 0.0, 0.0, 1e300],
                                             [1e300, 1e299, 1e299, 1e300]],
                         ids=["diagonal", "dense"])
@pytest.mark.parametrize("command, value", [("adjoint-check", "adjoint_entries"),
                                            ("svd", "whitened_matrix")],
                         ids=["adjoint-check-adjoint overflows", "svd-whitened operator overflows"])
def test_overflowing_weighted_operator_exit_3_without_warnings(capsys, tmp_path, command,
                                                               value, codomain_metric):
    # finite entries and metric, but L_cod^T A and A^T M_cod pass the float range:
    # a numerical failure, not bad input, and no RuntimeWarning on stderr
    record = {"rows": 2, "cols": 2, "entries": [1e200] * 4, "codomain_metric": codomain_metric}
    op = write_json(tmp_path / "op.json", record)
    code, out, err = run(capsys, command, "--op", op)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": "numerical-failure", "detail": f"non-finite {value}: "
                               "the result overflows the float range"}


def test_adjoint_check_deterministic(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", EXAMPLE_RECORD)
    code1, out1, _ = run(capsys, "adjoint-check", "--op", op, "--seed", "7")
    code2, out2, _ = run(capsys, "adjoint-check", "--op", op, "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["trials"] == 100


def test_parser_built_once_per_process(capsys):
    run(capsys, "selftest", "--suite", "svd")
    assert build_parser.cache_info().currsize == 1
    misses = build_parser.cache_info().misses
    for _ in range(3):
        code, _, _ = run(capsys, "selftest", "--suite", "svd")
        assert code == 0
    assert build_parser.cache_info().misses == misses


def test_seed_environment_variable_is_ignored(capsys, tmp_path, monkeypatch):
    # the seeded subcommands read their seed from --seed alone
    op = write_json(tmp_path / "op.json", {
        **EXAMPLE_RECORD, "domain_metric": [3.0, 1.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.5, 1.0],
        "codomain_metric": [2.0, 0.3, 0.3, 1.0]})
    data = write_json(tmp_path / "data.json", [{"x": [0.1, 0.2], "a_obs": [0.3]},
                                               {"x": [0.4, -0.1], "a_obs": [-0.2]}])
    commands = (("adjoint-check", "--op", op, "--trials", "3"),
                ("train", "--spec", "2,3,1", "--data", data, "--iters", "3"),
                ("selftest", "--suite", "svd"))
    monkeypatch.delenv("ADJOINTKIT_SEED", raising=False)
    plain = [run(capsys, *argv) for argv in commands]
    monkeypatch.setenv("ADJOINTKIT_SEED", "garbage")
    assert [run(capsys, *argv) for argv in commands] == plain
    assert all(code == 0 for code, _, _ in plain)


def test_adjoint_check_tiny_spd_metric_returns(tmp_path):
    # the metric norms of the probes are about 1e-10, far below any fixed floor
    op = write_json(tmp_path / "op.json", {"rows": 1, "cols": 1, "entries": [1.0],
                                            "domain_metric": [1e-20],
                                            "codomain_metric": [1e-20]})
    src = str(Path(adjointkit.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "adjointkit.cli", "adjoint-check",
                           "--op", op], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["max_defect"] <= 1e-12


# -- svd -------------------------------------------------------------------------

def test_svd_reference_sigma_line(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", EXAMPLE_RECORD)
    code, out, _ = run(capsys, "svd", "--op", op)
    assert code == 0
    assert "sigma: 3.1306,1.0433" in out
    payload = json.loads(out.splitlines()[0])
    assert payload["rank"] == 2
    assert "dim N(A)=1" in out
    assert "dim N(A*)=0" in out


def test_svd_repeated_runs_byte_identical(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", EXAMPLE_RECORD)
    first = run(capsys, "svd", "--op", op)
    assert first[0] == 0
    assert run(capsys, "svd", "--op", op) == first


def test_svd_rejects_non_finite_entries(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", {"rows": 2, "cols": 2,
                                           "entries": [1.0, 0.0, float("inf"), 1.0]})
    code, out, err = run(capsys, "svd", "--op", op)
    assert code == 2
    assert out == ""
    assert "non-finite entries" in err


def test_svd_overflowing_operator_exit_3(capsys, tmp_path):
    # sigma_1 overflows to inf, which JSON cannot carry
    op = write_json(tmp_path / "op.json", OVERFLOW_RECORD)
    code, out, err = run(capsys, "svd", "--op", op)
    assert code == 3
    assert "Infinity" not in out
    payload = json.loads(out)
    assert payload["error"] == "numerical-failure"
    assert "non-finite" in payload["detail"]


def test_svd_lapack_failure_exit_3_not_validation(capsys, tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it must still read as a numerical failure
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    op = write_json(tmp_path / "op.json", EXAMPLE_RECORD)
    code, out, err = run(capsys, "svd", "--op", op)
    assert code == 3
    assert err == ""
    payload = json.loads(out)
    assert payload["error"] == "numerical-failure"
    assert "did not converge" in payload["detail"]


def test_svd_indefinite_metric_stays_validation_exit_2(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", {"rows": 2, "cols": 2,
                                           "entries": [1.0, 0.0, 0.0, 1.0],
                                           "domain_metric": [1.0, 0.0, 0.0, -1.0]})
    code, out, err = run(capsys, "svd", "--op", op)
    assert code == 2
    assert out == ""
    assert "positive definite" in err


def test_svd_rejects_nan_and_negative_rank_tol(capsys, tmp_path):
    op = write_json(tmp_path / "op.json", {"rows": 2, "cols": 2,
                                           "entries": [1.0, 0.0, 0.0, 1.0]})
    for flag in ("--rank-tol=nan", "--rank-tol=-1"):
        code, out, err = run(capsys, "svd", "--op", op, flag)
        assert code == 2
        assert out == ""
        assert "rank_tol" in err


# -- solve / tikhonov / picard ------------------------------------------------------

def test_solve_consistent_system(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    {"rows": 2, "cols": 2, "entries": [2.0, 0.0, 0.0, 4.0]})
    rhs = write_json(tmp_path / "rhs.json", [2.0, 8.0])
    code, out, _ = run(capsys, "solve", "--op", op, "--rhs", rhs)
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["x"], [1.0, 2.0], atol=1e-12)
    assert payload["residual_norm"] <= 1e-12


def test_tikhonov_requires_positive_kappa(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
    rhs = write_json(tmp_path / "rhs.json", [1.0, 1.0])
    code, out, err = run(capsys, "tikhonov", "--op", op, "--rhs", rhs,
                         "--kappa", "-1.0")
    assert code == 2
    assert out == ""


def test_tikhonov_rejects_non_finite_data(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
    rhs = write_json(tmp_path / "rhs.json", [1.0, float("nan")])
    code, out, err = run(capsys, "tikhonov", "--op", op, "--rhs", rhs,
                         "--kappa", "0.5")
    assert code == 2
    assert out == ""
    assert "non-finite entries" in err
    rhs = write_json(tmp_path / "rhs.json", [1.0, 1.0])
    for kappa in ("nan", "inf"):
        code, out, err = run(capsys, "tikhonov", "--op", op, "--rhs", rhs,
                             "--kappa", kappa)
        assert code == 2
        assert out == ""


def test_tikhonov_large_kappa_returns_prior(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]})
    rhs = write_json(tmp_path / "rhs.json", [5.0, -3.0])
    x0 = write_json(tmp_path / "x0.json", [1.0, 2.0])
    code, out, _ = run(capsys, "tikhonov", "--op", op, "--rhs", rhs,
                       "--kappa", "1e10", "--x0", x0)
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["x"], [1.0, 2.0], atol=1e-6)


def test_picard_csv_shape(capsys, tmp_path):
    op = write_json(tmp_path / "op.json",
                    {"rows": 3, "cols": 3,
                     "entries": [3.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 1.0]})
    rhs = write_json(tmp_path / "rhs.json", [1.0, 1.0, 1.0])
    code, out, _ = run(capsys, "picard", "--op", op, "--rhs", rhs)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,sigma,coeff,ratio,cumsum"
    assert len(lines) == 5  # 3 rows + header + defect comment
    assert lines[-1].startswith("# null_defect=")


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_picard_null_defect_does_not_depend_on_the_scale_of_the_data(capsys, tmp_path, scale):
    op = write_json(tmp_path / "op.json", {"rows": 2, "cols": 2,
                                           "entries": [scale, 0.0, 0.0, 0.0]})
    rhs = write_json(tmp_path / "rhs.json", [scale, scale])
    code, out, err = run(capsys, "picard", "--op", op, "--rhs", rhs)
    assert (code, err) == (0, "")
    assert float(out.strip().splitlines()[-1].split("=")[1]) == pytest.approx(np.sqrt(0.5),
                                                                             rel=1e-15)


def test_solve_and_picard_repeated_runs_byte_identical(capsys, tmp_path):
    rng = np.random.default_rng(82)
    entries = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 4))
    op = write_json(tmp_path / "op.json", {"rows": 5, "cols": 4,
                                           "entries": entries.ravel().tolist()})
    rhs = write_json(tmp_path / "rhs.json", rng.standard_normal(5).tolist())
    for command in ("solve", "picard"):
        first = run(capsys, command, "--op", op, "--rhs", rhs)
        assert first[0] == 0
        assert run(capsys, command, "--op", op, "--rhs", rhs) == first


def test_solve_and_picard_overflowing_operator_exit_3(capsys, tmp_path):
    # sigma_1 = inf leaves no rank tolerance; [1, 1] lies in the range
    op = write_json(tmp_path / "op.json", OVERFLOW_RECORD)
    rhs = write_json(tmp_path / "rhs.json", [1.0, 1.0])
    for command in ("solve", "picard"):
        code, out, err = run(capsys, command, "--op", op, "--rhs", rhs)
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "numerical-failure"
        assert "non-finite" in payload["detail"]


@pytest.mark.parametrize("entry, command, names", [
    (1e-100, ["solve"], "x"),
    (1e-100, ["tikhonov", "--kappa", "1e-300"], "x, residual_norm, prior_distance"),
    (1e-100, ["picard"], "ratio, cumulative"),
    (1e-5, ["picard"], "cumulative"),  # every ratio finite, their squares' sum not
])
def test_least_squares_overflow_exit_3_without_warnings(capsys, tmp_path, entry, command,
                                                        names):
    # finite data whose result overflows; warnings are errors, so a leaked one fails here
    op = write_json(tmp_path / "op.json", {"rows": 1, "cols": 1, "entries": [entry]})
    rhs = write_json(tmp_path / "rhs.json", [1e300])
    code, out, err = run(capsys, *command, "--op", op, "--rhs", rhs)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": "numerical-failure", "detail": f"non-finite {names}: "
                               "the result overflows the float range"}


def test_json_text_refuses_non_finite_values():
    assert cli._json_text({"x": [1.0, -0.0]}) == '{"x": [1.0, -0.0]}\n'
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NumericalError, match="non-finite values"):
            cli._json_text({"x": [1.0, bad]})


# -- stability / r0 -----------------------------------------------------------------

def test_stability_logistic_equilibria(capsys):
    code, out, _ = run(capsys, "stability", "--model", "logistic", "--eq", "1")
    assert code == 0
    assert json.loads(out)["hurwitz"] is True
    code, out, _ = run(capsys, "stability", "--model", "logistic", "--eq", "0")
    assert json.loads(out)["hurwitz"] is False


def test_stability_seirs_includes_r0(capsys):
    code, out, _ = run(capsys, "stability", "--model", "seirs", "--beta", "0.2")
    payload = json.loads(out)
    assert payload["r0"] < 1.0 and payload["hurwitz"] is True
    code, out, _ = run(capsys, "stability", "--model", "seirs", "--beta", "0.4")
    payload = json.loads(out)
    assert payload["r0"] > 1.0 and payload["hurwitz"] is False


def test_stability_matrix_file(capsys, tmp_path):
    rotation = write_json(tmp_path / "rot.json",
                          {"rows": 2, "cols": 2,
                           "entries": [0.0, 1.0, -1.0, 0.0]})
    code, out, _ = run(capsys, "stability", "--matrix", rotation)
    assert code == 0
    assert json.loads(out)["hurwitz"] is False


def test_stability_stdout_matches_payload_fields(capsys, tmp_path):
    # the report carries the tabulation margin; stdout is the same text as
    # when the margin came from a second hurwitz_check of the Jacobian
    a = np.array([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -2.0]])
    matrix = write_json(tmp_path / "a.json", {"rows": 3, "cols": 3,
                                              "entries": list(a.ravel())})
    model = SeirsModel(beta=0.2)
    x_osc, x_seirs = np.zeros(2), model.disease_free_equilibrium
    cases = [(("--model", "damped-oscillator"), stability_verdict(damped_oscillator, x_osc),
              linearize(damped_oscillator, x_osc), None),
             (("--model", "seirs", "--beta", "0.2"), stability_verdict(model, x_seirs),
              linearize(model, x_seirs), r0(*model.next_generation_split())),
             (("--matrix", matrix), jacobian_verdict(a), a, None)]
    for argv, report, jacobian, reproduction in cases:
        code, out, _ = run(capsys, "stability", *argv)
        assert code == 0
        expected = {
            "hurwitz": report.hurwitz,
            "spd_certificate": report.spd_certificate,
            "spectral_abscissa_bound": report.spectral_abscissa_bound,
            "margin": hurwitz_check(jacobian).margin,
        }
        if reproduction is not None:
            expected["r0"] = reproduction
        expected["lyapunov_P"] = [[float(x) for x in row] for row in report.lyapunov_p]
        assert out == json.dumps(expected) + "\n"


def test_stability_matrix_certifies_the_file_matrix(capsys, tmp_path, monkeypatch):
    # x' = A x is its own linearization: the verdict is about the entries
    # read from the file, not a finite-difference copy of them
    def no_linearization(f, x_eq):
        raise AssertionError("the matrix route must not linearize")

    monkeypatch.setattr(stability, "linearize", no_linearization)
    rng = np.random.default_rng(59)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    t = np.zeros((16, 16))
    for i in range(0, 16, 2):
        re, im = rng.uniform(-3.0, -0.3), rng.uniform(0.5, 3.0)
        t[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    path = write_json(tmp_path / "a.json", {"rows": 16, "cols": 16,
                                            "entries": (q @ t @ q.T).ravel().tolist()})
    code, out, _ = run(capsys, "stability", "--matrix", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["hurwitz"] is True and payload["spd_certificate"] is True
    a = np.array(json.loads(Path(path).read_text())["entries"]).reshape(16, 16)
    p = np.array(payload["lyapunov_P"])
    assert np.linalg.norm(p @ a + a.T @ p + np.eye(16)) <= 1e-9 * np.linalg.norm(np.eye(16))
    # tolist() writes the same text as the per-element serialization
    report = jacobian_verdict(a)
    per_element = [[float(x) for x in row] for row in report.lyapunov_p]
    assert out.endswith(f'"lyapunov_P": {json.dumps(per_element)}}}\n')


@pytest.mark.xfail(strict=True, reason="the Routh tolerance 1e-10 max(|c|, 1) does "
                   "not scale with A, so the verdict depends on the scale of A")
@pytest.mark.parametrize("a", [
    [[-1e-300]],
    (1e100 * np.array([[-1.0, 2.0], [-2.0, -1.0]])).tolist(),
    (1e-200 * np.array([[-1.0, 2.0], [-2.0, -1.0]])).tolist(),
], ids=["tiny-scalar", "huge-pair", "tiny-pair"])
def test_stability_matrix_verdict_does_not_depend_on_scale(capsys, tmp_path, a):
    n = len(a)
    path = write_json(tmp_path / "a.json", {"rows": n, "cols": n,
                                            "entries": np.ravel(a).tolist()})
    code, out, _ = run(capsys, "stability", "--matrix", path)
    assert code == 0
    assert json.loads(out)["hurwitz"] is True


def test_stability_matrix_failed_residual_gate_exit_3(capsys, tmp_path):
    # Hurwitz but strongly non-normal: the Lyapunov residual gate rejects
    # the certificate, which must not be read as "not Hurwitz"
    rng = np.random.default_rng(7)
    eigs = -rng.uniform(0.3, 3.0, 48)
    q, _ = np.linalg.qr(rng.standard_normal((48, 48)))
    a = q @ (np.diag(eigs) + np.triu(rng.standard_normal((48, 48)), 1)) @ q.T
    matrix = write_json(tmp_path / "a.json", {"rows": 48, "cols": 48,
                                              "entries": list(a.ravel())})
    code, out, _ = run(capsys, "stability", "--matrix", matrix)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "numerical-failure"
    assert "residual" in payload["detail"]


def test_stability_matrix_schur_failure_exit_3(capsys, tmp_path, monkeypatch):
    # LAPACK finding no Schur form is a numerical failure, not "not Hurwitz"
    import scipy.linalg.lapack as lapack
    dgees = lapack.dgees
    monkeypatch.setattr(lapack, "dgees",
                        lambda *args, **kwargs: (*dgees(*args, **kwargs)[:-1], 2))
    matrix = write_json(tmp_path / "a.json", {"rows": 2, "cols": 2,
                                              "entries": [-1.0, 2.0, 0.0, -3.0]})
    code, out, err = run(capsys, "stability", "--matrix", matrix)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": "numerical-failure",
                               "detail": "real Schur form of A not found "
                                         "(LAPACK dgees info 2)"}


@pytest.mark.parametrize("beta", ["-1", "nan", "inf"])
def test_stability_seirs_rejects_invalid_beta(capsys, beta):
    code, out, err = run(capsys, "stability", "--model", "seirs", "--beta", beta)
    assert (code, out) == (2, "")
    assert "SEIRS rates" in err


def test_stability_logistic_rejects_nan_equilibrium(capsys):
    code, out, err = run(capsys, "stability", "--model", "logistic", "--eq", "nan")
    assert (code, out) == (2, "")
    assert "not an equilibrium" in err


def test_stability_needs_exactly_one_source(capsys):
    code, out, err = run(capsys, "stability")
    assert code == 2


def test_stability_model_and_matrix_are_exclusive(capsys, tmp_path):
    a = write_json(tmp_path / "a.json", {"rows": 1, "cols": 1, "entries": [-1.0]})
    code, out, err = run(capsys, "stability", "--model", "logistic", "--matrix", a)
    assert (code, out) == (2, "")
    assert "not allowed with" in err


def test_r0_seir_blocks(capsys, tmp_path):
    beta, sigma, gamma = 0.6, 0.5, 0.25
    f = write_json(tmp_path / "f.json",
                   {"rows": 2, "cols": 2, "entries": [0.0, beta, 0.0, 0.0]})
    v = write_json(tmp_path / "v.json",
                   {"rows": 2, "cols": 2, "entries": [sigma, 0.0, -sigma, gamma]})
    code, out, _ = run(capsys, "r0", "--F", f, "--V", v)
    assert code == 0
    assert json.loads(out)["r0"] == pytest.approx(beta / gamma, rel=1e-8)


def test_r0_host_vector_split(capsys, tmp_path):
    f = write_json(tmp_path / "f.json",
                   {"rows": 2, "cols": 2, "entries": [0.0, 0.9, 0.1, 0.0]})
    v = write_json(tmp_path / "v.json",
                   {"rows": 2, "cols": 2, "entries": [0.2, 0.0, 0.0, 0.5]})
    code, out, _ = run(capsys, "r0", "--F", f, "--V", v)
    assert code == 0
    assert json.loads(out)["r0"] == pytest.approx(0.9486832980505139, abs=1e-12)


# -- sturm ----------------------------------------------------------------------------

def test_sturm_csv_eigenvalues(capsys):
    code, out, _ = run(capsys, "sturm", "--bc", "dirichlet", "--n", "63",
                       "--modes", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("lambda,v1,")
    assert len(lines) == 6
    h = 1.0 / 64.0
    first = float(lines[1].split(",")[0])
    exact = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
    assert first == pytest.approx(exact, rel=1e-9)


def test_sturm_rejects_modes_before_assembly(capsys, monkeypatch):
    def no_assembly(problem):
        raise AssertionError("discretize ran before the mode count was checked")

    monkeypatch.setattr(cli, "discretize", no_assembly)
    for modes in ("0", "21"):
        code, out, err = run(capsys, "sturm", "--n", "20", "--modes", modes)
        assert (code, out) == (2, "")
        assert f"--modes must be in [1, 20], got {modes}" in err


def subcommand_choices(command, dest):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    return tuple(action.choices)


def test_choice_lists_come_from_their_modules():
    assert subcommand_choices("sturm", "bc") == sturm.BOUNDARY_CONDITIONS
    assert subcommand_choices("train", "act") == tuple(network.ACTIVATIONS)


def test_sturm_grid_above_cap_exit_2(capsys):
    code, out, err = run(capsys, "sturm", "--n", str(MAX_SL_NODES + 1))
    assert code == 2
    assert out == ""
    assert f"n must be in [3, {MAX_SL_NODES}], got {MAX_SL_NODES + 1}" in err


# -- train ----------------------------------------------------------------------------

def test_train_emits_decreasing_loss_curve(capsys, tmp_path):
    rng = np.random.default_rng(80)
    data = [{"x": list(rng.uniform(-1, 1, 2)),
             "a_obs": list(rng.uniform(-1, 1, 1))} for _ in range(4)]
    data_file = write_json(tmp_path / "data.json", data)
    code, out, _ = run(capsys, "train", "--spec", "sizes=2,4,1", "--data", data_file,
                       "--iters", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,loss,grad_norm,step"
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(losses) == 50
    assert losses[-1] < losses[0]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_logistic_saturation_is_silent(capsys, tmp_path):
    # a step of 1e6 drives the pre-activations below -709, where exp(-t)
    # overflows; the activation 1 / (1 + inf) = 0 is exact and nothing is reported
    data_file = write_json(tmp_path / "data.json", [{"x": [1.0], "a_obs": [0.9]},
                                                    {"x": [-1.0], "a_obs": [0.1]}])
    code, out, err = run(capsys, "train", "--spec", "1,1", "--act", "logistic",
                         "--data", data_file, "--iters", "3", "--step", "1e6")
    assert (code, err) == (0, "")
    assert out == ("k,loss,grad_norm,step\n"
                   "0,0.13439958216004794,0.18002244431577727,31250\n"
                   "1,0.0099999999999999985,0,0\n")


def test_train_rejects_bad_samples(capsys, tmp_path):
    data_file = write_json(tmp_path / "data.json", [{"x": [1.0]}])
    code, out, err = run(capsys, "train", "--spec", "2,2", "--data", data_file)
    assert code == 2


def test_train_rejects_non_finite_samples(capsys, tmp_path):
    data_file = write_json(tmp_path / "data.json",
                           [{"x": [0.1, float("nan")], "a_obs": [0.2]},
                            {"x": [0.3, 0.4], "a_obs": [0.5]}])
    code, out, err = run(capsys, "train", "--spec", "2,2,1", "--data", data_file,
                         "--iters", "3")
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def test_train_repeated_runs_byte_identical(capsys, tmp_path):
    rng = np.random.default_rng(81)
    data = [{"x": list(rng.uniform(-1, 1, 2)),
             "a_obs": list(rng.uniform(-1, 1, 1))} for _ in range(8)]
    data_file = write_json(tmp_path / "data.json", data)
    first = run(capsys, "train", "--spec", "2,4,1", "--data", data_file, "--iters", "20")
    assert first[0] == 0
    assert run(capsys, "train", "--spec", "2,4,1", "--data", data_file,
               "--iters", "20") == first


def test_descent_rejects_non_finite_step(capsys, tmp_path):
    data_file = write_json(tmp_path / "data.json",
                           [{"x": [0.1, 0.2], "a_obs": [0.3]}])
    for step in ("nan", "inf"):
        code, out, err = run(capsys, "train", "--spec", "2,2,1", "--data", data_file,
                             "--iters", "3", "--step", step)
        assert (code, out) == (2, "")
        assert "finite" in err
        code, out, err = run(capsys, "pdeopt", "--problem", "elliptic", "--descend",
                             "--step", step)
        assert (code, out) == (2, "")
        assert "finite" in err


def test_descent_rejects_negative_iters(capsys, tmp_path):
    data_file = write_json(tmp_path / "data.json",
                           [{"x": [0.1, 0.2], "a_obs": [0.3]}])
    for argv in (("train", "--spec", "2,2,1", "--data", data_file, "--iters", "-3"),
                 ("pdeopt", "--problem", "elliptic", "--descend", "--iters", "-2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "iters" in err


# -- pdeopt ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("--problem", "elliptic", "--descend", "--iters", "30"),
    ("--problem", "elliptic", "--descend", "--iters", "30", "--kappa", "1e-3"),
    ("--problem", "advection", "--descend", "--step", "1.0", "--iters", "30"),
    ("--problem", "elliptic", "--n", "15"),
    ("--problem", "advection", "--n", "8", "--beta", "2.0"),
], ids=["elliptic-descent", "elliptic-kappa-descent", "advection-descent",
        "elliptic-dump", "advection-dump"])
def test_pdeopt_repeated_runs_byte_identical(capsys, argv):
    first = run(capsys, "pdeopt", *argv)
    assert first[0] == 0
    assert run(capsys, "pdeopt", *argv) == first


@pytest.mark.parametrize("argv", [
    ("--problem", "elliptic", "--check-gradient", "--kappa", "nan"),
    ("--problem", "advection", "--beta", "nan"),
    ("--problem", "advection", "--descend", "--z", "nan", "--iters", "2"),
    ("--problem", "elliptic", "--g0", "nan"),
    ("--problem", "elliptic", "--g1", "inf"),
    ("--problem", "elliptic", "--descend", "--tol", "nan"),
], ids=["kappa", "beta", "z", "g0", "g1", "tol"])
def test_pdeopt_rejects_non_finite_flag(capsys, argv):
    code, out, err = run(capsys, "pdeopt", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_csv_refuses_non_finite_values():
    assert _csv([(0, 1.5)], "k,f") == "k,f\n0,1.5\n"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(NumericalError, match="non-finite"):
            _csv([(0, bad)], "k,f")


def test_pdeopt_advection_gradient_check(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "advection",
                       "--check-gradient", "--beta", "1.5")
    assert code == 0
    errors = json.loads(out)["rel_error"]
    assert all(v <= 1e-5 for v in errors.values())


def test_pdeopt_advection_descent_converges(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "advection", "--descend",
                       "--beta", "1.0", "--step", "1.0", "--iters", "60",
                       "--tol", "1e-10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,f,grad_norm,step"
    assert float(lines[-1].split(",")[2]) <= 1e-8  # gradient norm at the end


def test_pdeopt_advection_field_dump(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "advection", "--n", "8",
                       "--beta", "2.0", "--z", "1.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u,v,grad"
    assert len(lines) == 10
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(-0.5)   # u = -z/beta
    assert first[3] == pytest.approx(0.25)   # gradient z/beta^2


def test_pdeopt_elliptic_gradient_check(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "elliptic", "--n", "15",
                       "--check-gradient")
    assert code == 0
    errors = json.loads(out)["rel_error"]
    assert errors["1e-05"] <= 1e-5


def test_pdeopt_elliptic_descent_reduces_objective(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "elliptic", "--n", "31",
                       "--descend", "--iters", "200", "--step", "100.0")
    assert code == 0
    lines = out.strip().splitlines()[1:]
    f0 = float(lines[0].split(",")[1])
    f_end = float(lines[-1].split(",")[1])
    assert f_end <= f0 / 100.0


def test_pdeopt_descent_backtracks_past_an_overflowing_step(capsys):
    # the first trials overflow exp(z); the line search halves them away
    code, out, _ = run(capsys, "pdeopt", "--problem", "elliptic", "--descend",
                       "--step", "1e8", "--iters", "3")
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert [row[3] for row in rows] == [1e8 / 2 ** 17, 1e8 / 2 ** 17, 1e8 / 2 ** 16]
    assert rows[0][1] > rows[1][1] > rows[2][1]


def test_pdeopt_elliptic_field_dump_shape(capsys):
    code, out, _ = run(capsys, "pdeopt", "--problem", "elliptic", "--n", "15")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u,v,grad"
    assert len(lines) == 17  # n+1 cells


def test_pdeopt_check_gradient_and_descend_are_exclusive(capsys):
    # passing both used to run the gradient check and ignore --descend
    code, out, err = run(capsys, "pdeopt", "--problem", "elliptic",
                         "--check-gradient", "--descend")
    assert (code, out) == (2, "")
    assert "not allowed with" in err


# -- selftest ---------------------------------------------------------------------------

def test_selftest_single_suite(capsys):
    code, out, _ = run(capsys, "selftest", "--suite", "sturm")
    assert code == 0
    assert out.startswith("sturm: PASS")


def test_selftest_all_suites_pass(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(": PASS" in line for line in lines)


def test_selftest_corrupted_adjoint_fails(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "adjoint_consistency_check",
                        lambda op, trials, seed: AdjointReport(trials=trials, max_defect=1.0))
    code, out, _ = run(capsys, "selftest", "--suite", "adjoint")
    assert code == 1
    assert out.startswith("adjoint: FAIL (max normalized defect 1.000e+00")


def test_selftest_failed_suite_prints_the_whole_report(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "SUITES", {"first": lambda seed: (True, "fine"),
                                             "second": lambda seed: (False, "broken"),
                                             "third": lambda seed: (True, f"seed {seed}")})
    assert run(capsys, "selftest", "--seed", "5") == (
        1, "first: PASS (fine)\nsecond: FAIL (broken)\nthird: PASS (seed 5)\n", "")


def test_selftest_suite_that_raises_prints_only_the_payload(capsys, monkeypatch):
    def raises(seed):
        raise NumericalError("suite blew up")

    monkeypatch.setattr(selftest, "SUITES", {"first": lambda seed: (True, "fine"),
                                             "second": raises})
    code, out, _ = run(capsys, "selftest")
    assert code == 3
    assert json.loads(out) == {"error": "numerical-failure", "detail": "suite blew up"}
