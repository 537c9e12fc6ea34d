"""Every refusal of a result past the float range, one tiny case each.

Finite input whose result overflows is a ``NumericalError`` from
``core.checked_finite`` (exit 3 in the CLI), naming the value that
overflowed; never a NaN and never a ``RuntimeWarning``.  Warnings are
errors here, so a leaked one fails its case, and stderr must be empty
(an exit-2 case carries only its own message there).  A finite result
whose square leaves the float range, above or below, is returned as
computed by ``core.euclidean_norm``: neither refused nor read as 0.
"""

import json
import warnings

import numpy as np
import pytest

from adjointkit import cli
from adjointkit.core import (InnerProductSpace, adjoint, adjoint_consistency_check,
                             matrix_operator, orthonormalize)
from adjointkit.errors import NumericalError
from adjointkit.leastsq import (instability_demo, integration_operator, normal_solve,
                                picard_diagnostic, tikhonov_solve)
from adjointkit.optim import fd_gradient_check, gradient_descent, kkt_residuals, reduced_gradient
from adjointkit.pde import AdvectionControlProblem, make_elliptic_demo
from adjointkit.spectral import eig_self_adjoint, solvability_check, svd
from adjointkit.stability import linearize, logistic, r0, stability_verdict
from adjointkit.sturm import SLProblem, discretize, solve_modes, truncation_error

OVERFLOW = ": the result overflows the float range"


def weighted_1e200():
    # finite entries and metric, but L_cod^T A and A^T M_cod pass the float range
    return matrix_operator(np.full((2, 2), 1e200), codomain_metric=np.diag([1e300, 1e300]))


def sl_problem(p=1.0, rho=1.0, n=100):
    return SLProblem(p=lambda x: p, q=lambda x: 0.0, rho=lambda x: rho, n=n)


def descend(problem, z, step=1.0, tol=0.0):
    return gradient_descent(problem, np.array(z), step=step, iters=5, tol=tol)


def one_by_one(entry):
    return matrix_operator([[entry]])


ELLIPTIC_G1 = make_elliptic_demo(7, g1=1e300)[0]  # misfits near 1e300 square past the range
MODES = solve_modes(discretize(sl_problem()), 8)
SAMPLES = MODES.disc.grid * (1.0 - MODES.disc.grid) ** 2

# id -> (library call, exception, message)
LIBRARY_CASES = {
    "whitened": (lambda: weighted_1e200().whitened(), NumericalError,
                 "non-finite whitened_matrix" + OVERFLOW),
    "adjoint": (lambda: adjoint(weighted_1e200()), NumericalError,
                "non-finite adjoint_entries" + OVERFLOW),
    "sigma": (lambda: svd(matrix_operator(np.full((2, 2), 1e308))), NumericalError,
              "non-finite sigma" + OVERFLOW),
    # W_A^T - W_B = 1.6e308 is finite, its products with the probes are not
    "adjoint-defect": (lambda: adjoint_consistency_check(
        matrix_operator(np.full((2, 2), 8e307)), trials=100, seed=42,
        adjoint_op=matrix_operator(np.full((2, 2), -8e307))), NumericalError,
        "non-finite adjoint_defect" + OVERFLOW),
    "orthonormalize": (lambda: orthonormalize([[1e200, 1.0]], InnerProductSpace(
        2, np.diag([1e300, 1.0]))), NumericalError, "non-finite whitened_vectors" + OVERFLOW),
    # |lambda_max| = 3 * 7e307 is past the range, though every entry of B is finite
    "eigenvalues": (lambda: eig_self_adjoint(matrix_operator(np.full((3, 3), 7e307))),
                    NumericalError, "non-finite eigenvalues" + OVERFLOW),
    "solvability": (lambda: solvability_check(matrix_operator([[1.0, 1.0], [1.0, 1.0]]),
                                              [1.5e308, 1.5e308]), NumericalError,
                    "non-finite null_defect" + OVERFLOW),
    "normal-solve": (lambda: normal_solve(one_by_one(1e-100), [1e300]), NumericalError,
                     "non-finite x" + OVERFLOW),
    "tikhonov": (lambda: tikhonov_solve(one_by_one(1e-100), [1e300], 1e-300), NumericalError,
                 "non-finite x, residual_norm, prior_distance" + OVERFLOW),
    "picard": (lambda: picard_diagnostic(one_by_one(1e-5), [1e300]), NumericalError,
               "non-finite cumulative" + OVERFLOW),
    "r0": (lambda: r0(np.array([[1e10, 0.0], [0.0, 0.0]]), np.diag([1e-300, 1.0])),
           NumericalError, "non-finite next_generation_matrix" + OVERFLOW),
    # p / h^2 = 1e305 * 101^2
    "sturm-stiffness": (lambda: discretize(sl_problem(p=1e305)), NumericalError,
                        "non-finite stiffness" + OVERFLOW),
    # K / sqrt(rho_i rho_j) = K / 1e-320
    "sturm-fold": (lambda: solve_modes(discretize(sl_problem(rho=1e-320)), 3), NumericalError,
                   "non-finite folded_stiffness" + OVERFLOW),
    "linearize-jacobian": (lambda: linearize(lambda x: np.sinh(1e8 * x), np.zeros(1)),
                           NumericalError, "non-finite jacobian" + OVERFLOW),
    # |x_eq| = 2.1e308 is past the float range, so the step is inf
    "linearize-step": (lambda: linearize(lambda x: np.zeros(2), np.array([1.5e308, 1.5e308])),
                       NumericalError, "non-finite step" + OVERFLOW),
    # x (1 - x) = -1e600 is no equilibrium: bad input, and no warning
    "logistic-off-equilibrium": (lambda: stability_verdict(logistic, np.array([1e300])),
                                 ValueError, "point is not an equilibrium (|f| = inf)"),
    "advection-state": (lambda: AdvectionControlProblem(4, 1e-300).solve_forward([1e300]),
                        NumericalError, "non-finite state" + OVERFLOW),
    "reduced-gradient": (lambda: reduced_gradient(ELLIPTIC_G1, np.zeros(8)), NumericalError,
                         "non-finite objective, gradient" + OVERFLOW),
    "fd-gradient-check": (lambda: fd_gradient_check(ELLIPTIC_G1, np.zeros(8)), NumericalError,
                          "non-finite gradient, relative_errors" + OVERFLOW),
    # the state -1e200 is finite, its square is not
    "descent-objective": (lambda: descend(AdvectionControlProblem(4, 1.0), [1e200]),
                          NumericalError,
                          "objective failed at iteration 0: non-finite objective" + OVERFLOW),
    # f = z^2 / (2 beta^2) = 5e99 and |g| = z / beta^2 = 1e200 are finite, but every
    # trial state -(z - a g) / beta is past the float range
    "descent-gradient": (lambda: descend(AdvectionControlProblem(4, 1e-150), [1e-100]),
                         NumericalError, "line search failed at iteration 0"),
    # f = 5e299, but g = z / beta^2 = 1e310
    "descent-gradient-norm": (lambda: descend(AdvectionControlProblem(4, 1e-160), [1e-10]),
                              NumericalError,
                              "gradient failed at iteration 0: non-finite gradient_norm" + OVERFLOW),
    # every residual entry is finite, +-1.5e308, but its norm 3e308 is not
    "kkt-residuals": (lambda: kkt_residuals(AdvectionControlProblem(4, 0.25),
                                            1.5e308 * np.array([0.0, 1.0, 0.0, 1.0, 0.0]),
                                            np.zeros(1), np.zeros(5)), NumericalError,
                      "non-finite forward" + OVERFLOW),
    # with rho = 4 the weighted norm of 1.5e308 is about 3e308
    "truncation-error": (lambda: truncation_error(np.full(100, 1.5e308), solve_modes(
        discretize(sl_problem(rho=4.0)), 3), [0]), NumericalError,
                         "non-finite truncation_error" + OVERFLOW),
}

SOLVE = ["solve", "--op", "{op}", "--rhs", "{rhs}"]
ADVECTION_1E200_GRADIENT = ["pdeopt", "--problem", "advection", "--beta", "1e-50", "--z", "1e100"]

# id -> (argv, exit code, message); "{op}" and "{rhs}" name files of SOLVE_OP and HUGE_RHS
CLI_CASES = {
    # x = 0, and the residual norm |y| = 2.1e308 is past the float range
    "solve-residual": (SOLVE, 3, "non-finite residual_norm" + OVERFLOW),
    # the gradient 1e200 is finite, but every trial state overflows
    "advection-gradient-descend": ([*ADVECTION_1E200_GRADIENT, "--descend"], 3,
                                   "line search failed at iteration 0"),
    **{f"advection-beta-{mode[0][2:] if mode else 'fields'}": (
        ["pdeopt", "--problem", "advection", "--beta", "1e-300", "--z", "1e300", *mode], 3,
        ("forward solve failed at iteration 0: " if mode == ["--descend"] else "")
        + "non-finite state" + OVERFLOW)
       for mode in ([], ["--descend"], ["--check-gradient"])},
    "advection-z-descend": (["pdeopt", "--problem", "advection", "--z", "1e200", "--descend"],
                            3, "objective failed at iteration 0: non-finite objective" + OVERFLOW),
    "elliptic-g1-fields": (["pdeopt", "--problem", "elliptic", "--g1", "1e300", "--n", "7"], 3,
                           "non-finite objective, gradient" + OVERFLOW),
    "elliptic-g1-descend": (["pdeopt", "--problem", "elliptic", "--g1", "1e300", "--n", "7",
                             "--descend"], 3,
                            "objective failed at iteration 0: non-finite objective" + OVERFLOW),
    "elliptic-g1-check-gradient": (["pdeopt", "--problem", "elliptic", "--g1", "1e300",
                                    "--n", "7", "--check-gradient"], 3,
                                   "non-finite gradient, relative_errors" + OVERFLOW),
    "logistic-off-equilibrium": (["stability", "--model", "logistic", "--eq", "1e300"], 2,
                                 "point is not an equilibrium (|f| = inf)"),
}
SOLVE_OP = {"rows": 2, "cols": 1, "entries": [1.0, 1.0]}
HUGE_RHS = [1.5e308, -1.5e308]


def run_cli(argv, rhs, tmp_path):
    """Exit code of ``argv``, "{op}" and "{rhs}" naming files of SOLVE_OP and ``rhs``."""
    files = {"op": tmp_path / "op.json", "rhs": tmp_path / "rhs.json"}
    files["op"].write_text(json.dumps(SOLVE_OP))
    files["rhs"].write_text(json.dumps(rhs))
    return cli.main([arg.format(**files) for arg in argv])


@pytest.mark.parametrize("case", [*(("library", c) for c in LIBRARY_CASES),
                                  *(("cli", c) for c in CLI_CASES)], ids="-".join)
def test_overflow_is_refused_by_name_without_warnings(case, capsys, tmp_path):
    kind, name = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "library":
            call, exc_type, message = LIBRARY_CASES[name]
            with pytest.raises(exc_type) as info:
                call()
            assert str(info.value) == message
            assert capsys.readouterr().err == ""
            return
        argv, code, message = CLI_CASES[name]
        assert run_cli(argv, HUGE_RHS, tmp_path) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": "numerical-failure", "detail": message}
    else:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


def close(expected, rel):
    """``pytest.approx`` with no absolute tolerance, which would pass any tiny value for 0."""
    return pytest.approx(expected, rel=rel, abs=0.0)


def scaled_truncation(scale):
    """Truncation errors of ``scale`` times the samples, and ``scale`` times those at scale 1."""
    return (lambda: truncation_error(scale * SAMPLES, MODES, [2, 4]),
            close(scale * truncation_error(SAMPLES, MODES, [2, 4]), rel=1e-14))


def scaled_kkt(scale):
    """KKT residuals at the state ``scale`` times ones, and ``scale`` times those at ones."""
    def at(s):
        return kkt_residuals(AdvectionControlProblem(4, 1.0), np.full(5, s), np.zeros(1),
                             np.zeros(5))
    return (lambda: at(scale),
            close({key: scale * value for key, value in at(1.0).items()}, rel=1e-14))


def tiny_gradient_descent():
    # g = z / beta^2 = 1e-164, whose square 1e-328 is below the smallest subnormal
    result = descend(AdvectionControlProblem(4, 1e88), [1e12], step=100.0, tol=1e-300)
    return result.converged, result.history[0][2]


# id -> (library call, its result); each result's square leaves the float range
FINITE_CASES = {
    "space-norm-huge": (lambda: InnerProductSpace(1).norm([1e200]), 1e200),
    "space-norm-tiny": (lambda: InnerProductSpace(1).norm([1e-200]), 1e-200),
    # sqrt(h rho) u = sqrt(4 / 11) 1e200 on 10 nodes, whose squares pass the range
    "sturm-weighted-norm-huge": (lambda: discretize(sl_problem(rho=4.0, n=10)).weighted_norm(
        np.full(10, 1e200)), close(np.sqrt(40.0 / 11.0) * 1e200, rel=1e-15)),
    # |x_eq| = 1e300 makes the step 1e295, and the field is zero
    "linearize-step": (lambda: linearize(lambda x: np.zeros(2), np.array([1e300, 0.0])),
                       close(np.zeros((2, 2)), rel=0.0)),
    "descent-tiny-gradient": (tiny_gradient_descent, (False, close(1e-164, rel=1e-15))),
    "kkt-huge": scaled_kkt(1e200),
    "truncation-huge": scaled_truncation(1e200),
    "truncation-tiny": scaled_truncation(1e-200),
    # both norms are 1e-200 times those at delta = 1
    "instability-tiny": (lambda: instability_demo(integration_operator(16), np.zeros(16), 8, 1e-200),
                         close(1.0 / svd(integration_operator(16)).sigma[7], rel=1e-12)),
    # |y| = 2.1e308 is past the range, the null defect sqrt(0.5) is not
    "solvability-huge": (lambda: solvability_check(matrix_operator([[1.0, 0.0], [0.0, 0.0]]),
                                                   [1.5e308, 1.5e308]),
                         {"solvable": False, "defect": close(np.sqrt(0.5), rel=1e-15)}),
    "picard-tiny-defect": (lambda: picard_diagnostic(matrix_operator([[1.0, 0.0], [0.0, 0.0]]),
                                                     [1.0, 1e-170]).null_defect,
                           close(1e-170, rel=1e-15)),
}

# id -> (argv, rhs, fields of the JSON output); "{op}" and "{rhs}" as in CLI_CASES
CLI_FINITE_CASES = {
    "solve-huge": (SOLVE, [1e300, -1e300], {"residual_norm": 1.4142135623730952e+300}),
    "solve-tiny": (SOLVE, [1e-200, -1e-200], {"residual_norm": 1.414213562373095e-200}),
    "tikhonov-huge": (["tikhonov", "--kappa", "1", "--op", "{op}", "--rhs", "{rhs}"],
                      [1e300, -1e300], {"residual_norm": 1.4142135623730952e+300}),
    # z +- h rounds to z, so the differences are 0: central differences miss all of g
    "advection-gradient-check": ([*ADVECTION_1E200_GRADIENT, "--check-gradient"], [],
                                 {"rel_error": {"0.001": 1.0, "0.0001": 1.0, "1e-05": 1.0}}),
}


@pytest.mark.parametrize("case", [*(("library", c) for c in FINITE_CASES),
                                  *(("cli", c) for c in CLI_FINITE_CASES)], ids="-".join)
def test_finite_results_are_returned_without_warnings(case, capsys, tmp_path):
    kind, name = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if kind == "library":
            call, expected = FINITE_CASES[name]
            assert call() == expected
        else:
            argv, rhs, expected = CLI_FINITE_CASES[name]
            assert run_cli(argv, rhs, tmp_path) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if kind == "cli":
        out = json.loads(captured.out)
        assert {key: out[key] for key in expected} == expected
