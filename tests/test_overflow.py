"""Every refusal of a result past the float range, one tiny case each.

Finite input whose result overflows is a ``NumericalError`` from
``core.checked_finite`` (exit 3 in the CLI), naming the value that
overflowed; never a NaN and never a ``RuntimeWarning``.  Warnings are
errors here, so a leaked one fails its case, and stderr must be empty
(an exit-2 case carries only its own message there).
"""

import json
import warnings

import numpy as np
import pytest

from adjointkit import cli
from adjointkit.core import (InnerProductSpace, adjoint, adjoint_consistency_check,
                             matrix_operator, orthonormalize)
from adjointkit.errors import NumericalError
from adjointkit.leastsq import normal_solve, picard_diagnostic, tikhonov_solve
from adjointkit.optim import fd_gradient_check, gradient_descent, reduced_gradient
from adjointkit.pde import AdvectionControlProblem, make_elliptic_demo
from adjointkit.spectral import solvability_check, svd
from adjointkit.stability import linearize, logistic, r0, stability_verdict
from adjointkit.sturm import SLProblem, discretize, solve_modes

OVERFLOW = ": the result overflows the float range"


def weighted_1e200():
    # finite entries and metric, but L_cod^T A and A^T M_cod pass the float range
    return matrix_operator(np.full((2, 2), 1e200), codomain_metric=np.diag([1e300, 1e300]))


def sl_problem(p=1.0, rho=1.0):
    return SLProblem(p=lambda x: p, q=lambda x: 0.0, rho=lambda x: rho, n=100)


def descend(problem, z):
    return gradient_descent(problem, np.array(z), step=1.0, iters=5, tol=0.0)


def one_by_one(entry):
    return matrix_operator([[entry]])


ELLIPTIC_G1 = make_elliptic_demo(7, g1=1e300)[0]  # misfits near 1e300 square past the range

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
    # |x_eq| squares 1e300, so the step is inf
    "linearize-step": (lambda: linearize(lambda x: np.zeros(2), np.array([1e300, 0.0])),
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
    # f = z^2 / (2 beta^2) = 5e99, but |g|^2 = (z / beta^2)^2 = 1e400
    "descent-gradient": (lambda: descend(AdvectionControlProblem(4, 1e-150), [1e-100]),
                         NumericalError,
                         "gradient failed at iteration 0: non-finite gradient_norm" + OVERFLOW),
}

# id -> (argv, exit code, message); "{op}" and "{rhs}" name files of SOLVE_FILES
CLI_CASES = {
    # x = 0, and the residual norm squares 1e300
    "solve-residual": (["solve", "--op", "{op}", "--rhs", "{rhs}"], 3,
                       "non-finite residual_norm" + OVERFLOW),
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
SOLVE_FILES = {"op": {"rows": 2, "cols": 1, "entries": [1.0, 1.0]}, "rhs": [1e300, -1e300]}


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
        files = {key: tmp_path / f"{key}.json" for key in SOLVE_FILES}
        for key, path in files.items():
            path.write_text(json.dumps(SOLVE_FILES[key]))
        assert cli.main([arg.format(**files) for arg in argv]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.err == ""
        assert json.loads(captured.out) == {"error": "numerical-failure", "detail": message}
    else:
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
