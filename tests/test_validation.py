"""Every input check in the library and the CLI, one tiny case each.

Each library case must raise ``ValueError`` with its own message; each
CLI case must exit 2 with nothing on stdout.
"""

import json

import numpy as np
import pytest

from adjointkit.cli import main
from adjointkit.core import (DenseOperator, InnerProductSpace,
                             adjoint_consistency_check, euclidean,
                             matrix_operator, operator_from_record,
                             orthonormalize)
from adjointkit.leastsq import normal_solve, picard_diagnostic, tikhonov_solve
from adjointkit.network import NetworkSpec, Parameters, forward, loss
from adjointkit.selftest import run_suites
from adjointkit.spectral import (eig_self_adjoint, orthogonal_projector,
                                 solvability_check)
from adjointkit.stability import (MAX_LYAPUNOV_DIM, hurwitz_check, is_spd,
                                  lyapunov_solve, r0)
from adjointkit.sturm import (SLProblem, constant_coefficient_problem,
                              discretize, fourier_coefficients, solve_modes,
                              truncation_error)

OP_2X3 = matrix_operator([[2.0, 0.0, 1.0], [2.0, 4.0 / 3.0, 1.0 / 3.0]])
SPEC = NetworkSpec((2, 1))
ONE_LAYER = Parameters([np.ones((1, 2))], [np.zeros(1)])


def sturm_modes():
    return solve_modes(discretize(constant_coefficient_problem("dirichlet", n=5)), 3)


LIBRARY_CASES = {
    # core
    "space-dim-0": (lambda: InnerProductSpace(0), "dimension must be positive"),
    "metric-shape": (lambda: InnerProductSpace(2, np.eye(3)), "metric shape"),
    "entries-shape": (lambda: DenseOperator(euclidean(2), euclidean(2), np.ones((2, 3))),
                      "does not match codomain x domain"),
    "matvec-length": (lambda: OP_2X3.matvec(np.ones(2)), "operator domain"),
    "adjoint-shape": (lambda: adjoint_consistency_check(OP_2X3, adjoint_op=OP_2X3),
                      "incompatible shape"),
    "orthonormalize-length": (lambda: orthonormalize([np.ones(3)], euclidean(2)),
                              "space dimension"),
    "record-missing-key": (lambda: operator_from_record({"rows": 1, "cols": 1}),
                           "malformed operator record"),
    # leastsq
    "normal-y": (lambda: normal_solve(OP_2X3, np.ones(3)), "codomain"),
    "tikhonov-y": (lambda: tikhonov_solve(OP_2X3, np.ones(3), 1.0), "codomain"),
    "tikhonov-x0": (lambda: tikhonov_solve(OP_2X3, np.ones(2), 1.0, np.ones(2)),
                    "prior length"),
    "picard-y": (lambda: picard_diagnostic(OP_2X3, np.ones(3)), "codomain"),
    # network
    "unpaired-parameters": (lambda: Parameters([np.ones((1, 2))], []), "pair up"),
    "bias-length": (lambda: Parameters([np.ones((1, 2))], [np.zeros(2)]),
                    "bias length"),
    "layer-count": (lambda: ONE_LAYER.check_spec(NetworkSpec((2, 2, 1))),
                    "layer count"),
    "target-length": (lambda: loss(forward(SPEC, ONE_LAYER, np.ones(2)), np.ones(2)),
                      "target length"),
    # spectral
    "eig-two-spaces": (lambda: eig_self_adjoint(
        matrix_operator(np.eye(2), domain_metric=2.0 * np.eye(2))), "to itself"),
    "solvability-y": (lambda: solvability_check(OP_2X3, np.ones(3)), "codomain"),
    "projector-height": (lambda: orthogonal_projector(np.ones((3, 1)), euclidean(2)),
                         "length space.dim"),
    # stability
    "lyapunov-non-square": (lambda: lyapunov_solve(np.ones((2, 3)), np.eye(2)), "square"),
    "hurwitz-non-square": (lambda: hurwitz_check(np.ones((2, 3))), "square"),
    "r0-non-square": (lambda: r0(np.ones((2, 3)), np.eye(2)), "square"),
    "hurwitz-above-cap": (lambda: hurwitz_check(-np.eye(MAX_LYAPUNOV_DIM + 1)),
                          f"capped at n={MAX_LYAPUNOV_DIM}"),
    # sturm
    "sturm-n-2": (lambda: constant_coefficient_problem("dirichlet", n=2),
                  "at least three nodes"),
    "sturm-p-zero": (lambda: discretize(SLProblem(p=lambda x: 0.0, q=lambda x: 0.0,
                                                  rho=lambda x: 1.0, n=5)),
                     "diffusion coefficient"),
    "sturm-sample-length": (lambda: fourier_coefficients(np.ones(4), sturm_modes()),
                            "sample length"),
    "sturm-too-many-terms": (lambda: truncation_error(np.ones(5), sturm_modes(), [4]),
                             "exceeds available modes"),
    # selftest
    "unknown-suite": (lambda: run_suites(["bogus"]), "unknown suite"),
}


@pytest.mark.parametrize("call, match", LIBRARY_CASES.values(), ids=LIBRARY_CASES)
def test_library_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_is_spd_rejects_non_symmetric():
    assert is_spd(np.array([[1.0, 1.0], [0.0, 1.0]])) is False


CLI_CASES = {
    "stability-matrix-2x3": (["stability", "--matrix", "{op}"], "must be square"),
    "train-unparsable-spec": (["train", "--spec", "2,x", "--data", "{data}"],
                              "cannot parse layer sizes"),
    "train-empty-list": (["train", "--spec", "2,1", "--data", "{empty}"],
                         "non-empty JSON list"),
    "train-sample-shape": (["train", "--spec", "3,1", "--data", "{data}"],
                           "sample shapes do not match"),
    "vector-not-flat": (["solve", "--op", "{op}", "--rhs", "{nested}"],
                        "flat JSON array"),
}


@pytest.mark.parametrize("argv, message", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_rejects_invalid_input(argv, message, capsys, tmp_path):
    files = {"op": {"rows": 2, "cols": 3, "entries": [2.0, 0.0, 1.0, 2.0, 1.0, 0.5]},
             "data": [{"x": [0.1, 0.2], "a_obs": [0.3]}],
             "empty": [],
             "nested": [[1.0, 2.0]]}
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
