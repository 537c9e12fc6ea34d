"""Every input check in the library and the CLI, one tiny case each.

Each library case must raise ``ValueError`` with its own message; each
CLI case must exit 2 with nothing on stdout.  The vector gates (data,
prior, training samples, controls) are also probed by property tests:
a wrong length, or one non-finite entry at a drawn position, must be
rejected by a message that names the sizes.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointkit.cli import main
from adjointkit.core import (DenseOperator, InnerProductSpace,
                             adjoint_consistency_check, euclidean,
                             matrix_operator, operator_from_record,
                             orthonormalize)
from adjointkit.leastsq import (instability_demo, normal_solve, picard_diagnostic,
                                tikhonov_solve)
from adjointkit.network import (NetworkSpec, Parameters, forward, init_parameters,
                                loss, train)
from adjointkit.optim import (fd_gradient_check, gradient_descent, kkt_residuals,
                             reduced_gradient, reduced_objective)
from adjointkit.pde import build_advection_problem, make_elliptic_demo
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


NAN, INF = float("nan"), float("inf")
ADVECTION_4 = build_advection_problem(4, 1.0)  # state_dim 5, control_dim 1


def sturm_modes():
    return solve_modes(discretize(constant_coefficient_problem("dirichlet", n=5)), 3)


def sturm_grid(p=1.0, q=0.0, rho=1.0):
    """Discretize constant coefficients on a five-node dirichlet grid."""
    return discretize(SLProblem(p=lambda x: p, q=lambda x: q, rho=lambda x: rho, n=5))


def kkt(u=(1.0,) * 5, z=(1.0,), y=(1.0,) * 5):
    return kkt_residuals(ADVECTION_4, u, z, y)


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
    # optim
    "reduced_objective-length": (lambda: reduced_objective(ADVECTION_4, [1.0, 2.0, 3.0]),
                                 "control length 3 does not match control_dim 1"),
    "reduced_objective-nan": (lambda: reduced_objective(ADVECTION_4, [NAN]),
                              "control has non-finite entries"),
    "kkt-u-length": (lambda: kkt(u=(1.0,) * 4), "state length 4 does not match state_dim 5"),
    "kkt-u-nan": (lambda: kkt(u=(1.0, NAN, 1.0, 1.0, 1.0)), "state has non-finite"),
    "kkt-z-length": (lambda: kkt(z=(1.0, 1.0)), "control length 2 does not match"),
    "kkt-z-inf": (lambda: kkt(z=(INF,)), "control has non-finite"),
    "kkt-y-length": (lambda: kkt(y=(1.0,) * 6), "multiplier length 6 does not match"),
    "kkt-y-inf": (lambda: kkt(y=(1.0, 1.0, 1.0, 1.0, -INF)), "multiplier has non-finite"),
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
    "r0-F-nan": (lambda: r0([[NAN]], [[1.0]]), "matrix F has non-finite entries"),
    "r0-F-inf": (lambda: r0([[INF]], [[1.0]]), "matrix F has non-finite entries"),
    "r0-V-nan": (lambda: r0([[1.0]], [[NAN]]), "matrix V has non-finite entries"),
    "r0-V-inf": (lambda: r0([[1.0]], [[INF]]), "matrix V has non-finite entries"),
    "hurwitz-above-cap": (lambda: hurwitz_check(-np.eye(MAX_LYAPUNOV_DIM + 1)),
                          f"capped at n={MAX_LYAPUNOV_DIM}"),
    # sturm
    "sturm-n-2": (lambda: constant_coefficient_problem("dirichlet", n=2),
                  "at least three nodes"),
    "sturm-p-zero": (lambda: discretize(SLProblem(p=lambda x: 0.0, q=lambda x: 0.0,
                                                  rho=lambda x: 1.0, n=5)),
                     "diffusion coefficient"),
    "sturm-p-nan": (lambda: sturm_grid(p=NAN), "diffusion coefficient must be positive"),
    "sturm-p-inf": (lambda: sturm_grid(p=INF), "diffusion coefficient must be positive"),
    "sturm-rho-nan": (lambda: sturm_grid(rho=NAN), "weight function must be positive"),
    "sturm-rho-inf": (lambda: sturm_grid(rho=INF), "weight function must be positive"),
    "sturm-q-nan": (lambda: sturm_grid(q=NAN), "potential q must be finite"),
    "sturm-q-inf": (lambda: sturm_grid(q=-INF), "potential q must be finite"),
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


@pytest.mark.parametrize("p", [[[float("nan")]],
                               [[1.0, float("nan")], [float("nan"), 1.0]],
                               [[float("inf")]]], ids=["nan", "nan-off-diagonal", "inf"])
def test_is_spd_rejects_non_finite(p):
    assert is_spd(p) is False


@pytest.mark.parametrize("delta", [0.0, -0.0, float("nan"), float("inf"), -float("inf")])
def test_instability_demo_rejects_degenerate_delta(delta):
    with pytest.raises(ValueError, match="non-zero and finite"):
        instability_demo(matrix_operator(np.diag([2.0, 1.0])), np.ones(2), 1, delta)


ADVECTION = build_advection_problem(8, 1.0)  # reads z[0] alone, so z[1:] must be refused
ELLIPTIC, _ = make_elliptic_demo(7)
BAD_VALUES = st.sampled_from([float("nan"), float("inf"), -float("inf")])

# gate -> (call on the vector, its required length, the space it must name)
VECTOR_GATES = {
    "normal_solve-y": (lambda v: normal_solve(OP_2X3, v), 2, "codomain dimension 2"),
    "tikhonov-y": (lambda v: tikhonov_solve(OP_2X3, v, 1.0), 2, "codomain dimension 2"),
    "tikhonov-x0": (lambda v: tikhonov_solve(OP_2X3, np.ones(2), 1.0, v), 3,
                    "domain dimension 3"),
    "picard-y": (lambda v: picard_diagnostic(OP_2X3, v), 2, "codomain dimension 2"),
    "solvability-y": (lambda v: solvability_check(OP_2X3, v), 2, "codomain dimension 2"),
    "reduced_gradient-z": (lambda v: reduced_gradient(ELLIPTIC, v), 8, "control_dim 8"),
    "reduced_gradient-scalar-z": (lambda v: reduced_gradient(ADVECTION, v), 1,
                                  "control_dim 1"),
    "fd_gradient_check-z": (lambda v: fd_gradient_check(ELLIPTIC, v), 8, "control_dim 8"),
    "reduced_objective-z": (lambda v: reduced_objective(ELLIPTIC, v), 8, "control_dim 8"),
    "gradient_descent-z0": (lambda v: gradient_descent(ELLIPTIC, v, 1.0, 1, 0.0), 8,
                            "control_dim 8"),
}


def bad_vector(data, dim):
    """A vector of the wrong length, or of length ``dim`` with one non-finite entry."""
    if data.draw(st.booleans(), label="wrong length"):
        return np.ones(data.draw(st.integers(0, 2 * dim + 2).filter(lambda n: n != dim)))
    v = np.ones(dim)
    v[data.draw(st.integers(0, dim - 1), label="position")] = data.draw(BAD_VALUES)
    return v


@pytest.mark.parametrize("gate", VECTOR_GATES)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_vector_gates_name_the_sizes(gate, data):
    call, dim, space = VECTOR_GATES[gate]
    v = bad_vector(data, dim)
    with pytest.raises(ValueError) as info:
        call(v)
    assert re.search(rf"length {v.size}\b", str(info.value))
    assert space in str(info.value)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), bad_x=st.booleans())
def test_training_sample_gate_names_the_shapes(data, bad_x):
    spec = NetworkSpec((3, 2, 2))
    x, a_obs = np.ones(3), np.ones(2)
    if bad_x:
        x = bad_vector(data, 3)
    else:
        a_obs = bad_vector(data, 2)
    with pytest.raises(ValueError) as info:
        train(spec, init_parameters(spec), [(x, a_obs)], iters=1)
    assert f"({x.size}, 1)" in str(info.value)
    assert f"({a_obs.size}, 1)" in str(info.value)


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
    # one case per library gate
    "rhs-length": (["picard", "--op", "{op}", "--rhs", "{three}"],
                   "right-hand side length 3 does not match codomain dimension 2"),
    "rhs-non-finite": (["solve", "--op", "{op}", "--rhs", "{nan_pair}"],
                       "right-hand side has non-finite entries"),
    "prior-non-finite": (["tikhonov", "--op", "{op}", "--rhs", "{pair}", "--kappa", "1",
                          "--x0", "{inf_triple}"], "prior has non-finite entries"),
    "train-sample-non-finite": (["train", "--spec", "2,1", "--data", "{nan_data}"],
                                "training samples have non-finite entries"),
    "train-samples-uneven": (["train", "--spec", "2,1", "--data", "{uneven}"],
                             "same shape"),
    "pdeopt-control-non-finite": (["pdeopt", "--problem", "advection", "--z=-inf"],
                                  "control has non-finite entries"),
}


@pytest.mark.parametrize("argv, message", CLI_CASES.values(), ids=CLI_CASES)
def test_cli_rejects_invalid_input(argv, message, capsys, tmp_path):
    files = {"op": {"rows": 2, "cols": 3, "entries": [2.0, 0.0, 1.0, 2.0, 1.0, 0.5]},
             "data": [{"x": [0.1, 0.2], "a_obs": [0.3]}],
             "empty": [],
             "nested": [[1.0, 2.0]],
             "pair": [1.0, 2.0],
             "three": [1.0, 2.0, 3.0],
             "nan_pair": [1.0, float("nan")],
             "inf_triple": [0.0, float("inf"), 0.0],
             "nan_data": [{"x": [0.1, 0.2], "a_obs": [0.3]},
                          {"x": [float("nan"), 0.2], "a_obs": [0.3]}],
             "uneven": [{"x": [0.1, 0.2], "a_obs": [0.3]},
                        {"x": [0.1, 0.2, 0.3], "a_obs": [0.3]}]}
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
