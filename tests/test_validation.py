"""Every input check in the library and the CLI, one tiny case each.

Each library case must raise ``ValueError`` with its own message; each
CLI case must exit 2 with nothing on stdout.  The vector gates (data,
prior, training samples, controls) are also probed by property tests:
a wrong length, or one non-finite entry at a drawn position, must be
rejected by a message that names the sizes.  So are operator records:
one non-finite value in the entries or a metric, or a metric one entry
short or long, which must be refused by a message naming the key.
"""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointkit.cli import cmd_sturm, main
from adjointkit.core import (DenseOperator, InnerProductSpace,
                             adjoint_consistency_check,
                             matrix_operator, operator_from_record,
                             orthonormalize)
from adjointkit.leastsq import (instability_demo, integration_operator, normal_solve,
                                picard_diagnostic, tikhonov_solve)
from adjointkit.network import (NetworkSpec, Parameters, adjoint_pass, forward,
                                init_parameters, loss, train)
from adjointkit.optim import (fd_gradient_check, gradient_descent, kkt_residuals,
                             reduced_gradient, reduced_objective)
from adjointkit.pde import (AdvectionControlProblem, EllipticInversionProblem,
                            build_advection_problem, build_elliptic_problem,
                            default_target_field, make_elliptic_demo)
from adjointkit.selftest import run_suites
from adjointkit.spectral import (eig_self_adjoint, orthogonal_projector,
                                 solvability_check)
from adjointkit.stability import (MAX_LYAPUNOV_DIM, hurwitz_check, is_spd,
                                  jacobian_verdict, lyapunov_solve, r0)
from adjointkit.sturm import (MAX_SL_NODES, SLProblem, constant_coefficient_problem,
                              discretize, fourier_coefficients, reconstruct,
                              solve_modes, truncation_error)

OP_2X3 = matrix_operator([[2.0, 0.0, 1.0], [2.0, 4.0 / 3.0, 1.0 / 3.0]])
SPEC = NetworkSpec((2, 1))
ONE_LAYER = Parameters([np.ones((1, 2))], [np.zeros(1)])
# 13 numbers each, as many as NetworkSpec((2, 3, 1)) has, in other layer shapes
THREE_LAYERS = Parameters([np.ones((2, 2)), np.ones((1, 2)), np.ones((2, 1))],
                          [np.zeros(2), np.zeros(1), np.zeros(2)])
NARROW_LAYERS = Parameters([np.ones((1, 2)), np.ones((5, 1))], [np.zeros(1), np.zeros(5)])


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
    "space-dim-0": (lambda: InnerProductSpace(0), "dim must be >= 1, got 0"),
    "metric-shape": (lambda: InnerProductSpace(2, np.eye(3)), "metric shape"),
    "space-dim-fractional": (lambda: InnerProductSpace(2.5, np.eye(2)),
                             "dim must be an integer, got 2.5"),
    "adjoint-check-trials-bool": (lambda: adjoint_consistency_check(OP_2X3, trials=True),
                                  "trials must be an integer, got True"),
    "entries-shape": (lambda: DenseOperator(InnerProductSpace(2), InnerProductSpace(2),
                                            np.ones((2, 3))),
                      "does not match codomain x domain"),
    "matvec-length": (lambda: OP_2X3.matvec(np.ones(2)), "operator domain"),
    "adjoint-shape": (lambda: adjoint_consistency_check(OP_2X3, adjoint_op=OP_2X3),
                      "incompatible shape"),
    "orthonormalize-length": (lambda: orthonormalize([np.ones(3)], InnerProductSpace(2)),
                              "space dimension"),
    "record-missing-key": (lambda: operator_from_record({"rows": 1, "cols": 1}),
                           "malformed operator record"),
    "record-metric-object": (lambda: operator_from_record(
        {"rows": 1, "cols": 1, "entries": [1.0], "codomain_metric": {"a": 1}}),
        "malformed operator record"),
    "record-rows-negative": (lambda: operator_from_record(
        {"rows": -2, "cols": -2, "entries": [1.0, 2.0, 3.0, 4.0]}),
        "rows must be >= 1, got -2"),
    "record-cols-zero": (lambda: operator_from_record({"rows": 1, "cols": 0, "entries": []}),
                         "cols must be >= 1, got 0"),
    "record-rows-fractional": (lambda: operator_from_record(
        {"rows": 2.5, "cols": 2, "entries": [1.0, 2.0, 3.0, 4.0]}),
        "rows must be an integer, got 2.5"),
    "record-rows-bool": (lambda: operator_from_record(
        {"rows": True, "cols": 1, "entries": [1.0]}), "rows must be an integer, got True"),
    "record-cols-string": (lambda: operator_from_record(
        {"rows": 1, "cols": "1", "entries": [1.0]}), "cols must be an integer, got '1'"),
    "record-rows-inf": (lambda: operator_from_record(
        {"rows": INF, "cols": 1, "entries": [1.0]}), "rows must be an integer, got inf"),
    "record-cols-nan": (lambda: operator_from_record(
        {"rows": 1, "cols": NAN, "entries": [1.0]}), "cols must be an integer, got nan"),
    "record-domain-metric-size": (lambda: operator_from_record(
        {"rows": 1, "cols": 2, "entries": [1.0, 2.0], "domain_metric": [1.0, 0.0, 1.0]}),
        "domain_metric: expected 4 entries, got 3"),
    "record-codomain-metric-size": (lambda: operator_from_record(
        {"rows": 2, "cols": 1, "entries": [1.0, 2.0], "codomain_metric": [1.0]}),
        "codomain_metric: expected 4 entries, got 1"),
    # leastsq
    "normal-y": (lambda: normal_solve(OP_2X3, np.ones(3)), "codomain"),
    "tikhonov-y": (lambda: tikhonov_solve(OP_2X3, np.ones(3), 1.0), "codomain"),
    "tikhonov-x0": (lambda: tikhonov_solve(OP_2X3, np.ones(2), 1.0, np.ones(2)),
                    "prior length"),
    "picard-y": (lambda: picard_diagnostic(OP_2X3, np.ones(3)), "codomain"),
    "integration-n-fractional": (lambda: integration_operator(4.5),
                                 "n must be an integer, got 4.5"),
    "instability-mode-fractional": (lambda: instability_demo(OP_2X3, np.ones(2), 1.5, 0.1),
                                    "mode index must be an integer, got 1.5"),
    # network
    "unpaired-parameters": (lambda: Parameters([np.ones((1, 2))], []), "pair up"),
    "bias-length": (lambda: Parameters([np.ones((1, 2))], [np.zeros(2)]),
                    "bias length"),
    "layer-count": (lambda: ONE_LAYER.check_spec(NetworkSpec((2, 2, 1))),
                    "layer count"),
    "layer-size-fractional": (lambda: NetworkSpec((2, 2.5, 1)),
                              "layer size must be an integer, got 2.5"),
    "layer-size-bool": (lambda: NetworkSpec((2, True, 1)),
                        "layer size must be an integer, got True"),
    "target-length": (lambda: loss(forward(SPEC, ONE_LAYER, np.ones(2)), np.ones(2)),
                      "target length"),
    "loss-target-nan": (lambda: loss(forward(SPEC, ONE_LAYER, np.ones(2)), [NAN]),
                        re.escape("target has non-finite entries (length 1, output layer size 1)")),
    "adjoint-pass-target-length": (lambda: adjoint_pass(SPEC, ONE_LAYER,
                                                        forward(SPEC, ONE_LAYER, np.ones(2)),
                                                        np.ones(2)),
                                   "target length 2 does not match output layer size 1"),
    "adjoint-pass-target-inf": (lambda: adjoint_pass(SPEC, ONE_LAYER,
                                                     forward(SPEC, ONE_LAYER, np.ones(2)), [INF]),
                                "target has non-finite entries"),
    "forward-input-length": (lambda: forward(SPEC, ONE_LAYER, np.ones(3)),
                             "input length 3 does not match first layer size 2"),
    "forward-input-nan": (lambda: forward(SPEC, ONE_LAYER, [1.0, NAN]),
                          "input has non-finite entries"),
    "train-params-layer-count": (lambda: train(NetworkSpec((2, 3, 1)), THREE_LAYERS,
                                               [(np.ones(2), np.ones(1))], iters=1),
                                 "layer count does not match spec"),
    "train-params-layer-shape": (lambda: train(NetworkSpec((2, 3, 1)), NARROW_LAYERS,
                                               [(np.ones(2), np.ones(1))], iters=1),
                                 re.escape("layer 1 weight shape (1, 2), expected (3, 2)")),
    "train-no-samples": (lambda: train(SPEC, ONE_LAYER, [], iters=1),
                         "at least one"),
    "train-uneven-x": (lambda: train(SPEC, ONE_LAYER, [(np.ones(2), np.ones(1)),
                                                       (np.ones(3), np.ones(1))], iters=1),
                       re.escape("sample 1 x has shape (3,), sample 0 (2,)")),
    "train-uneven-a_obs": (lambda: train(SPEC, ONE_LAYER, [(np.ones(2), np.ones(1))] * 2
                                         + [(np.ones(2), np.ones(2))], iters=1),
                           re.escape("sample 2 a_obs has shape (2,), sample 0 (1,)")),
    "train-scalar-x": (lambda: train(SPEC, ONE_LAYER, [(0.5, np.ones(1))], iters=1),
                       re.escape("sample 0 x has shape (): sample shapes do not match the "
                                 "network sizes, need a flat x of length 2")),
    "train-scalar-a_obs": (lambda: train(SPEC, ONE_LAYER, [(np.ones(2), np.ones(1)),
                                                           (np.ones(2), 0.5)], iters=1),
                           re.escape("sample 1 a_obs has shape (): sample shapes do not match "
                                     "the network sizes, need a flat a_obs of length 1")),
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
    "descent-iters-fractional": (lambda: gradient_descent(ADVECTION_4, [1.0], 1.0, 2.5, 0.0),
                                 "iters must be an integer, got 2.5"),
    # spectral
    "eig-two-spaces": (lambda: eig_self_adjoint(
        matrix_operator(np.eye(2), domain_metric=2.0 * np.eye(2))), "to itself"),
    "solvability-y": (lambda: solvability_check(OP_2X3, np.ones(3)), "codomain"),
    "solvability-tol-nan": (lambda: solvability_check(OP_2X3, np.ones(2), tol=NAN),
                            "tol must be a finite non-negative number, got nan"),
    "solvability-tol-negative": (lambda: solvability_check(OP_2X3, np.ones(2), tol=-1.0),
                                 "tol must be a finite non-negative number, got -1.0"),
    "solvability-tol-inf": (lambda: solvability_check(OP_2X3, np.ones(2), tol=INF),
                            "tol must be a finite non-negative number, got inf"),
    "projector-height": (lambda: orthogonal_projector(np.ones((3, 1)), InnerProductSpace(2)),
                         "length space.dim"),
    # stability
    "lyapunov-non-square": (lambda: lyapunov_solve(np.ones((2, 3)), np.eye(2)), "square"),
    "hurwitz-non-square": (lambda: hurwitz_check(np.ones((2, 3))), "square"),
    "r0-non-square": (lambda: r0(np.ones((2, 3)), np.eye(2)), "square"),
    "r0-F-nan": (lambda: r0([[NAN]], [[1.0]]), "matrix F has non-finite entries"),
    "r0-F-inf": (lambda: r0([[INF]], [[1.0]]), "matrix F has non-finite entries"),
    "r0-V-nan": (lambda: r0([[1.0]], [[NAN]]), "matrix V has non-finite entries"),
    "r0-V-inf": (lambda: r0([[1.0]], [[INF]]), "matrix V has non-finite entries"),
    "hurwitz-0d": (lambda: hurwitz_check(5.0), "square and non-empty, got shape ()"),
    "lyapunov-0d": (lambda: lyapunov_solve(-1.0, 1.0), "square and non-empty, got shape ()"),
    "r0-0d": (lambda: r0(2.0, 1.0), "matrix F must be square and non-empty, got shape ()"),
    "jacobian-verdict-0d": (lambda: jacobian_verdict(3.0), "square and non-empty, got shape ()"),
    "hurwitz-above-cap": (lambda: hurwitz_check(-np.eye(MAX_LYAPUNOV_DIM + 1)),
                          re.escape(f"matrix rows must be in [1, {MAX_LYAPUNOV_DIM}], "
                                    f"got {MAX_LYAPUNOV_DIM + 1}")),
    # sturm
    "sturm-n-2": (lambda: constant_coefficient_problem("dirichlet", n=2),
                  re.escape(f"n must be in [3, {MAX_SL_NODES}], got 2")),
    "sturm-n-fractional": (lambda: constant_coefficient_problem("dirichlet", n=4.5),
                           "n must be an integer, got 4.5"),
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
    "sturm-sample-nan": (lambda: fourier_coefficients(np.full(5, NAN), sturm_modes()),
                         re.escape("sample has non-finite entries (length 5, grid size 5)")),
    "sturm-sample-inf": (lambda: truncation_error([0.0, 1.0, -INF, 1.0, 0.0], sturm_modes(), [2]),
                         "sample has non-finite entries"),
    "sturm-too-many-terms": (lambda: truncation_error(np.ones(5), sturm_modes(), [4]),
                             re.escape("term count must be in [0, 3], got 4")),
    "sturm-terms-fractional": (lambda: truncation_error(np.ones(5), sturm_modes(), [2.5]),
                               "term count must be an integer, got 2.5"),
    "sturm-modes-fractional": (lambda: solve_modes(sturm_grid(), 2.5),
                               "k must be an integer, got 2.5"),
    "reconstruct-terms-bool": (lambda: reconstruct(np.ones(3), sturm_modes(), True),
                               "term count must be an integer, got True"),
    "reconstruct-terms-fractional": (lambda: reconstruct(np.ones(3), sturm_modes(), 2.5),
                                     "term count must be an integer, got 2.5"),
    "reconstruct-too-many-terms": (lambda: reconstruct(np.ones(3), sturm_modes(), 99),
                                   re.escape("term count must be in [0, 3], got 99")),
    "reconstruct-too-few-coefficients": (lambda: reconstruct(np.ones(2), sturm_modes(), 3),
                                         re.escape("term count must be in [0, 2], got 3")),
    # pde
    "elliptic-u_obs-nan": (lambda: build_elliptic_problem(7, 0.0, 1.0, [0.0, 0.0, 0.0, NAN,
                                                                        0.0, 0.0, 0.0]),
                           "observations u_obs has non-finite entries"),
    "elliptic-u_obs-inf": (lambda: build_elliptic_problem(7, 0.0, 1.0, [0.0, 0.0, 0.0, INF,
                                                                        0.0, 0.0, 0.0]),
                           "observations u_obs has non-finite entries"),
    "elliptic-u_obs-length": (lambda: build_elliptic_problem(7, 0.0, 1.0, np.zeros(6)),
                              "observations u_obs length 6 does not match interior node count 7"),
    "elliptic-n-fractional": (lambda: EllipticInversionProblem(4.5, 0.0, 1.0, np.zeros(4)),
                              "n must be an integer, got 4.5"),
    "elliptic-demo-n-fractional": (lambda: make_elliptic_demo(4.5),
                                   "n must be an integer, got 4.5"),
    "target-field-n-fractional": (lambda: default_target_field(4.5),
                                  "n must be an integer, got 4.5"),
    "advection-n-fractional": (lambda: AdvectionControlProblem(2.5, 1.0),
                               "n must be an integer, got 2.5"),
    "advection-n-inf": (lambda: AdvectionControlProblem(INF, 1.0),
                        "n must be an integer, got inf"),
    # selftest
    "unknown-suite": (lambda: run_suites(["bogus"]), "unknown suite"),
}


@pytest.mark.parametrize("call, match", LIBRARY_CASES.values(), ids=LIBRARY_CASES)
def test_library_rejects_invalid_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_integral_float_sizes_are_stored_as_ints():
    # the frozen records keep what checked_size returns, so the grid and layers build
    problem = constant_coefficient_problem("dirichlet", n=4.0)
    assert type(problem.n) is int and discretize(problem).stiffness.shape == (4, 4)
    spec = NetworkSpec((2, 2.0, 1))
    assert spec.layer_sizes == (2, 2, 1) and all(type(s) is int for s in spec.layer_sizes)
    assert init_parameters(spec, seed=1).weights[1].shape == (1, 2)


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


# size -> (the gate's name, low, high, a call that takes the size): every bounded size
BOUNDED_SIZES = {
    "space-dim": ("dim", 1, None, InnerProductSpace),
    "adjoint-check-trials": ("trials", 1, None,
                             lambda k: adjoint_consistency_check(OP_2X3, trials=k)),
    "record-rows": ("rows", 1, None, lambda m: operator_from_record(
        {"rows": m, "cols": 1, "entries": [1.0] * m})),
    "record-cols": ("cols", 1, None, lambda n: operator_from_record(
        {"rows": 1, "cols": n, "entries": [1.0] * n})),
    "integration-n": ("n", 2, None, integration_operator),
    "instability-mode": ("mode index", 1, 2, lambda k: instability_demo(
        matrix_operator(np.diag([2.0, 1.0])), np.ones(2), k, 0.1)),
    "layer-size": ("layer size", 1, None, lambda s: NetworkSpec((2, s, 1))),
    "descent-iters": ("iters", 0, None,
                      lambda k: gradient_descent(ADVECTION_4, [1.0], 1.0, k, 0.0)),
    "advection-n": ("n", 2, None, lambda n: AdvectionControlProblem(n, 1.0)),
    "elliptic-n": ("n", 3, None,
                   lambda n: EllipticInversionProblem(n, 0.0, 1.0, np.zeros(n))),
    "target-field-n": ("n", 0, None, default_target_field),
    "sturm-n": ("n", 3, MAX_SL_NODES,  # construction only: no grid is assembled
                lambda n: constant_coefficient_problem("dirichlet", n=n)),
    "sturm-modes": ("k", 1, 5, lambda k: solve_modes(sturm_grid(), k)),
    "reconstruct-terms": ("term count", 0, 3,
                          lambda k: reconstruct(np.ones(3), sturm_modes(), k)),
    "cli-sturm-modes": ("--modes", 1, 5, lambda k: cmd_sturm(
        SimpleNamespace(bc="dirichlet", n=5, modes=k))),
    "hurwitz-rows": ("matrix rows", 1, MAX_LYAPUNOV_DIM, lambda n: hurwitz_check(-np.eye(n))),
    "lyapunov-rows": ("A rows", 1, MAX_LYAPUNOV_DIM,
                      lambda n: lyapunov_solve(-np.eye(n), np.eye(n))),
}
# checked_matrix refuses an empty matrix before the row count reaches the gate
EMPTY_MATRIX_FIRST = {"hurwitz-rows", "lyapunov-rows"}


@pytest.mark.parametrize("size_id", BOUNDED_SIZES)
def test_bounded_size_refused_outside_its_range(size_id):
    name, low, high, call = BOUNDED_SIZES[size_id]
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    for size in [low - 1] + ([] if high is None else [high + 1]):
        message = f"^{re.escape(f'{name} must be {bound}, got {size}')}$"
        if size < low and size_id in EMPTY_MATRIX_FIRST:
            message = "must be square and non-empty"
        with pytest.raises(ValueError, match=message):
            call(size)


@pytest.mark.parametrize("size_id", BOUNDED_SIZES)
def test_bounded_size_accepted_at_its_bounds(size_id):
    _, low, high, call = BOUNDED_SIZES[size_id]
    for size in [low] + ([] if high is None else [high]):
        call(size)


def test_reconstruct_refuses_more_coefficients_than_modes_by_default():
    # without n_terms every coefficient is summed, and the last two have no mode to multiply
    with pytest.raises(ValueError, match=re.escape("term count must be in [0, 3], got 5")):
        reconstruct(np.ones(5), sturm_modes())


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


METRIC_KEYS = ("domain_metric", "codomain_metric")


def identity_record(data):
    """A valid 1-4 x 1-4 record with both metrics written out as flat identities."""
    m, n = data.draw(st.integers(1, 4), label="rows"), data.draw(st.integers(1, 4), label="cols")
    return {"rows": m, "cols": n, "entries": np.arange(1.0, m * n + 1.0).tolist(),
            "domain_metric": np.eye(n).ravel().tolist(),
            "codomain_metric": np.eye(m).ravel().tolist()}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), key=st.sampled_from(("entries",) + METRIC_KEYS))
def test_record_with_a_non_finite_value_is_refused(data, key):
    rec = identity_record(data)
    position = data.draw(st.integers(0, len(rec[key]) - 1), label="position")
    rec[key][position] = data.draw(BAD_VALUES)
    with pytest.raises(ValueError, match="non-finite entries"):
        operator_from_record(rec)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), key=st.sampled_from(METRIC_KEYS), longer=st.booleans())
def test_metric_one_entry_off_is_refused_by_name(data, key, longer):
    rec = identity_record(data)
    expected = len(rec[key])
    rec[key] = rec[key] + [0.0] if longer else rec[key][:-1]
    with pytest.raises(ValueError, match=f"^{key}: expected {expected} entries, "
                                         f"got {len(rec[key])}$"):
        operator_from_record(rec)


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
    # an object where a number belongs, and operator records of impossible sizes
    "solve-rhs-object": (["solve", "--op", "{op}", "--rhs", "{object_pair}"],
                         "flat JSON array of numbers"),
    "picard-rhs-object": (["picard", "--op", "{op}", "--rhs", "{object_entries}"],
                          "flat JSON array of numbers"),
    "tikhonov-x0-object": (["tikhonov", "--op", "{op}", "--rhs", "{pair}", "--kappa", "1",
                            "--x0", "{object_pair}"], "flat JSON array of numbers"),
    "svd-metric-object": (["svd", "--op", "{op_object_metric}"], "malformed operator record"),
    "svd-metric-size": (["svd", "--op", "{op_short_metric}"],
                        "domain_metric: expected 4 entries, got 3"),
    "svd-negative-sizes": (["svd", "--op", "{op_negative}"],
                           "rows must be >= 1, got -2"),
    "svd-fractional-rows": (["svd", "--op", "{op_fractional}"],
                            "rows must be an integer, got 2.5"),
    "svd-overflowing-rows": (["svd", "--op", "{op_overflowing}"],
                             "rows must be an integer, got inf"),
    "train-scalar-sample": (["train", "--spec", "1,1", "--data", "{scalar_data}"],
                            "sample 0 x has shape (): sample shapes do not match"),
    # a JSON string or boolean where a number belongs: NumPy would read "1e3" and true
    "svd-entries-string": (["svd", "--op", "{op_string_entries}"],
                           "entries: expected a number, got '1e3'"),
    "svd-entries-bool": (["svd", "--op", "{op_bool_entries}"],
                         "entries: expected a number, got True"),
    "svd-metric-string": (["svd", "--op", "{op_string_metric}"],
                          "domain_metric: expected a number, got '2'"),
    "svd-metric-bool": (["svd", "--op", "{op_bool_metric}"],
                        "codomain_metric: expected a number, got True"),
    "solve-rhs-string": (["solve", "--op", "{op}", "--rhs", "{string_pair}"],
                         "string_pair.json: expected a number, got '5'"),
    "solve-rhs-bool": (["solve", "--op", "{op}", "--rhs", "{bool_pair}"],
                       "bool_pair.json: expected a number, got False"),
    "tikhonov-x0-string": (["tikhonov", "--op", "{op}", "--rhs", "{pair}", "--kappa", "1",
                            "--x0", "{string_triple}"],
                           "string_triple.json: expected a number, got '0'"),
    # an integer literal beyond the float range used to escape as OverflowError
    "svd-entries-huge-int": (["svd", "--op", "{op_huge_entries}"],
                             "entries: an integer is beyond the float range"),
    "solve-rhs-huge-int": (["solve", "--op", "{op}", "--rhs", "{huge_pair}"],
                           "huge_pair.json: an integer is beyond the float range"),
    "stability-matrix-huge-int": (["stability", "--matrix", "{op_huge_square}"],
                                  "entries: an integer is beyond the float range"),
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
                        {"x": [0.1, 0.2, 0.3], "a_obs": [0.3]}],
             "object_pair": [{"v": 1}, 2],
             "object_entries": {"entries": [{}, 1]},
             "op_object_metric": {"rows": 2, "cols": 3, "entries": [1.0] * 6,
                                  "domain_metric": {"a": 1}},
             "op_short_metric": {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0],
                                 "domain_metric": [1.0, 0.0, 1.0]},
             "op_negative": {"rows": -2, "cols": -2, "entries": [1.0, 2.0, 3.0, 4.0]},
             "op_fractional": {"rows": 2.5, "cols": 2, "entries": [1.0, 2.0, 3.0, 4.0]},
             # JSON text, not a payload: json.dumps cannot write 1e400
             "op_overflowing": '{"rows": 1e400, "cols": 2, "entries": [1, 2, 3, 4]}',
             "scalar_data": [{"x": 1, "a_obs": 0.5}],
             "op_string_entries": {"rows": 1, "cols": 2, "entries": ["1e3", True]},
             "op_bool_entries": {"rows": 1, "cols": 2, "entries": [1.0, True]},
             "op_string_metric": {"rows": 1, "cols": 1, "entries": [1.0],
                                  "domain_metric": ["2"]},
             "op_bool_metric": {"rows": 1, "cols": 1, "entries": [1.0],
                                "codomain_metric": [True]},
             "string_pair": ["5", False],
             "bool_pair": [1.0, False],
             "string_triple": [1.0, "0", 2.0],
             "op_huge_entries": {"rows": 1, "cols": 1, "entries": [10 ** 400]},
             "huge_pair": [10 ** 400, 1],
             "op_huge_square": {"rows": 2, "cols": 2, "entries": [-1, 0, 10 ** 400, -1]}}
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
