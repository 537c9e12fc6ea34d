import numpy as np
import pytest

from adjointkit import matrix_operator
from adjointkit.errors import NumericalError
from adjointkit.optim import (fd_gradient_check, gradient_descent,
                              kkt_residuals, reduced_gradient)
from adjointkit.pde import (build_advection_problem, build_elliptic_problem,
                            default_target_field, discrete_infsup,
                            elliptic_stiffness_operator, make_elliptic_demo,
                            tridiagonal_solve)


# -- tridiagonal_solve ------------------------------------------------------------

def test_tridiagonal_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    x = tridiagonal_solve(np.zeros(3), np.ones(3), np.zeros(3), rhs)
    np.testing.assert_array_equal(x, rhs)


def test_tridiagonal_stencil_round_trip():
    rng = np.random.default_rng(70)
    n = 40
    lower = np.full(n, -1.0)
    upper = np.full(n, -1.0)
    diag = np.full(n, 2.0)
    x_true = rng.standard_normal(n)
    mat = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    rhs = mat @ x_true
    x = tridiagonal_solve(lower, diag, upper, rhs)
    np.testing.assert_allclose(x, x_true, atol=1e-12)
    assert np.abs(mat @ x - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_tridiagonal_scalar_division():
    x = tridiagonal_solve(np.zeros(1), np.array([4.0]), np.zeros(1),
                          np.array([2.0]))
    np.testing.assert_array_equal(x, [0.5])


def test_tridiagonal_zero_pivot():
    with pytest.raises(NumericalError, match="pivot"):
        tridiagonal_solve(np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2))


# -- advection problem --------------------------------------------------------------

def test_advection_forward_is_constant_state():
    problem = build_advection_problem(8, beta=2.0)
    u = problem.solve_forward(np.array([3.0]))
    np.testing.assert_allclose(u, np.full(9, -1.5))
    assert np.abs(problem.residual(u, np.array([3.0]))).max() <= 1e-14


def test_advection_gradient_closed_form():
    rng = np.random.default_rng(71)
    for _ in range(10):
        beta = float(rng.uniform(0.2, 3.0))
        z = float(rng.uniform(-2.0, 2.0))
        problem = build_advection_problem(int(rng.integers(4, 40)), beta)
        report = reduced_gradient(problem, np.array([z]))
        assert abs(report.gradient[0] - z / beta ** 2) <= 1e-10 * max(abs(z), 1.0)
        assert report.f_value == pytest.approx(z ** 2 / (2.0 * beta ** 2), rel=1e-12)


def test_advection_zero_control_everything_vanishes():
    problem = build_advection_problem(6, beta=1.0)
    z = np.zeros(1)
    u = problem.solve_forward(z)
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    assert np.abs(u).max() == 0.0
    assert np.abs(y).max() == 0.0
    assert reduced_gradient(problem, z).gradient[0] == 0.0


def test_advection_gradient_is_inflow_adjoint_trace():
    problem = build_advection_problem(12, beta=1.5)
    z = np.array([0.7])
    u = problem.solve_forward(z)
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    grad = reduced_gradient(problem, z).gradient[0]
    assert problem.inflow_adjoint_trace(y) == grad


def test_advection_adjoint_solve_consistent_with_transpose():
    rng = np.random.default_rng(72)
    problem = build_advection_problem(10, beta=0.9)
    z = np.array([0.3])
    u = problem.solve_forward(z)
    rhs = rng.standard_normal(problem.state_dim)
    y = problem.solve_adjoint(u, z, rhs)
    assert np.abs(problem.apply_state_adjoint(u, z, y) - rhs).max() <= 1e-12
    jac = problem._dense_state_jacobian(u, z)
    np.testing.assert_allclose(jac.T @ y, rhs, atol=1e-12)


def test_advection_descent_converges_fast():
    beta = 1.3
    problem = build_advection_problem(10, beta)
    result = gradient_descent(problem, np.array([1.0]), step=beta ** 2,
                              iters=60, tol=1e-10)
    assert result.converged
    assert abs(result.z[0]) <= 1e-8


def test_advection_validates_inputs():
    with pytest.raises(ValueError):
        build_advection_problem(1, 1.0)
    with pytest.raises(ValueError):
        build_advection_problem(5, -1.0)


def test_advection_rejects_non_finite_velocity():
    for beta in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            build_advection_problem(5, beta)


# -- elliptic problem ----------------------------------------------------------------

def test_elliptic_harmonic_lift():
    problem = build_elliptic_problem(31, 0.0, 1.0, np.zeros(31))
    u = problem.solve_forward(np.zeros(32))
    np.testing.assert_allclose(u, problem.grid, atol=1e-12)


def test_elliptic_stationary_at_truth():
    problem, z_true = make_elliptic_demo(31)
    report = reduced_gradient(problem, z_true)
    assert np.abs(report.gradient).max() <= 1e-10
    assert report.f_value <= 1e-20


def test_elliptic_gradient_fd_check():
    rng = np.random.default_rng(73)
    problem, _ = make_elliptic_demo(31)
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, problem.control_dim)
        errors = fd_gradient_check(problem, z, steps=(1e-5,))
        assert errors[1e-5] <= 1e-5


def test_elliptic_adjoint_operator_matches_forward():
    problem, _ = make_elliptic_demo(15)
    rng = np.random.default_rng(74)
    z = rng.uniform(-0.4, 0.4, problem.control_dim)
    k = problem.stiffness_matrix(z)
    assert np.abs(k - k.T).max() == 0.0
    u = problem.solve_forward(z)
    jac = problem._dense_state_jacobian(u, z)
    np.testing.assert_allclose(jac, k, atol=1e-12)


def test_elliptic_inversion_descent_reduces_objective():
    problem, _ = make_elliptic_demo(31)
    result = gradient_descent(problem, np.zeros(problem.control_dim),
                              step=100.0, iters=200, tol=0.0)
    f0 = result.history[0][1]
    f_end = result.history[-1][1]
    assert f_end <= f0 / 100.0
    losses = [row[1] for row in result.history]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_elliptic_kkt_residuals_after_descent():
    problem, _ = make_elliptic_demo(31)
    result = gradient_descent(problem, np.zeros(problem.control_dim),
                              step=1000.0, iters=400, tol=0.0)
    z = result.z
    u = problem.solve_forward(z)
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    res = kkt_residuals(problem, u, z, y)
    scale = max(np.abs(problem.u_obs).max(), 1.0)
    assert res["forward"] <= 1e-6 * scale
    assert res["adjoint"] <= 1e-6 * scale
    assert res["control"] <= 1e-6 * scale


def test_elliptic_penalty_regularizes_gradient():
    problem, _ = make_elliptic_demo(15, kappa=2.0)
    rng = np.random.default_rng(75)
    z = rng.uniform(-0.3, 0.3, problem.control_dim)
    errors = fd_gradient_check(problem, z, steps=(1e-5,))
    assert errors[1e-5] <= 1e-5  # penalty included consistently
    plain, _ = make_elliptic_demo(15)
    g_pen = reduced_gradient(problem, z).gradient
    g_plain = reduced_gradient(plain, z).gradient
    np.testing.assert_allclose(g_pen - g_plain, problem.kappa * problem.h * z,
                               atol=1e-12)


def test_elliptic_validates_inputs():
    with pytest.raises(ValueError):
        build_elliptic_problem(2, 0.0, 1.0, np.zeros(2))
    with pytest.raises(ValueError):
        build_elliptic_problem(5, 0.0, 1.0, np.zeros(4))


def test_elliptic_rejects_non_finite_penalty_and_boundary_data():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            build_elliptic_problem(5, 0.0, 1.0, np.zeros(5), kappa=bad)
        with pytest.raises(ValueError, match="finite"):
            build_elliptic_problem(5, bad, 1.0, np.zeros(5))
        with pytest.raises(ValueError, match="finite"):
            build_elliptic_problem(5, 0.0, bad, np.zeros(5))


# -- discrete inf-sup -----------------------------------------------------------------

def test_infsup_identity():
    assert discrete_infsup(matrix_operator(np.eye(3))) == pytest.approx(1.0)


def test_infsup_singular_example():
    value = discrete_infsup(matrix_operator([[1.0, 2.0], [1.0, 2.0]]))
    assert value <= 1e-10


def test_infsup_elliptic_stiffness_scales_with_coercivity():
    base = discrete_infsup(elliptic_stiffness_operator(15, np.zeros(16)))
    assert base > 0.0
    shift = np.log(3.0)
    scaled = discrete_infsup(elliptic_stiffness_operator(15, shift * np.ones(16)))
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_default_target_field_shape():
    field = default_target_field(31)
    assert field.shape == (32,)
    assert np.abs(field).max() <= 0.8 + 1e-12
