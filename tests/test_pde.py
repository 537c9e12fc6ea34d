from fractions import Fraction

import numpy as np
import pytest

from adjointkit import cli, matrix_operator
from adjointkit.errors import NumericalError
from adjointkit.optim import (fd_gradient_check, gradient_descent,
                              kkt_residuals, reduced_gradient)
from adjointkit.pde import (build_advection_problem, build_elliptic_problem,
                            default_target_field, discrete_infsup,
                            elliptic_stiffness_operator, make_elliptic_demo)


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


def exact_solution(problem, z, rhs, g0, g1):
    """``K v = rhs`` with end values (g0, g1), by Thomas elimination over
    ``Fraction`` on the same float coefficients ``exp(z)``; the system is
    scaled by ``h^2``, so row i reads
    ``-c_i v_(i-1) + (c_i + c_(i+1)) v_i - c_(i+1) v_(i+1) = h^2 rhs_i``."""
    c = [Fraction(x) for x in np.exp(z)]
    d = [Fraction(problem.h) ** 2 * Fraction(r) for r in rhs]
    d[0] += c[0] * Fraction(g0)
    d[-1] += c[-1] * Fraction(g1)
    cp, dp = [Fraction(0)], [Fraction(0)]
    for i in range(problem.n):
        denom = c[i] + c[i + 1] + c[i] * cp[-1]
        cp.append(-c[i + 1] / denom)
        dp.append((d[i] + c[i] * dp[-1]) / denom)
    v = [dp[-1]]
    for cpi, dpi in zip(reversed(cp[1:-1]), reversed(dp[1:-1])):
        v.append(dpi - cpi * v[-1])
    return v[::-1]


def relative_error(v, exact):
    ref = np.array([float(x) for x in exact])
    return np.abs(v - ref).max() / np.abs(ref).max()


COEFFICIENT_PATTERNS = {
    "sine": lambda x: 3.0 * np.sin(2.0 * np.pi * x),
    "uniform": lambda x: np.random.default_rng(76).uniform(-10.0, 10.0, x.size),
    "alternating": lambda x: 10.0 * (-1.0) ** np.arange(x.size),
    "step": lambda x: np.where(x < 0.5, -10.0, 10.0),
    "spike": lambda x: np.where(np.arange(x.size) == x.size // 3, 40.0, 0.0),
}


@pytest.mark.parametrize("n", [31, 64, 127])
@pytest.mark.parametrize("pattern", sorted(COEFFICIENT_PATTERNS))
def test_elliptic_solves_match_exact_reference(pattern, n):
    problem = build_elliptic_problem(n, -0.5, 2.0, np.zeros(n))
    z = COEFFICIENT_PATTERNS[pattern](problem.midpoints)
    rhs = np.random.default_rng(77).standard_normal(n)
    u = problem.solve_forward(z)
    assert relative_error(u, exact_solution(problem, z, np.zeros(n), -0.5, 2.0)) <= 1e-13
    y = problem.solve_adjoint(u, z, rhs)
    assert relative_error(y, exact_solution(problem, z, rhs, 0.0, 0.0)) <= 1e-13


@pytest.mark.parametrize("cell", [0, 7, 31])
def test_elliptic_lift_matches_closed_form_past_a_spike(cell):
    # u_i = g0 + (g1 - g0) sum_(j<i) exp(-z_j) / sum_j exp(-z_j)
    problem = build_elliptic_problem(31, -0.5, 2.0, np.zeros(31))
    z = np.zeros(32)
    z[cell] = 40.0
    inverse = [1 / Fraction(c) for c in np.exp(z)]
    partial = np.cumsum(inverse)
    closed = [Fraction(-0.5) + Fraction(2.5) * p / partial[-1] for p in partial[:-1]]
    assert closed == exact_solution(problem, z, np.zeros(31), -0.5, 2.0)
    assert relative_error(problem.solve_forward(z), closed) <= 1e-13


@pytest.mark.parametrize("bad", [800.0, -800.0, float("nan")])
def test_elliptic_coefficient_out_of_range_raises(bad, capsys, monkeypatch):
    problem, _ = make_elliptic_demo(31)
    z = np.zeros(32)
    z[5] = bad
    with pytest.raises(NumericalError, match="positive and finite"):
        problem.solve_forward(z)
    with pytest.raises(NumericalError, match="positive and finite"):
        problem.solve_adjoint(problem.u_obs, z, np.ones(31))
    monkeypatch.setattr(cli, "_build_pde_problem", lambda args: (problem, z))
    for argv in ([], ["--descend"]):
        assert cli.main(["pdeopt", "--problem", "elliptic", *argv]) == 3
        assert '"numerical-failure"' in capsys.readouterr().out


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


# -- field dump ------------------------------------------------------------------

def advection_fields_oracle(problem, u, y):
    """The dump's formulas as the CLI wrote them before ``fields`` existed."""
    xs = np.arange(problem.state_dim) * problem.h
    v = np.concatenate([[y[0]], y[1:] / problem.h])
    return xs, u, v


def elliptic_fields_oracle(problem, u, y):
    padded_u = np.concatenate([[problem.g0], u, [problem.g1]])
    padded_v = np.concatenate([[0.0], y / problem.h, [0.0]])
    return (problem.midpoints, 0.5 * (padded_u[:-1] + padded_u[1:]),
            0.5 * (padded_v[:-1] + padded_v[1:]))


@pytest.mark.parametrize("problem, z, oracle", [
    (build_advection_problem(8, 2.0), np.array([1.0]), advection_fields_oracle),
    (build_advection_problem(31, 0.7), np.array([-0.3]), advection_fields_oracle),
    (make_elliptic_demo(15)[0], np.zeros(16), elliptic_fields_oracle),
    (make_elliptic_demo(31, g0=-0.5, g1=2.0)[0],
     0.3 * np.sin(np.arange(32.0)), elliptic_fields_oracle),
], ids=["advection8", "advection31", "elliptic15", "elliptic31"])
def test_fields_match_the_old_dump_bitwise(problem, z, oracle):
    report = reduced_gradient(problem, z)
    got = problem.fields(report.state, report.multiplier)
    want = oracle(problem, report.state, report.multiplier)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)
