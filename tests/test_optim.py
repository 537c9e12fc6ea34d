import numpy as np
import pytest

from adjointkit.network import (NetworkSpec, NetworkTrainingProblem,
                                flatten_parameters, init_parameters)
from adjointkit.optim import (ARMIJO_SLOPE, MAX_BACKTRACKS, ConstrainedProblem,
                              fd_gradient_check, gradient_descent,
                              kkt_residuals, reduced_gradient,
                              reduced_objective)
from adjointkit.pde import build_advection_problem, make_elliptic_demo


class LinearQuadratic(ConstrainedProblem):
    """c(u, z) = u - B z with f = 0.5 |u|^2; eliminated gradient is B^T B z."""

    def __init__(self, b):
        self.b = np.asarray(b, dtype=float)
        self.state_dim, self.control_dim = self.b.shape

    def residual(self, u, z):
        return u - self.b @ z

    def solve_forward(self, z):
        return self.b @ z

    def apply_state_jacobian(self, u, z, du):
        return du

    def apply_control_adjoint(self, u, z, y):
        return -self.b.T @ y

    def objective(self, u, z):
        return 0.5 * float(u @ u)

    def objective_grad_state(self, u, z):
        return u

    def objective_grad_control(self, u, z):
        return np.zeros(self.control_dim)


class ControlOnly(ConstrainedProblem):
    """Objective independent of the state; the multiplier must vanish."""

    def __init__(self, n=3, p=2):
        self.state_dim, self.control_dim = n, p

    def residual(self, u, z):
        return u - np.arange(1.0, self.state_dim + 1.0)

    def solve_forward(self, z):
        return np.arange(1.0, self.state_dim + 1.0)

    def apply_state_jacobian(self, u, z, du):
        return du

    def apply_control_adjoint(self, u, z, y):
        return np.zeros(self.control_dim)

    def objective(self, u, z):
        return float(z @ z)

    def objective_grad_state(self, u, z):
        return np.zeros(self.state_dim)

    def objective_grad_control(self, u, z):
        return 2.0 * z

    def solve_adjoint(self, u, z, rhs):
        return rhs  # identity Jacobian


class NonlinearScalar(ConstrainedProblem):
    """c(u, z) = u^3 + u - z with f = 0.5 (u - 1)^2 + 0.5 z^2.

    Uses the dense fallback adjoint; the forward solve is a Newton
    iteration on the monotone cubic.
    """

    state_dim = 1
    control_dim = 1

    def residual(self, u, z):
        return np.array([u[0] ** 3 + u[0] - z[0]])

    def solve_forward(self, z):
        u = 0.0
        for _ in range(100):
            f = u ** 3 + u - z[0]
            u -= f / (3.0 * u * u + 1.0)
            if abs(f) < 1e-15:
                break
        return np.array([u])

    def apply_state_jacobian(self, u, z, du):
        return (3.0 * u[0] ** 2 + 1.0) * du

    def apply_control_adjoint(self, u, z, y):
        return -y

    def objective(self, u, z):
        return 0.5 * (u[0] - 1.0) ** 2 + 0.5 * z[0] ** 2

    def objective_grad_state(self, u, z):
        return np.array([u[0] - 1.0])

    def objective_grad_control(self, u, z):
        return np.array([z[0]])


def test_reduced_gradient_matches_eliminated_form():
    rng = np.random.default_rng(30)
    b = rng.standard_normal((4, 2))
    problem = LinearQuadratic(b)
    z = rng.standard_normal(2)
    report = reduced_gradient(problem, z)
    np.testing.assert_allclose(report.gradient, b.T @ b @ z, atol=1e-12)
    assert report.forward_residual_norm <= 1e-12
    assert report.adjoint_residual_norm <= 1e-12


def test_reduced_gradient_state_independent_objective():
    problem = ControlOnly()
    z = np.array([0.3, -0.7])
    report = reduced_gradient(problem, z)
    np.testing.assert_allclose(report.gradient, 2.0 * z, atol=1e-14)


def test_adjoint_system_linearity():
    problem = NonlinearScalar()
    z = np.array([0.8])
    u = problem.solve_forward(z)
    y1 = problem.solve_adjoint(u, z, np.array([1.0]))
    y3 = problem.solve_adjoint(u, z, np.array([3.0]))
    assert abs(y3[0] - 3.0 * y1[0]) <= 1e-10 * abs(y3[0])


def test_dense_fallbacks_build_state_jacobian_once_per_gradient():
    class CountsJacobianColumns(NonlinearScalar):
        jacobian_calls = 0

        def apply_state_jacobian(self, u, z, du):
            self.jacobian_calls += 1
            return super().apply_state_jacobian(u, z, du)

    problem = CountsJacobianColumns()
    z = np.array([0.8])
    report = reduced_gradient(problem, z)
    assert problem.jacobian_calls == problem.state_dim
    # the shared Jacobian gives the residual that the separate fallbacks give
    kkt = kkt_residuals(problem, report.state, z, report.multiplier)
    assert report.adjoint_residual_norm == kkt["adjoint"]


def test_fd_check_linear_quadratic():
    rng = np.random.default_rng(31)
    problem = LinearQuadratic(rng.standard_normal((5, 3)))
    errors = fd_gradient_check(problem, rng.standard_normal(3), steps=(1e-4,))
    assert errors[1e-4] <= 1e-8


def test_fd_check_second_order_decay():
    problem = NonlinearScalar()
    errors = fd_gradient_check(problem, np.array([0.9]), steps=(1e-2, 1e-3, 1e-4))
    e2, e3, e4 = errors[1e-2], errors[1e-3], errors[1e-4]
    assert e3 <= e2 / 20.0
    assert e4 <= e3 / 20.0 or e4 <= 1e-10  # roundoff plateau


def test_fd_check_symmetric_zero_gradient():
    rng = np.random.default_rng(32)
    problem = LinearQuadratic(rng.standard_normal((4, 2)))
    errors = fd_gradient_check(problem, np.zeros(2), steps=(1e-3,))
    report = reduced_gradient(problem, np.zeros(2))
    assert np.linalg.norm(report.gradient) <= 1e-14
    assert errors[1e-3] <= 1e-6


def test_fd_check_rejects_bad_steps():
    problem = ControlOnly()
    with pytest.raises(ValueError):
        fd_gradient_check(problem, np.zeros(2), steps=(0.0,))


def test_descent_quadratic_geometric_rate():
    # scalar chain: z_{k+1} = (1 - step * lambda) z_k with lambda = b^2
    b = np.array([[2.0]])
    problem = LinearQuadratic(b)
    step = 0.2
    result = gradient_descent(problem, np.array([1.0]), step=step, iters=40, tol=1e-12)
    lam = 4.0
    expected_ratio = abs(1.0 - step * lam)
    fs = [row[1] for row in result.history]
    # f is quadratic so it contracts at the squared rate
    for a, bb in zip(fs[1:6], fs[2:7]):
        assert bb / a == pytest.approx(expected_ratio ** 2, rel=1e-6)


def test_descent_starts_at_optimum():
    problem = LinearQuadratic(np.array([[1.0], [1.0]]))
    result = gradient_descent(problem, np.zeros(1), step=0.5, iters=10, tol=1e-10)
    assert result.converged and result.iterations == 0


def test_descent_objective_strictly_decreases():
    problem = NonlinearScalar()
    result = gradient_descent(problem, np.array([2.0]), step=1.0, iters=25, tol=1e-14)
    fs = [row[1] for row in result.history]
    assert all(b < a for a, b in zip(fs, fs[1:]))


def test_descent_validates_step():
    with pytest.raises(ValueError):
        gradient_descent(ControlOnly(), np.zeros(2), step=-1.0, iters=5, tol=1e-8)


def test_descent_and_fd_check_reject_non_finite_steps():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            gradient_descent(ControlOnly(), np.zeros(2), step=bad, iters=5, tol=1e-8)
        with pytest.raises(ValueError, match="finite"):
            fd_gradient_check(ControlOnly(), np.zeros(2), steps=(1e-3, bad))


def test_descent_rejects_nan_and_negative_tol():
    for bad in (float("nan"), -1e-8):
        with pytest.raises(ValueError, match="tol"):
            gradient_descent(ControlOnly(), np.zeros(2), step=0.5, iters=5, tol=bad)


def test_kkt_residuals_at_converged_point():
    rng = np.random.default_rng(33)
    b = rng.standard_normal((3, 2))
    problem = LinearQuadratic(b)
    result = gradient_descent(problem, rng.standard_normal(2), step=0.3,
                              iters=500, tol=1e-12)
    z = result.z
    u = problem.solve_forward(z)
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    res = kkt_residuals(problem, u, z, y)
    assert res["forward"] <= 1e-10
    assert res["adjoint"] <= 1e-10
    assert res["control"] <= 1e-6


def test_kkt_residuals_exact_optimum():
    problem = LinearQuadratic(np.array([[1.0, 0.0], [0.0, 2.0]]))
    z = np.zeros(2)
    u = problem.solve_forward(z)
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    res = kkt_residuals(problem, u, z, y)
    assert max(res.values()) <= 1e-12


def test_kkt_residuals_random_point_nonzero():
    rng = np.random.default_rng(34)
    problem = LinearQuadratic(rng.standard_normal((3, 3)))
    res = kkt_residuals(problem, rng.standard_normal(3), rng.standard_normal(3),
                        rng.standard_normal(3))
    assert res["forward"] > 1e-3 and res["control"] > 1e-6


def test_kkt_residuals_dimension_check():
    problem = ControlOnly()
    with pytest.raises(ValueError):
        kkt_residuals(problem, np.zeros(2), np.zeros(2), np.zeros(3))


def test_reduced_objective_matches_composition():
    problem = NonlinearScalar()
    z = np.array([0.4])
    u = problem.solve_forward(z)
    assert reduced_objective(problem, z) == pytest.approx(problem.objective(u, z))


def test_descent_rejects_negative_iters():
    with pytest.raises(ValueError, match="iters"):
        gradient_descent(ControlOnly(), np.zeros(2), step=0.5, iters=-1, tol=0.0)
    result = gradient_descent(ControlOnly(), np.ones(2), step=0.5, iters=0, tol=0.0)
    assert result.history == [] and result.iterations == 0


# -- one forward solve per line-search trial --------------------------------------

class CountsForwardSolves:
    """Mixin that counts ``solve_forward`` calls on one instance."""

    forward_calls = 0

    def solve_forward(self, z):
        self.forward_calls += 1
        return super().solve_forward(z)


def counted(problem):
    """A copy of ``problem`` whose class also counts its forward solves."""
    cls = type(problem)
    twin = object.__new__(type(f"Counted{cls.__name__}", (CountsForwardSolves, cls), {}))
    twin.__dict__.update(vars(problem))
    return twin


def descent_oracle(problem, z0, step, iters, tol):
    """Descent as a full reduced-gradient evaluation per iteration.

    Every iteration solves forward again at the point the previous line
    search accepted; the history and iterate must not depend on that.
    """
    z = np.asarray(z0, dtype=float).copy()
    history = []
    for k in range(iters):
        report = reduced_gradient(problem, z)
        g = report.gradient
        gnorm = float(np.linalg.norm(g))
        f_curr = report.f_value
        history.append((k, f_curr, gnorm, 0.0))
        if gnorm <= tol:
            return z, history
        alpha = step
        for _ in range(MAX_BACKTRACKS):
            candidate = z - alpha * g
            f_new = reduced_objective(problem, candidate)
            if f_new <= f_curr - ARMIJO_SLOPE * alpha * gnorm * gnorm:
                break
            alpha *= 0.5
        else:
            raise AssertionError("oracle line search failed")
        history[-1] = (k, f_curr, gnorm, alpha)
        z = candidate
    return z, history


def test_descent_solves_forward_once_per_trial():
    problem = counted(NonlinearScalar())
    step = 4.0
    result = gradient_descent(problem, np.array([2.0]), step=step, iters=12, tol=0.0)
    trials = [1 + round(np.log2(step / alpha)) for *_, alpha in result.history]
    assert sum(trials) > len(trials)  # some steps backtracked
    assert problem.forward_calls == 1 + sum(trials)


def network_problem():
    spec = NetworkSpec((2, 4, 1))
    rng = np.random.default_rng(81)
    problem = NetworkTrainingProblem(spec, rng.uniform(-1, 1, (2, 8)),
                                     rng.uniform(-1, 1, (1, 8)))
    return problem, flatten_parameters(init_parameters(spec, seed=3)), 1.0


@pytest.mark.parametrize("build", [
    lambda: (make_elliptic_demo(31)[0], np.zeros(32), 100.0),
    lambda: (make_elliptic_demo(31, kappa=1e-3)[0], np.zeros(32), 100.0),
    lambda: (build_advection_problem(31, 1.0), np.array([1.0]), 1.0),
    network_problem,
], ids=["elliptic", "elliptic-kappa", "advection", "network"])
def test_descent_bitwise_equal_to_full_evaluation_oracle(build):
    problem, z0, step = build()
    fresh, reused = counted(problem), counted(problem)
    z_ref, history_ref = descent_oracle(fresh, z0, step, iters=40, tol=1e-12)
    result = gradient_descent(reused, z0, step=step, iters=40, tol=1e-12)
    assert np.array_equal(np.array(result.history), np.array(history_ref))
    assert np.array_equal(result.z.view(np.uint64), z_ref.view(np.uint64))
    # the oracle's one extra forward solve per gradient is the one saved
    assert reused.forward_calls == fresh.forward_calls - len(history_ref) + 1
