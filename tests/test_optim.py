from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointkit import network
from adjointkit.errors import NumericalError
from adjointkit.network import (NetworkSpec, NetworkTrainingProblem, Parameters,
                                flatten_parameters, init_parameters, train)
from adjointkit.optim import (_FD_BLOCK, ARMIJO_SLOPE, MAX_BACKTRACKS, ConstrainedProblem,
                              fd_gradient_check, gradient_descent,
                              kkt_residuals, reduced_gradient,
                              reduced_objective)
from adjointkit.pde import build_advection_problem, make_elliptic_demo
from adjointkit.rand import Lcg
from reference import adjoint_then_pull, bits, fd_gradient_check_by_direction


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

    def apply_state_adjoint(self, u, z, w):
        return w  # identity Jacobian

    def solve_adjoint(self, u, z, rhs):
        return rhs, self.apply_control_adjoint(u, z, rhs)

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

    def apply_state_adjoint(self, u, z, w):
        return w  # identity Jacobian

    def solve_adjoint(self, u, z, rhs):
        return rhs, self.apply_control_adjoint(u, z, rhs)

    def apply_control_adjoint(self, u, z, y):
        return np.zeros(self.control_dim)

    def objective(self, u, z):
        return float(z @ z)

    def objective_grad_state(self, u, z):
        return np.zeros(self.state_dim)

    def objective_grad_control(self, u, z):
        return 2.0 * z


class NonlinearScalar(ConstrainedProblem):
    """c(u, z) = u^3 + u - z with f = 0.5 (u - 1)^2 + 0.5 z^2.

    The state Jacobian is the scalar ``3 u^2 + 1``; the forward solve is
    a Newton iteration on the monotone cubic.
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

    def apply_state_adjoint(self, u, z, w):
        return (3.0 * u[0] ** 2 + 1.0) * w

    def solve_adjoint(self, u, z, rhs):
        y = rhs / (3.0 * u[0] ** 2 + 1.0)
        return y, self.apply_control_adjoint(u, z, y)

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
    res = kkt_residuals(problem, report.state, z, report.multiplier)
    assert res["forward"] <= 1e-12
    assert res["adjoint"] <= 1e-12


def test_reduced_gradient_state_independent_objective():
    problem = ControlOnly()
    z = np.array([0.3, -0.7])
    report = reduced_gradient(problem, z)
    np.testing.assert_allclose(report.gradient, 2.0 * z, atol=1e-14)


def test_adjoint_system_linearity():
    problem = NonlinearScalar()
    z = np.array([0.8])
    u = problem.solve_forward(z)
    y1, _ = problem.solve_adjoint(u, z, np.array([1.0]))
    y3, _ = problem.solve_adjoint(u, z, np.array([3.0]))
    assert abs(y3[0] - 3.0 * y1[0]) <= 1e-10 * abs(y3[0])


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
    y, _ = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    res = kkt_residuals(problem, u, z, y)
    assert res["forward"] <= 1e-10
    assert res["adjoint"] <= 1e-10
    assert res["control"] <= 1e-6


def test_kkt_residuals_exact_optimum():
    problem = LinearQuadratic(np.array([[1.0, 0.0], [0.0, 2.0]]))
    z = np.zeros(2)
    u = problem.solve_forward(z)
    y, _ = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
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


# -- every shipped problem's state pair passes the dot-product test -------------------

def advection_at(rng):
    return build_advection_problem(64, 1.3), rng.floats(1)


def elliptic_at(rng):
    problem, _ = make_elliptic_demo(127)
    return problem, rng.floats(problem.control_dim, -0.5, 0.5)


def network_at(rng):
    spec = NetworkSpec((2, 16, 16, 1))
    problem = NetworkTrainingProblem(spec, rng.matrix(2, 64), rng.matrix(1, 64))
    return problem, flatten_parameters(init_parameters(spec, seed=7))


@pytest.mark.parametrize("build", [advection_at, elliptic_at, network_at],
                         ids=["advection", "elliptic", "network"])
def test_state_adjoint_pair_passes_the_dot_product_test(build):
    rng = Lcg(91)
    problem, z = build(rng)
    u = problem.solve_forward(z)
    norm = np.linalg.norm
    for _ in range(5):
        du, w = rng.floats(problem.state_dim), rng.floats(problem.state_dim)
        j_du = problem.apply_state_jacobian(u, z, du)
        jt_w = problem.apply_state_adjoint(u, z, w)
        scale = norm(j_du) * norm(w) + norm(du) * norm(jt_w)
        assert abs(j_du @ w - du @ jt_w) <= 1e-15 * scale
        # the adjoint solve inverts the transposed Jacobian it is paired with
        y, _ = problem.solve_adjoint(u, z, w)
        assert norm(problem.apply_state_adjoint(u, z, y) - w) <= 1e-12 * norm(w)


@pytest.mark.parametrize("build", [advection_at, elliptic_at, network_at],
                         ids=["advection", "elliptic", "network"])
def test_adjoint_solve_returns_its_control_pull_back_bitwise(build):
    rng = Lcg(29)
    problem, z = build(rng)
    # at the forward state and at an arbitrary one
    for state in (problem.solve_forward(z), rng.floats(problem.state_dim)):
        rhs = rng.floats(problem.state_dim)
        y, pull = problem.solve_adjoint(state, z, rhs)
        y_ref, pull_ref = adjoint_then_pull(problem, state, z, rhs)
        assert np.array_equal(bits(y), bits(y_ref))
        assert np.array_equal(bits(pull), bits(pull_ref))


# -- every shipped problem is safe for concurrent read-only evaluation ---------------

def frozen(value):
    """A bitwise-comparable image of an attribute: arrays by dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (list, tuple)):
        return tuple(frozen(v) for v in value)
    if isinstance(value, dict):
        return {key: frozen(v) for key, v in value.items()}
    return value


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from arrays_in(v)


@pytest.mark.parametrize("build", [advection_at, elliptic_at, network_at],
                         ids=["advection", "elliptic", "network"])
def test_operations_share_no_memory_and_keep_no_state(build):
    rng = Lcg(17)
    problem, z = build(rng)
    before = frozen(vars(problem))
    attributes = list(arrays_in(list(vars(problem).values())))
    u, u_again = problem.solve_forward(z), problem.solve_forward(z)
    assert np.array_equal(u.view(np.uint64), u_again.view(np.uint64))
    assert not any(np.shares_memory(u, a) for a in [u_again, z] + attributes)
    assert not any(np.shares_memory(u_again, a) for a in attributes)
    w = rng.floats(problem.state_dim)
    operations = {"residual": (u, z), "solve_forward": (z,),
                  "apply_state_jacobian": (u, z, w), "apply_state_adjoint": (u, z, w),
                  "solve_adjoint": (u, z, w), "apply_control_adjoint": (u, z, w),
                  "objective": (u, z), "objective_grad_state": (u, z),
                  "objective_grad_control": (u, z),
                  "reduced_objectives": (np.stack([z, 0.5 * z, -z]),)}
    assert set(operations) == ConstrainedProblem.__abstractmethods__ | {"reduced_objectives"}
    for name, args in operations.items():
        inputs = frozen(args)
        out = getattr(problem, name)(*args)
        assert frozen(args) == inputs, f"{name} wrote into an argument"
        assert frozen(vars(problem)) == before, f"{name} changed the problem"
        # the adjoint solve returns the pair (multiplier, its control pull-back)
        members = out if name == "solve_adjoint" else (out,)
        arrays = [m for m in members if isinstance(m, np.ndarray)]
        assert len(members) == (2 if name == "solve_adjoint" else 1), name
        assert len(arrays) == (0 if name == "objective" else len(members)), name
        for i, member in enumerate(arrays):
            others = list(args) + attributes + arrays[:i] + arrays[i + 1:]
            assert not any(np.shares_memory(member, a) for a in others), (name, i)
        want = frozen(out)
        for member in arrays:
            member[...] = 7.0  # a later call must not hand back these arrays
        assert frozen(getattr(problem, name)(*args)) == want, name


# -- the descent pays only for what it reads ------------------------------------------

COUNTED = ("solve_forward", "solve_adjoint", "objective", "residual",
           "apply_state_adjoint", "apply_state_jacobian", "apply_control_adjoint")


class CountsCalls:
    """Mixin that counts, per instance, the calls of the methods in ``COUNTED``.

    Only calls from outside the problem count, not a problem's calls to itself
    (``solve_adjoint`` may return its pull-back by ``apply_control_adjoint``).
    """

    depth = 0

    @property
    def forward_calls(self):
        return self.calls["solve_forward"]


def _counting(name):
    def method(self, *args):
        if self.depth == 0:
            self.calls[name] += 1
        self.depth += 1
        try:
            return getattr(super(CountsCalls, self), name)(*args)
        finally:
            self.depth -= 1
    return method


for _name in COUNTED:
    setattr(CountsCalls, _name, _counting(_name))


def counted(problem):
    """A copy of ``problem`` whose class also counts its calls."""
    cls = type(problem)
    twin = object.__new__(type(f"Counted{cls.__name__}", (CountsCalls, cls), {}))
    twin.__dict__.update(vars(problem))
    twin.calls = Counter()
    return twin


def _full_evaluation_descent(problem, z0, step, iters, tol, next_start):
    """Descent as a full reduced-gradient evaluation per iteration.

    Every iteration solves forward again at the point the previous line
    search accepted; the history and iterate must not depend on that.  A
    trial whose forward solve fails is rejected.  Each line search after
    the first starts at ``next_start(alpha)``, ``alpha`` the last accepted step.
    """
    z = np.asarray(z0, dtype=float).copy()
    history = []
    start = step
    for k in range(iters):
        report = reduced_gradient(problem, z)
        g = report.gradient
        gnorm = float(np.linalg.norm(g))
        f_curr = report.f_value
        history.append((k, f_curr, gnorm, 0.0))
        if gnorm <= tol:
            return z, history
        alpha = start
        for _ in range(MAX_BACKTRACKS):
            candidate = z - alpha * g
            try:
                f_new = reduced_objective(problem, candidate)
            except NumericalError:
                f_new = np.nan
            if f_new <= f_curr - ARMIJO_SLOPE * alpha * gnorm * gnorm:
                break
            alpha *= 0.5
        else:
            raise AssertionError("oracle line search failed")
        history[-1] = (k, f_curr, gnorm, alpha)
        start = next_start(alpha)
        z = candidate
    return z, history


def descent_oracle(problem, z0, step, iters, tol):
    """Full-evaluation descent whose searches start at ``min(step, 8 alpha)``."""
    return _full_evaluation_descent(problem, z0, step, iters, tol,
                                    lambda alpha: min(step, 8.0 * alpha))


def cold_descent_oracle(problem, z0, step, iters, tol):
    """Full-evaluation descent whose every search starts at ``step``."""
    return _full_evaluation_descent(problem, z0, step, iters, tol, lambda alpha: step)


def trial_counts(history, step):
    """Line-search trials per iteration, from the accepted steps ``start / 2^j``
    with ``start = min(step, 8 alpha)`` after the first search."""
    counts, start = [], step
    for *_, alpha in history:
        if alpha > 0.0:
            counts.append(1 + round(np.log2(start / alpha)))
            start = min(step, 8.0 * alpha)
    return counts


def test_descent_solves_forward_once_per_trial():
    problem = counted(NonlinearScalar())
    step = 4.0
    result = gradient_descent(problem, np.array([2.0]), step=step, iters=12, tol=0.0)
    trials = trial_counts(result.history, step)
    assert sum(trials) > len(trials)  # some steps backtracked
    assert problem.forward_calls == 1 + sum(trials)
    assert result.backtracks == [t - 1 for t in trials]
    assert problem.calls["solve_adjoint"] == len(result.history)


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


@pytest.mark.parametrize("build", [
    lambda: (make_elliptic_demo(31, kappa=1e-3)[0], np.zeros(32), 100.0),
    lambda: (build_advection_problem(31, 1.0), np.array([1.0]), 1.5),
    network_problem,
    lambda: (NonlinearScalar(), np.array([2.0]), 4.0),
], ids=["elliptic", "advection", "network", "scalar"])
def test_descent_reads_no_residual_and_one_objective_per_trial(build):
    problem, z0, step = build()
    problem = counted(problem)
    result = gradient_descent(problem, z0, step=step, iters=15, tol=0.0)
    trials = sum(trial_counts(result.history, step))
    assert len(result.backtracks) == result.iterations == 15
    assert problem.forward_calls == 1 + result.iterations + sum(result.backtracks)
    assert problem.calls["residual"] == 0
    assert problem.calls["apply_state_adjoint"] == 0
    assert problem.calls["objective"] == problem.calls["solve_forward"] == 1 + trials
    assert problem.calls["solve_adjoint"] == len(result.history)
    assert problem.calls["apply_control_adjoint"] == 0  # the adjoint solve returns the pull-back


def test_fd_check_reads_no_residual():
    problem = counted(make_elliptic_demo(15)[0])
    fd_gradient_check(problem, np.zeros(16), steps=(1e-3,))
    assert problem.calls["residual"] == problem.calls["apply_state_adjoint"] == 0
    assert problem.calls["apply_control_adjoint"] == 0
    assert problem.calls["solve_adjoint"] == 1


def elliptic_fd_case(n, kappa):
    def build(rng):
        problem, _ = make_elliptic_demo(n, kappa=kappa)
        return problem, rng.floats(problem.control_dim, -0.5, 0.5)
    return build


FD_CASES = {f"elliptic-{n}-kappa-{kappa:g}": elliptic_fd_case(n, kappa)
            for n in (15, 31, 127, 255) for kappa in (0.0, 1e-3)}
FD_CASES.update({
    "advection": advection_at,
    "network": network_at,
    "linear-quadratic": lambda rng: (LinearQuadratic(rng.matrix(5, 3)), rng.floats(3)),
    "scalar": lambda rng: (NonlinearScalar(), rng.floats(1)),
})


@pytest.mark.parametrize("build", FD_CASES.values(), ids=FD_CASES)
def test_fd_check_matches_the_per_direction_reference_bitwise(build):
    problem, z = build(Lcg(43))
    got = fd_gradient_check(problem, z)
    want = fd_gradient_check_by_direction(problem, z)
    assert list(got) == list(want)
    assert np.array_equal(bits(list(got.values())), bits(list(want.values())))


@pytest.mark.parametrize("n", [15, 31, 63, 70])
def test_elliptic_fd_check_solves_forward_twice_per_step_and_block(n):
    # n = 31 is one full block of 32 controls, n = 70 three blocks, the last of 7
    problem = counted(make_elliptic_demo(n)[0])
    steps = (1e-2, 1e-3, 1e-4)
    fd_gradient_check(problem, Lcg(n).floats(n + 1, -0.5, 0.5), steps=steps)
    blocks = -(-(n + 1) // _FD_BLOCK)
    assert problem.forward_calls == 1 + 2 * len(steps) * blocks
    assert problem.calls["objective"] == 2 * len(steps) * blocks


@pytest.mark.parametrize("build", [advection_at, network_at], ids=["advection", "network"])
def test_row_loop_fd_check_solves_forward_twice_per_step_and_direction(build):
    problem, z = build(Lcg(44))
    problem = counted(problem)
    steps = (1e-2, 1e-3, 1e-4)
    fd_gradient_check(problem, z, steps=steps)
    assert problem.forward_calls == 1 + 2 * problem.control_dim * len(steps)


def test_line_search_backtracks_past_a_failed_forward_solve():
    # the first trials overflow exp(z); they must be halved away, not raised
    problem, _ = make_elliptic_demo(31)
    tally = counted(problem)
    result = gradient_descent(tally, np.zeros(32), step=1e8, iters=3, tol=0.0)
    steps = [alpha for *_, alpha in result.history]
    assert steps == [1e8 / 2 ** 17, 1e8 / 2 ** 17, 1e8 / 2 ** 16]
    assert result.backtracks == [17, 3, 2]  # the warm starts 1e8, 1e8 / 2^14, 1e8 / 2^14
    assert tally.forward_calls == 1 + 3 + 22  # a failed forward solve is a backtrack too
    fs = [row[1] for row in result.history]
    assert all(b < a for a, b in zip(fs, fs[1:]))
    z_ref, history_ref = descent_oracle(problem, np.zeros(32), 1e8, iters=3, tol=0.0)
    assert np.array_equal(np.array(result.history), np.array(history_ref))
    assert np.array_equal(result.z, z_ref)


class ForwardFailsAfter(LinearQuadratic):
    """Forward solves fail once ``good`` of them have succeeded."""

    def __init__(self, b, good):
        super().__init__(b)
        self.good = good

    def solve_forward(self, z):
        if self.good == 0:
            raise NumericalError("no state here")
        self.good -= 1
        return super().solve_forward(z)


def test_line_search_fails_after_every_trial_is_rejected():
    problem = ForwardFailsAfter(np.array([[1.0]]), good=1)
    with pytest.raises(NumericalError, match="line search failed at iteration 0"):
        gradient_descent(problem, np.ones(1), step=1.0, iters=3, tol=0.0)


def test_descent_failure_names_the_forward_solve_at_the_start():
    with pytest.raises(NumericalError, match="^forward solve failed at iteration 0: exp"):
        gradient_descent(make_elliptic_demo(7)[0], np.full(8, 1e3), step=1.0,
                         iters=3, tol=0.0)
    with pytest.raises(NumericalError, match="^forward solve failed at iteration 0: no"):
        gradient_descent(ForwardFailsAfter(np.array([[1.0]]), good=0), np.ones(1),
                         step=1.0, iters=3, tol=0.0)


class AdjointFailsOnSecondSolve(LinearQuadratic):
    adjoint_solves = 0

    def solve_adjoint(self, u, z, rhs):
        self.adjoint_solves += 1
        if self.adjoint_solves == 2:
            raise NumericalError("singular")
        return super().solve_adjoint(u, z, rhs)


def test_descent_failure_names_the_adjoint_solve():
    problem = AdjointFailsOnSecondSolve(np.array([[2.0]]))
    with pytest.raises(NumericalError, match="^adjoint solve failed at iteration 1: singular"):
        gradient_descent(problem, np.ones(1), step=0.1, iters=5, tol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 64),
       kappa=st.one_of(st.just(0.0), st.floats(1e-4, 1e-2)),
       step=st.floats(1.0, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_elliptic_descent_matches_oracle_bitwise(n, kappa, step, seed):
    problem, _ = make_elliptic_demo(n, kappa=kappa)
    z0 = 0.3 * np.random.default_rng(seed).standard_normal(n + 1)
    result = gradient_descent(problem, z0, step=step, iters=8, tol=0.0)
    z_ref, history_ref = descent_oracle(problem, z0, step, iters=8, tol=0.0)
    assert np.array_equal(np.array(result.history), np.array(history_ref))
    assert np.array_equal(result.z.view(np.uint64), z_ref.view(np.uint64))


# -- warm-started line search ---------------------------------------------------------

def control_batch(seed):
    """A 2-16-16-1 tanh network on 64 samples, drawn like the ``control`` benchmark's
    training instance but from ``default_rng(seed)``, a stream the benchmark never uses."""
    rng = np.random.default_rng(seed)
    sizes = (2, 16, 16, 1)
    x = rng.uniform(-1.0, 1.0, (2, 64))
    amp, freq, phase = rng.uniform(0.3, 0.8), rng.uniform(1.0, 3.0), rng.uniform(0.0, np.pi)
    target = amp * np.sin(freq * x[0] + phase) * x[1]
    params = Parameters([rng.uniform(-0.5, 0.5, (m, n)) for n, m in zip(sizes, sizes[1:])],
                        [rng.uniform(-0.5, 0.5, m) for m in sizes[1:]])
    return NetworkSpec(sizes), params, x, target[None, :]


def test_backtracks_stop_with_the_descent():
    problem = LinearQuadratic(np.diag([32.0, 1.0]))
    result = gradient_descent(problem, np.ones(2), step=1.0, iters=50, tol=1e-3)
    assert result.converged and len(result.backtracks) == result.iterations > 0
    assert gradient_descent(problem, np.ones(2), step=1.0, iters=0, tol=0.0).backtracks == []


def assert_warm_follows_cold(problem, z0, step, iters):
    """Warm and cold searches agree bit for bit up to the first iteration at which the
    cold search accepts more than 8 times its previous step; return that iteration
    (``iters`` when there is none)."""
    z_cold, cold = cold_descent_oracle(problem, z0, step, iters, tol=0.0)
    result = gradient_descent(problem, z0, step=step, iters=iters, tol=0.0)
    alphas = [row[3] for row in cold]
    grows = [k for k in range(1, iters) if alphas[k] > 8.0 * alphas[k - 1]]
    first = grows[0] if grows else iters
    assert np.array_equal(np.array(result.history[:first]), np.array(cold[:first]))
    if first == iters:
        assert np.array_equal(result.z.view(np.uint64), z_cold.view(np.uint64))
    else:
        assert result.history[first][:3] == cold[first][:3]
        assert result.history[first][3] <= 8.0 * alphas[first - 1] < alphas[first]
    return first


def test_warm_search_matches_cold_on_the_control_network():
    iters = 30
    firsts = []
    for seed in range(8):
        spec, params, x, a_obs = control_batch(1000 + seed)
        firsts.append(assert_warm_follows_cold(NetworkTrainingProblem(spec, x, a_obs),
                                               flatten_parameters(params), 1.0, iters))
    assert firsts.count(iters) >= 6  # seed 1006 alone grows the cold step 16-fold


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_warm_search_matches_cold_on_the_elliptic_demo(seed):
    problem, _ = make_elliptic_demo(127)
    z0 = np.zeros(128) if seed is None else 0.1 * np.random.default_rng(seed).standard_normal(128)
    assert assert_warm_follows_cold(problem, z0, 100.0, 150) == 150


def test_warm_search_caps_the_growth_of_the_step():
    # f = 0.5 (1024 z1^2 + z2^2): the first step 2^-10 zeroes z1, after which the cold
    # search takes step = 1 at once, and the warm one climbs 2^-7, 2^-4, 2^-1, 1
    problem = LinearQuadratic(np.diag([32.0, 1.0]))
    _, cold = cold_descent_oracle(problem, np.ones(2), 1.0, 10, tol=0.0)
    assert [row[3] for row in cold] == [2.0 ** -10, 1.0, 0.0]
    counted_problem = counted(problem)
    result = gradient_descent(counted_problem, np.ones(2), step=1.0, iters=10, tol=0.0)
    assert [row[3] for row in result.history] == [2.0 ** -10, 2.0 ** -7, 2.0 ** -4, 0.5, 1.0, 0.0]
    assert result.backtracks == [10, 0, 0, 0, 0]
    assert result.converged and result.iterations == 5
    assert counted_problem.forward_calls == 16
    z_ref, history_ref = descent_oracle(problem, np.ones(2), 1.0, 10, tol=0.0)
    assert np.array_equal(np.array(result.history), np.array(history_ref))
    assert np.array_equal(result.z, z_ref)


def test_train_solves_forward_at_most_0_6_times_as_often_as_a_cold_search(monkeypatch):
    spec, params, x, a_obs = control_batch(2000)
    trained = []

    def counted_problem(*args):
        trained.append(counted(NetworkTrainingProblem(*args)))
        return trained[-1]

    monkeypatch.setattr(network, "NetworkTrainingProblem", counted_problem)
    train(spec, params, list(zip(x.T, a_obs.T)), iters=30)
    cold = counted(NetworkTrainingProblem(spec, x, a_obs))
    cold_descent_oracle(cold, flatten_parameters(params), 1.0, 30, tol=0.0)
    cold_forward = cold.forward_calls - 30 + 1  # the oracle solves again at every iterate
    assert len(trained) == 1
    assert trained[0].forward_calls <= 0.6 * cold_forward


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(problem=st.sampled_from(["scalar", "elliptic"]),
       step=st.floats(1e-2, 1e3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_warm_search_keeps_armijo_and_the_step_cap(problem, step, seed):
    rng = np.random.default_rng(seed)
    if problem == "scalar":
        problem, z0 = NonlinearScalar(), rng.uniform(-5.0, 5.0, 1)
    else:
        problem, z0 = make_elliptic_demo(31)[0], 0.3 * rng.standard_normal(32)
    result = gradient_descent(problem, z0, step=step, iters=12, tol=0.0)
    rows, cap = result.history, step
    for k, ((_, f, gnorm, alpha), rejected) in enumerate(zip(rows, result.backtracks)):
        assert 0.0 < alpha <= cap and alpha == cap / 2 ** rejected
        if k + 1 < len(rows):
            assert rows[k + 1][1] <= f - ARMIJO_SLOPE * alpha * gnorm * gnorm
        cap = min(step, 8.0 * alpha)
