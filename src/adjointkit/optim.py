"""Reduced-space gradients for equality-constrained problems.

A problem couples a state ``u`` and a control ``z`` through a residual
``c(u, z) = 0`` that determines the state.  The total derivative of the
objective with respect to the control alone is assembled from one
forward solve, one linear adjoint solve

    [d c / d u]^T y = -grad_u f,

and the combination ``grad_z f + [d c / d z]^T y``.  The adjoint system
is linear even when the constraint is not, which is what makes the
gradient as cheap as a pair of solves regardless of the control
dimension.  Problems expose their structure through callbacks; dense
fallbacks are provided for the adjoint operations so simple problems
only need the forward pieces.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .spectral import checked_vector

ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60


class ConstrainedProblem(ABC):
    """Callback bundle for one equality-constrained problem instance.

    Subclasses set ``state_dim`` and ``control_dim`` and implement the
    abstract methods.  The default adjoint operations densify the state
    Jacobian column by column, once per call, so ``reduced_gradient``,
    which calls both, builds it twice.  Override them when the
    constraint has exploitable structure (triangular, tridiagonal, ...).
    Instances must be safe for concurrent read-only evaluation.
    """

    state_dim: int
    control_dim: int

    @abstractmethod
    def residual(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Constraint value c(u, z); zero at a feasible pair."""

    @abstractmethod
    def solve_forward(self, z: np.ndarray) -> np.ndarray:
        """State u with residual(u, z) = 0."""

    @abstractmethod
    def apply_state_jacobian(self, u, z, du) -> np.ndarray:
        """Directional derivative of the residual in the state."""

    @abstractmethod
    def apply_control_adjoint(self, u, z, y) -> np.ndarray:
        """Transposed control Jacobian applied to a multiplier."""

    @abstractmethod
    def objective(self, u, z) -> float:
        pass

    @abstractmethod
    def objective_grad_state(self, u, z) -> np.ndarray:
        pass

    @abstractmethod
    def objective_grad_control(self, u, z) -> np.ndarray:
        pass

    # -- dense fallbacks ------------------------------------------------------

    def _dense_state_jacobian(self, u, z) -> np.ndarray:
        cols = []
        for j in range(self.state_dim):
            e = np.zeros(self.state_dim)
            e[j] = 1.0
            cols.append(self.apply_state_jacobian(u, z, e))
        return np.column_stack(cols)

    def apply_state_adjoint(self, u, z, w) -> np.ndarray:
        """Transposed state Jacobian applied to a multiplier."""
        return self._dense_state_jacobian(u, z).T @ w

    def solve_adjoint(self, u, z, rhs) -> np.ndarray:
        """Solve the transposed state-Jacobian system for the multiplier."""
        try:
            return np.linalg.solve(self._dense_state_jacobian(u, z).T, rhs)
        except np.linalg.LinAlgError:
            raise NumericalError("adjoint system is singular") from None


@dataclass(frozen=True)
class ReducedGradientReport:
    f_value: float
    gradient: np.ndarray
    forward_residual_norm: float
    adjoint_residual_norm: float
    state: np.ndarray
    multiplier: np.ndarray


@dataclass(frozen=True)
class DescentResult:
    z: np.ndarray
    history: list = field(default_factory=list)  # rows (k, f, grad_norm, step)
    converged: bool = False
    iterations: int = 0


def _checked_control(problem: ConstrainedProblem, z) -> np.ndarray:
    return checked_vector(z, problem.control_dim, "control", "control_dim")


def _control_block(problem: ConstrainedProblem, u, z, y):
    """KKT control block ``grad_z f + c_z^T y``: the reduced gradient at the multiplier."""
    return problem.objective_grad_control(u, z) + problem.apply_control_adjoint(u, z, y)


def _gradient_at_state(problem: ConstrainedProblem, u, z) -> np.ndarray:
    """Reduced gradient at a state solving ``c(u, z) = 0``, from one adjoint solve."""
    y = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    return _control_block(problem, u, z, y)


def reduced_gradient(problem: ConstrainedProblem, z: np.ndarray) -> ReducedGradientReport:
    """Objective value and total control gradient at ``z``.

    One forward solve, one adjoint solve and the gradient assembly; the
    report also carries the state, the multiplier and both residual norms.
    The adjoint residual applies ``apply_state_adjoint`` to the multiplier,
    so a problem on both dense fallbacks densifies its Jacobian twice.
    A control of the wrong length or with non-finite entries is a ``ValueError``.
    """
    z = _checked_control(problem, z)
    u = problem.solve_forward(z)
    gu = problem.objective_grad_state(u, z)
    y = problem.solve_adjoint(u, z, -gu)
    return ReducedGradientReport(
        f_value=float(problem.objective(u, z)), gradient=_control_block(problem, u, z, y),
        forward_residual_norm=float(np.linalg.norm(problem.residual(u, z))),
        adjoint_residual_norm=float(np.linalg.norm(gu + problem.apply_state_adjoint(u, z, y))),
        state=u, multiplier=y)


def reduced_objective(problem: ConstrainedProblem, z: np.ndarray) -> float:
    """Objective after eliminating the state through the constraint."""
    z = np.asarray(z, dtype=float)
    u = problem.solve_forward(z)
    return float(problem.objective(u, z))


def fd_gradient_check(problem: ConstrainedProblem, z: np.ndarray,
                      steps=(1e-2, 1e-3, 1e-4)) -> dict:
    """Central-difference probe of the reduced gradient.

    Differences the eliminated objective along every control direction
    and reports, per step size, the relative mismatch against the
    adjoint-based gradient.  Errors decay like the square of the step
    until roundoff takes over.
    """
    z = _checked_control(problem, z)
    if not all(0.0 < h < np.inf for h in steps):
        raise ValueError("finite-difference steps must be positive and finite")
    grad = _gradient_at_state(problem, problem.solve_forward(z), z)
    out = {}
    for h in steps:
        fd = np.zeros(problem.control_dim)
        for j in range(problem.control_dim):
            e = np.zeros(problem.control_dim)
            e[j] = h
            fd[j] = (reduced_objective(problem, z + e)
                     - reduced_objective(problem, z - e)) / (2.0 * h)
        scale = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12)
        out[h] = float(np.linalg.norm(fd - grad) / scale)
    return out


def gradient_descent(problem: ConstrainedProblem, z0: np.ndarray, step: float,
                     iters: int, tol: float) -> DescentResult:
    """Steepest descent on the reduced objective with Armijo backtracking.

    Each iteration halves the step until the sufficient-decrease test
    ``f(z - a g) <= f - 1e-4 a |g|^2`` passes, so the recorded objective
    values are strictly decreasing.  A trial costs one forward solve and
    one objective; a trial whose forward solve raises ``NumericalError``
    is rejected like one that fails the test.  An iteration adds one
    adjoint solve and one control-adjoint product at the accepted
    trial's state.  Residual norms come only from ``reduced_gradient``.
    """
    if not 0.0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    if iters < 0:
        raise ValueError(f"iters must be nonnegative, got {iters}")
    z = _checked_control(problem, z0).copy()
    history = []
    for k in range(iters):
        try:
            if k == 0:  # later iterations start at the trial the line search accepted
                stage = "forward solve"
                u = problem.solve_forward(z)
                f_curr = float(problem.objective(u, z))
            stage = "adjoint solve"
            g = _gradient_at_state(problem, u, z)
        except NumericalError as exc:
            raise NumericalError(f"{stage} failed at iteration {k}: {exc}") from None
        gnorm = float(np.linalg.norm(g))
        history.append((k, f_curr, gnorm, 0.0))
        if gnorm <= tol:
            return DescentResult(z=z, history=history, converged=True, iterations=k)
        alpha = step
        for _ in range(MAX_BACKTRACKS):
            candidate = z - alpha * g
            try:
                u = problem.solve_forward(candidate)
            except NumericalError:
                pass
            else:
                f_new = float(problem.objective(u, candidate))
                if f_new <= f_curr - ARMIJO_SLOPE * alpha * gnorm * gnorm:
                    break
            alpha *= 0.5
        else:
            raise NumericalError(f"line search failed at iteration {k}")
        history[-1] = (k, f_curr, gnorm, alpha)
        z, f_curr = candidate, f_new
    return DescentResult(z=z, history=history, converged=False, iterations=iters)


def kkt_residuals(problem: ConstrainedProblem, u, z, y) -> dict:
    """Norms of the three first-order optimality blocks at (u, y, z)."""
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.shape != (problem.state_dim,) or z.shape != (problem.control_dim,) \
            or y.shape != (problem.state_dim,):
        raise ValueError("inconsistent dimensions for KKT evaluation")
    adjoint_block = problem.objective_grad_state(u, z) + problem.apply_state_adjoint(u, z, y)
    return {"forward": float(np.linalg.norm(problem.residual(u, z))),
            "adjoint": float(np.linalg.norm(adjoint_block)),
            "control": float(np.linalg.norm(_control_block(problem, u, z, y)))}
