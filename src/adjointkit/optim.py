"""Reduced-space gradients for equality-constrained problems.

A problem couples a state ``u`` and a control ``z`` through a residual
``c(u, z) = 0`` that determines the state.  The total derivative of the
objective with respect to the control alone is assembled from one
forward solve, one linear adjoint solve

    [d c / d u]^T y = -grad_u f,

and the combination ``grad_z f + [d c / d z]^T y``.  The adjoint system
is linear even when the constraint is not, which is what makes the
gradient as cheap as a pair of solves regardless of the control
dimension.  Each problem supplies its own adjoint solve, written for
the structure of its constraint (a downwind sweep, a symmetric solve, a
backward substitution) and returning ``[d c / d z]^T y`` with ``y``, so
a backward sweep builds that pull-back from its own pieces; no generic
dense route stands in for it.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .core import checked_finite, checked_size, checked_vector
from .errors import NumericalError

ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
WARM_START_GROWTH = 8.0  # a line search starts at min(step, this times the last accepted step)
_FD_BLOCK = 32  # perturbed controls per reduced_objectives call; bounds the memory


class ConstrainedProblem(ABC):
    """Callback bundle for one equality-constrained problem instance.

    Subclasses set ``state_dim`` and ``control_dim`` and implement all
    nine abstract methods, the two adjoint operations included: the
    transposed state Jacobian is the problem's own to apply and to
    invert.  Instances must be safe for concurrent read-only evaluation.

    ``reduced_objectives`` is the one concrete method: the eliminated
    objective at each row of a stack of controls, by default one forward
    solve and one objective per row.  A problem whose forward solve can
    take the whole stack at once overrides it, and ``fd_gradient_check``
    then costs two stacked sweeps per step and block of controls.
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
    def apply_state_adjoint(self, u, z, w) -> np.ndarray:
        """Transposed state Jacobian applied to a multiplier."""

    @abstractmethod
    def solve_adjoint(self, u, z, rhs) -> tuple:
        """Multiplier ``y`` of the transposed state-Jacobian system, paired with its
        pull-back ``c_z^T y``, bit for bit ``apply_control_adjoint(u, z, y)``."""

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

    def reduced_objectives(self, zs: np.ndarray) -> np.ndarray:
        """Objective after eliminating the state, at each row of ``zs``.

        An override must give each row the value of this loop bit for bit,
        and raise ``NumericalError`` exactly when some row's forward solve does.
        """
        return np.array([self.objective(self.solve_forward(z), z) for z in zs], dtype=float)


@dataclass(frozen=True)
class ReducedGradientReport:
    f_value: float
    gradient: np.ndarray
    state: np.ndarray
    multiplier: np.ndarray


@dataclass(frozen=True)
class DescentResult:
    z: np.ndarray
    history: list = field(default_factory=list)  # rows (k, f, grad_norm, step)
    converged: bool = False
    iterations: int = 0
    backtracks: list = field(default_factory=list)  # rejected trials per line search


def _checked_control(problem: ConstrainedProblem, z) -> np.ndarray:
    return checked_vector(z, problem.control_dim, "control", "control_dim")


def _adjoint_gradient(problem: ConstrainedProblem, u, z):
    """Multiplier and reduced gradient at a state solving ``c(u, z) = 0``: one adjoint solve."""
    y, pull = problem.solve_adjoint(u, z, -problem.objective_grad_state(u, z))
    return y, problem.objective_grad_control(u, z) + pull  # kkt_residuals' control order, bitwise


def reduced_gradient(problem: ConstrainedProblem, z: np.ndarray) -> ReducedGradientReport:
    """Objective value and total control gradient at ``z``.

    One forward solve, one adjoint solve and the gradient assembly; the
    report also carries the state and the multiplier, which
    ``kkt_residuals`` turns into residual norms.
    A control of the wrong length or with non-finite entries is a ``ValueError``;
    an objective or gradient past the float range is a ``NumericalError``.
    """
    z = _checked_control(problem, z)
    with np.errstate(all="ignore"):
        u = problem.solve_forward(z)
        y, g = _adjoint_gradient(problem, u, z)
        f = float(problem.objective(u, z))
    checked_finite(objective=f, gradient=g)
    return ReducedGradientReport(f_value=f, gradient=g, state=u, multiplier=y)


def reduced_objective(problem: ConstrainedProblem, z: np.ndarray) -> float:
    """Objective after eliminating the state through the constraint.

    A control of the wrong length or with non-finite entries is a ``ValueError``.
    """
    return float(problem.reduced_objectives(_checked_control(problem, z)[None])[0])


def fd_gradient_check(problem: ConstrainedProblem, z: np.ndarray,
                      steps=(1e-2, 1e-3, 1e-4)) -> dict:
    """Central-difference probe of the reduced gradient.

    Differences the eliminated objective along every control direction
    and reports, per step size, the relative mismatch against the
    adjoint-based gradient.  Errors decay like the square of the step
    until roundoff takes over.

    The controls ``z + h e_j`` and ``z - h e_j`` go to ``reduced_objectives``
    in blocks of at most 32 directions, so the memory is O(32 p) for p
    controls.  That is 2p forward solves per step by the default row
    loop, and two stacked forward solves per step and block for a problem
    that overrides it, such as ``EllipticInversionProblem``; the errors
    are those of the per-direction loop, bit for bit.  An adjoint gradient
    or an error past the float range is a ``NumericalError``.
    """
    z = _checked_control(problem, z)
    if not all(0.0 < h < np.inf for h in steps):
        raise ValueError("finite-difference steps must be positive and finite")
    p = problem.control_dim
    out = {}
    with np.errstate(all="ignore"):
        _, grad = _adjoint_gradient(problem, problem.solve_forward(z), z)
        for h in steps:
            fd = np.zeros(p)
            for lo in range(0, p, _FD_BLOCK):
                e = h * np.eye(min(_FD_BLOCK, p - lo), p, lo)  # rows h e_lo, h e_(lo+1), ...
                fd[lo:lo + len(e)] = (problem.reduced_objectives(z + e)
                                      - problem.reduced_objectives(z - e)) / (2.0 * h)
            scale = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12)
            out[h] = float(np.linalg.norm(fd - grad) / scale)
    checked_finite(gradient=grad, relative_errors=list(out.values()))
    return out


def gradient_descent(problem: ConstrainedProblem, z0: np.ndarray, step: float,
                     iters: int, tol: float) -> DescentResult:
    """Steepest descent on the reduced objective with Armijo backtracking.

    Each iteration halves the step until the sufficient-decrease test
    ``f(z - a g) <= f - 1e-4 a |g|^2`` passes, so the recorded objective
    values are strictly decreasing.  The first search starts at ``step``
    and each later one at ``min(step, 8 a)``, ``a`` the last accepted
    step: every trial stays on the grid ``step / 2^j``, and a search
    accepts what one started at ``step`` would, unless that is more than
    8 times the last step.  A trial costs one forward solve and one
    objective; a trial whose forward solve raises ``NumericalError`` is
    rejected like one that fails the test, and ``backtracks`` counts each
    search's rejected trials, so is one whose objective overflows.  An
    iteration adds one adjoint solve, which returns the control pull-back
    too, at the accepted trial's state.  A start objective or gradient
    norm past the float range raises ``NumericalError`` naming its stage.
    Residual norms come only from ``kkt_residuals``.
    """
    if not 0.0 < step < np.inf:
        raise ValueError("step must be positive and finite")
    if not tol >= 0.0:
        raise ValueError("tol must be nonnegative")
    iters = checked_size(iters, "iters")
    z = _checked_control(problem, z0).copy()
    history, backtracks = [], []
    start = step
    with np.errstate(all="ignore"):
        for k in range(iters):
            try:
                if k == 0:  # later iterations start at the trial the line search accepted
                    stage = "forward solve"
                    u = problem.solve_forward(z)
                    stage = "objective"
                    f_curr = float(problem.objective(u, z))
                    checked_finite(objective=f_curr)
                stage = "adjoint solve"
                _, g = _adjoint_gradient(problem, u, z)
                gnorm = float(np.sqrt(g @ g))  # np.linalg.norm's own formula for a real vector
                if k == 0:  # a later gradient past the float range fails its line search
                    stage = "gradient"
                    checked_finite(gradient_norm=gnorm)
            except NumericalError as exc:
                raise NumericalError(f"{stage} failed at iteration {k}: {exc}") from None
            history.append((k, f_curr, gnorm, 0.0))
            if gnorm <= tol:
                return DescentResult(z=z, history=history, converged=True, iterations=k,
                                     backtracks=backtracks)
            alpha = start
            for rejected in range(MAX_BACKTRACKS):
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
            backtracks.append(rejected)
            start = min(step, WARM_START_GROWTH * alpha)
            z, f_curr = candidate, f_new
    return DescentResult(z=z, history=history, converged=False, iterations=iters,
                         backtracks=backtracks)


def kkt_residuals(problem: ConstrainedProblem, u, z, y) -> dict:
    """Norms of the three first-order optimality blocks at (u, y, z).

    This is the one place that evaluates the constraint and adjoint residuals.

    Each vector of the wrong length or with non-finite entries is a ``ValueError``.
    """
    u = checked_vector(u, problem.state_dim, "state", "state_dim")
    z = _checked_control(problem, z)
    y = checked_vector(y, problem.state_dim, "multiplier", "state_dim")
    adjoint_block = problem.objective_grad_state(u, z) + problem.apply_state_adjoint(u, z, y)
    control_block = problem.objective_grad_control(u, z) + problem.apply_control_adjoint(u, z, y)
    return {"forward": float(np.linalg.norm(problem.residual(u, z))),
            "adjoint": float(np.linalg.norm(adjoint_block)),
            "control": float(np.linalg.norm(control_block))}
