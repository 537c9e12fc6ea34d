"""Two 1-D PDE-constrained control problems on (0, 1).

Advection boundary control: transport ``beta u_x = 0`` with the inflow
flux condition ``-beta u(0) = z`` and objective ``0.5 integral u^2``.
The discrete adjoint of the upwind sweep is a downwind sweep, and the
control gradient is the multiplier of the inflow condition, whose value
reproduces the closed form ``z / beta^2`` exactly because upwinding is
exact for constants.

Elliptic coefficient inversion: ``-(exp(z) u')' = 0`` with Dirichlet
data, misfit objective against observed interior values, control ``z``
sampled at cell midpoints.  The conservative stencil is symmetric, so
the adjoint solve reuses the forward tridiagonal system, and the
per-cell gradient is ``exp(z) (du/h)(dv/h) h`` assembled from the state
and multiplier slopes.
"""

import numpy as np

from .core import matrix_operator
from .errors import NumericalError
from .optim import ConstrainedProblem
from .spectral import svd


def tridiagonal_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas algorithm; ``lower[0]`` and ``upper[-1]`` are ignored.

    Intended for diagonally dominant or SPD systems, where the
    elimination is stable without pivoting.  One elimination pass and
    one back-substitution pass run over Python floats, which is several
    times faster than indexing numpy scalars and gives the same bits.
    A pivot that is tiny or NaN raises ``NumericalError``.
    """
    b = np.asarray(diag, dtype=float)
    n = b.size
    if not (np.size(lower) == np.size(upper) == np.size(rhs) == n):
        raise ValueError("all bands and the right-hand side must share a length")
    floor = 1e-14 * max(np.abs(b).max(), 1e-300)
    # forward elimination over Python floats, row 0 through a zero lower entry
    a = [0.0] + np.asarray(lower, dtype=float).tolist()[1:]
    c = np.asarray(upper, dtype=float).tolist()[:n - 1] + [0.0]
    cp, dp = [0.0], [0.0]
    for ai, bi, ci, di in zip(a, b.tolist(), c, np.asarray(rhs, dtype=float).tolist()):
        denom = bi - ai * cp[-1]
        if not abs(denom) > floor:  # also catches a NaN band
            raise NumericalError("zero pivot in tridiagonal elimination")
        cp.append(ci / denom)
        dp.append((di - ai * dp[-1]) / denom)
    x = [0.0]
    for cpi, dpi in zip(reversed(cp[1:]), reversed(dp[1:])):
        x.append(dpi - cpi * x[-1])
    return np.array(x[:0:-1])


class AdvectionControlProblem(ConstrainedProblem):
    """Scalar inflow control of constant-velocity transport.

    State: nodal values on a uniform grid of n cells (n+1 nodes).
    Control: the single inflow flux datum.  The eliminated objective is
    ``z^2 / (2 beta^2)`` and its derivative ``z / beta^2``; the adjoint
    route reproduces both to roundoff.
    """

    def __init__(self, n: int, beta: float):
        if n < 2:
            raise ValueError("need at least two grid cells")
        if not 0.0 < beta < np.inf:
            raise ValueError("transport velocity must be positive and finite")
        self.n = int(n)
        self.beta = float(beta)
        self.h = 1.0 / n
        self.state_dim = n + 1
        self.control_dim = 1
        # trapezoid weights make the objective an exact integral of constants
        w = np.full(n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        self._weights = w

    def residual(self, u, z):
        r = np.empty(self.state_dim)
        r[0] = self.beta * u[0] + z[0]
        r[1:] = self.beta * np.diff(u) / self.h
        return r

    def solve_forward(self, z):
        return np.full(self.state_dim, -z[0] / self.beta)

    def apply_state_jacobian(self, u, z, du):
        out = np.empty(self.state_dim)
        out[0] = self.beta * du[0]
        out[1:] = self.beta * np.diff(du) / self.h
        return out

    def apply_state_adjoint(self, u, z, y):
        out = np.zeros(self.state_dim)
        out[0] = self.beta * y[0] - self.beta * y[1] / self.h
        out[1:] = self.beta * y[1:] / self.h
        out[1:-1] -= self.beta * y[2:] / self.h
        return out

    def solve_adjoint(self, u, z, rhs):
        # downwind sweep: the transpose of upwinding runs against the flow
        y = np.zeros(self.state_dim)
        y[-1] = self.h * rhs[-1] / self.beta
        for i in range(self.n - 1, 0, -1):
            y[i] = y[i + 1] + self.h * rhs[i] / self.beta
        y[0] = rhs[0] / self.beta + y[1] / self.h
        return y

    def apply_control_adjoint(self, u, z, y):
        return np.array([y[0]])

    def objective(self, u, z):
        return 0.5 * float(self._weights @ (u * u))

    def objective_grad_state(self, u, z):
        return self._weights * u

    def objective_grad_control(self, u, z):
        return np.zeros(1)

    def inflow_adjoint_trace(self, y):
        """Adjoint value at the inflow boundary (equals the gradient)."""
        return float(y[0])


class EllipticInversionProblem(ConstrainedProblem):
    """Recover a log-diffusivity field from interior observations.

    State: n interior nodal values with Dirichlet lift (g0, g1).
    Control: n+1 midpoint samples of the log coefficient.  An optional
    quadratic penalty ``0.5 kappa h |z|^2`` regularizes the inversion
    towards the constant coefficient ``exp(0) = 1``.
    """

    def __init__(self, n: int, g0: float, g1: float, u_obs, kappa: float = 0.0):
        if n < 3:
            raise ValueError("need at least three interior nodes")
        if not (np.isfinite(g0) and np.isfinite(g1)):
            raise ValueError("boundary data g0 and g1 must be finite")
        self.n = int(n)
        self.g0 = float(g0)
        self.g1 = float(g1)
        self.h = 1.0 / (n + 1)
        self.u_obs = np.asarray(u_obs, dtype=float)
        if self.u_obs.shape != (self.n,):
            raise ValueError("observation length must equal interior node count")
        self.state_dim = n
        self.control_dim = n + 1
        self.kappa = float(kappa)
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("penalty weight must be nonnegative and finite")
        self.grid = (np.arange(n) + 1.0) * self.h
        self.midpoints = (np.arange(n + 1) + 0.5) * self.h

    def _padded(self, u):
        return np.concatenate([[self.g0], u, [self.g1]])

    def _bands(self, z):
        coeff = np.exp(z)
        lower = np.zeros(self.n)
        upper = np.zeros(self.n)
        diag = (coeff[:-1] + coeff[1:]) / self.h ** 2
        lower[1:] = -coeff[1:-1] / self.h ** 2
        upper[:-1] = -coeff[1:-1] / self.h ** 2
        return lower, diag, upper, coeff

    def residual(self, u, z):
        coeff = np.exp(z)
        full = self._padded(u)
        flux = coeff * np.diff(full) / self.h  # flux per cell
        return -np.diff(flux) / self.h

    def solve_forward(self, z):
        lower, diag, upper, coeff = self._bands(z)
        rhs = np.zeros(self.n)
        rhs[0] = coeff[0] * self.g0 / self.h ** 2
        rhs[-1] = coeff[-1] * self.g1 / self.h ** 2
        return tridiagonal_solve(lower, diag, upper, rhs)

    def apply_state_jacobian(self, u, z, du):
        lower, diag, upper, _ = self._bands(z)
        out = diag * du
        out[1:] += lower[1:] * du[:-1]
        out[:-1] += upper[:-1] * du[1:]
        return out

    def apply_state_adjoint(self, u, z, w):
        return self.apply_state_jacobian(u, z, w)  # symmetric stencil

    def solve_adjoint(self, u, z, rhs):
        lower, diag, upper, _ = self._bands(z)
        return tridiagonal_solve(lower, diag, upper, rhs)

    def apply_control_adjoint(self, u, z, y):
        # per cell: coeff * (du/h) * (dv/h) * h with v = y/h, the multiplier
        # rescaled to the continuous adjoint amplitude
        coeff = np.exp(z)
        du = np.diff(self._padded(u))
        dy = np.diff(np.concatenate([[0.0], y, [0.0]]))
        return coeff * du * dy / self.h ** 2

    def objective(self, u, z):
        misfit = u - self.u_obs
        value = 0.5 * self.h * float(misfit @ misfit)
        if self.kappa > 0.0:
            value += 0.5 * self.kappa * self.h * float(z @ z)
        return value

    def objective_grad_state(self, u, z):
        return self.h * (u - self.u_obs)

    def objective_grad_control(self, u, z):
        if self.kappa > 0.0:
            return self.kappa * self.h * z
        return np.zeros(self.control_dim)

    def stiffness_matrix(self, z) -> np.ndarray:
        lower, diag, upper, _ = self._bands(z)
        k = np.diag(diag)
        k += np.diag(lower[1:], -1)
        k += np.diag(upper[:-1], 1)
        return k


def build_advection_problem(n: int, beta: float) -> AdvectionControlProblem:
    return AdvectionControlProblem(n, beta)


def build_elliptic_problem(n: int, g0: float, g1: float, u_obs,
                           kappa: float = 0.0) -> EllipticInversionProblem:
    return EllipticInversionProblem(n, g0, g1, u_obs, kappa=kappa)


def default_target_field(n: int) -> np.ndarray:
    """Smooth log-diffusivity ``0.8 sin(2 pi x)`` that synthesizes inversion data."""
    mid = (np.arange(n + 1) + 0.5) / (n + 1)
    return 0.8 * np.sin(2.0 * np.pi * mid)


def make_elliptic_demo(n: int, g0: float = 0.0, g1: float = 1.0,
                       kappa: float = 0.0):
    """Inversion instance whose data comes from a known smooth field."""
    z_true = default_target_field(n)
    clean = EllipticInversionProblem(n, g0, g1, np.zeros(n))
    u_obs = clean.solve_forward(z_true)
    return EllipticInversionProblem(n, g0, g1, u_obs, kappa=kappa), z_true


def discrete_infsup(op) -> float:
    """Smallest singular value of a dense operator.

    A positive value certifies unique discrete solvability with
    stability constant 1/value; zero (to rank tolerance) flags a
    singular discretization.
    """
    dec = svd(op)
    return float(dec.sigma[-1])


def elliptic_stiffness_operator(n: int, z) -> "DenseOperator":
    """Interior stiffness matrix wrapped as a Euclidean dense operator."""
    problem = EllipticInversionProblem(n, 0.0, 0.0, np.zeros(n))
    return matrix_operator(problem.stiffness_matrix(np.asarray(z, dtype=float)))
