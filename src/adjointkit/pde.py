"""Two 1-D PDE-constrained control problems on (0, 1).

Advection boundary control: transport ``beta u_x = 0`` with the inflow
flux condition ``-beta u(0) = z`` and objective ``0.5 integral u^2``.
The discrete adjoint of the upwind sweep is a downwind sweep, and the
control gradient is the multiplier of the inflow condition, whose value
reproduces the closed form ``z / beta^2`` exactly because upwinding is
exact for constants.

Elliptic coefficient inversion: ``-(exp(z) u')' = 0`` with Dirichlet
data, misfit objective against observed interior values, control ``z``
sampled at cell midpoints.  The stiffness keeps the flux form of the
operator, ``K = D* diag(exp(z)) D / h^2`` with ``D`` the jump across
each cell, so it is symmetric: the adjoint solve is the forward solve
with zero end values, and both invert ``K`` by two running sums (one
for the flux ``D* F = h r``, one for the state ``D v = h F / exp(z)``).
The per-cell gradient is ``exp(z) (du/h)(dv/h) h`` assembled from the
state and multiplier slopes.
"""

import numpy as np

from .core import DenseOperator, matrix_operator
from .errors import NumericalError
from .optim import ConstrainedProblem
from .spectral import svd


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

    def fields(self, u, y):
        """Nodes, state and continuous adjoint ``v = [y0, y[1:] / h]``."""
        x = np.arange(self.state_dim) * self.h
        return x, u, np.concatenate([[y[0]], y[1:] / self.h])


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

    def _jumps(self, u, g0, g1):
        """``D u``: the jump of ``u`` across each cell, with end values (g0, g1)."""
        return np.diff(np.concatenate([[g0], u, [g1]]))

    def _divergence(self, z, u, g0, g1):
        """``K u = D* (exp(z) D u) / h^2``: minus the divergence of the cell fluxes."""
        flux = np.exp(z) * self._jumps(u, g0, g1) / self.h
        return -np.diff(flux) / self.h

    def _solve(self, z, rhs, g0, g1):
        """``v`` with ``K v = rhs`` and end values (g0, g1), by two running sums.

        ``D* F = h rhs`` makes the flux through cell i ``F0 - s_i`` with
        ``s = [0, cumsum(h rhs)]``, and ``D v = h F / exp(z)`` steps ``v``
        by ``w_i (F0 - s_i)`` across cell i, ``w = h / exp(z)`` being the
        cell resistances; the end values fix ``F0``.  With no ``rhs`` the
        flux is the constant ``F0 = (g1 - g0) / sum(w)``.
        """
        with np.errstate(all="ignore"):  # the guard below reports instead
            w = self.h / np.exp(z)
            if rhs is None:
                v = g0 + np.add.accumulate(w[:-1] * ((g1 - g0) / w.sum()))
            else:
                s = np.zeros(self.n + 1)
                np.add.accumulate(self.h * rhs, out=s[1:])  # np.cumsum, without its wrapper
                f0 = (g1 - g0 + w @ s) / w.sum()
                v = g0 + np.add.accumulate(w * (f0 - s))[:-1]
        # NaN-safe: every comparison with NaN is false
        if not (0.0 < w.min() and w.max() < np.inf and np.isfinite(v).all()):
            raise NumericalError("exp(z) is not positive and finite in every cell, "
                                 "or the elliptic solve overflowed")
        return v

    def residual(self, u, z):
        return self._divergence(z, u, self.g0, self.g1)

    def solve_forward(self, z):
        return self._solve(z, None, self.g0, self.g1)

    def apply_state_jacobian(self, u, z, du):
        return self._divergence(z, du, 0.0, 0.0)

    def apply_state_adjoint(self, u, z, w):
        return self.apply_state_jacobian(u, z, w)  # symmetric stencil

    def solve_adjoint(self, u, z, rhs):
        return self._solve(z, rhs, 0.0, 0.0)

    def apply_control_adjoint(self, u, z, y):
        # per cell: coeff * (du/h) * (dv/h) * h with v = y/h, the multiplier
        # rescaled to the continuous adjoint amplitude
        du = self._jumps(u, self.g0, self.g1)
        return np.exp(z) * du * self._jumps(y, 0.0, 0.0) / self.h ** 2

    def objective(self, u, z):
        misfit = u - self.u_obs
        return (0.5 * self.h * float(misfit @ misfit)
                + 0.5 * self.kappa * self.h * float(z @ z))

    def objective_grad_state(self, u, z):
        return self.h * (u - self.u_obs)

    def objective_grad_control(self, u, z):
        return self.kappa * self.h * z

    def fields(self, u, y):
        """Midpoints, cell averages of the state and of the adjoint ``v = y / h``.

        Both are padded with their end values, (g0, g1) and zero.
        """
        def cell_average(w, w0, w1):
            padded = np.concatenate([[w0], w, [w1]])
            return 0.5 * (padded[:-1] + padded[1:])
        return (self.midpoints, cell_average(u, self.g0, self.g1),
                cell_average(y / self.h, 0.0, 0.0))

    def stiffness_matrix(self, z) -> np.ndarray:
        """``K = D^T diag(exp(z)) D / h^2`` with the same Dirichlet ``D`` as ``sturm``."""
        d = np.eye(self.n + 1, self.n) - np.eye(self.n + 1, self.n, -1)
        return d.T @ (np.exp(z)[:, None] * d) / self.h ** 2


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


def elliptic_stiffness_operator(n: int, z) -> DenseOperator:
    """Interior stiffness matrix wrapped as a Euclidean dense operator."""
    problem = EllipticInversionProblem(n, 0.0, 0.0, np.zeros(n))
    return matrix_operator(problem.stiffness_matrix(np.asarray(z, dtype=float)))
