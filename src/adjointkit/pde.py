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

Neither state Jacobian is ever formed as a matrix.  Both are well posed
in the Banach-Necas-Babuska sense, which ``spectral.svd`` reads from
the Jacobian assembled column by column: in L2 norms the smallest
singular value of ``K`` at ``z = 0`` tends to ``pi^2`` and that of the
upwind ``u -> (beta u(0), beta u')`` to ``beta k`` with ``k tan k = 1``,
both at O(h^2), and neither adjoint has a null space.
"""

import numpy as np

from .core import checked_finite, checked_size, checked_vector
from .errors import NumericalError
from .optim import ConstrainedProblem


class AdvectionControlProblem(ConstrainedProblem):
    """Scalar inflow control of constant-velocity transport.

    State: nodal values on a uniform grid of n >= 2 cells (n+1 nodes).
    Control: the single inflow flux datum.  The eliminated objective is
    ``z^2 / (2 beta^2)`` and its derivative ``z / beta^2``; the adjoint
    route reproduces both to roundoff.  A state ``-z / beta`` past the
    float range raises ``NumericalError``, as the elliptic solve does.
    """

    def __init__(self, n: int, beta: float):
        n = checked_size(n, "n", 2)
        if not 0.0 < beta < np.inf:
            raise ValueError("transport velocity must be positive and finite")
        self.n = n
        self.beta = float(beta)
        self.h = 1.0 / n
        self.state_dim = n + 1
        self.control_dim = 1
        # trapezoid weights make the objective an exact integral of constants
        w = np.full(n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        self._weights = w

    def residual(self, u, z):
        r = self.apply_state_jacobian(u, z, u)  # affine in u: J u plus the inflow datum
        r[0] += z[0]
        return r

    def solve_forward(self, z):
        with np.errstate(all="ignore"):
            u0 = -z[0] / self.beta
        checked_finite(state=u0)
        return np.full(self.state_dim, u0)

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
        # downwind sweep: the transpose of upwinding, one running sum against the flow
        y = np.empty(self.state_dim)
        y[1:] = np.add.accumulate((self.h * rhs[1:] / self.beta)[::-1])[::-1]
        y[0] = rhs[0] / self.beta + y[1] / self.h
        return y, self.apply_control_adjoint(u, z, y)

    def apply_control_adjoint(self, u, z, y):
        return np.array([y[0]])

    def objective(self, u, z):
        return 0.5 * float(self._weights @ (u * u))

    def objective_grad_state(self, u, z):
        return self._weights * u

    def objective_grad_control(self, u, z):
        return np.zeros(1)

    def fields(self, u, y):
        """Nodes, state and continuous adjoint ``v = [y0, y[1:] / h]``."""
        x = np.arange(self.state_dim) * self.h
        return x, u, np.concatenate([[y[0]], y[1:] / self.h])


class EllipticInversionProblem(ConstrainedProblem):
    """Recover a log-diffusivity field from interior observations.

    State: n >= 3 interior nodal values with Dirichlet lift (g0, g1).
    Control: n+1 midpoint samples of the log coefficient.  An optional
    quadratic penalty ``0.5 kappa h |z|^2`` regularizes the inversion
    towards the constant coefficient ``exp(0) = 1``.

    ``solve_forward`` and ``objective`` also take stacks of controls and
    states, one per row, so ``reduced_objectives`` evaluates a whole
    stack by one forward solve and one objective, each row bit for bit
    the single-control value.
    """

    def __init__(self, n: int, g0: float, g1: float, u_obs, kappa: float = 0.0):
        n = checked_size(n, "n", 3)
        if not (np.isfinite(g0) and np.isfinite(g1)):
            raise ValueError("boundary data g0 and g1 must be finite")
        self.n = n
        self.g0 = float(g0)
        self.g1 = float(g1)
        self.h = 1.0 / (n + 1)
        self.u_obs = checked_vector(u_obs, self.n, "observations u_obs", "interior node count")
        self.state_dim = n
        self.control_dim = n + 1
        self.kappa = float(kappa)
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("penalty weight must be nonnegative and finite")
        self.grid = (np.arange(n) + 1.0) * self.h
        self.midpoints = (np.arange(n + 1) + 0.5) * self.h

    def _jumps(self, u, g0, g1):
        """``D u``: the jump of ``u`` across each cell, with end values (g0, g1)."""
        d = np.empty(self.n + 1)
        d[0], d[-1] = u[0] - g0, g1 - u[-1]
        np.subtract(u[1:], u[:-1], out=d[1:-1])
        return d

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
        flux is the constant ``F0 = (g1 - g0) / sum(w)``, and ``z`` may be
        a stack of controls along its last axis: each row of ``v`` is then
        the solve at that row of ``z``, bit for bit.

        The guard passes exactly when every ``w`` is in (0, inf) and every
        ``v`` is finite.  With ``min(w) > 0`` a finite ``sum(w)`` makes every
        ``w`` finite; only an overflowing sum needs ``max(w)``.  A running
        sum that reaches inf or NaN stays there, so a finite ``v[-1]`` clears
        the adjoint (end value zero) and the forward ``v``, which is monotone
        because every step has the sign of ``F0``.  A stack is tested by one
        reduction over all its rows per condition, ``max(w)`` in place of the
        sum test, so it fails as a whole exactly when some row fails.
        """
        # the guard below reports instead of checked_finite: a w of 0 (exp(z)
        # overflowed) is finite, yet no cell resistance
        with np.errstate(all="ignore"):
            w = self.h / np.exp(z)
            w_sum = w.sum() if z.ndim == 1 else w.sum(axis=-1, keepdims=True)  # column of totals
            if rhs is None:
                v = g0 + np.add.accumulate(w[..., :-1] * ((g1 - g0) / w_sum), axis=-1)
            else:
                s = np.zeros(self.n + 1)
                np.add.accumulate(self.h * rhs, out=s[1:])  # np.cumsum, without its wrapper
                f0 = (g1 - g0 + w @ s) / w_sum
                v = g0 + np.add.accumulate(w * (f0 - s))[:-1]
        # NaN-safe: every comparison with NaN is false
        if z.ndim == 1:  # scalar tests, which keep the one-control solves cheap
            ok = 0.0 < w.min() and (w_sum < np.inf or w.max() < np.inf) and abs(v[-1]) < np.inf
        else:  # the initial values let an empty stack through
            ok = (0.0 < w.min(initial=np.inf) and w.max(initial=0.0) < np.inf
                  and np.abs(v[..., -1]).max(initial=0.0) < np.inf)
        if not ok:
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
        y = self._solve(z, rhs, 0.0, 0.0)
        return y, self.apply_control_adjoint(u, z, y)

    def apply_control_adjoint(self, u, z, y):
        # per cell: coeff * (du/h) * (dv/h) * h with v = y/h, the multiplier
        # rescaled to the continuous adjoint amplitude
        du = self._jumps(u, self.g0, self.g1)
        return np.exp(z) * du * self._jumps(y, 0.0, 0.0) / self.h ** 2

    def objective(self, u, z):
        # vecdot takes stacks along the last axis; on vectors it is ``@`` bit for bit
        misfit = u - self.u_obs
        return (0.5 * self.h * np.vecdot(misfit, misfit)
                + 0.5 * self.kappa * self.h * np.vecdot(z, z))

    def reduced_objectives(self, zs):
        return self.objective(self.solve_forward(zs), zs)  # one forward solve for the stack

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


def build_advection_problem(n: int, beta: float) -> AdvectionControlProblem:
    return AdvectionControlProblem(n, beta)


def build_elliptic_problem(n: int, g0: float, g1: float, u_obs,
                           kappa: float = 0.0) -> EllipticInversionProblem:
    return EllipticInversionProblem(n, g0, g1, u_obs, kappa=kappa)


def default_target_field(n: int) -> np.ndarray:
    """Smooth log-diffusivity ``0.8 sin(2 pi x)`` that synthesizes inversion data.

    Sampled at the ``n + 1`` cell midpoints; ``n`` must be a non-negative integer.
    """
    n = checked_size(n, "n")
    mid = (np.arange(n + 1) + 0.5) / (n + 1)
    return 0.8 * np.sin(2.0 * np.pi * mid)


def make_elliptic_demo(n: int, g0: float = 0.0, g1: float = 1.0,
                       kappa: float = 0.0):
    """Inversion instance whose data comes from a known smooth field."""
    n = checked_size(n, "n")
    z_true = default_target_field(n)
    clean = EllipticInversionProblem(n, g0, g1, np.zeros(n))
    u_obs = clean.solve_forward(z_true)
    return EllipticInversionProblem(n, g0, g1, u_obs, kappa=kappa), z_true
