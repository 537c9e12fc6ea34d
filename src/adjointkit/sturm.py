"""Discretized Sturm-Liouville eigenproblems on (0, 1).

The operator ``-(p v')' + q v = lambda rho v`` keeps its factored form
``D* p D + q`` on the grid:

    K = D^T diag(p_half) D / h^2 + diag(q),

where row ``i`` of the difference matrix ``D`` takes the jump of ``v``
across flux interface ``i`` and ``p_half`` samples ``p`` there, so K is
symmetric by construction.  The boundary condition only picks the grid,
the interfaces and the node pair each one joins, which is its row of
``D``: interior nodes with zero end values (dirichlet), cell midpoints
with no flux through the ends (neumann), and interfaces wrapping around
(periodic).  ``K`` is written from those pairs, never multiplied out.
Modes solve the generalized
problem ``K v = lambda diag(rho) v``, folded into the symmetric standard
problem ``W^{-1/2} K W^{-1/2}`` (``W = diag(rho)``) that LAPACK ``eigh``
solves, and are normalized in the discrete weighted L2 product
``h * sum(rho u v)``, so for the constant-coefficient dirichlet case
they reproduce the sine basis samples ``sqrt(2) sin(n pi x)`` and the
eigenvalues obey the exact discrete formula ``(4/h^2) sin^2(n pi h / 2)``.
"""

from dataclasses import dataclass

import numpy as np

from .core import checked_finite, checked_size, checked_vector, euclidean_norm

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "periodic")
# Largest grid accepted, the high of SLProblem's checked_size.  Assembly writes
# O(n) stencil entries into a dense O(n^2) matrix; the dense eigensolve takes
# O(n^3) time.  At n = 2000 every constant-coefficient dirichlet eigenvalue is
# within 1.1e-10 relative of dirichlet_eigenvalue_formula.
MAX_SL_NODES = 2000


@dataclass(frozen=True)
class SLProblem:
    """Coefficients (callables of x), boundary condition, and grid size.

    ``n`` must be in ``[3, MAX_SL_NODES]``; no grid is built until ``discretize``.
    """
    p: callable
    q: callable
    rho: callable
    bc: str = "dirichlet"
    n: int = 63

    def __post_init__(self):
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        object.__setattr__(self, "n",  # frozen: store the int
                           checked_size(self.n, "n", 3, MAX_SL_NODES))


def constant_coefficient_problem(bc: str = "dirichlet", n: int = 63) -> SLProblem:
    """-v'' = lambda v, the classical Fourier case."""
    return SLProblem(p=lambda x: 1.0, q=lambda x: 0.0, rho=lambda x: 1.0, bc=bc, n=n)


@dataclass(frozen=True)
class Discretization:
    """Stiffness matrix, weight samples, and the grid they live on."""
    stiffness: np.ndarray
    rho: np.ndarray  # diagonal of the weight matrix
    grid: np.ndarray
    h: float

    def _vector(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.rho.shape:
            raise ValueError(f"expected a vector of length {self.rho.size}, got shape {u.shape}")
        return u

    def weighted_inner(self, u, v) -> float:
        return float(self.h * np.sum(self.rho * self._vector(u) * self._vector(v)))

    def weighted_norm(self, u) -> float:
        """``sqrt(h sum(rho u^2))`` as ``euclidean_norm`` of ``sqrt(h rho) u``."""
        with np.errstate(all="ignore"):  # a norm past the range is inf, for callers to refuse
            return euclidean_norm(np.sqrt(self.h * self.rho) * self._vector(u))


@dataclass(frozen=True)
class ModeSet:
    """Ascending eigenvalues with weight-orthonormal mode columns."""
    eigenvalues: np.ndarray
    modes: np.ndarray
    disc: Discretization


def discretize(problem: SLProblem) -> Discretization:
    """Assemble ``K = D^T diag(p_half) D / h^2 + diag(q)`` from its stencil.

    Row ``i`` of ``D`` is ``e_hi - e_lo`` for the node pair ``(lo, hi)``
    across flux interface ``i``, so ``D^T diag(p_half) D`` has ``p_half[i]``
    at ``(lo, lo)`` and ``(hi, hi)`` and ``-p_half[i]`` at ``(lo, hi)`` and
    ``(hi, lo)``; writing those entries, in O(n) work, gives the bits of
    the dense product.  The coefficients are evaluated point by point, so
    scalar-only callables work.  A ``K`` past the float range raises
    ``NumericalError``.
    """
    n = problem.n
    if problem.bc == "dirichlet":
        # interface i sits between nodes i-1 and i; the end values are zero,
        # so the boundary nodes -1 and n both land on a padded index n
        h = 1.0 / (n + 1)
        grid = (np.arange(n) + 1.0) * h
        interfaces = (np.arange(n + 1) + 0.5) * h
        lo = np.arange(-1, n)
        hi = lo + 1
    elif problem.bc == "neumann":
        # cell midpoints; no flux through the ends
        h = 1.0 / n
        grid = (np.arange(n) + 0.5) * h
        interfaces = np.arange(1, n) * h
        lo = np.arange(n - 1)
        hi = lo + 1
    else:  # periodic: interface i sits between nodes i and i+1 (mod n)
        h = 1.0 / n
        grid = np.arange(n) * h
        interfaces = (np.arange(n) + 0.5) * h
        lo = np.arange(n)
        hi = (lo + 1) % n
    p_half = np.asarray([problem.p(x) for x in interfaces], dtype=float)
    q = np.asarray([problem.q(x) for x in grid], dtype=float)
    rho = np.asarray([problem.rho(x) for x in grid], dtype=float)
    # written so that NaN fails each test
    if not np.all((0.0 < rho) & (rho < np.inf)):
        raise ValueError("weight function must be positive and finite on the grid")
    if not np.all((0.0 < p_half) & (p_half < np.inf)):
        raise ValueError("diffusion coefficient must be positive and finite")
    if not np.all(np.isfinite(q)):
        raise ValueError("potential q must be finite on the grid")
    # a node meets at most two interfaces, so its diagonal sum has the
    # product's bits, and each (lo, hi) pair is written once
    with np.errstate(all="ignore"):
        diagonal = np.zeros(n + 1)
        diagonal[lo] += p_half
        diagonal[hi] += p_half
        k = np.zeros((n + 1, n + 1))
        k[lo, hi] = k[hi, lo] = -p_half / h ** 2
        k = k[:n, :n]
        k[np.arange(n), np.arange(n)] = diagonal[:n] / h ** 2 + q
    checked_finite(stiffness=k)
    return Discretization(stiffness=k, rho=rho, grid=grid, h=h)


def solve_modes(disc: Discretization, k: int) -> ModeSet:
    """First ``k`` eigenpairs of ``K v = lambda diag(rho) v``, ascending, ``1 <= k <= n``.

    The weight is folded in symmetrically through its square root, LAPACK
    ``eigh`` solves the standard problem (eigenvalues come out
    ascending), and modes are scaled to unit discrete weighted L2 norm.
    A folded matrix past the float range raises ``NumericalError``.
    """
    n = disc.stiffness.shape[0]
    k = checked_size(k, "k", 1, n)
    d_half = np.sqrt(disc.rho)
    with np.errstate(all="ignore"):
        sym = disc.stiffness / np.outer(d_half, d_half)
    checked_finite(folded_stiffness=sym)
    vals, vecs = np.linalg.eigh(sym)
    modes = (vecs / d_half[:, None]) / np.sqrt(disc.h)
    return ModeSet(eigenvalues=vals[:k], modes=modes[:, :k], disc=disc)


def fourier_coefficients(f: np.ndarray, modes: ModeSet) -> np.ndarray:
    """Expansion coefficients ``c_n = h sum(rho f v_n)``, all as ``V^T (h rho f)``.

    Samples of the wrong length or with non-finite entries are a ``ValueError``.
    """
    disc = modes.disc
    f = checked_vector(f, disc.grid.size, "sample", "grid size")
    return modes.modes.T @ (disc.h * disc.rho * f)


def reconstruct(coefficients: np.ndarray, modes: ModeSet,
                n_terms: int | None = None) -> np.ndarray:
    """Sum of the first ``n_terms`` coefficients times their modes, all by default.

    The term count, ``len(coefficients)`` by default, must be in ``[0, available]``,
    the fewer of the modes and the coefficients; any other is a ``ValueError``.
    """
    available = min(len(coefficients), modes.modes.shape[1])
    cut = checked_size(len(coefficients) if n_terms is None else n_terms, "term count",
                       0, available)
    return modes.modes[:, :cut] @ np.asarray(coefficients[:cut], dtype=float)


def truncation_error(f: np.ndarray, modes: ModeSet, n_list) -> np.ndarray:
    """Weighted L2 error of the N-term reconstruction, per requested ``0 <= N <= k``;
    one past the float range raises ``NumericalError``."""
    f = np.asarray(f, dtype=float)
    with np.errstate(all="ignore"):
        coeffs = fourier_coefficients(f, modes)
        errors = np.array([modes.disc.weighted_norm(f - reconstruct(coeffs, modes, n_terms))
                           for n_terms in n_list])
    checked_finite(truncation_error=errors)
    return errors


def dirichlet_eigenvalue_formula(n_mode: int, h: float) -> float:
    """Exact eigenvalue of the constant-coefficient dirichlet stencil."""
    return (4.0 / h ** 2) * np.sin(n_mode * np.pi * h / 2.0) ** 2
