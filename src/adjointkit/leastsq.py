"""Least squares, Tikhonov regularization, and ill-posedness diagnostics.

The minimum-norm least-squares solution is assembled from the singular
system, ``x = sum_i (y, v_i) / s_i * u_i`` over the retained triplets,
with the coefficients ``(y, v_i)`` taken from ``left_coefficients``.
Tikhonov replaces the normal equations with the shifted system
``(A* A + kappa I) x = A* y + kappa x0``, which stays well conditioned
as the spectrum of ``A`` decays.  A discretized integration operator is
provided as the standard ill-posed test problem: inverting it amplifies
data errors by the reciprocal of the smallest retained singular value.
"""

from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, InnerProductSpace
from .spectral import SvdResult, left_coefficients, null_defect, svd


@dataclass(frozen=True)
class PicardRow:
    index: int
    sigma: float
    coeff: float
    ratio: float
    cumulative: float


@dataclass(frozen=True)
class PicardTable:
    """Per-mode expansion of the data against the singular system.

    ``rows`` follow descending singular values; ``cumulative`` is the
    running sum of squared ratios, the quantity whose boundedness
    decides solvability.  ``null_defect`` is the relative component of
    the data in the null space of the adjoint.
    """
    rows: tuple
    null_defect: float


@dataclass(frozen=True)
class TikhonovSolution:
    x: np.ndarray
    kappa: float
    residual_norm: float
    prior_distance: float


def normal_solve(op: DenseOperator, y: np.ndarray,
                 decomposition: SvdResult | None = None) -> np.ndarray:
    """Minimum-norm least-squares solution via the SVD pseudo-inverse.

    The residual ``A x - y`` lands in the null space of the adjoint, so
    the normal equations hold; among all minimizers the one orthogonal
    to ``N(A)`` is returned.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (op.codomain.dim,):
        raise ValueError("right-hand side length does not match codomain")
    dec = svd(op) if decomposition is None else decomposition
    r = dec.rank
    return dec.right_vectors[:, :r] @ (left_coefficients(dec, y)[:r] / dec.sigma[:r])


def tikhonov_solve(op: DenseOperator, y: np.ndarray, kappa: float,
                   x0: np.ndarray | None = None) -> TikhonovSolution:
    """Solve ``(A* A + kappa I) x = A* y + kappa x0`` by Cholesky.

    Assembled in Euclidean coordinates as ``A^T M_c A + kappa M_d``,
    which is SPD for every ``kappa > 0`` regardless of the rank of
    ``A``.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError("regularization parameter must be positive and finite")
    y = np.asarray(y, dtype=float)
    if y.shape != (op.codomain.dim,):
        raise ValueError("right-hand side length does not match codomain")
    x0 = np.zeros(op.domain.dim) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (op.domain.dim,):
        raise ValueError("prior length does not match domain")
    a = op.entries
    m_c = op.codomain.metric
    m_d = op.domain.metric
    lhs = a.T @ m_c @ a + kappa * m_d
    rhs = a.T @ (m_c @ y) + kappa * (m_d @ x0)
    chol = np.linalg.cholesky(lhs)
    x = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
    return TikhonovSolution(
        x=x, kappa=float(kappa),
        residual_norm=op.codomain.norm(op.matvec(x) - y),
        prior_distance=op.domain.norm(x - x0))


def picard_diagnostic(op: DenseOperator, y: np.ndarray,
                      decomposition: SvdResult | None = None) -> PicardTable:
    """Tabulate ``|(y, v_i)| / s_i`` over the retained singular values.

    Rapid decay of the ratio column signals a solvable problem; a flat
    or growing column means the data violates the source condition and
    inversion will amplify it.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (op.codomain.dim,):
        raise ValueError("right-hand side length does not match codomain")
    dec = svd(op) if decomposition is None else decomposition
    sigma = dec.sigma[:dec.rank]
    coeff = np.abs(left_coefficients(dec, y)[:dec.rank])
    ratio = coeff / sigma
    rows = zip(sigma.tolist(), coeff.tolist(), ratio.tolist(),
               np.cumsum(ratio * ratio).tolist())
    return PicardTable(rows=tuple(PicardRow(i + 1, *row) for i, row in enumerate(rows)),
                       null_defect=null_defect(dec, y))


def instability_demo(op: DenseOperator, y: np.ndarray, mode_index: int,
                     delta: float) -> float:
    """Error amplification when the data is perturbed along one left mode.

    Perturbing ``y`` by ``delta * v_N`` changes the least-squares
    solution by ``delta / s_N * u_N``, so the returned ratio
    ``|x~ - x| / |y~ - y|`` equals ``1 / s_N``; it grows without bound
    as the mode index approaches the spectral tail.
    """
    dec = svd(op)
    if not 1 <= mode_index <= dec.rank:
        raise ValueError(f"mode index {mode_index} exceeds rank {dec.rank}")
    y = np.asarray(y, dtype=float)
    x = normal_solve(op, y, decomposition=dec)
    perturbation = delta * dec.left_vectors[:, mode_index - 1]
    x_tilde = normal_solve(op, y + perturbation, decomposition=dec)
    return op.domain.norm(x_tilde - x) / op.codomain.norm(perturbation)


def integration_operator(n: int) -> DenseOperator:
    """Midpoint-rule discretization of ``x -> integral_0^t x(s) ds`` on (0, 1).

    Lower-triangular with constant entries ``h = 1/n``; both spaces
    carry the metric ``h I`` so inner products approximate the L2
    pairing and the singular values converge to those of the continuous
    integration operator.
    """
    if n < 2:
        raise ValueError("need at least two quadrature cells")
    h = 1.0 / n
    entries = h * np.tril(np.ones((n, n)))
    metric = np.diag(np.full(n, h))
    return DenseOperator(InnerProductSpace(n, metric),
                         InnerProductSpace(n, metric), entries)
