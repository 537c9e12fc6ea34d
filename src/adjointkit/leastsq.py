"""Least squares, Tikhonov regularization, and ill-posedness diagnostics.

The minimum-norm least-squares solution is assembled from the singular
system, ``x = sum_i (y, v_i) / s_i * u_i`` over the retained triplets,
with the coefficients ``(y, v_i)`` taken from ``left_coefficients``.
Tikhonov regularization reads the same singular system through filter
factors, ``x = x0 + sum_i s_i / (s_i^2 + kappa) (y - A x0, v_i) u_i``,
so neither it nor the pseudo-inverse forms the normal operator
``A* A`` and squares the condition number.  Every consumer shares the
one SVD that ``spectral.svd`` keeps per operator, and a result past the
float range is a ``NumericalError`` naming it.  A discretized integration
operator is the standard ill-posed test problem: inverting it amplifies
data errors by the reciprocal of the smallest retained singular value.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DenseOperator, InnerProductSpace, checked_finite, checked_size,
                   checked_vector)
from .spectral import left_coefficients, null_defect, svd


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


def normal_solve(op: DenseOperator, y: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution via the SVD pseudo-inverse.

    The residual ``A x - y`` lands in the null space of the adjoint, so
    the normal equations hold; among all minimizers the one orthogonal
    to ``N(A)`` is returned.
    """
    y = checked_vector(y, op.codomain.dim, "right-hand side", "codomain dimension")
    dec = svd(op)
    r = dec.rank
    with np.errstate(all="ignore"):
        x = dec.right_vectors[:, :r] @ (left_coefficients(dec, y)[:r] / dec.sigma[:r])
    checked_finite(x=x)
    return x


def tikhonov_solve(op: DenseOperator, y: np.ndarray, kappa: float,
                   x0: np.ndarray | None = None) -> TikhonovSolution:
    """Minimize ``|A x - y|^2 + kappa |x - x0|^2`` by filter factors.

    The minimizer solves ``(A* A + kappa I) x = A* y + kappa x0``; in the
    singular system it is ``x = x0 + sum_i s_i / (s_i^2 + kappa) c_i u_i``
    with ``c_i = (y - A x0, v_i)`` over all min(m, n) triplets.  The
    normal operator is never formed, so the error tracks the condition
    number of ``A``, not its square, for every ``kappa > 0`` and any rank.
    """
    if not 0.0 < kappa < np.inf:
        raise ValueError("regularization parameter must be positive and finite")
    y = checked_vector(y, op.codomain.dim, "right-hand side", "codomain dimension")
    x0 = (np.zeros(op.domain.dim) if x0 is None
          else checked_vector(x0, op.domain.dim, "prior", "domain dimension"))
    dec = svd(op)
    s = dec.sigma
    # s / (s^2 + kappa) as 1 / (s + kappa / s), since s^2 overflows from
    # s = 1.3e154 on; s = 0 (or kappa / s past the float range) gives 1 / inf = 0
    with np.errstate(all="ignore"):
        c = left_coefficients(dec, y - op.matvec(x0))[:s.size]
        f = 1.0 / (s + kappa / s)
        x = x0 + dec.right_vectors[:, :s.size] @ (f * c)
        residual_norm = op.codomain.norm(op.matvec(x) - y)
        prior_distance = op.domain.norm(x - x0)
    checked_finite(x=x, residual_norm=residual_norm, prior_distance=prior_distance)
    return TikhonovSolution(x=x, kappa=float(kappa), residual_norm=residual_norm,
                            prior_distance=prior_distance)


def picard_diagnostic(op: DenseOperator, y: np.ndarray) -> PicardTable:
    """Tabulate ``|(y, v_i)| / s_i`` over the retained singular values.

    Rapid decay of the ratio column signals a solvable problem; a flat
    or growing column means the data violates the source condition and
    inversion will amplify it.
    """
    y = checked_vector(y, op.codomain.dim, "right-hand side", "codomain dimension")
    dec = svd(op)
    sigma = dec.sigma[:dec.rank]
    with np.errstate(all="ignore"):
        coeffs = left_coefficients(dec, y)
        coeff = np.abs(coeffs[:dec.rank])
        ratio = coeff / sigma
        cumulative = np.cumsum(ratio * ratio)
        defect = null_defect(dec, coeffs)
    checked_finite(coeff=coeff, ratio=ratio, cumulative=cumulative, null_defect=defect)
    rows = zip(sigma.tolist(), coeff.tolist(), ratio.tolist(), cumulative.tolist())
    return PicardTable(rows=tuple(PicardRow(i + 1, *row) for i, row in enumerate(rows)),
                       null_defect=defect)


def instability_demo(op: DenseOperator, y: np.ndarray, mode_index: int,
                     delta: float) -> float:
    """Error amplification when the data is perturbed along one left mode.

    Perturbing ``y`` by ``delta * v_N`` changes the least-squares
    solution by ``delta / s_N * u_N``, so the returned ratio
    ``|x~ - x| / |y~ - y|`` equals ``1 / s_N``; it grows without bound
    as the mode index approaches the spectral tail.  ``delta`` must be
    non-zero and finite, and the mode index in ``[1, rank]``, checked
    once the SVD gives the rank.
    """
    if not 0.0 < abs(delta) < np.inf:
        raise ValueError(f"perturbation size must be non-zero and finite, got {delta}")
    dec = svd(op)
    mode_index = checked_size(mode_index, "mode index", 1, dec.rank)
    x = normal_solve(op, y)
    perturbation = delta * dec.left_vectors[:, mode_index - 1]
    x_tilde = normal_solve(op, y + perturbation)
    return op.domain.norm(x_tilde - x) / op.codomain.norm(perturbation)


def integration_operator(n: int) -> DenseOperator:
    """Midpoint-rule discretization of ``x -> integral_0^t x(s) ds`` on (0, 1).

    Lower-triangular with constant entries ``h = 1/n``; both spaces
    carry the metric ``h I`` so inner products approximate the L2
    pairing and the singular values converge to those of the continuous
    integration operator.  It takes ``n >= 2`` cells.
    """
    n = checked_size(n, "n", 2)
    h = 1.0 / n
    entries = h * np.tril(np.ones((n, n)))
    metric = np.diag(np.full(n, h))
    return DenseOperator(InnerProductSpace(n, metric),
                         InnerProductSpace(n, metric), entries)
