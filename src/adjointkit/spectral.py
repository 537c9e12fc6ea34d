"""Self-adjoint eigendecomposition and the SVD in weighted inner products.

Both go through one whitening.  With metrics ``M = L L^T`` the operator
becomes ``B = L_cod^T A L_dom^{-T}`` in metric-orthonormal coordinates;
``B`` is symmetric exactly when ``A`` is self-adjoint in the metric, and
its singular values are those of ``A`` between the weighted norms.
LAPACK (``eigh``, ``svd``) factors ``B`` directly, never the normal
operator ``A* A``, which would square the condition number, and vectors
are mapped back through ``L^{-T}`` so they come out orthonormal in the
metric.  The full codomain basis of the SVD spans the null space of
``A*`` past the rank, and ``left_coefficients`` expands data in that
basis for every consumer of the singular system.
"""

from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, InnerProductSpace
from .errors import NumericalError

_SELF_ADJOINT_TOL = 1e-8
DEFAULT_RANK_TOL_FACTOR = 1e-10


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues (descending) and metric-orthonormal eigenvector columns."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Singular triplets plus full orthonormal bases of domain and codomain.

    ``sigma`` holds the min(m, n) singular values in descending order,
    ``right_vectors`` all n domain vectors, ``left_vectors`` all m
    codomain vectors, and ``rank`` the number of values above the rank
    tolerance used at construction.
    """
    sigma: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    rank: int
    domain: InnerProductSpace
    codomain: InnerProductSpace


@dataclass(frozen=True)
class SubspaceBases:
    """Orthonormal bases of the four fundamental subspaces."""
    range_a: np.ndarray
    null_a: np.ndarray
    range_astar: np.ndarray
    null_astar: np.ndarray


def _unwhiten(space: InnerProductSpace, coords: np.ndarray) -> np.ndarray:
    """Map metric-orthonormal coordinate columns back: ``L^{-T} c``."""
    if space.is_euclidean:
        return coords
    return np.linalg.solve(space.cholesky.T, coords)


def eig_self_adjoint(op: DenseOperator) -> EigResult:
    """Spectral decomposition of a self-adjoint operator.

    The input must map a space to itself, and its whitened matrix
    ``B = L^T A L^{-T}`` must be symmetric to ``|B - B^T|_2 <= 1e-8 |B|_2``;
    otherwise a ``ValueError`` is raised.  LAPACK ``eigh`` diagonalizes
    the symmetric part of ``B``; eigenvalues are returned descending
    with metric-orthonormal eigenvectors.
    """
    space = op.domain
    if op.codomain.dim != space.dim or not np.array_equal(op.codomain.metric, space.metric):
        raise ValueError("operator must map a space to itself")
    b = op.whitened()
    defect = np.linalg.norm(b - b.T, 2)
    if defect > _SELF_ADJOINT_TOL * np.linalg.norm(b, 2):
        raise ValueError(f"operator is not self-adjoint (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh(0.5 * (b + b.T))
    return EigResult(eigenvalues=vals[::-1], eigenvectors=_unwhiten(space, vecs[:, ::-1]))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    rows = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[rows, np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -vectors, vectors)


def svd(op: DenseOperator, rank_tol: float | None = None) -> SvdResult:
    """Singular value decomposition in the weighted inner products.

    LAPACK factors the whitened matrix ``L_cod^T A L_dom^{-T}`` with
    full bases, so the left vectors past the rank span the null space
    of the adjoint.  Singular values are reported as LAPACK computes
    them, including those below the rank tolerance (default 1e-10 of
    the largest); only ``rank`` is cut there.  Signs follow a fixed
    convention: the dominant entry of each right vector is positive,
    left vectors for ``i < rank`` are recomputed as ``A u_i / s_i`` and
    so inherit the sign, and the remaining left vectors get the
    dominant-entry convention of their own.  A NaN, negative or infinite
    ``rank_tol`` raises ``ValueError``; a non-finite singular value (an
    operator whose norm overflows) raises ``NumericalError``, since no
    rank tolerance can be derived from it.
    """
    if rank_tol is not None and not 0.0 <= rank_tol < np.inf:
        raise ValueError(f"rank_tol must be a finite non-negative number, got {rank_tol}")
    left_w, sigma, right_wt = np.linalg.svd(op.whitened(), full_matrices=True)
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("singular values are non-finite "
                             "(the operator norm overflows)")
    right = _fix_signs(_unwhiten(op.domain, right_wt.T))
    left = _unwhiten(op.codomain, left_w)
    tol = DEFAULT_RANK_TOL_FACTOR * sigma[0] if rank_tol is None else float(rank_tol)
    rank = int(np.sum(sigma > tol))
    left[:, :rank] = (op.entries @ right[:, :rank]) / sigma[:rank]
    left[:, rank:] = _fix_signs(left[:, rank:])
    return SvdResult(sigma=sigma, right_vectors=right, left_vectors=left,
                     rank=rank, domain=op.domain, codomain=op.codomain)


def fundamental_subspaces(s: SvdResult) -> SubspaceBases:
    """Slice the SVD bases into the four fundamental subspaces."""
    r = s.rank
    return SubspaceBases(
        range_a=s.left_vectors[:, :r],
        null_a=s.right_vectors[:, r:],
        range_astar=s.right_vectors[:, :r],
        null_astar=s.left_vectors[:, r:],
    )


def left_coefficients(s: SvdResult, y: np.ndarray) -> np.ndarray:
    """Inner products ``(y, v_i)`` with all m left singular vectors.

    The left vectors are a metric-orthonormal basis of the codomain, so
    these are the coordinates of ``y`` in it: the first ``rank`` expand
    the range of ``A``, the rest the null space of ``A*``.
    """
    return s.left_vectors.T @ (s.codomain.metric @ y)


def null_defect(s: SvdResult, y: np.ndarray) -> float:
    """Relative norm ``|P_{N(A*)} y| / |y|`` of the data outside the range."""
    y_norm = s.codomain.norm(y)
    if y_norm == 0.0:
        return 0.0
    return float(np.linalg.norm(left_coefficients(s, y)[s.rank:]) / y_norm)


def solvability_check(op: DenseOperator, y: np.ndarray, tol: float = 1e-10) -> dict:
    """Existence test for ``A u = y`` via the null space of the adjoint.

    The equation is solvable exactly when ``y`` is orthogonal to
    ``N(A*)``; the defect reported is the relative norm of the offending
    component.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (op.codomain.dim,):
        raise ValueError("right-hand side length does not match codomain")
    defect = null_defect(svd(op), y)
    return {"solvable": bool(defect <= tol), "defect": defect}


def orthogonal_projector(basis: np.ndarray, space: InnerProductSpace) -> DenseOperator:
    """Orthogonal projector onto the span of metric-orthonormal columns.

    ``P x = sum_i (x, u_i) u_i``; as a matrix this is ``U U^T M``.  The
    result is idempotent and self-adjoint in the space's inner product.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != space.dim:
        raise ValueError("basis must be columns of length space.dim")
    gram = basis.T @ space.metric @ basis
    if gram.size and np.abs(gram - np.eye(basis.shape[1])).max() > 1e-8:
        raise ValueError("basis is not orthonormal in the space metric")
    entries = basis @ basis.T
    if not space.is_euclidean:
        entries = entries @ space.metric
    return DenseOperator(space, space, entries)
