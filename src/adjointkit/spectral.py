"""Self-adjoint eigendecomposition and the SVD in weighted inner products.

Both go through one whitening.  With metrics ``M = L L^T`` the operator
becomes ``B = L_cod^T A L_dom^{-T}`` in metric-orthonormal coordinates;
``B`` is symmetric exactly when ``A`` is self-adjoint in the metric, and
its singular values are those of ``A`` between the weighted norms.
LAPACK (``eigh``, ``svd``) factors ``B`` directly, never the normal
operator ``A* A``, which would square the condition number, and vectors
are mapped back through ``L^{-T}`` by ``InnerProductSpace.unwhiten`` so
they come out orthonormal in the metric.  A diagonal factor (the
identity, a quadrature weight) is applied entrywise by its reciprocal,
as the triangular solve itself does; only a dense one is solved with.
The full codomain basis of the SVD spans the null space of ``A*`` past
the rank, and ``left_coefficients`` expands data in that basis for
every consumer of the singular system.  Each operator is factored once, by
``core._factors``: its singular values and bases are kept on it,
read-only, and ``core.operator_norm`` reads the same factorization.
"""

from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, InnerProductSpace, _factors, checked_vector

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
    return EigResult(eigenvalues=vals[::-1], eigenvectors=space.unwhiten(vecs[:, ::-1]))


def svd(op: DenseOperator, rank_tol: float | None = None) -> SvdResult:
    """Singular value decomposition in the weighted inner products.

    LAPACK factors the whitened matrix ``L_cod^T A L_dom^{-T}`` with
    full bases, and both bases are LAPACK's own, mapped back through
    ``L^{-T}``: no vector is rebuilt from ``A u / s`` or ``A* A``, so the
    pairs ``A u_i = s_i v_i`` hold to working accuracy however small
    ``s_i`` is.  All min(m, n) singular values are reported as computed;
    the rank tolerance (default 1e-10 of the largest) only cuts ``rank``.
    Signs: each right vector's dominant entry is positive, its left
    partner (``i < min(m, n)``) takes the same flip, and the left vectors
    past min(m, n) get the dominant-entry convention of their own.  A
    NaN, negative or infinite ``rank_tol`` raises ``ValueError``; a
    non-finite singular value (the operator norm overflows) raises
    ``NumericalError``, since no rank tolerance can be derived from it.
    The factorization is made once per operator, shared with
    ``core.operator_norm``, and its arrays are read-only; each call only
    cuts the rank.
    """
    if rank_tol is not None:
        _check_tol(rank_tol, "rank_tol")
    sigma, right, left = _factors(op)
    tol = DEFAULT_RANK_TOL_FACTOR * sigma[0] if rank_tol is None else float(rank_tol)
    return SvdResult(sigma=sigma, right_vectors=right, left_vectors=left,
                     rank=int(np.sum(sigma > tol)), domain=op.domain, codomain=op.codomain)


def _check_tol(tol: float, name: str):
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"{name} must be a finite non-negative number, got {tol}")


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


def null_defect(s: SvdResult, coeffs: np.ndarray) -> float:
    """Relative norm ``|P_{N(A*)} y| / |y|`` of the data outside the range.

    ``coeffs = left_coefficients(s, y)`` are coordinates in an orthonormal
    basis, so ``|y| = |coeffs|``; both norms are taken on ``coeffs / max|coeffs|``.
    """
    largest = np.abs(coeffs).max()
    if largest == 0.0:
        return 0.0
    scaled = coeffs / largest
    return float(np.linalg.norm(scaled[s.rank:]) / np.linalg.norm(scaled))


def solvability_check(op: DenseOperator, y: np.ndarray, tol: float = 1e-10) -> dict:
    """Existence test for ``A u = y`` via the null space of the adjoint.

    The equation is solvable exactly when ``y`` is orthogonal to
    ``N(A*)``; the defect reported is the relative norm of the offending
    component.  A NaN, negative or infinite ``tol`` raises ``ValueError``.
    """
    _check_tol(tol, "tol")
    y = checked_vector(y, op.codomain.dim, "right-hand side", "codomain dimension")
    dec = svd(op)
    defect = null_defect(dec, left_coefficients(dec, y))
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
    return DenseOperator(space, space, basis @ basis.T @ space.metric)
