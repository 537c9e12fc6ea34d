"""Inner-product spaces, dense operators, and the adjoint contract.

All operators map between finite-dimensional real spaces whose inner
products are induced by SPD metric matrices, ``(x, y) = x^T M y``.  The
adjoint of ``A`` is the unique map with ``(A u, v) = (u, A* v)`` in
those products; for a dense matrix it is ``M_dom^{-1} A^T M_cod``, the
plain transpose when both metrics are the identity.  Everything here is
immutable after construction and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .rand import Lcg

_SYM_TOL = 1e-12
_DEP_TOL = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class InnerProductSpace:
    """Real space of dimension ``dim`` with inner product ``x^T M y``.

    The metric must be symmetric positive definite; the Cholesky factor
    is computed once and reused for all metric solves.
    """

    def __init__(self, dim: int, metric: np.ndarray | None = None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        if metric is None:
            metric = np.eye(self.dim)
        metric = np.asarray(metric, dtype=float)
        if metric.shape != (self.dim, self.dim):
            raise ValueError(f"metric shape {metric.shape} does not match dim {dim}")
        if not np.all(np.isfinite(metric)):
            raise ValueError("metric has non-finite entries")
        scale = np.abs(metric).max()
        if np.abs(metric - metric.T).max() > _SYM_TOL * max(scale, 1.0):
            raise ValueError("metric is not symmetric")
        try:
            self._chol = np.linalg.cholesky(metric)
        except np.linalg.LinAlgError:
            raise ValueError("metric is not positive definite") from None
        self.metric = _frozen(metric)
        self.is_euclidean = bool(np.array_equal(metric, np.eye(self.dim)))

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with ``M = L L^T``."""
        return self._chol

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError("vector length does not match space dimension")
        if self.is_euclidean:
            return float(x @ y)
        return float(x @ self.metric @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def apply_inverse_metric(self, x: np.ndarray) -> np.ndarray:
        """Solve ``M w = x`` through the cached Cholesky factor."""
        if self.is_euclidean:
            return np.asarray(x, dtype=float)
        w = np.linalg.solve(self._chol, x)
        return np.linalg.solve(self._chol.T, w)

    def __repr__(self):
        kind = "euclidean" if self.is_euclidean else "weighted"
        return f"InnerProductSpace(dim={self.dim}, {kind})"


def euclidean(dim: int) -> InnerProductSpace:
    """Space with the standard inner product."""
    return InnerProductSpace(dim)


class DenseOperator:
    """Linear map stored as a dense ``codomain.dim x domain.dim`` matrix."""

    def __init__(self, domain: InnerProductSpace, codomain: InnerProductSpace,
                 entries: np.ndarray):
        entries = np.asarray(entries, dtype=float)
        if entries.shape != (codomain.dim, domain.dim):
            raise ValueError(
                f"entries shape {entries.shape} does not match codomain x domain "
                f"({codomain.dim}, {domain.dim})")
        if not np.all(np.isfinite(entries)):
            raise ValueError("operator has non-finite entries")
        self.domain = domain
        self.codomain = codomain
        self.entries = _frozen(entries)

    @property
    def shape(self):
        return self.entries.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.domain.dim,):
            raise ValueError("input length does not match operator domain")
        return self.entries @ x

    def whitened(self) -> np.ndarray:
        """The matrix in metric-orthonormal coordinates, ``L_cod^T A L_dom^{-T}``.

        Its Euclidean singular values are those of the operator between
        the weighted norms.
        """
        b = self.entries
        if not self.domain.is_euclidean:
            b = np.linalg.solve(self.domain.cholesky, b.T).T
        if not self.codomain.is_euclidean:
            b = self.codomain.cholesky.T @ b
        return b

    def __repr__(self):
        return f"DenseOperator({self.shape[0]}x{self.shape[1]})"


def matrix_operator(entries, domain_metric=None, codomain_metric=None) -> DenseOperator:
    """Build a DenseOperator from a matrix, defaulting to Euclidean spaces."""
    entries = np.asarray(entries, dtype=float)
    m, n = entries.shape
    return DenseOperator(InnerProductSpace(n, domain_metric),
                         InnerProductSpace(m, codomain_metric), entries)


@dataclass(frozen=True)
class AdjointReport:
    """Outcome of a randomized adjoint-identity test."""
    trials: int
    max_defect: float


def inner(space: InnerProductSpace, x, y) -> float:
    """Inner product ``x^T M y`` of the given space."""
    return space.inner(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def adjoint(op: DenseOperator) -> DenseOperator:
    """Adjoint operator, ``M_dom^{-1} A^T M_cod`` with swapped spaces.

    The domain metric is inverted through triangular solves on its
    Cholesky factor; no explicit matrix inverse is formed.
    """
    a_t = op.entries.T
    if not op.codomain.is_euclidean:
        a_t = a_t @ op.codomain.metric
    entries = op.domain.apply_inverse_metric(a_t) if not op.domain.is_euclidean else a_t
    return DenseOperator(op.codomain, op.domain, entries)


def operator_norm(op: DenseOperator) -> float:
    """Operator norm between the weighted norms of domain and codomain.

    This is the largest singular value, taken as the spectral norm of
    the whitened matrix.
    """
    return float(np.linalg.norm(op.whitened(), 2))


def adjoint_consistency_check(op: DenseOperator, trials: int = 100, seed: int = 42,
                              adjoint_op: DenseOperator | None = None) -> AdjointReport:
    """Probe ``(A u, v) - (u, B v)`` over random unit pairs.

    ``B`` defaults to the constructed adjoint of ``op``; passing another
    operator measures how badly it fails the adjoint identity.  Defects
    are normalized by the larger operator norm, and the whole procedure
    is deterministic for a given seed.  Raises ``NumericalError`` when
    the norm or a defect overflows, rather than certifying the operator.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    b = adjoint(op) if adjoint_op is None else adjoint_op
    if b.domain.dim != op.codomain.dim or b.codomain.dim != op.domain.dim:
        raise ValueError("candidate adjoint has incompatible shape")
    scale = max(operator_norm(op), operator_norm(b))
    if not np.isfinite(scale):
        raise NumericalError("operator norm overflows; adjoint defects cannot be measured")
    if scale == 0.0:
        return AdjointReport(trials=trials, max_defect=0.0)
    rng = Lcg(seed)
    worst = 0.0
    # an overflowing probe is reported by the finiteness test, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(trials):
            u = rng.unit_vector(op.domain)
            v = rng.unit_vector(op.codomain)
            lhs = op.codomain.inner(op.matvec(u), v)
            rhs = op.domain.inner(u, b.matvec(v))
            defect = abs(lhs - rhs) / scale
            if not np.isfinite(defect):
                raise NumericalError("adjoint defect is not finite")
            worst = max(worst, defect)
    return AdjointReport(trials=trials, max_defect=worst)


def orthonormalize(vectors, space: InnerProductSpace) -> np.ndarray:
    """Metric Gram-Schmidt by Householder QR of the whitened columns.

    With ``M = L L^T`` each of two passes factors ``W = L^T V = Q R``
    and replaces ``V`` by ``V R^{-1}``; the second pass re-orthogonalizes
    once for accuracy.  Pivots are made positive, so the columns are
    those Gram-Schmidt gives: the first ``j`` span the first ``j``
    inputs.  Raises ``ValueError`` when the input is linearly dependent
    (a pivot below 1e-12 of the largest input norm, or more vectors
    than the dimension).
    """
    cols = [np.asarray(v, dtype=float) for v in vectors]
    if not cols:
        return np.zeros((space.dim, 0))
    if any(v.shape != (space.dim,) for v in cols):
        raise ValueError("vector length does not match space dimension")
    if len(cols) > space.dim:
        raise ValueError("input vectors are linearly dependent "
                         "(more vectors than the dimension)")
    basis = np.column_stack(cols)
    for sweep in range(2):
        w = basis if space.is_euclidean else space.cholesky.T @ basis
        r = np.linalg.qr(w, mode="r")
        r *= np.sign(np.diag(r))[:, None]
        floor = _DEP_TOL * np.linalg.norm(w, axis=0).max()
        if sweep == 0 and not np.all(np.diag(r) > floor):
            raise ValueError("input vectors are linearly dependent")
        basis = basis @ np.linalg.inv(r)
    return basis


# -- JSON wire format ---------------------------------------------------------
#
# {"rows": m, "cols": n, "entries": [row-major reals],
#  "domain_metric": [n*n reals] (optional), "codomain_metric": [...] (optional)}


def operator_to_record(op: DenseOperator) -> dict:
    m, n = op.shape
    rec = {"rows": m, "cols": n, "entries": [float(x) for x in op.entries.ravel()]}
    if not op.domain.is_euclidean:
        rec["domain_metric"] = [float(x) for x in op.domain.metric.ravel()]
    if not op.codomain.is_euclidean:
        rec["codomain_metric"] = [float(x) for x in op.codomain.metric.ravel()]
    return rec


def operator_from_record(rec: dict) -> DenseOperator:
    try:
        m, n = int(rec["rows"]), int(rec["cols"])
        entries = np.asarray(rec["entries"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator record: {exc}") from None
    if entries.size != m * n:
        raise ValueError(f"expected {m * n} entries, got {entries.size}")
    dom_metric = rec.get("domain_metric")
    cod_metric = rec.get("codomain_metric")
    if dom_metric is not None:
        dom_metric = np.asarray(dom_metric, dtype=float).reshape(n, n)
    if cod_metric is not None:
        cod_metric = np.asarray(cod_metric, dtype=float).reshape(m, m)
    return matrix_operator(entries.reshape(m, n), dom_metric, cod_metric)
