"""Inner-product spaces, dense operators, and the adjoint contract.

All operators map between finite-dimensional real spaces whose inner
products are induced by SPD metric matrices, ``(x, y) = x^T M y``.  The
adjoint of ``A`` is the unique map with ``(A u, v) = (u, A* v)`` in
those products; for a dense matrix it is ``M_dom^{-1} A^T M_cod``, the
plain transpose when both metrics are the identity.  A space built
without a metric stores the identity as its own Cholesky factor and
skips the checks and the factorization; every map after that is the
one a weighted space takes.  Everything here is
immutable after construction and safe to share across threads.  The one
lazily filled field, an operator's SVD, is benign under a race: two
threads may both factor the operator, and they store identical
read-only arrays.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .rand import Lcg

_SYM_TOL = 1e-12
_DEP_TOL = 1e-12
_PROBE_BLOCK = 256  # probe pairs drawn and tested per pass; bounds the memory


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def checked_size(size, name: str) -> int:
    """``size`` as an int: an integer, or an integral float such as ``2.0``.

    A bool, NaN, inf or any other value raises ``ValueError`` naming ``name``.
    """
    if isinstance(size, float):
        integral = size.is_integer()  # false for inf and NaN
    else:
        integral = isinstance(size, (int, np.integer)) and not isinstance(size, bool)
    if not integral:
        raise ValueError(f"{name} must be an integer, got {size!r}")
    return int(size)


def checked_vector(v, dim: int, what: str, where: str) -> np.ndarray:
    """``v`` as a float array, once it has length ``dim`` and finite entries.

    Otherwise ``ValueError`` names ``what`` the vector is, its length and
    ``where`` the length ``dim`` comes from.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ValueError(f"{what} length {v.size} does not match {where} {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} has non-finite entries (length {v.size}, {where} {dim})")
    return v


def checked_matrix(a, what: str, shape=None, where="", cap=None) -> np.ndarray:
    """``a`` as a float array with finite entries, of ``shape`` (``where`` names it).

    Without ``shape`` it must be square, non-empty and at most ``cap`` rows.
    Otherwise ``ValueError`` names ``what`` the matrix is and its shape.
    """
    a = np.asarray(a, dtype=float)
    if shape is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"{what} must be square and non-empty, got shape {a.shape}")
        if cap is not None and a.shape[0] > cap:
            raise ValueError(f"{what} shape {a.shape}: size capped at n={cap}")
    elif a.shape != shape:
        raise ValueError(f"{what} shape {a.shape} does not match {where} {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite entries (shape {a.shape})")
    return a


def json_numbers(values, name: str) -> np.ndarray:
    """``values`` as a float array; a string or bool in it (NumPy reads ``"1e3"`` and
    ``true`` as numbers) or an integer beyond the float range raises ``ValueError``
    naming ``name``, its key or file.

    A flat list of only ints and floats, the common case, takes one conversion;
    anything else (``null`` reads as NaN, a nested list as a 2-d array) goes
    through an object array.
    """
    try:
        if type(values) is list and {int, float}.issuperset(map(type, values)):
            return np.array(values, dtype=float)
        items = np.asarray(values, dtype=object)
        if {str, bool} & set(map(type, items.flat)):
            bad = next(x for x in items.flat if type(x) in (str, bool))
            raise ValueError(f"{name}: expected a number, got {bad!r}")
        return items.astype(float)
    except OverflowError:
        raise ValueError(f"{name}: an integer is beyond the float range") from None


class InnerProductSpace:
    """Real space of dimension ``dim`` with inner product ``x^T M y``.

    The metric must be symmetric positive definite; the Cholesky factor
    is computed once and reused for all metric solves.  Without a metric
    the identity is both metric and factor, read-only like every other.
    """

    def __init__(self, dim: int, metric: np.ndarray | None = None):
        dim = checked_size(dim, "dim")
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        if metric is None:  # the identity is its own Cholesky factor
            self.metric = self._chol = _frozen(np.eye(dim))
            self.is_euclidean = True
            return
        metric = checked_matrix(metric, "metric", (dim, dim), "dim x dim")
        scale = np.abs(metric).max()
        if np.abs(metric - metric.T).max() > _SYM_TOL * max(scale, 1.0):
            raise ValueError("metric is not symmetric")
        try:
            self._chol = _frozen(np.linalg.cholesky(metric))
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
        return float(x @ self.metric @ y)

    def norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(x, x), 0.0)))

    def apply_inverse_metric(self, x: np.ndarray) -> np.ndarray:
        """Solve ``M w = x`` through the cached Cholesky factor."""
        return self.unwhiten(np.linalg.solve(self._chol, x))

    def unwhiten(self, coords: np.ndarray) -> np.ndarray:
        """Map metric-orthonormal coordinates back: ``L^{-T} c``, by one solve."""
        return np.linalg.solve(self._chol.T, coords)

    def __repr__(self):
        kind = "euclidean" if self.is_euclidean else "weighted"
        return f"InnerProductSpace(dim={self.dim}, {kind})"


class DenseOperator:
    """Linear map stored as a dense ``codomain.dim x domain.dim`` matrix."""

    def __init__(self, domain: InnerProductSpace, codomain: InnerProductSpace,
                 entries: np.ndarray):
        entries = checked_matrix(entries, "operator", (codomain.dim, domain.dim),
                                 "codomain x domain")
        self.domain = domain
        self.codomain = codomain
        self.entries = _frozen(entries)
        self._svd = None  # (sigma, right, left), filled by spectral.svd

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
        b = np.linalg.solve(self.domain.cholesky, self.entries.T).T
        return self.codomain.cholesky.T @ b

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


def adjoint(op: DenseOperator) -> DenseOperator:
    """Adjoint operator, ``M_dom^{-1} A^T M_cod`` with swapped spaces.

    The domain metric is inverted by two solves with its Cholesky factor
    (``apply_inverse_metric``); no explicit matrix inverse is formed.
    """
    entries = op.domain.apply_inverse_metric(op.entries.T @ op.codomain.metric)
    return DenseOperator(op.codomain, op.domain, entries)


def operator_norm(op: DenseOperator) -> float:
    """Operator norm between the weighted norms of domain and codomain.

    This is the largest singular value, taken as the spectral norm of
    the whitened matrix.
    """
    return float(np.linalg.norm(op.whitened(), 2))


def _unit_rows(space: InnerProductSpace, x: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", x @ space.metric, x), 0.0))
    return x / np.where(norms > 0.0, norms, 1.0)[:, None]


def adjoint_consistency_check(op: DenseOperator, trials: int = 100, seed: int = 42,
                              adjoint_op: DenseOperator | None = None) -> AdjointReport:
    """Probe ``(A u, v) - (u, B v)`` over random unit pairs, a block at a time.

    ``B`` defaults to the constructed adjoint of ``op``; passing another
    operator measures how badly it fails the identity.  Pair k is row k of
    ``Lcg(seed)``: ``u`` then ``v``, each at unit norm (a zero draw stays
    zero).  Defects are normalized by the larger operator norm; a norm or
    defect that overflows raises ``NumericalError`` rather than certifying.
    """
    trials = checked_size(trials, "trials")
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
        for start in range(0, trials, _PROBE_BLOCK):
            rows = rng.matrix(min(_PROBE_BLOCK, trials - start), op.domain.dim + op.codomain.dim)
            u = _unit_rows(op.domain, rows[:, :op.domain.dim])
            v = _unit_rows(op.codomain, rows[:, op.domain.dim:])
            lhs = np.einsum("ij,ij->i", u @ op.entries.T @ op.codomain.metric, v)
            rhs = np.einsum("ij,ij->i", u @ op.domain.metric, v @ b.entries.T)
            defect = np.abs(lhs - rhs).max() / scale
            if not np.isfinite(defect):
                raise NumericalError("adjoint defect is not finite")
            worst = max(worst, float(defect))
    return AdjointReport(trials=trials, max_defect=worst)


def orthonormalize(vectors, space: InnerProductSpace) -> np.ndarray:
    """Metric Gram-Schmidt by one Householder QR of the whitened columns.

    With ``M = L L^T`` the columns ``W = L^T V = Q R`` are factored once
    and ``Q`` is mapped back by ``space.unwhiten``.  Pivots are made
    positive, so the columns are those Gram-Schmidt gives: the first
    ``j`` span the first ``j`` inputs.  Raises ``ValueError`` when the
    input is linearly dependent (a pivot below 1e-12 of the largest
    whitened input norm, or more vectors than the dimension).
    """
    cols = [np.asarray(v, dtype=float) for v in vectors]
    if not cols:
        return np.zeros((space.dim, 0))
    if any(v.shape != (space.dim,) for v in cols):
        raise ValueError("vector length does not match space dimension")
    if len(cols) > space.dim:
        raise ValueError("input vectors are linearly dependent "
                         "(more vectors than the dimension)")
    w = space.cholesky.T @ np.column_stack(cols)
    q, r = np.linalg.qr(w)
    pivots = np.diag(r)
    if not np.all(np.abs(pivots) > _DEP_TOL * np.linalg.norm(w, axis=0).max()):
        raise ValueError("input vectors are linearly dependent")
    return space.unwhiten(q * np.sign(pivots))


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
        m, n = checked_size(rec["rows"], "rows"), checked_size(rec["cols"], "cols")
        shapes = {"entries": (m, n), "domain_metric": (n, n), "codomain_metric": (m, m)}
        arrays = {key: json_numbers(rec[key], key) for key in shapes
                  if key == "entries" or rec.get(key) is not None}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator record: {exc}") from None
    if m < 1 or n < 1:
        raise ValueError(f"rows and cols must be positive, got rows {m}, cols {n}")
    for key, values in arrays.items():
        if values.size != np.prod(shapes[key]):
            raise ValueError(f"{key}: expected {np.prod(shapes[key])} entries, got {values.size}")
        arrays[key] = values.reshape(shapes[key])
    return matrix_operator(arrays["entries"], arrays.get("domain_metric"),
                           arrays.get("codomain_metric"))
