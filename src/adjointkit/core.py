"""Inner-product spaces, dense operators, and the adjoint contract.

All operators map between finite-dimensional real spaces whose inner
products are induced by SPD metric matrices, ``(x, y) = x^T M y``.  The
adjoint of ``A`` is the unique map with ``(A u, v) = (u, A* v)`` in
those products; for a dense matrix it is ``M_dom^{-1} A^T M_cod``, the
plain transpose when both metrics are the identity.  Its randomized
check probes the whitened matrices of ``A`` and ``A*`` with seeded pairs
and estimates the Frobenius norm of their mismatch, at any dimension.
A result past the float range is refused by one gate, ``checked_finite``,
and every norm is taken by one routine, ``euclidean_norm``.
A space built without a metric stores the identity as its own Cholesky
factor and skips the checks and the factorization.  A diagonal factor,
the identity among them, is applied entrywise, by its pivots or their
reciprocals; a dense one by products with ``L^T`` and ``L^{-1}``, the
inverse formed once per space, whose error is of the order ``cond(L) u``
of a triangular solve.  No space map solves a linear system.  Everything
here is immutable after construction and safe to share across threads.
The one lazily filled field, an operator's SVD (``_factors``, which both
``spectral.svd`` and ``operator_norm`` read), is benign under a race:
two threads may both factor the operator, and they store identical
read-only arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .rand import Lcg

_DEP_TOL = 1e-12
_PROBE_BLOCK = 256  # probe pairs drawn and tested per pass; bounds the memory
_TINY = float(np.finfo(float).tiny)  # the smallest normal float


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def checked_size(size, name: str, low: int = 0, high: int | None = None) -> int:
    """``size`` as an int in ``[low, high]``: an integer, or an integral float such as ``2.0``.

    A bool, NaN, inf or any other value, or one outside the range (``high``
    ``None`` is unbounded), raises ``ValueError`` naming ``name``.
    """
    if isinstance(size, float):
        integral = size.is_integer()  # false for inf and NaN
    else:
        integral = isinstance(size, (int, np.integer)) and not isinstance(size, bool)
    if not integral:
        raise ValueError(f"{name} must be an integer, got {size!r}")
    size = int(size)
    if size < low or high is not None and size > high:
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}, got {size}")
    return size


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


def checked_matrix(a, what: str, shape=None, where="") -> np.ndarray:
    """``a`` as a float array with finite entries, of ``shape`` (``where`` names it).

    Without ``shape`` it must be square and non-empty.
    Otherwise ``ValueError`` names ``what`` the matrix is and its shape.
    """
    a = np.asarray(a, dtype=float)
    if shape is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError(f"{what} must be square and non-empty, got shape {a.shape}")
    elif a.shape != shape:
        raise ValueError(f"{what} shape {a.shape} does not match {where} {shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} has non-finite entries (shape {a.shape})")
    return a


def checked_symmetric(a: np.ndarray, what: str):
    """Raise ``ValueError`` naming ``what`` unless ``max|a - a^T| <= 1e-12 max|a|``.

    Tested on ``a / max|a|``, so no scale decides it and nothing overflows.
    """
    unit = a / (np.abs(a).max() or 1.0)  # a zero matrix is symmetric
    if np.abs(unit - unit.T).max() > 1e-12:
        raise ValueError(f"{what} is not symmetric")


def checked_finite(**values):
    """Raise ``NumericalError`` naming every value with an entry that is not finite.

    The one refusal of a result past the float range, computed under
    ``np.errstate(all="ignore")`` so that an overflow reaches it, not a warning.
    """
    if bad := [name for name, value in values.items() if not np.isfinite(value).all()]:
        raise NumericalError(f"non-finite {', '.join(bad)}: the result overflows the float range")


def euclidean_norm(x) -> float:
    """The 2-norm of the float array ``x`` flattened: a matrix's Frobenius norm.

    While ``x.dot(x)`` on ``x.ravel(order="K")`` is normal and finite, the
    norm is its square root, ``np.linalg.norm`` bit for bit.  Otherwise it
    is ``s |x / s|`` with ``s = max|x|``, the scaling of Blue's algorithm and
    LAPACK's ``dnrm2``: inf only for a norm past the float range or an inf
    entry, 0 only for ``x = 0``.  Only ``x.dot(x)`` can warn, so a caller
    opens ``np.errstate(all="ignore")``.
    """
    x = np.asarray(x).ravel(order="K")
    if _TINY <= (square := float(x.dot(x))) < math.inf:
        return math.sqrt(square)
    scale = float(np.abs(x).max(initial=0.0))
    if not 0.0 < scale < math.inf:  # zero, an inf entry or a NaN one: that is the norm
        return scale
    x = x / scale
    return scale * math.sqrt(x.dot(x))


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
    """Real space of dimension ``dim >= 1`` with inner product ``x^T M y``.

    The metric must be symmetric (``checked_symmetric``) and positive definite;
    the Cholesky factor is computed once and reused.  Without a metric
    the identity is both metric and factor, read-only like every other.
    A diagonal factor (the identity, a quadrature weight ``h I``) is
    applied entrywise through its pivots and their reciprocals, kept as
    read-only columns; any other by products with ``L^T`` and with
    ``L^{-1}``, formed once, here, and kept read-only.
    """

    def __init__(self, dim: int, metric: np.ndarray | None = None):
        dim = checked_size(dim, "dim", 1)
        self.dim = dim
        if metric is None:  # the identity is its own Cholesky factor
            self.metric = self._chol = _frozen(np.eye(dim))
            self.is_euclidean = True
        else:
            metric = checked_matrix(metric, "metric", (dim, dim), "dim x dim")
            checked_symmetric(metric, "metric")
            try:
                self._chol = _frozen(np.linalg.cholesky(metric))
            except np.linalg.LinAlgError:
                raise ValueError("metric is not positive definite") from None
            self.metric = _frozen(metric)
            self.is_euclidean = bool(np.array_equal(metric, np.eye(self.dim)))
        # the pivots of a Cholesky factor are positive, so it is diagonal
        # exactly when they are its only nonzero entries
        self._pivots = self._recip = self._inv = None
        if np.count_nonzero(self._chol) == dim:
            self._pivots = _frozen(np.diagonal(self._chol)[:, None])
            self._recip = _frozen(1.0 / self._pivots)
        else:
            self._inv = _frozen(np.linalg.inv(self._chol))

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with ``M = L L^T``."""
        return self._chol

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"vector length {x.size} does not match space dimension {self.dim}")
        return x

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self._vector(x) @ self.metric @ self._vector(y))

    def norm(self, x: np.ndarray) -> float:
        """``sqrt(x^T M x)`` as ``euclidean_norm`` of the whitened column ``L^T x``."""
        with np.errstate(all="ignore"):
            return euclidean_norm(self._whiten(self._vector(x)[:, None]))

    def apply_inverse_metric(self, x: np.ndarray) -> np.ndarray:
        """``M^{-1} x`` as ``L^{-T} L^{-1} x``: two products with the stored
        inverse factor, or two entrywise steps with a diagonal one."""
        return self.unwhiten(self._solve(x))

    def unwhiten(self, coords: np.ndarray) -> np.ndarray:
        """Map metric-orthonormal coordinates back: ``L^{-T} c``, one product
        with the stored inverse factor or one entrywise step with a diagonal one."""
        return self._solve(coords, transposed=True)

    def _solve(self, b, transposed=False) -> np.ndarray:
        """``L^{-1} b``, or ``L^{-T} b``, C-contiguous: a product with the inverse formed
        at construction, or the rows of ``b`` (never broadcast) times the reciprocals."""
        if self._recip is None:
            return (self._inv.T if transposed else self._inv) @ b
        b = np.asarray(b)
        if b.ndim not in (1, 2) or b.shape[0] != self.dim:
            raise ValueError(f"right-hand side shape {b.shape} does not match "
                             f"space dimension {self.dim}")
        return np.multiply(self._recip if b.ndim == 2 else self._recip[:, 0], b, order="C")

    def _whiten(self, x: np.ndarray) -> np.ndarray:
        """``L^T x`` for a matrix ``x``; a diagonal factor scales its rows, exactly."""
        if self._pivots is None:
            return self._chol.T @ x
        return np.multiply(self._pivots, x, order="C")

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
        self._svd = None  # (sigma, right, left), filled by _factors

    @property
    def shape(self):
        return self.entries.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.domain.dim,):
            raise ValueError(f"input length {x.size} does not match operator domain "
                             f"{self.domain.dim}")
        return self.entries @ x

    def whitened(self) -> np.ndarray:
        """The matrix in metric-orthonormal coordinates, ``L_cod^T A L_dom^{-T}``.

        Its Euclidean singular values are those of the operator between
        the weighted norms.  Both factors are applied by the spaces' own
        maps, so a diagonal one scales columns or rows entrywise.  A
        result past the float range raises ``NumericalError``.
        """
        with np.errstate(all="ignore"):
            w = self.codomain._whiten(self.domain._solve(self.entries.T).T)
        checked_finite(whitened_matrix=w)
        return w

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
    """Outcome of a randomized adjoint-identity test.  ``max_defect`` is the
    Frobenius estimate, not a largest defect; ``perfbench`` and the CLI's JSON
    read that name, so a rename waits for a change to the benchmark harness."""
    trials: int
    max_defect: float


def adjoint(op: DenseOperator) -> DenseOperator:
    """Adjoint operator, ``M_dom^{-1} A^T M_cod`` with swapped spaces.

    The domain metric is inverted through its Cholesky factor
    (``apply_inverse_metric``): two products with the inverse factor
    ``L_dom^{-1}`` that the space formed once, or two entrywise steps with
    a diagonal factor; ``M_dom^{-1}`` itself is never formed.  Entries past
    the float range raise ``NumericalError``.
    """
    with np.errstate(all="ignore"):
        entries = op.domain.apply_inverse_metric(op.entries.T @ op.codomain.metric)
    checked_finite(adjoint_entries=entries)
    return DenseOperator(op.codomain, op.domain, entries)


def _dominant_signs(vectors: np.ndarray) -> np.ndarray:
    """One +-1 per column: the sign of its largest-magnitude entry."""
    rows = np.argmax(np.abs(vectors), axis=0)
    return np.where(vectors[rows, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    return vectors * _dominant_signs(vectors)


def _factors(op: DenseOperator) -> tuple:
    """``(sigma, right, left)`` of the operator, factored on its first call.

    LAPACK factors the whitened matrix with full bases, which are mapped
    back through ``L^{-T}`` and signed as ``spectral.svd`` documents.  The
    operator is immutable, so the read-only arrays kept on it serve every
    later call, whichever of ``spectral.svd`` and ``operator_norm`` comes
    first.  A non-finite singular value raises ``NumericalError``.
    """
    if op._svd is None:
        left_w, sigma, right_wt = np.linalg.svd(op.whitened(), full_matrices=True)
        checked_finite(sigma=sigma)
        right = op.domain.unwhiten(right_wt.T)
        signs = _dominant_signs(right)
        right *= signs
        left = op.codomain.unwhiten(left_w)
        left[:, :sigma.size] *= signs[:sigma.size]
        left[:, sigma.size:] = _fix_signs(left[:, sigma.size:])
        for a in (sigma, right, left):
            a.flags.writeable = False
        op._svd = (sigma, right, left)
    return op._svd


def operator_norm(op: DenseOperator) -> float:
    """Operator norm between the weighted norms of domain and codomain.

    This is the largest singular value ``sigma_1``, read from the
    operator's one cached factorization, so it has the bits of
    ``spectral.svd(op).sigma[0]`` and costs nothing once either has run.
    A norm that overflows raises ``NumericalError``.
    """
    return float(_factors(op)[0][0])


def adjoint_consistency_check(op: DenseOperator, trials: int = 100, seed: int = 42,
                              adjoint_op: DenseOperator | None = None) -> AdjointReport:
    """Estimate ``|W_A^T - W_B|_F / |A|`` from seeded probe pairs, a block at a time.

    ``W_A``, ``W_B`` are the whitened matrices of ``A`` and of ``B``, the
    constructed adjoint or a supplied candidate.  Pair k is row k of
    ``Lcg(seed)``, split as ``(xi, eta)``; its defect ``d = xi^T (W_A^T - W_B)
    eta`` is ``(A u, v) - (u, B v)`` at ``u = L_dom^{-T} xi``, ``v = L_cod^{-T}
    eta``, divided by ``|A|`` (by ``max(|A|, |B|)`` for a supplied ``B``)
    before it is squared.  The draws have variance 1/3, so ``3 rms(d)`` is
    Hutchinson's estimate of the Frobenius norm, which bounds the operator
    norm.  The norms are read from the cached factorizations
    (``operator_norm``).  A norm or defect that overflows raises
    ``NumericalError`` rather than certifying.
    """
    trials = checked_size(trials, "trials", 1)
    b = adjoint(op) if adjoint_op is None else adjoint_op
    if b.domain.dim != op.codomain.dim or b.codomain.dim != op.domain.dim:
        raise ValueError("candidate adjoint has incompatible shape")
    scale = operator_norm(op)
    if adjoint_op is not None:  # |A*| = |A| for the constructed adjoint
        scale = max(scale, operator_norm(b))
    if scale == 0.0:
        return AdjointReport(trials=trials, max_defect=0.0)
    rng = Lcg(seed)
    n = op.domain.dim
    total = 0.0
    with np.errstate(all="ignore"):
        gap = op.whitened().T - b.whitened()
        for start in range(0, trials, _PROBE_BLOCK):
            rows = rng.matrix(min(_PROBE_BLOCK, trials - start), n + op.codomain.dim)
            defects = np.vecdot(rows[:, :n] @ gap, rows[:, n:]) / scale
            total += float(defects @ defects)
    estimate = 3.0 * float(np.sqrt(total / trials))
    checked_finite(adjoint_defect=estimate)
    return AdjointReport(trials=trials, max_defect=estimate)


def orthonormalize(vectors, space: InnerProductSpace) -> np.ndarray:
    """Metric Gram-Schmidt by one Householder QR of the whitened columns.

    With ``M = L L^T`` the columns ``W = L^T V = Q R`` are factored once
    and ``Q`` is mapped back by ``space.unwhiten``.  Pivots are made
    positive, so the columns are those Gram-Schmidt gives: the first
    ``j`` span the first ``j`` inputs.  Raises ``ValueError`` when the
    input is linearly dependent (a pivot below 1e-12 of the largest
    whitened input norm, taken on ``W / max|W|``; all zero; or more
    vectors than the dimension).  Each vector passes ``checked_vector``;
    a ``W`` past the float range raises ``NumericalError``.
    """
    cols = [checked_vector(v, space.dim, "vector", "space dimension") for v in vectors]
    if not cols:
        return np.zeros((space.dim, 0))
    if len(cols) > space.dim:
        raise ValueError("input vectors are linearly dependent "
                         "(more vectors than the dimension)")
    with np.errstate(all="ignore"):
        w = space._whiten(np.column_stack(cols))
    checked_finite(whitened_vectors=w)
    q, r = np.linalg.qr(w)
    pivots = np.diag(r)
    largest = np.abs(w).max()
    if largest == 0.0 or not np.all(
            np.abs(pivots) / largest > _DEP_TOL * np.linalg.norm(w / largest, axis=0).max()):
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
        m, n = checked_size(rec["rows"], "rows", 1), checked_size(rec["cols"], "cols", 1)
        shapes = {"entries": (m, n), "domain_metric": (n, n), "codomain_metric": (m, m)}
        arrays = {key: json_numbers(rec[key], key) for key in shapes
                  if key == "entries" or rec.get(key) is not None}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed operator record: {exc}") from None
    for key, values in arrays.items():
        if values.size != np.prod(shapes[key]):
            raise ValueError(f"{key}: expected {np.prod(shapes[key])} entries, got {values.size}")
        arrays[key] = values.reshape(shapes[key])
    return matrix_operator(arrays["entries"], arrays.get("domain_metric"),
                           arrays.get("codomain_metric"))
