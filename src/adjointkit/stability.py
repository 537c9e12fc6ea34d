"""Stability certificates for autonomous ODE equilibria.

Two independent routes decide whether a matrix has its spectrum in the
open left half plane.  The algebraic route runs the Routh tabulation on
the characteristic polynomial (coefficients by the Faddeev-LeVerrier
recursion).  The certificate route solves the Lyapunov equation

    P A + A^T P + Q = 0

by the Bartels-Stewart method (a real Schur form and a triangular
Sylvester solve, the two LAPACK calls ``dgees`` and ``dtrsyl`` that
SciPy wraps); P is exactly symmetric and finite, and a Cholesky factor
of P exists exactly for Hurwitz A.  ``lyapunov_solve`` is the one place that
imports SciPy, so no other routine pays for loading it.
Verdicts chain the two: tabulate, certify, and insist the answers
agree; only a singular Lyapunov equation counts as "no certificate".
``jacobian_verdict`` certifies a matrix exactly as given, with no
finite differences; ``stability_verdict`` linearizes a nonlinear field
first.  The basic reproduction number of a compartmental model is the
spectral radius of F V^{-1} from the user-supplied
new-infection/transition splitting; it crosses one exactly when the
disease-free linearization loses stability.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import checked_finite, checked_matrix, checked_size, checked_symmetric, euclidean_norm
from .errors import NumericalError

MAX_LYAPUNOV_DIM = 64  # rows of A accepted: the high of each checked_size on them
_LYAP_RESIDUAL_TOL = 1e-9
_EQUILIBRIUM_TOL = 1e-8


@dataclass(frozen=True)
class HurwitzVerdict:
    hurwitz: bool
    margin: float
    boundary: bool = False


@dataclass(frozen=True)
class StabilityReport:
    """Joint verdict of the tabulation and the Lyapunov certificate.

    ``margin`` is the tabulation's smallest leading-column magnitude, as
    in ``HurwitzVerdict``.
    """
    hurwitz: bool
    lyapunov_p: np.ndarray | None
    spd_certificate: bool
    spectral_abscissa_bound: float
    margin: float


class SingularLyapunovError(NumericalError):
    """A and -A share an eigenvalue, so the Lyapunov equation is singular."""


def lyapunov_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve ``P A + A^T P + Q = 0`` for P, returned exactly symmetric.

    Bartels-Stewart straight from LAPACK, O(n^3): ``dgees`` gives the real
    Schur form ``A^T = U T U^T``, ``dtrsyl`` solves ``T Y + Y T^T = -U^T Q U``
    and ``P = U Y U^T``, bit for bit what
    ``scipy.linalg.solve_continuous_lyapunov(A^T, -Q)`` returns.  Singular
    exactly when A and -A share an eigenvalue, which covers every boundary
    (imaginary-axis) case; ``dtrsyl`` then perturbs its pivots and reports
    it, and this raises ``SingularLyapunovError``.  No Schur form, a
    solution beyond the float range (``dtrsyl`` scales it down), or a
    residual above 1e-9 of ``|Q|`` or not finite, raises ``NumericalError``.
    Over ``MAX_LYAPUNOV_DIM`` rows, or an asymmetric Q, is a ``ValueError``, before O(n^3) work.
    """
    from scipy.linalg.lapack import dgees, dtrsyl
    a = checked_matrix(a, "A")
    checked_size(len(a), "A rows", 1, MAX_LYAPUNOV_DIM)
    q = checked_matrix(q, "Q", a.shape, "A")
    checked_symmetric(q, "Q")
    # workspace query first, as scipy.linalg.schur does, so that U and T keep
    # its bits whichever block sizes LAPACK chooses for that workspace
    lwork = int(dgees(lambda wr, wi: None, a.T, lwork=-1)[-2][0])
    t, _, _, _, u, _, info = dgees(lambda wr, wi: None, a.T, lwork=lwork)
    if info:
        raise NumericalError(f"real Schur form of A not found (LAPACK dgees info {info})")
    y, scale, info = dtrsyl(t, t, u.T @ (-q @ u), tranb="T")
    if info == 1:
        raise SingularLyapunovError("Lyapunov system is singular "
                                    "(A and -A share an eigenvalue)")
    if scale < 1.0:  # dtrsyl solved for scale * P to keep it finite
        raise NumericalError("Lyapunov solution is beyond the float range")
    p = u @ y @ u.T
    p = 0.5 * (p + p.T)
    # a tolerance gate, not checked_finite: it refuses an inf or NaN residual too
    with np.errstate(all="ignore"):
        residual = euclidean_norm(p @ a + a.T @ p + q)
        bound = _LYAP_RESIDUAL_TOL * euclidean_norm(q)
    if not residual <= bound:
        raise NumericalError(f"Lyapunov residual too large ({residual:.3e})")
    return p


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A) by the Faddeev-LeVerrier recursion.

    Returned highest degree first with leading coefficient one.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    coeffs = [1.0]
    am = np.zeros_like(a)  # A M_k, carried so each step takes one product
    for k in range(1, n + 1):
        am = a @ (am + coeffs[-1] * eye)
        coeffs.append(-am.trace() / k)
    return np.array(coeffs)


def hurwitz_check(a: np.ndarray) -> HurwitzVerdict:
    """Routh tabulation on the characteristic polynomial.

    All leading-column entries strictly positive means Hurwitz; a zero
    entry flags an imaginary-axis eigenvalue and is reported as a
    boundary non-Hurwitz verdict rather than an error.  More than
    ``MAX_LYAPUNOV_DIM`` rows is a ``ValueError``, before any O(n^3) work.
    """
    a = checked_matrix(a, "matrix")
    checked_size(len(a), "matrix rows", 1, MAX_LYAPUNOV_DIM)
    n = a.shape[0]
    coeffs = characteristic_polynomial(a)
    tol = 1e-10 * max(np.abs(coeffs).max(), 1.0)

    width = (n + 2) // 2
    rows = np.zeros((n + 1, width + 1))
    rows[0, :len(coeffs[0::2])] = coeffs[0::2]
    rows[1, :len(coeffs[1::2])] = coeffs[1::2]
    for i in range(1, n):
        if abs(rows[i, 0]) <= tol:
            break  # the rows below stay zero, so the margin test reports the boundary
        rows[i + 1, :width] = (rows[i, 0] * rows[i - 1, 1:]
                               - rows[i - 1, 0] * rows[i, 1:]) / rows[i, 0]
    first_col = rows[:n + 1, 0]
    margin = float(np.abs(first_col).min())
    if margin <= tol:
        return HurwitzVerdict(hurwitz=False, margin=0.0, boundary=True)
    return HurwitzVerdict(hurwitz=bool(np.all(first_col > 0.0)), margin=margin)


def linearize(f, x_eq: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the vector field at an equilibrium.

    The step is ``1e-5 (1 + |x_eq|)``, by ``euclidean_norm``.  A residual
    ``|f(x_eq)|`` above 1e-8, or not finite, raises ``ValueError``; a step
    or Jacobian past the float range raises ``NumericalError``.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    n = x_eq.size
    with np.errstate(all="ignore"):
        h = 1e-5 * (1.0 + euclidean_norm(x_eq))
        residual = euclidean_norm(np.asarray(f(x_eq), dtype=float))
        if not residual <= _EQUILIBRIUM_TOL:
            raise ValueError(f"point is not an equilibrium (|f| = {residual:.3e})")
        jac = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            jac[:, j] = (np.asarray(f(x_eq + e), dtype=float)
                         - np.asarray(f(x_eq - e), dtype=float)) / (2.0 * h)
    checked_finite(step=h, jacobian=jac)
    return jac


def r0(f_matrix: np.ndarray, v_matrix: np.ndarray) -> float:
    """Spectral radius of ``F V^{-1}``: its largest eigenvalue modulus.

    LAPACK computes every eigenvalue, so imprimitive next-generation
    matrices (host-vector models) need no special care.  An entry below
    -1e-12 of ``max|K|`` warns: the splitting is then epidemiologically
    suspect.  A singular ``V`` raises ``NumericalError``.
    """
    f_matrix = checked_matrix(f_matrix, "new-infection matrix F")
    v_matrix = checked_matrix(v_matrix, "transition matrix V", f_matrix.shape, "F")
    try:
        k = np.linalg.solve(v_matrix.T, f_matrix.T).T
    except np.linalg.LinAlgError:
        raise NumericalError("transition matrix V is singular") from None
    checked_finite(next_generation_matrix=k)
    if k.min() < -1e-12 * np.abs(k).max():
        warnings.warn("next-generation matrix has negative entries; "
                      "the F/V splitting may be invalid", RuntimeWarning)
    return float(np.abs(np.linalg.eigvals(k)).max())


def stability_verdict(f, x_eq) -> StabilityReport:
    """Linearize the field at ``x_eq``, then ``jacobian_verdict``."""
    return jacobian_verdict(linearize(f, x_eq))


def jacobian_verdict(a: np.ndarray) -> StabilityReport:
    """Tabulate and certify ``x' = A x``; the two routes must agree.

    ``P = lyapunov_solve(A, I)`` is exactly symmetric and finite, so Cholesky alone certifies it.
    """
    verdict = hurwitz_check(a)
    p = None
    spd = False
    try:
        p = lyapunov_solve(a, np.eye(len(a)))
        np.linalg.cholesky(p)
        spd = True
    except (SingularLyapunovError, np.linalg.LinAlgError):
        pass  # A and -A share an eigenvalue, or P is not positive definite: not Hurwitz
    if verdict.hurwitz != spd:
        raise NumericalError(
            "tabulation and Lyapunov certificate disagree; the spectrum is "
            "too close to the imaginary axis to certify")
    if verdict.hurwitz:
        # Re(lambda) <= -1/(2 lambda_max(P)) for every eigenvalue
        bound = -1.0 / (2.0 * np.linalg.eigvalsh(p)[-1])
    else:
        bound = 0.0  # no negative bound exists
    return StabilityReport(hurwitz=verdict.hurwitz, lyapunov_p=p,
                           spd_certificate=spd, spectral_abscissa_bound=bound,
                           margin=verdict.margin)


# -- built-in models -----------------------------------------------------------

def damped_oscillator(x):
    return np.array([x[1], -x[0] - x[1]])


def logistic(x):
    return np.array([x[0] * (1.0 - x[0])])


@dataclass(frozen=True)
class SeirsModel:
    """SEIRS compartments with births/deaths and waning immunity.

    State (s, e, i, r) as population fractions.  The disease-free
    equilibrium is (1, 0, 0, 0); the new-infection/transition splitting
    of its infected block gives R0 = beta sigma / ((mu+sigma)(mu+gamma)).
    Every rate must be finite and non-negative, with ``mu + sigma`` and
    ``mu + gamma`` positive; otherwise ``ValueError`` is raised.
    """
    beta: float = 0.3
    sigma: float = 0.5
    gamma: float = 0.25
    mu: float = 0.02
    omega: float = 0.05

    def __post_init__(self):
        rates = (self.beta, self.sigma, self.gamma, self.mu, self.omega)
        if not all(0.0 <= rate < np.inf for rate in rates):
            raise ValueError(f"SEIRS rates must be finite and non-negative, got {rates}")
        if not (self.mu + self.sigma > 0.0 and self.mu + self.gamma > 0.0):
            raise ValueError("SEIRS rates need mu + sigma > 0 and mu + gamma > 0")

    def __call__(self, x):
        s, e, i, r = x
        return np.array([
            self.mu - self.mu * s - self.beta * s * i + self.omega * r,
            self.beta * s * i - (self.mu + self.sigma) * e,
            self.sigma * e - (self.mu + self.gamma) * i,
            self.gamma * i - (self.mu + self.omega) * r,
        ])

    @property
    def disease_free_equilibrium(self):
        return np.array([1.0, 0.0, 0.0, 0.0])

    def next_generation_split(self):
        """(F, V) for the infected block (e, i) at the disease-free state."""
        f = np.array([[0.0, self.beta], [0.0, 0.0]])
        v = np.array([[self.mu + self.sigma, 0.0],
                      [-self.sigma, self.mu + self.gamma]])
        return f, v

    @property
    def reproduction_number(self):
        return self.beta * self.sigma / ((self.mu + self.sigma) * (self.mu + self.gamma))
