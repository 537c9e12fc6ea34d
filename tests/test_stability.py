import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_continuous_lyapunov

import adjointkit

from adjointkit import selftest, stability
from adjointkit.errors import NumericalError
from adjointkit.stability import (HurwitzVerdict, SeirsModel, SingularLyapunovError,
                                  characteristic_polynomial, damped_oscillator,
                                  hurwitz_check, is_spd, jacobian_verdict,
                                  linearize, logistic, lyapunov_solve, r0,
                                  stability_verdict)
from reference import bits, lyapunov_by_scipy


def lyapunov_quadrature_oracle(a, q, t_final=40.0, dt=2e-3):
    """Brute-force P = integral exp(A^T t) Q exp(A t) dt.

    RK4 on the augmented system S' = A^T S + S A, P' = S with S(0) = Q,
    so the accumulated quadrature error is O(dt^4); independent of the
    Kronecker solve it checks.
    """
    s = np.array(q, dtype=float)
    p = np.zeros_like(s)

    def rhs(mat, _):
        return a.T @ mat + mat @ a, mat

    steps = int(round(t_final / dt))
    for _ in range(steps):
        k1s, k1p = rhs(s, p)
        k2s, k2p = rhs(s + 0.5 * dt * k1s, p + 0.5 * dt * k1p)
        k3s, k3p = rhs(s + 0.5 * dt * k2s, p + 0.5 * dt * k2p)
        k4s, k4p = rhs(s + dt * k3s, p + dt * k3p)
        p = p + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        s = s + (dt / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
    return p


def kronecker_lyapunov_oracle(a, q):
    """Dense ``(A^T (x) I + I (x) A^T) vec(P) = -vec(Q)``, column-major.

    O(n^6) time and O(n^4) memory, so only for small n; independent of
    the Schur-based solve it checks.
    """
    n = a.shape[0]
    eye = np.eye(n)
    system = np.kron(a.T, eye) + np.kron(eye, a.T)
    vec_p = np.linalg.solve(system, -q.reshape(n * n, order="F"))
    return vec_p.reshape(n, n, order="F")


def matrix_with_spectrum(rng, eigenvalues, upper_scale=1.0):
    """Real matrix with the prescribed real spectrum via a random similarity."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    upper = upper_scale * np.triu(rng.standard_normal((n, n)), 1)
    return q @ (np.diag(eigenvalues) + upper) @ q.T


def block_spectrum_matrix(rng, n, hurwitz):
    """``Q T Q^T`` with T block diagonal, so the spectrum is known exactly.

    Each 2x2 block ``[[a, b], [-b, a]]`` is the pair ``a +- i b``.  Hurwitz
    matrices keep every real part in [-3, -0.3]; the others move one pair
    to a real part in [0.3, 1].
    """
    t = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        re, im = rng.uniform(-3.0, -0.3), rng.uniform(0.5, 3.0)
        t[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    if n % 2:
        t[-1, -1] = rng.uniform(-3.0, -0.3)
    if not hurwitz:
        k = 2 * int(rng.integers(0, n // 2)) if n > 1 else 0
        t[k, k] = rng.uniform(0.3, 1.0)
        if n > 1:
            t[k + 1, k + 1] = t[k, k]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T


def seirs_jacobian(beta, sigma=0.5, gamma=0.25, mu=0.02, omega=0.05):
    """Analytic Jacobian of the SEIRS field at the disease-free state."""
    return np.array([
        [-mu, 0.0, -beta, omega],
        [0.0, -(mu + sigma), beta, 0.0],
        [0.0, sigma, -(mu + gamma), 0.0],
        [0.0, 0.0, gamma, -(mu + omega)],
    ])


def non_normal_hurwitz_48():
    """Hurwitz, strongly non-normal: the Lyapunov residual gate rejects it."""
    rng = np.random.default_rng(7)
    return matrix_with_spectrum(rng, -rng.uniform(0.3, 3.0, 48))


# -- lyapunov_solve --------------------------------------------------------------

def test_lyapunov_negative_identity():
    p = lyapunov_solve(-np.eye(3), np.eye(3))
    np.testing.assert_allclose(p, 0.5 * np.eye(3), atol=1e-12)


def test_lyapunov_diagonal_case():
    # per-diagonal balance 2 p_ii a_ii = -1
    p = lyapunov_solve(np.diag([-1.0, -2.0]), np.eye(2))
    np.testing.assert_allclose(p, np.diag([0.5, 0.25]), atol=1e-12)


def test_lyapunov_matches_quadrature_oracle():
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])
    p = lyapunov_solve(a, np.eye(2))
    oracle = lyapunov_quadrature_oracle(a, np.eye(2))
    assert np.abs(p - oracle).max() <= 1e-6


def test_lyapunov_residual_bound():
    rng = np.random.default_rng(50)
    for _ in range(10):
        a = matrix_with_spectrum(rng, [-0.5, -1.5, -2.5])
        q_raw = rng.standard_normal((3, 3))
        q = q_raw @ q_raw.T + 3.0 * np.eye(3)
        p = lyapunov_solve(a, q)
        residual = np.linalg.norm(p @ a + a.T @ p + q)
        assert residual <= 1e-9 * np.linalg.norm(q)


def test_lyapunov_singular_on_shared_eigenvalue():
    # eigenvalues +1 and -1: A and -A share the pair
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError, match="singular"):
        lyapunov_solve(a, np.eye(2))


def test_lyapunov_singular_emits_no_warning():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="singular"):
            lyapunov_solve(rotation, np.eye(2))
    assert caught == []


@pytest.mark.parametrize("a, q", [
    ([[-1e-160]], [[1e160]]),
    ([[-1e-160, 1e-160], [0.0, -1e-160]], [[1e160, 0.0], [0.0, 1e160]]),
], ids=["scalar", "jordan-block"])
def test_lyapunov_refuses_a_solution_beyond_the_float_range(a, q):
    # P = Q / 2|a| overflows; dtrsyl solves for scale * P with scale < 1, which
    # SciPy's route multiplied back in, returning [[0.5]] and overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="beyond the float range"):
            lyapunov_solve(np.array(a), np.array(q))


@pytest.mark.parametrize("fill", [np.nan, 1e300], ids=["nan", "overflowing"])
def test_lyapunov_residual_gate_refuses_a_non_finite_residual(monkeypatch, fill):
    # a residual of NaN or inf must fail the gate, and without a warning
    import scipy.linalg.lapack as lapack
    dtrsyl = lapack.dtrsyl

    def spoiled(*args, **kwargs):
        y, scale, info = dtrsyl(*args, **kwargs)
        return np.full_like(y, fill), scale, info

    monkeypatch.setattr(lapack, "dtrsyl", spoiled)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="residual too large"):
            lyapunov_solve(-np.eye(2), np.eye(2))


def test_lyapunov_matches_kronecker_oracle():
    rng = np.random.default_rng(56)
    for n in range(2, 17):
        for trial in range(5):
            eigs = -rng.uniform(0.3, 3.0, n)
            if trial % 2:
                eigs[rng.integers(0, n)] = rng.uniform(0.3, 2.0)
            a = matrix_with_spectrum(rng, eigs, upper_scale=1.0 / np.sqrt(n))
            q_raw = rng.standard_normal((n, n))
            q = q_raw @ q_raw.T + np.eye(n)
            p = lyapunov_solve(a, q)
            oracle = kronecker_lyapunov_oracle(a, q)
            assert np.abs(p - oracle).max() <= 1e-8 * np.abs(p).max()


def lyapunov_outcome(solve, a, q):
    """The solution's bits, or the type and message of the failure."""
    try:
        return bits(solve(a, q)).tolist()
    except NumericalError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32, 48, 64])
def test_lyapunov_bit_identical_to_scipy(n):
    # the direct dgees/dtrsyl calls return SciPy's P, or fail where it fails
    rng = np.random.default_rng([61, n])
    q_raw = rng.standard_normal((n, n))
    spd_q = q_raw @ q_raw.T + np.eye(n)
    cases = (block_spectrum_matrix(rng, n, True),
             block_spectrum_matrix(rng, n, False),
             -np.eye(n) + np.eye(n, k=1),  # a defective Jordan block
             matrix_with_spectrum(rng, -rng.uniform(0.3, 3.0, n)))  # strongly non-normal
    solved = 0
    for a in cases:
        for q in (np.eye(n), spd_q):
            expected = lyapunov_outcome(lyapunov_by_scipy, a, q)
            assert lyapunov_outcome(lyapunov_solve, a, q) == expected
            solved += isinstance(expected, list)
    assert solved >= 6  # most cases give a certificate to compare bit for bit


@pytest.mark.parametrize("a", [
    [[0.0, 1.0], [-1.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[-1e-300]],
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
], ids=["rotation", "saddle", "tiny-scalar", "rotation-and-decay"])
def test_lyapunov_singular_exactly_where_scipy_warns(a):
    a = np.array(a)
    q = np.eye(len(a))
    with pytest.warns(RuntimeWarning, match="eigenvalue pair"):
        solve_continuous_lyapunov(a.T, -q)
    with pytest.raises(SingularLyapunovError):
        lyapunov_solve(a, q)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # importing the CLI, an elliptic descent and training run on numpy alone
    data = tmp_path / "samples.json"
    data.write_text(json.dumps([{"x": [0.1, -0.2], "a_obs": [0.3]},
                                {"x": [-0.4, 0.5], "a_obs": [-0.1]}]))
    code = (
        "import contextlib, io, sys\n"
        "from adjointkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['pdeopt', '--problem', 'elliptic', '--descend',\n"
        "                       '--iters', '5']),\n"
        f"             cli.main(['train', '--spec', '2,4,1', '--data', {str(data)!r},\n"
        "                       '--iters', '5'])]\n"
        "print(codes, 'scipy' in sys.modules)\n")
    src = str(Path(adjointkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[0, 0] False"


def test_lyapunov_rejects_oversize_and_asymmetric_q():
    with pytest.raises(ValueError):
        lyapunov_solve(-np.eye(65), np.eye(65))
    with pytest.raises(ValueError):
        lyapunov_solve(-np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_lyapunov_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            lyapunov_solve(np.array([[bad, 0.0], [0.0, -1.0]]), np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            lyapunov_solve(-np.eye(2), np.array([[1.0, 0.0], [0.0, bad]]))


@pytest.mark.parametrize("call", [
    lambda: hurwitz_check(np.zeros((0, 0))),
    lambda: jacobian_verdict(np.zeros((0, 0))),
    lambda: stability_verdict(lambda x: -x, np.array([])),
    lambda: lyapunov_solve(np.zeros((0, 0)), np.zeros((0, 0))),
    lambda: r0(np.zeros((0, 0)), np.zeros((0, 0))),
], ids=["hurwitz_check", "jacobian_verdict", "stability_verdict", "lyapunov_solve", "r0"])
def test_empty_matrix_rejected(call):
    # the Routh table used to index row 1 of a one-row table (IndexError);
    # lyapunov_solve and r0 failed only inside numpy's zero-size reductions
    with pytest.raises(ValueError, match="non-empty"):
        call()


# -- hurwitz_check ----------------------------------------------------------------

def test_hurwitz_negative_identity():
    verdict = hurwitz_check(-np.eye(3))
    assert verdict.hurwitz and not verdict.boundary


def test_hurwitz_rotation_is_boundary():
    verdict = hurwitz_check(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not verdict.hurwitz
    assert verdict.boundary


def test_hurwitz_rejects_non_finite_entries():
    # a NaN entry used to come back as hurwitz=False with margin NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            hurwitz_check(np.array([[bad, 0.0], [0.0, -1.0]]))


def test_hurwitz_constructed_spectrum():
    rng = np.random.default_rng(51)
    a = matrix_with_spectrum(rng, [-1.0, -2.0, -3.0])
    assert hurwitz_check(a).hurwitz


def test_hurwitz_detects_unstable_spectrum():
    rng = np.random.default_rng(52)
    a = matrix_with_spectrum(rng, [-1.0, 0.7, -2.0])
    assert not hurwitz_check(a).hurwitz


def test_characteristic_polynomial_known_cases():
    np.testing.assert_allclose(characteristic_polynomial(np.diag([-1.0, -2.0])),
                               [1.0, 3.0, 2.0], atol=1e-12)
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])  # lambda^2 + lambda + 1
    np.testing.assert_allclose(characteristic_polynomial(a), [1.0, 1.0, 1.0],
                               atol=1e-12)


def faddeev_leverrier_oracle(a):
    """The recursion with two products per step: ``M_k`` and ``A M_k``."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def routh_oracle(a):
    """The Routh tabulation one entry at a time, on the oracle coefficients."""
    n = a.shape[0]
    coeffs = faddeev_leverrier_oracle(a)
    tol = 1e-10 * max(np.abs(coeffs).max(), 1.0)
    width = (n + 2) // 2
    rows = np.zeros((n + 1, width + 1))
    rows[0, :len(coeffs[0::2])] = coeffs[0::2]
    rows[1, :len(coeffs[1::2])] = coeffs[1::2]
    for i in range(1, n):
        if abs(rows[i, 0]) <= tol:
            return HurwitzVerdict(hurwitz=False, margin=0.0, boundary=True)
        for j in range(width):
            rows[i + 1, j] = (rows[i, 0] * rows[i - 1, j + 1]
                              - rows[i - 1, 0] * rows[i, j + 1]) / rows[i, 0]
    first_col = rows[:n + 1, 0]
    margin = float(np.abs(first_col).min())
    if margin <= tol:
        return HurwitzVerdict(hurwitz=False, margin=0.0, boundary=True)
    return HurwitzVerdict(hurwitz=bool(np.all(first_col > 0.0)), margin=margin)


def oracle_cases():
    rng = np.random.default_rng(57)
    cases = [block_spectrum_matrix(rng, n, hurwitz)
             for n in range(1, 65) for hurwitz in (True, False)]
    cases += [seirs_jacobian(beta) for beta in (0.05, 0.2, 0.3, 0.4, 0.9)]
    cases.append(np.array([[0.0, 1.0], [-1.0, -1.0]]))  # damped oscillator
    return cases


def test_characteristic_polynomial_matches_two_product_oracle_bitwise():
    for a in oracle_cases():
        assert np.array_equal(characteristic_polynomial(a), faddeev_leverrier_oracle(a))


def test_hurwitz_check_matches_scalar_routh_oracle_bitwise():
    verdicts = set()
    for a in oracle_cases():
        got, want = hurwitz_check(a), routh_oracle(a)
        assert got == want, a.shape
        verdicts.add((got.hurwitz, got.boundary))
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_hurwitz_equals_lyapunov_certificate_over_constructed_matrices():
    rng = np.random.default_rng(53)
    disagreements = 0
    for trial in range(50):
        n = int(rng.integers(2, 6))
        if trial % 2 == 0:
            eigs = -rng.uniform(0.3, 3.0, n)
        else:
            eigs = -rng.uniform(0.3, 3.0, n)
            eigs[rng.integers(0, n)] = rng.uniform(0.3, 2.0)
        a = matrix_with_spectrum(rng, eigs)
        tabulated = hurwitz_check(a).hurwitz
        try:
            certified = is_spd(lyapunov_solve(a, np.eye(n)))
        except NumericalError:
            certified = False
        disagreements += int(tabulated != certified)
    assert disagreements == 0


# -- linearize ---------------------------------------------------------------------

def test_linearize_exact_for_linear_field():
    rng = np.random.default_rng(54)
    m = rng.standard_normal((4, 4))
    jac = linearize(lambda x: m @ x, np.zeros(4))
    assert np.abs(jac - m).max() <= 1e-10


def test_linearize_logistic_equilibria():
    np.testing.assert_allclose(linearize(logistic, np.array([0.0])), [[1.0]],
                               atol=1e-9)
    np.testing.assert_allclose(linearize(logistic, np.array([1.0])), [[-1.0]],
                               atol=1e-9)


def test_linearize_rejects_non_equilibrium():
    with pytest.raises(ValueError, match="equilibrium"):
        linearize(logistic, np.array([0.5]))


def test_linearize_rejects_nan_residual():
    # |f| = NaN fails "|f| > tol" as well as "|f| <= tol"
    with pytest.raises(ValueError, match="not an equilibrium"):
        linearize(logistic, np.array([np.nan]))


# -- r0 ------------------------------------------------------------------------------

def test_r0_scalar_ratio():
    beta, gamma = 0.6, 0.2
    value = r0(beta * np.eye(2), gamma * np.eye(2))
    assert value == pytest.approx(beta / gamma, rel=1e-8)


def test_r0_seir_blocks():
    # V^{-1} by hand: [[1/sigma, 0], [1/gamma, 1/gamma]], so F V^{-1} is
    # triangular with spectral radius beta/gamma
    for beta, gamma in [(0.4, 0.25), (1.2, 0.3), (0.05, 0.5)]:
        sigma = 0.7
        f = np.array([[0.0, beta], [0.0, 0.0]])
        v = np.array([[sigma, 0.0], [-sigma, gamma]])
        assert r0(f, v) == pytest.approx(beta / gamma, rel=1e-8)


def test_r0_zero_infection_matrix():
    assert r0(np.zeros((3, 3)), np.eye(3)) == 0.0


def test_r0_singular_v_raises():
    with pytest.raises(NumericalError, match="singular"):
        r0(np.eye(2), np.zeros((2, 2)))


def test_r0_warns_on_negative_entries():
    with pytest.warns(RuntimeWarning):
        r0(-np.eye(2), np.eye(2))


def test_r0_matches_polynomial_root_oracle():
    # roots of the characteristic polynomial of F V^{-1}, n <= 4
    rng = np.random.default_rng(55)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        k_target = rng.uniform(0.0, 1.0, (n, n))
        v = np.eye(n)
        coeffs = characteristic_polynomial(k_target)
        oracle = max(abs(np.roots(coeffs)))
        assert r0(k_target, v) == pytest.approx(oracle, abs=1e-8)


def test_r0_host_vector_split():
    # F V^{-1} = [[0, 1.8], [0.5, 0]] is imprimitive: its dominant
    # eigenvalues +-sqrt(0.9) share their modulus
    f = np.array([[0.0, 0.9], [0.1, 0.0]])
    v = np.diag([0.2, 0.5])
    assert r0(f, v) == pytest.approx(np.sqrt(0.9), rel=1e-12)


def test_r0_cross_infection_matrices():
    for k12, k21 in [(1.2, 1.5), (0.3, 2.0), (4.0, 0.01), (0.7, 0.2)]:
        k = np.array([[0.0, k12], [k21, 0.0]])
        assert r0(k, np.eye(2)) == pytest.approx(np.sqrt(k12 * k21), rel=1e-12)


def test_r0_non_finite_next_generation_matrix_raises():
    with pytest.raises(NumericalError, match="^non-finite next_generation_matrix: the result "
                       "overflows the float range$"):
        r0(np.array([[1e10, 0.0], [0.0, 0.0]]), np.diag([1e-300, 1.0]))


# -- stability_verdict ---------------------------------------------------------------

def test_verdict_damped_oscillator():
    report = stability_verdict(damped_oscillator, np.zeros(2))
    assert report.hurwitz and report.spd_certificate
    assert is_spd(report.lyapunov_p)
    assert report.spectral_abscissa_bound < 0.0


def test_verdict_pure_growth():
    report = stability_verdict(lambda x: x, np.zeros(2))
    assert not report.hurwitz
    assert report.spectral_abscissa_bound == 0.0


def test_verdict_abscissa_bound_with_close_lyapunov_eigenvalues():
    # normal matrix: P = diag(-1/(2 Re lambda)), whose top two eigenvalues
    # differ by under 0.1 %, and the bound is attained exactly
    def rotation_block(re, im):
        return np.array([[re, im], [-im, re]])
    a = np.zeros((4, 4))
    a[:2, :2] = rotation_block(-0.7635, 1.0)
    a[2:, 2:] = rotation_block(-0.7640, 2.0)
    report = stability_verdict(lambda x: a @ x, np.zeros(4))
    max_re = np.linalg.eigvals(a).real.max()
    assert report.hurwitz
    assert report.spectral_abscissa_bound >= max_re - 1e-9 * abs(max_re)


def test_jacobian_verdict_certifies_the_matrix_as_given(monkeypatch):
    rng = np.random.default_rng(58)
    a = block_spectrum_matrix(rng, 16, True)

    def no_linearization(f, x_eq):
        raise AssertionError("jacobian_verdict must not linearize")

    monkeypatch.setattr(adjointkit.stability, "linearize", no_linearization)
    report = jacobian_verdict(a)
    assert report.hurwitz and report.spd_certificate
    assert np.array_equal(report.lyapunov_p, lyapunov_solve(a, np.eye(16)))
    assert report.margin == hurwitz_check(a).margin


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 16), hurwitz=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_jacobian_verdict_agrees_with_linearized_verdict(n, hurwitz, seed):
    a = block_spectrum_matrix(np.random.default_rng(seed), n, hurwitz)
    exact = jacobian_verdict(a)
    linearized = stability_verdict(lambda x: a @ x, np.zeros(n))
    assert exact.hurwitz == linearized.hurwitz == hurwitz
    assert exact.spd_certificate == linearized.spd_certificate == hurwitz


def test_verdict_raises_when_residual_gate_fails():
    # only a singular Lyapunov system may mean "no certificate"; a failed
    # residual gate on a Hurwitz matrix is no verdict at all
    a = non_normal_hurwitz_48()
    with pytest.raises(NumericalError, match="residual"):
        stability_verdict(lambda x: a @ x, np.zeros(48))


def test_lyapunov_suite_raises_on_non_singular_failure(monkeypatch):
    # only a singular Lyapunov system may count as "not certified"
    def failed_gate(a, q):
        raise NumericalError("Lyapunov residual gate failed")

    monkeypatch.setattr(stability, "lyapunov_solve", failed_gate)
    with pytest.raises(NumericalError, match="residual"):
        selftest.lyapunov_suite(seed=42)


def test_lyapunov_suite_counts_verdicts_that_miss_the_built_spectrum(monkeypatch):
    # the suite holds the verdict users get against the spectrum it builds,
    # so a verdict that calls every matrix Hurwitz misses the 25 unstable ones
    monkeypatch.setattr(selftest, "jacobian_verdict",
                        lambda a: HurwitzVerdict(hurwitz=True, margin=1.0))
    assert selftest.lyapunov_suite(seed=42) == (False, "25 disagreements over 50 matrices")


def test_verdict_logistic_both_equilibria():
    assert stability_verdict(logistic, np.array([1.0])).hurwitz
    assert not stability_verdict(logistic, np.array([0.0])).hurwitz


def test_lyapunov_function_decays_along_trajectories():
    report = stability_verdict(damped_oscillator, np.zeros(2))
    p = report.lyapunov_p
    # the exact flow x(t) = exp(A t) x0 of the linear damped oscillator
    a = np.array([[0.0, 1.0], [-1.0, -1.0]])
    states = np.array([expm(a * t) @ np.array([0.8, -0.4])
                       for t in np.linspace(0.0, 10.0, 1001)])
    values = np.einsum("ki,ij,kj->k", states, p, states)
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-8)


# -- SEIRS model ----------------------------------------------------------------------

def test_seirs_disease_free_equilibrium():
    model = SeirsModel()
    assert np.abs(model(model.disease_free_equilibrium)).max() <= 1e-15


def test_seirs_r0_consistency_with_stability():
    low = SeirsModel(beta=0.2)
    high = SeirsModel(beta=0.4)
    for model, expect_stable in ((low, True), (high, False)):
        f, v = model.next_generation_split()
        value = r0(f, v)
        assert value == pytest.approx(model.reproduction_number, rel=1e-8)
        assert (value < 1.0) == expect_stable
        report = stability_verdict(model, model.disease_free_equilibrium)
        assert report.hurwitz == expect_stable


@pytest.mark.parametrize("rates", [
    {"beta": -1.0}, {"beta": np.nan}, {"sigma": np.inf}, {"omega": -0.1},
    {"mu": 0.0, "sigma": 0.0}, {"mu": 0.0, "gamma": 0.0},
], ids=["beta-negative", "beta-nan", "sigma-inf", "omega-negative",
        "no-exit-from-e", "no-exit-from-i"])
def test_seirs_rejects_invalid_rates(rates):
    with pytest.raises(ValueError, match="SEIRS"):
        SeirsModel(**rates)
