import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adjointkit import (DenseOperator, InnerProductSpace, adjoint,
                        adjoint_consistency_check, matrix_operator,
                        solvability_check, svd)
from adjointkit.cli import main
from adjointkit.leastsq import (instability_demo, integration_operator,
                                normal_solve, picard_diagnostic,
                                tikhonov_solve)


def lstsq_oracle(op, y):
    """Minimum-norm least squares through a metric square-root transform.

    Independent of the package's SVD path: solve the Euclidean problem
    min |C^{1/2}(A x - y)| with numpy's LAPACK-backed lstsq after the
    change of variables that absorbs the domain metric.
    """
    ld = np.linalg.cholesky(op.domain.metric)
    lc = np.linalg.cholesky(op.codomain.metric)
    a_tilde = lc.T @ op.entries @ np.linalg.inv(ld.T)
    x_tilde, *_ = np.linalg.lstsq(a_tilde, lc.T @ y, rcond=None)
    return np.linalg.solve(ld.T, x_tilde)


def tikhonov_oracle(op, y, kappa):
    """Tikhonov minimizer as the augmented least-squares problem [B; sqrt(kappa) I].

    Same metric change of variables as ``lstsq_oracle``; LAPACK's lstsq
    never forms the normal operator either, so it stays accurate as
    kappa falls below the squared small singular values.
    """
    ld = np.linalg.cholesky(op.domain.metric)
    lc = np.linalg.cholesky(op.codomain.metric)
    a_tilde = lc.T @ op.entries @ np.linalg.inv(ld.T)
    n = op.domain.dim
    aug = np.vstack([a_tilde, np.sqrt(kappa) * np.eye(n)])
    x_tilde, *_ = np.linalg.lstsq(aug, np.concatenate([lc.T @ y, np.zeros(n)]), rcond=None)
    return np.linalg.solve(ld.T, x_tilde)


# -- normal_solve ----------------------------------------------------------------

def test_normal_solve_recovers_consistent_system():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    op = matrix_operator(a)
    x_true = rng.standard_normal(4)
    x = normal_solve(op, op.matvec(x_true))
    np.testing.assert_allclose(x, x_true, atol=1e-10)


def test_normal_solve_rank_deficient_minimum_norm():
    # A^T A x = A^T y restricted to the row space gives x = (0.1, 0.2) by hand
    op = matrix_operator([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([1.0, 0.0])
    x = normal_solve(op, y)
    np.testing.assert_allclose(x, [0.1, 0.2], atol=1e-12)
    lhs = op.entries.T @ op.entries @ x
    rhs = op.entries.T @ y
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_normal_solve_line_fit():
    t = np.array([0.0, 1.0, 2.0])
    design = np.column_stack([np.ones(3), t])
    y = 2.0 * t + 1.0
    coeffs = normal_solve(matrix_operator(design), y)
    np.testing.assert_allclose(coeffs, [1.0, 2.0], atol=1e-12)


def test_normal_solve_residual_orthogonal_to_range():
    rng = np.random.default_rng(21)
    op = matrix_operator(rng.standard_normal((6, 3)))
    y = rng.standard_normal(6)
    x = normal_solve(op, y)
    residual = op.matvec(x) - y
    for _ in range(20):
        w = rng.standard_normal(3)
        assert abs(op.codomain.inner(residual, op.matvec(w))) <= 1e-9


def test_normal_solve_matches_bruteforce_oracle():
    rng = np.random.default_rng(22)
    for trial in range(8):
        m, n = 7, 4
        dom = cod = None
        if trial % 2 == 0:
            b = rng.standard_normal((n, n))
            dom = b @ b.T + n * np.eye(n)
            c = rng.standard_normal((m, m))
            cod = c @ c.T + m * np.eye(m)
        op = matrix_operator(rng.standard_normal((m, n)), dom, cod)
        y = rng.standard_normal(m)
        np.testing.assert_allclose(normal_solve(op, y), lstsq_oracle(op, y),
                                   atol=1e-8)


# -- tikhonov_solve ---------------------------------------------------------------

def test_normal_solve_ill_conditioned_to_working_accuracy():
    # cond 1e9: the error should track cond * eps, not the square that the
    # normal operator A* A, or left vectors rebuilt as A u / s, would give
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    entries = (u * np.logspace(0.0, -9.0, 12)) @ v.T
    x_true = rng.standard_normal(12)
    x = normal_solve(matrix_operator(entries), entries @ x_true)
    assert np.linalg.norm(x - x_true) <= 1e-6 * np.linalg.norm(x_true)


def test_tikhonov_prior_dominated_limit():
    rng = np.random.default_rng(23)
    op = matrix_operator(rng.standard_normal((4, 3)))
    y = rng.standard_normal(4)
    x0 = rng.standard_normal(3)
    sol = tikhonov_solve(op, y, 1e8, x0)
    assert np.linalg.norm(sol.x - x0) <= 1e-6 * np.linalg.norm(x0)


def test_tikhonov_data_dominated_limit():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    op = matrix_operator(a)
    y = rng.standard_normal(3)
    sol = tikhonov_solve(op, y, 1e-12)
    base = normal_solve(op, y)
    assert np.linalg.norm(sol.x - base) <= 1e-6 * np.linalg.norm(base)


def test_tikhonov_optimality_residual():
    rng = np.random.default_rng(25)
    for kappa in (1e-6, 1e-2, 10.0):
        op = matrix_operator(rng.standard_normal((5, 4)))
        y = rng.standard_normal(5)
        x0 = rng.standard_normal(4)
        sol = tikhonov_solve(op, y, kappa, x0)
        adj = adjoint(op)
        lhs = adj.matvec(op.matvec(sol.x)) + kappa * sol.x
        rhs = adj.matvec(y) + kappa * x0
        nrm_a = svd(op).sigma[0]
        assert op.domain.norm(lhs - rhs) <= 1e-10 * (nrm_a ** 2 + kappa) \
            * max(op.domain.norm(sol.x), 1e-30)
        # stability: |x| <= (|A||y| + kappa |x0|) / kappa
        bound = (nrm_a * op.codomain.norm(y) + kappa * op.domain.norm(x0)) / kappa
        assert op.domain.norm(sol.x) <= bound * (1.0 + 1e-12)


def test_tikhonov_tiny_kappa_on_rank_one_operator():
    # the shifted normal matrix 1 1^T + 1e-20 I is singular in floating point;
    # the minimum-norm answer is what kappa -> 0 converges to
    sol = tikhonov_solve(matrix_operator(np.ones((2, 2))), np.ones(2), 1e-20)
    np.testing.assert_allclose(sol.x, [0.5, 0.5], atol=1e-12)


def test_tikhonov_singular_values_past_the_square_root_of_the_float_range():
    # sigma^2 = 1e320 overflows; x = y / (1 + kappa / sigma^2) is still [1, 1]
    sol = tikhonov_solve(matrix_operator(1e160 * np.eye(2)), np.full(2, 1e160), 1e-3)
    np.testing.assert_allclose(sol.x, [1.0, 1.0], rtol=1e-15)


def test_tikhonov_tiny_kappa_rank_deficient_cli_exit_0(capsys, tmp_path):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))  # rank 2
    y = rng.standard_normal(6)
    kappa = 1e-20
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"rows": 6, "cols": 5, "entries": a.ravel().tolist()}))
    rhs = tmp_path / "rhs.json"
    rhs.write_text(json.dumps(y.tolist()))
    code = main(["tikhonov", "--op", str(op), "--rhs", str(rhs), "--kappa", str(kappa)])
    assert code == 0
    x = np.array(json.loads(capsys.readouterr().out)["x"])
    # conditioned past 1/eps, so x itself is not pinned: the shifted normal
    # equations hold to a backward-stable residual
    s1 = np.linalg.norm(a, 2)
    eps = np.finfo(float).eps
    assert np.linalg.norm(a.T @ (a @ x - y) + kappa * x) \
        <= 10.0 * eps * ((s1 * s1 + kappa) * np.linalg.norm(x) + s1 * np.linalg.norm(y))


@pytest.mark.parametrize("weighted", [False, True])
def test_tikhonov_filter_factors_match_augmented_lstsq(weighted):
    # the graded cond-1e9 operator of the normal_solve test above; the shifted
    # normal matrix A* A + kappa I has condition about 1/kappa, up to 1e16 here
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    entries = (u * np.logspace(0.0, -9.0, 12)) @ v.T
    y = rng.standard_normal(12)
    dom = cod = None
    if weighted:
        g, h = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
        dom, cod = g @ g.T + 12 * np.eye(12), h @ h.T + 12 * np.eye(12)
    op = matrix_operator(entries, dom, cod)
    for kappa in (1e-8, 1e-12, 1e-16):
        ref = tikhonov_oracle(op, y, kappa)
        x = tikhonov_solve(op, y, kappa).x
        assert np.linalg.norm(x - ref) <= 1e-8 * np.linalg.norm(ref), kappa


def test_one_lapack_svd_per_operator(monkeypatch):
    calls = []
    lapack_svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return lapack_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(26)
    for k in range(2):
        op = matrix_operator(rng.standard_normal((5, 4)))
        y = rng.standard_normal(5)
        svd(op)
        svd(op, rank_tol=1e-3)
        normal_solve(op, y)
        picard_diagnostic(op, y)
        solvability_check(op, y)
        for kappa in (1e-8, 1e-4, 1.0, 10.0):
            tikhonov_solve(op, y, kappa)
        assert len(calls) == k + 1


def test_svd_arrays_are_read_only():
    dec = svd(matrix_operator([[3.0, 1.0], [0.0, 2.0], [1.0, 1.0]]))
    for arr in (dec.sigma, dec.right_vectors, dec.left_vectors):
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0


def test_tikhonov_rejects_nonpositive_kappa():
    op = matrix_operator(np.eye(2))
    with pytest.raises(ValueError):
        tikhonov_solve(op, np.ones(2), 0.0)


def test_tikhonov_stabilizes_integration_inverse():
    # deterministic perturbation along the weakest retained mode; the
    # unregularized error grows like 1/sigma_min while the regularized
    # error is damped by sigma_min/(sigma_min^2 + kappa)
    op = integration_operator(64)
    dec = svd(op)
    grid = (np.arange(64) + 0.5) / 64
    y = op.matvec(np.sin(np.pi * grid))
    noise = 1e-3 * dec.left_vectors[:, dec.rank - 1]
    x_plain = normal_solve(op, y)
    x_plain_noisy = normal_solve(op, y + noise)
    err_plain = op.domain.norm(x_plain_noisy - x_plain)
    reg = tikhonov_solve(op, y, 1e-1)
    reg_noisy = tikhonov_solve(op, y + noise, 1e-1)
    err_reg = op.domain.norm(reg_noisy.x - reg.x)
    assert err_plain / err_reg >= 1e3
    assert op.domain.norm(reg_noisy.x) <= 2.0 * op.domain.norm(reg.x)


# -- picard_diagnostic -------------------------------------------------------------

def test_picard_smooth_data_decays():
    op = integration_operator(48)
    grid = (np.arange(48) + 0.5) / 48
    y = op.matvec(np.sin(np.pi * grid))
    table = picard_diagnostic(op, y)
    ratios = [row.ratio for row in table.rows]
    assert ratios[-1] <= 1e-3 * ratios[0]
    cums = [row.cumulative for row in table.rows]
    # the tail of the cumulative sum contributes almost nothing
    assert cums[-1] - cums[len(cums) // 2] <= 1e-4 * cums[-1]
    assert all(b >= a for a, b in zip(cums, cums[1:]))


def test_picard_single_mode_data():
    op = integration_operator(32)
    dec = svd(op)
    idx = 20
    y = dec.left_vectors[:, idx - 1]
    table = picard_diagnostic(op, y)
    target = table.rows[idx - 1]
    assert target.ratio == pytest.approx(1.0 / dec.sigma[idx - 1], rel=1e-9)
    others = [row.coeff for row in table.rows if row.index != idx]
    assert max(others) <= 1e-10


def test_picard_null_space_data():
    op = matrix_operator([[1.0, 2.0], [1.0, 2.0]])
    y = np.array([1.0, -1.0]) / np.sqrt(2.0)
    table = picard_diagnostic(op, y)
    assert all(row.coeff <= 1e-12 for row in table.rows)
    assert table.null_defect == pytest.approx(1.0, abs=1e-12)


def test_picard_null_defect_matches_solvability_and_weighted_residual():
    rng = np.random.default_rng(61)
    entries = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 4))  # rank 2
    g_dom, g_cod = rng.standard_normal((4, 4)), rng.standard_normal((5, 5))
    m_dom, m_cod = g_dom @ g_dom.T + 4 * np.eye(4), g_cod @ g_cod.T + 5 * np.eye(5)
    op = DenseOperator(InnerProductSpace(4, m_dom), InnerProductSpace(5, m_cod), entries)
    y = rng.standard_normal(5)
    table = picard_diagnostic(op, y)
    assert table.null_defect == solvability_check(op, y)["defect"]
    # relative residual of weighted least squares, in the codomain metric
    l_cod = np.linalg.cholesky(m_cod)
    x = np.linalg.lstsq(l_cod.T @ entries, l_cod.T @ y, rcond=None)[0]
    r = entries @ x - y
    expected = np.sqrt(r @ m_cod @ r) / np.sqrt(y @ m_cod @ y)
    assert table.null_defect == pytest.approx(expected, rel=1e-10)


# -- instability_demo --------------------------------------------------------------

def test_instability_first_mode_is_smallest():
    op = integration_operator(32)
    dec = svd(op)
    grid = (np.arange(32) + 0.5) / 32
    y = op.matvec(grid * (1.0 - grid))
    amp = instability_demo(op, y, 1, 1e-4)
    assert amp == pytest.approx(1.0 / dec.sigma[0], rel=1e-6)


def test_instability_grows_toward_spectral_tail():
    op = integration_operator(64)
    dec = svd(op)
    grid = (np.arange(64) + 0.5) / 64
    y = op.matvec(np.sin(np.pi * grid))
    amp_tail = instability_demo(op, y, dec.rank, 1e-3)
    amp_head = instability_demo(op, y, 1, 1e-3)
    assert amp_tail == pytest.approx(1.0 / dec.sigma[dec.rank - 1], rel=1e-6)
    assert amp_tail >= 10.0 * amp_head


def test_instability_independent_of_delta():
    op = integration_operator(16)
    grid = (np.arange(16) + 0.5) / 16
    y = op.matvec(np.cos(np.pi * grid))
    a1 = instability_demo(op, y, 5, 1e-2)
    a2 = instability_demo(op, y, 5, 1e-7)
    assert abs(a1 - a2) <= 1e-10 * a1


def test_instability_rejects_out_of_rank_index():
    op = integration_operator(8)
    with pytest.raises(ValueError):
        instability_demo(op, np.zeros(8), 9, 1e-3)


# -- integration_operator -----------------------------------------------------------

def test_integration_operator_constant_input():
    op = integration_operator(2)
    np.testing.assert_allclose(op.matvec(np.ones(2)), [0.5, 1.0])


def test_integration_operator_zero_input():
    op = integration_operator(8)
    np.testing.assert_allclose(op.matvec(np.zeros(8)), np.zeros(8))


def test_integration_operator_conditioning_grows():
    conds = []
    for n in (16, 32, 64):
        dec = svd(integration_operator(n))
        conds.append(dec.sigma[0] / dec.sigma[dec.rank - 1])
    assert conds[0] < conds[1] < conds[2]


def test_integration_operator_rejects_small_n():
    with pytest.raises(ValueError):
        integration_operator(1)


# -- degenerate operators, property-tested ---------------------------------------

# zero or of magnitude 1e-3 to 10, so that every Picard ratio stays in the float range
ENTRY = st.just(0.0) | st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)
KAPPAS = (5e-324, 2.2250738585072014e-308, 1e-300, 1.0, 1e300)


@st.composite
def degenerate_operators(draw):
    """A zero operator, a rank-1 outer product or a 1 x k, k x 1 or 1 x 1 matrix, k <= 6.

    Each space is Euclidean or carries a diagonal SPD metric.
    """
    kind = draw(st.sampled_from(["zero", "outer", "row", "column", "scalar"]))
    k = draw(st.integers(1, 6))
    m, n = {"zero": (draw(st.integers(1, 6)), k), "outer": (draw(st.integers(1, 6)), k),
            "row": (1, k), "column": (k, 1), "scalar": (1, 1)}[kind]
    if kind == "zero":
        entries = np.zeros((m, n))
    elif kind == "outer":
        entries = np.outer(draw(arrays(float, m, elements=ENTRY)),
                           draw(arrays(float, n, elements=ENTRY)))
    else:
        entries = draw(arrays(float, (m, n), elements=ENTRY))

    def metric(dim):
        if draw(st.booleans()):
            return None
        return np.diag(draw(arrays(float, dim, elements=st.floats(0.25, 4.0))))

    op = matrix_operator(entries, metric(n), metric(m))
    return kind, op, draw(arrays(float, m, elements=ENTRY))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=degenerate_operators())
def test_degenerate_operators_keep_every_contract(case):
    kind, op, y = case
    dec = svd(op)
    assert dec.rank <= 1
    if kind == "zero":
        assert dec.rank == 0
    # minimum-norm least squares in the whitened coordinates, same rank cut as svd
    ld = np.linalg.cholesky(op.domain.metric)
    lc = np.linalg.cholesky(op.codomain.metric)
    whitened = lc.T @ np.linalg.solve(ld, op.entries.T).T
    w, *_ = np.linalg.lstsq(whitened, lc.T @ y, rcond=1e-10)
    reference = np.linalg.solve(ld.T, w)
    np.testing.assert_allclose(normal_solve(op, y), reference, rtol=1e-12,
                               atol=1e-12 * max(np.abs(reference).max(), 1.0))
    assert picard_diagnostic(op, y).null_defect == solvability_check(op, y)["defect"]
    assert adjoint_consistency_check(op).max_defect <= 1e-12
    for kappa in KAPPAS:
        sol = tikhonov_solve(op, y, kappa)
        assert np.all(np.isfinite(sol.x))
        assert np.isfinite(sol.residual_norm) and np.isfinite(sol.prior_distance)
