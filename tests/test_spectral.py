import warnings

import numpy as np
import pytest

from adjointkit import (DenseOperator, InnerProductSpace, adjoint,
                        eig_self_adjoint, fundamental_subspaces,
                        matrix_operator, operator_norm, orthogonal_projector,
                        solvability_check, svd)
from adjointkit.errors import NumericalError

# four-decimal reference decomposition of [[2, 0, 1], [2, 4/3, 1/3]],
# frozen from an independent eigendecomposition of A A^T and A^T A
# (singular vectors are determined only up to column sign)
REFERENCE_MATRIX = np.array([[2.0, 0.0, 1.0], [2.0, 4.0 / 3.0, 1.0 / 3.0]])
REFERENCE_SIGMA = (3.1306, 1.0433)
REFERENCE_RIGHT = np.array([
    [0.9023, 0.1385, -0.4082],
    [0.3162, -0.8564, 0.4082],
    [0.2931, 0.4974, 0.8165],
])
REFERENCE_LEFT = np.array([
    [0.6701, 0.7423],
    [0.7423, -0.6701],
])


def spd_metric(rng, n):
    b = rng.standard_normal((n, n))
    return b @ b.T + n * np.eye(n)


def self_adjoint_operator(rng, n, weighted=False):
    if not weighted:
        s = rng.standard_normal((n, n))
        return matrix_operator(0.5 * (s + s.T))
    metric = spd_metric(rng, n)
    space = InnerProductSpace(n, metric)
    s = rng.standard_normal((n, n))
    # M^{-1} S with S symmetric is self-adjoint in the M inner product
    entries = np.linalg.solve(metric, 0.5 * (s + s.T))
    return DenseOperator(space, space, entries)


# -- eigendecomposition --------------------------------------------------------

def test_eig_diagonal_case():
    res = eig_self_adjoint(matrix_operator(np.diag([3.0, 1.0, 2.0])))
    np.testing.assert_allclose(res.eigenvalues, [3.0, 2.0, 1.0], atol=1e-13)
    perm = np.abs(res.eigenvectors)
    np.testing.assert_allclose(perm, np.eye(3)[:, [0, 2, 1]], atol=1e-13)


def test_eig_swap_matrix():
    # hand computation: eigenpairs (1, [1,1]/sqrt2) and (-1, [1,-1]/sqrt2)
    res = eig_self_adjoint(matrix_operator([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(res.eigenvalues, [1.0, -1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    assert abs(abs(res.eigenvectors[:, 0] @ [s, s]) - 1.0) <= 1e-12
    assert abs(abs(res.eigenvectors[:, 1] @ [s, -s]) - 1.0) <= 1e-12


def test_eig_identity():
    res = eig_self_adjoint(matrix_operator(np.eye(4)))
    np.testing.assert_allclose(res.eigenvalues, np.ones(4), atol=1e-14)


def test_eig_rejects_non_self_adjoint():
    with pytest.raises(ValueError, match="self-adjoint"):
        eig_self_adjoint(matrix_operator([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_skew_part_the_random_probes_miss():
    # a skew part 20x the 1e-8 tolerance, of which random probes see only
    # about 1/23 at n = 64 and 1/91 at n = 200
    for n in (64, 200):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((n, n))
        a = (s + s.T) / np.linalg.norm(s + s.T, 2)
        a[0, 1] += 1e-7
        a[1, 0] -= 1e-7
        with pytest.raises(ValueError, match="self-adjoint"):
            eig_self_adjoint(matrix_operator(a))


def test_eig_self_adjointness_test_is_never_looser_than_the_2_norm_test():
    # |B - B^T|_F <= 1e-8 max|lambda(sym B)| implies |B - B^T|_2 <= 1e-8 |B|_2; the skew
    # parts span the cut, full or of rank two (Frobenius norm closest to the 2-norm)
    rng = np.random.default_rng(35)
    accepted = 0
    for trial in range(1200):
        n = int(rng.integers(2, 41))
        s = rng.standard_normal((n, n))
        if trial % 2:
            u, v = rng.standard_normal((2, n))
            k = np.outer(u, v) - np.outer(v, u)
        else:
            k = rng.standard_normal((n, n))
            k -= k.T
        b = ((s + s.T) / np.linalg.norm(s + s.T, 2)
             + 10.0 ** rng.uniform(-12.0, -5.0) * k / np.linalg.norm(k, 2))
        if trial % 4 < 2:
            op = matrix_operator(b)
        else:  # A = L^{-T} B L^T, whose whitened matrix L^T A L^{-T} is B
            space = InnerProductSpace(n, spd_metric(rng, n))
            chol = space.cholesky
            op = DenseOperator(space, space, np.linalg.solve(chol.T, b @ chol.T))
        try:
            eig_self_adjoint(op)
        except ValueError:
            continue
        accepted += 1
        w = op.whitened()
        assert np.linalg.norm(w - w.T, 2) <= 1e-8 * np.linalg.norm(w, 2)
    assert 300 <= accepted <= 900


def test_eig_near_the_float_range_without_warnings():
    # B + B^T overflows, 0.5 B + 0.5 B^T does not; the skew part is tested scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = eig_self_adjoint(matrix_operator([[1e308, 1e308], [1e308, -1e308]]))
        np.testing.assert_allclose(res.eigenvalues, np.sqrt(2.0) * np.array([1e308, -1e308]),
                                   rtol=1e-15)
        with pytest.raises(ValueError, match="self-adjoint"):
            eig_self_adjoint(matrix_operator([[1e308, -1e308], [1e308, 1e308]]))


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(2, 9))
        op = self_adjoint_operator(rng, n, weighted=trial % 2 == 0)
        res = eig_self_adjoint(op)
        space = op.domain
        gram = np.array([[space.inner(res.eigenvectors[:, i], res.eigenvectors[:, j])
                          for j in range(n)] for i in range(n)])
        assert np.abs(gram - np.eye(n)).max() <= 1e-10
        nrm = operator_norm(op)
        for i in range(n):
            resid = op.matvec(res.eigenvectors[:, i]) \
                - res.eigenvalues[i] * res.eigenvectors[:, i]
            assert space.norm(resid) <= 1e-9 * max(nrm, 1e-30)
        # reconstruction A = sum_i lambda_i v_i (v_i, .)
        rec = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        if not space.is_euclidean:
            rec = rec @ space.metric
        assert np.linalg.norm(rec - op.entries) <= 1e-9 * max(nrm, 1e-30)


# -- SVD -----------------------------------------------------------------------

def test_svd_reference_example():
    result = svd(matrix_operator(REFERENCE_MATRIX))
    np.testing.assert_allclose(result.sigma, REFERENCE_SIGMA, atol=5e-5)
    assert result.rank == 2
    for j in range(3):
        col = result.right_vectors[:, j]
        ref = REFERENCE_RIGHT[:, j]
        assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-3
    for j in range(2):
        col = result.left_vectors[:, j]
        ref = REFERENCE_LEFT[:, j]
        assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-3


def test_svd_identity():
    result = svd(matrix_operator(np.eye(3)))
    np.testing.assert_allclose(result.sigma, np.ones(3), atol=1e-13)
    assert result.rank == 3


def test_svd_rejects_nan_and_negative_rank_tol():
    op = matrix_operator(np.eye(2))
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="rank_tol"):
            svd(op, rank_tol=bad)
    assert svd(op, rank_tol=0.0).rank == 2


def test_svd_overflowing_operator_raises():
    # finite entries whose norm overflows: no rank tolerance can be derived
    op = matrix_operator(np.full((2, 2), 1e308))
    with pytest.raises(NumericalError, match="non-finite"):
        svd(op)
    with pytest.raises(NumericalError, match="non-finite"):
        solvability_check(op, np.ones(2))


def test_sign_convention_bitwise_equal_to_column_loop():
    from adjointkit.core import _fix_signs

    def loop_oracle(vectors):
        out = vectors.copy()
        for j in range(out.shape[1]):
            lead = np.argmax(np.abs(out[:, j]))
            if out[lead, j] < 0.0:
                out[:, j] = -out[:, j]
        return out

    rng = np.random.default_rng(12)
    ties = np.array([[1.0, -1.0, 0.0, -0.0], [-1.0, 1.0, 0.0, 0.0]])
    for vectors in [ties, np.zeros((3, 0))] + [rng.standard_normal((n, k))
                                               for n, k in [(1, 1), (5, 3), (9, 9)]]:
        flipped = _fix_signs(vectors)
        ref = loop_oracle(vectors)
        assert flipped.shape == ref.shape
        assert np.array_equal(flipped.view(np.uint64), ref.view(np.uint64))


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal(4), rng.standard_normal(3)
    result = svd(matrix_operator(np.outer(a, b)))
    assert result.rank == 1
    assert result.sigma[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b),
                                            rel=1e-12)


def test_svd_zero_matrix():
    result = svd(matrix_operator(np.zeros((3, 2))))
    assert result.rank == 0
    np.testing.assert_allclose(result.sigma, np.zeros(2))


def test_svd_triplet_relations_random():
    rng = np.random.default_rng(13)
    for trial in range(10):
        m, n = int(rng.integers(2, 13)), int(rng.integers(2, 10))
        entries = rng.standard_normal((m, n))
        if trial % 3 == 0:
            op = matrix_operator(entries, spd_metric(rng, n), spd_metric(rng, m))
        else:
            op = matrix_operator(entries)
        result = svd(op)
        adj = adjoint(op)
        nrm = operator_norm(op)
        for i in range(result.rank):
            u_i = result.right_vectors[:, i]
            v_i = result.left_vectors[:, i]
            assert op.codomain.norm(op.matvec(u_i) - result.sigma[i] * v_i) <= 1e-9 * nrm
            assert op.domain.norm(adj.matvec(v_i) - result.sigma[i] * u_i) <= 1e-9 * nrm
        for i in range(result.rank, n):
            assert op.codomain.norm(op.matvec(result.right_vectors[:, i])) <= 1e-9 * nrm
        # reconstruction through the triplets
        rec = sum(result.sigma[i] * np.outer(result.left_vectors[:, i],
                                             result.right_vectors[:, i])
                  for i in range(result.rank))
        if not op.domain.is_euclidean:
            rec = rec @ op.domain.metric
        assert np.linalg.norm(rec - op.entries) <= 1e-8 * max(nrm, 1e-30)


def test_svd_nonzero_spectra_of_both_normal_operators_agree():
    rng = np.random.default_rng(14)
    for _ in range(6):
        m, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        op = matrix_operator(rng.standard_normal((m, n)))
        first = svd(op).sigma
        second = svd(adjoint(op)).sigma
        k = min(m, n)
        np.testing.assert_allclose(first[:k], second[:k], rtol=1e-9, atol=1e-12)


def test_singular_values_invariant_under_orthogonal_maps():
    rng = np.random.default_rng(15)
    entries = rng.standard_normal((5, 4))
    q_left, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q_right, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = svd(matrix_operator(entries)).sigma
    rotated = svd(matrix_operator(q_left @ entries @ q_right)).sigma
    np.testing.assert_allclose(rotated, base, rtol=1e-9, atol=1e-12)


def test_reconstruction_residuals_over_50_random_matrices():
    rng = np.random.default_rng(160)
    for _ in range(50):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 10))
        op = matrix_operator(rng.standard_normal((m, n)))
        result = svd(op)
        rec = sum(result.sigma[i] * np.outer(result.left_vectors[:, i],
                                             result.right_vectors[:, i])
                  for i in range(result.rank))
        nrm = result.sigma[0] if result.sigma.size else 0.0
        assert np.linalg.norm(rec - op.entries) <= 1e-8 * max(nrm, 1e-30)


def test_graded_spectrum_to_relative_accuracy():
    # sigma_12 / sigma_1 = 1e-10; forming A* A would square that ratio below
    # the float floor and lose the tail of the spectrum
    rng = np.random.default_rng(2023)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    exact = np.logspace(0.0, -10.0, 12)
    op = matrix_operator((u * exact) @ v.T)
    result = svd(op, rank_tol=1e-12)
    assert result.rank == 12
    assert np.max(np.abs(result.sigma - exact) / exact) <= 1e-6
    # values under the default tolerance are reported as computed, not zeroed
    np.testing.assert_array_equal(svd(op).sigma, result.sigma)


def graded_operator(decades, weighted=False):
    """12 x 12 ``U diag(logspace(0, -decades, 12)) V^T``, optionally weighted."""
    rng = np.random.default_rng(12)
    u, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    entries = (u * np.logspace(0.0, -decades, 12)) @ v.T
    if not weighted:
        return matrix_operator(entries)
    return matrix_operator(entries, spd_metric(rng, 12), spd_metric(rng, 12))


@pytest.mark.parametrize("weighted", [False, True], ids=["euclidean", "weighted"])
def test_graded_left_basis_is_orthonormal_in_the_metric(weighted):
    # rebuilding v_i = A u_i / s_i would lose orthonormality as s_i / s_1 falls
    op = graded_operator(9, weighted)
    result = svd(op)
    left = result.left_vectors
    gram = left.T @ op.codomain.metric @ left
    assert np.abs(gram - np.eye(12)).max() <= 1e-12


@pytest.mark.parametrize("weighted", [False, True], ids=["euclidean", "weighted"])
def test_graded_range_basis_passes_the_projector_check(weighted):
    op = graded_operator(9, weighted)
    projector = orthogonal_projector(fundamental_subspaces(svd(op)).range_a, op.codomain)
    assert np.abs(projector.entries @ projector.entries - projector.entries).max() <= 1e-10


def test_singular_pairs_hold_past_the_rank_cut():
    # A u_i = s_i v_i for every i < min(m, n), also where rank_tol cuts s_i
    rng = np.random.default_rng(21)
    for m, n in [(4, 4), (6, 4), (4, 6)] * 3:
        k = min(m, n)
        q_left, _ = np.linalg.qr(rng.standard_normal((m, m)))
        q_right, _ = np.linalg.qr(rng.standard_normal((n, n)))
        entries = (q_left[:, :k] * np.linspace(3.0, 0.5, k)) @ q_right[:, :k].T
        result = svd(matrix_operator(entries), rank_tol=1.0)
        assert result.rank < k
        for i in range(k):
            gap = result.sigma[i] * result.left_vectors[:, i] \
                - entries @ result.right_vectors[:, i]
            assert np.linalg.norm(gap) <= 1e-12 * result.sigma[0]


def test_rank_nullity_over_random_matrices():
    rng = np.random.default_rng(16)
    for _ in range(20):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 10))
        rank_true = int(rng.integers(0, min(m, n) + 1))
        entries = (rng.standard_normal((m, rank_true)) @ rng.standard_normal((rank_true, n))
                   if rank_true else np.zeros((m, n)))
        result = svd(matrix_operator(entries))
        bases = fundamental_subspaces(result)
        assert result.rank == rank_true
        assert bases.null_a.shape[1] + bases.range_astar.shape[1] == n
        assert bases.range_a.shape[1] == rank_true
        assert bases.null_a.shape[1] == n - rank_true
        assert bases.range_astar.shape[1] == rank_true
        assert bases.null_astar.shape[1] == m - rank_true


# -- subspaces and solvability ---------------------------------------------------

def test_null_astar_of_rank_deficient_example():
    result = svd(matrix_operator([[1.0, 2.0], [1.0, 2.0]]))
    bases = fundamental_subspaces(result)
    assert bases.null_astar.shape == (2, 1)
    s = 1.0 / np.sqrt(2.0)
    col = bases.null_astar[:, 0]
    assert min(np.abs(col - [s, -s]).max(), np.abs(col + [s, -s]).max()) <= 1e-12


def test_subspace_orthogonality():
    rng = np.random.default_rng(17)
    op = matrix_operator(rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5)))
    bases = fundamental_subspaces(svd(op))
    for j in range(bases.range_a.shape[1]):
        for k in range(bases.null_astar.shape[1]):
            assert abs(bases.range_a[:, j] @ bases.null_astar[:, k]) <= 1e-10
    for j in range(bases.range_astar.shape[1]):
        for k in range(bases.null_a.shape[1]):
            assert abs(bases.range_astar[:, j] @ bases.null_a[:, k]) <= 1e-10


def test_invertible_matrix_has_empty_null_bases():
    bases = fundamental_subspaces(svd(matrix_operator([[2.0, 1.0], [0.0, 1.0]])))
    assert bases.null_a.shape[1] == 0
    assert bases.null_astar.shape[1] == 0


def test_zero_matrix_subspaces():
    bases = fundamental_subspaces(svd(matrix_operator(np.zeros((2, 3)))))
    assert bases.range_a.shape[1] == 0
    assert bases.null_a.shape[1] == 3
    assert bases.null_astar.shape[1] == 2


def test_solvability_rank_deficient_counterexample():
    op = matrix_operator([[1.0, 2.0], [1.0, 2.0]])
    verdict = solvability_check(op, np.array([1.0, 0.0]), tol=1e-8)
    assert not verdict["solvable"]
    assert verdict["defect"] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)


def test_solvability_of_range_member():
    rng = np.random.default_rng(18)
    op = matrix_operator(rng.standard_normal((4, 3)))
    y = op.matvec(rng.standard_normal(3))
    verdict = solvability_check(op, y, tol=1e-10)
    assert verdict["solvable"]
    assert verdict["defect"] <= 1e-12


def test_solvability_zero_rhs():
    op = matrix_operator([[1.0, 2.0], [1.0, 2.0]])
    verdict = solvability_check(op, np.zeros(2), tol=1e-10)
    assert verdict["solvable"] and verdict["defect"] == 0.0


@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 1e300])
def test_solvability_defect_does_not_depend_on_the_scale_of_the_data(scale):
    # both norms come from the scaled coefficients; squaring y underflows or overflows
    verdict = solvability_check(matrix_operator([[1.0, 0.0], [0.0, 0.0]]), [scale, scale])
    assert not verdict["solvable"]
    assert verdict["defect"] == pytest.approx(np.sqrt(0.5), rel=1e-15)


def test_solvability_refuses_data_whose_coefficients_overflow():
    # (y, v_1) = sqrt(2) * 1.5e308 is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^non-finite null_defect: the result "
                           "overflows the float range$"):
            solvability_check(matrix_operator([[1.0, 1.0], [1.0, 1.0]]), [1.5e308, 1.5e308])


# -- projectors ------------------------------------------------------------------

def test_projector_onto_first_axis():
    p = orthogonal_projector(np.array([[1.0], [0.0]]), InnerProductSpace(2))
    np.testing.assert_allclose(p.entries, np.diag([1.0, 0.0]))


def test_projector_full_basis_is_identity():
    p = orthogonal_projector(np.eye(3), InnerProductSpace(3))
    np.testing.assert_allclose(p.entries, np.eye(3), atol=1e-14)


def test_projector_rank_one_formula():
    s = 1.0 / np.sqrt(2.0)
    p = orthogonal_projector(np.array([[s], [s]]), InnerProductSpace(2))
    np.testing.assert_allclose(p.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_projector_idempotent_self_adjoint_pythagorean():
    rng = np.random.default_rng(19)
    metric = spd_metric(rng, 5)
    space = InnerProductSpace(5, metric)
    from adjointkit import orthonormalize
    basis = orthonormalize([rng.standard_normal(5) for _ in range(2)], space)
    p = orthogonal_projector(basis, space)
    np.testing.assert_allclose(p.entries @ p.entries, p.entries, atol=1e-10)
    adj = adjoint(p)
    np.testing.assert_allclose(adj.entries, p.entries, atol=1e-10)
    for _ in range(5):
        x = rng.standard_normal(5)
        px = p.matvec(x)
        lhs = space.norm(x) ** 2
        rhs = space.norm(px) ** 2 + space.norm(x - px) ** 2
        assert abs(lhs - rhs) <= 1e-10 * lhs


def test_projector_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError, match="orthonormal"):
        orthogonal_projector(np.array([[1.0], [1.0]]), InnerProductSpace(2))


def test_projector_checks_orthonormality_in_the_space_metric():
    space = InnerProductSpace(5, spd_metric(np.random.default_rng(20), 5))
    with pytest.raises(ValueError, match="orthonormal"):
        orthogonal_projector(np.eye(5)[:, :2], space)
