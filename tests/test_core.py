import numpy as np
import pytest

from adjointkit import (InnerProductSpace, adjoint, adjoint_consistency_check,
                        euclidean, inner, matrix_operator,
                        operator_from_record, operator_norm,
                        operator_to_record, orthonormalize)
from adjointkit.core import DenseOperator
from adjointkit.errors import NumericalError
from adjointkit.rand import Lcg


def random_operator(rng, m, n, weighted=False):
    dom_metric = cod_metric = None
    if weighted:
        b = rng.standard_normal((n, n))
        dom_metric = b @ b.T + n * np.eye(n)
        c = rng.standard_normal((m, m))
        cod_metric = c @ c.T + m * np.eye(m)
    return matrix_operator(rng.standard_normal((m, n)), dom_metric, cod_metric)


# -- spaces --------------------------------------------------------------------

def test_metric_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        InnerProductSpace(2, [[1.0, 0.5], [0.0, 1.0]])


def test_metric_must_be_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        InnerProductSpace(2, [[1.0, 2.0], [2.0, 1.0]])


def test_non_finite_metric_and_entries_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        InnerProductSpace(2, [[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        DenseOperator(euclidean(2), euclidean(2), [[1.0, np.inf], [0.0, 1.0]])


def test_inner_examples():
    # orthogonal canonical vectors
    assert inner(euclidean(2), [1.0, 0.0], [0.0, 1.0]) == 0.0
    # hand expansion 2*1*1 + 3*1*1
    weighted = InnerProductSpace(2, [[2.0, 0.0], [0.0, 3.0]])
    assert inner(weighted, [1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)
    # squared norm
    assert inner(euclidean(2), [3.0, 4.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_inner_symmetry_and_dimension_error():
    space = InnerProductSpace(3, np.diag([1.0, 2.0, 5.0]))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert inner(space, x, y) == pytest.approx(inner(space, y, x))
    with pytest.raises(ValueError):
        inner(space, [1.0, 2.0], y)


# -- adjoint -------------------------------------------------------------------

def test_euclidean_adjoint_is_transpose():
    op = matrix_operator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(adjoint(op).entries, [[1.0, 3.0], [2.0, 4.0]])


def test_weighted_codomain_adjoint_matches_transpose_times_metric():
    # with Euclidean domain and codomain metric M the adjoint is A^T M
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    m = np.diag([2.0, 1.0, 4.0])
    op = matrix_operator(a, codomain_metric=m)
    np.testing.assert_allclose(adjoint(op).entries, a.T @ m, atol=1e-13)


def test_identity_self_adjoint_under_common_metric():
    metric = np.array([[2.0, 0.3], [0.3, 1.0]])
    op = matrix_operator(np.eye(2), metric, metric)
    np.testing.assert_allclose(adjoint(op).entries, np.eye(2), atol=1e-13)


def test_adjoint_involution():
    rng = np.random.default_rng(2)
    for trial in range(10):
        op = random_operator(rng, 5, 4, weighted=trial % 2 == 0)
        back = adjoint(adjoint(op))
        assert np.abs(back.entries - op.entries).max() <= 1e-12 * max(
            1.0, np.abs(op.entries).max())


def test_adjoint_identity_over_random_pairs():
    rng = np.random.default_rng(3)
    for trial in range(25):
        m, n = rng.integers(1, 13), rng.integers(1, 10)
        op = random_operator(rng, m, n, weighted=trial % 2 == 0)
        adj = adjoint(op)
        nrm = operator_norm(op)
        for _ in range(20):
            u = rng.standard_normal(n)
            v = rng.standard_normal(m)
            u /= op.domain.norm(u)
            v /= op.codomain.norm(v)
            gap = abs(op.codomain.inner(op.matvec(u), v)
                      - op.domain.inner(u, adj.matvec(v)))
            assert gap <= 1e-10 * nrm


def test_norm_equality_of_adjoint():
    rng = np.random.default_rng(4)
    for trial in range(8):
        op = random_operator(rng, 6, 5, weighted=trial % 2 == 0)
        na = operator_norm(op)
        nb = operator_norm(adjoint(op))
        assert abs(na - nb) <= 1e-8 * na


# -- consistency report --------------------------------------------------------

def test_consistency_check_constructed_adjoint():
    rng = np.random.default_rng(5)
    op = random_operator(rng, 4, 3, weighted=True)
    report = adjoint_consistency_check(op, trials=100, seed=9)
    assert report.trials == 100
    assert report.max_defect <= 1e-12


def test_consistency_check_detects_corruption():
    rng = np.random.default_rng(6)
    op = random_operator(rng, 4, 3)
    bad = adjoint(op).entries.copy()
    bad[0, 0] += 1.0
    corrupt = DenseOperator(op.codomain, op.domain, bad)
    report = adjoint_consistency_check(op, trials=50, seed=9, adjoint_op=corrupt)
    assert report.max_defect > 1e-3


def test_consistency_check_zero_operator():
    op = matrix_operator(np.zeros((3, 2)))
    assert adjoint_consistency_check(op, trials=5, seed=1).max_defect == 0.0


def test_consistency_check_deterministic():
    rng = np.random.default_rng(7)
    op = random_operator(rng, 5, 5, weighted=True)
    r1 = adjoint_consistency_check(op, trials=30, seed=13)
    r2 = adjoint_consistency_check(op, trials=30, seed=13)
    assert r1.max_defect == r2.max_defect


def test_consistency_check_refuses_overflowing_operator():
    # the norm overflows; a defect of 0.0 would certify garbage
    op = matrix_operator(np.full((2, 2), 1e308))
    with pytest.raises(NumericalError, match="overflows"):
        adjoint_consistency_check(op, trials=100, seed=42)
    # finite norms, but (A u)^T M_cod overflows inside the inner product
    op = matrix_operator(np.full((2, 2), 1e10), None, np.diag([1e300, 1e300]))
    with pytest.raises(NumericalError, match="not finite"):
        adjoint_consistency_check(op, trials=100, seed=42,
                                  adjoint_op=matrix_operator(np.zeros((2, 2))))


def test_consistency_check_rejects_bad_trials():
    op = matrix_operator(np.eye(2))
    with pytest.raises(ValueError):
        adjoint_consistency_check(op, trials=0)


# -- orthonormalization --------------------------------------------------------

def test_orthonormalize_hand_case():
    basis = orthonormalize([np.array([1.0, 1.0]), np.array([1.0, 0.0])], euclidean(2))
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(basis[:, 0], [s, s], atol=1e-12)
    np.testing.assert_allclose(basis[:, 1], [s, -s], atol=1e-12)


def test_orthonormalize_keeps_orthonormal_input():
    basis = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])], euclidean(2))
    np.testing.assert_allclose(basis, np.eye(2), atol=1e-14)


def test_orthonormalize_monomials_gives_legendre_directions():
    # L2(-1, 1) quadrature at midpoints; metric h*I approximates the integral
    m = 2000
    h = 2.0 / m
    x = -1.0 + (np.arange(m) + 0.5) * h
    space = InnerProductSpace(m, np.diag(np.full(m, h)))
    basis = orthonormalize([np.ones(m), x, x ** 2], space)
    legendre = [np.ones(m), x, 0.5 * (3.0 * x ** 2 - 1.0)]
    for j, ref in enumerate(legendre):
        ref_unit = ref / space.norm(ref)
        align = abs(space.inner(basis[:, j], ref_unit))
        assert align >= 1.0 - 1e-8
    # pairwise inner products are the identity to 1e-10
    gram = np.array([[space.inner(basis[:, i], basis[:, j]) for j in range(3)]
                     for i in range(3)])
    assert np.abs(gram - np.eye(3)).max() <= 1e-10


def test_orthonormalize_rejects_dependent_input():
    with pytest.raises(ValueError, match="dependent"):
        orthonormalize([np.array([1.0, 2.0]), np.array([2.0, 4.0])], euclidean(2))


def test_orthonormalize_rejects_more_vectors_than_dimension():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="dependent"):
        orthonormalize([rng.standard_normal(3) for _ in range(4)], euclidean(3))


def test_orthonormalize_twelve_monomials_nested_and_orthonormal():
    m = 2000
    h = 2.0 / m
    x = -1.0 + (np.arange(m) + 0.5) * h
    space = InnerProductSpace(m, np.diag(np.full(m, h)))
    vecs = np.column_stack([x ** k for k in range(12)])
    basis = orthonormalize(list(vecs.T), space)
    # h * (Q^T Q) rather than Q^T (M Q): the dense product's 2000-term sums
    # alone are off by about 5e-14 on the diagonal
    gram = h * (basis.T @ basis)
    assert np.abs(gram - np.eye(12)).max() <= 1e-14
    # the first j columns span the first j inputs: the change of basis
    # V = Q T is upper triangular with a positive diagonal
    t = basis.T @ space.metric @ vecs
    assert np.abs(np.tril(t, -1)).max() <= 1e-13 * np.abs(t).max()
    assert np.all(np.diag(t) > 0.0)


def test_orthonormalize_span_preserved():
    rng = np.random.default_rng(8)
    vecs = [rng.standard_normal(5) for _ in range(3)]
    basis = orthonormalize(vecs, euclidean(5))
    # every input vector is reproduced by its expansion in the basis
    for v in vecs:
        rec = basis @ (basis.T @ v)
        np.testing.assert_allclose(rec, v, atol=1e-10)


# -- JSON record ---------------------------------------------------------------

def test_operator_record_round_trip():
    rng = np.random.default_rng(9)
    op = random_operator(rng, 3, 4, weighted=True)
    rec = operator_to_record(op)
    clone = operator_from_record(rec)
    np.testing.assert_array_equal(clone.entries, op.entries)
    np.testing.assert_array_equal(clone.domain.metric, op.domain.metric)
    np.testing.assert_array_equal(clone.codomain.metric, op.codomain.metric)


def test_operator_record_defaults_identity_metric():
    rec = {"rows": 2, "cols": 2, "entries": [1.0, 0.0, 0.0, 1.0]}
    op = operator_from_record(rec)
    assert op.domain.is_euclidean and op.codomain.is_euclidean


def test_operator_record_rejects_bad_entries():
    with pytest.raises(ValueError):
        operator_from_record({"rows": 2, "cols": 2, "entries": [1.0]})


def test_lcg_is_reproducible():
    a = Lcg(42).floats(6)
    b = Lcg(42).floats(6)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)
