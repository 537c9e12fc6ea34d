import copy
import tracemalloc
import warnings

import numpy as np
import pytest

from adjointkit import (InnerProductSpace, adjoint, adjoint_consistency_check,
                        matrix_operator, operator_from_record,
                        operator_norm, operator_to_record, orthogonal_projector,
                        orthonormalize)
from adjointkit.core import DenseOperator, json_numbers
from adjointkit.errors import NumericalError
from adjointkit.leastsq import integration_operator
from adjointkit.rand import Lcg
from adjointkit.spectral import svd
from reference import adjoint_defect_by_pairs, bits, json_numbers_by_object_array


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
        DenseOperator(InnerProductSpace(2), InnerProductSpace(2), [[1.0, np.inf], [0.0, 1.0]])


@pytest.mark.parametrize("n", [1, 2, 5, 48])
def test_euclidean_space_is_the_explicit_identity_metric(n):
    # without a metric the identity is stored as metric and factor, unfactored
    plain, explicit = InnerProductSpace(n), InnerProductSpace(n, np.eye(n))
    for space in (plain, explicit):
        assert space.is_euclidean
        assert not space.metric.flags.writeable
        assert not space.cholesky.flags.writeable
    assert np.array_equal(bits(plain.metric), bits(explicit.metric))
    assert np.array_equal(bits(plain.cholesky), bits(explicit.cholesky))


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (6, 4), (48, 48)])
def test_default_metrics_give_the_bits_of_explicit_identities(m, n):
    a = np.random.default_rng([62, m, n]).standard_normal((m, n))
    plain, explicit = matrix_operator(a), matrix_operator(a, np.eye(n), np.eye(m))
    got, want = svd(plain), svd(explicit)
    assert got.rank == want.rank
    for field in ("sigma", "right_vectors", "left_vectors"):
        assert np.array_equal(bits(getattr(got, field)), bits(getattr(want, field)))
    assert np.array_equal(bits(adjoint(plain).entries), bits(adjoint(explicit).entries))
    assert np.array_equal(bits(plain.whitened()), bits(explicit.whitened()))
    assert bits(operator_norm(plain)) == bits(operator_norm(explicit))


def test_inner_examples():
    # orthogonal canonical vectors
    assert InnerProductSpace(2).inner([1.0, 0.0], [0.0, 1.0]) == 0.0
    # hand expansion 2*1*1 + 3*1*1
    weighted = InnerProductSpace(2, [[2.0, 0.0], [0.0, 3.0]])
    assert weighted.inner([1.0, 1.0], [1.0, 1.0]) == pytest.approx(5.0)
    # squared norm
    assert InnerProductSpace(2).inner([3.0, 4.0], [3.0, 4.0]) == pytest.approx(25.0)


def test_inner_symmetry_and_dimension_error():
    space = InnerProductSpace(3, np.diag([1.0, 2.0, 5.0]))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    assert space.inner(x, y) == pytest.approx(space.inner(y, x))
    with pytest.raises(ValueError):
        space.inner([1.0, 2.0], y)


# -- adjoint -------------------------------------------------------------------

def test_euclidean_adjoint_is_transpose():
    op = matrix_operator([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(adjoint(op).entries, [[1.0, 3.0], [2.0, 4.0]])


@pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (5, 1), (3, 7), (9, 6), (12, 12), (39, 20)])
def test_identity_metric_maps_return_their_input_exactly(m, n):
    # Euclidean spaces take the diagonal route with L = I: every map must
    # give back the input's values, not just close ones
    rng = np.random.default_rng(1000 * m + n)
    op = random_operator(rng, m, n)
    space = op.codomain
    x, y = rng.standard_normal((2, m))
    coords = rng.standard_normal((m, 3))
    q = np.linalg.qr(rng.standard_normal((m, min(m, 3))))[0]
    assert np.array_equal(bits(op.whitened()), bits(op.entries))
    assert np.array_equal(adjoint(op).entries, op.entries.T)
    assert np.array_equal(space.inner(x, y), x @ y)
    assert np.array_equal(bits(space.apply_inverse_metric(x)), bits(x))
    assert np.array_equal(bits(space.unwhiten(coords)), bits(coords))
    assert np.array_equal(orthogonal_projector(q, space).entries, q @ q.T)


def lu_route(space):
    """``space`` with its diagonal path off, so every map goes through ``np.linalg.solve``."""
    twin = copy.copy(space)
    twin._pivots = twin._recip = None
    return twin


def diagonal_metric(kind, n, rng):
    if kind == "identity":
        return np.eye(n)
    if kind == "h":
        return np.eye(n) / (n + 1)
    return np.diag(rng.uniform(0.05, 20.0, n))


DIAGONAL_KINDS = ["identity", "h", "random"]


@pytest.mark.parametrize("kind", DIAGONAL_KINDS)
@pytest.mark.parametrize("n", [1, 2, 5, 48, 64])
def test_diagonal_maps_have_the_bits_of_the_solves(kind, n):
    # one or several right-hand sides, each against np.linalg.solve on the stored factor
    rng = np.random.default_rng([31, n, DIAGONAL_KINDS.index(kind)])
    space = InnerProductSpace(n, diagonal_metric(kind, n, rng))
    l = space.cholesky
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 1)),
                rng.standard_normal((n, 3)), rng.standard_normal((n, n)),
                np.asfortranarray(rng.standard_normal((n, n + 2)))):
        for got, want in ((space.unwhiten(rhs), np.linalg.solve(l.T, rhs)),
                          (space.apply_inverse_metric(rhs),
                           np.linalg.solve(l.T, np.linalg.solve(l, rhs)))):
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("kind", DIAGONAL_KINDS)
@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (5, 5), (48, 48), (64, 5), (2, 64)])
def test_diagonal_metric_results_have_the_bits_of_the_solve_route(kind, m, n):
    rng = np.random.default_rng([32, m, n, DIAGONAL_KINDS.index(kind)])
    fast = matrix_operator(rng.standard_normal((m, n)), diagonal_metric(kind, n, rng),
                           diagonal_metric(kind, m, rng))
    slow = DenseOperator(lu_route(fast.domain), lu_route(fast.codomain), fast.entries)
    l_dom, l_cod = fast.domain.cholesky, fast.codomain.cholesky
    pairs = [(fast.whitened(), l_cod.T @ np.linalg.solve(l_dom, fast.entries.T).T),
             (fast.whitened(), slow.whitened()),
             (adjoint(fast).entries, adjoint(slow).entries)]
    got, want = svd(fast), svd(slow)
    assert got.rank == want.rank
    pairs += [(getattr(got, f), getattr(want, f))
              for f in ("sigma", "right_vectors", "left_vectors")]
    vectors = list(rng.standard_normal((min(n, 4), n)))
    pairs.append((orthonormalize(vectors, fast.domain), orthonormalize(vectors, slow.domain)))
    for a, b in pairs:
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert np.array_equal(bits(a), bits(b))


def count_calls(monkeypatch, name):
    """A list that grows by one on each call of ``np.linalg.<name>``."""
    calls = []
    lapack = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return lapack(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.mark.parametrize("name, solves", [("integration48", 0), ("euclidean64", 0),
                                          ("diagonal3x2", 0), ("dense2x3", 7),
                                          ("dense-domain", 5), ("dense-codomain", 2)])
def test_the_factor_structure_not_the_size_decides_the_solves(monkeypatch, name, solves):
    # svd: whitening and two unwhitenings; constructed adjoint: two solves with L_dom;
    # the check whitens A (with L_dom) and its adjoint (with L_cod)
    rng = np.random.default_rng(33)
    b, c = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
    dense2, dense3 = b @ b.T + 2 * np.eye(2), c @ c.T + 3 * np.eye(3)
    op = {"integration48": lambda: integration_operator(48),
          "euclidean64": lambda: matrix_operator(rng.standard_normal((64, 64))),
          "diagonal3x2": lambda: matrix_operator(rng.standard_normal((3, 2)),
                                                 np.diag([1.0, 2.0]), np.diag([3.0, 1.0, 0.5])),
          "dense2x3": lambda: matrix_operator(rng.standard_normal((3, 2)), dense2, dense3),
          "dense-domain": lambda: matrix_operator(rng.standard_normal((3, 2)), dense2),
          "dense-codomain": lambda: matrix_operator(rng.standard_normal((3, 2)), None, dense3),
          }[name]()
    calls = count_calls(monkeypatch, "solve")
    svd(op)
    adjoint_consistency_check(op, trials=10)
    assert len(calls) == solves


@pytest.mark.parametrize("metric", [None, np.diag([2.0, 3.0]), [[2.0, 1.0], [1.0, 3.0]]])
def test_metric_maps_refuse_a_mismatched_length(metric):
    space = InnerProductSpace(2, metric)
    for bad in (np.ones(3), np.ones((3, 2))):
        with pytest.raises(ValueError):
            space.unwhiten(bad)
        with pytest.raises(ValueError):
            space.apply_inverse_metric(bad)


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


def test_operator_norm_is_sigma_1_of_the_one_factorization():
    # the same bits as svd's sigma_1, whichever of the two runs first
    rng = np.random.default_rng(41)
    for trial in range(12):
        m, n = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        norm_first = random_operator(rng, m, n, weighted=trial % 2 == 1)
        svd_first = DenseOperator(norm_first.domain, norm_first.codomain,
                                  norm_first.entries)
        nrm = operator_norm(norm_first)
        sigma = svd(svd_first).sigma
        assert bits(nrm) == bits(sigma[0]) == bits(svd(norm_first).sigma[0])
        assert bits(operator_norm(svd_first)) == bits(nrm)


def test_operator_norm_matches_the_spectral_norm_of_the_whitened_matrix():
    rng = np.random.default_rng(42)
    for m, n in [(1, 1), (3, 5), (6, 4), (12, 12), (36, 32)]:
        for _ in range(4):
            op = random_operator(rng, m, n, weighted=True)
            expected = np.linalg.norm(op.whitened(), 2)
            assert abs(operator_norm(op) - expected) <= 1e-14 * expected


def test_consistency_check_reads_the_cached_factorization(monkeypatch):
    # no SVD once the operator is factored, one on a fresh operator; a
    # supplied adjoint is factored for its own norm
    calls = count_calls(monkeypatch, "svd")
    rng = np.random.default_rng(43)
    op = random_operator(rng, 6, 5, weighted=True)
    svd(op)
    calls.clear()
    adjoint_consistency_check(op, trials=10)
    assert len(calls) == 0
    fresh = random_operator(rng, 6, 5, weighted=True)
    adjoint_consistency_check(fresh, trials=10)
    assert len(calls) == 1
    adjoint_consistency_check(fresh, trials=10, adjoint_op=adjoint(fresh))
    assert len(calls) == 2


def test_consistency_check_normalizes_by_the_larger_norm_of_a_supplied_adjoint():
    rng = np.random.default_rng(44)
    op = random_operator(rng, 4, 3, weighted=True)
    doubled = DenseOperator(op.codomain, op.domain, 2.0 * adjoint(op).entries)
    report = adjoint_consistency_check(op, trials=50, seed=5, adjoint_op=doubled)
    expected = adjoint_defect_by_pairs(op, doubled, 50, seed=5)
    assert operator_norm(doubled) == pytest.approx(2.0 * operator_norm(op), rel=1e-12)
    assert report.max_defect == pytest.approx(expected, rel=1e-12)


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
    # finite norms and whitened matrices, and W_A^T - W_B = 1.6e308 everywhere is
    # finite too, but its products with the probes pass the float range
    op = matrix_operator(np.full((2, 2), 8e307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite"):
            adjoint_consistency_check(op, trials=100, seed=42,
                                      adjoint_op=matrix_operator(-op.entries.T))


def test_consistency_check_rejects_bad_trials():
    op = matrix_operator(np.eye(2))
    with pytest.raises(ValueError):
        adjoint_consistency_check(op, trials=0)


def test_consistency_check_matches_per_pair_loop():
    # 300 trials span two probe blocks; a corrupted adjoint gives O(1) defects
    rng = np.random.default_rng(8)
    op = random_operator(rng, 5, 4, weighted=True)
    bad = adjoint(op).entries + 0.1 * rng.standard_normal((4, 5))
    corrupt = DenseOperator(op.codomain, op.domain, bad)
    for trials in (1, 255, 256, 257, 300):
        report = adjoint_consistency_check(op, trials=trials, seed=3, adjoint_op=corrupt)
        expected = adjoint_defect_by_pairs(op, corrupt, trials, seed=3)
        assert report.max_defect == pytest.approx(expected, rel=1e-12)


def test_consistency_check_memory_does_not_grow_with_trials():
    rng = np.random.default_rng(9)
    op = random_operator(rng, 48, 48, weighted=True)
    tracemalloc.start()
    try:
        report = adjoint_consistency_check(op, trials=20000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.max_defect <= 1e-12
    assert peak < 20e6


@pytest.mark.parametrize("dim, scale", [(1, 1e-20), (2, 1e-17)])
def test_consistency_check_tiny_spd_metric(dim, scale):
    # the metric norms of the probes are far below 1e-8, yet the metric is SPD
    op = matrix_operator(np.eye(dim), scale * np.eye(dim), scale * np.eye(dim))
    assert adjoint_consistency_check(op, trials=100, seed=42).max_defect <= 1e-12
    op = matrix_operator(np.eye(dim), scale * np.eye(dim))
    assert adjoint_consistency_check(op, trials=100, seed=42).max_defect <= 1e-12


def test_consistency_check_all_zero_probe_scores_zero():
    # inverting the first LCG step gives a seed whose first draw is exactly 0.0
    seed = 9773598507722681344
    assert Lcg(seed).floats(1)[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = adjoint_consistency_check(matrix_operator([[2.0]]), trials=5, seed=seed)
    assert np.isfinite(report.max_defect)
    assert report.max_defect <= 1e-12


def test_consistency_check_reads_a_rank_one_defect_at_full_size():
    # a unit probe pair sees about |E| / n of a rank-one E; the estimate sees
    # |E|_F = |E|, so a defect ten times selftest's 1e-10 gate is caught at n = 256
    rng = np.random.default_rng(45)
    a = rng.standard_normal((256, 256))
    op = matrix_operator(a)
    x, y = rng.standard_normal((2, 256))
    defect = 1e-9 * operator_norm(op) * np.outer(x, y) / (np.linalg.norm(x) * np.linalg.norm(y))
    report = adjoint_consistency_check(op, adjoint_op=matrix_operator(a.T + defect))
    assert report.max_defect >= 1e-10
    assert adjoint_consistency_check(op).max_defect <= 1e-12


@pytest.mark.parametrize("structure", ["single-entry", "spread"])
@pytest.mark.parametrize("n", [12, 48, 256])
def test_consistency_check_lower_tail_at_the_default_trials(n, structure):
    """Over 200 seeds at the default 100 trials, a rank-one defect reads at
    least 0.6 of its size, and 1 in the median.

    The 0.6 is empirical, not a derived probability bound: over 1000 seeds
    at each n the smallest reading was 0.63 (spread ``E``) and 0.77 (one
    entry), the largest 1.51.
    """
    if structure == "single-entry":
        x = y = np.eye(n)[0]
    else:
        x, y = np.random.default_rng(n).standard_normal((2, n))
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
    op, candidate = matrix_operator(np.eye(n)), matrix_operator(np.eye(n) + 1e-6 * np.outer(x, y))
    readings = np.array([adjoint_consistency_check(op, seed=seed, adjoint_op=candidate)
                         .max_defect for seed in range(200)]) / 1e-6
    assert readings.min() >= 0.6
    assert 0.9 <= np.median(readings) <= 1.1


# -- orthonormalization --------------------------------------------------------

def test_orthonormalize_hand_case():
    basis = orthonormalize([np.array([1.0, 1.0]), np.array([1.0, 0.0])], InnerProductSpace(2))
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(basis[:, 0], [s, s], atol=1e-12)
    np.testing.assert_allclose(basis[:, 1], [s, -s], atol=1e-12)


def test_orthonormalize_keeps_orthonormal_input():
    basis = orthonormalize([np.array([1.0, 0.0]), np.array([0.0, 1.0])], InnerProductSpace(2))
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
        orthonormalize([np.array([1.0, 2.0]), np.array([2.0, 4.0])], InnerProductSpace(2))


@pytest.mark.parametrize("scale", [1e-300, 1e200, 1e300])
def test_orthonormalize_independent_input_at_any_scale(scale):
    # the dependence test runs on W / max|W|, so its column norms cannot overflow
    basis = orthonormalize([[scale, scale / 1e10], [scale, -scale]], InnerProductSpace(2))
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(basis[:, 0], [1.0, 1e-10], rtol=1e-12)


@pytest.mark.parametrize("vectors, match", [([[0.0, 0.0]], "linearly dependent"),
                                            ([[np.nan, 1.0]], "non-finite entries"),
                                            ([[1.0, 0.0], [np.inf, 1.0]], "non-finite entries")],
                         ids=["zero", "nan", "inf"])
def test_orthonormalize_refuses_zero_and_non_finite_input(vectors, match):
    with pytest.raises(ValueError, match=match):
        orthonormalize(vectors, InnerProductSpace(2))


def test_orthonormalize_rejects_more_vectors_than_dimension():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError, match="dependent"):
        orthonormalize([rng.standard_normal(3) for _ in range(4)], InnerProductSpace(3))


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
    basis = orthonormalize(vecs, InnerProductSpace(5))
    # every input vector is reproduced by its expansion in the basis
    for v in vecs:
        rec = basis @ (basis.T @ v)
        np.testing.assert_allclose(rec, v, atol=1e-10)


def test_orthonormalize_dense_ill_conditioned_metric():
    # a non-diagonal Cholesky factor, kappa(M) = 1e6
    rng = np.random.default_rng(40)
    q = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    space = InnerProductSpace(40, (q * np.logspace(0, 6, 40)) @ q.T)
    vecs = rng.standard_normal((40, 8))
    basis = orthonormalize(list(vecs.T), space)
    assert np.abs(basis.T @ space.metric @ basis - np.eye(8)).max() <= 1e-12
    # (b_i, v_j) is the R of Gram-Schmidt: upper triangular, positive diagonal
    coeffs = basis.T @ space.metric @ vecs
    assert np.abs(np.tril(coeffs, -1)).max() <= 1e-13 * np.abs(coeffs).max()
    assert np.all(np.diag(coeffs) > 0.0)


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


def test_operator_record_accepts_integral_sizes():
    for rows, cols in ((2, 3), (2.0, 3.0), (np.int64(2), np.float64(3.0))):
        op = operator_from_record({"rows": rows, "cols": cols, "entries": [1.0] * 6})
        assert op.shape == (2, 3)


def test_operator_record_rejects_bad_entries():
    with pytest.raises(ValueError):
        operator_from_record({"rows": 2, "cols": 2, "entries": [1.0]})


NUMBER_LISTS = {
    "ints": [0, -3, 7, 2 ** 53 + 1, -(2 ** 63), 2 ** 64 + 1, 10 ** 300],
    "floats": [0.0, -0.0, 1.5, -2.5e-310, 1.7976931348623157e308, float("inf"), float("nan")],
    "mixed": [1, 2.5, -3, 1e-300, 2 ** 60 + 3, -0.0],
    "empty": [],
}


@pytest.mark.parametrize("values", NUMBER_LISTS.values(), ids=NUMBER_LISTS)
def test_json_numbers_one_pass_matches_the_object_array(values):
    got = json_numbers(values, "entries")
    want = json_numbers_by_object_array(values, "entries")
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(bits(got), bits(want))


def json_outcome(convert, values):
    try:
        out = convert(values, "entries")
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return out.shape, bits(out).tolist()


OTHER_JSON = {
    "string": [1.0, "1e3"],
    "bool": [2, True],
    "null": [1.0, None],
    "nested": [[1.0, 2.0], [3, 4.0]],
    "ragged": [[1.0, 2.0], [3.0]],
    "nested-string": [[1.0, "2"]],
    "object": [{"v": 1}, 2],
    "dict": {"a": 1},
    "scalar": 2.5,
    "none": None,
}


@pytest.mark.parametrize("values", OTHER_JSON.values(), ids=OTHER_JSON)
def test_json_numbers_other_input_keeps_the_object_array_outcome(values):
    assert (json_outcome(json_numbers, values)
            == json_outcome(json_numbers_by_object_array, values))


def test_json_null_reads_as_nan_and_fails_the_finiteness_gate():
    with pytest.raises(ValueError, match="non-finite"):
        operator_from_record({"rows": 1, "cols": 2, "entries": [1.0, None]})


@pytest.mark.parametrize("values", [[10 ** 400], [1.0, -(10 ** 400)], [[10 ** 400]],
                                    [None, 10 ** 400]])
def test_json_numbers_huge_integer_names_its_source(values):
    with pytest.raises(ValueError, match="^rhs.json: an integer is beyond the float range$"):
        json_numbers(values, "rhs.json")


def test_lcg_is_reproducible():
    a = Lcg(42).floats(6)
    b = Lcg(42).floats(6)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)
