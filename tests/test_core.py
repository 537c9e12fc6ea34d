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
from adjointkit.rand import Lcg
from adjointkit.spectral import svd
from reference import bits, json_numbers_by_object_array


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
    # Euclidean spaces take the general Cholesky route; with L = I every
    # solve and product must give back the input's values, not just close ones
    rng = np.random.default_rng(1000 * m + n)
    op = random_operator(rng, m, n)
    space = op.codomain
    x, y = rng.standard_normal((2, m))
    coords = rng.standard_normal((m, 3))
    q = np.linalg.qr(rng.standard_normal((m, min(m, 3))))[0]
    assert np.array_equal(op.whitened(), op.entries)
    assert np.array_equal(adjoint(op).entries, op.entries.T)
    assert np.array_equal(space.inner(x, y), x @ y)
    assert np.array_equal(space.apply_inverse_metric(x), x)
    assert np.array_equal(space.unwhiten(coords), coords)
    assert np.array_equal(orthogonal_projector(q, space).entries, q @ q.T)


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


def per_pair_defects(op, b, trials, seed):
    """One pair at a time: row k of the stream is u_k, then v_k."""
    rows = Lcg(seed).matrix(trials, op.domain.dim + op.codomain.dim)
    scale = max(operator_norm(op), operator_norm(b))
    out = []
    for row in rows:
        u, v = row[:op.domain.dim], row[op.domain.dim:]
        u, v = u / op.domain.norm(u), v / op.codomain.norm(v)
        lhs = op.codomain.inner(op.matvec(u), v)
        rhs = op.domain.inner(u, b.matvec(v))
        out.append(abs(lhs - rhs) / scale)
    return out


def test_consistency_check_matches_per_pair_loop():
    # 300 trials span two probe blocks; a corrupted adjoint gives O(1) defects
    rng = np.random.default_rng(8)
    op = random_operator(rng, 5, 4, weighted=True)
    bad = adjoint(op).entries + 0.1 * rng.standard_normal((4, 5))
    corrupt = DenseOperator(op.codomain, op.domain, bad)
    for trials in (1, 255, 256, 257, 300):
        report = adjoint_consistency_check(op, trials=trials, seed=3, adjoint_op=corrupt)
        expected = max(per_pair_defects(op, corrupt, trials, seed=3))
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
