import re

import numpy as np
import pytest

from adjointkit.sturm import (MAX_SL_NODES, SLProblem,
                              constant_coefficient_problem,
                              dirichlet_eigenvalue_formula, discretize,
                              fourier_coefficients, reconstruct, solve_modes,
                              truncation_error)

from reference import bits, sturm_stiffness_by_product


def sine_series_coefficient_oracle(n_mode, samples=200000):
    """High-resolution quadrature of integral x(1-x) sqrt(2) sin(n pi x) dx."""
    x = (np.arange(samples) + 0.5) / samples
    return np.sum(x * (1.0 - x) * np.sqrt(2.0) * np.sin(n_mode * np.pi * x)) / samples


# -- discretize -----------------------------------------------------------------

def test_dirichlet_textbook_stencil():
    disc = discretize(constant_coefficient_problem("dirichlet", n=3))
    h = 1.0 / 4.0
    expected = (1.0 / h ** 2) * np.array([[2.0, -1.0, 0.0],
                                          [-1.0, 2.0, -1.0],
                                          [0.0, -1.0, 2.0]])
    np.testing.assert_allclose(disc.stiffness, expected)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
def test_constant_coefficient_stiffness_is_exactly_d_transpose_d(bc):
    n = 9
    disc = discretize(constant_coefficient_problem(bc, n=n))
    eye = np.eye(n)
    zero = np.zeros((1, n))
    # row i of D holds the jump of v across flux interface i
    rows = {"dirichlet": np.vstack([zero, eye, zero]), "neumann": eye,
            "periodic": np.vstack([eye, eye[:1]])}[bc]
    d = np.diff(rows, axis=0)
    h = 1.0 / (n + 1) if bc == "dirichlet" else 1.0 / n
    assert disc.h == h
    assert np.array_equal(disc.stiffness, d.T @ d / h ** 2)


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
def test_stiffness_has_the_bits_of_the_dense_product(bc):
    # variable p, and q of both signs; the sizes cross 64 and 128 nodes
    for n in list(range(3, 40)) + [63, 64, 127, 255]:
        problem = SLProblem(p=lambda x: 1.0 + 0.7 * np.sin(7.0 * x) ** 2 + x / 3.0,
                            q=lambda x: np.cos(5.0 * x) - 0.3,
                            rho=lambda x: 1.0 + x, bc=bc, n=n)
        k = discretize(problem).stiffness
        expected = sturm_stiffness_by_product(problem)
        assert np.array_equal(bits(k), bits(expected)), n
        # off the band and the periodic corners every entry is +0.0, not -0.0
        offset = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        band = (offset <= 1) | ((offset == n - 1) & (bc == "periodic"))
        assert not np.any(bits(k)[~band]), n


def test_neumann_constants_in_null_space():
    disc = discretize(constant_coefficient_problem("neumann", n=16))
    np.testing.assert_allclose(disc.stiffness @ np.ones(16), np.zeros(16),
                               atol=1e-10)


def test_periodic_zero_row_sums():
    disc = discretize(constant_coefficient_problem("periodic", n=12))
    np.testing.assert_allclose(disc.stiffness.sum(axis=1), np.zeros(12),
                               atol=1e-10)


def test_stiffness_symmetric_with_variable_coefficients():
    problem = SLProblem(p=lambda x: 1.0 + 0.5 * x, q=lambda x: x,
                        rho=lambda x: 1.0 + x ** 2, bc="dirichlet", n=17)
    disc = discretize(problem)
    assert np.abs(disc.stiffness - disc.stiffness.T).max() <= 1e-12


def flux_interfaces(bc, n):
    """Node positions and the (left, right) node pair of each flux interface.

    ``None`` stands for a zero end value at x = 0 or x = 1 (dirichlet).
    """
    if bc == "dirichlet":
        nodes = [(j + 1) / (n + 1) for j in range(n)]
        return nodes, [(j - 1 if j > 0 else None, j if j < n else None)
                       for j in range(n + 1)]
    if bc == "neumann":
        return [(j + 0.5) / n for j in range(n)], [(j, j + 1) for j in range(n - 1)]
    return [j / n for j in range(n)], [(j, (j + 1) % n) for j in range(n)]


@pytest.mark.parametrize("bc", ["dirichlet", "neumann", "periodic"])
def test_stiffness_obeys_discrete_green_identity(bc):
    # v^T K v = sum p_half (jump of v)^2 / h^2 + sum q v^2, D built here
    def p(x):
        return 1.0 + 0.5 * np.sin(3.0 * x) ** 2

    def q(x):
        return 1.0 + x

    n = 23
    disc = discretize(SLProblem(p=p, q=q, rho=lambda x: 2.0 - x * x, bc=bc, n=n))
    nodes, pairs = flux_interfaces(bc, n)
    np.testing.assert_allclose(disc.grid, nodes, rtol=0, atol=1e-15)
    h = disc.h
    v = np.random.default_rng(71).standard_normal(n)
    flux = 0.0
    for left, right in pairs:
        x_left = 0.0 if left is None else nodes[left]
        x_right = 1.0 if right is None else nodes[right]
        if x_right < x_left:  # periodic wraparound: x = 0 is also x = 1
            x_right += 1.0
        jump = (0.0 if right is None else v[right]) - (0.0 if left is None else v[left])
        flux += p(0.5 * (x_left + x_right)) * jump ** 2
    expected = flux / h ** 2 + sum(q(x) * vi ** 2 for x, vi in zip(nodes, v))
    assert v @ disc.stiffness @ v == pytest.approx(expected, rel=1e-12)
    assert np.array_equal(disc.stiffness, disc.stiffness.T)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError, match="boundary"):
        SLProblem(p=lambda x: 1.0, q=lambda x: 0.0, rho=lambda x: 1.0, bc="robin")
    bad_rho = SLProblem(p=lambda x: 1.0, q=lambda x: 0.0,
                        rho=lambda x: x - 0.5, bc="dirichlet", n=9)
    with pytest.raises(ValueError, match="positive"):
        discretize(bad_rho)
    with pytest.raises(ValueError, match=re.escape(f"n must be in [3, {MAX_SL_NODES}], "
                                                   f"got {MAX_SL_NODES + 1}")):
        constant_coefficient_problem("dirichlet", n=MAX_SL_NODES + 1)


# -- solve_modes ------------------------------------------------------------------

def test_dirichlet_eigenvalues_match_discrete_formula():
    n = 63
    disc = discretize(constant_coefficient_problem("dirichlet", n=n))
    modes = solve_modes(disc, n)
    h = disc.h
    for mode in range(1, n + 1):
        exact = dirichlet_eigenvalue_formula(mode, h)
        assert abs(modes.eigenvalues[mode - 1] - exact) <= 1e-9 * exact


def test_dirichlet_modes_match_sine_samples():
    n = 63
    disc = discretize(constant_coefficient_problem("dirichlet", n=n))
    modes = solve_modes(disc, 5)
    for mode in range(1, 6):
        reference = np.sqrt(2.0) * np.sin(mode * np.pi * disc.grid)
        col = modes.modes[:, mode - 1]
        err = min(disc.weighted_norm(col - reference),
                  disc.weighted_norm(col + reference))
        assert err <= 1e-3


def test_neumann_first_mode_is_constant():
    disc = discretize(constant_coefficient_problem("neumann", n=32))
    modes = solve_modes(disc, 3)
    assert abs(modes.eigenvalues[0]) <= 1e-8
    col = modes.modes[:, 0]
    assert np.abs(col - col.mean()).max() <= 1e-10
    # normalized constant is +-1 in the h-weighted product
    assert abs(abs(col[0]) - 1.0) <= 1e-10


def test_modes_weight_orthonormal_and_residual_small():
    problem = SLProblem(p=lambda x: 1.0 + x, q=lambda x: 2.0,
                        rho=lambda x: 1.0 + 0.25 * np.sin(2 * np.pi * x),
                        bc="dirichlet", n=31)
    disc = discretize(problem)
    modes = solve_modes(disc, 31)
    gram = np.array([[disc.weighted_inner(modes.modes[:, i], modes.modes[:, j])
                      for j in range(10)] for i in range(10)])
    assert np.abs(gram - np.eye(10)).max() <= 1e-10
    knorm = np.linalg.norm(disc.stiffness)
    for j in range(31):
        resid = disc.stiffness @ modes.modes[:, j] \
            - modes.eigenvalues[j] * disc.rho * modes.modes[:, j]
        assert np.linalg.norm(resid) <= 1e-9 * knorm


def test_eigenvalue_convergence_is_second_order():
    # |lambda_n(h) - (n pi)^2| shrinks ~4x when h halves
    errors = {}
    for n in (31, 63, 127):
        disc = discretize(constant_coefficient_problem("dirichlet", n=n))
        modes = solve_modes(disc, 3)
        errors[n] = [abs(modes.eigenvalues[m] - ((m + 1) * np.pi) ** 2)
                     for m in range(3)]
    for m in range(3):
        ratio1 = errors[31][m] / errors[63][m]
        ratio2 = errors[63][m] / errors[127][m]
        assert 3.2 <= ratio1 <= 4.8
        assert 3.2 <= ratio2 <= 4.8


def test_periodic_eigenvalue_pairs_and_eigenspaces():
    n = 64
    disc = discretize(constant_coefficient_problem("periodic", n=n))
    modes = solve_modes(disc, 5)
    assert abs(modes.eigenvalues[0]) <= 1e-8
    # doubly degenerate pairs after the constant mode
    assert modes.eigenvalues[1] == pytest.approx(modes.eigenvalues[2], rel=1e-10)
    assert modes.eigenvalues[3] == pytest.approx(modes.eigenvalues[4], rel=1e-10)
    for pair_start, freq in ((1, 1), (3, 2)):
        span = modes.modes[:, pair_start:pair_start + 2]
        ref = np.column_stack([np.sqrt(2.0) * np.sin(2 * np.pi * freq * disc.grid),
                               np.sqrt(2.0) * np.cos(2 * np.pi * freq * disc.grid)])
        # compare images of the weighted projectors onto each pair
        weight = disc.h * disc.rho
        proj_num = span @ (span.T * weight)
        ref_gram = ref.T @ (ref * weight[:, None])
        ref_ortho = ref @ np.linalg.inv(np.linalg.cholesky(ref_gram).T)
        proj_ref = ref_ortho @ (ref_ortho.T * weight)
        assert np.abs(proj_num - proj_ref).max() <= 1e-3


def test_solve_modes_bounds_check():
    disc = discretize(constant_coefficient_problem("dirichlet", n=9))
    with pytest.raises(ValueError):
        solve_modes(disc, 10)


# -- fourier_coefficients / truncation -----------------------------------------------

def test_coefficients_of_a_single_mode():
    disc = discretize(constant_coefficient_problem("dirichlet", n=31))
    modes = solve_modes(disc, 31)
    coeffs = fourier_coefficients(modes.modes[:, 2], modes)
    expected = np.zeros(31)
    expected[2] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-10)


def test_coefficients_of_zero_function():
    disc = discretize(constant_coefficient_problem("dirichlet", n=15))
    modes = solve_modes(disc, 15)
    np.testing.assert_allclose(fourier_coefficients(np.zeros(15), modes),
                               np.zeros(15), atol=1e-15)


def test_full_reconstruction_reproduces_samples():
    rng = np.random.default_rng(60)
    disc = discretize(constant_coefficient_problem("dirichlet", n=31))
    modes = solve_modes(disc, 31)
    f = rng.standard_normal(31)
    coeffs = fourier_coefficients(f, modes)
    np.testing.assert_allclose(reconstruct(coeffs, modes), f, atol=1e-9)


def test_parabola_sine_coefficients_match_analytic_integral():
    n = 255
    disc = discretize(constant_coefficient_problem("dirichlet", n=n))
    modes = solve_modes(disc, 6)
    f = disc.grid * (1.0 - disc.grid)
    coeffs = fourier_coefficients(f, modes)
    for mode in (1, 3, 5):
        analytic = np.sqrt(2.0) * 4.0 / (mode * np.pi) ** 3
        oracle = sine_series_coefficient_oracle(mode)
        assert abs(oracle - analytic) <= 1e-8  # oracle agrees with closed form
        sign = np.sign(coeffs[mode - 1]) or 1.0
        assert abs(abs(coeffs[mode - 1]) - analytic) <= 1e-3 * analytic
        assert abs(sign * coeffs[mode - 1] - analytic) <= 1e-3 * analytic
    for mode in (2, 4, 6):
        assert abs(coeffs[mode - 1]) <= 1e-12


def test_parabola_coefficient_cubic_decay():
    disc = discretize(constant_coefficient_problem("dirichlet", n=127))
    modes = solve_modes(disc, 9)
    f = disc.grid * (1.0 - disc.grid)
    coeffs = np.abs(fourier_coefficients(f, modes))
    assert coeffs[2] == pytest.approx(coeffs[0] / 27.0, rel=1e-2)
    assert coeffs[4] == pytest.approx(coeffs[0] / 125.0, rel=1e-2)


def test_truncation_error_single_mode():
    disc = discretize(constant_coefficient_problem("dirichlet", n=31))
    modes = solve_modes(disc, 31)
    errors = truncation_error(modes.modes[:, 4], modes, [2, 5, 10])
    assert errors[0] > 0.9
    assert errors[1] <= 1e-12
    assert errors[2] <= 1e-12


def test_truncation_error_parabola_drops_tenfold():
    disc = discretize(constant_coefficient_problem("dirichlet", n=127))
    modes = solve_modes(disc, 127)
    f = disc.grid * (1.0 - disc.grid)
    errors = truncation_error(f, modes, [4, 16])
    assert errors[1] <= errors[0] / 10.0


def test_truncation_error_monotone_for_random_data():
    rng = np.random.default_rng(61)
    disc = discretize(constant_coefficient_problem("dirichlet", n=63))
    modes = solve_modes(disc, 63)
    f = rng.standard_normal(63)
    errors = truncation_error(f, modes, list(range(1, 64)))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))


def test_partial_sum_pythagoras():
    rng = np.random.default_rng(62)
    disc = discretize(constant_coefficient_problem("dirichlet", n=63))
    modes = solve_modes(disc, 63)
    f = rng.standard_normal(63)
    coeffs = fourier_coefficients(f, modes)
    total = disc.weighted_norm(f) ** 2
    for cut in (5, 20, 63):
        tail = disc.weighted_norm(f - reconstruct(coeffs, modes, cut)) ** 2
        head = float(np.sum(coeffs[:cut] ** 2))
        assert abs(total - head - tail) <= 1e-9 * total


def test_negative_term_count_rejected():
    disc = discretize(constant_coefficient_problem("dirichlet", n=9))
    modes = solve_modes(disc, 5)
    f = disc.grid * (1.0 - disc.grid)
    coeffs = fourier_coefficients(f, modes)
    # [-1] used to slice [:-1], the error of the four-term truncation
    for bad in (-1, -5):
        with pytest.raises(ValueError, match=re.escape(f"term count must be in [0, 5], "
                                                       f"got {bad}")):
            truncation_error(f, modes, [bad])
    with pytest.raises(ValueError, match=re.escape("term count must be in [0, 5], got -1")):
        reconstruct(coeffs, modes, n_terms=-1)
    # zero terms stays valid: the error is the whole norm
    assert truncation_error(f, modes, [0])[0] == disc.weighted_norm(f)


@pytest.mark.parametrize("bad", [3.0, np.ones(1), np.ones(11), np.ones((10, 1))])
def test_weighted_inner_and_norm_refuse_a_wrong_length(bad):
    # a scalar or a length-1 array used to broadcast and read as a constant function
    disc = discretize(constant_coefficient_problem("dirichlet", n=10))
    message = re.escape(f"expected a vector of length 10, got shape {np.shape(bad)}")
    with pytest.raises(ValueError, match=message):
        disc.weighted_norm(bad)
    for u, v in ((bad, np.ones(10)), (np.ones(10), bad)):
        with pytest.raises(ValueError, match=message):
            disc.weighted_inner(u, v)

