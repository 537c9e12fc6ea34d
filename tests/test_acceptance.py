"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import time

import numpy as np

from adjointkit import (adjoint_consistency_check, fundamental_subspaces,
                        matrix_operator, orthonormalize, solvability_check,
                        svd)
from adjointkit.errors import NumericalError
from adjointkit.leastsq import (instability_demo, integration_operator,
                                tikhonov_solve)
from adjointkit.network import (NetworkSpec, as_constrained_problem,
                                flatten_parameters, forward, init_parameters,
                                loss, loss_gradients, unflatten_parameters)
from adjointkit.optim import fd_gradient_check, gradient_descent, reduced_gradient
from adjointkit.pde import (AdvectionControlProblem, EllipticInversionProblem,
                            build_advection_problem, make_elliptic_demo)
from adjointkit.rand import Lcg
from adjointkit.selftest import seeded_operator
from adjointkit.stability import (SeirsModel, hurwitz_check, is_spd, linearize,
                                  lyapunov_solve, r0)
from adjointkit.sturm import (constant_coefficient_problem,
                              dirichlet_eigenvalue_formula, discretize,
                              solve_modes)
from reference import dense_state_jacobian


def report(number, description):
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_adjoint_contract():
    start = time.monotonic()
    rng = Lcg(42)
    worst = 0.0
    for index in range(100):
        op = seeded_operator(rng, weighted=index % 2 == 1)
        result = adjoint_consistency_check(op, trials=20, seed=1000 + index)
        worst = max(worst, result.max_defect)
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed < 1.0
    report(1, f"100 operators, max normalized defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_reference_svd():
    op = matrix_operator([[2.0, 0.0, 1.0], [2.0, 4.0 / 3.0, 1.0 / 3.0]])
    dec = svd(op)
    np.testing.assert_allclose(dec.sigma, [3.1306, 1.0433], atol=5e-5)
    # four-decimal reference factors; singular vectors are determined only
    # up to column sign, so each column is compared against +-reference
    right = np.array([[0.9023, 0.1385, -0.4082],
                      [0.3162, -0.8564, 0.4082],
                      [0.2931, 0.4974, 0.8165]])
    left = np.array([[0.6701, 0.7423],
                     [0.7423, -0.6701]])
    for j in range(3):
        col, ref = dec.right_vectors[:, j], right[:, j]
        assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-3
    for j in range(2):
        col, ref = dec.left_vectors[:, j], left[:, j]
        assert min(np.abs(col - ref).max(), np.abs(col + ref).max()) <= 1e-3
    report(2, f"sigma = {dec.sigma[0]:.4f}, {dec.sigma[1]:.4f}; factors match "
              "to 1e-3 up to column sign")


def test_criterion_3_solvability():
    op = matrix_operator([[1.0, 2.0], [1.0, 2.0]])
    verdict = solvability_check(op, np.array([1.0, 0.0]), tol=1e-8)
    assert not verdict["solvable"]
    assert abs(verdict["defect"] - 1.0 / np.sqrt(2.0)) <= 1e-10
    report(3, f"defect = {verdict['defect']:.12f} = 1/sqrt(2), flagged unsolvable")


def test_criterion_4_rank_nullity_and_orthogonality():
    rng = np.random.default_rng(4242)
    for trial in range(50):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 10))
        r = int(rng.integers(0, min(m, n) + 1))
        entries = (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                   if r else np.zeros((m, n)))
        op = matrix_operator(entries)
        dec = svd(op)
        bases = fundamental_subspaces(dec)
        assert dec.rank == r
        assert bases.null_a.shape[1] == n - r
        assert bases.null_astar.shape[1] == m - r
        for j in range(r):
            for k in range(m - r):
                assert abs(bases.range_a[:, j] @ bases.null_astar[:, k]) <= 1e-10
            for k in range(n - r):
                assert abs(bases.range_astar[:, j] @ bases.null_a[:, k]) <= 1e-10
    report(4, "50 matrices: dim N(A) + dim R(A) = n exactly; subspace "
              "orthogonality within 1e-10")


def test_criterion_5_ill_posedness_and_tikhonov():
    op = integration_operator(64)
    dec = svd(op)
    grid = (np.arange(64) + 0.5) / 64
    y = op.matvec(np.sin(np.pi * grid))
    amp_head = instability_demo(op, y, 1, 1e-3)
    amp_tail = instability_demo(op, y, dec.rank, 1e-3)
    assert amp_tail >= 10.0 * amp_head
    noise = 1e-3 * dec.left_vectors[:, dec.rank - 1]
    clean = tikhonov_solve(op, y, 1e-4)
    noisy = tikhonov_solve(op, y + noise, 1e-4)
    growth = op.domain.norm(noisy.x) / op.domain.norm(clean.x)
    assert growth <= 2.0
    report(5, f"amplification ratio {amp_tail / amp_head:.1f}x >= 10x; "
              f"regularized growth {growth:.3f} <= 2")


def test_criterion_6_backprop():
    start = time.monotonic()
    shapes = [(4, 8, 8, 3), (2, 3, 1), (3, 4, 2), (4, 4, 3), (2, 6, 2),
              (3, 3, 3, 2), (1, 5, 1), (2, 4, 4, 1), (4, 8, 3), (2, 2)]
    rng = np.random.default_rng(66)
    worst_fd = 0.0
    worst_eq = 0.0
    for seed, sizes in enumerate(shapes):
        spec = NetworkSpec(tuple(sizes))
        params = init_parameters(spec, seed=seed)
        x = rng.uniform(-1.0, 1.0, sizes[0])
        a_obs = rng.uniform(-1.0, 1.0, sizes[-1])
        _, grads = loss_gradients(spec, params, x, a_obs)
        flat = flatten_parameters(grads)
        # central differences over every scalar parameter
        z0 = flatten_parameters(params)
        fd = np.zeros_like(z0)
        h = 1e-5
        for j in range(z0.size):
            zp, zm = z0.copy(), z0.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (loss(forward(spec, unflatten_parameters(spec, zp), x), a_obs)
                     - loss(forward(spec, unflatten_parameters(spec, zm), x),
                            a_obs)) / (2.0 * h)
        worst_fd = max(worst_fd, np.abs(flat - fd).max()
                       / max(np.abs(fd).max(), 1e-12))
        problem = as_constrained_problem(spec, x, a_obs)
        generic = reduced_gradient(problem, z0).gradient
        worst_eq = max(worst_eq, np.abs(generic - flat).max())
    elapsed = time.monotonic() - start
    assert worst_fd <= 1e-6
    assert worst_eq <= 1e-13
    assert elapsed < 5.0
    report(6, f"10 nets: FD error {worst_fd:.2e} <= 1e-6, route gap "
              f"{worst_eq:.2e} <= 1e-13, {elapsed:.2f}s")


def lyapunov_quadrature(a, q, t_final=40.0, dt=2e-3):
    """P = integral exp(A^T t) Q exp(A t) dt by RK4 on the augmented system
    S' = A^T S + S A, P' = S, so the quadrature error is O(dt^4)."""
    s = np.array(q, dtype=float)
    p = np.zeros_like(s)

    def rhs(state):
        mat, _ = state
        return a.T @ mat + mat @ a, mat

    for _ in range(int(round(t_final / dt))):
        k1s, k1p = rhs((s, p))
        k2s, k2p = rhs((s + 0.5 * dt * k1s, p + 0.5 * dt * k1p))
        k3s, k3p = rhs((s + 0.5 * dt * k2s, p + 0.5 * dt * k2p))
        k4s, k4p = rhs((s + dt * k3s, p + dt * k3p))
        p = p + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
        s = s + (dt / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
    return p


def test_criterion_7_hurwitz_lyapunov_equivalence():
    rng = np.random.default_rng(77)
    disagreements = 0
    residual_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 6))
        eigs = -rng.uniform(0.3, 3.0, n)
        if trial % 2 == 1:
            eigs[rng.integers(0, n)] = rng.uniform(0.3, 2.0)
        q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q_mat @ (np.diag(eigs) + np.triu(rng.standard_normal((n, n)), 1)) @ q_mat.T
        tabulated = hurwitz_check(a).hurwitz
        try:
            p = lyapunov_solve(a, np.eye(n))
            certified = is_spd(p)
            residual = np.linalg.norm(p @ a + a.T @ p + np.eye(n))
            residual_ok = residual_ok and residual <= 1e-9 * np.sqrt(n)
        except NumericalError:
            certified = False
        disagreements += int(tabulated != certified)
    assert disagreements == 0
    assert residual_ok
    cases = [np.array([[0.0, 1.0], [-1.0, -1.0]]),
             -np.eye(2),
             np.diag([-1.0, -2.0]),
             np.array([[-2.0, 0.5], [0.3, -1.0]]),
             np.array([[-1.0, 1.0, 0.0], [0.0, -1.5, 1.0], [0.0, 0.0, -2.0]])]
    worst = 0.0
    for a in cases:
        p = lyapunov_solve(a, np.eye(a.shape[0]))
        worst = max(worst, np.abs(p - lyapunov_quadrature(a, np.eye(a.shape[0]))).max())
    assert worst <= 1e-6
    report(7, f"50 matrices, 0 disagreements; residuals <= 1e-9 |Q|; "
              f"quadrature-oracle gap {worst:.1e} <= 1e-6 on 5 cases")


def test_criterion_8_reproduction_number():
    worst = 0.0
    for beta, gamma in [(0.4, 0.25), (1.2, 0.3), (0.05, 0.5), (0.9, 0.9),
                        (2.4, 0.6)]:
        sigma = 0.7
        f = np.array([[0.0, beta], [0.0, 0.0]])
        v = np.array([[sigma, 0.0], [-sigma, gamma]])
        worst = max(worst, abs(r0(f, v) - beta / gamma))
    assert worst <= 1e-8
    for beta, expect_hurwitz in ((0.2, True), (0.28, True), (0.4, False),
                                 (0.6, False)):
        model = SeirsModel(beta=beta)
        f, v = model.next_generation_split()
        value = r0(f, v)
        a = linearize(model, model.disease_free_equilibrium)
        verdict = hurwitz_check(a).hurwitz
        assert (value < 1.0) == expect_hurwitz
        assert verdict == expect_hurwitz
    report(8, f"R0 = beta/gamma within {worst:.1e}; R0 <-> Hurwitz consistent "
              "on the SEIRS demo")


def test_criterion_9_sturm_liouville():
    n = 63
    disc = discretize(constant_coefficient_problem("dirichlet", n=n))
    modes = solve_modes(disc, n)
    worst_eig = 0.0
    for mode in range(1, n + 1):
        exact = dirichlet_eigenvalue_formula(mode, disc.h)
        worst_eig = max(worst_eig, abs(modes.eigenvalues[mode - 1] - exact) / exact)
    assert worst_eig <= 1e-9
    worst_mode = 0.0
    for mode in range(1, 6):
        reference = np.sqrt(2.0) * np.sin(mode * np.pi * disc.grid)
        col = modes.modes[:, mode - 1]
        worst_mode = max(worst_mode, min(disc.weighted_norm(col - reference),
                                         disc.weighted_norm(col + reference)))
    assert worst_mode <= 1e-3
    ratios = []
    errors = {}
    for grid_n in (31, 63, 127):
        d = discretize(constant_coefficient_problem("dirichlet", n=grid_n))
        lam = solve_modes(d, 3).eigenvalues
        errors[grid_n] = [abs(lam[m] - ((m + 1) * np.pi) ** 2) for m in range(3)]
    for m in range(3):
        ratios.append(errors[31][m] / errors[63][m])
        ratios.append(errors[63][m] / errors[127][m])
    assert all(0.8 * 4.0 <= ratio <= 1.2 * 4.0 for ratio in ratios)
    report(9, f"eigenvalue error {worst_eig:.1e} <= 1e-9; mode error "
              f"{worst_mode:.1e} <= 1e-3; halving ratios within 4 +- 20%")


def test_criterion_10_pde_control():
    start = time.monotonic()
    rng = np.random.default_rng(10)
    worst_adv = 0.0
    for _ in range(10):
        beta = float(rng.uniform(0.2, 3.0))
        z = float(rng.uniform(-2.0, 2.0))
        problem = build_advection_problem(int(rng.integers(4, 32)), beta)
        grad = reduced_gradient(problem, np.array([z])).gradient[0]
        worst_adv = max(worst_adv, abs(grad - z / beta ** 2))
    assert worst_adv <= 1e-10
    elliptic, _ = make_elliptic_demo(31)
    worst_fd = 0.0
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, elliptic.control_dim)
        worst_fd = max(worst_fd, fd_gradient_check(elliptic, z,
                                                   steps=(1e-5,))[1e-5])
    assert worst_fd <= 1e-5
    result = gradient_descent(elliptic, np.zeros(elliptic.control_dim),
                              step=100.0, iters=200, tol=0.0)
    f0 = result.history[0][1]
    f_end = result.history[-1][1]
    assert f_end <= f0 / 100.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(10, f"advection gradient gap {worst_adv:.1e} <= 1e-10; elliptic FD "
               f"{worst_fd:.1e} <= 1e-5; descent {f0 / f_end:.0f}x in 200 "
               f"iterations, {elapsed:.2f}s")


def infsup(problem, z, domain_weights, codomain_weights):
    """``sigma_min`` and ``dim N(A*)`` of the state Jacobian at ``(solve_forward(z), z)``,
    between the diagonal metrics given by the two weight vectors."""
    jac = dense_state_jacobian(problem, problem.solve_forward(z), z)
    dec = svd(matrix_operator(jac, np.diag(domain_weights), np.diag(codomain_weights)))
    return float(dec.sigma[-1]), fundamental_subspaces(dec).null_astar.shape[1]


def test_criterion_11_discrete_substitutes():
    # Banach-Necas-Babuska: each problem is well posed when its inf-sup constant
    # (sigma_min between the discrete L2 norms) stays away from zero as the mesh
    # refines and N(A*) = {0}; a singular operator has no such constant
    singular = svd(matrix_operator([[1.0, 2.0], [1.0, 2.0]])).sigma[-1]
    assert singular <= 1e-10
    # elliptic: K = D^T D / h^2 at z = 0, metric h I on both sides; sigma_min is
    # the first discrete Dirichlet eigenvalue and tends to pi^2 at O(h^2)
    sigmas = []
    for n in (15, 31, 63, 127, 255):
        problem = EllipticInversionProblem(n, 0.0, 1.0, np.zeros(n))
        h_weights = np.full(n, problem.h)
        sigma, null_astar = infsup(problem, np.zeros(n + 1), h_weights, h_weights)
        exact = dirichlet_eigenvalue_formula(1, problem.h)
        assert abs(sigma - exact) <= 1e-11 * exact
        assert null_astar == 0
        sigmas.append(sigma)
    elliptic = sigmas[0]  # n = 15
    assert elliptic > 0.0
    elliptic_gaps = np.pi ** 2 - np.array(sigmas)
    assert np.all(np.abs(elliptic_gaps[:-1] / elliptic_gaps[1:] - 4.0) <= 0.1)
    # hyperbolic: the upwind u -> (beta u(0), beta u') from the trapezoid-weighted
    # nodes to weight 1 on the inflow row and h per cell; sigma_min / beta tends at
    # O(h^2) to the root k of k tan k = 1 (-u'' = lambda u, u'(1) = 0, u'(0) = u(0))
    k = 0.8603335890193541
    assert abs(k * np.tan(k) - 1.0) <= 1e-12
    for beta in (0.5, 1.0, 2.0):
        sigmas = []
        for n in (16, 32, 64, 128, 256):
            problem = AdvectionControlProblem(n, beta)
            nodes = np.full(n + 1, problem.h)
            nodes[0] = nodes[-1] = 0.5 * problem.h
            rows = np.full(n + 1, problem.h)
            rows[0] = 1.0
            sigma, null_astar = infsup(problem, np.ones(1), nodes, rows)
            assert null_astar == 0
            sigmas.append(sigma)
        advection_gaps = np.array(sigmas) / beta - k
        assert np.all(np.abs(advection_gaps[:-1] / advection_gaps[1:] - 4.0) <= 0.1)
    # metric Gram-Schmidt on sampled monomials recovers the Legendre
    # directions, the L2 machinery behind the criterion-2 matrix
    m = 400
    h = 2.0 / m
    x = -1.0 + (np.arange(m) + 0.5) * h
    from adjointkit import InnerProductSpace
    space = InnerProductSpace(m, np.diag(np.full(m, h)))
    basis = orthonormalize([np.ones(m), x, x ** 2], space)
    legendre2 = 0.5 * (3.0 * x ** 2 - 1.0)
    align = abs(space.inner(basis[:, 2], legendre2 / space.norm(legendre2)))
    assert align >= 1.0 - 1e-6
    report(11, f"inf-sup: sigma_min = {singular:.1e} on the singular 2x2; elliptic "
               f"{elliptic:.3f} at n = 15, pi^2 gap {elliptic_gaps[-1]:.1e} at n = 255; "
               f"advection k gap {advection_gaps[-1]:.1e} at n = 256; N(A*) = {{0}}")
