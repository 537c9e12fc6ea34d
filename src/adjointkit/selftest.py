"""Cross-module invariant suites behind the ``selftest`` subcommand.

Each suite returns (passed, detail) and is deterministic for a given
seed, so a failing run always reproduces.
"""

import numpy as np

from .core import DenseOperator, adjoint_consistency_check, matrix_operator
from .optim import fd_gradient_check
from .pde import build_advection_problem, make_elliptic_demo
from .rand import Lcg
from .spectral import svd
from .stability import jacobian_verdict
from .sturm import (constant_coefficient_problem, dirichlet_eigenvalue_formula,
                    discretize, solve_modes)


def seeded_operator(rng: Lcg, weighted: bool = False) -> DenseOperator:
    m = 1 + rng.next_u64() % 12
    n = 1 + rng.next_u64() % 9
    entries = rng.matrix(m, n)
    dom = cod = None
    if weighted:
        b = rng.matrix(n, n)
        dom = b.T @ b + n * np.eye(n)
        c = rng.matrix(m, m)
        cod = c.T @ c + m * np.eye(m)
    return matrix_operator(entries, dom, cod)


def adjoint_suite(seed: int = 42):
    """Normalized adjoint defect over 100 seeded operators with mixed metrics."""
    rng = Lcg(seed)
    worst = 0.0
    for index in range(100):
        op = seeded_operator(rng, weighted=index % 2 == 1)
        report = adjoint_consistency_check(op, trials=20, seed=seed + index)
        worst = max(worst, report.max_defect)
    return worst <= 1e-10, f"max normalized defect {worst:.3e} over 100 operators"


def gradient_suite(seed: int = 42):
    """Adjoint gradients against central differences on both PDE problems."""
    rng = Lcg(seed)
    worst = 0.0
    advection = build_advection_problem(12, beta=1.0 + rng.uniform())
    errs = fd_gradient_check(advection, np.array([rng.uniform() * 2.0 - 1.0]),
                             steps=(1e-5,))
    worst = max(worst, errs[1e-5])
    elliptic, _ = make_elliptic_demo(31)
    z = rng.floats(elliptic.control_dim, -0.5, 0.5)
    errs = fd_gradient_check(elliptic, z, steps=(1e-5,))
    worst = max(worst, errs[1e-5])
    return worst <= 1e-5, f"max relative gradient error {worst:.3e}"


def _spectrum_matrix(rng: Lcg, eigenvalues):
    n = len(eigenvalues)
    raw = rng.matrix(n, n)
    q, _ = np.linalg.qr(raw + np.eye(n))
    upper = np.triu(rng.matrix(n, n), 1)
    return q @ (np.diag(eigenvalues) + upper) @ q.T


def lyapunov_suite(seed: int = 42):
    """``jacobian_verdict`` against the built spectrum: odd-index matrices are unstable."""
    rng = Lcg(seed)
    disagreements = 0
    for index in range(50):
        n = 2 + rng.next_u64() % 4
        eigs = [-(0.3 + 2.0 * rng.uniform()) for _ in range(n)]
        unstable = index % 2 == 1
        if unstable:
            eigs[rng.next_u64() % n] = 0.3 + 1.5 * rng.uniform()
        disagreements += int(jacobian_verdict(_spectrum_matrix(rng, eigs)).hurwitz == unstable)
    return disagreements == 0, f"{disagreements} disagreements over 50 matrices"


def sturm_suite(seed: int = 42):
    """Dirichlet eigenvalues at n = 63 against the exact formula; ``seed`` is unused."""
    n = 63
    disc = discretize(constant_coefficient_problem("dirichlet", n=n))
    modes = solve_modes(disc, n)
    worst = 0.0
    for mode in range(1, n + 1):
        exact = dirichlet_eigenvalue_formula(mode, disc.h)
        worst = max(worst, abs(modes.eigenvalues[mode - 1] - exact) / exact)
    return worst <= 1e-9, f"max relative eigenvalue error {worst:.3e} at n={n}"


def svd_suite(seed: int = 42):
    """Reference 2x3 decomposition reproduced to four decimals; ``seed`` is unused."""
    op = matrix_operator([[2.0, 0.0, 1.0], [2.0, 4.0 / 3.0, 1.0 / 3.0]])
    sigma = svd(op).sigma
    gap = max(abs(sigma[0] - 3.1306), abs(sigma[1] - 1.0433))
    return gap <= 5e-5, f"singular values {sigma[0]:.4f}, {sigma[1]:.4f}"


SUITES = {
    "adjoint": adjoint_suite,
    "gradient": gradient_suite,
    "lyapunov": lyapunov_suite,
    "sturm": sturm_suite,
    "svd": svd_suite,
}


def run_suites(names=None, seed: int = 42):
    """Run the requested suites; returns list of (name, passed, detail)."""
    results = []
    for name in names or SUITES:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        results.append((name, *SUITES[name](seed=seed)))
    return results
