"""The three workloads: seeded inputs, the operations of one job, and checks.

A *job* is the fixed bundle of operations a workload runs on one freshly
seeded instance.  Every job of a workload runs the same operations at the
same sizes, so job times are alike and their median is stable.  Every
check compares an output with a computation made here with plain NumPy,
or with a property the method must have; nothing is compared with a
stored copy of earlier output.

Two faults of the program are kept on purpose.  Their inputs do not
depend on the seed and they fail on every job, so the failed share of a
run is fixed:

* ``inverse``: ``svd`` of a 12x12 operator with singular values
  ``logspace(0, -10, 12)`` reports rank 8, because it squares the
  condition number by forming ``A* A``.
* ``certify``: ``stability --matrix`` on Hurwitz matrices at n = 32 and
  48 exits 3, because the Routh tabulation on Faddeev-LeVerrier
  coefficients disagrees with the Lyapunov certificate.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from adjointkit import cli, core, leastsq, network, optim, pde, spectral, sturm

GRADED_FAULT = ("svd squares the condition number through A*A: the n = 12 "
                "operator with singular values logspace(0, -10) comes back "
                "with rank 8")
ROUTH_FAULT = ("Routh tabulation on Faddeev-LeVerrier coefficients misjudges "
               "Hurwitz matrices at n >= 32, so stability exits 3")


@dataclass
class Op:
    """One call into the program and the check of its output.

    ``call`` takes the results of the earlier operations of the job (by
    name) and returns this one's result.  ``check`` takes the instance and
    all results and returns ``None`` when the output is right, else a
    message.  ``known_fault`` names a fault this operation is kept to show.
    """
    name: str
    call: object
    check: object
    known_fault: str | None = None


def _rel(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _spd(rng, n) -> np.ndarray:
    """Well-conditioned SPD metric with a random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * rng.uniform(0.5, 2.0, n)) @ q.T


def _whitened(a, m_dom, m_cod):
    """``L_c^T A L_d^{-T}`` and the two Cholesky factors."""
    l_d = np.linalg.cholesky(m_dom)
    l_c = np.linalg.cholesky(m_cod)
    return l_c.T @ np.linalg.solve(l_d, a.T).T, l_d, l_c


def _check_sigma(res, a, m_dom, m_cod, tol=1e-8):
    """Singular values and rank against LAPACK on the whitened matrix."""
    aw, _, _ = _whitened(a, m_dom, m_cod)
    ref = np.linalg.svd(aw, compute_uv=False)
    rank = int(np.sum(ref > spectral.DEFAULT_RANK_TOL_FACTOR * ref[0]))
    if res.rank != rank:
        return f"rank {res.rank}, expected {rank}"
    err = float(np.max(np.abs(np.asarray(res.sigma) - ref)))
    if err > tol * ref[0]:
        return f"singular values off by {err:.3e} (sigma_1 = {ref[0]:.3e})"
    return None


def _check_cli_ok(code, out):
    if code != 0:
        return f"exit {code}: {out.strip()[:160]}"
    return None


def run_cli(argv):
    """One in-process ``adjointkit`` invocation with stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_record(path, matrix, m_dom=None, m_cod=None):
    rec = {"rows": matrix.shape[0], "cols": matrix.shape[1],
           "entries": [float(x) for x in np.ravel(matrix)]}
    if m_dom is not None:
        rec["domain_metric"] = [float(x) for x in np.ravel(m_dom)]
    if m_cod is not None:
        rec["codomain_metric"] = [float(x) for x in np.ravel(m_cod)]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rec, handle)
    return path


# -- inverse ---------------------------------------------------------------------


class Inverse:
    """Ill-posed inversion and mode expansion, all through ``spectral``."""

    name = "inverse"
    kappas = (1e-6, 1e-4, 1e-2, 1.0)

    def __init__(self, n_int=48, weighted=(36, 32, 24), n_sturm=64, modes=10):
        self.n_int = n_int
        self.weighted = weighted  # codomain dim, domain dim, rank
        self.n_sturm = n_sturm
        self.modes = modes
        # the graded-spectrum operator is fixed: it does not depend on the seed
        fixed = np.random.default_rng(12)
        u, _ = np.linalg.qr(fixed.standard_normal((12, 12)))
        v, _ = np.linalg.qr(fixed.standard_normal((12, 12)))
        self.graded_sigma = np.logspace(0.0, -10.0, 12)
        self.graded = (u * self.graded_sigma) @ v.T

    def make(self, rng, workdir):
        n = self.n_int
        t = (np.arange(n) + 0.5) / n
        coeffs = rng.standard_normal(4) / np.arange(1, 5)
        x_true = sum(c * np.sin((k + 1) * np.pi * t) for k, c in enumerate(coeffs))
        a_int = np.tril(np.ones((n, n))) / n
        clean = a_int @ x_true
        y = clean + 1e-3 * np.abs(clean).max() * rng.standard_normal(n)

        m, nd, r = self.weighted
        a_w = rng.standard_normal((m, r)) @ rng.standard_normal((r, nd))
        m_dom, m_cod = _spd(rng, nd), _spd(rng, m)
        y_w = a_w @ rng.standard_normal(nd)
        y_w = y_w + 0.3 * np.linalg.norm(y_w) * rng.standard_normal(m) / np.sqrt(m)

        pa, qb, rc = rng.uniform(0.2, 1.0), rng.uniform(0.0, 5.0), rng.uniform(0.1, 1.0)
        grid = (np.arange(self.n_sturm) + 1.0) / (self.n_sturm + 1)
        d = rng.uniform(-1.0, 1.0)
        return {
            "op_int": leastsq.integration_operator(n), "a_int": a_int, "y": y,
            "op_w": core.matrix_operator(a_w, m_dom, m_cod), "a_w": a_w,
            "m_dom": m_dom, "m_cod": m_cod, "y_w": y_w,
            "coef": (pa, qb, rc),
            "problem": sturm.SLProblem(
                p=lambda x: 1.0 + pa * np.sin(np.pi * x) ** 2,
                q=lambda x: qb * x, rho=lambda x: 1.0 + rc * x * x,
                bc="dirichlet", n=self.n_sturm),
            "f": grid * (1.0 - grid) * (1.0 + d * grid),
            "op_graded": core.matrix_operator(self.graded),
        }

    def ops(self, inst):
        metric = np.eye(self.n_int) / self.n_int
        ops = [
            Op("svd.integration", lambda r: spectral.svd(inst["op_int"]),
               lambda i, r: _check_sigma(r["svd.integration"], i["a_int"], metric, metric)),
            Op("normal_solve.integration",
               lambda r: leastsq.normal_solve(inst["op_int"], inst["y"]),
               self._check_normal_solve),
            Op("picard.integration",
               lambda r: leastsq.picard_diagnostic(inst["op_int"], inst["y"]),
               self._check_picard),
        ]
        for kappa in self.kappas:
            ops.append(Op(f"tikhonov.{kappa:g}",
                          lambda r, k=kappa: leastsq.tikhonov_solve(
                              inst["op_int"], inst["y"], k),
                          lambda i, r, k=kappa: self._check_tikhonov(i, r, k)))
        ops += [
            Op("svd.weighted", lambda r: spectral.svd(inst["op_w"]),
               lambda i, r: _check_sigma(r["svd.weighted"], i["a_w"],
                                         i["m_dom"], i["m_cod"])),
            Op("solvability.weighted",
               lambda r: spectral.solvability_check(inst["op_w"], inst["y_w"]),
               self._check_solvability),
            Op("adjoint_check.weighted",
               lambda r: core.adjoint_consistency_check(inst["op_w"]),
               lambda i, r: (None if r["adjoint_check.weighted"].max_defect <= 1e-12
                             else f"defect {r['adjoint_check.weighted'].max_defect:.3e}")),
            Op("discretize", lambda r: sturm.discretize(inst["problem"]),
               self._check_discretize),
            Op("solve_modes", lambda r: sturm.solve_modes(r["discretize"], self.modes),
               self._check_modes),
            Op("truncation_error",
               lambda r: sturm.truncation_error(inst["f"], r["solve_modes"],
                                                range(1, self.modes + 1)),
               self._check_truncation),
            Op("svd.graded12", lambda r: spectral.svd(inst["op_graded"]),
               self._check_graded, known_fault=GRADED_FAULT),
        ]
        return ops

    def _check_normal_solve(self, inst, res):
        metric = np.eye(self.n_int) / self.n_int
        aw, l_d, l_c = _whitened(inst["a_int"], metric, metric)
        xw = np.linalg.lstsq(aw, l_c.T @ inst["y"], rcond=None)[0]
        err = _rel(res["normal_solve.integration"], np.linalg.solve(l_d.T, xw))
        return None if err <= 1e-8 else f"relative error {err:.3e} against lstsq"

    def _check_picard(self, inst, res):
        table = res["picard.integration"]
        metric = np.eye(self.n_int) / self.n_int
        aw, _, l_c = _whitened(inst["a_int"], metric, metric)
        u, s, _ = np.linalg.svd(aw)
        coeff = np.abs(u.T @ (l_c.T @ inst["y"]))
        got = np.array([(row.sigma, row.coeff) for row in table.rows])
        if got.shape != (s.size, 2):
            return f"{len(table.rows)} rows, expected {s.size}"
        if _rel(got[:, 0], s) > 1e-8 or _rel(got[:, 1], coeff) > 1e-7:
            return "singular values or data coefficients disagree with LAPACK"
        return None if table.null_defect <= 1e-10 else "nonzero null defect"

    def _check_tikhonov(self, inst, res, kappa):
        sol = res[f"tikhonov.{kappa:g}"]
        h = 1.0 / self.n_int
        a = inst["a_int"]
        ref = np.linalg.solve(h * a.T @ a + kappa * h * np.eye(self.n_int),
                              h * a.T @ inst["y"])
        err = _rel(sol.x, ref)
        if err > 1e-8:
            return f"relative error {err:.3e} against the shifted normal equations"
        if kappa == self.kappas[-1]:
            resid = [res[f"tikhonov.{k:g}"].residual_norm for k in self.kappas]
            if any(b < a * (1.0 - 1e-12) for a, b in zip(resid, resid[1:])):
                return f"residual decreases in kappa: {resid}"
        return None

    def _check_solvability(self, inst, res):
        out = res["solvability.weighted"]
        aw, _, l_c = _whitened(inst["a_w"], inst["m_dom"], inst["m_cod"])
        u, s, _ = np.linalg.svd(aw)
        r = int(np.sum(s > spectral.DEFAULT_RANK_TOL_FACTOR * s[0]))
        yw = l_c.T @ inst["y_w"]
        outside = yw - u[:, :r] @ (u[:, :r].T @ yw)
        ref = float(np.linalg.norm(outside) / np.linalg.norm(yw))
        if abs(out["defect"] - ref) > 1e-8:
            return f"defect {out['defect']:.6e}, expected {ref:.6e}"
        return None if out["solvable"] == (ref <= 1e-10) else "wrong solvable flag"

    def _reference_k(self, inst):
        pa, qb, _ = inst["coef"]
        n = self.n_sturm
        h = 1.0 / (n + 1)
        x = (np.arange(n) + 1.0) * h
        p_half = 1.0 + pa * np.sin(np.pi * (np.arange(n + 1) + 0.5) * h) ** 2
        k = np.diag((p_half[:-1] + p_half[1:]) / h ** 2 + qb * x)
        k -= np.diag(p_half[1:-1] / h ** 2, 1) + np.diag(p_half[1:-1] / h ** 2, -1)
        return k, x, h

    def _reference_modes(self, inst):
        k, x, h = self._reference_k(inst)
        rho = 1.0 + inst["coef"][2] * x * x
        d = 1.0 / np.sqrt(rho)
        lam, w = np.linalg.eigh(d[:, None] * k * d[None, :])
        return lam, (d[:, None] * w) / np.sqrt(h), rho, h

    def _check_discretize(self, inst, res):
        k, _, _ = self._reference_k(inst)
        err = _rel(res["discretize"].stiffness, k)
        return None if err <= 1e-12 else f"stiffness off by {err:.3e}"

    def _check_modes(self, inst, res):
        modes = res["solve_modes"]
        lam, _, rho, h = self._reference_modes(inst)
        err = float(np.max(np.abs(modes.eigenvalues - lam[:self.modes])))
        if err > 1e-9 * lam[-1]:
            return f"eigenvalues off by {err:.3e}"
        gram = h * modes.modes.T @ (rho[:, None] * modes.modes)
        dev = float(np.abs(gram - np.eye(self.modes)).max())
        return None if dev <= 1e-9 else f"modes not rho-orthonormal ({dev:.3e})"

    def _check_truncation(self, inst, res):
        errs = np.asarray(res["truncation_error"])
        _, vecs, rho, h = self._reference_modes(inst)
        f = inst["f"]
        coeffs = h * vecs[:, :self.modes].T @ (rho * f)
        ref = [np.sqrt(h * np.sum(rho * (f - vecs[:, :j] @ coeffs[:j]) ** 2))
               for j in range(1, self.modes + 1)]
        scale = np.sqrt(h * np.sum(rho * f * f))
        if float(np.max(np.abs(errs - ref))) > 1e-9 * scale:
            return "truncation errors disagree with the reference expansion"
        if np.any(np.diff(errs) > 1e-12 * scale):
            return "truncation error increases with the number of modes"
        return None

    def _check_graded(self, inst, res):
        out = res["svd.graded12"]
        if out.rank != 12:
            return f"rank {out.rank}, expected 12"
        err = float(np.max(np.abs(out.sigma - self.graded_sigma) / self.graded_sigma))
        return None if err <= 1e-6 else f"relative singular-value error {err:.3e}"


# -- control ---------------------------------------------------------------------


def _elliptic_state(z, n):
    """Interior solution of ``-(exp(z) u')' = 0``, u(0) = 0, u(1) = 1, by dense solve."""
    h = 1.0 / (n + 1)
    c = np.exp(z)
    k = (np.diag(c[:-1] + c[1:]) - np.diag(c[1:-1], 1) - np.diag(c[1:-1], -1)) / h ** 2
    rhs = np.zeros(n)
    rhs[-1] = c[-1] / h ** 2
    return np.linalg.solve(k, rhs)


def _elliptic_objective(z, n, u_obs, kappa):
    """Reduced objective of the log-coefficient inversion."""
    h = 1.0 / (n + 1)
    u = _elliptic_state(z, n)
    return 0.5 * h * float((u - u_obs) @ (u - u_obs)) + 0.5 * kappa * h * float(z @ z)


def _net_loss(weights, biases, x, y):
    a = x
    for w, b in zip(weights, biases):
        a = np.tanh(a @ w.T + b)
    return 0.5 * float(np.sum((y - a) ** 2))


def _central_gradient(f, z, step):
    g = np.zeros_like(z)
    for j in range(z.size):
        e = np.zeros_like(z)
        e[j] = step
        g[j] = (f(z + e) - f(z - e)) / (2.0 * step)
    return g


class Control:
    """PDE-constrained optimisation and backprop: ``optim``, ``pde``, ``network``."""

    name = "control"
    layers = (2, 16, 16, 1)

    def __init__(self, n_descent=127, descent_iters=150, n_fd=31, n_adv=64,
                 samples=64, train_iters=30):
        self.n_descent = n_descent
        self.descent_iters = descent_iters
        self.n_fd = n_fd
        self.n_adv = n_adv
        self.samples = samples
        self.train_iters = train_iters

    @staticmethod
    def _observations(rng, n):
        mid = (np.arange(n + 1) + 0.5) / (n + 1)
        z_true = rng.uniform(0.4, 1.0) * np.sin(2.0 * np.pi * mid + rng.uniform(0, np.pi))
        return _elliptic_state(z_true, n) + 1e-3 * rng.standard_normal(n)

    def make(self, rng, workdir):
        n = self.n_descent
        kappa = rng.uniform(1e-4, 1e-3)
        u_obs = self._observations(rng, n)
        u_fd = self._observations(rng, self.n_fd)
        beta, z_adv = rng.uniform(0.5, 2.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        x = rng.uniform(-1.0, 1.0, (self.samples, 2))
        amp, freq, phase = rng.uniform(0.3, 0.8), rng.uniform(1.0, 3.0), rng.uniform(0, np.pi)
        target = amp * np.sin(freq * x[:, 0] + phase) * x[:, 1]
        sizes = self.layers
        weights = [rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i])) for i in range(3)]
        biases = [rng.uniform(-0.5, 0.5, sizes[i + 1]) for i in range(3)]
        return {
            "descent": pde.build_elliptic_problem(n, 0.0, 1.0, u_obs, kappa=kappa),
            "u_obs": u_obs, "kappa": kappa,
            "z0": 0.1 * rng.standard_normal(n + 1),
            "fd": pde.build_elliptic_problem(self.n_fd, 0.0, 1.0, u_fd, kappa=kappa),
            "z_fd": 0.1 * rng.standard_normal(self.n_fd + 1),
            "advection": pde.build_advection_problem(self.n_adv, beta),
            "beta": beta, "z_adv": np.array([z_adv]),
            "spec": network.NetworkSpec(sizes, activation="tanh"),
            "params": network.Parameters(weights, biases),
            "weights": weights, "biases": biases,
            "samples": [(x[i], target[i:i + 1]) for i in range(self.samples)],
            "x": x, "target": target[:, None],
        }

    def ops(self, inst):
        return [
            Op("descent", lambda r: optim.gradient_descent(
                inst["descent"], inst["z0"], step=100.0, iters=self.descent_iters,
                tol=0.0), self._check_descent),
            Op("fd_gradient_check",
               lambda r: optim.fd_gradient_check(inst["fd"], inst["z_fd"]),
               self._check_fd),
            Op("advection_gradient",
               lambda r: optim.reduced_gradient(inst["advection"], inst["z_adv"]),
               self._check_advection),
            Op("train", lambda r: network.train(
                inst["spec"], inst["params"], inst["samples"], iters=self.train_iters),
               self._check_train),
        ]

    @staticmethod
    def _check_history(history, iters, f0, g0):
        """Rows (k, f, grad_norm, step): full length, f non-increasing, and
        the first row equal to the independent objective and gradient."""
        if len(history) != iters:
            return f"{len(history)} iterations, expected {iters}"
        f = [row[1] for row in history]
        if any(b > a for a, b in zip(f, f[1:])):
            return "objective increased"
        if abs(f[0] - f0) > 1e-9 * abs(f0):
            return f"first objective {f[0]:.12e}, expected {f0:.12e}"
        gnorm = float(np.linalg.norm(g0))
        if abs(history[0][2] - gnorm) > 1e-5 * gnorm:
            return (f"first gradient norm {history[0][2]:.9e}, central "
                    f"differences give {gnorm:.9e}")
        return None

    def _check_descent(self, inst, res):
        out = res["descent"]
        n = self.n_descent

        def f(z):
            return _elliptic_objective(z, n, inst["u_obs"], inst["kappa"])

        z0 = inst["z0"]
        return self._check_history(out.history, self.descent_iters, f(z0),
                                   _central_gradient(f, z0, 1e-5))

    def _check_fd(self, inst, res):
        errs = res["fd_gradient_check"]
        e2, e3 = errs[1e-2], errs[1e-3]
        if not (e3 <= 1e-5 and e3 <= 0.05 * e2):
            return f"central differences do not converge to the gradient: {errs}"
        return None

    def _check_advection(self, inst, res):
        out = res["advection_gradient"]
        z, beta = inst["z_adv"][0], inst["beta"]
        if abs(out.gradient[0] - z / beta ** 2) > 1e-12 * abs(z / beta ** 2):
            return f"gradient {out.gradient[0]!r}, expected z / beta^2 = {z / beta ** 2!r}"
        if abs(out.f_value - z * z / (2 * beta ** 2)) > 1e-12 * z * z / beta ** 2:
            return "objective differs from z^2 / (2 beta^2)"
        return None

    def _check_train(self, inst, res):
        _, history = res["train"]
        w, b = inst["weights"], inst["biases"]
        shapes = [m.size for pair in zip(w, b) for m in pair]
        flat0 = np.concatenate([m.ravel() for pair in zip(w, b) for m in pair])

        def f(z):
            parts = np.split(z, np.cumsum(shapes)[:-1])
            return _net_loss([parts[2 * i].reshape(w[i].shape) for i in range(3)],
                             parts[1::2], inst["x"], inst["target"])

        return self._check_history(history, self.train_iters, f(flat0),
                                   _central_gradient(f, flat0, 1e-5))


# -- certify ---------------------------------------------------------------------


def known_spectrum(rng, n, hurwitz):
    """``Q T Q^T`` with T block diagonal, so the spectrum is known exactly.

    Hurwitz matrices have their rightmost complex pair at a real part in
    [-1, -0.3] and every other eigenvalue at least half as far again to
    the left, down to -3; the others move one pair to a real part in
    [0.3, 1].  Returns the matrix and the largest real part of its
    eigenvalues.
    """
    top = -rng.uniform(0.3, 1.0)
    t = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        a, b = (top if i == 0 else rng.uniform(-3.0, 1.5 * top)), rng.uniform(0.5, 3.0)
        t[i:i + 2, i:i + 2] = [[a, b], [-b, a]]
    if n % 2:
        t[-1, -1] = rng.uniform(-3.0, 1.5 * top)
    if not hurwitz:
        k = 2 * int(rng.integers(0, n // 2))
        t[k, k] = t[k + 1, k + 1] = rng.uniform(0.3, 1.0)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ t @ q.T, float(np.max(np.diag(t)))


def seirs_jacobian(beta, sigma=0.5, gamma=0.25, mu=0.02, omega=0.05):
    """Analytic Jacobian of the SEIRS field at the disease-free state."""
    return np.array([
        [-mu, 0.0, -beta, omega],
        [0.0, -(mu + sigma), beta, 0.0],
        [0.0, sigma, -(mu + gamma), 0.0],
        [0.0, 0.0, gamma, -(mu + omega)],
    ])


def _check_certificate(out, a, hurwitz, max_re):
    """Verdict, Lyapunov residual, SPD test and abscissa bound of one report."""
    if out["hurwitz"] is not hurwitz:
        return f"verdict hurwitz={out['hurwitz']}, spectrum says {hurwitz}"
    if not hurwitz:
        return None
    p = np.asarray(out["lyapunov_P"])
    resid = np.linalg.norm(p @ a + a.T @ p + np.eye(a.shape[0]))
    if resid > 1e-7 * (1.0 + np.linalg.norm(p) * np.linalg.norm(a)):
        return f"Lyapunov residual {resid:.3e}"
    if np.linalg.eigvalsh(0.5 * (p + p.T)).min() <= 0.0:
        return "certificate P is not positive definite"
    # the bound is attained for normal matrices, so only roundoff may undercut it
    if out["spectral_abscissa_bound"] < max_re - 1e-6 * abs(max_re):
        return (f"abscissa bound {out['spectral_abscissa_bound']:.6e} is below "
                f"max Re lambda {max_re:.6e}")
    return None


class Certify:
    """Stability and reproduction numbers through the CLI, in process."""

    name = "certify"
    seirs = {"sigma": 0.5, "gamma": 0.25, "mu": 0.02}

    def __init__(self, seeded_sizes=(8, 16), fault_sizes=(32, 48)):
        self.seeded_sizes = seeded_sizes
        self.fault_sizes = fault_sizes
        # matrices at n >= 32 are fixed: they do not depend on the seed
        self.fixed = {(n, h): known_spectrum(np.random.default_rng([n, h]), n, h)
                      for n in fault_sizes for h in (True, False)}

    def make(self, rng, workdir):
        inst = {"workdir": workdir, "files": {}, "matrices": {}}
        lo, hi = rng.uniform(0.08, 0.2), rng.uniform(0.4, 0.9)
        inst["beta"] = {"seirs.below": lo, "seirs.above": hi}
        sigma, gamma = rng.uniform(0.2, 1.0), rng.uniform(0.1, 0.5)
        mu, beta = rng.uniform(0.01, 0.05), rng.uniform(0.1, 1.0)
        inst["r0"] = beta * sigma / ((mu + sigma) * (mu + gamma))
        files = inst["files"]
        files["F"] = _write_record(os.path.join(workdir, "F.json"),
                                   np.array([[0.0, beta], [0.0, 0.0]]))
        files["V"] = _write_record(os.path.join(workdir, "V.json"),
                                   np.array([[mu + sigma, 0.0], [-sigma, mu + gamma]]))
        matrices = inst["matrices"]
        for n in self.seeded_sizes:
            for h in (True, False):
                matrices[(n, h)] = known_spectrum(rng, n, h)
        matrices.update(self.fixed)
        for (n, h), (a, _) in matrices.items():
            files[(n, h)] = _write_record(
                os.path.join(workdir, f"A{n}{'h' if h else 'u'}.json"), a)
        a_small = rng.standard_normal((6, 5))
        files["adjoint"] = _write_record(os.path.join(workdir, "adjoint.json"),
                                         a_small, _spd(rng, 5), _spd(rng, 6))
        return inst

    def ops(self, inst):
        files = inst["files"]
        ops = []
        for name, beta in inst["beta"].items():
            ops.append(Op(name, lambda r, b=beta: run_cli(
                ["stability", "--model", "seirs", "--beta", repr(b)]),
                lambda i, r, key=name: self._check_seirs(i, r, key)))
        ops.append(Op("oscillator", lambda r: run_cli(
            ["stability", "--model", "damped-oscillator"]), self._check_oscillator))
        ops.append(Op("r0", lambda r: run_cli(["r0", "--F", files["F"], "--V", files["V"]]),
                      self._check_r0))
        for (n, h) in inst["matrices"]:
            fault = ROUTH_FAULT if h and n >= 32 else None
            ops.append(Op(f"matrix.n{n}.{'hurwitz' if h else 'unstable'}",
                          lambda r, f=files[(n, h)]: run_cli(["stability", "--matrix", f]),
                          lambda i, r, key=(n, h): self._check_matrix(i, r, key),
                          known_fault=fault))
        ops.append(Op("adjoint-check", lambda r: run_cli(
            ["adjoint-check", "--op", files["adjoint"]]), self._check_adjoint))
        return ops

    def _check_seirs(self, inst, res, name):
        code, text = res[name]
        bad = _check_cli_ok(code, text)
        if bad:
            return bad
        out = json.loads(text)
        beta, p = inst["beta"][name], self.seirs
        r0 = beta * p["sigma"] / ((p["mu"] + p["sigma"]) * (p["mu"] + p["gamma"]))
        if abs(out["r0"] - r0) > 1e-9 * r0:
            return f"r0 {out['r0']!r}, expected {r0!r}"
        a = seirs_jacobian(beta, **p)
        return _check_certificate(out, a, r0 < 1.0, np.linalg.eigvals(a).real.max())

    def _check_oscillator(self, inst, res):
        code, text = res["oscillator"]
        bad = _check_cli_ok(code, text)
        if bad:
            return bad
        return _check_certificate(json.loads(text), np.array([[0.0, 1.0], [-1.0, -1.0]]),
                                  True, -0.5)

    def _check_r0(self, inst, res):
        code, text = res["r0"]
        bad = _check_cli_ok(code, text)
        if bad:
            return bad
        got = json.loads(text)["r0"]
        return None if abs(got - inst["r0"]) <= 1e-9 * inst["r0"] else \
            f"r0 {got!r}, expected {inst['r0']!r}"

    def _check_matrix(self, inst, res, key):
        n, h = key
        code, text = res[f"matrix.n{n}.{'hurwitz' if h else 'unstable'}"]
        bad = _check_cli_ok(code, text)
        if bad:
            return bad
        a, max_re = inst["matrices"][key]
        return _check_certificate(json.loads(text), a, h, max_re)

    def _check_adjoint(self, inst, res):
        code, text = res["adjoint-check"]
        bad = _check_cli_ok(code, text)
        if bad:
            return bad
        defect = json.loads(text)["max_defect"]
        return None if defect <= 1e-12 else f"max_defect {defect:.3e}"


WORKLOADS = {"inverse": Inverse, "control": Control, "certify": Certify}
