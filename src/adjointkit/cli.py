"""Command-line entry point: one subcommand per module.

Matrices and vectors travel as the operator JSON record
({"rows", "cols", "entries", optional metrics}); per-index and
per-iteration tables are CSV.  Results go to standard output unless an
output path is given.  Exit status: 0 success, 2 validation problems,
3 numerical failures (with a diagnostic JSON payload).

The environment variable ADJOINTKIT_SEED overrides the default seed 42
for every seeded subcommand.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import selftest as selftest_mod
from .core import adjoint_consistency_check, operator_from_record
from .errors import NumericalError
from .leastsq import normal_solve, picard_diagnostic, tikhonov_solve
from .network import ACTIVATIONS, NetworkSpec, init_parameters, train
from .optim import fd_gradient_check, gradient_descent, reduced_gradient
from .pde import build_advection_problem, make_elliptic_demo
from .spectral import svd
from .stability import (SeirsModel, damped_oscillator, jacobian_verdict,
                        logistic, r0 as spectral_radius_ratio,
                        stability_verdict)
from .sturm import (BOUNDARY_CONDITIONS, constant_coefficient_problem,
                    discretize, solve_modes)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _default_seed() -> int:
    env = os.environ.get("ADJOINTKIT_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"ADJOINTKIT_SEED must be an integer, got {env!r}") from None


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_operator(path: str):
    return operator_from_record(_load_json(path))


def _load_vector(path: str) -> np.ndarray:
    """A flat finite array; the consuming solver checks its length."""
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("entries")
    vec = np.asarray(data, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"expected a flat JSON array in {path}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"vector in {path} has non-finite entries")
    return vec


def _load_op_rhs(args):
    return _load_operator(args.op), _load_vector(args.rhs)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("result has non-finite values, which JSON cannot "
                             "carry") from None


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise NumericalError("result has non-finite values")
    return f"{float(x):.17g}"


def _csv(rows, header: str) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _history_csv(history, objective: str) -> str:
    return _csv([(k, float(f), float(g), float(a)) for k, f, g, a in history],
                f"k,{objective},grad_norm,step")


# -- subcommands -----------------------------------------------------------------


def cmd_adjoint_check(args) -> int:
    op = _load_operator(args.op)
    report = adjoint_consistency_check(op, trials=args.trials, seed=args.seed)
    _emit(_json_text({"trials": report.trials, "max_defect": report.max_defect}),
          args.output)
    return EXIT_OK


def cmd_svd(args) -> int:
    op = _load_operator(args.op)
    dec = svd(op, rank_tol=args.rank_tol)
    payload = {
        "sigma": [float(s) for s in dec.sigma],
        "rank": dec.rank,
        "U": [[float(x) for x in row] for row in dec.right_vectors],
        "V": [[float(x) for x in row] for row in dec.left_vectors],
    }
    text = _json_text(payload)
    text += "sigma: " + ",".join(f"{s:.4f}" for s in dec.sigma) + "\n"
    (m, n), r = op.shape, dec.rank
    text += (f"subspaces: dim R(A)={r}, dim N(A)={n - r}, dim R(A*)={r}, "
             f"dim N(A*)={m - r} (n={n}, m={m})\n")
    _emit(text, args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    op, y = _load_op_rhs(args)
    x = normal_solve(op, y)
    residual = op.codomain.norm(op.matvec(x) - y)
    _emit(_json_text({"x": [float(v) for v in x], "residual_norm": residual}),
          args.output)
    return EXIT_OK


def cmd_tikhonov(args) -> int:
    op, y = _load_op_rhs(args)
    x0 = _load_vector(args.x0) if args.x0 else None
    sol = tikhonov_solve(op, y, args.kappa, x0)
    _emit(_json_text({"x": [float(v) for v in sol.x], "kappa": sol.kappa,
                      "residual_norm": sol.residual_norm,
                      "prior_distance": sol.prior_distance}), args.output)
    return EXIT_OK


def cmd_picard(args) -> int:
    op, y = _load_op_rhs(args)
    table = picard_diagnostic(op, y)
    rows = [(row.index, float(row.sigma), float(row.coeff), float(row.ratio),
             float(row.cumulative)) for row in table.rows]
    text = _csv(rows, "i,sigma,coeff,ratio,cumsum")
    text += f"# null_defect={_fmt(table.null_defect)}\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_train(args) -> int:
    text = args.spec
    if text.startswith("sizes="):
        text = text[len("sizes="):]
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse layer sizes from {args.spec!r}") from None
    spec = NetworkSpec(sizes, activation=args.act)
    records = _load_json(args.data)
    if not isinstance(records, list) or not records:
        raise ValueError("training data must be a non-empty JSON list")
    samples = []
    for rec in records:
        try:
            x = np.asarray(rec["x"], dtype=float)
            a_obs = np.asarray(rec["a_obs"], dtype=float)
        except (KeyError, TypeError):
            raise ValueError('each sample needs "x" and "a_obs" arrays') from None
        if x.shape != (sizes[0],) or a_obs.shape != (sizes[-1],):
            raise ValueError("sample shapes do not match the network sizes")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(a_obs))):
            raise ValueError("training sample has non-finite entries")
        samples.append((x, a_obs))
    params = init_parameters(spec, seed=args.seed)
    _, history = train(spec, params, samples, iters=args.iters, step=args.step)
    _emit(_history_csv(history, "loss"), args.output)
    return EXIT_OK


def cmd_stability(args) -> int:
    reproduction = None
    if args.model is None:  # the file's matrix, as given
        report = jacobian_verdict(_load_operator(args.matrix).entries)
    elif args.model == "damped-oscillator":
        report = stability_verdict(damped_oscillator, np.zeros(2))
    elif args.model == "logistic":
        report = stability_verdict(logistic, np.array([float(args.eq)]))
    else:  # seirs
        model = SeirsModel(beta=args.beta)
        f_mat, v_mat = model.next_generation_split()
        reproduction = spectral_radius_ratio(f_mat, v_mat)
        report = stability_verdict(model, model.disease_free_equilibrium)
    payload = {
        "hurwitz": report.hurwitz,
        "spd_certificate": report.spd_certificate,
        "spectral_abscissa_bound": report.spectral_abscissa_bound,
        "margin": report.margin,
    }
    if reproduction is not None:
        payload["r0"] = reproduction
    if report.lyapunov_p is not None:
        payload["lyapunov_P"] = report.lyapunov_p.tolist()
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def cmd_r0(args) -> int:
    f_mat = _load_operator(args.F).entries
    v_mat = _load_operator(args.V).entries
    value = spectral_radius_ratio(f_mat, v_mat)
    _emit(_json_text({"r0": value}), args.output)
    return EXIT_OK


def cmd_sturm(args) -> int:
    problem = constant_coefficient_problem(args.bc, n=args.n)
    if not 1 <= args.modes <= args.n:  # reject before the dense O(n^3) assembly
        raise ValueError(f"requested {args.modes} modes from an {args.n}-point grid")
    modes = solve_modes(discretize(problem), args.modes)
    header = "lambda," + ",".join(f"v{i + 1}" for i in range(args.n))
    rows = [(lam, *col) for lam, col in zip(modes.eigenvalues.tolist(),
                                            modes.modes.T.tolist())]
    _emit(_csv(rows, header), args.output)
    return EXIT_OK


def _build_pde_problem(args):
    if args.problem == "advection":
        if not np.isfinite(args.z):
            raise ValueError("advection control value --z must be finite")
        return build_advection_problem(args.n, args.beta), np.array([args.z])
    problem, _ = make_elliptic_demo(args.n, g0=args.g0, g1=args.g1,
                                    kappa=args.kappa)
    return problem, np.zeros(problem.control_dim)


def cmd_pdeopt(args) -> int:
    problem, z = _build_pde_problem(args)
    if args.check_gradient:
        errors = fd_gradient_check(problem, z, steps=(1e-3, 1e-4, 1e-5))
        _emit(_json_text({"rel_error": {f"{h:g}": e for h, e in errors.items()}}),
              args.output)
        return EXIT_OK
    if args.descend:
        result = gradient_descent(problem, z, step=args.step, iters=args.iters,
                                  tol=args.tol)
        _emit(_history_csv(result.history, "f"), args.output)
        return EXIT_OK
    # field dump: state, adjoint, and gradient sampled on a common grid
    report = reduced_gradient(problem, z)
    x, u, v = problem.fields(report.state, report.multiplier)
    grad = np.broadcast_to(report.gradient, x.shape)
    _emit(_csv(np.column_stack([x, u, v, grad]).tolist(), "x,u,v,grad"), args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    names = [args.suite] if args.suite else None
    results = selftest_mod.run_suites(names=names, seed=args.seed)
    all_ok = True
    for name, ok, detail in results:
        sys.stdout.write(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n")
        all_ok = all_ok and ok
    return EXIT_OK if all_ok else 1


@functools.lru_cache
def build_parser(seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjointkit",
        description="Adjoint-consistent operators: SVD, regularized inversion, "
                    "reduced gradients, backprop, ODE stability, Sturm modes.")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output")

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[output], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("adjoint-check", cmd_adjoint_check, "randomized adjoint identity report")
    p.add_argument("--op", required=True, help="operator JSON file")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=seed)

    p = command("svd", cmd_svd, "singular triplets and subspace dimensions")
    p.add_argument("--op", required=True)
    p.add_argument("--rank-tol", type=float, default=None)

    p = command("solve", cmd_solve, "minimum-norm least-squares solve")
    p.add_argument("--op", required=True)
    p.add_argument("--rhs", required=True, help="vector JSON file")

    p = command("tikhonov", cmd_tikhonov, "regularized solve")
    p.add_argument("--op", required=True)
    p.add_argument("--rhs", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--x0", help="prior vector JSON file")

    p = command("picard", cmd_picard, "singular-spectrum data diagnostic (CSV)")
    p.add_argument("--op", required=True)
    p.add_argument("--rhs", required=True)

    p = command("train", cmd_train, "full-batch network training (loss CSV)")
    p.add_argument("--spec", required=True,
                   help="layer sizes, e.g. sizes=2,4,1 or plain 2,4,1")
    p.add_argument("--act", default="tanh", choices=tuple(ACTIVATIONS))
    p.add_argument("--data", required=True, help='JSON list of {"x", "a_obs"}')
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=seed)

    p = command("stability", cmd_stability, "equilibrium stability report")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=("damped-oscillator", "logistic", "seirs"))
    source.add_argument("--matrix", help="operator JSON file for a linear system")
    p.add_argument("--eq", type=float, default=0.0, help="logistic equilibrium")
    p.add_argument("--beta", type=float, default=0.3, help="seirs contact rate")

    p = command("r0", cmd_r0, "basic reproduction number from an F/V split")
    p.add_argument("--F", required=True, help="new-infection matrix JSON")
    p.add_argument("--V", required=True, help="transition matrix JSON")

    p = command("sturm", cmd_sturm, "constant-coefficient eigenmodes (CSV)")
    p.add_argument("--bc", default="dirichlet", choices=BOUNDARY_CONDITIONS)
    p.add_argument("--n", type=int, default=63)
    p.add_argument("--modes", type=int, default=5)

    p = command("pdeopt", cmd_pdeopt, "PDE-constrained control problems")
    p.add_argument("--problem", required=True, choices=("advection", "elliptic"))
    p.add_argument("--n", type=int, default=31)
    p.add_argument("--beta", type=float, default=1.0, help="advection velocity")
    p.add_argument("--z", type=float, default=1.0, help="advection control value")
    p.add_argument("--g0", type=float, default=0.0)
    p.add_argument("--g1", type=float, default=1.0)
    p.add_argument("--kappa", type=float, default=0.0,
                   help="quadratic penalty routed into the inversion objective")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check-gradient", action="store_true")
    mode.add_argument("--descend", action="store_true")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--step", type=float, default=100.0)
    p.add_argument("--tol", type=float, default=0.0)

    p = sub.add_parser("selftest", help="run the cross-module invariant suites")
    p.add_argument("--suite", choices=sorted(selftest_mod.SUITES))
    p.add_argument("--seed", type=int, default=seed)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser(_default_seed())
    except ValueError as exc:  # bad ADJOINTKIT_SEED
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, but a LAPACK failure is not bad input
        sys.stdout.write(_json_text({"error": "numerical-failure",
                                     "detail": str(exc)}))
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
