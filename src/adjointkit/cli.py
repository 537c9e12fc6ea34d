"""Command-line entry point: one subcommand per module.

Matrices travel as the operator JSON record ({"rows", "cols", "entries",
optional metrics}), vectors as flat JSON arrays of numbers, and tables as
CSV.  Each ``cmd_*`` returns the text it prints; ``main`` alone writes it
(to ``--output`` or standard output) and alone sets the exit status: 0
success, 1 a failed selftest suite (its report on stdout), 2 validation
problems, 3 numerical failures (with a diagnostic JSON payload).

This layer parses JSON structure, ``--spec`` and the flags, and checks
``sturm --modes`` before the grid is assembled; the library routine that
reads any other input checks it, and its ``ValueError`` exits 2.  Seeded
subcommands take ``--seed`` (default 42), so stdout depends only on argv
and the files it names.
"""

import argparse
import functools
import json
import sys

import numpy as np

from . import selftest as selftest_mod
from .core import (adjoint_consistency_check, checked_finite, checked_size,
                   json_numbers, operator_from_record)
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
EXIT_SUITE_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
DEFAULT_SEED = 42


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_operator(path: str):
    return operator_from_record(_load_json(path))


def _load_vector(path: str) -> np.ndarray:
    """A flat array; the consuming solver checks its length and entries."""
    try:
        vec = json_numbers(_load_json(path), path)
    except TypeError:  # an object where a number belongs
        raise ValueError(f"expected a flat JSON array of numbers in {path}") from None
    if vec.ndim != 1:
        raise ValueError(f"expected a flat JSON array in {path}")
    return vec


def _load_op_rhs(args):
    return _load_operator(args.op), _load_vector(args.rhs)


class SuiteFailure(Exception):
    """A selftest suite failed; the argument is the whole report."""


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("result has non-finite values, which JSON cannot "
                             "carry") from None


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _csv(rows, header: str) -> str:
    rows = list(rows)
    checked_finite(table=[v for row in rows for v in row if isinstance(v, float)])
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


# -- subcommands -----------------------------------------------------------------


def cmd_adjoint_check(args) -> str:
    op = _load_operator(args.op)
    report = adjoint_consistency_check(op, trials=args.trials, seed=args.seed)
    return _json_text({"trials": report.trials, "max_defect": report.max_defect})


def cmd_svd(args) -> str:
    op = _load_operator(args.op)
    dec = svd(op, rank_tol=args.rank_tol)
    payload = {
        "sigma": dec.sigma.tolist(),
        "rank": dec.rank,
        "U": dec.right_vectors.tolist(),
        "V": dec.left_vectors.tolist(),
    }
    text = _json_text(payload)
    text += "sigma: " + ",".join(f"{s:.4f}" for s in dec.sigma) + "\n"
    (m, n), r = op.shape, dec.rank
    return text + (f"subspaces: dim R(A)={r}, dim N(A)={n - r}, dim R(A*)={r}, "
                   f"dim N(A*)={m - r} (n={n}, m={m})\n")


def cmd_solve(args) -> str:
    op, y = _load_op_rhs(args)
    x = normal_solve(op, y)
    with np.errstate(all="ignore"):
        residual = op.codomain.norm(op.matvec(x) - y)
    checked_finite(residual_norm=residual)
    return _json_text({"x": x.tolist(), "residual_norm": residual})


def cmd_tikhonov(args) -> str:
    op, y = _load_op_rhs(args)
    x0 = _load_vector(args.x0) if args.x0 else None
    sol = tikhonov_solve(op, y, args.kappa, x0)
    return _json_text({"x": sol.x.tolist(), "kappa": sol.kappa,
                       "residual_norm": sol.residual_norm,
                       "prior_distance": sol.prior_distance})


def cmd_picard(args) -> str:
    op, y = _load_op_rhs(args)
    table = picard_diagnostic(op, y)
    rows = [(row.index, row.sigma, row.coeff, row.ratio, row.cumulative)
            for row in table.rows]
    return (_csv(rows, "i,sigma,coeff,ratio,cumsum")
            + f"# null_defect={_fmt(table.null_defect)}\n")


def cmd_train(args) -> str:
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
    try:  # train and the training problem check the shapes and entries
        samples = [(np.asarray(rec["x"], dtype=float), np.asarray(rec["a_obs"], dtype=float))
                   for rec in records]
    except (KeyError, TypeError):
        raise ValueError('each sample needs "x" and "a_obs" arrays') from None
    params = init_parameters(spec, seed=args.seed)
    _, history = train(spec, params, samples, iters=args.iters, step=args.step)
    return _csv(history, "k,loss,grad_norm,step")


def cmd_stability(args) -> str:
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
    return _json_text(payload)


def cmd_r0(args) -> str:
    f_mat = _load_operator(args.F).entries
    v_mat = _load_operator(args.V).entries
    value = spectral_radius_ratio(f_mat, v_mat)
    return _json_text({"r0": value})


def cmd_sturm(args) -> str:
    problem = constant_coefficient_problem(args.bc, n=args.n)
    # reject before assembly and the O(n^3) eigensolve
    checked_size(args.modes, "--modes", 1, args.n)
    modes = solve_modes(discretize(problem), args.modes)
    header = "lambda," + ",".join(f"v{i + 1}" for i in range(args.n))
    rows = [(lam, *col) for lam, col in zip(modes.eigenvalues.tolist(),
                                            modes.modes.T.tolist())]
    return _csv(rows, header)


def _build_pde_problem(args):
    if args.problem == "advection":
        return build_advection_problem(args.n, args.beta), np.array([args.z])
    problem, _ = make_elliptic_demo(args.n, g0=args.g0, g1=args.g1,
                                    kappa=args.kappa)
    return problem, np.zeros(problem.control_dim)


def cmd_pdeopt(args) -> str:
    problem, z = _build_pde_problem(args)
    if args.check_gradient:
        errors = fd_gradient_check(problem, z, steps=(1e-3, 1e-4, 1e-5))
        return _json_text({"rel_error": {f"{h:g}": e for h, e in errors.items()}})
    if args.descend:
        result = gradient_descent(problem, z, step=args.step, iters=args.iters,
                                  tol=args.tol)
        return _csv(result.history, "k,f,grad_norm,step")
    # field dump: state, adjoint, and gradient sampled on a common grid
    report = reduced_gradient(problem, z)
    x, u, v = problem.fields(report.state, report.multiplier)
    grad = np.broadcast_to(report.gradient, x.shape)
    return _csv(np.column_stack([x, u, v, grad]).tolist(), "x,u,v,grad")


def cmd_selftest(args) -> str:
    names = [args.suite] if args.suite else None
    results = selftest_mod.run_suites(names=names, seed=args.seed)
    report = "".join(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})\n"
                     for name, ok, detail in results)
    if not all(ok for _, ok, _ in results):
        raise SuiteFailure(report)
    return report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjointkit",
        description="Adjoint-consistent operators: SVD, regularized inversion, "
                    "reduced gradients, backprop, ODE stability, Sturm modes.")
    sub = parser.add_subparsers(dest="command", required=True)
    output, op, rhs = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    output.add_argument("--output")
    op.add_argument("--op", required=True, help="operator JSON file")
    rhs.add_argument("--rhs", required=True, help="vector JSON file")

    def command(name, func, summary, *shared):
        p = sub.add_parser(name, parents=[output, *shared], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("adjoint-check", cmd_adjoint_check,
                "randomized adjoint identity report", op)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = command("svd", cmd_svd, "singular triplets and subspace dimensions", op)
    p.add_argument("--rank-tol", type=float, default=None)

    command("solve", cmd_solve, "minimum-norm least-squares solve", op, rhs)

    p = command("tikhonov", cmd_tikhonov, "regularized solve", op, rhs)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--x0", help="prior vector JSON file")

    command("picard", cmd_picard, "singular-spectrum data diagnostic (CSV)", op, rhs)

    p = command("train", cmd_train, "full-batch network training (loss CSV)")
    p.add_argument("--spec", required=True,
                   help="layer sizes, e.g. sizes=2,4,1 or plain 2,4,1")
    p.add_argument("--act", default="tanh", choices=tuple(ACTIVATIONS))
    p.add_argument("--data", required=True, help='JSON list of {"x", "a_obs"}')
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--step", type=float, default=1.0,
                   help="first trial step and the largest the line search tries")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

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
    p.add_argument("--step", type=float, default=100.0,
                   help="first trial step and the largest the line search tries")
    p.add_argument("--tol", type=float, default=0.0)

    p = sub.add_parser("selftest", help="run the cross-module invariant suites")
    p.add_argument("--suite", choices=sorted(selftest_mod.SUITES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_selftest, output=None)  # its report always goes to stdout

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except SuiteFailure as exc:
        sys.stdout.write(exc.args[0])
        return EXIT_SUITE_FAILED
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
