"""Spans around adjointkit's public functions, installed from outside.

The tracer replaces each public function of the traced modules wherever
it is bound: its own module, and every adjointkit namespace that imported
it (so ``leastsq.svd`` and ``cli.svd`` are caught as well as
``spectral.svd``).  It also wraps the ``ConstrainedProblem`` methods of the
problem classes.  Internal calls such as ``normal_solve -> svd`` therefore
get spans too, because Python looks module globals up at call time.

Spans carry a name, start, end, parent span and, for the functions a
per-layer metric is split by, a size (the problem dimension read from the
arguments).  They are kept in memory and turned into per-layer metrics
after the run.  Nothing in the program changes.
"""

import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from adjointkit import core, network, optim, pde

TRACED_MODULES = ("core", "spectral", "leastsq", "sturm", "optim", "pde",
                  "network", "stability")
PROBLEM_CLASSES = (pde.AdvectionControlProblem, pde.EllipticInversionProblem,
                   network.NetworkTrainingProblem)

# per-layer metric stem -> span names whose self time it sums
GROUPS = {
    "spectral.svd": ("spectral.svd",),
    "spectral.eig": ("spectral.eig_self_adjoint",),
    "core.complete_basis": ("core.complete_basis",),
    "core.adjoint_check": ("core.adjoint_consistency_check",),
    "core.operator_norm": ("core.operator_norm",),
    "leastsq.normal_solve": ("leastsq.normal_solve",),
    "leastsq.picard": ("leastsq.picard_diagnostic",),
    "leastsq.tikhonov": ("leastsq.tikhonov_solve",),
    "sturm.discretize": ("sturm.discretize",),
    "sturm.solve_modes": ("sturm.solve_modes",),
    "optim.descent": ("optim.gradient_descent",),
    "optim.reduced_gradient": ("optim.reduced_gradient",),
    "pde.forward": ("pde.AdvectionControlProblem.solve_forward",
                    "pde.EllipticInversionProblem.solve_forward"),
    "pde.adjoint": ("pde.AdvectionControlProblem.solve_adjoint",
                    "pde.EllipticInversionProblem.solve_adjoint"),
    "pde.thomas": ("pde.tridiagonal_solve",),
    "network.train": ("network.train",),
    "stability.lyapunov": ("stability.lyapunov_solve",),
    "stability.hurwitz": ("stability.hurwitz_check",),
    "stability.verdict": ("stability.stability_verdict",),
    "stability.r0": ("stability.r0",),
    "cli.self": ("cli.main",),
}
# per-job call counts: metric -> span name
CALL_COUNTS = {"spectral.svd_calls": "spectral.svd",
               "pde.thomas_calls": "pde.tridiagonal_solve",
               "cli.calls": "cli.main"}


def size_of(args):
    """Problem dimension of a call, read from its first sized argument."""
    for arg in args:
        if isinstance(arg, core.DenseOperator):
            return arg.domain.dim
        if isinstance(arg, np.ndarray) and arg.ndim:
            return arg.shape[0]
        n = getattr(arg, "n", None)
        if isinstance(n, int):
            return n
        stiffness = getattr(arg, "stiffness", None)
        if stiffness is not None:
            return stiffness.shape[0]
    return None


class Tracer:
    """Records spans of every traced call between ``install`` and ``uninstall``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, size]
        self._stack = []
        self._patches = self._plan()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        sized = any(name in names for names in GROUPS.values())

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    size_of(args) if sized else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        package = [m for name, m in sys.modules.items()
                   if name == "adjointkit" or name.startswith("adjointkit.")]
        names = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"adjointkit.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    names[obj] = f"{short}.{attr}"
        names[sys.modules["adjointkit.cli"].main] = "cli.main"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        patches = []
        for module in package:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((module, attr, obj, wrappers[obj]))
        methods = [m for m, v in vars(optim.ConstrainedProblem).items()
                   if inspect.isfunction(v) and not m.startswith("_")]
        for cls in PROBLEM_CLASSES:
            short = cls.__module__.rsplit(".", 1)[-1]
            for meth in methods:
                fn = getattr(cls, meth)
                patches.append((cls, meth, cls.__dict__.get(meth),
                                self._wrap(f"{short}.{cls.__name__}.{meth}", fn)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            if original is None:
                delattr(owner, attr)  # the method was inherited
            else:
                setattr(owner, attr, original)

    def take(self):
        """Return the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def job_summary(spans):
    """Aggregates of one traced job.

    Returns self seconds and calls by (span name, size), calls by span
    name, and the ratio counts, each measured where the work happens.
    """
    by_name = {}
    for (name, _, _, _, size), t in zip(spans, self_times(spans)):
        entry = by_name.setdefault((name, size), [0.0, 0])
        entry[0] += t
        entry[1] += 1
    count = Counter(span[0] for span in spans)

    def calls_under(names, ancestor):
        calls = 0
        for name, _, _, parent, _ in spans:
            if name in names:
                while parent >= 0 and spans[parent][0] != ancestor:
                    parent = spans[parent][3]
                calls += parent >= 0
        return calls

    ratios = {}
    if count["optim.gradient_descent"]:
        ratios["optim.objective_evals"] = calls_under(
            ("optim.reduced_gradient", "optim.reduced_objective"),
            "optim.gradient_descent") / count["optim.gradient_descent"]
    if count["network.train"]:
        ratios["network.sample_passes"] = calls_under(
            ("network.forward", "network.adjoint_pass"), "network.train") / count["network.train"]
    if count["stability.stability_verdict"]:
        ratios["stability.linearize_calls"] = (count["stability.linearize"]
                                               / count["stability.stability_verdict"])
    return by_name, count, ratios


def layer_metrics(summaries):
    """Per-layer metrics from ``(job_summary, correction)`` of each traced job.

    ``<stem>_ms`` is the per-call self time in milliseconds, corrected, as
    the median over jobs of (self time / calls) in the job.  A stem called
    at more than one size also gets ``<stem>_ms.n<size>``.  Counts are
    medians over jobs.
    """
    out = {}
    for stem, names in GROUPS.items():
        sizes = sorted({size for (by_name, _, _), _ in summaries
                        for (name, size) in by_name if name in names and size is not None})
        keys = [(f"{stem}_ms", None)]
        if len(sizes) > 1:
            keys += [(f"{stem}_ms.n{s}", s) for s in sizes]
        for metric, want in keys:
            per_job = []
            for (by_name, _, _), factor in summaries:
                total, calls = 0.0, 0
                for (name, size), (t, c) in by_name.items():
                    if name in names and (want is None or size == want):
                        total += t
                        calls += c
                if calls:
                    per_job.append(factor * total / calls)
            out[metric] = 1e3 * statistics.median(per_job) if per_job else 0.0
    for metric, name in CALL_COUNTS.items():
        out[metric] = statistics.median(count.get(name, 0) for (_, count, _), _ in summaries)
    for metric in ("optim.objective_evals", "network.sample_passes",
                   "stability.linearize_calls"):
        out[metric] = statistics.median(r.get(metric, 0) for (_, _, r), _ in summaries)
    return out
