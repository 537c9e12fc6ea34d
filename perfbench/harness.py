"""Closed-loop runner: set-up, timed jobs, host-drift correction, report.

One client, one thread: each job starts when the previous one and its
checks are done.  A fixed calibration kernel is timed before the first
operation of every job and after every stretch of operations that took
at least ``SEGMENT_S``.  Each stretch is scaled by ``REF_CALIB_S / mean
(calibration before, calibration after)``, so that a slower or faster
host moment does not read as a slower or faster program.  Raw figures
are printed alongside the corrected ones.
"""

import argparse
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# median calibration time on the reference host (2 vCPU, OpenBLAS pinned
# to one thread); corrected times read as if measured at that speed
REF_CALIB_S = 0.007
# the host changes speed within a second, so calibration runs between
# operations as well as between jobs
SEGMENT_S = 0.1
SETUP_REPS = 3


def metric_specs():
    """(end_to_end, per_layer) metric declarations of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


class Calibration:
    """Fixed kernel resembling the program's mix of work.

    A pure-Python loop, many small NumPy calls and a dense matmul.  It is
    benchmark code only, so no change to the program can move it.
    """

    def __init__(self):
        self.mat = np.random.default_rng(0).standard_normal((160, 160)) / 160.0
        self.samples = []
        # the first samples of a fresh process run slow; they are not kept
        self.block(5)
        self.samples.clear()

    def sample(self):
        start = time.perf_counter()
        acc = 0.0
        for i in range(40000):
            acc += (i % 7) * 0.5
        v = np.linspace(0.0, 1.0, 16)
        for _ in range(400):
            v = np.tanh(v * 0.9) + 0.01
        m = self.mat
        for _ in range(6):
            m = self.mat @ m
        self.samples.append(time.perf_counter() - start)
        return acc + float(v.sum() + m[0, 0])

    def block(self, reps=3):
        """Median of ``reps`` fresh samples."""
        for _ in range(reps):
            self.sample()
        return statistics.median(self.samples[-reps:])


def import_seconds():
    """Wall time of a fresh interpreter that imports the program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import adjointkit.cli"], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_job(ops, calib):
    """Run one job's operations in order, with calibration blocks between them.

    A block runs before the first operation, after every stretch of
    operations that took at least ``SEGMENT_S`` and after the last one.
    Each stretch is corrected by the mean of the blocks around it.  Returns
    the results, the errors, and the raw and corrected seconds of the job.
    """
    results, errors = {}, {}
    raw = corrected = 0.0
    before = calib.block()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            results[op.name] = op.call(results)
        except Exception as exc:  # a failed operation must not stop the run
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        stretch = time.perf_counter() - start
        if stretch >= SEGMENT_S or i == len(ops) - 1:
            after = calib.block()
            raw += stretch
            corrected += stretch * REF_CALIB_S / (0.5 * (before + after))
            before = after
            start = time.perf_counter()
    return results, errors, raw, corrected


def check_job(inst, ops, results, errors):
    """Outcome per operation: None when right, else what went wrong."""
    outcome = {}
    for op in ops:
        if op.name in errors:
            outcome[op.name] = errors[op.name]
            continue
        try:
            outcome[op.name] = op.check(inst, results)
        except Exception as exc:  # a check that cannot read the output fails it
            outcome[op.name] = f"check raised {type(exc).__name__}: {exc}"
    return outcome


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calib = Calibration()
        self.unexpected = []  # (job, op, message)
        self.fault_seen = {}

    def job(self, key, tracer=None):
        """Make one instance, run its job and check the outputs.

        Returns the seconds spent making the instance, the raw and
        corrected job seconds, and the operations attempted and failed.
        """
        start = time.perf_counter()
        inst = self.workload.make(np.random.default_rng([self.seed, *key]), self.workdir)
        ops = self.workload.ops(inst)
        make_s = time.perf_counter() - start
        if tracer is not None:
            tracer.install()
        try:
            results, errors, raw_s, corr_s = run_job(ops, self.calib)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = check_job(inst, ops, results, errors)
        failed = 0
        for op in ops:
            message = outcome[op.name]
            if message is None:
                continue
            failed += 1
            if op.known_fault:
                self.fault_seen[op.name] = message
            else:
                self.unexpected.append((key, op.name, message))
        return make_s, raw_s, corr_s, len(ops), failed


def run_benchmark(workload, seed, seconds, trace, setup_reps=SETUP_REPS,
                  out=sys.stdout, out_dir=OUT):
    """Run one workload and print the report; return the result object.

    CLI input files live in ``out_dir`` while the run lasts; a traced run
    leaves its spans there.
    """
    end_to_end, per_layer = metric_specs()
    out_dir = Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    workdir = out_dir / f"inputs-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    run = Run(workload, seed, str(workdir))
    setups = []  # (raw s, corrected s) of imports, inputs and one job
    jobs = []  # (raw s, corrected s, traced, spans)
    attempted = failed = 0
    try:
        for rep in range(setup_reps):
            imports_s = import_seconds()
            make_s, raw_s, corr_s, _, _ = run.job((1, rep))
            # imports and inputs take the correction of the job right after them
            setups.append((imports_s + make_s + raw_s,
                           (imports_s + make_s) * corr_s / raw_s + corr_s))
        deadline = time.perf_counter() + seconds
        # trace runs alternate traced and untraced jobs; the difference
        # of their medians is the tracing overhead
        while len(jobs) < (2 if trace else 1) or time.perf_counter() < deadline:
            traced = trace and len(jobs) % 2 == 0
            _, raw_s, corr_s, ops, bad = run.job((0, len(jobs)), tracer if traced else None)
            attempted += ops
            failed += bad
            spans = tracer.take() if traced else None
            jobs.append((raw_s, corr_s, traced, spans))
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    plain = [job for job in jobs if not job[2]]
    traced_jobs = [job for job in jobs if job[2]]
    raw = {
        "job_p50_ms": 1e3 * statistics.median(job[0] for job in plain),
        "jobs_per_s": len(plain) / sum(job[0] for job in plain),
        "setup_s": statistics.median(raw_s for raw_s, _ in setups),
        "calib_ms": 1e3 * statistics.median(run.calib.samples),
    }
    job_p50_ms = 1e3 * statistics.median(job[1] for job in plain)
    if trace:
        summaries = [(tracing.job_summary(spans), corr / raw_s)
                     for raw_s, corr, _, spans in traced_jobs]
        metrics = tracing.layer_metrics(summaries)
        metrics["host.calib_ms"] = raw["calib_ms"]
        metrics["trace.job_p50_ms"] = 1e3 * statistics.median(job[1] for job in traced_jobs)
        metrics["trace.overhead_ms"] = metrics["trace.job_p50_ms"] - job_p50_ms
        declared = per_layer
        _write_trace(out_dir / f"trace-{workload.name}-seed{seed}.json.gz",
                     workload.name, seed, traced_jobs)
    else:
        metrics = {
            "setup_s": statistics.median(corr for _, corr in setups),
            "jobs_per_s": len(plain) / sum(job[1] for job in plain),
            "job_p50_ms": job_p50_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = end_to_end

    correct = not run.unexpected
    for i, (raw_s, corr, traced, _) in enumerate(jobs):
        print(f"job {i} traced {int(traced)} raw_ms {1e3 * raw_s:.3f} "
              f"corrected_ms {1e3 * corr:.3f}", file=out)
    print(f"workload {workload.name}  seed {seed}  trace {int(trace)}  jobs {len(jobs)} "
          f"(untraced {len(plain)}, traced {len(traced_jobs)})", file=out)
    print(f"operations attempted {attempted}  failed {failed}  correct {correct}", file=out)
    for name, message in sorted(run.fault_seen.items()):
        print(f"  known fault  {name}: {message}", file=out)
    for key, name, message in run.unexpected[:20]:
        print(f"  WRONG  job {key} {name}: {message}", file=out)
    print(f"raw: job_p50_ms {raw['job_p50_ms']:.3f}  jobs_per_s {raw['jobs_per_s']:.4f}  "
          f"setup_s {raw['setup_s']:.4f}  calib_ms {raw['calib_ms']:.4f}", file=out)
    print("set-up runs (raw s / corrected s): "
          + "  ".join(f"{raw_s:.4f}/{corr:.4f}" for raw_s, corr in setups), file=out)
    if trace:
        _print_breakdown(summaries, out)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
    for spec in declared:
        value = float(metrics.get(spec["name"], 0.0))
        result["metrics"][spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']} = {value:.6g} {spec['unit']}", file=out)
    undeclared = sorted(set(metrics) - {spec["name"] for spec in declared})
    if undeclared:
        print(f"  measured but not declared in BENCHMARK.json: {undeclared}", file=out)
    print(json.dumps(result), file=out)
    return result


def _print_breakdown(summaries, out, top=15):
    """Self time per traced job by span name, largest first (corrected)."""
    totals = {}
    for (by_name, _, _), factor in summaries:
        for (name, _), (t, calls) in by_name.items():
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += factor * t
            entry[1] += calls
    jobs = len(summaries)
    print(f"self time per traced job (corrected, mean of {jobs} jobs):", file=out)
    for name, (t, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0])[:top]:
        print(f"  {1e3 * t / jobs:10.3f} ms  {calls / jobs:9.1f} calls  {name}", file=out)


def _write_trace(path, name, seed, traced_jobs):
    """All spans of the traced jobs, times in microseconds from job start."""
    jobs = []
    for raw_s, corr, _, spans in traced_jobs:
        t0 = spans[0][1] if spans else 0.0
        jobs.append({"raw_s": raw_s, "corrected_s": corr,
                     "spans": [[s[0], round(1e6 * (s[1] - t0), 1),
                                round(1e6 * (s[2] - t0), 1), s[3], s[4]] for s in spans]})
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed,
                   "span_fields": ["name", "start_us", "end_us", "parent", "size"],
                   "jobs": jobs}, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]()
    run_benchmark(workload, args.seed, args.seconds, bool(args.trace))
    return 0
