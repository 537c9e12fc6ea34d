"""Smoke test of the benchmark's own code: every workload at tiny sizes.

Every check must pass except the two faults the workloads keep on
purpose, which must fail, and each report must carry every metric that
BENCHMARK.json declares.
"""

import io
import json

import numpy as np
import pytest

import harness
import workloads

TINY = {
    "inverse": lambda: workloads.Inverse(n_int=8, weighted=(8, 6, 4), n_sturm=10, modes=4),
    "control": lambda: workloads.Control(n_descent=15, descent_iters=5, n_fd=7, n_adv=8,
                                         samples=8, train_iters=5),
    "certify": lambda: workloads.Certify(seeded_sizes=(4,), fault_sizes=(32,)),
}
FAULTS = {
    "inverse": {"svd.graded12"},
    "control": set(),
    "certify": {"matrix.n32.hurwitz"},
}


def test_known_fault_inputs_do_not_depend_on_seed(tmp_path):
    inverse, certify = TINY["inverse"](), TINY["certify"]()
    made = [(inverse.make(np.random.default_rng(seed), str(tmp_path)),
             certify.make(np.random.default_rng(seed), str(tmp_path))) for seed in (1, 2)]
    (inv1, cert1), (inv2, cert2) = made
    assert np.array_equal(inv1["op_graded"].entries, inv2["op_graded"].entries)
    assert np.array_equal(cert1["matrices"][(32, True)][0], cert2["matrices"][(32, True)][0])
    assert not np.array_equal(cert1["matrices"][(4, True)][0], cert2["matrices"][(4, True)][0])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run(name, trace, tmp_path):
    end_to_end, per_layer = harness.metric_specs()
    workload = TINY[name]()
    buf = io.StringIO()
    harness.run_benchmark(workload, seed=3, seconds=0.0, trace=trace,
                          setup_reps=1, out=buf, out_dir=tmp_path)
    report = buf.getvalue()
    result = json.loads(report.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # every check passes except the known faults, and those fail on every job
    assert result["correct"] is True
    assert report.count("known fault") == len(FAULTS[name])
    assert all(f"known fault  {op}:" in report for op in FAULTS[name])
    ops = len(workload.ops(workload.make(np.random.default_rng(0), str(tmp_path))))
    assert result["failed"] * ops == result["attempted"] * len(FAULTS[name])
    declared = per_layer if trace else end_to_end
    assert set(result["metrics"]) == {spec["name"] for spec in declared}
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert np.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"])
