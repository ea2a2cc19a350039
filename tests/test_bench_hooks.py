"""The library hooks that the benchmark's traced run relies on.

``perfbench/tracing.py`` patches ``Sampler.sample`` on the class and reads
each returned path, wraps the preprocessing phases and the oracle's sweep
by their module names, and divides by the time spent in them.  A study
traced on a small model must therefore count every path, step, cycle
removal and sweep, and give finite per-layer figures.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

from rarepath.zoo import two_type_basic, two_type_deferred  # noqa: E402

PATHS = 300


def test_traced_study_counts_every_layer():
    # two_type_deferred has cycle removal; the DDS checks fail on it and
    # are only counted
    wl = workloads.Workload(
        "deferred", lambda: two_type_deferred(epsilon=0.1), PATHS, 1, 1,
        workloads._dedicated_reference,
    )
    ops = workloads.Ops()
    with tracing.instrumented(tracing.Tracer()) as tracer:
        study = workloads.run_study(wl, 0, ops, tracer)
    layers = tracing.layer_metrics(tracer, study.facts)
    assert layers["sampling.paths"] == PATHS
    assert layers["sampling.steps"] > 0
    assert layers["preproc.loop_detect_calls"] >= 1
    assert layers["exact.sweeps"] >= 1
    assert all(math.isfinite(value) for value in layers.values()), layers


def test_traced_redundancy_study_counts_paths_that_leave_lambda():
    """On the redundancy model paths leave Lambda, which the bench counts
    in ``sampling.left_lambda_paths``; seed 0 gives fixed counts."""
    wl = workloads.Workload(
        "redundancy", lambda: two_type_basic(**workloads.REDUNDANCY), PATHS, 1, 1,
        workloads._redundancy_reference,
    )
    ops = workloads.Ops()
    with tracing.instrumented(tracing.Tracer()) as tracer:
        study = workloads.run_study(wl, 0, ops, tracer)
    layers = tracing.layer_metrics(tracer, study.facts)
    assert layers["sampling.paths"] == PATHS
    assert layers["sampling.left_lambda_paths"] == 74
    assert layers["sampling.steps"] == 9880
    assert ops.failures == []
