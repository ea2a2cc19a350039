"""One measuring interpreter: repeat a workload's rounds for a time budget.

    python3 perfbench/measure.py --workload W --seed N --seconds S --trace 0|1 --index I

run.py starts these one after another, each a fresh interpreter, and
merges what they print: the last line of standard output is one JSON
object of raw samples.  A round is one study plus the workload's extra
set-up calls, with a calibration sample before every timed stage.  Round 0
of interpreter 0 uses the reference seed; every other round seeds from
``--seed``, the interpreter index and the round.  With ``--trace 1`` the
interpreter alternates untraced and traced studies at the reference seed
instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import NullTracer, Tracer, counts, instrumented, layer_metrics  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Ops, extra_setups, run_study  # noqa: E402


def round_seed(seed: int, index: int, rnd: int) -> int:
    if index == 0 and rnd == 0:
        return REFERENCE_SEED
    return (seed + 1) * 1_000_000 + index * 1_000 + rnd


def calibration_loop() -> None:
    """Fixed pure-Python work on a dict keyed by int tuples.

    It resembles the models' state tables but touches nothing of rarepath,
    so its time moves with the machine's speed and not with the code.
    """
    table: dict[tuple[int, int, int], float] = {}
    for i in range(20_000):
        key = (i % 97, i % 89, i)
        table[key] = table.get((i % 97, i % 89, i - 1), 0.0) + 1.0 / (1 + i % 7)


def run_rounds(seconds: float, one_round) -> None:
    """Call ``one_round(r)`` for r = 0, 1, ... while time is left.

    A round starts only if, at the median round time, it would end less
    than half a round past the deadline, so the time used is the budget
    rounded to the nearest whole round; at least one round runs.
    """
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while True:
        gc.collect()  # every round starts from a collected heap
        t0 = time.perf_counter()
        one_round(len(durations))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) / 2 > deadline:
            return


def samples(wl, seed: int, index: int, seconds: float, ops: Ops) -> dict:
    studies, setups, calibration = [], [], []

    def calibrate() -> None:
        # between every two timed stages, so that the samples follow the
        # machine's speed through the run
        t0 = time.perf_counter()
        calibration_loop()
        calibration.append(time.perf_counter() - t0)

    def one_round(rnd: int) -> None:
        calibrate()
        study = run_study(wl, round_seed(seed, index, rnd), ops, NullTracer(), calibrate)
        studies.append(study)
        setups.append(study.setup_s)
        setups.extend(extra_setups(wl, ops, calibrate))

    run_rounds(seconds, one_round)
    return {
        "study_s": [s.study_s for s in studies],
        "zva_s": [s.zva_s for s in studies],
        "setup_s": setups,
        "calibration_s": calibration,
        "reference_rel_hw": studies[0].zva_rel_hw if index == 0 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_samples(wl, seconds: float, ops: Ops) -> dict:
    """Per-layer metrics, overhead, and whether every traced study counted the same."""
    plain, traced, tracers = [], [], []

    def one_round(rnd: int) -> None:
        plain.append(run_study(wl, REFERENCE_SEED, ops, NullTracer()).study_s)
        extra_setups(wl, ops)
        tracer = Tracer()
        with instrumented(tracer):
            study = run_study(wl, REFERENCE_SEED, ops, tracer)
        extra_setups(wl, ops)
        traced.append(study.study_s)
        tracers.append((tracer, study.facts))

    run_rounds(seconds, one_round)
    tracers[-1][0].dump(HERE / "out" / f"trace-{wl.name}.json")
    per_study = [layer_metrics(t, facts) for t, facts in tracers]
    metrics = {k: statistics.median(m[k] for m in per_study) for k in per_study[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
    )
    first = counts(tracers[0][0])
    return {
        "metrics": metrics,
        "counts_repeat": all(counts(t) == first for t, _ in tracers),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--index", type=int, required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    ops = Ops()
    if args.trace:
        out = traced_samples(wl, args.seconds, ops)
    else:
        out = samples(wl, args.seed, args.index, args.seconds, ops)
    out["attempted"] = ops.attempted
    out["failures"] = ops.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
