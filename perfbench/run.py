"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dds-fcfs --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; rarepath is imported from its ``src``.
The run's time is split between a few fresh, single-threaded interpreters
started one after another (measure.py), so that the medians also average
over the hash seeds and memory layouts of several processes, which move
a study's time by several percent from one process to the next.

``--trace 0`` prints the end-to-end metrics.  Their times are medians
scaled by CALIBRATION_REF_S / (median time of a fixed calibration loop
sampled between the timed stages of the same run), because this
machine's speed drifts by more than any usable bound (README.md).
``zva_time_to_1pct_s`` projects the median ``zva-delta`` sampling time
with the relative CI half-width of the reference round, whose seed is
fixed, so the metric moves with the code and not with ``--seed``.
``--trace 1`` runs one interpreter that alternates untraced and traced
studies and prints the per-layer metrics, unscaled.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: a run must end within this many seconds, measuring included
RUN_LIMIT_S = 170.0

#: time of measure.calibration_loop that the reported times are scaled to
CALIBRATION_REF_S = 0.015

END_TO_END_UNITS = {
    "setup_s": "s",
    "zva_time_to_1pct_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "model.successors_calls": "count",
    "model.successors_s": "s",
    "model.predicate_calls": "count",
    "model.predicate_s": "s",
    "preproc.forward_s": "s",
    "preproc.backward_s": "s",
    "preproc.loop_detect_calls": "count",
    "preproc.loop_detect_s": "s",
    "preproc.states_discovered": "count",
    "preproc.lambda_size": "count",
    "preproc.gamma_size": "count",
    "sampling.paths": "count",
    "sampling.steps": "count",
    "sampling.sample_s": "s",
    "sampling.steps_per_s": "1/s",
    "sampling.paths_per_s": "1/s",
    "sampling.left_lambda_paths": "count",
    "sampling.rows_expanded": "count",
    "sampling.rel_var": "ratio",
    "sampling.bfb_paths_per_s": "1/s",
    "exact.s": "s",
    "exact.states": "count",
    "exact.sweeps": "count",
    "exact.solve_s": "s",
    "trace.overhead_pct": "%",
}


def measure(args, index: int, seconds: float, deadline: float) -> dict:
    """Run one measuring interpreter and return what it printed."""
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace), "--index", str(index),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"measuring interpreter {index} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(parts: list[dict]) -> tuple[dict[str, float], float]:
    """The metrics with times scaled to the calibration speed, and the scale."""
    def pooled(key):
        return [x for part in parts for x in part[key]]

    scale = CALIBRATION_REF_S / statistics.median(pooled("calibration_s"))
    rel_hw = parts[0]["reference_rel_hw"]
    return {
        "setup_s": scale * statistics.median(pooled("setup_s")),
        "zva_time_to_1pct_s": scale * statistics.median(pooled("zva_s")) * (rel_hw / 0.01) ** 2,
        "total_s": scale * statistics.median(pooled("study_s")),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }, scale


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    sys.path.insert(0, str(HERE.parent / "src"))
    try:
        from workloads import KNOWN_FAULTS, WORKLOADS
    except ImportError as exc:
        print(f"cannot import rarepath from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in [1, 120]")
    wl = WORKLOADS[args.workload]
    # one thread per interpreter: numpy's BLAS reads these when imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    (HERE / "out").mkdir(exist_ok=True)

    n = 1 if args.trace else wl.processes
    parts = []
    end = time.monotonic() + args.seconds
    for i in range(n):
        # the time left, shared by the interpreters still to run, so that
        # one interpreter's overrun or underrun is evened out by the next
        share = max((end - time.monotonic()) / (n - i), 0.0)
        parts.append(measure(args, i, share, deadline))
    failures = [tuple(f) for part in parts for f in part["failures"]]
    correct = all(name in KNOWN_FAULTS for name, _ in failures)
    if args.trace:
        values, units = parts[0]["metrics"], PER_LAYER_UNITS
        if not parts[0]["counts_repeat"]:
            correct = False
            print("traced studies counted different calls", file=sys.stderr)
    else:
        values, scale = end_to_end(parts)
        units = END_TO_END_UNITS
        print(
            f"{wl.name} times scaled by {scale:.4f}: the calibration loop took "
            f"{1000 * CALIBRATION_REF_S / scale:.3f} ms against {1000 * CALIBRATION_REF_S:.0f} ms"
        )
    details = dict(failures)
    for name, times in sorted(Counter(name for name, _ in failures).items()):
        print(f"FAILED {name} ({times}x): {details[name]}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for name, m in metrics.items():
        print(f"{wl.name} {name} {m['value']:.6g} {m['unit']}")
    attempted = sum(part["attempted"] for part in parts)
    print(f"{wl.name} operations attempted {attempted} failed {len(failures)}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
