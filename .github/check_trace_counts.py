"""Check the per-layer counts of a traced benchmark run against their expected values.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload redundancy --seed 0 --seconds 1 --trace 1 \
        | tail -n 1 | python3 .github/check_trace_counts.py redundancy

Every traced study runs at the reference seed, so these counts are fixed by
the code alone; a change that moves one must say why and update it here.
A run with more than one traced study prints medians as floats, so the
values are compared as numbers.  Exits 1, naming each count that differs.
"""

import json
import sys

KEYS = (
    "model.successors_calls", "model.predicate_calls", "preproc.loop_detect_calls",
    "preproc.states_discovered", "preproc.lambda_size", "preproc.gamma_size",
    "sampling.paths", "sampling.steps", "sampling.left_lambda_paths",
    "sampling.rows_expanded", "exact.states", "exact.sweeps",
)

#: workload -> the counts of KEYS, in order
EXPECTED = {
    "redundancy": (761, 1_463, 0, 247, 230, 18, 40_000, 1_288_812, 9_975, 114, 400, 80),
    "dds-dedicated": (901, 4_735, 0, 541, 172, 370, 300_000, 657_352, 6_573, 360, 32_768, 20),
    "dds-fcfs": (35_526, 93_427, 24, 4_660, 557, 4_104, 50_000, 175_611, 4_893, 966, 0, 0),
}


def main() -> int:
    workload = sys.argv[1]
    metrics = json.loads(sys.stdin.read())["metrics"]
    wrong = [
        f"{key}: {metrics[key]['value']} != {want}"
        for key, want in zip(KEYS, EXPECTED[workload], strict=True)
        if metrics[key]["value"] != want
    ]
    for line in wrong:
        print(f"{workload} {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
