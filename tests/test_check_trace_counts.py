"""The CI check of a traced benchmark run's per-layer counts.

``.github/check_trace_counts.py`` reads the last line of a traced run on
stdin.  Here it is fed a line built from its own expected counts, so no
benchmark runs.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

CHECKER = Path(__file__).parents[1] / ".github" / "check_trace_counts.py"
CHECK = runpy.run_path(str(CHECKER))


def check(workload, counts):
    """Exit code and stderr of the checker on a last line with ``counts``."""
    line = {"metrics": {key: {"value": v} for key, v in zip(CHECK["KEYS"], counts)}}
    proc = subprocess.run(
        [sys.executable, str(CHECKER), workload], input=json.dumps(line),
        capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("workload", sorted(CHECK["EXPECTED"]))
def test_expected_counts_pass(workload):
    assert check(workload, CHECK["EXPECTED"][workload]) == (0, "")


def test_a_moved_count_fails_naming_its_key():
    counts = list(CHECK["EXPECTED"]["redundancy"])
    steps = CHECK["KEYS"].index("sampling.steps")
    counts[steps] += 1
    code, err = check("redundancy", counts)
    assert code == 1
    assert err == f"redundancy sampling.steps: {counts[steps]} != {counts[steps] - 1}\n"
