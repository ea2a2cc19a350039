"""The benchmark's three workloads: one study each, with its checks.

A study is what a user of rarepath does for one system: preprocess the
model, estimate pi with ``zva-delta``, compute a reference (the exact
oracle, an independent solve or the ``bfb`` baseline) and compare.  Every
estimate, solve and check is one operation; a check that fails is a failed
operation.  Each study performs the same operations whatever its seeds, so
the share of failed operations is a property of the code alone.

The tolerances of the estimate checks come from the spread of the
estimates over 20 to 40 seeds; README.md gives the figures.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from rarepath import exact
from rarepath.preproc import preprocess
from rarepath.sampling import Z_95, ChangeOfMeasure, run_estimator
from rarepath.zoo import make_dds, two_type_basic

#: pi(s) of DDS dedicated at eps = 0.01 from an external numerical solver,
#: the reference value of tests/test_zoo.py
DDS_DEDICATED_REFERENCE = 1.790e-5
DDS_DEDICATED_REFERENCE_REL = 5e-4

#: relative accuracy the oracle is held to, as in tests/test_exact.py
ORACLE_REL = 1e-9

#: zva-delta against a reference: at least six times the largest relative
#: deviation seen across seeds at the workload's path count (README.md)
ZVA_REL_TOL = {"dds-dedicated": 0.05, "redundancy": 0.10}

#: zva-delta against bfb on DDS fcfs: the difference may be this many
#: joint standard errors (README.md)
JOINT_SIGMAS = 6.0

REDUNDANCY = dict(k1=20, k2=20, c=1.0, epsilon=0.1)

#: seed of the reference round, whose zva-delta relative half-width
#: zva_time_to_1pct_s projects with
REFERENCE_SEED = 0

#: failures expected every time until the program is mended; counted in
#: ``failed`` without making the run incorrect
KNOWN_FAULTS = {
    # exact.py stops its sweeps relative to max(x), so pi(s) ~ 1e-19 far
    # below max(x) is never resolved (CHANGES.md, FOUND)
    "redundancy.oracle_vs_direct",
}


@dataclass
class Ops:
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def done(self) -> None:
        self.attempted += 1

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))


@dataclass
class StudyResult:
    study_s: float
    setup_s: float
    zva_s: float
    zva_rel_hw: float
    facts: dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    make_model: Callable
    zva_paths: int
    #: preprocess calls per round; setup_s is their median over the run
    setup_repeats: int
    #: measuring interpreters per run, each with an equal share of the time
    processes: int
    reference: Callable


def _rel_var(est) -> float:
    return est.n_runs * (est.ci_half_width / Z_95 / est.mean) ** 2


def _fcfs_reference(model, res, zva, seed, ops, tracer, facts):
    with tracer.span("estimate.bfb"):
        bfb = run_estimator(model, ChangeOfMeasure("bfb"), n_runs=20_000, seed=seed)
    ops.done()
    with tracer.span("check"):
        sigma = math.hypot(zva.ci_half_width, bfb.ci_half_width) / Z_95
        ops.check(
            "dds-fcfs.zva_vs_bfb",
            abs(zva.mean - bfb.mean) <= JOINT_SIGMAS * sigma,
            f"zva {zva.mean:.4e} bfb {bfb.mean:.4e} joint sigma {sigma:.2e}",
        )
        ops.check(
            "dds-fcfs.p_delta_below_zva",
            res.p_delta <= zva.mean + zva.ci_half_width,
            f"p_delta {res.p_delta:.4e} zva {zva.mean:.4e} +- {zva.ci_half_width:.2e}",
        )


def _oracle(model, tracer, facts) -> float:
    with tracer.span("exact"):
        pi, values = exact.exact_hitting_probability(model)
    facts["exact_states"] = len(values)
    return pi


def _dedicated_reference(model, res, zva, seed, ops, tracer, facts):
    pi = _oracle(model, tracer, facts)
    ops.done()
    with tracer.span("check"):
        ops.check(
            "dds-dedicated.oracle_vs_reference",
            abs(pi / DDS_DEDICATED_REFERENCE - 1.0) <= DDS_DEDICATED_REFERENCE_REL,
            f"oracle {pi:.6e} reference {DDS_DEDICATED_REFERENCE:.4e}",
        )
        ops.check(
            "dds-dedicated.zva_vs_oracle",
            abs(zva.mean / pi - 1.0) <= ZVA_REL_TOL["dds-dedicated"],
            f"zva {zva.mean:.6e} oracle {pi:.6e}",
        )


def two_type_direct(k1: int, k2: int, c: float, epsilon: float) -> float:
    """pi(s) of the two-type dedicated-repair system by one sparse LU solve.

    Written from the model's definition, not from rarepath: state (i, j)
    counts failed components; type 1 fails at rate c*eps, type 2 at eps,
    each type with a failure is repaired at rate 1; the system is down
    when i = k1 or j = k2 and regenerates on returning to (0, 0).
    """
    n = k1 * k2
    rows, cols, vals = [], [], []
    b = np.zeros(n)
    for i in range(k1):
        for j in range(k2):
            x = i * k2 + j
            moves = [(i + 1, j, c * epsilon), (i, j + 1, epsilon)]
            if i:
                moves.append((i - 1, j, 1.0))
            if j:
                moves.append((i, j - 1, 1.0))
            total = sum(rate for _, _, rate in moves)
            rows.append(x)
            cols.append(x)
            vals.append(1.0)
            for a, bb, rate in moves:
                if a == k1 or bb == k2:
                    b[x] += rate / total
                elif a or bb:  # (0, 0) is the regeneration state: pi = 0
                    rows.append(x)
                    cols.append(a * k2 + bb)
                    vals.append(-rate / total)
    return float(spsolve(csc_matrix((vals, (rows, cols)), shape=(n, n)), b)[0])


def _redundancy_reference(model, res, zva, seed, ops, tracer, facts):
    with tracer.span("direct_solve"):
        direct = two_type_direct(**REDUNDANCY)
    ops.done()
    pi = _oracle(model, tracer, facts)
    ops.done()
    with tracer.span("check"):
        ops.check(
            "redundancy.zva_vs_direct",
            abs(zva.mean / direct - 1.0) <= ZVA_REL_TOL["redundancy"],
            f"zva {zva.mean:.6e} direct {direct:.6e}",
        )
        ops.check(
            "redundancy.oracle_vs_direct",
            abs(pi / direct - 1.0) <= ORACLE_REL,
            f"oracle {pi:.6e} direct {direct:.6e}",
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dds-fcfs", lambda: make_dds("fcfs", 0.01), 50_000, 2, 3, _fcfs_reference
        ),
        Workload(
            "dds-dedicated", lambda: make_dds("dedicated", 0.01), 300_000, 5, 2,
            _dedicated_reference,
        ),
        Workload(
            "redundancy",
            lambda: two_type_basic(**REDUNDANCY),
            40_000, 20, 3, _redundancy_reference,
        ),
    )
}


def _no_pause() -> None:
    pass


def run_study(wl: Workload, seed: int, ops: Ops, tracer, pause=_no_pause) -> StudyResult:
    """One study: set-up, the zva-delta estimate, the reference, the checks.

    ``seed`` seeds every estimator of the study.  ``pause()`` runs between
    the three stages, outside the timed regions; the study's time is the
    sum of the stages' times.
    """
    facts: dict[str, float] = {}
    with tracer.span("study"):
        t0 = time.perf_counter()
        model = tracer.model(wl.make_model())
        with tracer.span("preprocess"):
            res = preprocess(model)
        setup_s = time.perf_counter() - t0
        ops.done()
        report = res.report()
        for key in ("states_discovered", "lambda_size", "gamma_size"):
            facts[key] = report[key]
        com = ChangeOfMeasure("zva-delta", result=res, epsilon=model.epsilon)
        pause()
        t1 = time.perf_counter()
        with tracer.span("estimate.zva-delta"):
            zva = run_estimator(model, com, n_runs=wl.zva_paths, seed=seed)
        zva_s = time.perf_counter() - t1
        ops.done()
        facts["rel_var"] = _rel_var(zva)
        pause()
        t2 = time.perf_counter()
        wl.reference(model, res, zva, seed, ops, tracer, facts)
        reference_s = time.perf_counter() - t2
    study_s = setup_s + zva_s + reference_s
    return StudyResult(study_s, setup_s, zva_s, zva.rel_half_width, facts)


def extra_setups(wl: Workload, ops: Ops, pause=_no_pause) -> list[float]:
    """The round's preprocess calls beyond the study's own, each timed."""
    times = []
    for _ in range(wl.setup_repeats - 1):
        pause()
        t0 = time.perf_counter()
        model = wl.make_model()
        preprocess(model)
        times.append(time.perf_counter() - t0)
        ops.done()
    return times
