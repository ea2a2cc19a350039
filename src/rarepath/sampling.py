"""Importance-sampling measures, path sampling, and estimators.

Measures
--------
* ``mc``: plain Monte Carlo (original chain).
* ``bfb``: balanced failure biasing; failure transitions (order > 0) share
  probability p = FAILURE_SHARE, repairs (order 0) share 1 - p, each
  uniformly.
* ``igbs``: interval-guided balanced sampling; as bfb, but after an
  order-0 step the failure share drops to IGBS_DELTA (< p), which keeps
  high-probability cycles from soaking up sampling budget.
* ``zva-dbar``: zero-variance approximation with v(x) = eps**d(x, g).
* ``zva-delta``: zero-variance approximation with v(x) = the dominant-path
  probability from preprocessing.

The ZVA measures act on the reduced chain while the path remains inside
Lambda; on first exit the original dynamics take over with per-step
likelihood ratio 1.  Frontier states carry the values that preprocessing
resolved from their own rows, which are positive whenever the goal is
reachable from them, so leaving Lambda is never starved of probability.

Estimators
----------
* ``plain``:    mean of L * 1[hit goal].
* ``plus``:     P(dominant) + mean of L over non-dominant goal hits,
                averaged over all N runs.
* ``plusplus``: P(dominant) + Q(non-dominant) * Y, where Y averages L over
                the M non-dominant runs only; its variance uses the
                conditional decomposition Q(Psi) * Var(L | Psi) / N.

A ``Sampler`` builds once the constants every path reads and compiles each
state's step on first visit: one list index, one bisect and one multiply
per step.  Replications are split across deterministic per-worker RNG
streams and the partial moments are merged in stream order, so results
depend only on (seed, workers), not on scheduling.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import Sequence

from rarepath.errors import ConfigError, ConvergenceError
from rarepath.model import UNSEEN, Chain, MarkovModel, Row
from rarepath.orders import INFINITY
from rarepath.preproc import PreprocessResult

Z_95 = 1.959963984540054  # two-sided 95% normal quantile
_TINY = math.ulp(0.0)  # smallest positive float

MEASURES = ("mc", "bfb", "igbs", "zva-dbar", "zva-delta")
ZVA_MEASURES = ("zva-dbar", "zva-delta")
VARIANTS = ("plain", "plus", "plusplus")
#: bfb/igbs: probability share of the failure transitions
FAILURE_SHARE = 0.5
#: igbs: the failure share after an order-0 step
IGBS_DELTA = 1.0 / 100.0


@dataclass(frozen=True)
class ChangeOfMeasure:
    """A simulation measure, possibly backed by preprocessing output."""

    kind: str
    result: PreprocessResult | None = None
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MEASURES:
            raise ConfigError(f"unknown measure {self.kind!r}")
        if self.is_zva:
            if self.result is None:
                raise ConfigError(f"{self.kind} requires preprocessing output")
            if self.kind == "zva-dbar" and not (
                self.epsilon is not None and 0.0 < self.epsilon < 1.0
            ):
                raise ConfigError("zva-dbar needs the model epsilon")

    @property
    def is_zva(self) -> bool:
        return self.kind in ZVA_MEASURES

    @property
    def is_igbs(self) -> bool:
        return self.kind == "igbs"

    @cached_property
    def values(self) -> dict[int, float]:
        """v per chain index over Lambda + Gamma; absent indices have v = 0."""
        res = self.result
        if self.kind == "zva-delta":
            return res.v_delta
        return {
            idx: self.epsilon**d for idx, d in res.d_backward.items() if d != INFINITY
        }

    def distribution(self, row: Row, context: bool) -> Sequence[float]:
        """q over one row of the chain.

        ``context`` flags the measure's state dependence: for igbs it is
        "previous step had order 0", for ZVA it is "still inside Lambda",
        where q reads the row's targets (which must be classified).
        Without a change, or where every target has value 0, q is p.
        """
        targets, probs, orders = row
        if self.kind in ("bfb", "igbs"):
            return _bfb_distribution(orders, IGBS_DELTA if context else FAILURE_SHARE)
        if context and self.is_zva:
            values = self.values
            q = zva_distribution(probs, [values.get(z, 0.0) for z in targets])
            if q is not None:
                return q
        return probs


@dataclass
class PathSample:
    hit_goal: bool
    likelihood: float
    order_sum: int
    steps: int
    left_lambda: bool
    dominant: bool
    #: optional per-step log of (state, target, p, q, order), states as
    #: chain indices
    trajectory: list[tuple[int, int, float, float, int]] | None = None


#: one state's compiled step (cumulative q, targets, p/q, orders), listed by state
Step = tuple[array, list[int], array, tuple[int, ...]]


def _bfb_distribution(orders: Sequence[int], share: float) -> list[float]:
    """Failure transitions share ``share``, repairs share the rest."""
    n_f = sum(1 for r in orders if r > 0)
    n_r = len(orders) - n_f
    if n_f == 0:
        return [1.0 / n_r] * n_r
    if n_r == 0:
        return [1.0 / n_f] * n_f
    return [share / n_f if r > 0 else (1.0 - share) / n_r for r in orders]


def zva_distribution(
    probs: Sequence[float], values: Sequence[float]
) -> list[float] | None:
    """q_i proportional to p_i * v(target_i).

    Returns None when every successor has value 0 (the caller falls back
    to the original probabilities, keeping the measure well-defined).
    Where the product p_i * v_i or the quotient underflows to 0 although
    p_i > 0 and v_i > 0, q_i is raised to the smallest positive float, so
    no such transition drops out of the support (which would bias the
    estimator).
    """
    support = [p > 0.0 and v > 0.0 for p, v in zip(probs, values)]
    if not any(support):
        return None
    weights = [p * v for p, v in zip(probs, values)]
    # summed left to right, as in model.embedded_row
    total = reduce(add, weights, 0.0)
    q = [w / total if total > 0.0 else 0.0 for w in weights]
    if any(live and qi == 0.0 for live, qi in zip(support, q)):
        q = [max(qi, _TINY) if live else 0.0 for live, qi in zip(support, q)]
        norm = reduce(add, q, 0.0)
        q = [qi / norm for qi in q]
    return q


class Sampler:
    """Draws regeneration-cycle paths under a change of measure.

    Walks the chain in index space: the ZVA measures read the
    preprocessing result's chain (with its cycle-removal rows), the others
    a chain of their own over the model's rows.  The constants every path
    reads are built once per sampler.  Compiles each state's sampling step
    once per context into a list indexed by state, and grows its chain as
    paths reach new states, so it is not thread-safe; worker processes get
    their own copy of the result.
    """

    def __init__(self, model: MarkovModel, com: ChangeOfMeasure):
        self.com = com
        res = self.result = com.result
        is_zva = com.is_zva
        chain = self.chain = res.chain if is_zva else Chain(model)
        #: compiled steps by state index, one list per context value; None
        #: (or an index past the end) marks a state not compiled yet
        self._steps: tuple[list[Step | None], list[Step | None]] = ([], [])
        self._shared: dict[bytes, array] = {}
        #: bfb/igbs: cumulative q per (orders, context), all that q reads
        self._cums: dict[tuple[tuple[int, ...], bool], array] = {}
        #: what every path reads, unpacked by ``sample`` in one load
        self._consts = (
            chain, self._steps, chain.goal_index, chain.taboo_index, is_zva,
            com.is_igbs, res.lambda_indices if is_zva else frozenset(),
            res.d_sg if is_zva else None, chain.s_index,
        )

    def _compile(self, idx: int, context: bool) -> Step:
        """The state's sampling step: cumulative q, targets, p/q, orders.

        ``context`` is as in ``ChangeOfMeasure.distribution``.  p/q is
        taken over the width of each interval of the cumulative q; an
        interval of width 0 is never drawn and gets ratio 0.
        """
        # only the ZVA values read the targets
        resolve = self.chain.row if context and self.com.is_zva else self.chain.fetch
        row = resolve(idx)
        targets, probs, orders = row
        shared = self._shared
        key = (orders, context) if self.com.kind in ("bfb", "igbs") else None
        cum = self._cums.get(key)
        if cum is None:
            cum = array("d", accumulate(self.com.distribution(row, context)))
            cum[-1] = 1.0  # guard against round-off at the top end
            cum = shared.setdefault(cum.tobytes(), cum)
            if key is not None:
                self._cums[key] = cum
        ratios = array("d", [
            p / w if (w := hi - lo) > 0.0 else 0.0
            for p, lo, hi in zip(probs, [0.0, *cum], cum)
        ])
        # rows with equal arrays share one
        ratios = shared.setdefault(ratios.tobytes(), ratios)
        table = self._steps[context]
        if len(table) <= idx:  # cover every state the chain has indexed
            table.extend([None] * (len(self.chain) - len(table)))
        step = table[idx] = (cum, targets, ratios, orders)
        return step

    def sample(
        self, rng: random.Random, record: bool = False, max_steps: int = 10_000_000
    ) -> PathSample:
        """One path from s into g or t; ``perfbench`` times each call."""
        chain, tables, goal, taboo, is_zva, igbs, lambda_set, d_sg, state = self._consts
        draw = rng.random
        likelihood, order_sum, left_lambda = 1.0, 0, False
        # igbs starts after no order-0 step, ZVA with importance sampling on
        context = is_zva
        table = tables[context]
        trajectory: list | None = [] if record else None
        for steps in range(1, max_steps + 1):
            try:
                step = table[state]
            except IndexError:  # indexed after the table last grew
                step = None
            cum, targets, ratios, orders = step or self._compile(state, context)
            i = bisect_right(cum, draw())
            likelihood *= ratios[i]
            order = orders[i]
            order_sum += order
            target = targets[i]
            if target == UNSEEN:
                target = chain.target(state, i)
            if record:
                q_i = cum[i] - (cum[i - 1] if i else 0.0)
                trajectory.append((state, target, chain.fetch(state)[1][i], q_i, order))
            if target == goal or target == taboo:
                hit = target == goal
                dominant = hit and is_zva and not left_lambda and order_sum == d_sg
                return PathSample(
                    hit, likelihood, order_sum, steps, left_lambda, dominant, trajectory
                )
            if igbs:
                context = order == 0
                table = tables[context]
            elif context and target not in lambda_set:
                left_lambda, context = True, False  # original dynamics from here
                table = tables[False]
            state = target
        raise ConvergenceError("path exceeded the step cap")


def compute_q_delta(com: ChangeOfMeasure) -> float:
    """Probability that a sampled path is dominant, under the measure.

    The backward phase's recursion for v with q in place of p: w(g) = 1
    and w(x) sums q(x, z) * w(z) over the dominant edges (x, z) that
    preprocessing kept, evaluated over Lambda in backward processing
    order; returns w(s).  A dominant path from s has order d(s, g) in
    total, so it never leaves Lambda, and w = 0 everywhere else.
    """
    if not com.is_zva:
        raise ConfigError("dominance probability requires a ZVA measure")
    res = com.result
    dominant = res.dominant_edges
    w: dict[int, float] = {res.goal_index: 1.0}
    for x in res.processing_order:
        if x in res.lambda_indices and x in dominant:
            row = res.chain.row(x)
            q, targets = com.distribution(row, True), row[0]
            w[x] = reduce(add, [q[i] * w.get(targets[i], 0.0) for i in dominant[x]], 0.0)
    return w.get(res.s_index, 0.0)


@dataclass
class _StreamStats:
    """Partial moments of one RNG stream; merged by plain summation."""

    n: int = 0
    sum1: float = 0.0  # sum of L * 1[hit]
    sum2: float = 0.0
    hits: int = 0
    m: int = 0  # non-dominant runs
    nd_sum1: float = 0.0  # sums over non-dominant runs only
    nd_sum2: float = 0.0

    def merge(self, other: "_StreamStats") -> None:
        self.n += other.n
        self.sum1 += other.sum1
        self.sum2 += other.sum2
        self.hits += other.hits
        self.m += other.m
        self.nd_sum1 += other.nd_sum1
        self.nd_sum2 += other.nd_sum2


@dataclass
class Estimate:
    """Point estimate with CI and the bookkeeping needed for reports."""

    method: str
    variant: str
    mean: float
    ci_half_width: float | None
    n_runs: int
    n_hits: int
    n_nondominant: int
    p_delta: float | None
    q_delta: float | None
    wall_time_s: float

    @property
    def rel_half_width(self) -> float | None:
        if self.ci_half_width is None or self.mean == 0.0:
            return None
        return self.ci_half_width / self.mean


def _run_stream(
    model: MarkovModel,
    com: ChangeOfMeasure,
    n: int,
    seed: int,
    worker: int,
    deadline: float | None = None,
) -> _StreamStats:
    sample = Sampler(model, com).sample
    # string seeding hashes with SHA-512 internally: stable across runs
    # and processes, unlike tuple seeding (deprecated)
    rng = random.Random(f"{seed}:{worker}")
    count = hits = m = 0
    sum1 = sum2 = nd_sum1 = nd_sum2 = 0.0
    for _ in range(n):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        path = sample(rng)
        x = path.likelihood if path.hit_goal else 0.0
        count += 1
        sum1 += x
        sum2 += x * x
        hits += path.hit_goal
        if not path.dominant:
            m += 1
            nd_sum1 += x
            nd_sum2 += x * x
    return _StreamStats(count, sum1, sum2, hits, m, nd_sum1, nd_sum2)


def run_estimator(
    model: MarkovModel,
    com: ChangeOfMeasure,
    variant: str = "plain",
    n_runs: int | None = None,
    time_budget_ms: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> Estimate:
    """Run replications under the measure and form the chosen estimator.

    Exactly one of ``n_runs`` and ``time_budget_ms`` must be given.  In the
    budgeted mode replications are issued until the deadline passes, so run
    counts (and therefore results) are not reproducible; fixed ``n_runs``
    with fixed (seed, workers) is fully deterministic.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown estimator variant {variant!r}")
    if variant != "plain" and not com.is_zva:
        raise ConfigError(f"variant {variant!r} requires a ZVA measure")
    if (n_runs is None) == (time_budget_ms is None):
        raise ConfigError("give exactly one of n_runs and time_budget_ms")
    # a NaN deadline is never reached
    if time_budget_ms is not None and not 0.0 < time_budget_ms < math.inf:
        raise ConfigError(f"time budget must be finite and positive: {time_budget_ms}")
    t0 = time.perf_counter()
    total = _StreamStats()
    if time_budget_ms is not None:
        deadline = t0 + time_budget_ms / 1000.0
        total = _run_stream(model, com, 2**62, seed, 0, deadline)
    else:
        counts = [
            n_runs // workers + (1 if i < n_runs % workers else 0)
            for i in range(workers)
        ]
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_run_stream, model, com, counts[i], seed, i)
                    for i in range(workers)
                    if counts[i] > 0
                ]
                for fut in futures:  # submission order keeps merging stable
                    total.merge(fut.result())
        else:
            for i in range(workers):
                if counts[i] > 0:
                    total.merge(_run_stream(model, com, counts[i], seed, i))
    wall = time.perf_counter() - t0
    if total.n == 0:
        raise ConfigError("no replications were run")
    p_delta = com.result.p_delta if com.is_zva else None
    q_delta = compute_q_delta(com) if variant == "plusplus" else None
    n = total.n
    if variant == "plain":
        mean = total.sum1 / n
        var = _sample_variance(total.sum1, total.sum2, n)
        hw = Z_95 * math.sqrt(var / n) if var is not None else None
    elif variant == "plus":
        mean = p_delta + total.nd_sum1 / n
        var = _sample_variance(total.nd_sum1, total.nd_sum2, n)
        hw = Z_95 * math.sqrt(var / n) if var is not None else None
    else:  # plusplus
        q_psi = 1.0 - q_delta
        y = total.nd_sum1 / total.m if total.m > 0 else 0.0
        mean = p_delta + q_psi * y
        if total.m >= 2:
            var_l = _sample_variance(total.nd_sum1, total.nd_sum2, total.m)
            hw = Z_95 * math.sqrt(q_psi * var_l / n)
        else:
            hw = None
    return Estimate(
        method=com.kind,
        variant=variant,
        mean=mean,
        ci_half_width=hw,
        n_runs=n,
        n_hits=total.hits,
        n_nondominant=total.m,
        p_delta=p_delta,
        q_delta=q_delta,
        wall_time_s=wall,
    )


def _sample_variance(s1: float, s2: float, n: int) -> float | None:
    if n < 2:
        return None
    return max((s2 - s1 * s1 / n) / (n - 1), 0.0)


def confidence_interval(s1: float, s2: float, n: int) -> tuple[float, float]:
    """(mean, 95% CI half-width) from raw moments."""
    if n < 2:
        raise ValueError("need at least two samples")
    mean = s1 / n
    var = _sample_variance(s1, s2, n)
    return mean, Z_95 * math.sqrt(var / n)


def wnvr(mc: Estimate, other: Estimate) -> float | None:
    """Work-normalized variance ratio of ``other`` against plain MC.

    (w_MC / w_m)^2 * (t_MC / t_m) with w the CI half-widths and t the wall
    times; None (reported "---") when either half-width is missing or 0.
    """
    if not mc.ci_half_width or not other.ci_half_width:
        return None
    if other.wall_time_s <= 0.0 or mc.wall_time_s <= 0.0:
        return None
    ratio = mc.ci_half_width / other.ci_half_width
    return ratio * ratio * mc.wall_time_s / other.wall_time_s
