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

``ChangeOfMeasure`` owns both rules of a measure, each over one row and
the path's one-bit context: q (``distribution``) and the context after
each position (``next_contexts``).  ``Sampler`` compiles both into each
state's step, so its walk tests no measure's kind.

Estimators
----------
* ``plain``:    mean of L * 1[hit goal].
* ``plus``:     P(dominant) + mean of L over non-dominant goal hits,
                averaged over all N runs.
* ``plusplus``: P(dominant) + Q(non-dominant) * Y, where Y averages L over
                the M non-dominant runs only; its variance uses the
                conditional decomposition Q(Psi) * Var(L | Psi) / N.
"""

from __future__ import annotations

import math
import random
import time
from array import array
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, repeat
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
    """A simulation measure, possibly backed by preprocessing output.

    A path's context is one bit: for igbs "the last step had order 0" (off
    at s), for ZVA "still inside Lambda" (on at s); mc and bfb keep it off.
    """

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
        """q over one row in the path's ``context``: failures share IGBS_DELTA
        for igbs in context and FAILURE_SHARE for bfb and igbs otherwise; ZVA
        in context reads the row's targets, which must be classified.
        Otherwise, or where every target has value 0, q is p."""
        targets, probs, orders = row
        if self.kind in ("bfb", "igbs"):
            return _bfb_distribution(orders, IGBS_DELTA if context else FAILURE_SHARE)
        if context and self.is_zva:
            values = self.values
            q = zva_distribution(probs, [values.get(z, 0.0) for z in targets])
            if q is not None:
                return q
        return probs

    def next_contexts(self, row: Row, context: bool) -> bytes:
        """The context after each position of ``row``: for igbs whether the
        step has order 0, for ZVA in context whether the target is in Lambda
        (so a path that left Lambda stays out), otherwise 0."""
        targets, _probs, orders = row
        if self.kind == "igbs":
            return bytes(r == 0 for r in orders)
        if context and self.is_zva:
            inside = self.result.lambda_indices
            return bytes(z in inside for z in targets)
        return bytes(len(orders))


@dataclass
class PathSample:
    hit_goal: bool
    likelihood: float
    order_sum: int
    steps: int
    left_lambda: bool
    dominant: bool


#: one state's compiled step (cumulative q, targets, p/q, orders, contexts)
Step = tuple[array, list[int], array, tuple[int, ...], bytes]


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
    a chain of their own.  Each state's step is compiled from the
    measure's two rules on its first visit in each context.  The chain and
    the steps grow as paths reach new states, so a sampler is not
    thread-safe; worker processes get their own copy of the result.
    """

    def __init__(self, model: MarkovModel, com: ChangeOfMeasure):
        self.com = com
        res = self.result = com.result
        is_zva = com.is_zva
        chain = self.chain = res.chain if is_zva else Chain(model)
        #: compiled steps by state index, one list per context value; None
        #: (or an index past the end) marks a state not compiled yet
        self._steps: tuple[list[Step | None], list[Step | None]] = ([], [])
        #: equal arrays and equal context vectors, shared by the steps
        self._shared: dict[bytes, array] = {}
        self._nexts: dict[bytes, bytes] = {}
        #: bfb/igbs: (cum, contexts) per (orders, context), all the rules read
        self._cums: dict[tuple[tuple[int, ...], bool], tuple[array, bytes]] = {}
        #: what every path reads, unpacked by ``sample`` in one load
        self._consts = (
            chain, self._steps, chain.goal_index, chain.taboo_index, is_zva,
            res.d_sg if is_zva else None, chain.s_index,
        )

    def _compile(self, idx: int, context: bool) -> Step:
        """The state's step in ``context``, from the measure's two rules.

        The row is fetched, not classified: only a ZVA step in context
        reads targets, and it is compiled only in Lambda, whose rows
        preprocessing classified.  p/q is taken over the width of each
        interval of the cumulative q; a width of 0 is never drawn, ratio 0.
        """
        com, shared = self.com, self._shared
        row = self.chain.fetch(idx)
        targets, probs, orders = row
        key = (orders, context) if com.kind in ("bfb", "igbs") else None
        rules = self._cums.get(key)
        if rules is None:
            cum = array("d", accumulate(com.distribution(row, context)))
            cum[-1] = 1.0  # guard against round-off at the top end
            nexts = com.next_contexts(row, context)
            nexts = self._nexts.setdefault(nexts, nexts)
            rules = shared.setdefault(cum.tobytes(), cum), nexts
            if key is not None:
                self._cums[key] = rules
        cum, nexts = rules
        ratios = array("d", [
            p / w if (w := hi - lo) > 0.0 else 0.0
            for p, lo, hi in zip(probs, [0.0, *cum], cum)
        ])
        ratios = shared.setdefault(ratios.tobytes(), ratios)
        table = self._steps[context]
        if len(table) <= idx:  # cover every state the chain has indexed
            table.extend([None] * (len(self.chain) - len(table)))
        step = table[idx] = (cum, targets, ratios, orders, nexts)
        return step

    def sample(self, rng: random.Random, max_steps: int = 10_000_000) -> PathSample:
        """One path from s into g or t; ``perfbench`` times each call.

        After each step the path takes the context that its step gives for
        the drawn position; a ZVA path that ends with it off has left Lambda.
        """
        chain, tables, goal, taboo, is_zva, d_sg, state = self._consts
        draw = rng.random
        likelihood, order_sum = 1.0, 0
        context = is_zva
        table = tables[context]
        for steps in range(1, max_steps + 1):
            try:
                step = table[state]
            except IndexError:  # indexed after the table last grew
                step = None
            cum, targets, ratios, orders, nexts = step or self._compile(state, context)
            i = bisect_right(cum, draw())
            likelihood *= ratios[i]
            order_sum += orders[i]
            target = targets[i]
            if target == UNSEEN:
                target = chain.target(state, i)
            if target == goal or target == taboo:
                hit, left_lambda = target == goal, is_zva and not context
                dominant = hit and is_zva and not left_lambda and order_sum == d_sg
                return PathSample(hit, likelihood, order_sum, steps, left_lambda, dominant)
            context = nexts[i]
            table = tables[context]
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
    chain, dominant = res.chain, res.dominant_edges
    w: dict[int, float] = {chain.goal_index: 1.0}
    for x in res.processing_order:
        if x in res.lambda_indices and x in dominant:
            row = chain.row(x)
            q, targets = com.distribution(row, True), row[0]
            w[x] = reduce(add, [q[i] * w.get(targets[i], 0.0) for i in dominant[x]], 0.0)
    return w.get(chain.s_index, 0.0)


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
) -> tuple[int, float, float, int, int, float, float]:
    """One RNG stream's moments: paths, sums of X and X^2 with X = L * 1[hit],
    hits, non-dominant paths and their sums of X and X^2.  The stream stops
    early once ``time.perf_counter()`` passes ``deadline``."""
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
    return count, sum1, sum2, hits, m, nd_sum1, nd_sum2


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
    budgeted mode one stream (``workers`` = 1) issues replications until
    the deadline passes, so run counts (and therefore results) are not
    reproducible.  Fixed ``n_runs`` are split evenly over ``workers``
    streams, each in its own process when ``workers`` > 1, and the
    streams' moments are summed column by column in stream order; fixed
    (seed, workers) is therefore fully deterministic.
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
    if workers < 1 or (workers > 1 and time_budget_ms is not None):
        raise ConfigError(
            f"workers must be at least 1, and 1 with a time budget: {workers}"
        )
    t0 = time.perf_counter()
    if time_budget_ms is not None:
        streams = [_run_stream(model, com, 2**62, seed, 0, t0 + time_budget_ms / 1e3)]
    elif workers > 1:
        counts = [n_runs // workers + (i < n_runs % workers) for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            streams = list(pool.map(
                partial(_run_stream, model, com), counts, repeat(seed), range(workers)
            ))
    else:
        streams = [_run_stream(model, com, n_runs, seed, 0)]
    n, sum1, sum2, hits, m, nd_sum1, nd_sum2 = (reduce(add, c, 0) for c in zip(*streams))
    wall = time.perf_counter() - t0
    if n == 0:
        raise ConfigError("no replications were run")
    p_delta = com.result.p_delta if com.is_zva else None
    q_delta = compute_q_delta(com) if variant == "plusplus" else None
    if variant == "plain":
        mean = sum1 / n
        var = _sample_variance(sum1, sum2, n)
        hw = Z_95 * math.sqrt(var / n) if var is not None else None
    elif variant == "plus":
        mean = p_delta + nd_sum1 / n
        var = _sample_variance(nd_sum1, nd_sum2, n)
        hw = Z_95 * math.sqrt(var / n) if var is not None else None
    else:  # plusplus
        q_psi = 1.0 - q_delta
        y = nd_sum1 / m if m > 0 else 0.0
        mean = p_delta + q_psi * y
        if m >= 2:
            var_l = _sample_variance(nd_sum1, nd_sum2, m)
            hw = Z_95 * math.sqrt(q_psi * var_l / n)
        else:
            hw = None
    return Estimate(
        method=com.kind,
        variant=variant,
        mean=mean,
        ci_half_width=hw,
        n_runs=n,
        n_hits=hits,
        n_nondominant=m,
        p_delta=p_delta,
        q_delta=q_delta,
        wall_time_s=wall,
    )


def _sample_variance(s1: float, s2: float, n: int) -> float | None:
    if n < 2:
        return None
    return max((s2 - s1 * s1 / n) / (n - 1), 0.0)


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
