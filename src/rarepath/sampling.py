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

``ChangeOfMeasure`` owns every rule of a measure over one row and the
path's context: q (``distribution``), the number of contexts k
(``contexts``) and the node after a position (``next_node``), which for ZVA
also says whether every step so far took one of preprocessing's
``dominant_edges``.  A node is ``state * k + context``, and a terminal
position's next node is an end code: g's and t's own negative ids, or for
ZVA one of three codes for g along a dominant edge and g or t after leaving
Lambda, so a path's end labels are read, not worked out.  ``Sampler`` walks
nodes into g or t; each node's step holds q, the next node and p/q at every
position, so the walk tests no measure's kind or context.  Each path is one
``Sampler.sample`` call returning a slots ``PathSample``.

Estimators
----------
* ``plain``:    mean of L * 1[hit goal].
* ``plus``:     P(dominant) + mean of L over non-dominant goal hits,
                averaged over all N runs.
* ``plusplus``: P(dominant) + Q(non-dominant) * Y, where Y averages L over
                the M non-dominant runs only and Q(dominant) sums q over
                the measure's DOMINANT nodes; its variance uses the
                conditional decomposition Q(Psi) * Var(L | Psi) / N.
"""

from __future__ import annotations

import math
import os
import random
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate, repeat
from operator import add
from typing import Sequence

from rarepath.errors import ConfigError, ConvergenceError
from rarepath.model import GOAL_CODE, UNSEEN, Chain, MarkovModel, Row
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
#: a path's step cap, and the step numbers under it, built once
MAX_STEPS = 10_000_000
_STEPS = range(1, MAX_STEPS + 1)
#: ZVA contexts: left Lambda; in it; in it on dominant edges only, as at s
LEFT, INSIDE, DOMINANT = 0, 1, 2
#: ZVA end codes beside g (GOAL_CODE) and t (TABOO_CODE), below UNSEEN: g
#: along a dominant edge from DOMINANT, and g and t from LEFT
DOMINANT_GOAL, LEFT_GOAL, LEFT_TABOO = -4, -5, -6
#: a path's (hit_goal, left_lambda, dominant) by -(end code)
_ENDS = (
    None, (False, False, False), (True, False, False), None,
    (True, False, True), (True, True, False), (False, True, False),
)


@dataclass(frozen=True)
class ChangeOfMeasure:
    """A simulation measure, possibly backed by preprocessing output.

    A path's context: for igbs, whether the last step had order 0 (off at
    s); for ZVA, LEFT, or INSIDE or DOMINANT (s's) while in Lambda; else off.
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
            if self.kind == "zva-dbar" and not 0.0 < (self.epsilon or 0.0) < 1.0:
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

    def distribution(self, row: Row, context: int) -> Sequence[float]:
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

    @property
    def contexts(self) -> int:
        """k, the contexts per state: 3 for ZVA, 2 for igbs, else 1."""
        return 3 if self.is_zva else 2 if self.kind == "igbs" else 1

    def next_node(self, state: int, row: Row, context: int, i: int) -> int:
        """The node after position ``i`` of ``state``'s ``row`` in ``context``,
        its target classified: a state z gives z * ``contexts`` plus the next
        context, for igbs whether the step has order 0, for ZVA DOMINANT from
        DOMINANT along a dominant edge, INSIDE in Lambda, else LEFT.  g and t
        give their ids, or for ZVA an end code: DOMINANT_GOAL along a dominant
        edge (never into t) from DOMINANT, LEFT_GOAL or LEFT_TABOO from LEFT."""
        z = row[0][i]
        if z >= 0 and self.kind == "igbs":
            return z * 2 + (row[2][i] == 0)
        if not self.is_zva:
            return z
        on = context == DOMINANT and i in self.result.dominant_edges[state]
        if z >= 0:
            inside = context and z in self.result.lambda_indices
            return z * 3 + ((DOMINANT if on else INSIDE) if inside else LEFT)
        if context == LEFT:
            return LEFT_GOAL if z == GOAL_CODE else LEFT_TABOO
        return DOMINANT_GOAL if on else z


class PathSample:
    """One path: whether it hit g, its likelihood ratio, its steps, whether
    it left Lambda and whether it is dominant.  ``Sampler.sample`` fills the
    slots of a bare instance, with no ``__init__`` call."""

    __slots__ = ("hit_goal", "likelihood", "steps", "left_lambda", "dominant")


#: makes the bare PathSample that ``Sampler.sample`` fills
_new = object.__new__


#: one node's compiled step: cumulative q, next node ids and p/q
Step = tuple[tuple[float, ...], list[int], tuple[float, ...]]


def _bfb_distribution(orders: Sequence[int], share: float) -> list[float]:
    """Failure transitions share ``share``, repairs share the rest."""
    n_f = sum(1 for r in orders if r > 0)
    n_r = len(orders) - n_f
    if n_f == 0 or n_r == 0:
        return [1.0 / len(orders)] * len(orders)
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
    a chain of their own.  A node is ``state * k + context``, k being the
    measure's ``contexts``, so a state of Lambda may have an INSIDE and a
    DOMINANT node; for k = 1 (mc, bfb) a node is its state's chain index
    and its step's next nodes are the row's own target list.  Elsewhere a
    next node, end codes included, is the measure's ``next_node``.  The
    step list is indexed by node id: k slots of 8 bytes per state of the
    chain's index range.  A step is compiled on a node's first visit and a
    next node resolved on its position's first draw, so a sampler grows
    with its chain and is not thread-safe.
    """

    def __init__(self, model: MarkovModel, com: ChangeOfMeasure):
        self.com = com
        is_zva = com.is_zva
        chain = self.chain = com.result.chain if is_zva else Chain(model)
        #: contexts per state: a node is state * k + context
        k = self._k = com.contexts
        #: compiled steps by node id; None (or an id past the end) marks a
        #: node not compiled yet
        self._steps: list[Step | None] = []
        #: equal floats and equal q and p/q tuples, shared by the steps
        self._shared: dict = {}
        #: bfb/igbs: cumulative q per (orders, context), all the rule reads
        self._cums: dict[tuple[tuple[int, ...], int], tuple[float, ...]] = {}
        #: p/q of the last cumulative q compiled with each probability array
        #: (shared by the chain's rows of one shape), by the array's id:
        #: (p/q, cumulative q, probabilities), which hold the ids
        self._ratios: dict[int, tuple] = {}
        #: what every path reads, unpacked by ``sample`` in one load;
        #: Chain.target resolves where k = 1, and only ZVA starts at DOMINANT
        self._consts = (
            self._steps, chain.target if k == 1 else self._resolve,
            chain.s_index * k + (DOMINANT if is_zva else 0),
        )

    def _compile(self, node: int) -> Step:
        """The node's step, from the measure's rule for q in its context.

        The row is fetched, not classified: only a ZVA step in context reads
        targets, and only in Lambda, whose rows preprocessing classified.
        p/q is taken over the width of each interval of the cumulative q; a
        width of 0 is never drawn, ratio 0.  A row with the probability
        array and cumulative q of the last step compiled from that array
        takes that step's p/q.
        """
        com, k = self.com, self._k
        # for k = 1 the node itself is the chain's row key, not a copy of it
        state, context = divmod(node, k) if k > 1 else (node, 0)
        row = self.chain.fetch(state)
        targets, probs, orders = row
        key = (orders, context) if com.kind in ("bfb", "igbs") else None
        cum = self._cums.get(key)
        if cum is None:
            cum = [*accumulate(com.distribution(row, context))]
            cum[-1] = 1.0  # guard against round-off at the top end
            cum = self._share(cum)
            if key is not None:
                self._cums[key] = cum
        known = self._ratios.get(id(probs))
        if known is None or known[1] is not cum:
            ratios = self._share([
                p / w if (w := hi - lo) > 0.0 else 0.0
                for p, lo, hi in zip(probs, (0.0, *cum), cum)
            ])
            known = self._ratios[id(probs)] = ratios, cum, probs
        ratios = known[0]
        table = self._steps
        if len(table) <= node:
            table.extend([None] * (node + 1 - len(table)))
        nodes = targets if k == 1 else [UNSEEN] * len(targets)
        step = table[node] = (cum, nodes, ratios)
        return step

    def _share(self, values: list[float]) -> tuple[float, ...]:
        """``values`` as a tuple; equal tuples and equal floats are kept once."""
        share = self._shared.setdefault
        vector = tuple(map(share, values, values))
        return share(vector, vector)

    def _resolve(self, node: int, i: int) -> int:
        """igbs, ZVA: the node after position ``i`` of ``node``'s step, kept
        there: ``chain.target`` classifies the target, and the measure's
        ``next_node`` gives the node or, once per position, the end code."""
        state, context = divmod(node, self._k)
        self.chain.target(state, i)
        row = self.chain.fetch(state)
        nxt = self._steps[node][1][i] = self.com.next_node(state, row, context, i)
        return nxt

    def sample(self, rng: random.Random) -> PathSample:
        """One path from s into g or t.

        The path's end labels are read from its last position's end code
        (``_resolve``), with no context test.  This is the per-path unit that
        ``perfbench``'s trace hook wraps and times; the hook reads a path's
        ``steps`` and ``left_lambda``, so paths stay one call each rather
        than a walk inlined into ``_run_stream``."""
        table, resolve, node = self._consts
        draw, bisect = rng.random, bisect_right
        likelihood = 1.0
        for steps in _STEPS:
            try:
                cum, nodes, ratios = table[node]
            except (IndexError, TypeError):  # past the end or None
                cum, nodes, ratios = self._compile(node)
            i = bisect(cum, draw())
            likelihood *= ratios[i]
            nxt = nodes[i]
            if nxt < 0:  # unresolved or an end code
                if nxt == UNSEEN:
                    nxt = resolve(node, i)
                if nxt < 0:
                    path = _new(PathSample)
                    path.hit_goal, path.left_lambda, path.dominant = _ENDS[-nxt]
                    path.likelihood = likelihood
                    path.steps = steps
                    return path
            node = nxt
        raise ConvergenceError("path exceeded the step cap")


def compute_q_delta(com: ChangeOfMeasure) -> float:
    """Probability that a sampled path is dominant, under the measure.

    w(DOMINANT_GOAL) = 1, and w(n) sums q * w(next) over n's positions into
    DOMINANT_GOAL or a DOMINANT node, in row order, with q and the next
    nodes from the measure's own rules over the chain's rows; returns w at
    s.  A stack, not recursion, walks the nodes, which form no cycle and
    lie in Lambda, whose rows preprocessing classified.
    """
    if not com.is_zva:
        raise ConfigError("dominance probability requires a ZVA measure")
    chain, k, w, terms = com.result.chain, com.contexts, {DOMINANT_GOAL: 1.0}, {}
    stack = [start := chain.s_index * k + DOMINANT]
    while stack:
        node = stack[-1]
        if node in terms:  # expanded, and every next node is done
            stack.pop()
            w[node] = reduce(add, [qi * w[nxt] for qi, nxt in terms[node]], 0.0)
            continue
        row = chain.row(state := node // k)
        terms[node] = nexts = [
            (qi, nxt) for i, qi in enumerate(com.distribution(row, DOMINANT))
            if (nxt := com.next_node(state, row, DOMINANT, i)) == DOMINANT_GOAL
            or nxt >= 0 and nxt % k == DOMINANT
        ]
        stack += [nxt for _qi, nxt in nexts if nxt not in w]
    return w[start]


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
    model: MarkovModel, com: ChangeOfMeasure, n: int, seed: int, worker: int,
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
        hit = path.hit_goal
        x = path.likelihood if hit else 0.0
        count += 1
        sum1 += x
        sum2 += x * x
        hits += hit
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
    streams, run by at most one process per usable CPU if ``workers`` > 1,
    and the streams' moments are summed column by column in stream order;
    fixed (seed, workers) is therefore fully deterministic.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown estimator variant {variant!r}")
    if variant != "plain" and not com.is_zva:
        raise ConfigError(f"variant {variant!r} requires a ZVA measure")
    if (n_runs is None) == (time_budget_ms is None):
        raise ConfigError("give exactly one of n_runs and time_budget_ms")
    if n_runs is not None and n_runs < 1:
        raise ConfigError(f"n_runs must be at least 1: {n_runs}")
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
        affinity = getattr(os, "sched_getaffinity", None)  # Linux only
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(workers, cpus)) as pool:
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
    if variant != "plusplus":  # plus: p_delta + the non-dominant X over n
        s1, s2 = (sum1, sum2) if variant == "plain" else (nd_sum1, nd_sum2)
        mean = s1 / n if variant == "plain" else p_delta + s1 / n
        var = _sample_variance(s1, s2, n)
        hw = Z_95 * math.sqrt(var / n) if var is not None else None
    else:
        q_psi = 1.0 - q_delta
        y = nd_sum1 / m if m > 0 else 0.0
        mean = p_delta + q_psi * y
        var_l = _sample_variance(nd_sum1, nd_sum2, m)
        hw = Z_95 * math.sqrt(q_psi * var_l / n) if var_l is not None else None
    return Estimate(
        method=com.kind, variant=variant, mean=mean, ci_half_width=hw, n_runs=n,
        n_hits=hits, n_nondominant=m, p_delta=p_delta, q_delta=q_delta, wall_time_s=wall,
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
