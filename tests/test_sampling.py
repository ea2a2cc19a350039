"""Measures, path sampling, estimators, and their statistical identities."""

import gc
import math
import os
import random
import tracemalloc
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarepath import sampling
from rarepath.errors import ConfigError, ConvergenceError
from rarepath.exact import exact_hitting_probability
from rarepath.model import UNSEEN, Chain, MarkovModel
from rarepath.preproc import preprocess
from rarepath.sampling import (
    ChangeOfMeasure,
    Estimate,
    Sampler,
    _bfb_distribution,
    compute_q_delta,
    run_estimator,
    wnvr,
    zva_distribution,
)
from rarepath.zoo import (
    DdsModel,
    make_birth_death_chain,
    make_dds,
    two_type_basic,
    two_type_deferred,
)


def com_for(kind, model, **kw):
    if kind in ("zva-dbar", "zva-delta"):
        return ChangeOfMeasure(
            kind, result=preprocess(model), epsilon=model.epsilon, **kw
        )
    return ChangeOfMeasure(kind, **kw)


# ------------------------------------------------------- distributions

@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-9, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=10,
    )
)
# the quotient 5e-324 / 2.0 underflows to 0
@example(pairs=[(1.0, 1.0), (1.0, 1.0), (1.0, 5e-324)])
# the product 0.5 * 5e-324 underflows to 0
@example(pairs=[(0.5, 5e-324)])
def test_zva_distribution_normalizes_and_preserves_support(pairs):
    probs = [p for p, _v in pairs]
    values = [v for _p, v in pairs]
    q = zva_distribution(probs, values)
    if all(v == 0.0 for v in values):
        assert q is None
    else:
        assert sum(q) == pytest.approx(1.0, abs=1e-12)
        for qi, p, v in zip(q, probs, values):
            # p * v > 0 in exact arithmetic; the float product may underflow
            assert (qi > 0.0) == (p > 0.0 and v > 0.0)


def test_zva_distribution_zero_total_falls_back():
    assert zva_distribution([0.5, 0.5], [0.0, 0.0]) is None


def test_bfb_distribution_splits_shares_uniformly():
    q = _bfb_distribution([0, 1, 2], share=0.6)
    assert q == pytest.approx([0.4, 0.3, 0.3])
    # all-failure and all-repair rows degenerate to uniform
    assert _bfb_distribution([1, 2], 0.6) == pytest.approx([0.5, 0.5])
    assert _bfb_distribution([0, 0], 0.6) == pytest.approx([0.5, 0.5])


def test_zva_dbar_pinned_transition_probability():
    """Chain, eps = 0.1, state 2: q(up) = 0.001 / (0.001 + 9e-5).

    p(up) = 0.1 with v(3) = eps^2, p(down) = 0.9 with v(1) = eps^4.
    """
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-dbar", model)
    chain = com.result.chain
    row = chain.row(chain.indexer.lookup(2))
    q_up = com.distribution(row, True)[row[0].index(chain.indexer.lookup(3))]
    assert q_up == pytest.approx(0.001 / (0.001 + 9e-5), rel=1e-12)


def test_zva_delta_equals_dbar_on_the_chain():
    """The chain has a unique dominant path, so v differs only by a
    constant factor per state and both flavors emit identical q."""
    model = make_birth_death_chain(5, 0.1)
    dbar, delta = com_for("zva-dbar", model), com_for("zva-delta", model)

    def q(com, state):
        chain = com.result.chain
        return com.distribution(chain.row(chain.indexer.lookup(state)), True)

    for state in (1, 2, 3, 4):
        assert q(dbar, state) == pytest.approx(q(delta, state), rel=1e-12)


def test_measure_validation():
    model = make_birth_death_chain(5, 0.1)
    with pytest.raises(ConfigError):
        ChangeOfMeasure("nonsense")
    with pytest.raises(ConfigError):
        ChangeOfMeasure("zva-delta")  # no preprocessing output
    with pytest.raises(ConfigError):
        ChangeOfMeasure("zva-dbar", result=preprocess(model))  # no epsilon


# ------------------------------------------------------------ sampling

class Revisit(MarkovModel):
    """Paths re-enter s as an ordinary state, from b inside Lambda and from
    the frontier state c (d(s, c) = 3 > d(s, g) = 2) after leaving it."""

    emits_rates = False
    epsilon = 0.3

    @property
    def initial_state(self):
        return "s"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        e = self.epsilon
        return {
            "s": (("a", "t"), (0.5, 0.5), (0, 0)),
            "a": (("g", "b", "t"), (e * e, e, 1 - e - e * e), (2, 1, 0)),
            "b": (("g", "s", "c", "t"), (e, 0.5, e * e, 0.5 - e - e * e), (1, 0, 2, 0)),
            "c": (("s", "g", "t"), (0.5, e, 0.5 - e), (0, 1, 0)),
        }[state]


REPLAY_CASES = [
    # igbs switches context on the deferred model, and no path leaves Lambda
    *(
        pytest.param(lambda: two_type_deferred(epsilon=0.1), kind, 200, False, id=kind)
        for kind in ("mc", "bfb", "igbs", "zva-dbar", "zva-delta")
    ),
    # here paths leave Lambda
    *(
        pytest.param(
            lambda: two_type_basic(20, 20, 1.0, 0.1), kind, 300, True,
            id=f"redundancy-{kind}",
        )
        for kind in ("zva-dbar", "zva-delta")
    ),
    # and here they also re-enter s, inside and outside Lambda
    *(
        pytest.param(Revisit, kind, 300, kind in ("zva-dbar", "zva-delta"),
                     id=f"revisit-{kind}")
        for kind in ("mc", "bfb", "igbs", "zva-dbar", "zva-delta")
    ),
]


def _replay(com, chain, rng_state):
    """The path drawn from ``rng_state``, replayed on ``chain`` with q from
    ``distribution`` and the context rules written out here: L = prod p/q,
    the order sum, the steps, whether it left Lambda, the terminal it ends
    in and the RNG state after it."""
    rng = random.Random()
    rng.setstate(rng_state)
    state, context = chain.s_index, com.is_zva
    lik, order_sum, left_lambda, steps = 1.0, 0, False, 0
    while not chain.is_terminal(state):
        row = chain.row(state)
        targets, probs, orders = row
        q = com.distribution(row, context)
        cum = list(accumulate(q))
        cum[-1] = 1.0
        i = bisect_right(cum, rng.random())
        lik *= probs[i] / q[i]
        order_sum += orders[i]
        steps += 1
        state = targets[i]
        if com.kind == "igbs":
            context = orders[i] == 0
        elif context and com.is_zva and state not in com.result.lambda_indices:
            context, left_lambda = False, True
    return lik, order_sum, steps, left_lambda, state, rng.getstate()


def _order_sum_rule(com, chain, replayed):
    """The dominance label by the order sum: a ZVA goal hit that never left
    Lambda and whose orders sum to d(s, g)."""
    _lik, order_sum, _steps, left_lambda, end, _rng = replayed
    return (
        com.is_zva and end == chain.goal_index and not left_lambda
        and order_sum == com.result.d_sg
    )


@pytest.mark.parametrize("factory, kind, paths, leaves", REPLAY_CASES)
def test_likelihood_recomputes_from_trajectory(factory, kind, paths, leaves):
    """Each path's trajectory, replayed from its draws with q from
    ``distribution`` and the context rules written out here, gives the
    same L = prod p/q, length and exit from Lambda as the compiled steps,
    and the same dominance label as the order-sum rule: a ZVA goal hit
    inside Lambda whose orders sum to d(s, g).  The replay reads a chain
    of its own, so the sampler resolves every path's targets lazily,
    itself."""
    model = factory()
    sampler = Sampler(model, com_for(kind, model))
    com = com_for(kind, model)
    chain = com.result.chain if com.is_zva else Chain(model)
    rng = random.Random(7)
    left = 0
    for _ in range(paths):
        before = rng.getstate()
        s = sampler.sample(rng)
        replayed = _replay(com, chain, before)
        lik, _order_sum, steps, left_lambda, end, after = replayed
        assert after == rng.getstate()
        assert s.likelihood == pytest.approx(lik, rel=1e-12)
        assert (s.steps, s.left_lambda) == (steps, left_lambda)
        assert s.hit_goal == (end == chain.goal_index)
        assert s.dominant == _order_sum_rule(com, chain, replayed)
        left += left_lambda
    assert (left > 0) == leaves


def test_sample_path_terminates_and_labels_dominance():
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-delta", model)
    rng = random.Random(1)
    sampler = Sampler(model, com)
    chain = com.result.chain
    hits = 0
    for _ in range(500):
        before = rng.getstate()
        s = sampler.sample(rng)
        if s.hit_goal:
            hits += 1
            # the chain's only goal paths inside Lambda are dominant
            order_sum = _replay(com, chain, before)[1]
            assert s.dominant or s.left_lambda or order_sum > com.result.d_sg
        else:
            assert not s.dominant
    assert hits > 400  # ZVA drives nearly every path to the goal


class _Rates(MarkovModel):
    """A CTMC given as ``rows``: state -> [(target, rate, order), ...],
    starting in 0; "g" is the goal and "t" the taboo state."""

    initial_state = 0

    def __init__(self, rows):
        self.rows = rows

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        return tuple(zip(*self.rows[state]))


@st.composite
def cycle_chains(draw):
    """Rows over states 0..n-1 with rates c * 0.1**r: an order-0 ring over
    0..k-1, which cycle removal replaces by override rows, up to four edges
    of order 0 to 3 to any state, g or t, and an edge of order 1 to 4 to g,
    so g is reachable from every state."""
    n = draw(st.integers(2, 6))
    k = draw(st.integers(2, n))
    anywhere = st.sampled_from([*range(n), "g", "t"])
    rows = {}
    for x in range(n):
        edges = [((x + 1) % k, draw(st.integers(1, 9)), 0)] if x < k else []
        edges += draw(st.lists(
            st.tuples(anywhere, st.integers(1, 9), st.integers(0, 3)), max_size=4
        ))
        edges.append(("g", draw(st.integers(1, 9)), draw(st.integers(1, 4))))
        rows[x] = [(z, c * 0.1**r, r) for z, c, r in edges]
    return rows


@settings(max_examples=150, deadline=None)
@given(cycle_chains(), st.sampled_from(sampling.ZVA_MEASURES))
def test_context_dominance_matches_the_order_sum_rule(rows, kind):
    """The sampler's dominance label, kept in its node contexts along
    preprocessing's dominant edges, equals the order-sum rule on every
    path, on chains whose sampler walks cycle-removal override rows."""
    model = _Rates(rows)
    com = com_for(kind, model)
    assert com.result.chain.overrides
    assert com.result.d_backward[com.result.chain.s_index] == com.result.d_sg
    sampler = Sampler(model, com)
    replay = com_for(kind, model)
    rng = random.Random(5)
    for _ in range(60):
        before = rng.getstate()
        s = sampler.sample(rng)
        replayed = _replay(replay, replay.result.chain, before)
        assert s.dominant == _order_sum_rule(replay, replay.result.chain, replayed)


def test_estimate_expands_only_states_preprocessing_never_resolved(monkeypatch):
    """The sampler reads the rows preprocessing fetched from its chain and
    reads each further row once: a fresh read is a ``Chain._read`` call.
    The chain keeps the target descriptors of the last row fetched only, so
    every other model call re-reads a held row, to resolve one of its
    targets."""
    fresh = []
    read = Chain._read

    def counting_read(chain, idx, keep):
        fresh.append(chain.indexer.state(idx))
        return read(chain, idx, keep)

    class CountingDds(DdsModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.expanded = []

        def successors(self, state):
            self.expanded.append(state)
            return super().successors(state)

    monkeypatch.setattr(Chain, "_read", counting_read)
    model = CountingDds("fcfs", 0.01)
    result = preprocess(model)
    assert model.expanded == fresh  # preprocessing re-reads nothing
    chain, resolved = result.chain, set(fresh)

    def unseen(state):
        return chain.fetch(chain.indexer.lookup(state))[0].count(UNSEEN)

    before = {x: unseen(x) for x in resolved}
    model.expanded.clear()
    fresh.clear()
    com = ChangeOfMeasure("zva-delta", result=result, epsilon=model.epsilon)
    run_estimator(model, com, n_runs=2000, seed=0)
    assert fresh, "no path left the resolved states"
    assert not resolved.intersection(fresh)
    assert len(set(fresh)) == len(fresh)
    rereads = Counter(model.expanded) - Counter(fresh)
    assert rereads, "no path resolved a target of an older row"
    assert rereads.total() == len(model.expanded) - len(fresh)
    for x, n in rereads.items():
        row = chain.fetch(chain.indexer.lookup(x))[0]
        assert n <= before.get(x, len(row)) - unseen(x), x


def test_bfb_estimate_memory_is_bounded():
    """A sampler's chain keeps the target descriptors of its last fetched
    row only: a 10.1 MiB traced peak here, with the chain's shape table
    and the sampler's p/q table (9.3 MiB with one probability array per
    row), 19.5 MiB when it kept every row's."""
    model = make_dds("fcfs", 0.01)
    tracemalloc.start()
    try:
        run_estimator(model, ChangeOfMeasure("bfb"), n_runs=10_000, seed=0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20


def test_zva_estimate_memory_is_bounded():
    """A ZVA sampler's node id is arithmetic, state * 3 + context, so it
    keeps no table of (state, context) pairs: a 1.52 MiB traced peak here
    (Python 3.11), 1.70 MiB with a pair list and a pair dictionary."""
    model = make_dds("fcfs", 0.01)
    com = com_for("zva-delta", model)
    gc.collect()  # so the peak does not depend on what earlier tests left
    tracemalloc.start()
    try:
        run_estimator(model, com, n_runs=20_000, seed=0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2**20


def test_mc_hits_match_raw_frequency():
    """Under mc the likelihood is identically 1."""
    model = make_birth_death_chain(3, 0.3)
    rng = random.Random(3)
    sampler = Sampler(model, ChangeOfMeasure("mc"))
    for _ in range(200):
        s = sampler.sample(rng)
        assert s.likelihood == pytest.approx(1.0)


# ----------------------------------------------------- Q(Delta) and M

class SinglePath(MarkovModel):
    """s -> a -> g deterministic upward structure: Q(Delta) must be 1."""

    emits_rates = False
    epsilon = 0.1

    @property
    def initial_state(self):
        return "s"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        if state == "s":
            return ["a", "t"], [0.1, 0.9], [1, 0]
        return ["g", "t"], [0.1, 0.9], [1, 0]


def test_step_cap_bounds_every_path(monkeypatch):
    """Under mc, SinglePath's paths take 1 or 2 steps: a cap of 2 never
    trips, and a cap of 1 passes a one-step path and trips on a two-step
    one, replayed from the same RNG state."""
    sampler = Sampler(SinglePath(), ChangeOfMeasure("mc"))
    rng = random.Random(0)
    starts = {1: [], 2: []}
    monkeypatch.setattr(sampling, "_STEPS", range(1, 3))
    for _ in range(200):
        before = rng.getstate()
        starts[sampler.sample(rng).steps].append(before)
    assert starts[1] and starts[2]
    monkeypatch.setattr(sampling, "_STEPS", range(1, 2))
    rng.setstate(starts[1][0])
    assert sampler.sample(rng).steps == 1
    rng.setstate(starts[2][0])
    with pytest.raises(ConvergenceError):
        sampler.sample(rng)


def test_q_delta_single_path_is_one():
    model = SinglePath()
    com = com_for("zva-delta", model)
    assert compute_q_delta(com) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["zva-delta", "zva-dbar"])
def test_q_delta_matches_empirical_dominant_fraction(kind):
    model = two_type_basic(3, 3, 1.0, 0.1)
    com = com_for(kind, model)
    q_delta = compute_q_delta(com)
    assert 0.0 < q_delta <= 1.0
    n = 20_000
    est = run_estimator(model, com, variant="plusplus", n_runs=n, seed=0)
    dominant_fraction = 1.0 - est.n_nondominant / n
    se = math.sqrt(q_delta * (1.0 - q_delta) / n)
    assert abs(dominant_fraction - q_delta) <= 3.0 * se + 1e-12
    assert est.q_delta == pytest.approx(q_delta)


def test_q_delta_requires_zva():
    with pytest.raises(ConfigError):
        compute_q_delta(ChangeOfMeasure("mc"))


# ---------------------------------------------------------- estimators

def test_plain_estimator_matches_oracle_within_ci():
    model = make_birth_death_chain(5, 0.1)
    pi, _ = exact_hitting_probability(model)
    com = com_for("zva-delta", model)
    est = run_estimator(model, com, variant="plain", n_runs=5000, seed=0)
    assert abs(est.mean - pi) <= est.ci_half_width
    assert est.n_runs == 5000
    assert 0 < est.n_hits <= 5000
    assert est.method == "zva-delta"


def test_variants_agree_on_the_same_runs():
    """plain / plus / plusplus are all unbiased; with the same seed their
    point estimates agree to within the (tiny) CI widths."""
    model = two_type_basic(3, 3, 1.0, 0.05)
    pi, _ = exact_hitting_probability(model)
    com = com_for("zva-delta", model)
    ests = {
        v: run_estimator(model, com, variant=v, n_runs=20_000, seed=0)
        for v in ("plain", "plus", "plusplus")
    }
    for est in ests.values():
        assert abs(est.mean - pi) <= 4 * est.ci_half_width
    assert ests["plus"].p_delta == com.result.p_delta
    assert ests["plusplus"].q_delta is not None


def test_estimator_is_deterministic_for_fixed_seed_and_workers():
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-delta", model)
    a = run_estimator(model, com, n_runs=2000, seed=42)
    b = run_estimator(model, com, n_runs=2000, seed=42)
    assert (a.mean, a.ci_half_width, a.n_hits) == (b.mean, b.ci_half_width, b.n_hits)
    c = run_estimator(model, com, n_runs=2000, seed=43)
    assert c.mean != a.mean


def test_worker_split_preserves_results():
    """The same (seed, workers) is reproducible and the merged moments are
    the sum of the per-stream moments regardless of scheduling."""
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-delta", model)
    a = run_estimator(model, com, n_runs=1000, seed=0, workers=2)
    b = run_estimator(model, com, n_runs=1000, seed=0, workers=2)
    assert a.mean == b.mean
    assert a.ci_half_width == b.ci_half_width


def test_worker_processes_are_bounded_by_the_usable_cpus(monkeypatch):
    """500 streams run on at most the CPUs this process may use; the
    streams carry the seeds, so the estimate is that of 500 streams."""
    sizes = []

    class InlinePool:
        """A process pool stand-in that records its size and maps in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        map = staticmethod(map)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
    model = make_birth_death_chain(5, 0.1)
    est = run_estimator(model, ChangeOfMeasure("bfb"), n_runs=1000, seed=0, workers=500)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0})
    again = run_estimator(model, ChangeOfMeasure("bfb"), n_runs=1000, seed=0, workers=500)
    assert sizes == [2, 1]
    assert est.n_runs == 1000
    assert (again.mean, again.ci_half_width) == (est.mean, est.ci_half_width)


def test_estimator_rejects_bad_configuration():
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-delta", model)
    with pytest.raises(ConfigError):
        run_estimator(model, com, variant="nonsense", n_runs=10)
    with pytest.raises(ConfigError):
        run_estimator(model, ChangeOfMeasure("mc"), variant="plus", n_runs=10)
    with pytest.raises(ConfigError):
        run_estimator(model, com)  # neither budget
    with pytest.raises(ConfigError):
        run_estimator(model, com, n_runs=10, time_budget_ms=10.0)


@pytest.mark.parametrize("budget_ms", [math.nan, math.inf, 0.0, -5.0])
def test_time_budget_must_be_finite_and_positive(budget_ms):
    """A NaN deadline is never reached, so the stream would not stop."""
    model = make_birth_death_chain(5, 0.1)
    with pytest.raises(ConfigError, match="time budget"):
        run_estimator(model, ChangeOfMeasure("mc"), time_budget_ms=budget_ms)


@pytest.mark.parametrize(
    "workers, budget_ms", [(0, None), (-2, None), (4, 100.0), (2, 50.0)]
)
def test_workers_below_one_or_beside_a_time_budget_are_rejected(workers, budget_ms):
    """A time budget runs one stream, so more workers would be ignored."""
    model = make_birth_death_chain(5, 0.1)
    n_runs = None if budget_ms else 100
    with pytest.raises(ConfigError, match="workers"):
        run_estimator(
            model, ChangeOfMeasure("mc"), n_runs=n_runs,
            time_budget_ms=budget_ms, workers=workers,
        )


def test_time_budget_mode_returns_an_estimate():
    model = make_birth_death_chain(5, 0.1)
    est = run_estimator(model, ChangeOfMeasure("mc"), time_budget_ms=50.0)
    assert est.n_runs > 0
    assert est.wall_time_s >= 0.04


def test_rare_event_unseen_gives_zero_width():
    """MC on a very rare event: no hits, zero mean, zero half-width."""
    model = two_type_basic(4, 4, 1.0, 0.001)
    est = run_estimator(model, ChangeOfMeasure("mc"), n_runs=1000, seed=0)
    assert est.mean == 0.0
    assert est.n_hits == 0
    assert est.rel_half_width is None


#: (measure, variant, workers) -> float.hex of mean and CI half-width,
#: hits and non-dominant runs of 2000 runs at seed 11 on
#: two_type_deferred(epsilon=0.1), whose cycle removal sets override rows;
#: a faster sampler must draw the same paths and the same likelihoods
PINNED = {
    ("mc", "plain", 1): ("0x1.8f5c28f5c28f6p-4", "0x1.aa1b1be79221ap-7", 195, 2000),
    ("mc", "plain", 2): ("0x1.604189374bc6ap-4", "0x1.92badf79be529p-7", 172, 2000),
    ("bfb", "plain", 1): ("0x1.60cbabe6e2606p-4", "0x1.451f99e312bbcp-7", 774, 2000),
    ("bfb", "plain", 2): ("0x1.9d77e248fd1fcp-4", "0x1.7638c77d13e1cp-7", 822, 2000),
    ("igbs", "plain", 1): ("0x1.bd5426b63be2fp-4", "0x1.5d9f7535c4ef3p-4", 15, 2000),
    ("igbs", "plain", 2): ("0x1.7c6e5f41608f0p-4", "0x1.3f770872f4aedp-4", 15, 2000),
    ("zva-dbar", "plain", 1): ("0x1.aa86a80630f59p-4", "0x1.146ea53085882p-8", 2000, 3),
    ("zva-dbar", "plain", 2): ("0x1.b7be12d656427p-4", "0x1.33c7f89d8b605p-8", 2000, 3),
    ("zva-dbar", "plus", 1): ("0x1.b1c29781e84b5p-4", "0x1.4dd7ddc2d8edep-10", 2000, 3),
    ("zva-dbar", "plus", 2): ("0x1.b1baf7eb22695p-4", "0x1.4bb3a2ebb7194p-10", 2000, 3),
    ("zva-dbar", "plusplus", 1): ("0x1.b36ad0d7f750dp-4", "0x0.0p+0", 2000, 3),
    ("zva-dbar", "plusplus", 2): ("0x1.b360740a3251ep-4", "0x1.16b96c5f10601p-16", 2000, 3),
    ("zva-delta", "plain", 1): ("0x1.b3883c74c3934p-4", "0x1.6c7764536f03ap-16", 2000, 31),
    ("zva-delta", "plain", 2): ("0x1.b39083cfaa07fp-4", "0x1.872348a251441p-16", 2000, 36),
    ("zva-delta", "plus", 1): ("0x1.b3f56ff3e045ep-4", "0x1.3096d4d9a7903p-11", 2000, 31),
    ("zva-delta", "plus", 2): ("0x1.b5142f11290e1p-4", "0x1.48bad7372aba4p-11", 2000, 36),
    ("zva-delta", "plusplus", 1): ("0x1.b36cbaa349e5ap-4", "0x1.cfdb4c9c9b6d3p-18", 2000, 31),
    ("zva-delta", "plusplus", 2): ("0x1.b3711ea590229p-4", "0x1.2a72f0f068c41p-17", 2000, 36),
}


@pytest.fixture(scope="module")
def deferred_result():
    model = two_type_deferred(epsilon=0.1)
    result = preprocess(model)
    assert result.chain.overrides
    return model, result


@pytest.mark.parametrize("kind, variant, workers", list(PINNED))
def test_seeded_estimates_are_pinned(deferred_result, kind, variant, workers):
    model, result = deferred_result
    if kind in ("zva-dbar", "zva-delta"):
        com = ChangeOfMeasure(kind, result=result, epsilon=model.epsilon)
    else:
        com = ChangeOfMeasure(kind)
    est = run_estimator(
        model, com, variant=variant, n_runs=2000, seed=11, workers=workers
    )
    hw = None if est.ci_half_width is None else est.ci_half_width.hex()
    got = (est.mean.hex(), hw, est.n_hits, est.n_nondominant)
    assert got == PINNED[kind, variant, workers]


#: measure -> float.hex of mean and CI half-width, hits and non-dominant
#: runs of 2000 plain runs at seed 0 on make_dds("fcfs", 0.01): its paths
#: step into states first indexed mid-path, past the end of the sampler's
#: step tables
PINNED_FCFS = {
    "bfb": ("0x1.336296c8a1011p-13", "0x1.bf9242937910cp-15", 411, 2000),
    "igbs": ("0x1.0c03207220854p-15", "0x1.90fde65e4c5dbp-15", 2, 2000),
    "zva-delta": ("0x1.14e49cdbced17p-13", "0x1.b336b186028a0p-18", 1826, 353),
}


@pytest.mark.parametrize("kind", list(PINNED_FCFS))
def test_fcfs_estimates_are_pinned(kind):
    model = make_dds("fcfs", 0.01)
    result = preprocess(model) if kind == "zva-delta" else None
    com = ChangeOfMeasure(kind, result=result, epsilon=model.epsilon)
    est = run_estimator(model, com, n_runs=2000, seed=0, workers=1)
    got = (est.mean.hex(), est.ci_half_width.hex(), est.n_hits, est.n_nondominant)
    assert got == PINNED_FCFS[kind]


#: (model, measure, paths) -> float.hex of the sums of X and X^2, X = L * 1[hit],
#: then hits, paths that left Lambda, dominant paths and steps, over paths
#: drawn one by one from ``Sampler.sample`` with random.Random(0).  fcfs
#: steps into frontier rows and into targets that no phase classified, and
#: hits g after leaving Lambda; on redundancy 71 of 300 paths leave Lambda;
#: on Revisit paths re-enter s as an ordinary state
PINNED_PATHS = {
    ("fcfs", "bfb", 2000): (
        "0x1.9abbd26ae633cp-3", "0x1.e2b295071c4e2p-10", 401, 0, 0, 12019),
    ("fcfs", "zva-delta", 2000): (
        "0x1.07e99871a05d2p-2", "0x1.3d6a8f80c036cp-14", 1805, 198, 1657, 7001),
    ("redundancy", "zva-delta", 300): (
        "0x1.07e02a521f278p-55", "0x1.c611ef1657a60p-118", 229, 71, 22, 9525),
    ("revisit", "mc", 2000): (
        "0x1.7c00000000000p+7", "0x1.7c00000000000p+7", 190, 0, 0, 3563),
    ("revisit", "bfb", 2000): (
        "0x1.61a6083ce5652p+7", "0x1.7efedb7488704p+7", 336, 0, 0, 3451),
    ("revisit", "igbs", 2000): (
        "0x1.8c00000000000p+7", "0x1.6260000000000p+13", 5, 0, 0, 3005),
    ("revisit", "zva-dbar", 2000): (
        "0x1.999b96aaef0fdp+7", "0x1.7dc8e71ed08bep+4", 1949, 78, 1796, 5468),
    ("revisit", "zva-delta", 2000): (
        "0x1.999b96aaef0fdp+7", "0x1.7dc8e71ed08bep+4", 1949, 78, 1796, 5468),
}

PIN_MODELS = {
    "fcfs": lambda: make_dds("fcfs", 0.01),
    "redundancy": lambda: two_type_basic(20, 20, 1.0, 0.1),
    "revisit": Revisit,
}


@pytest.mark.parametrize("name, kind, paths", list(PINNED_PATHS))
def test_sampled_paths_are_pinned(name, kind, paths):
    model = PIN_MODELS[name]()
    sampler = Sampler(model, com_for(kind, model))
    rng = random.Random(0)
    sum1 = sum2 = 0.0
    counts = [0] * 4
    for _ in range(paths):
        s = sampler.sample(rng)
        x = s.likelihood if s.hit_goal else 0.0
        sum1 += x
        sum2 += x * x
        for j, value in enumerate(
            (s.hit_goal, s.left_lambda, s.dominant, s.steps)
        ):
            counts[j] += value
    assert (sum1.hex(), sum2.hex(), *counts) == PINNED_PATHS[name, kind, paths]


#: (model, measure) -> the seven moments of ``_run_stream`` over 2,000 paths
#: at seed 23 (paths, sums of X and X^2, hits, non-dominant paths and their
#: sums of X and X^2), floats by ``float.hex``
PINNED_STREAMS = {
    ("fcfs", "bfb"): (
        2000, "0x1.6f995e35b0eb5p-3", "0x1.a443c3b32548ap-10", 401, 2000,
        "0x1.6f995e35b0eb5p-3", "0x1.a443c3b32548ap-10"),
    ("fcfs", "mc"): (2000, "0x0.0p+0", "0x0.0p+0", 0, 2000, "0x0.0p+0", "0x0.0p+0"),
    ("fcfs", "zva-delta"): (
        2000, "0x1.0d7bbc993a888p-2", "0x1.7ad7f5fd01a85p-14", 1810, 346,
        "0x1.dd872ae9e98bap-5", "0x1.0f9eebc2527d5p-14"),
    ("redundancy", "bfb"): (
        2000, "0x1.4f688a643f11dp-86", "0x1.a66ee4db578e9p-172", 74, 2000,
        "0x1.4f688a643f11dp-86", "0x1.a66ee4db578e9p-172"),
    ("redundancy", "mc"): (2000, "0x0.0p+0", "0x0.0p+0", 0, 2000, "0x0.0p+0", "0x0.0p+0"),
    ("redundancy", "zva-delta"): (
        2000, "0x1.c1ca065fed7c8p-53", "0x1.af1bba3a2464cp-115", 1504, 1871,
        "0x1.b3bffb6689652p-53", "0x1.ac0d706d32abfp-115"),
}


@pytest.mark.parametrize("name, kind", list(PINNED_STREAMS))
def test_stream_moments_are_pinned(name, kind):
    model = PIN_MODELS[name]()
    moments = sampling._run_stream(model, com_for(kind, model), 2000, 23, 0)
    got = tuple(m.hex() if isinstance(m, float) else m for m in moments)
    assert got == PINNED_STREAMS[name, kind]


# ----------------------------------------------------------- statistics

def _estimate(hw, wall):
    return Estimate(
        method="x", variant="plain", mean=1.0, ci_half_width=hw,
        n_runs=1, n_hits=1, n_nondominant=0, p_delta=None, q_delta=None,
        wall_time_s=wall,
    )


def test_wnvr_formula():
    mc = _estimate(0.1, 100.0)
    other = _estimate(0.01, 50.0)
    assert wnvr(mc, other) == pytest.approx(200.0)
    assert wnvr(mc, mc) == pytest.approx(1.0)
    # 10x narrower CI at equal runtime -> 100
    assert wnvr(_estimate(0.1, 1.0), _estimate(0.01, 1.0)) == pytest.approx(100.0)
    assert wnvr(_estimate(None, 1.0), other) is None
    assert wnvr(_estimate(0.0, 1.0), other) is None


def test_rel_half_width():
    est = _estimate(0.1, 1.0)
    assert est.rel_half_width == pytest.approx(0.1)
    assert _estimate(None, 1.0).rel_half_width is None
