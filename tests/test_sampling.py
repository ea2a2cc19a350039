"""Measures, path sampling, estimators, and their statistical identities."""

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rarepath.errors import ConfigError, ConvergenceError
from rarepath.exact import exact_hitting_probability
from rarepath.model import MarkovModel
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
    sampler = Sampler(model, com)
    ix = com.result.chain.indexer
    cum = sampler._compile(ix.lookup(2), context=True)[0]
    targets, _probs, _orders = sampler.chain.row(ix.lookup(2))
    q_up = cum[0] if targets[0] == ix.lookup(3) else cum[1] - cum[0]
    assert q_up == pytest.approx(0.001 / (0.001 + 9e-5), rel=1e-12)


def test_zva_delta_equals_dbar_on_the_chain():
    """The chain has a unique dominant path, so v differs only by a
    constant factor per state and both flavors emit identical q."""
    model = make_birth_death_chain(5, 0.1)
    s_dbar = Sampler(model, com_for("zva-dbar", model))
    s_delta = Sampler(model, com_for("zva-delta", model))
    for state in (1, 2, 3, 4):
        assert s_dbar._compile(
            s_dbar.result.chain.indexer.lookup(state), True
        )[0] == pytest.approx(
            s_delta._compile(s_delta.result.chain.indexer.lookup(state), True)[0],
            rel=1e-12,
        )


def test_measure_validation():
    model = make_birth_death_chain(5, 0.1)
    with pytest.raises(ConfigError):
        ChangeOfMeasure("nonsense")
    with pytest.raises(ConfigError):
        ChangeOfMeasure("zva-delta")  # no preprocessing output
    with pytest.raises(ConfigError):
        ChangeOfMeasure("zva-dbar", result=preprocess(model))  # no epsilon


# ------------------------------------------------------------ sampling

@pytest.mark.parametrize("kind", ["mc", "bfb", "igbs", "zva-dbar", "zva-delta"])
def test_likelihood_recomputes_from_trajectory(kind):
    model = two_type_deferred(epsilon=0.1)
    com = com_for(kind, model)
    rng = random.Random(7)
    sampler = Sampler(model, com)
    for _ in range(200):
        s = sampler.sample(rng, record=True)
        lik = 1.0
        for _state, _target, p, q, _r in s.trajectory:
            lik *= p / q
        # the compiled p/q multiply in path order, so L is exact
        assert lik == s.likelihood
        assert s.steps == len(s.trajectory)
        assert s.order_sum == sum(r for *_x, r in s.trajectory)


def test_sample_path_terminates_and_labels_dominance():
    model = make_birth_death_chain(5, 0.1)
    com = com_for("zva-delta", model)
    rng = random.Random(1)
    sampler = Sampler(model, com)
    hits = 0
    for _ in range(500):
        s = sampler.sample(rng)
        if s.hit_goal:
            hits += 1
            # the chain's only goal paths inside Lambda are dominant
            assert s.dominant or s.left_lambda or s.order_sum > com.result.d_sg
        else:
            assert not s.dominant
    assert hits > 400  # ZVA drives nearly every path to the goal


def test_estimate_expands_only_states_preprocessing_never_resolved():
    """The sampler reads the rows preprocessing resolved from its chain,
    and resolves each further state once."""

    class CountingDds(DdsModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.expanded = []

        def successors(self, state):
            self.expanded.append(state)
            return super().successors(state)

    model = CountingDds("fcfs", 0.01)
    result = preprocess(model)
    resolved = set(model.expanded)
    model.expanded.clear()
    com = ChangeOfMeasure("zva-delta", result=result, epsilon=model.epsilon)
    run_estimator(model, com, n_runs=2000, seed=0)
    assert model.expanded, "no path left the resolved states"
    assert not resolved.intersection(model.expanded)
    assert len(set(model.expanded)) == len(model.expanded)


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


def test_step_cap_bounds_every_path():
    """Under mc, SinglePath's paths take 1 or 2 steps: a cap of 2 never
    trips, and a cap of 1 passes a one-step path and trips on a two-step
    one, replayed from the same RNG state."""
    sampler = Sampler(SinglePath(), ChangeOfMeasure("mc"))
    rng = random.Random(0)
    starts = {1: [], 2: []}
    for _ in range(200):
        before = rng.getstate()
        starts[sampler.sample(rng, max_steps=2).steps].append(before)
    assert starts[1] and starts[2]
    rng.setstate(starts[1][0])
    assert sampler.sample(rng, max_steps=1).steps == 1
    rng.setstate(starts[2][0])
    with pytest.raises(ConvergenceError):
        sampler.sample(rng, max_steps=1)


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
    ("zva-dbar", "plus", 2): ("0x1.b1baf7eb22695p-4", "0x1.4bb3a2ebb7193p-10", 2000, 3),
    ("zva-dbar", "plusplus", 1): ("0x1.b36ad0d7f750dp-4", "0x1.6ed3df4d4263ep-36", 2000, 3),
    ("zva-dbar", "plusplus", 2): ("0x1.b360740a3251ep-4", "0x1.16b96c5f0f6eap-16", 2000, 3),
    ("zva-delta", "plain", 1): ("0x1.b3883c74c3934p-4", "0x1.6c7764536f03ap-16", 2000, 31),
    ("zva-delta", "plain", 2): ("0x1.b39083cfaa07fp-4", "0x1.872348a251441p-16", 2000, 36),
    ("zva-delta", "plus", 1): ("0x1.b3f56ff3e045ep-4", "0x1.3096d4d9a7902p-11", 2000, 31),
    ("zva-delta", "plus", 2): ("0x1.b5142f11290e1p-4", "0x1.48bad7372aba4p-11", 2000, 36),
    ("zva-delta", "plusplus", 1): ("0x1.b36cbaa349e5ap-4", "0x1.cfdb4c9c9a5e2p-18", 2000, 31),
    ("zva-delta", "plusplus", 2): ("0x1.b3711ea590229p-4", "0x1.2a72f0f06869cp-17", 2000, 36),
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
