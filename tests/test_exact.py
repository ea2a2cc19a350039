"""Linear-solve oracle: closed forms and a second, independent solver."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarepath.errors import ModelError, StateBudgetExceeded
from rarepath.exact import exact_hitting_probability
from rarepath.model import GOAL, TABOO, MarkovModel
from rarepath.preproc import preprocess
from rarepath.sampling import ChangeOfMeasure, run_estimator
from rarepath.zoo import (
    MulticomponentModel,
    make_birth_death_chain,
    make_dds,
    two_type_basic,
    two_type_deferred,
)

from conftest import dense_hitting_probability, enumerate_chain


def ruin_probability(levels: int, epsilon: float, k: int = 1) -> float:
    """Gambler's-ruin closed form: reach ``levels`` before 0 from ``k``.

    Up-steps have probability eps, down-steps 1 - eps:
    ((1 - rho**k) / (1 - rho**levels)) with rho = (1 - eps) / eps.
    """
    rho = (1.0 - epsilon) / epsilon
    return (1.0 - rho**k) / (1.0 - rho**levels)


@pytest.mark.parametrize("levels,eps", [(5, 0.1), (5, 0.3), (8, 0.2), (3, 0.45)])
def test_chain_matches_ruin_closed_form(levels, eps):
    model = make_birth_death_chain(levels, eps)
    pi_s, pi = exact_hitting_probability(model)
    expected = ruin_probability(levels, eps)
    assert pi_s == pytest.approx(expected, rel=1e-10)
    # interior levels follow the same closed form with k = level
    for k in range(1, levels):
        assert pi[k] == pytest.approx(
            ruin_probability(levels, eps, k), rel=1e-10
        )


class TableModel(MarkovModel):
    """A DTMC given as a table: state -> (targets, probabilities).

    "g" and "g2" are goal states, "t" and "t2" taboo ones; orders are
    assigned from the probabilities.
    """

    emits_rates = False
    epsilon = 0.1

    def __init__(self, rows, initial_state=0):
        self.rows = rows
        self._initial = initial_state

    @property
    def initial_state(self):
        return self._initial

    def is_goal(self, state):
        return state in ("g", "g2")

    def is_taboo(self, state):
        return state in ("t", "t2")

    def successors(self, state):
        targets, probs = self.rows[state]
        return targets, probs, [None] * len(targets)


@pytest.mark.parametrize("p,q", [(0.05, 0.5), (0.3, 0.9), (0.5, 0.1)])
def test_two_state_loop_closed_form(p, q):
    """a -> g (p) / b (1-p); b -> a (q) / t (1-q).

    pi(a) = p / (1 - (1 - p) q) by eliminating pi(b) = q pi(a).
    """
    model = TableModel({"a": (["g", "b"], [p, 1 - p]), "b": (["a", "t"], [q, 1 - q])}, "a")
    pi_s, pi = exact_hitting_probability(model)
    expected = p / (1.0 - (1.0 - p) * q)
    assert pi_s == pytest.approx(expected, rel=1e-10)
    assert pi["b"] == pytest.approx(q * expected, rel=1e-10)


def test_absorbing_non_terminal_state_reads_zero():
    """A state whose row only loops on itself can never reach g."""
    model = TableModel(
        {"a": (["g", "trap", "t"], [0.1, 0.1, 0.8]), "trap": (["trap"], [1.0])}, "a"
    )
    pi_s, pi = exact_hitting_probability(model)
    assert pi_s == pytest.approx(0.1, rel=1e-12)
    assert pi["trap"] == 0.0
    with pytest.raises(ModelError, match="order-0 cycle with no exit"):
        preprocess(model)


@st.composite
def small_dtmcs(draw):
    """Rows with self-loops, repeated targets and goal and taboo edges.

    Every row also exits to a terminal state, so the dense solve's matrix
    is regular and the sweeps contract by a rate bounded away from 1.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    names = [*range(n), "g", "g2", "t", "t2"]
    entry = st.tuples(st.sampled_from(names), st.integers(min_value=1, max_value=9))
    rows = {}
    for x in range(n):
        entries = draw(st.lists(entry, max_size=7))
        entries.append(draw(st.tuples(st.sampled_from(["g", "t"]), st.integers(1, 9))))
        total = sum(w for _z, w in entries)
        rows[x] = [z for z, _w in entries], [w / total for _z, w in entries]
    return TableModel(rows)


@settings(max_examples=200, deadline=None)
@given(small_dtmcs())
def test_random_dtmcs_agree_with_dense_direct_solve(model):
    pi_s, pi = exact_hitting_probability(model)
    reference = dense_hitting_probability(model)
    assert pi_s == pytest.approx(reference[0], rel=1e-9, abs=0.0)
    assert set(pi) == set(reference)
    for state, value in pi.items():
        assert value == pytest.approx(reference[state], rel=1e-9, abs=0.0)


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: two_type_basic(3, 3, 1.0, 0.05), id="two-type"),
        pytest.param(lambda: two_type_deferred(epsilon=0.01), id="deferred"),
        pytest.param(lambda: make_birth_death_chain(5, 0.1), id="chain"),
        # pi(s) ~ 1e-12: an absolute stopping rule stops far too early here
        pytest.param(lambda: two_type_basic(4, 4, 1.0, 1e-4), id="two-type-1e-4"),
        # pi(s) = 1e-19 lies far below the largest component (~0.5): a
        # rule relative to max(x) stops before pi(s) has converged
        pytest.param(lambda: two_type_basic(20, 20, 1.0, 0.1), id="two-type-20"),
    ],
)
def test_agrees_with_dense_direct_solve(factory):
    """Gauss-Seidel sweep solver vs a one-shot dense solve, per state.

    The sweeps stop on relative step and residual criteria, so every
    state agrees relatively, however small its probability.
    """
    model = factory()
    pi_s, pi = exact_hitting_probability(model)
    reference = dense_hitting_probability(model)
    # abs=0 switches off approx's default absolute tolerance of 1e-12
    assert pi_s == pytest.approx(reference[model.initial_state], rel=1e-9, abs=0.0)
    for state, value in pi.items():
        assert value == pytest.approx(reference[state], rel=1e-9, abs=0.0)


def test_reduced_chain_option_uses_replacement_rows():
    model = two_type_deferred(epsilon=0.01)
    result = preprocess(model)
    pi_s, _ = exact_hitting_probability(model, result)
    reference = dense_hitting_probability(model, result)
    assert pi_s == pytest.approx(reference[model.initial_state], rel=1e-9)


@pytest.mark.parametrize(
    "factory, size",
    [
        pytest.param(lambda: make_birth_death_chain(5, 0.1), 5, id="chain"),
        pytest.param(lambda: two_type_deferred(epsilon=0.01), 10, id="deferred"),
        pytest.param(lambda: two_type_basic(20, 20, 1.0, 0.1), 400, id="two-type-20"),
    ],
)
def test_map_holds_every_reachable_non_terminal_state(factory, size):
    """g and t have matrix rows but no entry in the returned map."""
    model = factory()
    _pi_s, pi = exact_hitting_probability(model)
    assert GOAL not in pi and TABOO not in pi
    assert len(pi) == size
    assert set(pi) == set(enumerate_chain(model))
    # the reduced chain's map also holds the states its preprocessing indexed
    result = preprocess(model)
    _pi_s, reduced = exact_hitting_probability(model, result)
    assert GOAL not in reduced and TABOO not in reduced
    assert set(reduced) >= set(enumerate_chain(model, result))


@pytest.mark.parametrize(
    "factory",
    [
        # cycle removal leaves overrides
        pytest.param(lambda: two_type_deferred(epsilon=0.01), id="deferred"),
        # a quarter of the paths leave Lambda, into rows the chain does not hold
        pytest.param(lambda: two_type_basic(20, 20, 1.0, 0.1), id="two-type-20"),
    ],
)
def test_reduced_solve_keeps_shared_rows_and_stores_no_others(factory):
    model = factory()
    result = preprocess(model)
    chain = result.chain
    held = dict(chain._rows)
    overrides = dict(chain.overrides)
    exact_hitting_probability(model, result)
    assert chain._rows.keys() == held.keys()
    assert all(chain.fetch(idx) is row for idx, row in held.items())
    assert chain.overrides.keys() == overrides.keys()
    assert all(chain.overrides[idx] is row for idx, row in overrides.items())
    # sampling after the solve reads the same chain as after preprocessing
    solved, fresh = (
        run_estimator(
            model,
            ChangeOfMeasure("zva-delta", result=res, epsilon=model.epsilon),
            n_runs=2_000,
            seed=3,
        )
        for res in (result, preprocess(factory()))
    )
    assert solved.mean.hex() == fresh.mean.hex()
    assert solved.ci_half_width.hex() == fresh.ci_half_width.hex()


def test_full_dds_solve_memory_is_bounded():
    """The oracle holds no chain rows: 55.6 MiB traced peak when it kept
    every row and appended the matrix one entry at a time, 29.7 MiB now."""
    model = make_dds("dedicated", 0.01)
    tracemalloc.start()
    try:
        exact_hitting_probability(model)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 35 * 2**20


def test_state_cap_enforced():
    with pytest.raises(StateBudgetExceeded):
        exact_hitting_probability(two_type_basic(4, 4, 1.0, 0.01), state_cap=5)


def test_goal_predicate_asked_once_per_descriptor():
    """The oracle classifies each descriptor once, not once per edge."""

    class CountingGoal(MulticomponentModel):
        def __init__(self, types, epsilon):
            super().__init__(types, epsilon)
            self.asked = Counter()

        def is_goal(self, state):
            self.asked[state] += 1
            return super().is_goal(state)

    base = two_type_basic(20, 20, 1.0, 0.1)
    model = CountingGoal(base.types, base.epsilon)
    exact_hitting_probability(model)
    # 400 non-goal states and the 40 goal states next to them
    assert len(model.asked) == 440
    assert max(model.asked.values()) == 1
