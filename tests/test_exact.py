"""Linear-solve oracle: closed forms and a second, independent solver."""

from collections import Counter

import pytest

from rarepath.errors import StateBudgetExceeded
from rarepath.exact import exact_hitting_probability
from rarepath.model import GOAL, TABOO, MarkovModel
from rarepath.preproc import preprocess
from rarepath.zoo import (
    MulticomponentModel,
    make_birth_death_chain,
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


class TwoStateLoop(MarkovModel):
    """a -> g (p) / b (1-p); b -> a (q) / t (1-q).

    pi(a) = p / (1 - (1 - p) q) by eliminating pi(b) = q pi(a).
    """

    emits_rates = False
    epsilon = 0.1

    def __init__(self, p: float, q: float):
        self.p = p
        self.q = q

    @property
    def initial_state(self):
        return "a"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        if state == "a":
            return ["g", "b"], [self.p, 1 - self.p], [1, 0]
        return ["a", "t"], [self.q, 1 - self.q], [0, 0]


@pytest.mark.parametrize("p,q", [(0.05, 0.5), (0.3, 0.9), (0.5, 0.1)])
def test_two_state_loop_closed_form(p, q):
    pi_s, pi = exact_hitting_probability(TwoStateLoop(p, q))
    expected = p / (1.0 - (1.0 - p) * q)
    assert pi_s == pytest.approx(expected, rel=1e-10)
    assert pi["b"] == pytest.approx(q * expected, rel=1e-10)


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
