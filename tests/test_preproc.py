"""Preprocessing: distances, relevant set, cycle removal, dominant paths.

Every derived quantity is checked against an independent oracle from
conftest (Bellman-Ford relaxation, dense linear solves, budgeted path
enumeration) or against hand-computed values on small chains.
"""

import math

import pytest

from rarepath.errors import (
    ConvergenceError,
    GoalUnreachableError,
    ModelError,
    StateBudgetExceeded,
)
from rarepath.exact import exact_hitting_probability
from rarepath.model import UNSEEN, MarkovModel
from rarepath.orders import INFINITY
from rarepath.preproc import preprocess, solve_exit_distribution
from rarepath.sampling import ChangeOfMeasure, run_estimator
from rarepath.zoo import (
    make_birth_death_chain,
    make_dds,
    two_type_basic,
    two_type_deferred,
    two_type_unbalanced,
)

from conftest import bellman_ford_distance, brute_force_dominant_mass

CYCLE_MODELS = [
    pytest.param(lambda: two_type_deferred(epsilon=0.01), id="deferred"),
    pytest.param(lambda: two_type_unbalanced(epsilon=0.05), id="unbalanced"),
]

ALL_MODELS = [
    pytest.param(lambda: make_birth_death_chain(5, 0.1), id="chain"),
    pytest.param(lambda: two_type_basic(3, 3, 1.0, 0.05), id="two-type"),
    *CYCLE_MODELS,
]


# ---------------------------------------------------------------- chain

def test_chain_hand_traced_distances():
    """levels=5, eps=0.1: one forced step to level 1, then 4 up-steps."""
    result = preprocess(make_birth_death_chain(5, 0.1))
    ix = result.chain.indexer
    d = result.d_forward
    assert result.d_sg == 4
    assert d[ix.lookup("s")] == 0
    assert d[ix.lookup(1)] == 0
    assert d[ix.lookup(2)] == 1
    assert d[ix.lookup(3)] == 2
    assert d[ix.lookup(4)] == 3
    assert d[result.chain.taboo_index] == 0


def test_chain_hand_traced_backward_values():
    """v(x) = eps**d(x, g): the only minimal path is straight up."""
    result = preprocess(make_birth_death_chain(5, 0.1))
    ix = result.chain.indexer
    db = result.d_backward
    assert db[ix.lookup(4)] == 1
    assert db[ix.lookup(1)] == 4
    assert db[ix.lookup("s")] == 4
    assert db[result.chain.taboo_index] == INFINITY
    for level in (1, 2, 3, 4):
        idx = ix.lookup(level)
        assert result.v_delta[idx] == pytest.approx(0.1 ** db[idx], rel=1e-12)
    assert result.p_delta == pytest.approx(1e-4, rel=1e-12)


def test_two_type_hand_traced_backward_values():
    """Two-type (4, 4, c = 1), eps = 0.01: frontier states are no goal.

    From (2,2) every path to g takes two failures, from (1,1) three.  From
    (1,3) the dominant paths are the type-2 failure, 0.01/2.02, and a
    type-1 repair followed by it, (1/2.02)(0.01/1.02), so v = 0.01/1.02;
    the type-1 failure into the frontier state (2,3) is not a goal hit.
    """
    result = preprocess(two_type_basic(4, 4, 1.0, 0.01))
    ix = result.chain.indexer
    db = result.d_backward
    assert db[ix.lookup((2, 2))] == 2
    assert db[ix.lookup((1, 1))] == 3
    assert ix.lookup((2, 3)) in result.gamma_indices
    assert result.v_delta[ix.lookup((1, 3))] == pytest.approx(0.01 / 1.02, rel=1e-12)


class _FrontierCycle(MarkovModel):
    """d(s, g) = 1; the frontier b <-> c is an order-0 cycle, the
    frontier state d has an order-0 self-loop and e cannot reach g.

    v(b) = 0.1 + 0.5 v(c) and v(c) = 0.2 + 0.5 v(b) give v(b) = 4/15 and
    v(c) = 1/3; v(d) = 0.25 / (1 - 0.5) = 1/2; v(e) = 0.
    """

    emits_rates = False
    epsilon = 0.1
    rows = {
        "s": [
            ("g", 0.1, 1), ("t", 0.5, 0),
            ("b", 0.1, 2), ("c", 0.1, 2), ("d", 0.1, 2), ("e", 0.1, 2),
        ],
        "b": [("c", 0.5, 0), ("g", 0.1, 1), ("t", 0.4, 0)],
        "c": [("b", 0.5, 0), ("g", 0.2, 1), ("t", 0.3, 0)],
        "d": [("d", 0.5, 0), ("g", 0.25, 1), ("t", 0.25, 0)],
        "e": [("t", 1.0, 0)],
    }

    @property
    def initial_state(self):
        return "s"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        return tuple(zip(*self.rows[state]))


def test_frontier_order_0_cycle_values_solve_exactly():
    result = preprocess(_FrontierCycle())
    ix = result.chain.indexer
    assert {ix.state(i) for i in result.gamma_indices} == {"b", "c", "d", "e"}
    for state, expected in (("b", 4 / 15), ("c", 1 / 3), ("d", 1 / 2)):
        assert result.d_backward[ix.lookup(state)] == 1
        assert result.v_delta[ix.lookup(state)] == pytest.approx(expected, rel=1e-12)
    assert result.d_backward[ix.lookup("e")] == INFINITY
    assert result.v_delta[ix.lookup("e")] == 0.0
    assert result.p_delta == pytest.approx(0.1, rel=1e-12)


def test_chain_relevant_set_and_frontier():
    """Every chain state is at distance <= d(s,g); no frontier remains."""
    result = preprocess(make_birth_death_chain(5, 0.1))
    assert result.hpc_count == 0
    assert result.gamma_size == 0
    names = {result.chain.indexer.state(i) for i in result.lambda_indices}
    assert names >= {"s", 1, 2, 3, 4}


# ------------------------------------------------ distances vs oracle

@pytest.mark.parametrize("factory", ALL_MODELS)
def test_forward_distances_match_bellman_ford(factory):
    model = factory()
    result = preprocess(model)
    dist, dist_goal = bellman_ford_distance(model, result)
    assert result.d_sg == dist_goal
    for idx in result.lambda_indices:
        if idx in (result.chain.goal_index, result.chain.taboo_index):
            continue
        state = result.chain.indexer.state(idx)
        assert result.d_forward[idx] == dist[state], state


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_relevant_set_is_exactly_the_close_states(factory):
    """Lambda = {x : d(s, x) <= d(s, g)} over the reachable reduced chain."""
    model = factory()
    result = preprocess(model)
    dist, dist_goal = bellman_ford_distance(model, result)
    expected = {x for x, dx in dist.items() if dx <= dist_goal}
    got = {
        result.chain.indexer.state(i)
        for i in result.lambda_indices
        if i not in (result.chain.goal_index, result.chain.taboo_index)
    }
    assert got == expected


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_forward_backward_distance_consistency(factory):
    """d(s, g) from the forward phase equals d(x,g)-at-s from backward."""
    result = preprocess(factory())
    assert result.d_backward[result.chain.s_index] == result.d_sg


# --------------------------------------------- dominant-path values

@pytest.mark.parametrize("factory", ALL_MODELS)
def test_dominant_path_mass_matches_enumeration(factory):
    """v(x) equals the budgeted path enumeration to near machine precision."""
    model = factory()
    result = preprocess(model)
    reference = brute_force_dominant_mass(model, result)
    assert reference, "oracle produced no comparable states"
    for idx, expected in reference.items():
        assert result.v_delta[idx] == pytest.approx(
            expected, rel=1e-12, abs=1e-300
        ), result.chain.indexer.state(idx)


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_dominant_mass_is_a_probability(factory):
    """0 <= v(x) <= 1 everywhere, and the start state keeps positive mass."""
    result = preprocess(factory())
    for idx, v in result.v_delta.items():
        assert 0.0 <= v <= 1.0 + 1e-9, result.chain.indexer.state(idx)
    assert result.p_delta > 0.0


# ------------------------------------------------------ cycle removal

@pytest.mark.parametrize("factory", CYCLE_MODELS)
def test_cycle_removal_detects_a_cycle(factory):
    result = preprocess(factory())
    assert result.hpc_count >= 1
    assert result.chain.overrides


@pytest.mark.parametrize("factory", CYCLE_MODELS)
def test_cycle_removal_preserves_hitting_probability(factory):
    """pi(s) of the reduced chain equals pi(s) of the original chain."""
    model = factory()
    result = preprocess(model)
    pi_plain, _ = exact_hitting_probability(model)
    pi_reduced, _ = exact_hitting_probability(model, result)
    assert pi_reduced == pytest.approx(pi_plain, rel=1e-9)


@pytest.mark.parametrize("factory", CYCLE_MODELS)
def test_replacement_rows_are_stochastic_with_no_zero_order_self_loop(factory):
    result = preprocess(factory())
    for idx, (targets, probs, orders) in result.chain.overrides.items():
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)
        assert all(r >= 0 for r in orders)
        assert all(z != idx or r > 0 for z, r in zip(targets, orders))
        assert min(orders) == 0


def test_exit_distribution_closed_form_two_member_loop():
    """0 <-> 1 loop: exits solvable by hand.

    0 -> 1 (0.5), 0 -> A (0.5); 1 -> 0 (0.4), 1 -> B (0.6) gives
    mu[0] = (0.625, 0.375) and mu[1] = (0.25, 0.75).
    """
    rows = {0: ([1, 10], [0.5, 0.5], (0, 0)), 1: ([0, 11], [0.4, 0.6], (0, 0))}
    mu = solve_exit_distribution(rows, [0, 1], [10, 11])
    assert mu[0][10] == pytest.approx(0.625)
    assert mu[0][11] == pytest.approx(0.375)
    assert mu[1][10] == pytest.approx(0.25)
    assert mu[1][11] == pytest.approx(0.75)


def test_exit_distribution_with_tiny_exit_mass():
    """Near-absorbing loop: internal mass 1 - 1e-9 must still solve."""
    eps = 1e-9
    rows = {
        0: ([1, 10], [1.0 - eps, eps], (0, 9)),
        1: ([11, 0], [eps, 1.0 - eps], (9, 0)),
    }
    mu = solve_exit_distribution(rows, [0, 1], [10, 11])
    # by symmetry each member leaves through its own exit first slightly
    # more often than not
    assert mu[0][10] + mu[0][11] == pytest.approx(1.0, abs=1e-9)
    assert mu[0][10] == pytest.approx(1.0 / (2.0 - eps), rel=1e-6)


def test_exit_distribution_self_loop():
    """Geometric self-loop: exit split equals the one-step split."""
    rows = {0: ([1, 0, 2], [0.06, 0.9, 0.04], (1, 0, 1))}
    mu = solve_exit_distribution(rows, [0], [1, 2])
    assert mu[0][1] == pytest.approx(0.6)
    assert mu[0][2] == pytest.approx(0.4)


# --------------------------------------------------------- structure

@pytest.mark.parametrize("factory", ALL_MODELS)
def test_frontier_is_disjoint_from_relevant_set(factory):
    result = preprocess(factory())
    assert not (result.gamma_indices & result.lambda_indices)
    assert result.chain.goal_index not in result.gamma_indices
    assert result.chain.taboo_index not in result.gamma_indices


@pytest.mark.parametrize(
    "factory, discovered",
    [
        *(pytest.param(*p.values, None, id=p.id) for p in ALL_MODELS),
        *(
            pytest.param(lambda s=s: make_dds(s, 0.01), n, id=f"dds-{s}")
            for s, n in (
                ("dedicated", 543), ("disk_priority", 549),
                ("proc_priority", 543), ("fcfs", 4662),
            )
        ),
    ],
)
def test_backward_phase_indexes_no_state(factory, discovered):
    """Frontier targets beyond Lambda + Gamma are looked up, never
    indexed, so the chain leaves preprocessing with the forward phase's
    states only.  Every row in Lambda is classified, which the sampler's
    ZVA steps read without classifying."""
    result = preprocess(factory())
    chain = result.chain
    assert len(chain) == result.states_discovered
    for x in result.lambda_indices:
        if not chain.is_terminal(x):
            assert UNSEEN not in chain.fetch(x)[0], chain.indexer.state(x)
    if discovered is not None:
        assert result.states_discovered == discovered


def test_processing_order_covers_relevant_set():
    result = preprocess(two_type_deferred(epsilon=0.01))
    seen = set(result.processing_order)
    for idx in result.lambda_indices | result.gamma_indices:
        assert idx in seen


@pytest.mark.parametrize(
    "factory",
    [*ALL_MODELS, pytest.param(_FrontierCycle, id="frontier-cycle")],
)
def test_processing_order_is_topological(factory):
    """Every state with a finite d(., g) follows all of its dominant
    successors, except the states in or behind an order-0 cycle of
    dominant edges, which are solved together."""
    result = preprocess(factory())
    chain, db, lam = result.chain, result.d_backward, result.lambda_indices
    inner = lam | result.gamma_indices
    successors = {}
    for x in inner:
        if chain.is_terminal(x) or db[x] == INFINITY:
            continue
        targets, _probs, orders = (
            chain.row(x) if x in lam else chain.folded_row(x, inner)
        )
        edges = [i for i, (z, r) in enumerate(zip(targets, orders)) if r + db[z] == db[x]]
        assert result.dominant_edges[x] == edges, chain.indexer.state(x)
        successors[x] = {targets[i] for i in edges}
    assert len(result.dominant_edges) == len(successors)

    def reach(x):
        seen, stack = set(), list(successors.get(x, ()))
        while stack:
            z = stack.pop()
            if z not in seen:
                seen.add(z)
                stack.extend(successors.get(z, ()))
        return seen

    reachable = {x: reach(x) for x in successors}
    on_cycle = {x for x, seen in reachable.items() if x in seen}
    cyclic = {x for x, seen in reachable.items() if seen & on_cycle}
    position = {x: k for k, x in enumerate(result.processing_order)}
    assert len(position) == len(result.processing_order)
    for x in set(successors) - cyclic:
        for z in successors[x]:
            assert position[z] < position[x], result.chain.indexer.state(x)
    if factory is _FrontierCycle:
        assert {result.chain.indexer.state(x) for x in cyclic} == {"b", "c", "d"}


def test_report_fields():
    result = preprocess(make_birth_death_chain(5, 0.1))
    rep = result.report()
    assert rep["d_sg"] == 4
    assert rep["p_delta"] == pytest.approx(1e-4)
    assert rep["hpc_count"] == 0
    assert rep["lambda_size"] == result.lambda_size
    assert rep["gamma_size"] == 0
    assert rep["wall_time_ms"] >= 0


def test_report_unchanged_after_sampling_and_oracle_grow_the_chain():
    model = two_type_basic(6, 6, 1.0, 0.1)
    result = preprocess(model)
    report = result.report()
    size = len(result.chain)
    com = ChangeOfMeasure("zva-delta", result=result, epsilon=model.epsilon)
    run_estimator(model, com, n_runs=2000, seed=0)
    exact_hitting_probability(model, result)
    assert len(result.chain) > size
    assert result.report() == report


def test_regenerative_start_counted_once():
    """When s is also the return state, Lambda counts it a single time."""
    result = preprocess(two_type_basic(3, 3, 1.0, 0.05))
    assert result.chain.initial_is_taboo
    if result.chain.taboo_index in result.lambda_indices:
        assert result.lambda_size == len(result.lambda_indices) - 1


# ------------------------------------------------------------ errors

class _Unreachable(MarkovModel):
    emits_rates = False
    epsilon = 0.1

    @property
    def initial_state(self):
        return "a"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        return ["t"], [1.0], [0]


def test_unreachable_goal_raises():
    with pytest.raises(GoalUnreachableError):
        preprocess(_Unreachable())


def test_state_budget_enforced():
    with pytest.raises(StateBudgetExceeded):
        preprocess(two_type_basic(4, 4, 1.0, 0.01), state_budget=3)


def test_initial_goal_state_rejected():
    class StartsAtGoal(_Unreachable):
        def is_goal(self, state):
            return state == "a"

    with pytest.raises(ModelError):
        preprocess(StartsAtGoal())
