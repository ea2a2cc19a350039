"""Preprocessing: distances, relevant set, cycle removal, dominant paths.

Every derived quantity is checked against an independent oracle from
conftest (Bellman-Ford relaxation, dense linear solves, budgeted path
enumeration) or against hand-computed values on small chains.
"""

import gc
import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarepath.errors import GoalUnreachableError, ModelError, StateBudgetExceeded
from rarepath.exact import exact_hitting_probability
from rarepath.model import UNSEEN, MarkovModel
from rarepath.orders import INFINITY
from rarepath.preproc import preprocess, solve_absorbing
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
    chain = result.chain
    d = result.d_forward
    assert result.d_sg == 4
    assert d[chain.lookup("s")] == 0
    assert d[chain.lookup(1)] == 0
    assert d[chain.lookup(2)] == 1
    assert d[chain.lookup(3)] == 2
    assert d[chain.lookup(4)] == 3
    assert d[result.chain.taboo_index] == 0


def test_chain_hand_traced_backward_values():
    """v(x) = eps**d(x, g): the only minimal path is straight up."""
    result = preprocess(make_birth_death_chain(5, 0.1))
    chain = result.chain
    db = result.d_backward
    assert db[chain.lookup(4)] == 1
    assert db[chain.lookup(1)] == 4
    assert db[chain.lookup("s")] == 4
    assert db[result.chain.taboo_index] == INFINITY
    for level in (1, 2, 3, 4):
        idx = chain.lookup(level)
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
    chain = result.chain
    db = result.d_backward
    assert db[chain.lookup((2, 2))] == 2
    assert db[chain.lookup((1, 1))] == 3
    assert chain.lookup((2, 3)) in result.gamma_indices
    assert result.v_delta[chain.lookup((1, 3))] == pytest.approx(0.01 / 1.02, rel=1e-12)


class _Table(MarkovModel):
    """A DTMC given as ``rows``: state -> [(target, p, order), ...],
    starting in s; g is the goal and t the taboo state."""

    emits_rates = False
    epsilon = 0.1

    def __init__(self, rows=None):
        if rows is not None:
            self.rows = rows

    @property
    def initial_state(self):
        return "s"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        return tuple(zip(*self.rows[state]))


class _FrontierCycle(_Table):
    """d(s, g) = 1; the frontier b <-> c is an order-0 cycle, the frontier
    state f lies behind it, d has an order-0 self-loop and e cannot reach g.

    v(b) = 0.1 + 0.5 v(c) and v(c) = 0.2 + 0.5 v(b) give v(b) = 4/15 and
    v(c) = 1/3; v(f) = 0.1 + 0.5 v(b) = 7/30; v(d) = 0.25 / (1 - 0.5) =
    1/2; v(e) = 0.
    """

    rows = {
        "s": [
            ("g", 0.1, 1), ("t", 0.4, 0),
            ("b", 0.1, 2), ("c", 0.1, 2), ("d", 0.1, 2), ("e", 0.1, 2),
            ("f", 0.1, 2),
        ],
        "b": [("c", 0.5, 0), ("g", 0.1, 1), ("t", 0.4, 0)],
        "c": [("b", 0.5, 0), ("g", 0.2, 1), ("t", 0.3, 0)],
        "d": [("d", 0.5, 0), ("g", 0.25, 1), ("t", 0.25, 0)],
        "e": [("t", 1.0, 0)],
        "f": [("b", 0.5, 0), ("g", 0.1, 1), ("t", 0.4, 0)],
    }


def test_frontier_order_0_cycle_values_solve_exactly():
    result = preprocess(_FrontierCycle())
    chain = result.chain
    assert {chain.state(i) for i in result.gamma_indices} == {"b", "c", "d", "e", "f"}
    for state, expected in (("b", 4 / 15), ("c", 1 / 3), ("f", 7 / 30), ("d", 1 / 2)):
        assert result.d_backward[chain.lookup(state)] == 1
        assert result.v_delta[chain.lookup(state)] == pytest.approx(expected, rel=1e-12)
    assert result.d_backward[chain.lookup("e")] == INFINITY
    assert result.v_delta[chain.lookup("e")] == 0.0
    assert result.p_delta == pytest.approx(0.1, rel=1e-12)


def test_chain_relevant_set_and_frontier():
    """Every chain state is at distance <= d(s,g); no frontier remains."""
    result = preprocess(make_birth_death_chain(5, 0.1))
    assert result.hpc_count == 0
    assert result.gamma_size == 0
    chain = result.chain
    names = {chain.state(i) for i in result.lambda_indices if i >= 0}
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
        state = result.chain.state(idx)
        assert result.d_forward[idx] == dist[state], state


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_relevant_set_is_exactly_the_close_states(factory):
    """Lambda = {x : d(s, x) <= d(s, g)} over the reachable reduced chain."""
    model = factory()
    result = preprocess(model)
    dist, dist_goal = bellman_ford_distance(model, result)
    expected = {x for x, dx in dist.items() if dx <= dist_goal}
    got = {
        result.chain.state(i)
        for i in result.lambda_indices
        if i not in (result.chain.goal_index, result.chain.taboo_index)
    }
    assert got == expected


#: every zoo model the tests build, at each epsilon they use
ZOO_MODELS = [
    *ALL_MODELS,
    pytest.param(lambda: make_birth_death_chain(3, 0.3), id="chain-3"),
    *(
        pytest.param(lambda k=k, eps=eps: two_type_basic(k, k, 1.0, eps),
                     id=f"two-type-{k}-{eps}")
        for k, eps in ((2, 0.2), (3, 0.1), (4, 0.01), (4, 1e-4), (6, 0.1), (20, 0.1))
    ),
    *(
        pytest.param(lambda eps=eps: two_type_deferred(epsilon=eps), id=f"deferred-{eps}")
        for eps in (0.1, 1e-7)
    ),
    pytest.param(lambda: two_type_deferred(3, 2, 1.0 / 5.0, 0.15), id="deferred-3-2"),
    *(
        pytest.param(lambda eps=eps: two_type_unbalanced(epsilon=eps), id=f"unbalanced-{eps}")
        for eps in (0.1, 0.01, 0.001, 1e-5)
    ),
    *(
        pytest.param(lambda strategy=strategy, eps=eps: make_dds(strategy, eps),
                     id=f"dds-{strategy}-{eps}")
        for strategy in ("dedicated", "disk_priority", "proc_priority", "fcfs")
        for eps in (0.1, 0.01)
    ),
]


@pytest.mark.parametrize("factory", ZOO_MODELS)
def test_forward_backward_distance_consistency(factory):
    """d(s, g) from the forward phase equals d(x,g)-at-s from backward.
    The sampler's dominance rule rests on it: along a path inside Lambda
    the order sum minus d(s, g) is the sum of the slacks
    order + d(z, g) - d(x, g) of its steps, each 0 on a dominant edge
    and positive elsewhere."""
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
        ), result.chain.state(idx)


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_dominant_mass_is_a_probability(factory):
    """0 <= v(x) <= 1 everywhere, and the start state keeps positive mass."""
    result = preprocess(factory())
    for idx, v in result.v_delta.items():
        assert 0.0 <= v <= 1.0 + 1e-9, result.chain.state(idx)
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
        assert math.fsum(probs) == pytest.approx(1.0, rel=0.0, abs=4 * math.ulp(1.0))
        assert all(r >= 0 for r in orders)
        assert all(z != idx or r > 0 for z, r in zip(targets, orders))
        assert min(orders) == 0


def _namer(chain):
    """A chain id's name: its state's descriptor, or g or t."""

    def name(x):
        if x == chain.goal_index:
            return "g"
        return "t" if x == chain.taboo_index else repr(chain.state(x))

    return name


def _preproc_dump(result):
    """Every override row and every v_delta, with floats as ``float.hex``.

    States are named by descriptor, g and t as such, and the lines are
    sorted, so the dump does not depend on how the chain numbers them."""
    chain = result.chain
    name = _namer(chain)
    rows = sorted(
        f"{name(x)} {[*map(name, targets)]} {[p.hex() for p in probs]} {list(orders)}"
        for x, (targets, probs, orders) in chain.overrides.items()
    )
    values = sorted(f"{name(x)} {v.hex()}" for x, v in result.v_delta.items())
    return "\n".join(rows + values)


#: sha256 of ``_preproc_dump``, with the number of override rows and of v values
PINNED_PREPROC = {
    "deferred-0.1": (2, 11, "e90c8130e949189f8c1e848453b1efcc61c99fd6bd8e74d0eeee15845d13b32c"),
    "deferred-0.01": (2, 11, "df398dcd84b06af57fdefdd1e43c7553d1ed578650234bca7eb072a50943192a"),
    "deferred-0.001": (2, 11, "431490e055f92bede83c3e766ab24dd47d7d66da23027697165fba1391097e4b"),
    "unbalanced-0.1": (3, 13, "976d6269a002723ef6dae65443b5580c9f29db0b001ad650a004b1571320c29a"),
    "unbalanced-0.01": (3, 13, "e29cb7db6461a760bc9efa2df875b0549f1fedc16cb3e17a10ebf93d5a807783"),
    "unbalanced-0.001": (3, 13, "64cb90a3e48198d7df77b4c23a670d3ada769f1b1c5f07f1096450884f0ba842"),
    "frontier-cycle": (0, 8, "ce46a575d7d8f543ab1a63ae294b8eb1a9b20170749962b0c86d0d3b5c3f6f71"),
}


@pytest.mark.parametrize("name", PINNED_PREPROC)
def test_replacement_rows_and_values_pinned(name):
    """The absorbing solve, bit for bit, in both of its uses: cycle
    removal's exit distributions and the frontier cycle's v values."""
    kind, _, eps = name.rpartition("-")
    factory = {"deferred": two_type_deferred, "unbalanced": two_type_unbalanced}
    model = _FrontierCycle() if name == "frontier-cycle" else factory[kind](epsilon=float(eps))
    result = preprocess(model)
    dump = _preproc_dump(result)
    got = (
        len(result.chain.overrides), len(result.v_delta),
        hashlib.sha256(dump.encode()).hexdigest(),
    )
    assert got == PINNED_PREPROC[name], dump


def _backward_dump(result):
    """sha256 of each output of the backward phase, in the order of the
    fields of ``PreprocessResult``: gamma_indices, d_backward, v_delta,
    processing_order, dominant_edges.  States are named by descriptor and
    floats written as ``float.hex``; the processing order is kept as it
    stands, every other field becomes sorted lines."""
    name = _namer(result.chain)
    fields = (
        sorted(map(name, result.gamma_indices)),
        sorted(f"{name(x)} {d}" for x, d in result.d_backward.items()),
        sorted(f"{name(x)} {v.hex()}" for x, v in result.v_delta.items()),
        [*map(name, result.processing_order)],
        sorted(f"{name(x)} {e}" for x, e in result.dominant_edges.items()),
    )
    return tuple(hashlib.sha256("\n".join(lines).encode()).hexdigest() for lines in fields)


#: ``_backward_dump`` of each model, captured before the backward phase
#: moved from dicts to lists indexed by chain id
PINNED_BACKWARD = {
    "dds-fcfs": (
        "60ec28a945c0a6f949c680ec3aa79844c5f16771b0107d4f89fac108fcede6ab",
        "6c17b3c2c809c114383b51d5ba81dfa8c64d7d4ca0732c9fdc09297964e78933",
        "50a76d996cfafed5449a9cd04b8dbc6eba33a9d18890a22e59b075c59db888ce",
        "ecec16a1cf685d02c95c4a942fc83f60c1226e952bb7b8b7b3d91835bedcf79e",
        "ff2e698ebfaefeccc64a4521251db70cf28888731690f58464669b654feec235",
    ),
    "dds-dedicated": (
        "10b93c4081c972f17433d5878e130daf77d6d4ab455076387bdd6a7581bf274c",
        "7d942fb3f3b9cedf4653741496b1619f1c2232e54d2efc5413b35c9867de60ba",
        "0246b406911be646fefaaa5c01257a3d59e097bce929ac2432771f5136ca01c0",
        "2a275a2774ec9b05f6aa80705c1618bdd18ced1a4420c98519a96007bc8b728d",
        "b9b387fdbe196ddfc797d9080fd6a68e5ccea9489d10e79a69e365067b9b11cd",
    ),
    "redundancy": (
        "5df908c3bb82af57ee6c9236cac9554899bde3967612bf25d45fe267701cb5f5",
        "69de6de2ef9b805dbcac3cdf1c52bf7c2da3171485241f4a6cbd5ca6d2c3cfbe",
        "fa8f67e27c594531d38cbf271037434803ced737039d915895fb6e89d69d6f36",
        "3c317925d233bb2d86a2ff7effbd50c58506ff69d564bd10f6898b628673be27",
        "8e4af20ebb5b2fd8a00c0a7ae8173033fe446dc6d37b45135cfafd0205b4a449",
    ),
    "deferred": (
        "ba2018c92b88a84264ba0dcbd8257c8364884a7ee38aa789e68551f8375be503",
        "4b136fafbb0698ce20641c19e9a75d26abb15ffa0184efa54338672ab94344b1",
        "9bee4deb1f93912daa6c5e078e5b0670b630a8268a2119113ca6cf970d788b4d",
        "08d1909dbec7f66a20046f895b866cf2f9cf8a18b6aaec6031969cd5d67d21f9",
        "29351bfd44bfa8c28dd7839a17c29aeed1e97a2ca0093bff937ad3ffd7eb1762",
    ),
    "unbalanced": (
        "397ba4d0f4347b9660ea0880eaf7b91831f7feb73b02f675da568cab33d2b93e",
        "0ec267b29ee98686222f6c03c26342c183651062a1dab4481749e36aacf6d009",
        "f8e7b9680fdd35b1743c7e601421353fc99f2b1a87c5bae25e4f54d771ef3389",
        "eab6f29480b9a38c8b0af4e84761195b4e0d4096025e9d62e42a7331e54815f5",
        "59d05e4b5435a565ff72d1b6b59223d6ab686284fa85ca293e51ead6fdb7e3c1",
    ),
}

BACKWARD_MODELS = {
    "dds-fcfs": lambda: make_dds("fcfs", 0.01),
    "dds-dedicated": lambda: make_dds("dedicated", 0.01),
    "redundancy": lambda: two_type_basic(20, 20, 1.0, 0.1),
    "deferred": lambda: two_type_deferred(epsilon=0.1),
    "unbalanced": lambda: two_type_unbalanced(epsilon=0.1),
}


@pytest.mark.parametrize("name", PINNED_BACKWARD)
def test_backward_phase_outputs_pinned(name):
    """Gamma, d(., g), v, the processing order and the dominant edges, bit
    for bit, on the models with the largest frontiers and the cycle models."""
    assert _backward_dump(preprocess(BACKWARD_MODELS[name]())) == PINNED_BACKWARD[name]


@pytest.mark.parametrize("p_exit", [1e-6, 1e-9, 1e-12, 1e-15])
def test_near_absorbing_loop_gets_stochastic_replacement_rows(p_exit):
    """Loop a <-> b with internal mass 1 - p_exit, each member with its
    own exit: the replacement rows sum to 1 within a few ulps, and by
    symmetry a leaves through g first slightly more often than not."""
    result = preprocess(_Table({
        "s": [("a", 1.0, 0)],
        "a": [("b", 1.0 - p_exit, 0), ("g", p_exit, 9)],
        "b": [("t", p_exit, 9), ("a", 1.0 - p_exit, 0)],
    }))
    chain = result.chain
    rows = {chain.state(x): row for x, row in chain.overrides.items()}
    assert set(rows) == {"a", "b"}
    for targets, probs, orders in rows.values():
        assert targets == [chain.goal_index, chain.taboo_index]
        assert orders == (0, 0)
        assert probs[0] + probs[1] == pytest.approx(1.0, rel=0.0, abs=4 * math.ulp(1.0))
    assert rows["a"][1][0] == pytest.approx(1.0 / (2.0 - p_exit), rel=1e-15)


def test_exit_distribution_closed_form_two_member_loop():
    """0 <-> 1 loop: exits solvable by hand.

    0 -> 1 (0.5), 0 -> A (0.5); 1 -> 0 (0.4), 1 -> B (0.6) gives
    mu[0] = (0.625, 0.375) and mu[1] = (0.25, 0.75).
    """
    rows = {0: ([1, 10], [0.5, 0.5], (0, 0)), 1: ([0, 11], [0.4, 0.6], (0, 0))}
    exits, mu = solve_absorbing(rows, [0, 1])
    assert exits == [10, 11]
    assert mu[0] == pytest.approx([0.625, 0.375])
    assert mu[1] == pytest.approx([0.25, 0.75])


def test_exit_distribution_with_tiny_exit_mass():
    """Near-absorbing loop: internal mass 1 - eps must still solve."""
    for eps in (1e-9, 1e-12, 1e-15):
        rows = {
            0: ([1, 10], [1.0 - eps, eps], (0, 9)),
            1: ([11, 0], [eps, 1.0 - eps], (9, 0)),
        }
        exits, mu = solve_absorbing(rows, [0, 1])
        assert exits == [10, 11]
        # by symmetry each member leaves through its own exit first
        # slightly more often than not
        assert mu[0][0] == pytest.approx(1.0 / (2.0 - eps), rel=1e-15)
        assert mu[1][1] == pytest.approx(1.0 / (2.0 - eps), rel=1e-15)


def test_exit_distribution_self_loop():
    """Geometric self-loop: exit split equals the one-step split."""
    rows = {0: ([1, 0, 2], [0.06, 0.9, 0.04], (1, 0, 1))}
    exits, mu = solve_absorbing(rows, [0])
    assert exits == [1, 2]
    assert mu[0] == pytest.approx([0.6, 0.4])


def rational_exits(rows, members, positions=None):
    """``solve_absorbing``'s exits and M in exact arithmetic: every row is
    scaled to sum to 1 over all of its positions, the positions not read
    lead nowhere, and (I - P) M = D is solved by Gauss-Jordan elimination
    over fractions."""
    index = {x: i for i, x in enumerate(members)}
    n = len(members)
    a = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [{} for _ in members]
    for i, x in enumerate(members):
        targets, probs, _orders = rows[x]
        total = sum(map(Fraction, probs))
        for k in range(len(targets)) if positions is None else positions[x]:
            z, p = targets[k], Fraction(probs[k]) / total
            if z in index:
                a[i][index[z]] -= p
            else:
                d[i][z] = d[i].get(z, 0) + p
    exits = sorted({z for row in d for z in row})
    b = [[row.get(z, Fraction(0)) for z in exits] for row in d]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot], b[c], b[pivot] = a[pivot], a[c], b[pivot], b[c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [u - f * w for u, w in zip(a[r], a[c])]
                b[r] = [u - f * w for u, w in zip(b[r], b[c])]
    return exits, [[u / a[i][i] for u in b[i]] for i in range(n)]


@st.composite
def small_cycles(draw):
    """Members 0..n-1 on a ring, with self-loops, repeated targets and
    exits to 10, 11 and 12 whose mass is log-uniform down to 1e-15; member
    0 always has an exit.  ``positions`` keeps every ring edge and member
    0's first exit and drops a random share of the other positions,
    members among them."""
    n = draw(st.integers(min_value=1, max_value=5))
    weighted = st.tuples(st.integers(0, n - 1), st.integers(1, 9))
    rows, positions = {}, {}
    for x in range(n):
        internal = [((x + 1) % n, draw(st.integers(1, 9)))]
        internal += draw(st.lists(weighted, max_size=4))
        exits = draw(st.lists(st.sampled_from([10, 11, 12]), min_size=int(x == 0), max_size=3))
        out = [(z, 10.0 ** draw(st.floats(-15.0, -1.0))) for z in exits]
        stay = 1.0 - math.fsum(p for _z, p in out)
        weight = sum(w for _z, w in internal)
        entries = [(z, stay * w / weight) for z, w in internal] + out
        rows[x] = [z for z, _p in entries], [p for _z, p in entries], (0,) * len(entries)
        first_exit = len(internal)
        positions[x] = [
            k for k in range(len(entries))
            if k == 0 or (x == 0 and k == first_exit) or draw(st.booleans())
        ]
    return rows, list(range(n)), positions


@settings(max_examples=200, deadline=None)
@given(small_cycles())
def test_absorbing_solve_matches_rational_solve_entrywise(cycle):
    """Every entry of M within 1e-15 relative of the exact solution, with
    full rows and with read positions."""
    rows, members, positions = cycle
    for read in (None, positions):
        exits, mu = solve_absorbing(rows, members, read)
        expected_exits, expected = rational_exits(rows, members, read)
        assert exits == expected_exits
        for got_row, exact_row in zip(mu, expected, strict=True):
            for got, exact in zip(got_row, exact_row, strict=True):
                assert abs(Fraction(got) - exact) <= exact / 10**15, (got, float(exact))


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
                ("dedicated", 541), ("disk_priority", 547),
                ("proc_priority", 541), ("fcfs", 4660),
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
        if x >= 0:
            assert UNSEEN not in chain.fetch(x)[0], chain.state(x)
    if discovered is not None:
        assert result.states_discovered == discovered


@pytest.mark.skipif(
    gc.get_threshold() != (700, 10, 10), reason="counted at CPython's default thresholds"
)
def test_dds_fcfs_preprocess_runs_few_young_collections():
    """The backward phase makes no container per edge: from a collected
    heap, one preprocess of DDS fcfs (46,599 edges over Lambda + Gamma)
    runs at most 60 generation-0 collections.  A tuple per edge and per
    heap push ran 116."""
    model = make_dds("fcfs", 0.01)
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    preprocess(model)
    assert gc.get_stats()[0]["collections"] - before <= 60


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
        if x < 0 or db[x] == INFINITY:
            continue
        targets, _probs, orders = (
            chain.row(x) if x in lam else chain.folded_row(x, inner)
        )
        edges = [i for i, (z, r) in enumerate(zip(targets, orders)) if r + db[z] == db[x]]
        assert result.dominant_edges[x] == edges, chain.state(x)
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
            assert position[z] < position[x], result.chain.state(x)
    if factory is _FrontierCycle:
        assert {result.chain.state(x) for x in cyclic} == {"b", "c", "d", "f"}


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
    assert result.chain.s_target == result.chain.taboo_index
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
