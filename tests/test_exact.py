"""Linear-solve oracle: closed forms and a second, independent solver."""

import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rarepath import exact
from rarepath.errors import ConvergenceError, ModelError, StateBudgetExceeded
from rarepath.exact import exact_hitting_probability, row_arrays
from rarepath.model import GOAL_CODE, MAX_CODE, TABOO_CODE, Chain, MarkovModel, coded_arrays
from rarepath.preproc import preprocess
from rarepath.sampling import ChangeOfMeasure, run_estimator
from rarepath.zoo import (
    DdsModel,
    MulticomponentModel,
    make_birth_death_chain,
    make_dds,
    two_type_basic,
    two_type_deferred,
    two_type_unbalanced,
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


@pytest.mark.parametrize(
    "rows",
    [
        pytest.param({"trap": (["trap"], [1.0])}, id="self-loop"),
        # a closed class of two states: only the reach rule starts the
        # upper end of the bracket at 0 there, so the sweeps can stop
        pytest.param({"trap": (["v"], [1.0]), "v": (["trap"], [1.0])}, id="closed-class"),
    ],
)
def test_absorbing_non_terminal_state_reads_zero(rows):
    """States that can never reach g read 0."""
    model = TableModel({"a": (["g", "trap", "t"], [0.1, 0.1, 0.8]), **rows}, "a")
    pi_s, pi = exact_hitting_probability(model)
    assert pi_s == pytest.approx(0.1, rel=1e-12)
    assert all(pi[state] == 0.0 for state in rows)
    with pytest.raises(ModelError, match="order-0 cycle with no exit"):
        preprocess(model)


def test_self_loop_rounding_to_one_raises():
    """1 - 1e-17 rounds to 1: the diagonal the sweeps divide by reads 0."""
    model = TableModel({0: ([0, "g"], [1.0, 1e-17])})
    with pytest.raises(ConvergenceError, match="self-loop rounds to probability 1"):
        exact_hitting_probability(model)


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
# state 3 cannot reach g: both solvers must read exactly 0 there
@example(TableModel({
    0: ([3, 2, "g"], [1 / 3] * 3),
    1: (["g"], [1.0]),
    2: ([0, "g"], [0.5, 0.5]),
    3: ([3, "t"], [5 / 6, 1 / 6]),
}))
def test_random_dtmcs_agree_with_dense_direct_solve(model):
    pi_s, pi = exact_hitting_probability(model)
    reference = dense_hitting_probability(model)
    assert pi_s == pytest.approx(reference[0], rel=1e-11, abs=0.0)
    assert set(pi) == set(reference)
    for state, value in pi.items():
        assert value == pytest.approx(reference[state], rel=1e-11, abs=0.0)


@pytest.mark.parametrize(
    "factory",
    [
        pytest.param(lambda: two_type_basic(3, 3, 1.0, 0.05), id="two-type"),
        pytest.param(lambda: two_type_deferred(epsilon=0.01), id="deferred"),
        # sweeps contract slowly through its order-0 cycles
        pytest.param(lambda: two_type_unbalanced(epsilon=0.01), id="unbalanced"),
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

    The sweeps stop once the bracket [x_lo, x_hi], with x_hi starting at
    1 on the states that reach g, is narrower than TOL relative to x_lo in
    every component, so every state agrees relatively, however small its
    probability.
    """
    model = factory()
    pi_s, pi = exact_hitting_probability(model)
    reference = dense_hitting_probability(model)
    # abs=0 switches off approx's default absolute tolerance of 1e-12
    assert pi_s == pytest.approx(reference[model.initial_state], rel=1e-11, abs=0.0)
    for state, value in pi.items():
        assert value == pytest.approx(reference[state], rel=1e-11, abs=0.0)


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
    """g and t have neither matrix rows nor entries in the returned map,
    which runs in index order, s first."""
    model = factory()
    _pi_s, pi = exact_hitting_probability(model)
    assert next(iter(pi)) == model.initial_state
    assert len(pi) == size
    assert set(pi) == set(enumerate_chain(model))
    # the reduced chain's map also holds the states its preprocessing indexed
    result = preprocess(model)
    _pi_s, reduced = exact_hitting_probability(model, result)
    assert next(iter(reduced)) == model.initial_state
    assert len(reduced) == len(result.chain)
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


def per_row(model):
    """``model`` with its codes hidden: the oracle reads it row by row."""
    model.has_codes = False
    return model


def traced_peak(model) -> int:
    """The tracemalloc peak of one full-chain solve of ``model``, in bytes."""
    tracemalloc.start()
    try:
        exact_hitting_probability(model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_full_dds_solve_memory_is_bounded():
    """The oracle holds no chain rows, builds L and U straight from its flat
    rows, never A, and scales L once for all its sweeps.  In bulk its
    traced peak is 13.6 MiB, reached in the assembly; the bound leaves
    about 2 MiB to spare.  Before, the row-by-row solve peaked at 19.8 MiB
    inside the sweeps, which copied L on every call, 27.5 MiB when it built
    A and 55.6 MiB when it kept every row."""
    assert traced_peak(make_dds("dedicated", 0.01)) <= 16 * 2**20


def test_full_dds_solve_memory_is_bounded_per_row():
    """Row by row the traced peak is 16.9 MiB, reached in the assembly
    while the descriptor list holds every state; the bound leaves about
    1 MiB to spare.  It was 19.0 MiB while the oracle kept its chain, and
    with it the chain's map from descriptor to index, to the end."""
    assert traced_peak(per_row(make_dds("dedicated", 0.01))) <= 18 * 2**20


COUNT_VECTOR_STRATEGIES = ("dedicated", "disk_priority", "proc_priority")


@pytest.mark.parametrize("eps", [0.01, 0.1])
@pytest.mark.parametrize("strategy", COUNT_VECTOR_STRATEGIES)
def test_bulk_rows_and_solve_match_per_row_bit_for_bit(strategy, eps):
    """The bulk path gives the per-row path's flat arrays byte for byte,
    and so the same pi, state for state and in the same order."""
    model = make_dds(strategy, eps)
    targets, probs, sizes, codes = coded_arrays(model, 10**6)
    *rows, states = row_arrays(Chain(model), 10**6)
    assert [a.tobytes() for a in (targets, probs, sizes)] == [a.tobytes() for a in rows]
    assert len(states) == len(sizes) == len(codes)
    assert states == [model.initial_state, *model.decode(codes[1:])]
    bulk, single = exact_hitting_probability(model), exact_hitting_probability(per_row(model))
    assert bulk[0].hex() == single[0].hex()
    assert [(k, v.hex()) for k, v in bulk[1].items()] == [
        (k, v.hex()) for k, v in single[1].items()
    ]


def test_bulk_oracle_makes_no_scalar_model_calls(dds_oracle):
    model = make_dds("dedicated", 0.01)
    calls = Counter()
    for name in ("successors", "is_goal", "is_taboo"):
        method = getattr(model, name)
        setattr(model, name, lambda *a, _m=method, _n=name: calls.update([_n]) or _m(*a))
    pi_s, _pi = exact_hitting_probability(model)
    assert pi_s.hex() == dds_oracle("dedicated", 0.01).hex()
    assert calls == Counter()
    # the counters count: the per-row path calls each method
    with pytest.raises(StateBudgetExceeded):
        exact_hitting_probability(per_row(model), state_cap=40)
    assert set(calls) == {"successors", "is_goal", "is_taboo"}


def test_bulk_state_cap_enforced():
    """32,768 reachable states: the block that passes the cap raises."""
    model = make_dds("dedicated", 0.01)
    with pytest.raises(StateBudgetExceeded):
        exact_hitting_probability(model, state_cap=32_767)
    with pytest.raises(StateBudgetExceeded):
        exact_hitting_probability(model, state_cap=5)
    assert len(exact_hitting_probability(model, state_cap=32_768)[1]) == 32_768


class GappedGrid(MarkovModel):
    """Two types of ``k`` components with dedicated repair, over gapped codes.

    State (i, j) counts each type's failed components: k failed of one
    type is the goal, and (0, 0), the initial state, is taboo.  Besides a
    failure and a repair per type, every state is restored to (0, 0) at
    rate 4 and fails outright (a shock into the goal) at rate eps, so the
    sweeps stop after a few dozen.  Code 3 (i k + j) + 1 leaves two of
    every three codes unused.
    """

    emits_rates = True
    epsilon = 0.01
    initial_state = (0, 0)
    has_codes = True

    def __init__(self, k):
        self.k = k

    def is_goal(self, state):
        return self.k in state

    def is_taboo(self, state):
        return state == (0, 0)

    def successors(self, state):
        (i, j), k, eps = state, self.k, self.epsilon
        down = [x for x in ((i - 1, j), (i, j - 1)) if min(x) >= 0]
        targets = [(i + 1, j), (i, j + 1), *down, (0, 0), (k, j)]
        weights = [(k - i) * eps, (k - j) * eps, *[1.0] * len(down), 4.0, eps]
        orders = [1, 1, *[0] * len(down), 0, 1]
        return targets, weights, orders

    def encode(self, state):
        return 3 * (state[0] * self.k + state[1]) + 1

    def decode(self, codes):
        i, j = np.divmod((codes - 1) // 3, self.k)
        return list(zip(i.tolist(), j.tolist()))

    def coded_rows(self, codes):
        """Per row: fail i, fail j, repair i, repair j, restore, shock."""
        k, eps = self.k, self.epsilon
        i, j = np.divmod((codes - 1) // 3, k)
        shape = (len(codes), 6)
        targets, weights = np.empty(shape, np.int64), np.empty(shape)
        orders, present = np.empty(shape, np.int64), np.ones(shape, bool)
        for col, (count, stride) in enumerate(((i, 3 * k), (j, 3))):
            targets[:, col] = np.where(count + 1 < k, codes + stride, GOAL_CODE)
            weights[:, col], orders[:, col] = (k - count) * eps, 1
            present[:, 2 + col] = count > 0
            targets[:, 2 + col] = np.where(codes - stride == 1, TABOO_CODE, codes - stride)
            weights[:, 2 + col], orders[:, 2 + col] = 1.0, 0
        targets[:, 4], weights[:, 4], orders[:, 4] = TABOO_CODE, 4.0, 0
        targets[:, 5], weights[:, 5], orders[:, 5] = GOAL_CODE, eps, 1
        return present.sum(axis=1), targets[present], weights[present], orders[present]


def test_gapped_codes_build_and_solve_as_row_by_row():
    """40,000 states in 399 blocks, each at most one diagonal of the grid,
    with codes up to 119,998: the code table grows from 2 entries to 2**17
    in eight steps."""
    model = GappedGrid(200)
    targets, probs, sizes, codes = coded_arrays(model, 10**6)
    assert len(sizes) == len(codes) == 40_000 and codes.max() == 119_998
    *rows, _states = row_arrays(Chain(per_row(GappedGrid(200))), 10**6)
    assert [a.tobytes() for a in (targets, probs, sizes)] == [a.tobytes() for a in rows]
    bulk, single = exact_hitting_probability(model), exact_hitting_probability(per_row(model))
    assert bulk[0].hex() == single[0].hex()
    assert [(k, v.hex()) for k, v in bulk[1].items()] == [
        (k, v.hex()) for k, v in single[1].items()
    ]


def test_code_at_the_ceiling_raises_without_a_table():
    """The second block names code MAX_CODE: ModelError, and no table of
    2**25 C ints (128 MiB) is allocated.  A negative code raises too."""

    class Leap(MarkovModel):
        initial_state = 0
        has_codes = True
        is_goal = is_taboo = successors = None

        def encode(self, state):
            return state

        def coded_rows(self, codes):
            leap = np.where(codes == 0, 1, MAX_CODE)
            targets = np.column_stack([leap, np.full_like(codes, GOAL_CODE)]).ravel()
            ones = np.ones(len(targets))
            return np.full(len(codes), 2), targets, ones, ones.astype(np.int64)

    class Below(Leap):
        initial_state = -3

    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="MAX_CODE"):
            coded_arrays(Leap(), 10**6)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    with pytest.raises(ModelError, match="state code -3 is not in"):
        coded_arrays(Below(), 10**6)


def test_stray_negative_target_code_raises_naming_its_state():
    """A negative target code other than GOAL_CODE and TABOO_CODE is a
    fault of the hook, not a taboo edge: state 1's hook row names -7."""

    class Stray(MarkovModel):
        """0 <-> 1 at rate 1, each into the goal (2) at rate 0.1."""

        initial_state = 0
        has_codes = True

        def is_goal(self, state):
            return state == 2

        def is_taboo(self, state):
            return False

        def successors(self, state):
            return [1 - state, 2], [1.0, 0.1], [0, 1]

        def encode(self, state):
            return state

        def decode(self, codes):
            return codes.tolist()

        def coded_rows(self, codes):
            other = np.where(codes == 0, 1, -7)
            targets = np.column_stack([other, np.full_like(codes, GOAL_CODE)]).ravel()
            weights = np.tile([1.0, 0.1], len(codes))
            return np.full(len(codes), 2), targets, weights, np.tile([0, 1], len(codes))

    with pytest.raises(ModelError, match="coded row of 1 differs"):
        coded_arrays(Stray(), 10)


#: one DDS dedicated solve with every sweep traced, printed as JSON: the
#: formats of the triangles the sweeps get, and what each sweep allocates
#: over its base
SWEEP_PROBE = """
import json, sys, tracemalloc
from rarepath import exact
from rarepath.zoo import make_dds

solve, formats, over = exact.spsolve_triangular, set(), []

def traced(unit, *args, **kwargs):
    formats.add(unit.format)
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    x = solve(unit, *args, **kwargs)
    over.append(tracemalloc.get_traced_memory()[1] - base)
    return x

exact.spsolve_triangular = traced
tracemalloc.start()
exact.exact_hitting_probability(make_dds("dedicated", 0.01))
tracemalloc.stop()
json.dump({"formats": sorted(formats), "over": over}, sys.stdout)
"""


def test_each_sweep_takes_csc_and_allocates_little():
    """The unit triangle reaches every sweep in CSC, the layout scipy
    solves a lower triangle in without building an identity and setting
    two diagonals.  On DDS dedicated a sweep allocates 1.13 MiB over its
    base, against 1.50 MiB when it was handed CSR.

    The solve runs in a fresh interpreter.  scipy's SuperLU wrapper keeps
    one entry per solve in a module-level dict that it never empties
    (scipy 1.17), so every earlier solve of the session grows that dict,
    and a sweep that resizes it reads the new table too: 0.56 MiB more
    once it holds 5,462 to 10,922 entries."""
    src = Path(exact.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SWEEP_PROBE], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    probe = json.loads(run.stdout)
    assert probe["formats"] == ["csc"]
    over = probe["over"]
    worst = max(range(len(over)), key=over.__getitem__)
    assert len(over) == 20 and over[worst] <= 1.25 * 2**20, (
        f"sweep {worst} of {len(over)}: {[f'{b / 2**20:.3f}' for b in over]} MiB"
    )


@pytest.mark.parametrize("strategy", COUNT_VECTOR_STRATEGIES)
def test_bad_coded_row_raises_the_per_row_model_error(strategy):
    class ZeroRepair(DdsModel):
        def __init__(self):
            super().__init__(strategy, 0.01)
            self._repair_rates[0] = 0.0  # processors are never repaired

    with pytest.raises(ModelError, match="bad weight 0.0 from") as bulk:
        exact_hitting_probability(ZeroRepair())
    with pytest.raises(ModelError) as single:
        exact_hitting_probability(per_row(ZeroRepair()))
    assert str(bulk.value) == str(single.value)


#: rows that repeat targets below and above the diagonal, with self-loops
_REPEATS = {
    0: ([1, 2, 1, "g", 0, 3, "t"], [0.2, 0.1, 0.15, 0.05, 0.3, 0.1, 0.1]),
    1: ([0, 2, 0, 1, "g2", "t"], [0.25, 0.2, 0.15, 0.2, 0.1, 0.1]),
    2: ([3, 1, 3, 0, 2, "t2", "g"], [0.1, 0.2, 0.15, 0.1, 0.25, 0.1, 0.1]),
    3: ([2, 0, 2, 3, 1, "g"], [0.2, 0.1, 0.1, 0.3, 0.2, 0.1]),
}


@pytest.mark.parametrize(
    "factory, pi_s, values",
    [
        pytest.param(
            lambda: two_type_basic(20, 20, 1.0, 0.1),
            "0x1.d83c94fb6d2b0p-64",
            {
                (10, 10): "0x1.b7cdfd9db8ef0p-33",
                (5, 12): "0x1.5798f06385a22p-27",
                (19, 19): "0x1.851eb851eb852p-3",
            },
            id="two-type-20",
        ),
        pytest.param(
            lambda: two_type_deferred(epsilon=0.1),
            "0x1.b3692e08c68a8p-4",
            {(1, 0): "0x1.9e59f30023aa5p-1", (2, 0): "0x1.1d0a4a9127213p-7"},
            id="deferred",
        ),
        pytest.param(
            lambda: TableModel(_REPEATS),
            "0x1.e4129e41290c2p-2",
            {
                1: "0x1.f6b0df6b0d49bp-2",
                2: "0x1.094f2094f1bb0p-1",
                3: "0x1.253c8253c7db9p-1",
            },
            id="repeated-targets",
        ),
    ],
)
def test_full_chain_solve_pinned(factory, pi_s, values):
    """Full-chain solves, bit for bit: the way L and U are assembled (the
    order in which duplicate entries are summed) is part of the result."""
    solved_s, pi = exact_hitting_probability(factory())
    assert solved_s.hex() == pi_s
    assert {state: pi[state].hex() for state in values} == values


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
