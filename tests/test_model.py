"""Model contract: CTMC embedding, transition resolution, state indexing."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rarepath.errors import ModelError
from rarepath.model import (
    GOAL_CODE,
    SHAPE_PROBE,
    TABOO_CODE,
    UNSEEN,
    Chain,
    MarkovModel,
    StateIndexer,
    embedded_row,
)

from conftest import GOAL, TABOO, merged_row


class TinyModel(MarkovModel):
    """Three-node rate model: a -> b (rate 1), a -> goal (rate eps)."""

    emits_rates = True
    epsilon = 0.1

    @property
    def initial_state(self):
        return "a"

    def is_goal(self, state):
        return state == "g"

    def is_taboo(self, state):
        return state == "t"

    def successors(self, state):
        if state == "a":
            return ["b", "g"], [1.0, self.epsilon], [0, 1]
        return ["t"], [1.0], [0]


def embed_row(targets, weights, orders, emits_rates=True):
    """``embedded_row`` of a model whose state "a" has this row."""

    class OneRow(TinyModel):
        def successors(self, state):
            return targets, weights, orders

    OneRow.emits_rates = emits_rates
    return embedded_row(OneRow(), "a")


def embed(edges):
    """``embed_row`` of a rate row given as (target, weight, order) triples."""
    return embed_row(*([edge[k] for edge in edges] for k in range(3)))


def test_embed_normalizes_rates():
    _targets, probs, orders = embed([("x", 3.0, 0), ("y", 1.0, 1)])
    assert probs == [pytest.approx(0.75), pytest.approx(0.25)]
    assert list(orders) == [0, 1]


def test_embed_shifts_orders_to_zero_base():
    _targets, _probs, orders = embed([("x", 1.0, 2), ("y", 1.0, 3)])
    assert list(orders) == [0, 1]


def test_embed_one_none_order_assigns_every_order():
    """The explicit order 5 gives way to the order of its probability."""
    _targets, _probs, orders = embed(
        [("x", 1.0, None), ("y", 0.01, 5)]
    )
    assert list(orders) == [0, 2]


def test_embed_rejects_nonpositive_rate():
    with pytest.raises(ModelError):
        embed([("x", 0.0, 0)])
    with pytest.raises(ModelError):
        embed([("x", -1.0, 0)])


def test_embed_rejects_negative_order():
    with pytest.raises(ModelError):
        embed([("x", 1.0, -1)])


@pytest.mark.parametrize("bad", [2.0, np.float64(1.0), "1"], ids=["float", "numpy-float", "str"])
@pytest.mark.parametrize("auto", [False, True], ids=["explicit", "beside-none"])
def test_embed_rejects_an_order_that_is_no_int(bad, auto):
    """Orders are ints: one that is not names its edge, also in a row whose
    orders are assigned anew because another order is None."""
    with pytest.raises(ModelError, match=re.escape(f"order {bad!r} to 'y' is not an int")):
        embed([("x", 1.0, None if auto else 0), ("y", 1.0, bad)])


def test_embed_takes_numpy_int_orders_as_ints():
    _targets, _probs, orders = embed([("x", 1.0, np.int64(2)), ("y", 1.0, np.int32(3))])
    assert list(orders) == [0, 1]
    assert all(type(r) is int for r in orders)


def test_embed_rejects_empty():
    with pytest.raises(ModelError):
        embed([])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("emits_rates", [True, False], ids=["rates", "probs"])
def test_embed_rejects_non_finite_weight(bad, position, emits_rates):
    """A min()-based check sees NaN only in first place; the row's sum
    catches it anywhere."""
    weights = [0.5, 0.5]
    weights[position] = bad
    with pytest.raises(ModelError, match="bad weight"):
        embed_row(["x", "y"], weights, [0, 0], emits_rates)


@pytest.mark.parametrize(
    "row",
    [(["x", "y"], [1.0], [0, 0]), (["x"], [1.0], [0, 0]), (["x", "y"], [1.0, 1.0], [0])],
    ids=["weights", "orders-long", "orders-short"],
)
def test_embed_rejects_unequal_lengths(row):
    with pytest.raises(ModelError, match="lengths"):
        embed_row(*row)


def test_embed_rejects_probability_above_one():
    with pytest.raises(ModelError, match="bad weight 1.5"):
        embed_row(["x"], [1.5], [0], emits_rates=False)


def test_embed_rejects_negative_order_beside_none():
    with pytest.raises(ModelError, match="negative order"):
        embed([("x", 1.0, None), ("y", 1.0, -1)])
    with pytest.raises(ModelError, match="negative order"):
        embed([("x", 1.0, -1), ("y", 1.0, None)])


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=1e6),
            st.integers(min_value=0, max_value=8),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_embed_probabilities_sum_to_one_and_min_order_zero(items):
    _targets, probs, orders = embed(
        [(i, w, r) for i, (w, r) in enumerate(items)]
    )
    assert sum(probs) == pytest.approx(1.0)
    assert min(orders) == 0


def test_resolve_merges_terminals_and_embeds():
    model = TinyModel()
    row = merged_row(model, "a")
    assert row == [
        ("b", pytest.approx(1.0 / 1.1), 0),
        (GOAL, pytest.approx(0.1 / 1.1), 1),
    ]
    assert merged_row(model, "b") == [(TABOO, 1.0, 0)]


def test_resolve_assigns_orders_automatically():
    class AutoModel(TinyModel):
        def successors(self, state):
            return ["b", "g"], [1.0, self.epsilon**2], [None, None]

    row = merged_row(AutoModel(), "a")
    orders = {t: r for t, _p, r in row}
    assert orders["b"] == 0
    assert orders[GOAL] == 2


def test_resolve_probability_model_validation():
    class BadProbModel(TinyModel):
        emits_rates = False

        def successors(self, state):
            return ["b"], [0.6], [0]  # sums to 0.6

    with pytest.raises(ModelError):
        embedded_row(BadProbModel(), "a")


def test_resolve_rejects_dead_end():
    class DeadEnd(TinyModel):
        def successors(self, state):
            return [], [], []

    with pytest.raises(ModelError):
        embedded_row(DeadEnd(), "a")


def test_chain_rereads_the_targets_of_an_older_row():
    """Only the last fetched row's descriptors are kept: a target of an
    older row is classified from a re-read of its state, the row kept as
    it was."""

    class Counting(TinyModel):
        calls = 0

        def successors(self, state):
            self.calls += 1
            return super().successors(state)

    model = Counting()
    chain = Chain(model)
    a = chain.s_index
    row = chain.fetch(a)
    b = chain.target(a, 0)
    assert model.calls == 1  # the last row fetched needs no re-read
    chain.row(b)
    assert model.calls == 2 and row[0][1] == UNSEEN
    assert chain.target(a, 1) == chain.goal_index
    assert model.calls == 3 and chain.fetch(a) is row


@pytest.mark.parametrize(
    "read",
    [
        lambda chain, a: chain.target(a, 1),
        lambda chain, a: chain.row(a),
        lambda chain, a: chain.folded_row(a, frozenset()),
    ],
    ids=["target", "row", "folded_row"],
)
def test_chain_rejects_a_row_that_changes_between_calls(read):
    """A re-read row must be the one the chain holds; one of another length
    names its state instead of giving a wrong target."""

    class Flipping(TinyModel):
        """State "a" has a row of two targets and one of three, call by call."""

        calls = 0

        def successors(self, state):
            if state != "a":
                return ["a"], [1.0], [0]
            self.calls += 1
            if self.calls % 2:
                return ["b", "g"], [1.0, self.epsilon], [0, 1]
            return ["b", "c", "g"], [1.0, 1.0, self.epsilon], [0, 0, 1]

    chain = Chain(Flipping())
    a = chain.s_index
    chain.fetch(a)
    chain.row(chain.target(a, 0))  # "b" is now the last row fetched
    with pytest.raises(ModelError, match="'a'"):
        read(chain, a)


class Fan(TinyModel):
    """s steps to a, b and d, and b to c and t.  The row of a holds one
    target of each kind: the states b and c, t, a descriptor that is both
    goal and taboo ("gt"), g, the state d and "e", which nothing indexes."""

    initial_state = "s"
    rows = {"s": ["a", "b", "d"], "a": ["b", "c", "t", "gt", "g", "d", "e"], "b": ["c", "t"]}

    def is_goal(self, state):
        return state in ("g", "gt")

    def is_taboo(self, state):
        return state in ("t", "gt")

    def successors(self, state):
        targets = self.rows[state]
        return targets, [1.0] * len(targets), [0] * len(targets)


@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
def test_folded_row_reads_each_kind_of_target(held):
    """With s, a, b and c inner: b and c keep their indices, t reads t,
    the goal-and-taboo descriptor and g read g, and so do d, outside the
    inner set, and e, never indexed.  A held row was fetched before c got
    its index and keeps it all the same.  The fold classifies nothing and
    shares the fetched row's probabilities and orders."""
    chain = Chain(Fan())
    s = chain.s_index
    a, b, d = chain.row(s)[0]
    if held:
        chain.fetch(a)
    c, t = chain.row(b)[0]
    targets, probs, orders = chain.folded_row(a, frozenset((s, a, b, c)))
    g = chain.goal_index
    assert t == chain.taboo_index
    assert targets == [b, c, t, g, g, g, g]
    fetched = chain.fetch(a)
    assert probs is fetched[1] and orders is fetched[2]
    assert fetched[0][3:5] == [UNSEEN, UNSEEN] and fetched[0][6] == UNSEEN
    assert len(chain) == 5 and "e" not in chain.indexer


class Ladder(MarkovModel):
    """States 0 (taboo) to 5 (goal): an inner state steps up at rate eps
    (order 1) and down at rate 1 (order 0), so states 1 to 3 share one
    row shape; state 4 steps down at rate 2, and a state in ``odd`` steps
    up at order 2."""

    emits_rates = True
    epsilon = 0.1
    initial_state = 1

    def __init__(self, odd=()):
        self.odd = odd

    def is_goal(self, state):
        return state == 5

    def is_taboo(self, state):
        return state == 0

    def successors(self, state):
        weights = [self.epsilon, 2.0 if state == 4 else 1.0]
        return [state + 1, state - 1], weights, [2 if state in self.odd else 1, 0]


def ladder_rows(chain, states):
    """The fetched rows of ``states``, walking up from s."""
    idx, rows = chain.s_index, {}
    for state in range(1, max(states) + 1):
        if state in states:
            rows[state] = chain.fetch(idx)
        idx = chain.target(idx, 0)
    return rows


def test_rows_of_one_shape_share_one_embedding():
    """Equal weights and orders are embedded once: the rows share their
    probability array and orders tuple, but not their targets."""
    model = Ladder()
    rows = ladder_rows(Chain(model), {1, 2, 3, 4})
    assert rows[1][1] is rows[2][1] is rows[3][1] is not rows[4][1]
    assert rows[1][2] is rows[2][2] is rows[3][2]
    assert rows[1][0] is not rows[2][0]
    assert all(list(rows[x][1]) == embedded_row(model, x)[1] for x in rows)


def test_equal_weights_with_other_orders_embed_apart():
    """A shape is its weights and orders together: a row with the weights
    of an earlier one but other orders gets its own embedding, and does
    not displace the earlier shape."""
    model = Ladder(odd={2})
    rows = ladder_rows(Chain(model), {1, 2, 3})
    assert rows[1][2] == rows[3][2] == (1, 0) and rows[2][2] == (2, 0)
    assert list(rows[2][1]) == embedded_row(model, 2)[1]
    assert rows[1][1] is rows[3][1] is not rows[2][1]
    assert rows[1][2] is rows[3][2]


def test_known_shape_with_other_target_count_raises_as_embedded_row():
    class Short(Ladder):
        """State 2 has the weights of state 1 but one target."""

        def successors(self, state):
            targets, weights, orders = super().successors(state)
            return targets[: 1 if state == 2 else 2], weights, orders

    model = Short()
    chain = Chain(model)
    chain.fetch(chain.s_index)
    with pytest.raises(ModelError) as expected:
        embedded_row(model, 2)
    with pytest.raises(ModelError) as got:
        chain.fetch(chain.target(chain.s_index, 0))
    assert str(got.value) == str(expected.value)


def test_take_leaves_the_shapes_unchanged():
    """``take`` reads a known shape's embedding but adds no shape: not a
    new one (state 4), nor new orders of known weights (state 3)."""
    chain = Chain(Ladder(odd={3}))
    kept = chain.fetch(chain.s_index)
    shapes = dict(chain._shapes)
    idx, taken = chain.target(chain.s_index, 0), []
    for _ in range(3):
        taken.append(chain.take(idx))
        idx = taken[-1][0][0]
    assert taken[0][1] is kept[1] and taken[0][2] is kept[2]
    assert [row[2] for row in taken] == [(1, 0), (2, 0), (1, 0)]
    assert chain._shapes.keys() == shapes.keys()
    assert all(chain._shapes[key] is shape for key, shape in shapes.items())
    assert list(chain._rows) == [chain.s_index]


class Walk(MarkovModel):
    """States 0 (taboo) to 200 (goal): state x steps up at rate eps and
    down at rate 1 + x % ``period``, so rows repeat a shape every
    ``period`` states."""

    emits_rates = True
    epsilon = 0.1
    initial_state = 1

    def __init__(self, period):
        self.period = period

    def is_goal(self, state):
        return state == 200

    def is_taboo(self, state):
        return state == 0

    def successors(self, state):
        return [state + 1, state - 1], [self.epsilon, 1.0 + state % self.period], [1, 0]


@pytest.mark.parametrize("period, looks", [(30, True), (1000, False)])
def test_chain_stops_looking_up_shapes_that_never_repeat(period, looks):
    """A chain whose first SHAPE_PROBE rows kept are all distinct drops its
    shape table; one that met a repeat keeps it.  Rows read either way
    are ``embedded_row``'s."""
    model = Walk(period)
    chain = Chain(model)
    rows = ladder_rows(chain, set(range(1, SHAPE_PROBE + 40)))
    assert (chain._shapes is not None) == looks
    if looks:
        assert len(chain._shapes) == period
        assert rows[1][1] is rows[1 + period][1]
    for x, row in rows.items():
        assert list(row[1]) == embedded_row(model, x)[1]
        assert list(row[2]) == embedded_row(model, x)[2]


def test_indexer_is_a_bijection():
    ix = StateIndexer()
    a = ix.index("a")
    b = ix.index("b")
    assert a != b
    assert ix.index("a") == a  # stable
    assert ix.state(a) == "a"
    assert ix.state(b) == "b"
    assert len(ix) == 2
    assert "a" in ix and "c" not in ix
    assert ix.lookup("c") is None


def test_terminal_ids_read_no_state():
    """g and t are the hook's negative ids, not states: every id from 0 up
    is a state, and reading a terminal id raises instead of returning a
    state from the end of the list."""
    chain = Chain(TinyModel())
    assert chain.row(chain.s_index)[0] == [1, GOAL_CODE]
    assert chain.row(1)[0] == [TABOO_CODE]
    assert len(chain) == 2 and chain.indexer.state(1) == "b"
    for idx in (chain.goal_index, chain.taboo_index):
        assert chain.is_terminal(idx)
        with pytest.raises(IndexError, match="no state's index"):
            chain.indexer.state(idx)
        with pytest.raises(IndexError):
            chain.fetch(idx)


def test_indexer_assigns_in_discovery_order():
    ix = StateIndexer()
    assert [ix.index(x) for x in ("x", "y", "z")] == [0, 1, 2]
