"""Model contract: CTMC embedding, transition resolution, state indexing."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rarepath.errors import ModelError
from rarepath.model import (
    GOAL,
    TABOO,
    MarkovModel,
    StateIndexer,
    Transition,
    embed_ctmc,
    resolve_transitions,
)


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
            return [
                Transition("b", 1.0, 0),
                Transition("g", self.epsilon, 1),
            ]
        return [Transition("t", 1.0, 0)]


def test_embed_normalizes_rates():
    emb = embed_ctmc([Transition("x", 3.0, 0), Transition("y", 1.0, 1)])
    assert emb[0].weight == pytest.approx(0.75)
    assert emb[1].weight == pytest.approx(0.25)
    assert [t.order for t in emb] == [0, 1]


def test_embed_shifts_orders_to_zero_base():
    emb = embed_ctmc([Transition("x", 1.0, 2), Transition("y", 1.0, 3)])
    assert [t.order for t in emb] == [0, 1]


def test_embed_preserves_none_order():
    emb = embed_ctmc([Transition("x", 1.0, None), Transition("y", 1.0, 0)])
    assert emb[0].order is None
    assert emb[1].order == 0


def test_embed_rejects_nonpositive_rate():
    with pytest.raises(ModelError):
        embed_ctmc([Transition("x", 0.0, 0)])
    with pytest.raises(ModelError):
        embed_ctmc([Transition("x", -1.0, 0)])


def test_embed_rejects_negative_order():
    with pytest.raises(ModelError):
        embed_ctmc([Transition("x", 1.0, -1)])


def test_embed_rejects_empty():
    with pytest.raises(ModelError):
        embed_ctmc([])


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
    emb = embed_ctmc([Transition(i, w, r) for i, (w, r) in enumerate(items)])
    assert sum(t.weight for t in emb) == pytest.approx(1.0)
    assert min(t.order for t in emb) == 0


def test_resolve_merges_terminals_and_embeds():
    model = TinyModel()
    row = resolve_transitions(model, "a")
    assert row == [
        ("b", pytest.approx(1.0 / 1.1), 0),
        (GOAL, pytest.approx(0.1 / 1.1), 1),
    ]
    assert resolve_transitions(model, "b") == [(TABOO, 1.0, 0)]


def test_resolve_assigns_orders_automatically():
    class AutoModel(TinyModel):
        def successors(self, state):
            return [
                Transition("b", 1.0, None),
                Transition("g", self.epsilon**2, None),
            ]

    row = resolve_transitions(AutoModel(), "a")
    orders = {t: r for t, _p, r in row}
    assert orders["b"] == 0
    assert orders[GOAL] == 2


def test_resolve_probability_model_validation():
    class BadProbModel(TinyModel):
        emits_rates = False

        def successors(self, state):
            return [Transition("b", 0.6, 0)]  # sums to 0.6

    with pytest.raises(ModelError):
        resolve_transitions(BadProbModel(), "a")


def test_resolve_rejects_dead_end():
    class DeadEnd(TinyModel):
        def successors(self, state):
            return []

    with pytest.raises(ModelError):
        resolve_transitions(DeadEnd(), "a")


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


def test_indexer_assigns_in_discovery_order():
    ix = StateIndexer()
    assert [ix.index(x) for x in ("x", "y", "z")] == [0, 1, 2]
