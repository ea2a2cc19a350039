"""Markov model contract, CTMC embedding, and state indexing.

A model describes a discrete-time Markov chain implicitly: an initial
state, goal/taboo predicates, and a successor function.  Goal states are
merged into a single absorbing node g, taboo states into a single node t;
neither is ever expanded.  Successor weights may be CTMC rates (embedded on
the fly) or DTMC probabilities.
"""

from __future__ import annotations

import abc
import enum
from array import array
from typing import Any, Hashable, Iterable, Iterator, NamedTuple, Sequence

from rarepath.errors import ModelError, StateBudgetExceeded
from rarepath.orders import assign_order

State = Hashable


class Terminal(enum.Enum):
    """Virtual merged absorbing nodes."""

    GOAL = "goal"
    TABOO = "taboo"


GOAL = Terminal.GOAL
TABOO = Terminal.TABOO


class Transition(NamedTuple):
    """One outgoing transition of a state.

    ``weight`` is a CTMC rate if the model sets ``emits_rates`` (the usual
    case for the built-in models), otherwise a probability.  ``order`` is
    the rarity order of the rate/probability; ``None`` requests automatic
    assignment from the embedded probability.
    """

    target: State
    weight: float
    order: int | None = 0


class MarkovModel(abc.ABC):
    """Implicit Markov chain with merged goal and taboo sets."""

    #: successor weights are CTMC rates (embed) rather than probabilities
    emits_rates: bool = True

    #: rarity parameter; used for automatic order assignment when a
    #: transition carries ``order=None``
    epsilon: float = 0.1

    @property
    @abc.abstractmethod
    def initial_state(self) -> State: ...

    @abc.abstractmethod
    def is_goal(self, state: State) -> bool: ...

    @abc.abstractmethod
    def is_taboo(self, state: State) -> bool: ...

    @abc.abstractmethod
    def successors(self, state: State) -> Sequence[Transition]: ...


def embedded_row(
    model: MarkovModel, state: State
) -> tuple[Sequence[State], list[float], Sequence[int]]:
    """One state's targets, probabilities and explicit orders.

    CTMC rates are embedded as jump probabilities, rate_i / sum(rates),
    and their orders shifted so the most probable class has order 0;
    DTMC probabilities are checked to sum to 1.  If any order is None,
    every order of the row is assigned from its probability.  Targets are
    left as the model gives them.
    """
    raw = list(model.successors(state))
    if not raw:
        raise ModelError(f"state {state!r} has no outgoing transitions")
    targets, weights, orders = zip(*raw)
    # summed left to right: sum() compensates on Python >= 3.12, which
    # would move the last bits of every probability
    total = 0.0
    for t in raw:
        if not t.weight > 0.0 or (not model.emits_rates and t.weight > 1.0):
            raise ModelError(f"bad weight {t.weight} from {state!r} to {t.target!r}")
        if t.order is not None and t.order < 0:
            raise ModelError(f"negative order {t.order} to {t.target!r}")
        total += t.weight
    if model.emits_rates:
        probs = [w / total for w in weights]
        base = min((r for r in orders if r is not None), default=0)
        orders = [None if r is None else r - base for r in orders]
    elif abs(total - 1.0) > 1e-9:
        raise ModelError(f"probabilities of {state!r} sum to {total}, not 1")
    else:
        probs = list(weights)
    if None in orders:
        assigned = [assign_order(p, model.epsilon) for p in probs]
        base = min(assigned)
        orders = [o - base for o in assigned]
    return targets, probs, orders


class StateIndexer:
    """Bijection between discovered state descriptors and dense ints.

    Indices are assigned in first-discovery order, which also serves as the
    deterministic tie-breaking order of the preprocessing phases.
    """

    def __init__(self) -> None:
        self._index: dict[Any, int] = {}
        self._states: list[Any] = []

    def __len__(self) -> int:
        return len(self._states)

    def __contains__(self, state: Any) -> bool:
        return state in self._index

    def index(self, state: Any) -> int:
        """Index of ``state``, assigning a fresh one if unseen."""
        idx = self._index.get(state)
        if idx is None:
            idx = len(self._states)
            self._index[state] = idx
            self._states.append(state)
        return idx

    def lookup(self, state: Any) -> int | None:
        """Index of ``state`` or None, never assigning."""
        return self._index.get(state)

    def state(self, idx: int) -> Any:
        return self._states[idx]


#: a row: target indices, probabilities and orders, position by position
Row = tuple[list[int], array, tuple[int, ...]]

#: a target of a fetched row that has not been classified yet
UNSEEN = -1


class Chain:
    """The chain of one model in index space, resolved lazily and once.

    Each row is fetched once, on first request, straight from
    ``model.successors``; a row set by ``set_override`` (cycle removal)
    replaces the model's.  A descriptor met as a target is classified when
    first needed: plain ones get dense indices in first-discovery order,
    taboo ones map to the merged TABOO node, and both are remembered.
    Goal targets map to the merged GOAL node; their descriptors are not
    kept, because the goal boundary can be as large as the state space
    and each goal state is usually entered from a single state.

    ``row`` classifies every target of a row; ``fetch`` and ``target`` let
    a sampler classify only the targets it steps to, so the states next to
    its path cost neither indices nor predicate calls.

    The initial state is indexed as a regular node even when its
    descriptor satisfies the taboo predicate (regenerative models reuse
    the start state as the return state); only transition *targets* are
    merged into the taboo node.  While ``state_budget`` is set, indexing
    more states than it allows raises ``StateBudgetExceeded``.
    """

    def __init__(self, model: MarkovModel, state_budget: int | None = None):
        self.model = model
        self.state_budget = state_budget
        self.indexer = StateIndexer()
        s = model.initial_state
        self.s_index = self.indexer.index(s)
        self.goal_index = self.indexer.index(GOAL)
        self.taboo_index = self.indexer.index(TABOO)
        #: taboo descriptors met so far, and s if it is a goal or taboo
        self._terminal: dict[Any, int] = {}
        if model.is_goal(s):
            self._terminal[s] = self.goal_index
        elif model.is_taboo(s):
            self._terminal[s] = self.taboo_index
        #: one tuple per distinct order vector, shared by the rows
        self._orders: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.overrides: dict[int, tuple[tuple[int, float, int], ...]] = {}
        self._rows: dict[int, Row] = {}
        #: target descriptors of the fetched rows with UNSEEN targets
        self._unseen: dict[int, Sequence[State]] = {}

    def __len__(self) -> int:
        return len(self.indexer)

    @property
    def initial_is_goal(self) -> bool:
        return self._terminal.get(self.model.initial_state) == self.goal_index

    @property
    def initial_is_taboo(self) -> bool:
        return self._terminal.get(self.model.initial_state) == self.taboo_index

    def is_terminal(self, idx: int) -> bool:
        return idx == self.goal_index or idx == self.taboo_index

    def _known(self, state: State) -> int | None:
        """Target index of a descriptor classified before, else None."""
        z = self.indexer.lookup(state)
        if z is None or z == self.s_index:
            z = self._terminal.get(state, z)
        return z

    def _classify(self, state: State) -> int:
        """Target index of a descriptor, classifying it if it is new."""
        z = self._known(state)
        if z is not None:
            return z
        if self.model.is_goal(state):
            return self.goal_index
        if self.model.is_taboo(state):
            self._terminal[state] = self.taboo_index
            return self.taboo_index
        if self.state_budget is not None and len(self.indexer) >= self.state_budget:
            raise StateBudgetExceeded(
                f"more than {self.state_budget} states discovered"
            )
        return self.indexer.index(state)

    def _model_row(self, idx: int) -> tuple[Sequence[State], array, tuple[int, ...]]:
        """The model's row of ``idx``, its targets still descriptors."""
        if self.is_terminal(idx):
            raise ModelError("terminal states have no successors")
        states, probs, orders = embedded_row(self.model, self.indexer.state(idx))
        orders = tuple(orders)
        return states, array("d", probs), self._orders.setdefault(orders, orders)

    def fetch(self, idx: int) -> Row:
        """The row of ``idx``; targets not classified yet read UNSEEN."""
        row = self._rows.get(idx)
        if row is None:
            states, probs, orders = self._model_row(idx)
            known = self._known
            targets = [UNSEEN if (z := known(t)) is None else z for t in states]
            if UNSEEN in targets:
                self._unseen[idx] = states
            row = self._rows[idx] = (targets, probs, orders)
        return row

    def target(self, idx: int, i: int) -> int:
        """Index of the ``i``-th target of the fetched row of ``idx``."""
        targets = self._rows[idx][0]
        z = targets[i]
        if z == UNSEEN:
            z = targets[i] = self._classify(self._unseen[idx][i])
        return z

    def row(self, idx: int) -> Row:
        """The row of ``idx`` with every target classified."""
        row = self._rows.get(idx)
        if row is None:
            states, probs, orders = self._model_row(idx)
            row = self._rows[idx] = (list(map(self._classify, states)), probs, orders)
        else:
            states = self._unseen.pop(idx, None)
            if states is not None:
                targets = row[0]
                for i, z in enumerate(targets):
                    if z == UNSEEN:
                        targets[i] = self._classify(states[i])
        return row

    def edges(self, idx: int) -> Iterator[tuple[int, float, int]]:
        """The row of ``idx`` as (target, probability, order) triples."""
        return zip(*self.row(idx))

    def folded_edges(
        self, idx: int, inner: frozenset[int]
    ) -> tuple[tuple[int, float, int], ...]:
        """Edges of ``idx`` with every target outside ``inner`` folded into g.

        A folded edge keeps its probability and order; taboo targets stay
        apart from g.  A target not classified yet stays so: a folded edge
        needs only the taboo predicate (and the goal predicate for a taboo
        target).  The fetched row is kept for later use.
        """
        fresh = idx not in self._rows
        targets, probs, orders = self.fetch(idx)
        states = self._unseen.get(idx)
        model = self.model
        goal = self.goal_index
        folded = []
        for i, (z, p, r) in enumerate(zip(targets, probs, orders)):
            if z == UNSEEN:
                t = states[i]
                # a target of a row fetched earlier may be classified since
                z = None if fresh else self._known(t)
                if z is None:
                    taboo = model.is_taboo(t) and not model.is_goal(t)
                    z = self.taboo_index if taboo else goal
            folded.append((z if z in inner or self.is_terminal(z) else goal, p, r))
        return tuple(folded)

    def set_override(self, idx: int, edges: Iterable[tuple[int, float, int]]) -> None:
        edges = tuple(edges)
        self.overrides[idx] = edges
        self._unseen.pop(idx, None)
        self._rows[idx] = (
            [z for z, _p, _r in edges],
            array("d", (p for _z, p, _r in edges)),
            tuple(r for _z, _p, r in edges),
        )
