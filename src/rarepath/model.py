"""Markov model contract, CTMC embedding, and state indexing.

A model describes a discrete-time Markov chain implicitly: an initial
state, goal/taboo predicates, and a successor function.  Goal states are
merged into a single absorbing node g, taboo states into a single node t;
neither is ever expanded.  ``successors`` returns a state's row as three
parallel sequences, targets, weights and rarity orders, position by
position.  Weights may be CTMC rates (embedded on the fly) or DTMC
probabilities; an order of None asks for automatic assignment.  A gambler's
ruin with up-rate eps = 0.1 and down-rate 1:

    class Ruin(MarkovModel):
        initial_state = 1
        def is_goal(self, x): return x == 3
        def is_taboo(self, x): return x == 0
        def successors(self, x): return (x + 1, x - 1), (0.1, 1.0), (1, 0)
"""

from __future__ import annotations

import abc
import enum
import math
from array import array
from functools import reduce
from itertools import repeat
from operator import add
from typing import Any, Hashable, Sequence

from rarepath.errors import ModelError, StateBudgetExceeded
from rarepath.orders import assign_order

State = Hashable


class Terminal(enum.Enum):
    """Virtual merged absorbing nodes."""

    GOAL = "goal"
    TABOO = "taboo"


GOAL = Terminal.GOAL
TABOO = Terminal.TABOO


class MarkovModel(abc.ABC):
    """Implicit Markov chain with merged goal and taboo sets."""

    #: successor weights are CTMC rates (embed) rather than probabilities
    emits_rates: bool = True

    #: rarity parameter; used for automatic order assignment when a
    #: successor's order is None
    epsilon: float = 0.1

    @property
    @abc.abstractmethod
    def initial_state(self) -> State: ...

    @abc.abstractmethod
    def is_goal(self, state: State) -> bool: ...

    @abc.abstractmethod
    def is_taboo(self, state: State) -> bool: ...

    @abc.abstractmethod
    def successors(self, state: State) -> tuple[Sequence, Sequence, Sequence]:
        """(targets, weights, orders) of ``state``, position by position."""


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
    row = targets, weights, orders = model.successors(state)
    if not targets:
        raise ModelError(f"state {state!r} has no outgoing transitions")
    # summed left to right: sum() compensates on Python >= 3.12, which
    # would move the last bits of every probability
    total = reduce(add, weights, 0.0)
    auto = None in orders
    base = min([r for r in orders if r is not None] if auto else orders, default=0)
    # a NaN weight fails min() only in first place, but the sum anywhere
    if not (
        len(targets) == len(weights) == len(orders)
        and min(weights) > 0.0
        and total < math.inf
        and (model.emits_rates or max(weights) <= 1.0)
        and base >= 0
    ):
        if not len(targets) == len(weights) == len(orders):
            raise ModelError(f"unequal lengths {[*map(len, row)]} in row of {state!r}")
        for t, w, r in zip(*row):  # name the first bad edge
            if not 0.0 < w < math.inf or (not model.emits_rates and w > 1.0):
                raise ModelError(f"bad weight {w} from {state!r} to {t!r}")
            if r is not None and r < 0:
                raise ModelError(f"negative order {r} to {t!r}")
        raise ModelError(f"weights of {state!r} sum to {total}")
    if model.emits_rates:
        probs = list(map(total.__rtruediv__, weights))
        if base and not auto:
            orders = [r - base for r in orders]
    elif abs(total - 1.0) > 1e-9:
        raise ModelError(f"probabilities of {state!r} sum to {total}, not 1")
    else:
        probs = list(weights)
    if auto:
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
        #: index of a state or None (or a given default), never assigning
        self.lookup = self._index.get

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

    def alias(self, state: Any, idx: int) -> None:
        """Map ``state`` to the existing index ``idx`` (a merged node)."""
        self._index[state] = idx

    def state(self, idx: int) -> Any:
        return self._states[idx]


#: a row: target indices, probabilities and orders, position by position
Row = tuple[list[int], array, tuple[int, ...]]

#: a target of a fetched row that has not been classified yet
UNSEEN = -1


class Chain:
    """The chain of one model in index space, resolved lazily.

    Each row is fetched on first request, straight from
    ``model.successors``, and kept unless ``take`` reads it first; a row
    set by ``set_override`` (cycle removal) replaces the model's.  A
    descriptor met as a target is classified when first needed: plain
    ones get dense indices in first-discovery order, taboo ones become
    indexer aliases of the merged TABOO node.  Goal targets map to the
    merged GOAL node; their descriptors are not kept, because the goal
    boundary can be as large as the state space and each goal state is
    usually entered from a single state.

    A row is one format everywhere (``Row``): target indices, probabilities
    and orders, position by position.  ``row`` and ``take`` classify every
    target of a row; ``fetch`` and ``target`` let a sampler classify only
    the targets it steps to, so the states next to its path cost neither
    indices nor predicate calls; ``folded_row`` gives a frontier state's
    row without indexing its targets.

    The initial state is indexed as a regular node even when its
    descriptor satisfies the goal or taboo predicate (regenerative models
    reuse the start state as the return state); only transition *targets*
    are merged into the terminal nodes.  While ``state_budget`` is set,
    indexing more states than it allows raises ``StateBudgetExceeded``.
    """

    def __init__(self, model: MarkovModel, state_budget: int | None = None):
        self.model = model
        self.state_budget = state_budget
        self.indexer = StateIndexer()
        s = model.initial_state
        self.s_index = self.indexer.index(s)
        self.goal_index = self.indexer.index(GOAL)
        self.taboo_index = self.indexer.index(TABOO)
        #: the index that s stands for as a target: its own, or g or t
        self._s_target = (
            self.goal_index if model.is_goal(s)
            else self.taboo_index if model.is_taboo(s) else self.s_index
        )
        #: one tuple per distinct order vector, shared by the rows
        self._orders: dict[tuple[int, ...], tuple[int, ...]] = {}
        #: rows set by cycle removal, the same objects as in ``_rows``
        self.overrides: dict[int, Row] = {}
        self._rows: dict[int, Row] = {}
        #: target descriptors of the fetched rows with UNSEEN targets
        self._unseen: dict[int, Sequence[State]] = {}

    def __len__(self) -> int:
        return len(self.indexer)

    @property
    def initial_is_goal(self) -> bool:
        return self._s_target == self.goal_index

    @property
    def initial_is_taboo(self) -> bool:
        return self._s_target == self.taboo_index

    def is_terminal(self, idx: int) -> bool:
        return idx == self.goal_index or idx == self.taboo_index

    def _known(self, states: Sequence[State]) -> list[int]:
        """Target indices of descriptors classified before, else UNSEEN."""
        targets = list(map(self.indexer.lookup, states, repeat(UNSEEN)))
        s, s_target = self.s_index, self._s_target
        if s_target != s and s in targets:
            targets = [s_target if z == s else z for z in targets]
        return targets

    def _classify(self, state: State) -> int:
        """Target index of a descriptor, classifying it if it is new."""
        z = self.indexer.lookup(state)
        if z is not None:
            return self._s_target if z == self.s_index else z
        if self.model.is_goal(state):
            return self.goal_index
        if self.model.is_taboo(state):
            self.indexer.alias(state, self.taboo_index)
            return self.taboo_index
        if self.state_budget is not None and len(self.indexer) >= self.state_budget:
            raise StateBudgetExceeded(f"more than {self.state_budget} states discovered")
        return self.indexer.index(state)

    def fetch(self, idx: int) -> Row:
        """The row of ``idx``; targets not classified yet read UNSEEN."""
        row = self._rows.get(idx)
        if row is None:
            if self.is_terminal(idx):
                raise ModelError("terminal states have no successors")
            states, probs, orders = embedded_row(self.model, self.indexer.state(idx))
            orders = tuple(orders)
            orders = self._orders.setdefault(orders, orders)
            targets = self._known(states)
            if UNSEEN in targets:
                self._unseen[idx] = tuple(states)
            row = self._rows[idx] = (targets, array("d", probs), orders)
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
        row = self.fetch(idx)
        states = self._unseen.pop(idx, None)
        if states is not None:
            targets = row[0]
            for i, z in enumerate(targets):
                if z == UNSEEN:
                    targets[i] = self._classify(states[i])
        return row

    def take(self, idx: int) -> Row:
        """The row of ``idx`` with every target classified, kept only if held.

        A row the chain holds already (fetched before, or an override) is
        classified in place and kept, as by ``row``; any other row is
        dropped once read, so a caller that reads each row once keeps none.
        """
        held = idx in self._rows
        row = self.row(idx)
        if not held:
            del self._rows[idx]
        return row

    def folded_row(self, idx: int, inner: frozenset[int]) -> Row:
        """The row of ``idx`` with every target outside ``inner`` folded into g.

        Only the target list is new: the probabilities and orders are the
        fetched row's own, so a folded edge keeps its probability and
        order.  Taboo targets stay apart from g.  A target not classified
        yet stays so: a folded edge needs only the taboo predicate (and the
        goal predicate for a taboo target).  The fetched row is kept for
        later use.
        """
        fresh = idx not in self._rows
        targets, probs, orders = self.fetch(idx)
        states = self._unseen.get(idx)
        goal, taboo = self.goal_index, self.taboo_index
        if states is not None:
            # a target of a row fetched earlier may be classified since
            known = targets if fresh else self._known(states)
            model = self.model
            targets = [
                z if z != UNSEEN else y if y != UNSEEN
                else taboo if model.is_taboo(t) and not model.is_goal(t) else goal
                for z, y, t in zip(targets, known, states)
            ]
        folded = [z if z in inner or z == taboo else goal for z in targets]
        return folded, probs, orders

    def set_override(self, idx: int, row: Row) -> None:
        """Replace the row of ``idx`` (cycle removal); ``overrides`` keeps it."""
        self._rows[idx] = self.overrides[idx] = row
        self._unseen.pop(idx, None)
