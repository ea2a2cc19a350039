"""Markov model contract, CTMC embedding, and the indexed chain.

A model describes a discrete-time Markov chain implicitly: an initial
state, goal/taboo predicates, and a successor function.  Goal states are
merged into a single absorbing node g, taboo states into a single node t.
Neither is a state: g and t have no rows and no descriptors, only the
negative ids ``GOAL_CODE`` and ``TABOO_CODE``, the same in a chain's rows
as in ``coded_rows``, and every id from 0 up is a state.  Only the states
a ``Chain`` discovers get an id, and the chain keeps the map between ids
and descriptors itself.  ``successors`` returns a state's row as three
parallel sequences, targets, weights and rarity orders, position by
position.  Weights may be CTMC rates (embedded on the fly) or DTMC
probabilities; an order of None asks for automatic assignment.  A
gambler's ruin with up-rate eps = 0.1 and down-rate 1:

    class Ruin(MarkovModel):
        initial_state = 1
        def is_goal(self, x): return x == 3
        def is_taboo(self, x): return x == 0
        def successors(self, x): return (x + 1, x - 1), (0.1, 1.0), (1, 0)

Rows with equal weights and equal orders, compared by value, have one
embedding: a ``Chain`` embeds each distinct (weights, orders) pair of the
rows it keeps once, and those rows share its probability array and orders
tuple, so no reader may write a row's probabilities.  Every state of the
ruin above that is not terminal has one row shape.  A chain whose first
``SHAPE_PROBE`` rows show no shape twice embeds each later row alone.

A model may also give its rows in bulk, over non-negative integer state
codes (``has_codes``; the exact oracle reads them, see ``coded_arrays``).
``encode`` maps a state to its code, injectively on the non-terminal
states and the initial state; ``decode`` maps an array of codes back to a
list of states.  ``coded_rows`` takes an array of codes and returns CSR
rows: per row its size, and over all rows, row after row, the target
codes, weights and orders (explicit, never None).  Each row is the
state's ``successors`` row, position by position in the same order;
a target that is a goal state reads ``GOAL_CODE`` and one that is taboo
(and not goal) ``TABOO_CODE``; any other negative code raises
``ModelError``.  Codes index a table of one C int per code up to the
largest code met, so they must be dense, as mixed-radix codes are; a
code of ``MAX_CODE`` = 2**24 or more raises ``ModelError``.
"""

from __future__ import annotations

import abc
import math
from array import array
from functools import reduce
from itertools import repeat
from operator import add, index
from typing import Hashable, Iterable, Sequence

import numpy as np

from rarepath.errors import ModelError, StateBudgetExceeded
from rarepath.orders import assign_order

State = Hashable


#: the ids of g and t, in ``coded_rows`` and in a chain's rows; g sorts
#: before t, so an exit list sorted by id reads g, t, then the states
GOAL_CODE = -2
TABOO_CODE = -1


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
        """(targets, weights, orders) of ``state``, position by position;
        the same row for the same state on every call."""

    #: the model gives ``encode``, ``decode`` and ``coded_rows``
    has_codes: bool = False

    def encode(self, state: State) -> int:
        raise NotImplementedError

    def decode(self, codes: np.ndarray) -> list[State]:
        raise NotImplementedError

    def coded_rows(self, codes: np.ndarray) -> tuple[np.ndarray, ...]:
        """(sizes, targets, weights, orders) of the rows of ``codes``."""
        raise NotImplementedError


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
    return _embed(model, state, model.successors(state))


def _embed(
    model: MarkovModel, state: State, row: tuple[Sequence, Sequence, Sequence]
) -> tuple[Sequence[State], list[float], Sequence[int]]:
    """``embedded_row`` over a row already read from ``model.successors``."""
    targets, weights, orders = row
    if not targets:
        raise ModelError(f"state {state!r} has no outgoing transitions")
    # summed left to right: sum() compensates on Python >= 3.12, which
    # would move the last bits of every probability
    total = reduce(add, weights, 0.0)
    auto = None in orders
    try:  # orders are ints: operator.index takes numpy's and refuses floats
        explicit = [index(r) for r in orders if r is not None]
    except TypeError:
        explicit = [-1]  # refused below, where the edge is named
    base = min(explicit, default=0)
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
            if r is not None and not hasattr(r, "__index__"):
                raise ModelError(f"order {r!r} to {t!r} is not an int")
            if r is not None and r < 0:
                raise ModelError(f"negative order {r} to {t!r}")
        raise ModelError(f"weights of {state!r} sum to {total}")
    orders = orders if auto else explicit
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


#: a row: target indices, probabilities and orders, position by position
Row = tuple[list[int], array, tuple[int, ...]]

#: a target of a fetched row that has not been classified yet
UNSEEN = -3

#: rows a chain keeps before it gives up looking shapes up, if no two of
#: them share one (DDS FCFS repeats its first shape at row 23, the
#: redundancy models at row 4; DDS with count-vector states never does)
SHAPE_PROBE = 64


class Chain:
    """The chain of one model in index space, resolved lazily.

    Each row is fetched on first request, straight from
    ``model.successors``, and kept unless ``take`` reads it first; a row
    set by ``set_override`` (cycle removal) replaces the model's.  The
    rows kept share their embeddings by shape: a fetched row's weights and
    orders are looked up, by value, in a table of the shapes met so far,
    so rows of one shape hold one probability array (which no reader may
    write) and one orders tuple.  Only a new shape is embedded, by
    ``embedded_row``'s rule; ``take`` reads the table but adds nothing
    to it, so a caller that reads each row once does not grow it.  A chain
    whose first ``SHAPE_PROBE`` rows kept all differ in shape drops the
    table and embeds each later row on its own, so a model whose rows do
    not repeat pays for no lookups past them.  Only
    the last row fetched keeps its target descriptors; an unclassified
    target of another row is re-read from ``model.successors``, which
    gives the same row each time, so indices do not depend on it.  A
    descriptor met as a target is classified when first needed: plain
    ones get dense indices in first-discovery order, from s at 0, and
    taboo ones map to t.  Goal targets read g; their descriptors are not
    kept, because the goal boundary can be as large as the state space
    and each goal state is usually entered from a single state.  g and t
    are the ids ``GOAL_CODE`` and ``TABOO_CODE`` (``goal_index``,
    ``taboo_index``): they have no rows, and ``len(chain)`` counts the
    states alone.

    The chain is its own index: ``descriptors`` holds the descriptor of
    every state in index order, ``lookup`` gives a descriptor's index (or
    None, never assigning one) and ``state`` a state's descriptor.  The
    discovery order also breaks the ties of the preprocessing phases, so
    they are deterministic.

    A row is one format everywhere (``Row``): target indices, probabilities
    and orders, position by position.  ``row`` and ``take`` classify every
    target of a row; ``fetch`` and ``target`` let a sampler classify only
    the targets it steps to, so the states next to its path cost neither
    indices nor predicate calls; ``folded_row`` gives a frontier state's
    row without indexing its targets.

    The initial state is indexed as a regular node even when its
    descriptor satisfies the goal or taboo predicate (regenerative models
    reuse the start state as the return state); only transition *targets*
    are merged into the terminal nodes, and ``s_target`` is the id s
    stands for as a target (s, g or t).  Indexing more states than a set
    ``state_budget`` raises ``StateBudgetExceeded``.
    """

    goal_index = GOAL_CODE
    taboo_index = TABOO_CODE
    s_index = 0

    def __init__(self, model: MarkovModel, state_budget: int | None = None):
        self.model = model
        self.state_budget = state_budget
        s = model.initial_state
        #: the descriptor of every state, in index order, s at 0
        self.descriptors: list[State] = [s]
        #: descriptor -> index of every descriptor classified; taboo ones read t
        self._index: dict[State, int] = {s: self.s_index}
        #: index of a descriptor, or None (or a given default), never assigning
        self.lookup = self._index.get
        #: the index that s stands for as a target: its own, or g or t
        self.s_target = (
            self.goal_index if model.is_goal(s)
            else self.taboo_index if model.is_taboo(s) else self.s_index
        )
        #: one tuple per distinct order vector, shared by the rows and by
        #: the keys of ``_shapes``
        self._orders: dict[tuple[int, ...], tuple[int, ...]] = {}
        #: one embedding per distinct raw row of the rows kept:
        #: (weights, orders) as tuples -> (probabilities, orders); None once
        #: the first SHAPE_PROBE rows kept have shown no shape twice
        self._shapes: dict[tuple[tuple, tuple], tuple[array, tuple[int, ...]]] | None = {}
        #: rows set by cycle removal, the same objects as in ``_rows``
        self.overrides: dict[int, Row] = {}
        self._rows: dict[int, Row] = {}
        #: (index, target descriptors) of the last row fetched
        self._last: tuple[int, Sequence[State]] = (UNSEEN, ())

    def __len__(self) -> int:
        return len(self.descriptors)

    def state(self, idx: int) -> State:
        """The descriptor of index ``idx``; a negative id (g, t) has none."""
        if idx < 0:
            raise IndexError(f"id {idx} is no state's index")
        return self.descriptors[idx]

    def _known(self, states: Sequence[State]) -> list[int]:
        """Target indices of descriptors classified before, else UNSEEN."""
        targets = list(map(self.lookup, states, repeat(UNSEEN)))
        s, s_target = self.s_index, self.s_target
        if s_target != s and s in targets:
            targets = [s_target if z == s else z for z in targets]
        return targets

    def _classify(self, state: State) -> int:
        """Target index of a descriptor, classifying it if it is new."""
        z = self.lookup(state)
        if z is not None:
            return self.s_target if z == self.s_index else z
        if self.model.is_goal(state):
            return self.goal_index
        if self.model.is_taboo(state):
            self._index[state] = self.taboo_index
            return self.taboo_index
        z = len(self.descriptors)
        if self.state_budget is not None and z >= self.state_budget:
            raise StateBudgetExceeded(f"more than {self.state_budget} states discovered")
        self._index[state] = z
        self.descriptors.append(state)
        return z

    def fetch(self, idx: int) -> Row:
        """The row of ``idx``, kept; targets not classified yet read UNSEEN."""
        row = self._rows.get(idx)
        if row is None:
            row = self._rows[idx] = self._read(idx, True)
        return row

    def _read(self, idx: int, keep: bool) -> Row:
        """The row of ``idx`` from one ``model.successors`` call.

        Its weights and orders are looked up, by value, among the shapes
        of the rows kept; a known shape gives its probabilities and orders,
        and a new one is embedded by ``embedded_row``'s rule and, if
        ``keep``, joins them.  With the table dropped, every row is
        embedded.
        """
        state = self.state(idx)
        row = states, weights, orders = self.model.successors(state)
        shapes, shape = self._shapes, None
        if shapes is not None:
            key = tuple(weights), tuple(orders)
            shape = shapes.get(key)
        if shape is None or len(states) != len(weights):
            _, probs, orders = _embed(self.model, state, row)
            orders, intern = tuple(orders), self._orders.setdefault
            shape = array("d", probs), intern(orders, orders)
            if keep and shapes is not None:
                shapes[key[0], intern(key[1], key[1])] = shape
                # every row held so far has a shape of its own: stop looking
                if len(self._rows) + 1 == len(shapes) == SHAPE_PROBE:
                    self._shapes = None
        self._last = idx, states
        return self._known(states), *shape

    def _states(self, idx: int) -> Sequence[State]:
        """Target descriptors of the fetched row of ``idx``, re-read unless last."""
        last, states = self._last
        if last != idx:
            state = self.state(idx)
            states = self.model.successors(state)[0]
            if len(states) != len(self._rows[idx][0]):
                raise ModelError(f"successors of {state!r} changed between calls")
        return states

    def target(self, idx: int, i: int) -> int:
        """Index of target ``i`` of the fetched row of ``idx``, re-read unless last."""
        targets = self._rows[idx][0]
        z = targets[i]
        if z == UNSEEN:
            z = targets[i] = self._classify(self._states(idx)[i])
        return z

    def row(self, idx: int) -> Row:
        """The row of ``idx`` with every target classified."""
        row = self.fetch(idx)
        targets = row[0]
        if UNSEEN in targets:
            states = self._states(idx)
            for i, z in enumerate(targets):
                if z == UNSEEN:
                    targets[i] = self._classify(states[i])
        return row

    def take(self, idx: int) -> Row:
        """The row of ``idx`` with every target classified, kept only if held.

        A row the chain holds already (fetched before, or an override) is
        classified in place and kept, as by ``row``; any other row is
        dropped once read, and its shape is not kept, so a caller that reads
        each row once keeps none.
        """
        if idx in self._rows:
            return self.row(idx)
        self._rows[idx] = self._read(idx, False)
        row = self.row(idx)
        del self._rows[idx]
        return row

    def folded_row(self, idx: int, inner: frozenset[int]) -> Row:
        """The row of ``idx`` with every target outside ``inner`` folded into g.

        Only the target list is new, made in one pass: the probabilities
        and orders are the fetched row's own, so a folded edge keeps its
        probability and order.  Taboo targets stay apart from g.  A target
        not classified yet stays so: a folded edge needs only the taboo
        predicate (and the goal predicate for a taboo target), re-read
        unless the row was last.  The fetched row is kept for later use.
        """
        held = idx in self._rows
        targets, probs, orders = self.fetch(idx)
        states: Iterable[State] = repeat(None)  # read where a target is unseen
        if UNSEEN in targets:
            states = self._states(idx)
            if held:  # a target of a row fetched earlier may be classified since
                targets = self._known(states)
        goal, taboo, model = self.goal_index, self.taboo_index, self.model
        return [
            (taboo if model.is_taboo(t) and not model.is_goal(t) else goal) if z == UNSEEN
            else z if z in inner or z == taboo else goal
            for z, t in zip(targets, states)
        ], probs, orders

    def set_override(self, idx: int, row: Row) -> None:
        """Replace the row of ``idx`` (cycle removal); ``overrides`` keeps it."""
        self._rows[idx] = self.overrides[idx] = row


#: states expanded at once by ``coded_arrays``: blocks of one size keep its
#: temporaries small and alike, so the heap they leave behind is reused
#: (the peak RSS of repeated DDS solves fell by about 1 MB against whole layers)
BLOCK = 1024

#: the ceiling on state codes: ``coded_arrays`` looks codes up in a table of
#: one C int per code, so a code this large would need a 64 MiB table
MAX_CODE = 2**24


def _table_for(table: np.ndarray, top: int) -> np.ndarray:
    """``table`` doubled until code ``top`` indexes it, new entries -1 (unseen)."""
    if 0 <= top < len(table):
        return table
    if not 0 <= top < MAX_CODE:
        raise ModelError(f"state code {top} is not in [0, MAX_CODE = {MAX_CODE})")
    grown = np.full(1 << top.bit_length(), -1, np.intc)
    grown[: len(table)] = table
    return grown


def coded_arrays(
    model: MarkovModel, state_cap: int
) -> tuple[array, array, array, np.ndarray]:
    """The whole chain of a model with codes as flat rows, built in bulk.

    Returns (targets, probs, sizes, codes): row i is state i, its entries
    run in position order, and ``codes`` holds one code per state.  The
    rows grow in place, as typed arrays, block after block.  Indices are
    those a ``Chain`` gives when its rows are taken in index order: s is
    0 and every other state follows in first-discovery order; g and t
    have no rows, and a target into them reads ``GOAL_CODE`` or
    ``TABOO_CODE``, as in the hook and the chain.  The chain is
    walked breadth-first, a block of at most ``BLOCK`` states at a time in
    index order: a block's new target codes are indexed in order of first
    occurrence and join the queue.  As the hook marks goal and taboo
    targets, a target that is s maps to g or t if s is goal or taboo, as
    in ``Chain``.  Codes are looked up in a table indexed by code, which
    doubles as larger codes appear, so the build takes time linear in the
    states and edges; a code of ``MAX_CODE`` or more raises ``ModelError``.

    Each block is embedded by ``embedded_row``'s rule: weights summed left
    to right (over padded columns, 0.0 where a row is shorter) and divided
    by that sum.  A block with a row that fails one of ``embedded_row``'s
    checks raises the ``ModelError`` that ``embedded_row`` raises for the
    first such row, and one with a negative target code other than
    ``GOAL_CODE`` and ``TABOO_CODE`` a ``ModelError`` naming its state;
    one that takes the chain past ``state_cap`` states raises
    ``StateBudgetExceeded``.
    """
    queue = np.array([model.encode(model.initial_state)], np.int64)
    table = _table_for(np.empty(0, np.intc), int(queue[0]))  # index per code, -1 unseen
    table[queue[0]] = 0
    codes = [queue]
    targets, probs, sizes = array("i"), array("d"), array("i")
    n = 1
    while len(queue):
        block, queue = queue[:BLOCK], queue[BLOCK:]
        m = len(block)
        size, z, w, r = model.coded_rows(block)
        rows = np.repeat(np.arange(m), size)
        padded = np.zeros((m, max(size.max(), 1)))
        padded[rows, np.arange(len(z)) - (np.cumsum(size) - size)[rows]] = w
        total = padded[:, 0].copy()
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats
            for column in padded.T[1:]:
                total += column
        # GOAL_CODE and TABOO_CODE are the only negative codes
        bad = ~(w > 0.0) | (r < 0) | (z < min(GOAL_CODE, TABOO_CODE))
        ok = (size > 0) & (total < math.inf)
        if not model.emits_rates:
            bad |= w > 1.0
            ok &= np.abs(total - 1.0) <= 1e-9
        ok[rows[bad]] = False
        if not ok.all():
            state = model.decode(block[[np.argmin(ok)]])[0]
            embedded_row(model, state)
            raise ModelError(f"coded row of {state!r} differs from its successors")
        if model.emits_rates:
            w = w / np.repeat(total, size)
        plain = z >= 0
        z_plain = z[plain]
        table = _table_for(table, int(z_plain.max(initial=0)))
        at = table[z_plain]
        unseen = at < 0
        fresh = z_plain[unseen]
        new, first = np.unique(fresh, return_index=True)
        new = new[np.argsort(first)]
        table[new] = np.arange(n, n + len(new), dtype=np.intc)
        at[unseen] = table[fresh]
        index = z.astype(np.intc)  # a terminal's code is its index
        index[plain] = at
        targets.frombytes(index.tobytes())
        probs.frombytes(w.tobytes())
        sizes.frombytes(size.astype(np.intc).tobytes())
        codes.append(new)
        queue = np.concatenate([queue, new])
        n += len(new)
        if n > state_cap:
            raise StateBudgetExceeded(f"more than {state_cap} reachable states")
    return targets, probs, sizes, np.concatenate(codes)
