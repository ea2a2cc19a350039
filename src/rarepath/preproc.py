"""Graph-based preprocessing for the importance-sampling measure.

Two phases over the implicitly defined chain, which read and write its
rows in one format (``model.Row``):

* forward phase: Dijkstra-like search over rarity orders from the initial
  state s; yields d(s, x) and the relevant set Lambda = {x : d(s,x) <=
  d(s,g)}.  Cycle removal (``loop_detect``) runs inside this phase:
  whenever an order-0 cycle (a "high-probability cycle", HPC) is found
  inside Lambda, each member's row is replaced by its distribution over
  the cycle's exit states, which preserves all hitting probabilities
  while eliminating zero-order cycles.
* backward phase: computes d(x, g) and v(x), the total probability of the
  dominant (minimal-order) paths from x to g, over Lambda plus its direct
  frontier Gamma.  Frontier states are resolved with their own rows;
  only the states one step beyond Lambda + Gamma are treated as reaching g
  (never expanded or indexed), so every state that can reach g keeps a
  positive value and paths leaving Lambda are never starved of sampling
  mass.

Both uses of an order-0 cycle, the exit distribution and the frontier
values, come from one subtraction-free elimination (``solve_absorbing``),
which needs no tolerance, however little mass leaves the cycle.  Every
phase visits states in an order fixed by their discovery indices and row
positions, so results are deterministic.
"""

from __future__ import annotations

import heapq
import time
from array import array
from dataclasses import dataclass
from math import fsum
from typing import Mapping

from rarepath.errors import GoalUnreachableError, ModelError
from rarepath.model import Chain, MarkovModel, Row
from rarepath.orders import INFINITY, Order

DEFAULT_STATE_BUDGET = 1_000_000


def solve_absorbing(
    rows: Mapping[int, Row],
    members: list[int],
    positions: Mapping[int, list[int]] | None = None,
) -> tuple[list[int], list[list[float]]]:
    """Probabilities of leaving a set of states through each of its exits.

    Reads the row positions ``positions[x]`` of every member x (all of
    ``rows[x]`` by default); a target that is a member is internal, any
    other is an exit, and the positions not read lead to a sink.  Returns
    the sorted exits and M, one row per member in ``members``' order and
    one column per exit, with

        M[x][z] = p(x, z) + sum over members x2 of p(x, x2) * M[x2][z].

    The GTH elimination (Grassmann, Taksar & Heyman, 1985) removes the
    members in order, then back-substitutes: a member's leave mass is the
    sum of its entries to the members left, the exits and the sink, never
    1 - p(x, x).  Nothing is subtracted, so every entry of M keeps a small
    relative error however little mass leaves the set (O'Cinneide, 1993).
    """
    left: dict[int, dict] = {}  # to the members left, the exits, the sink (None)
    for x in members:
        targets, probs, _orders = rows[x]
        read = range(len(targets)) if positions is None else positions[x]
        left[x] = row = {None: fsum([p for k, p in enumerate(probs) if k not in read])}
        for k in read:
            if targets[k] != x:  # a self-loop only delays the exit
                row[targets[k]] = row.get(targets[k], 0.0) + probs[k]
    exits = sorted({z for row in left.values() for z in row} - left.keys() - {None})
    if not exits:
        raise ModelError("order-0 cycle with no exit transitions")
    for i, k in enumerate(members):
        total = fsum(left[k].values())
        left[k] = row_k = {z: p / total for z, p in left[k].items()}
        for x in members[i + 1 :]:
            if k in (row := left[x]):
                w = row.pop(k)
                for z, p in row_k.items():
                    if z != x:  # mass returning to x is a self-loop, dropped
                        row[z] = row.get(z, 0.0) + w * p
    m: dict[int, dict[int, float]] = {}
    for k in reversed(members):
        m[k] = acc = {}
        for z, p in left[k].items():
            if z in m:
                for y, q in m[z].items():
                    acc[y] = acc.get(y, 0.0) + p * q
            elif z is not None:
                acc[z] = acc.get(z, 0.0) + p
    return exits, [[m[x].get(z, 0.0) for z in exits] for x in members]


def loop_detect(chain: Chain, trigger: int) -> list[int] | None:
    """Find and remove the order-0 cycle through ``trigger``, if any.

    Computes the order-0 strongly connected component L containing the
    trigger (forward closure intersected with backward closure), solves the
    exit distribution, and overrides every member's row with its exits,
    which preserves all hitting probabilities of the surrounding chain.
    Replacement orders are the cheapest exit order reachable from the
    component, shifted so the most likely exit has order 0.  Returns the
    sorted member list, or None for a benign trigger (no actual cycle).
    """
    # forward order-0 closure, each closure row read once; rev holds its
    # order-0 edges reversed
    rows: dict[int, Row] = {}
    rev: dict[int, list[int]] = {trigger: []}
    stack = [trigger]
    while stack:
        x = stack.pop()
        if x < 0:
            continue
        rows[x] = targets, _probs, orders = chain.row(x)
        for z, r in zip(targets, orders):
            if r == 0:
                if z not in rev:
                    rev[z] = []
                    stack.append(z)
                rev[z].append(x)
    # the states with an order-0 path back to the trigger: empty unless the
    # trigger lies on a cycle, a self-loop included
    members_set: set[int] = set()
    stack = [trigger]
    while stack:
        for z in rev[stack.pop()]:
            if z not in members_set:
                members_set.add(z)
                stack.append(z)
    if not members_set:
        return None
    members = sorted(members_set)
    exits, m = solve_absorbing(rows, members)
    exit_order = dict.fromkeys(exits, INFINITY)
    for x in members:
        targets, _probs, orders = rows[x]
        for z, r in zip(targets, orders):
            if z not in members_set and r < exit_order[z]:
                exit_order[z] = r
    base = min(exit_order.values())
    for x, mu in zip(members, m):
        kept, probs = zip(*[(z, p) for z, p in zip(exits, mu) if p > 0.0])
        orders = tuple(exit_order[z] - base for z in kept)
        chain.set_override(x, (list(kept), array("d", probs), orders))
    return members


def forward_phase(chain: Chain) -> tuple[dict[int, Order], frozenset[int], int]:
    """Explore the chain from s in order of increasing rarity order.

    Returns shortest-order distances d(s, x), the relevant set Lambda (the
    states settled) and the number of order-0 cycles removed.
    Exploration stops once every state at distance <= d(s, g) has been
    expanded.  A removed cycle re-queues, at their distances, its settled
    members, whose rows changed, and the state being scanned, whose scan
    it cut short; orders are >= 0, so no distance already settled falls.
    """
    s = chain.s_index
    goal = chain.goal_index
    d: dict[int, Order] = {s: 0}
    heap: list[tuple[Order, int]] = [(0, s)]
    settled: set[int] = set()
    benign: set[int] = set()
    hpc_count = 0
    while heap:
        du, x = heapq.heappop(heap)
        if x in settled or du > d.get(x, INFINITY):
            continue
        if du > d.get(goal, INFINITY):
            break
        settled.add(x)
        if x < 0:
            continue
        targets, _probs, orders = chain.row(x)
        for z, r in zip(targets, orders):
            nd = du + r
            if nd < d.get(z, INFINITY):
                d[z] = nd
                heapq.heappush(heap, (nd, z))
            if r == 0 and z in settled and z >= 0 and d.get(z) == du and z not in benign:
                members = loop_detect(chain, z)
                if members is None:
                    benign.add(z)
                    continue
                hpc_count += 1
                benign.clear()
                for m in (*members, x):
                    if m in settled:
                        settled.discard(m)
                        heapq.heappush(heap, (d[m], m))
                break
    if goal not in d:
        raise GoalUnreachableError("goal is unreachable from the initial state")
    return d, frozenset(settled), hpc_count


def backward_phase(chain: Chain, lambda_set: frozenset[int]) -> tuple:
    """Distance-to-goal and dominant-path probability over Lambda + Gamma.

    Returns Gamma, d(., g), v and the dominant edges, in the order of the
    fields of ``PreprocessResult``.

    Gamma is the frontier: non-terminal states directly reachable from
    Lambda that lie outside it.  Frontier states keep their own rows;
    only their targets beyond Lambda + Gamma are folded into g
    (``Chain.folded_row``), each as an edge of the same probability and
    order (the shortcut sits one step past the frontier).  Hence d(x, g)
    is a lower bound on the true distance, exact on the dominant paths
    from s, which never leave Lambda.  For every node,

        v(x) = sum of p(x, z) * v(z) over successors z
               with order(x, z) + d(z, g) = d(x, g).

    Each state's dominant edges are kept as row positions
    (``dominant_edges``), and v is evaluated in one topological pass over
    them from g: a state follows once its last dominant successor is done.
    Cycle removal left no order-0 cycle inside Lambda, but frontier states
    may still form one; the pass never reaches the states caught in or
    behind such a cycle.  Each has a dominant path out of their set, and
    their v is M v(exits): M holds the probabilities of leaving along
    dominant edges (``solve_absorbing``; every other edge leads to a sink
    with v = 0), and every exit's v is known.  Per-state data are lists
    indexed by chain id, and no container is made per edge.
    """
    goal, taboo = chain.goal_index, chain.taboo_index
    rows: dict[int, Row] = {x: chain.row(x) for x in sorted(lambda_set) if x >= 0}
    gamma = set().union(*[row[0] for row in rows.values()]) - lambda_set - {goal, taboo}
    inner = lambda_set | gamma
    for y in sorted(gamma):
        rows[y] = chain.folded_row(y, inner)

    # distances to g: reverse Dijkstra over orders from the edges into g
    size = len(chain) + 2  # g and t read the last two slots
    db: list[Order] = [INFINITY] * size
    db[goal] = 0
    preds: list[list[int]] = [[] for _ in range(size)]
    heap: list[int] = []
    for x, (targets, _probs, orders) in rows.items():
        for z, r in zip(targets, orders):
            if z >= 0:
                into = preds[z]
                into.append(x)
                into.append(r)
            elif z == goal and r < db[x]:
                db[x] = r
                heap.append(r * size + x)
    heapq.heapify(heap)
    while heap:
        dx, x = divmod(heapq.heappop(heap), size)
        if dx == db[x]:  # else a stale key
            pairs = iter(preds[x])
            for y, r in zip(pairs, pairs):
                if r + dx < db[y]:
                    db[y] = d = r + dx
                    heapq.heappush(heap, d * size + y)

    # each state's dominant edges, and how many lead to states not done yet
    dominant: dict[int, list[int]] = {}
    pending = [0] * size
    done: list[int] = []
    for x, (targets, _probs, orders) in rows.items():
        if (dx := db[x]) == INFINITY:
            continue
        dominant[x] = edges = [i for i, z in enumerate(targets) if orders[i] + db[z] == dx]
        pending[x] = len(edges) - [targets[i] for i in edges].count(goal)
        if not pending[x]:
            done.append(x)
    v = [0.0] * size
    v[goal] = 1.0
    for x in done:
        targets, probs, _orders = rows[x]
        acc = 0.0  # summed left to right
        for i in dominant[x]:
            acc += probs[i] * v[targets[i]]
        v[x] = acc
        dx, pairs = db[x], iter(preds[x])
        for y, r in zip(pairs, pairs):
            if r + dx == db[y]:
                pending[y] -= 1
                if not pending[y]:
                    done.append(y)
    rest = [x for x in dominant if pending[x]]
    if rest:
        exits, m = solve_absorbing(rows, rest, dominant)
        for x, mu in zip(rest, m):
            v[x] = fsum(p * v[z] for p, z in zip(mu, exits))
    d_backward = {x: db[x] for x in (*{*inner, goal}, taboo)}
    v_delta = {goal: 1.0, taboo: 0.0} | {x: v[x] for x in inner}
    return frozenset(gamma), d_backward, v_delta, dominant


@dataclass
class PreprocessResult:
    """Everything the sampler needs, plus a summary report.

    Indices refer to ``chain``, the reduced chain: it holds the rows
    resolved so far and the replacement rows of cycle removal
    (``chain.overrides``); rows of all other states come from the model
    unchanged.  s is index 0, and g and t are the chain's negative ids.
    Sampling and the oracle keep growing the chain; ``states_discovered``
    counts the states the forward phase indexed (``len(chain)`` after it,
    as the state budget counts them), which the backward phase does not
    add to.
    """

    chain: Chain
    d_forward: dict[int, Order]
    lambda_indices: frozenset[int]
    gamma_indices: frozenset[int]
    d_backward: dict[int, Order]
    v_delta: dict[int, float]
    #: row positions of the dominant edges of every state with a finite
    #: d(., g); a frontier state's target beyond Lambda + Gamma reads as g
    dominant_edges: dict[int, list[int]]
    hpc_count: int
    states_discovered: int
    wall_time_ms: float

    @property
    def d_sg(self) -> Order:
        return self.d_forward[self.chain.goal_index]

    @property
    def p_delta(self) -> float:
        """Probability of the dominant paths, v(s)."""
        return self.v_delta.get(self.chain.s_index, 0.0)

    @property
    def lambda_size(self) -> int:
        """Number of distinct states in Lambda.

        When the initial state doubles as the regeneration state, s and the
        merged taboo node share one descriptor and are counted once.
        """
        n, chain = len(self.lambda_indices), self.chain
        taboo = chain.taboo_index
        if chain.s_target == taboo and taboo in self.lambda_indices:
            n -= 1
        return n

    @property
    def gamma_size(self) -> int:
        return len(self.gamma_indices)

    def report(self) -> dict[str, object]:
        return {
            "lambda_size": self.lambda_size,
            "gamma_size": self.gamma_size,
            "d_sg": self.d_sg,
            "p_delta": self.p_delta,
            "hpc_count": self.hpc_count,
            "states_discovered": self.states_discovered,
            "wall_time_ms": round(self.wall_time_ms, 3),
        }


def preprocess(
    model: MarkovModel, state_budget: int = DEFAULT_STATE_BUDGET
) -> PreprocessResult:
    """Run both phases and package the result for sampling.

    ``state_budget`` bounds the states the forward phase may index; the
    frontier rows, sampling and the oracle grow the chain without bound.
    """
    t0 = time.perf_counter()
    chain = Chain(model, state_budget)
    if chain.s_target == chain.goal_index:
        raise ModelError("initial state must not be a goal state")
    d_forward, lambda_set, hpc_count = forward_phase(chain)
    states_discovered = len(chain)
    chain.state_budget = None
    return PreprocessResult(
        chain, d_forward, lambda_set, *backward_phase(chain, lambda_set),
        hpc_count, states_discovered, (time.perf_counter() - t0) * 1000.0,
    )
