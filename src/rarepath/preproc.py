"""Graph-based preprocessing for the importance-sampling measure.

Three phases over the implicitly defined chain:

* forward phase: Dijkstra-like search over rarity orders from the initial
  state s; yields d(s, x) and the relevant set Lambda = {x : d(s,x) <=
  d(s,g)}.  Whenever an order-0 cycle (a "high-probability cycle", HPC) is
  found inside Lambda, it is removed by redistributing each member's
  outgoing probability over the cycle's exit states, which preserves all
  hitting probabilities while eliminating zero-order cycles.
* backward phase: computes d(x, g) and v(x), the total probability of the
  dominant (minimal-order) paths from x to g, over Lambda plus its direct
  frontier Gamma.  Frontier states are resolved with their own rows;
  only the states one step beyond Lambda + Gamma are treated as reaching g
  (never expanded), so every state that can reach g keeps a positive value
  and paths leaving Lambda are never starved of sampling mass.

Every phase visits states in an order fixed by their discovery indices
and row positions, so results are deterministic.
"""

from __future__ import annotations

import heapq
import time
from functools import reduce
from operator import add

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve
from dataclasses import dataclass
from typing import Mapping

from rarepath.errors import ConvergenceError, GoalUnreachableError, ModelError
from rarepath.model import Chain, MarkovModel, StateIndexer
from rarepath.orders import INFINITY, Order

DEFAULT_STATE_BUDGET = 1_000_000

#: a resolved transition: (target index, probability, order)
Edge = tuple[int, float, int]


@dataclass
class ForwardResult:
    d_forward: dict[int, Order]
    lambda_set: frozenset[int]
    hpc_count: int


def solve_exit_distribution(
    internal: Mapping[int, list[tuple[int, float]]],
    direct: Mapping[int, list[tuple[int, float]]],
    members: list[int],
    exits: list[int],
) -> dict[int, dict[int, float]]:
    """Eventual exit probabilities of an order-0 cycle.

    For every cycle member x and exit state z, solves the absorbing system

        mu[x][z] = p(x, z) + sum over members x2 of p(x, x2) * mu[x2][z]

    directly as (I - P_internal) M = D.  A fixed-point iteration would need
    on the order of 1/p_exit sweeps when the exit probabilities are tiny,
    so the dense solve is the only numerically safe option.  Hitting
    probabilities of the surrounding chain are unchanged when each member's
    row is replaced by its exit distribution.
    """
    pos = {x: i for i, x in enumerate(members)}
    n, k = len(members), len(exits)
    a = np.eye(n)
    d = np.zeros((n, k))
    exit_pos = {z: j for j, z in enumerate(exits)}
    for x in members:
        i = pos[x]
        for x2, p in internal[x]:
            a[i, pos[x2]] -= p
        for z, p in direct[x]:
            d[i, exit_pos[z]] += p
    try:
        m = np.linalg.solve(a, d)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"exit-distribution solve failed: {exc}") from None
    mu = {x: {z: float(m[pos[x], exit_pos[z]]) for z in exits} for x in members}
    for x in members:
        total = reduce(add, mu[x].values(), 0.0)
        # the system gets ill-conditioned as the exit mass shrinks (cond
        # ~ 1/p_exit), so allow a commensurate residual and renormalize
        if abs(total - 1.0) > 1e-6:
            raise ConvergenceError(
                f"exit probabilities of cycle member sum to {total}, not 1"
            )
        mu[x] = {z: p / total for z, p in mu[x].items()}
    return mu


def loop_detect(chain: Chain, trigger: int) -> list[int] | None:
    """Find and remove the order-0 cycle through ``trigger``, if any.

    Computes the order-0 strongly connected component L containing the
    trigger (forward closure intersected with backward closure), solves the
    exit distribution, and overrides every member's row with its exits.
    Replacement orders are the cheapest exit order reachable from the
    component, shifted so the most likely exit has order 0.  Returns the
    sorted member list, or None for a benign trigger (no actual cycle).
    """
    # forward order-0 closure
    closure = {trigger}
    stack = [trigger]
    while stack:
        x = stack.pop()
        if chain.is_terminal(x):
            continue
        for z, _p, r in chain.edges(x):
            if r == 0 and z not in closure:
                closure.add(z)
                stack.append(z)
    # backward order-0 closure within the forward closure
    rev: dict[int, list[int]] = {x: [] for x in closure}
    for x in closure:
        if chain.is_terminal(x):
            continue
        for z, _p, r in chain.edges(x):
            if r == 0 and z in closure:
                rev[z].append(x)
    members_set = {trigger}
    stack = [trigger]
    while stack:
        x = stack.pop()
        for z in rev[x]:
            if z not in members_set:
                members_set.add(z)
                stack.append(z)
    members = sorted(members_set)
    if len(members) == 1:
        has_self_loop = any(
            z == trigger and r == 0 for z, _p, r in chain.edges(trigger)
        )
        if not has_self_loop:
            return None
    internal: dict[int, list[tuple[int, float]]] = {}
    direct: dict[int, list[tuple[int, float]]] = {}
    exit_order: dict[int, int] = {}
    for x in members:
        internal[x] = []
        direct[x] = []
        for z, p, r in chain.edges(x):
            if z in members_set:
                internal[x].append((z, p))
            else:
                direct[x].append((z, p))
                prev = exit_order.get(z)
                if prev is None or r < prev:
                    exit_order[z] = r
    if not exit_order:
        raise ModelError("order-0 cycle with no exit transitions")
    exits = sorted(exit_order)
    base = min(exit_order.values())
    mu = solve_exit_distribution(internal, direct, members, exits)
    for x in members:
        chain.set_override(
            x, ((z, mu[x][z], exit_order[z] - base) for z in exits if mu[x][z] > 0.0)
        )
    return members


def forward_phase(chain: Chain) -> ForwardResult:
    """Explore the chain from s in order of increasing rarity order.

    Returns shortest-order distances d(s, x) and the relevant set Lambda.
    Exploration stops once every state at distance <= d(s, g) has been
    expanded; cycle removal may lower already-settled distances, in which
    case the affected states are re-queued.
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
        if chain.is_terminal(x):
            continue
        expand = True
        while expand:
            expand = False
            for z, _p, r in chain.edges(x):
                nd = du + r
                if nd < d.get(z, INFINITY):
                    d[z] = nd
                    settled.discard(z)
                    heapq.heappush(heap, (nd, z))
                if (
                    r == 0
                    and z in settled
                    and not chain.is_terminal(z)
                    and d.get(z) == du
                    and z not in benign
                ):
                    members = loop_detect(chain, z)
                    if members is None:
                        benign.add(z)
                        continue
                    hpc_count += 1
                    benign.clear()
                    for m in members:
                        if m in settled:
                            settled.discard(m)
                            heapq.heappush(heap, (d[m], m))
                    if x in members:
                        # x's own row was replaced; it was re-queued above
                        expand = False
                        break
                    # other rows changed but x's is intact: rescan x
                    expand = True
                    break
    if goal not in d:
        raise GoalUnreachableError("goal is unreachable from the initial state")
    d_goal = d[goal]
    lambda_set = frozenset(x for x in settled if d[x] <= d_goal)
    return ForwardResult(d, lambda_set, hpc_count)


@dataclass
class BackwardResult:
    gamma_set: frozenset[int]
    d_backward: dict[int, Order]
    v_delta: dict[int, float]
    processing_order: tuple[int, ...]
    dominant_edges: dict[int, list[int]]


def backward_phase(chain: Chain, lambda_set: frozenset[int]) -> BackwardResult:
    """Distance-to-goal and dominant-path probability over Lambda + Gamma.

    Gamma is the frontier: non-terminal states directly reachable from
    Lambda that lie outside it.  Frontier states keep their own rows; only
    their targets beyond Lambda + Gamma are folded into g, each as an edge
    of the same probability and order (the shortcut sits one step past the
    frontier).  Hence d(x, g) is a lower bound on the true distance, exact
    on the dominant paths from s, which never leave Lambda.  For every node,

        v(x) = sum of p(x, z) * v(z) over successors z
               with order(x, z) + d(z, g) = d(x, g).

    Each state's dominant edges are kept as row positions
    (``dominant_edges``), and v is evaluated in one topological pass over
    them from g: a state follows once its last dominant successor is done
    (``processing_order``).  Cycle removal left no order-0 cycle inside
    Lambda, but frontier states may still form one; the pass never reaches
    the states caught in or behind such a cycle, whose values solve the
    linear system above in one call.  States that cannot reach g come
    last, with v = 0.
    """
    goal = chain.goal_index
    taboo = chain.taboo_index
    out_edges: dict[int, tuple[Edge, ...]] = {}
    gamma: set[int] = set()
    for x in sorted(lambda_set):
        if chain.is_terminal(x):
            continue
        row = tuple(chain.edges(x))
        out_edges[x] = row
        for z, _p, _r in row:
            if z not in lambda_set and not chain.is_terminal(z):
                gamma.add(z)
    inner = lambda_set | gamma
    for g_state in sorted(gamma):
        out_edges[g_state] = chain.folded_edges(g_state, inner)
    nodes = set(inner)
    nodes.add(goal)
    preds: dict[int, list[Edge]] = {x: [] for x in nodes}
    preds[taboo] = []
    for x, row in out_edges.items():
        for z, p, r in row:
            preds[z].append((x, p, r))

    # distances to goal (reverse Dijkstra over orders)
    db: dict[int, Order] = {x: INFINITY for x in nodes}
    db[taboo] = INFINITY
    db[goal] = 0
    heap: list[tuple[Order, int]] = [(0, goal)]
    done: set[int] = set()
    while heap:
        dx, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for z, _p, r in preds[x]:
            nd = r + dx
            if nd < db[z]:
                db[z] = nd
                heapq.heappush(heap, (nd, z))

    # each state's dominant edges, and per target the states waiting on it
    dominant: dict[int, list[int]] = {}
    waiting: dict[int, list[int]] = {}
    pending: dict[int, int] = {}  # dominant edges into states not done yet
    for x, row in out_edges.items():
        dx = db[x]
        if dx == INFINITY:
            continue
        dominant[x] = edges = [i for i, (z, _p, r) in enumerate(row) if r + db[z] == dx]
        later = [row[i][0] for i in edges if row[i][0] != goal]  # g is done first
        pending[x] = len(later)
        for z in later:
            waiting.setdefault(z, []).append(x)
    v: dict[int, float] = {goal: 1.0, taboo: 0.0}
    done = [x for x, n in pending.items() if not n]
    for x in done:
        row = out_edges[x]
        v[x] = reduce(add, [row[i][1] * v[row[i][0]] for i in dominant[x]], 0.0)
        for y in waiting.get(x, ()):
            pending[y] -= 1
            if not pending[y]:
                done.append(y)
    rest = [x for x in dominant if x not in v]
    if rest:
        v.update(_solve_cyclic_values(rest, out_edges, dominant, v))
    unreachable = sorted(x for x in nodes if db[x] == INFINITY)
    v.update(dict.fromkeys(unreachable, 0.0))
    order = (goal, *done, *rest, *unreachable)
    return BackwardResult(frozenset(gamma), db, v, order, dominant)


def _solve_cyclic_values(
    rest, out_edges, dominant, known: Mapping[int, float]
) -> dict[int, float]:
    """Dominant-path mass of states in or behind order-0 cycles.

    Solves (I - P) v = b over ``rest``, where P holds the dominant edges
    (``dominant`` positions in ``out_edges``) among ``rest`` and b
    collects the dominant edges into states whose values are ``known``.
    Every such state has a dominant path out of ``rest``, so I - P is
    non-singular.
    """
    pos = {x: i for i, x in enumerate(rest)}
    n = len(rest)
    b = np.zeros(n)
    data, ri, ci = [1.0] * n, list(range(n)), list(range(n))
    for x in rest:
        i = pos[x]
        for k in dominant[x]:
            z, p, _r = out_edges[x][k]
            j = pos.get(z)
            if j is None:
                b[i] += p * known[z]
            else:
                data.append(-p)
                ri.append(i)
                ci.append(j)
    sol = np.atleast_1d(spsolve(csr_matrix((data, (ri, ci)), shape=(n, n)), b))
    if not np.all(np.isfinite(sol)):
        raise ConvergenceError("dominant-path values of an order-0 cycle diverge")
    return {x: float(sol[pos[x]]) for x in rest}


@dataclass
class PreprocessResult:
    """Everything the sampler needs, plus a summary report.

    Indices refer to ``chain``, which holds the rows resolved so far and
    the replacement rows produced by cycle removal (``overrides``); rows
    of all other states come from the model unchanged.  Sampling and the
    oracle keep growing the chain; ``states_discovered`` counts the states
    the forward phase indexed.
    """

    chain: Chain
    d_forward: dict[int, Order]
    lambda_indices: frozenset[int]
    gamma_indices: frozenset[int]
    d_backward: dict[int, Order]
    v_delta: dict[int, float]
    processing_order: tuple[int, ...]
    #: row positions of the dominant edges of every state with a finite
    #: d(., g); a frontier state's target beyond Lambda + Gamma reads as g
    dominant_edges: dict[int, list[int]]
    hpc_count: int
    states_discovered: int
    wall_time_ms: float

    @property
    def indexer(self) -> StateIndexer:
        return self.chain.indexer

    @property
    def s_index(self) -> int:
        return self.chain.s_index

    @property
    def goal_index(self) -> int:
        return self.chain.goal_index

    @property
    def taboo_index(self) -> int:
        return self.chain.taboo_index

    @property
    def overrides(self) -> dict[int, tuple[Edge, ...]]:
        return self.chain.overrides

    @property
    def initial_is_taboo(self) -> bool:
        return self.chain.initial_is_taboo

    @property
    def d_sg(self) -> Order:
        return self.d_forward[self.goal_index]

    @property
    def p_delta(self) -> float:
        """Probability of the dominant paths, v(s)."""
        return self.v_delta.get(self.s_index, 0.0)

    @property
    def lambda_size(self) -> int:
        """Number of distinct states in Lambda.

        When the initial state doubles as the regeneration state, s and the
        merged taboo node share one descriptor and are counted once.
        """
        n = len(self.lambda_indices)
        if self.initial_is_taboo and self.taboo_index in self.lambda_indices:
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
    if chain.initial_is_goal:
        raise ModelError("initial state must not be a goal state")
    fwd = forward_phase(chain)
    states_discovered = len(chain)
    chain.state_budget = None
    bwd = backward_phase(chain, fwd.lambda_set)
    return PreprocessResult(
        chain=chain,
        d_forward=fwd.d_forward,
        lambda_indices=fwd.lambda_set,
        gamma_indices=bwd.gamma_set,
        d_backward=bwd.d_backward,
        v_delta=bwd.v_delta,
        processing_order=bwd.processing_order,
        dominant_edges=bwd.dominant_edges,
        hpc_count=fwd.hpc_count,
        states_discovered=states_discovered,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
    )
