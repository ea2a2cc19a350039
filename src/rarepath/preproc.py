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
  (never expanded or indexed), so every state that can reach g keeps a positive value
  and paths leaving Lambda are never starved of sampling mass.

Every phase visits states in an order fixed by their discovery indices
and row positions, so results are deterministic.
"""

from __future__ import annotations

import heapq
import time
from array import array
from functools import reduce
from operator import add

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve
from dataclasses import dataclass
from typing import Mapping

from rarepath.errors import ConvergenceError, GoalUnreachableError, ModelError
from rarepath.model import Chain, MarkovModel, Row
from rarepath.orders import INFINITY, Order

DEFAULT_STATE_BUDGET = 1_000_000


def solve_exit_distribution(
    rows: Mapping[int, Row], members: list[int], exits: list[int]
) -> dict[int, dict[int, float]]:
    """Eventual exit probabilities of an order-0 cycle.

    ``rows`` holds every member's row; a target that is a member is
    internal, any other must be one of ``exits``.  For every cycle member
    x and exit state z, solves the absorbing system

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
        targets, probs, _orders = rows[x]
        for z, p in zip(targets, probs):
            j = pos.get(z)
            if j is not None:
                a[i, j] -= p
            else:
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
        targets, _probs, orders = chain.row(x)
        for z, r in zip(targets, orders):
            if r == 0 and z not in closure:
                closure.add(z)
                stack.append(z)
    # backward order-0 closure within the forward closure
    rev: dict[int, list[int]] = {x: [] for x in closure}
    for x in closure:
        if chain.is_terminal(x):
            continue
        targets, _probs, orders = chain.row(x)
        for z, r in zip(targets, orders):
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
        targets, _probs, orders = chain.row(trigger)
        if (trigger, 0) not in zip(targets, orders):
            return None
    rows = {x: chain.row(x) for x in members}
    exit_order: dict[int, int] = {}
    for targets, _probs, orders in rows.values():
        for z, r in zip(targets, orders):
            if z not in members_set and r < exit_order.get(z, INFINITY):
                exit_order[z] = r
    if not exit_order:
        raise ModelError("order-0 cycle with no exit transitions")
    exits = sorted(exit_order)
    base = min(exit_order.values())
    mu = solve_exit_distribution(rows, members, exits)
    for x in members:
        kept = [z for z in exits if mu[x][z] > 0.0]
        chain.set_override(x, (
            kept,
            array("d", [mu[x][z] for z in kept]),
            tuple(exit_order[z] - base for z in kept),
        ))
    return members


def forward_phase(chain: Chain) -> tuple[dict[int, Order], frozenset[int], int]:
    """Explore the chain from s in order of increasing rarity order.

    Returns shortest-order distances d(s, x), the relevant set Lambda and
    the number of order-0 cycles removed.
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
            targets, _probs, orders = chain.row(x)
            for z, r in zip(targets, orders):
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
    return d, lambda_set, hpc_count


def backward_phase(chain: Chain, lambda_set: frozenset[int]) -> tuple:
    """Distance-to-goal and dominant-path probability over Lambda + Gamma.

    Returns Gamma, d(., g), v, the processing order and the dominant
    edges, in the order of the fields of ``PreprocessResult``.

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
    them from g: a state follows once its last dominant successor is done
    (``processing_order``).  Cycle removal left no order-0 cycle inside
    Lambda, but frontier states may still form one; the pass never reaches
    the states caught in or behind such a cycle, whose values solve the
    linear system above in one call.  States that cannot reach g come
    last, with v = 0.
    """
    goal = chain.goal_index
    taboo = chain.taboo_index
    rows: dict[int, Row] = {}
    gamma: set[int] = set()
    for x in sorted(lambda_set):
        if chain.is_terminal(x):
            continue
        rows[x] = row = chain.row(x)
        for z in row[0]:
            if z not in lambda_set and not chain.is_terminal(z):
                gamma.add(z)
    inner = lambda_set | gamma
    for g_state in sorted(gamma):
        rows[g_state] = chain.folded_row(g_state, inner)
    nodes = set(inner)
    nodes.add(goal)
    preds: dict[int, list[tuple[int, Order]]] = {x: [] for x in nodes}
    preds[taboo] = []
    for x, (targets, _probs, orders) in rows.items():
        for z, r in zip(targets, orders):
            preds[z].append((x, r))

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
        for z, r in preds[x]:
            nd = r + dx
            if nd < db[z]:
                db[z] = nd
                heapq.heappush(heap, (nd, z))

    # each state's dominant edges, and per target the states waiting on it
    dominant: dict[int, list[int]] = {}
    waiting: dict[int, list[int]] = {}
    pending: dict[int, int] = {}  # dominant edges into states not done yet
    for x, (targets, _probs, orders) in rows.items():
        dx = db[x]
        if dx == INFINITY:
            continue
        dominant[x] = edges = [
            i for i, (z, r) in enumerate(zip(targets, orders)) if r + db[z] == dx
        ]
        later = [targets[i] for i in edges if targets[i] != goal]  # g is done first
        pending[x] = len(later)
        for z in later:
            waiting.setdefault(z, []).append(x)
    v: dict[int, float] = {goal: 1.0, taboo: 0.0}
    done = [x for x, n in pending.items() if not n]
    for x in done:
        targets, probs, _orders = rows[x]
        v[x] = reduce(add, [probs[i] * v[targets[i]] for i in dominant[x]], 0.0)
        for y in waiting.get(x, ()):
            pending[y] -= 1
            if not pending[y]:
                done.append(y)
    rest = [x for x in dominant if x not in v]
    if rest:
        v.update(_solve_cyclic_values(rest, rows, dominant, v))
    unreachable = sorted(x for x in nodes if db[x] == INFINITY)
    v.update(dict.fromkeys(unreachable, 0.0))
    order = (goal, *done, *rest, *unreachable)
    return frozenset(gamma), db, v, order, dominant


def _solve_cyclic_values(
    rest, rows, dominant, known: Mapping[int, float]
) -> dict[int, float]:
    """Dominant-path mass of states in or behind order-0 cycles.

    Solves (I - P) v = b over ``rest``, where P holds the dominant edges
    (``dominant`` positions in ``rows``) among ``rest`` and b
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
        targets, probs, _orders = rows[x]
        for k in dominant[x]:
            z, p = targets[k], probs[k]
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

    Indices refer to ``chain``, the reduced chain: it holds the rows
    resolved so far, the replacement rows of cycle removal
    (``chain.overrides``) and the indices of s, g and t; rows of all
    other states come from the model unchanged.  Sampling and the oracle
    keep growing the chain; ``states_discovered`` counts the states the
    forward phase indexed, which the backward phase does not add to.
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
        if chain.initial_is_taboo and chain.taboo_index in self.lambda_indices:
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
    d_forward, lambda_set, hpc_count = forward_phase(chain)
    states_discovered = len(chain)
    chain.state_budget = None
    return PreprocessResult(
        chain, d_forward, lambda_set, *backward_phase(chain, lambda_set),
        hpc_count, states_discovered, (time.perf_counter() - t0) * 1000.0,
    )
