"""Shared oracles and helpers.

The oracles here deliberately avoid the production code paths they are
used to check: hitting probabilities come from a dense linear solve over
an explicitly enumerated chain, distances from Bellman-Ford over the same
enumeration, and dominant-path probabilities from direct enumeration with
an order budget.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from functools import lru_cache

import numpy as np
import pytest

from rarepath.exact import exact_hitting_probability
from rarepath.model import MarkovModel, embedded_row
from rarepath.preproc import PreprocessResult
from rarepath.zoo import make_dds


class Terminal(enum.Enum):
    """Descriptors for the merged goal and taboo nodes, which the chain
    names only by negative ids."""

    GOAL = "goal"
    TABOO = "taboo"


GOAL, TABOO = Terminal.GOAL, Terminal.TABOO


def merged_row(model: MarkovModel, state):
    """One state's (target, p, r) triples, goal and taboo targets merged
    into the GOAL and TABOO sentinels."""
    targets, probs, orders = embedded_row(model, state)
    return [
        (GOAL if model.is_goal(t) else TABOO if model.is_taboo(t) else t, p, r)
        for t, p, r in zip(targets, probs, orders)
    ]


def enumerate_chain(
    model: MarkovModel,
    result: PreprocessResult | None = None,
    mode: str = "reduced",
    seeds=None,
    limit: int | None = None,
):
    """Breadth-first enumeration of the chain in descriptor space.

    Returns a dict mapping each non-terminal descriptor to a list of
    (target, p, r) with GOAL/TABOO sentinels for terminal jumps.  With a
    preprocessing result, mode "reduced" uses the replacement rows from
    cycle removal; mode "union" keeps a removed cycle member's original
    row alongside its replacement, which models how the forward search
    sees the chain (members are entered through their original order-0
    edges even after their own rows have been replaced).
    """
    overrides: dict = {}
    if result is not None:
        for idx, row in result.chain.overrides.items():
            desc_row = []
            for z, p, r in zip(*row):
                if z == result.chain.goal_index:
                    desc_row.append((GOAL, p, r))
                elif z == result.chain.taboo_index:
                    desc_row.append((TABOO, p, r))
                else:
                    desc_row.append((result.chain.state(z), p, r))
            overrides[result.chain.state(idx)] = desc_row

    rows: dict = {}
    start = list(seeds) if seeds is not None else [model.initial_state]
    queue = deque(start)
    seen = set(start)
    while queue:
        if limit is not None and len(rows) >= limit:
            break
        x = queue.popleft()
        row = overrides.get(x)
        if row is None:
            row = merged_row(model, x)
        elif mode == "union":
            row = row + merged_row(model, x)
        rows[x] = row
        for z, _p, _r in row:
            if z in (GOAL, TABOO) or z in seen:
                continue
            seen.add(z)
            queue.append(z)
    return rows


def dense_hitting_probability(model: MarkovModel, result=None):
    """Goal-before-taboo probability per state via a dense linear solve.

    States with no path to g read exactly 0, as in the oracle, and stay
    out of the solve, which would give them round-off instead.
    """
    rows = enumerate_chain(model, result)
    entering: dict = {x: [] for x in rows}
    entering[GOAL] = []
    for x, row in rows.items():
        for z, _p, _r in row:
            if z is not TABOO:
                entering[z].append(x)
    nodes, stack = [], [GOAL]  # the states with a path to g
    seen = {GOAL}
    while stack:
        for x in entering[stack.pop()]:
            if x not in seen:
                seen.add(x)
                nodes.append(x)
                stack.append(x)
    pos = {x: i for i, x in enumerate(nodes)}
    a = np.eye(len(nodes))
    b = np.zeros(len(nodes))
    for x in nodes:
        i = pos[x]
        for z, p, _r in rows[x]:
            if z is GOAL:
                b[i] += p
            elif z in pos:
                a[i, pos[z]] -= p
    sol = np.linalg.solve(a, b)
    return {x: float(sol[pos[x]]) if x in pos else 0.0 for x in rows}


def bellman_ford_distance(model: MarkovModel, result=None):
    """Order distance d(s, x) for every reachable state, plus d(s, GOAL).

    Iterates edge relaxations to a fixed point; independent of the heap
    discipline used by the production forward phase.  Uses the union view
    of cycle-removal overrides (see ``enumerate_chain``).
    """
    rows = enumerate_chain(model, result, mode="union")
    dist: dict = {model.initial_state: 0}
    dist_goal = math.inf
    changed = True
    while changed:
        changed = False
        for x, row in rows.items():
            dx = dist.get(x)
            if dx is None:
                continue
            for z, _p, r in row:
                nd = dx + r
                if z is GOAL:
                    if nd < dist_goal:
                        dist_goal = nd
                        changed = True
                elif z is TABOO:
                    continue
                elif nd < dist.get(z, math.inf):
                    dist[z] = nd
                    changed = True
    return dist, dist_goal


def brute_force_dominant_mass(model: MarkovModel, result: PreprocessResult):
    """Independent recomputation of the dominant-path probabilities.

    The frontier rule is rebuilt from this module's own enumeration:
    Lambda = {x : d(s, x) <= d(s, g)} with Bellman-Ford distances, Gamma
    the non-terminal successors of Lambda outside it, and every
    non-terminal successor of Gamma outside Lambda + Gamma a shortcut to
    the goal (probability 1, order 0).  With those shortcuts, W(x, b) is
    the total probability of paths from x to the goal whose summed order
    is exactly b.  The reference value for a state x of Lambda + Gamma is
    then W(x, db(x)) with db the production backward distance (pinned by
    hand-traced tests), so this exercises only the path-mass computation.

    The recursion terminates because order-0 edges form a DAG once cycles
    have been removed and b decreases on every positive-order edge.
    """
    dist, dist_goal = bellman_ford_distance(model, result)
    lam = {x for x, dx in dist.items() if dx <= dist_goal}
    rows = enumerate_chain(model, result, seeds=lam)

    def successors(states):
        return {
            z
            for x in states
            for z, _p, _r in rows[x]
            if z is not GOAL and z is not TABOO
        }

    gamma = successors(lam) - lam
    beyond = successors(gamma) - lam - gamma

    @lru_cache(maxsize=None)
    def mass(x, budget):
        if budget < 0:
            return 0.0
        if x is GOAL or x in beyond:
            return 1.0 if budget == 0 else 0.0
        if x is TABOO:
            return 0.0
        total = 0.0
        for z, p, r in rows[x]:
            if r <= budget:
                total += p * mass(z, budget - r)
        return total

    out = {}
    for x in lam | gamma:
        idx = result.chain.lookup(x)
        db = result.d_backward[idx]
        if math.isfinite(db):
            out[idx] = mass(x, db)
    mass.cache_clear()
    return out


def goal_states_counted_singly(model: MarkovModel, result: PreprocessResult):
    """(|Lambda|, |Gamma|) with every goal state counted as a state of its own.

    The goal targets of Lambda's rows are read from the chain's classified
    targets (the positions that read g), their descriptors from the
    model's row.  A goal state reached from x in Lambda by an edge of
    order r with d(s, x) + r <= d(s, g) lies in Lambda; any other lies in
    Gamma.  These are added to ``lambda_size``, which counts the merged g
    once (and s and t once when they share a descriptor), and to
    ``gamma_size``.
    """
    chain, d = result.chain, result.d_forward
    in_lambda, in_gamma = set(), set()
    for x in result.lambda_indices:
        if x < 0:
            continue
        targets, _probs, orders = chain.row(x)
        states = model.successors(chain.state(x))[0]
        for z, r, t in zip(targets, orders, states):
            if z == chain.goal_index:
                (in_lambda if d[x] + r <= result.d_sg else in_gamma).add(t)
    in_gamma -= in_lambda
    return result.lambda_size + len(in_lambda), result.gamma_size + len(in_gamma)


@pytest.fixture(scope="session")
def dds_oracle():
    """pi(s) of ``make_dds(strategy, epsilon)`` from the production oracle.

    Not an independent oracle: it caches ``exact_hitting_probability`` per
    (strategy, epsilon), because solving DDS dedicated takes seconds and
    several tests read the same values.
    """
    cache: dict[tuple[str, float], float] = {}

    def solve(strategy: str, epsilon: float) -> float:
        key = (strategy, epsilon)
        if key not in cache:
            cache[key], _ = exact_hitting_probability(make_dds(strategy, epsilon))
        return cache[key]

    return solve


#: one human-readable verdict line per acceptance criterion, echoed at the
#: end of the run (see test_acceptance.py)
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
