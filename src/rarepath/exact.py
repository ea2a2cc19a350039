"""Exact hitting probabilities by numerical linear solve.

Enumerates the reachable merged state space and solves

    pi(x) = sum over successors z of p(x, z) * pi(z),  pi(g) = 1, pi(t) = 0

with Gauss-Seidel iteration; each sweep is one sparse lower-triangular
solve, so large spaces stay fast.  Serves as the reference oracle that the
simulation estimators are validated against.  Unlike the estimators it
needs the whole space, so it keeps none of it as rows: each row is read
once into two flat arrays, from which numpy assembles the matrix.
"""

from __future__ import annotations

from array import array
from typing import Any

import numpy as np
from scipy.sparse import csr_matrix, tril, triu
from scipy.sparse.linalg import spsolve_triangular

from rarepath.errors import ConvergenceError, StateBudgetExceeded
from rarepath.model import Chain, MarkovModel
from rarepath.preproc import PreprocessResult

DEFAULT_STATE_CAP = 2_000_000
#: componentwise relative tolerance of the Gauss-Seidel stop rule
TOL = 1e-12
#: sweeps before the solve gives up
MAX_SWEEPS = 200_000


def exact_hitting_probability(
    model: MarkovModel,
    result: PreprocessResult | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, dict[Any, float]]:
    """Probability of reaching the goal before the taboo state.

    Returns (pi(s), pi for every non-terminal state of the chain).  States
    are enumerated through a ``Chain``: the model's own, or the
    preprocessing result's to solve over the reduced chain instead
    (indexing every state in that chain, but storing none of its rows);
    cycle removal must leave hitting probabilities unchanged, which the
    test suite checks against this oracle.

    Matrix row i is chain index i: the indices are walked upward while
    ``chain.take`` reads row i once, indexing the states it discovers
    (breadth-first from s on the model's own chain).  Goal mass goes to
    b and self-loops to the diagonal; the other entries keep their row
    order, duplicates summed.  g and t, and any state whose row only loops
    on itself, get identity rows with b = 0; g and t are left out of the
    returned map.

    The sweeps stop once, in every component i, the step is small relative
    to the solution, |x_new - x|_i <= TOL * |x|_i (components at zero stay
    there), and so is the residual, |A x - b|_i <= TOL * (|b| + |A| |x|)_i.
    Each probability is thus resolved to the same relative accuracy,
    however far it lies below the largest one.  After MAX_SWEEPS sweeps
    the solve gives up with ConvergenceError.
    """
    chain = result.chain if result is not None else Chain(model)
    goal, taboo = chain.goal_index, chain.taboo_index
    # one pass over the rows, each read once into flat typed arrays
    targets, probs, sizes = array("i"), array("d"), array("i")
    empty = (), (), ()
    i = 0
    while i < len(chain):
        row_targets, row_probs, _orders = empty if chain.is_terminal(i) else chain.take(i)
        if len(chain) - 2 > state_cap:  # g and t take two indices
            raise StateBudgetExceeded(f"more than {state_cap} reachable states")
        targets.extend(row_targets)
        probs.extend(row_probs)
        sizes.append(len(row_targets))
        i += 1

    n = len(chain)
    z, p = np.frombuffer(targets, np.intc), np.frombuffer(probs)
    sizes = np.frombuffer(sizes, np.intc)
    r = np.repeat(np.arange(n, dtype=np.intc), sizes)
    hit = z == goal
    b = np.bincount(r[hit], p[hit], minlength=n)
    loop = z == r
    diag = np.ones(n)
    np.subtract.at(diag, r[loop], p[loop])
    # a state that only loops on itself never reaches g: identity, b = 0
    diag[np.bincount(r[loop], minlength=n) == sizes] = 1.0
    keep = ~(hit | loop | (z == taboo))
    # each row's entries in row order, its diagonal last
    ends = np.cumsum(np.bincount(r[keep], minlength=n))
    at = np.arange(n, dtype=np.intc)
    rows, cols = np.insert(r[keep], ends, at), np.insert(z[keep], ends, at)
    a = csr_matrix((np.insert(-p[keep], ends, diag), (rows, cols)), shape=(n, n))
    del targets, probs, z, p, sizes, r, hit, loop, keep, rows, cols
    lower = tril(a, k=0, format="csr")
    upper = triu(a, k=1, format="csr")

    x = np.zeros(n)
    abs_a = abs(a)
    for _ in range(MAX_SWEEPS):
        rhs = b - upper.dot(x)
        x_new = spsolve_triangular(lower, rhs, lower=True)
        step = np.abs(x_new - x)
        x = x_new
        scale = np.abs(x)
        if np.all(step <= TOL * scale) and np.all(
            np.abs(a.dot(x) - b) <= TOL * (np.abs(b) + abs_a.dot(scale))
        ):
            break
    else:
        raise ConvergenceError("hitting-probability solve did not converge")
    state = chain.indexer.state
    pi = {state(i): float(x[i]) for i in range(n) if i != goal and i != taboo}
    return float(x[chain.s_index]), pi
