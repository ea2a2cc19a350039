"""Exact hitting probabilities by numerical linear solve.

Enumerates the reachable merged state space and solves

    pi(x) = sum over successors z of p(x, z) * pi(z),  pi(g) = 1, pi(t) = 0

with Gauss-Seidel iteration; each sweep is one sparse lower-triangular
solve, so large spaces stay fast.  Serves as the reference oracle that the
simulation estimators are validated against.
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
    (growing that chain); cycle removal must leave hitting probabilities
    unchanged, which the test suite checks against this oracle.

    Matrix row i is chain index i: the indices are walked upward while
    ``chain.row`` appends the states each row discovers (breadth-first
    from s on the model's own chain); g and t keep identity rows with
    b = 0 and are left out of the returned map.

    The sweeps stop once, in every component i, the step is small relative
    to the solution, |x_new - x|_i <= TOL * |x|_i (components at zero stay
    there), and so is the residual, |A x - b|_i <= TOL * (|b| + |A| |x|)_i.
    Each probability is thus resolved to the same relative accuracy,
    however far it lies below the largest one.  After MAX_SWEEPS sweeps
    the solve gives up with ConvergenceError.
    """
    chain = result.chain if result is not None else Chain(model)
    goal, taboo = chain.goal_index, chain.taboo_index
    # typed arrays hold the entries without a Python object each
    b, data, ri, ci = array("d"), array("d"), array("q"), array("q")
    i = 0
    while i < len(chain):
        diag = 1.0
        bi = 0.0
        if i != goal and i != taboo:
            targets, probs, _orders = chain.row(i)
            if len(chain) - 2 > state_cap:  # g and t take two indices
                raise StateBudgetExceeded(f"more than {state_cap} reachable states")
            for z, p in zip(targets, probs):
                if z == goal:
                    bi += p
                elif z == taboo:
                    continue
                elif z == i:
                    diag -= p
                else:
                    data.append(-p)
                    ri.append(i)
                    ci.append(z)
        data.append(diag)
        ri.append(i)
        ci.append(i)
        b.append(bi)
        i += 1

    n = len(chain)
    b = np.frombuffer(b)
    rows, cols = np.frombuffer(ri, np.int64), np.frombuffer(ci, np.int64)
    a = csr_matrix((np.frombuffer(data), (rows, cols)), shape=(n, n))
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
