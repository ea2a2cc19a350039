"""Exact hitting probabilities by numerical linear solve.

Enumerates the reachable states and solves

    pi(x) = sum over successors z of p(x, z) * pi(z),  pi(g) = 1, pi(t) = 0

over the states alone, s first (g and t have no rows), with
Gauss-Seidel iteration; each sweep is one sparse lower-triangular solve,
so large spaces stay fast, and brackets pi from below and above, so the
solve proves where it stops.  Serves as the reference oracle that
the simulation estimators are validated against.  Unlike the estimators it
needs the whole space, so it keeps none of it as rows: each row is read
once into flat arrays, from which numpy assembles the two triangles the
sweeps read, L and U; no matrix that holds both is ever built.

The flat arrays come in bulk, in blocks of at most ``model.BLOCK`` = 1,024
states, from ``model.coded_arrays`` when the full chain of a model with
codes is solved (the DDS count-vector strategies); otherwise, for a
reduced chain or a model without codes (DDS fcfs, ``MulticomponentModel``,
user models), one row at a time from a ``Chain``.  Both give the same
arrays, bit for bit.
"""

from __future__ import annotations

from array import array
from typing import Any

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, diags_array
from scipy.sparse.linalg import spsolve_triangular

from rarepath.errors import ConvergenceError, StateBudgetExceeded
from rarepath.model import GOAL_CODE, Chain, MarkovModel, coded_arrays
from rarepath.preproc import PreprocessResult

DEFAULT_STATE_CAP = 2_000_000
#: componentwise relative width at which the Gauss-Seidel bracket stops
TOL = 1e-12
#: sweeps before the solve gives up
MAX_SWEEPS = 200_000


def exact_hitting_probability(
    model: MarkovModel,
    result: PreprocessResult | None = None,
    state_cap: int = DEFAULT_STATE_CAP,
) -> tuple[float, dict[Any, float]]:
    """Probability of reaching the goal before the taboo state.

    Returns (pi(s), pi for every state of the chain).  The full chain of
    a model with codes is built in bulk (``coded_arrays``); any other is
    enumerated through a ``Chain``: one of its own, dropped once its rows
    are read, or the preprocessing result's to solve over the reduced
    chain instead (indexing every state in that chain, but storing none
    of its rows); cycle removal must leave hitting probabilities
    unchanged, which the test suite checks against this oracle.

    Matrix row i is state i, s being 0: the indices are walked upward
    while ``chain.take`` reads row i once, indexing the states it
    discovers (breadth-first from s on the model's own chain), and the
    bulk path gives the same indices.  Goal mass goes to b, taboo mass
    nowhere, self-loops to the diagonal, and the other entries, in row
    order with duplicates summed, straight to L (below the diagonal) or U
    (above it); A = L + U is never built.  A state whose row only loops
    on itself gets an identity row with b = 0.

    The sweeps (``gauss_seidel_bracket``) solve two columns, x_lo from 0
    and x_hi from 1 on the states that reach g (``b > 0`` grown through
    the edges into it) and 0 elsewhere: off that set pi = 0, on closed
    classes too.  The sweeps are monotone (the b = 0 and b = 1 bounds of
    Muntz, de Souza e Silva & Goyal, 1989), so x_lo <= pi <= x_hi up to
    rounding.  They stop once x_hi - x_lo <= TOL * x_lo in every component,
    and x_lo is returned, each probability resolved to the same relative
    accuracy.  After MAX_SWEEPS sweeps the solve gives up with
    ConvergenceError.
    """
    codes = None
    if result is None and model.has_codes:
        *rows, codes = coded_arrays(model, state_cap)
    else:
        *rows, states = row_arrays(result.chain if result is not None else Chain(model), state_cap)
    z, p, sizes = map(np.frombuffer, rows, (np.intc, float, np.intc))
    n = len(sizes)
    r = np.repeat(np.arange(n, dtype=np.intc), sizes)
    hit = z == GOAL_CODE
    b = np.bincount(r[hit], p[hit], minlength=n)
    loop = z == r
    diag = np.ones(n)
    np.subtract.at(diag, r[loop], p[loop])
    # a state that only loops on itself never reaches g: identity, b = 0
    diag[np.bincount(r[loop], minlength=n) == sizes] = 1.0
    if not diag.all():  # the sweeps divide by it
        raise ConvergenceError("a self-loop rounds to probability 1 beside other edges")
    # L: the entries below the diagonal in row order, each row's diagonal
    # last; U: those above it.  Neither holds a goal, taboo or self-loop entry.
    off = z >= 0
    below, above = off & (z < r), off & (z > r)
    ends, starts = (
        np.cumsum(np.bincount(r[m], minlength=n), dtype=np.intc) for m in (below, above)
    )
    del hit, loop, off, r
    at = np.arange(n, dtype=np.intc)
    data, cols = np.insert(-p[below], ends, diag), np.insert(z[below], ends, at)
    lower = csr_matrix((data, cols, np.r_[0, ends + at + 1]), shape=(n, n))
    upper = csr_matrix((-p[above], z[above], np.r_[0, starts]), shape=(n, n))
    del rows, z, p, sizes, below, above, data, cols
    lower.sum_duplicates()
    upper.sum_duplicates()
    # off the diagonal L and U hold -p: a row reads < 0 iff it has an edge into reach
    reach = b > 0
    while not np.array_equal(grown := reach | (lower @ reach + upper @ reach < 0), reach):
        reach = grown
    # each sweep solves with the unit triangle L diag(1/d), formed once here
    # as spsolve_triangular would form it on every call, and in CSC, the
    # layout it solves a lower triangle in without building an identity
    inv = 1.0 / diag
    unit = lower.tocsc() @ diags_array(inv)
    del lower
    x_lo, _x_hi = gauss_seidel_bracket(unit, inv, upper, b, reach)
    del unit, upper, b
    if codes is not None:  # decoded only now: the solve holds no descriptors
        states = [model.initial_state, *model.decode(codes[1:])]
    return float(x_lo[0]), dict(zip(states, x_lo.tolist()))


def gauss_seidel_bracket(
    unit: csc_matrix, inv: np.ndarray, upper: csr_matrix, b: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep (L + U) x = b to a bracket (x_lo, x_hi) of its solution.

    ``unit`` is the unit lower triangle L diag(1/d) in CSC, ``inv`` is
    1/d, ``upper`` is U, and ``reach`` marks the states that reach g.
    Each sweep solves for both columns in one ``spsolve_triangular`` call:
    x_lo rises from 0, and x_hi falls from 1 on ``reach`` (0 elsewhere).
    The sweeps stop once x_hi - x_lo <= TOL * x_lo in every component;
    after MAX_SWEEPS they give up with ConvergenceError.
    """
    x = np.column_stack([np.zeros(len(b)), reach])
    for _ in range(MAX_SWEEPS):
        x = spsolve_triangular(
            unit, b[:, None] - upper @ x, lower=True, overwrite_A=True, unit_diagonal=True
        ) * inv[:, None]
        if np.all(x[:, 1] - x[:, 0] <= TOL * x[:, 0]):
            return x[:, 0], x[:, 1]
    raise ConvergenceError("hitting-probability solve did not converge")


def row_arrays(chain: Chain, state_cap: int) -> tuple[array, array, array, list]:
    """The rows of a chain as flat (targets, probs, sizes), read one at a
    time in index order through ``chain.take``, which indexes the states
    they discover, and the descriptor of every state, in index order."""
    targets, probs, sizes = array("i"), array("d"), array("i")
    i = 0
    while i < len(chain):
        row_targets, row_probs, _orders = chain.take(i)
        if len(chain) > state_cap:
            raise StateBudgetExceeded(f"more than {state_cap} reachable states")
        targets.extend(row_targets)
        probs.extend(row_probs)
        sizes.append(len(row_targets))
        i += 1
    return targets, probs, sizes, [*map(chain.indexer.state, range(i))]
