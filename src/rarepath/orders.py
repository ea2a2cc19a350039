"""Rarity orders of transition probabilities.

A transition probability p is said to have order r when p = Theta(eps^r)
for the model's rarity parameter eps.  Orders are non-negative integers;
``INFINITY`` marks "unreachable".  Plain Python ints together with
``math.inf`` already give saturating addition (r + inf == inf) and a total
order, so no wrapper class is needed.
"""

from __future__ import annotations

import math

INFINITY = math.inf

Order = int | float  # an int >= 0, or INFINITY


def assign_order(p: float, epsilon: float) -> int:
    """Smallest non-negative integer r such that p / eps**r > eps.

    This is the standard automatic order assignment for models that do not
    annotate transitions explicitly: the pre-factor of the transition must
    exceed eps.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon out of range: {epsilon}")
    r = 0
    while p / epsilon**r <= epsilon:
        r += 1
    return r
