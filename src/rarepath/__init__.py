"""Rare-event simulation for discrete-time Markov chains.

Estimates the probability of reaching a rare goal state before returning to
a regeneration state, using graph-based preprocessing and importance
sampling with a zero-variance approximation.
"""

from rarepath.errors import (
    ConfigError,
    ConvergenceError,
    GoalUnreachableError,
    ModelError,
    StateBudgetExceeded,
)
from rarepath.model import MarkovModel
from rarepath.orders import INFINITY, assign_order
from rarepath.preproc import PreprocessResult, preprocess
from rarepath.sampling import (
    ChangeOfMeasure,
    Estimate,
    compute_q_delta,
    run_estimator,
    wnvr,
)
from rarepath.exact import exact_hitting_probability

__all__ = [
    "ChangeOfMeasure",
    "ConfigError",
    "ConvergenceError",
    "Estimate",
    "GoalUnreachableError",
    "INFINITY",
    "MarkovModel",
    "ModelError",
    "PreprocessResult",
    "StateBudgetExceeded",
    "assign_order",
    "compute_q_delta",
    "exact_hitting_probability",
    "preprocess",
    "run_estimator",
    "wnvr",
]
