"""Benchmark models implementing the MarkovModel contract.

* a birth-death chain where each step toward the goal has probability eps;
* multicomponent repair systems with one active component per type
  (spares), dedicated or deferred group repair, and optional distinct
  spare-failure rates;
* a distributed database system: 2 processors, 2 controller sets of 2, and
  6 disk clusters of 6, with four repair strategies (dedicated units, one
  unit with disk or processor priority, one unit serving in FCFS order).

All models are immutable; rates are emitted symbolically as
prefactor * eps**order so preprocessing sees exact rarity orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Any, Callable, Sequence

from rarepath.errors import ConfigError
from rarepath.model import MarkovModel


class BirthDeathChain(MarkovModel):
    """Linear chain s -> 1 -> ... -> levels (goal); drops lead to t.

    Each up-step has probability eps (order 1), each down-step 1 - eps
    (order 0); from level 1 the down-step regenerates.  The model emits
    probabilities directly, exercising the non-CTMC path of the contract.
    """

    emits_rates = False

    def __init__(self, levels: int = 5, epsilon: float = 0.1):
        if levels < 2:
            raise ConfigError("need at least two levels")
        self.levels = levels
        self.epsilon = epsilon

    @property
    def initial_state(self) -> Any:
        return "s"

    def is_goal(self, state: Any) -> bool:
        return state == self.levels

    def is_taboo(self, state: Any) -> bool:
        return state == "t"

    def successors(self, state: Any) -> tuple[tuple, tuple, tuple]:
        if state == "s":
            return (1,), (1.0,), (0,)
        eps = self.epsilon
        down = state - 1 if state > 1 else "t"
        return (state + 1, down), (eps, 1.0 - eps), (1, 0)


def make_birth_death_chain(levels: int = 5, epsilon: float = 0.1) -> BirthDeathChain:
    return BirthDeathChain(levels, epsilon)


@dataclass(frozen=True)
class ComponentType:
    """One component type of a multicomponent repair system.

    One component is active at a time, the others are cold spares.  The
    active component fails at ``fail_prefactor * eps**fail_order``; once at
    least one component has failed the (distinct, optional) spare rate
    applies instead.  Repair starts when ``repair_threshold`` components
    are down (deferred repair) and fixes either one component or, with
    ``group_repair``, all of them at once.
    """

    count: int
    fail_prefactor: float = 1.0
    fail_order: int = 1
    spare_prefactor: float | None = None
    spare_order: int | None = None
    repair_rate: float = 1.0
    repair_threshold: int = 1
    group_repair: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigError("component count must be >= 1")
        if not 1 <= self.repair_threshold <= self.count:
            raise ConfigError("repair threshold must be in [1, count]")
        if self.fail_prefactor <= 0 or self.repair_rate <= 0:
            raise ConfigError("rates must be positive")


class MulticomponentModel(MarkovModel):
    """Failure/repair system over several component types.

    States are tuples of failed-component counts; the system fails (goal)
    when any type is fully failed, and regenerates on returning to the
    all-up state.
    """

    emits_rates = True

    def __init__(self, types: Sequence[ComponentType], epsilon: float):
        self.types = tuple(types)
        self.epsilon = epsilon
        self._sizes = tuple(ct.count for ct in self.types)

    @property
    def initial_state(self) -> tuple[int, ...]:
        return (0,) * len(self.types)

    def is_goal(self, state: Any) -> bool:
        return any(map(ge, state, self._sizes))

    def is_taboo(self, state: Any) -> bool:
        return not any(state)

    def successors(self, state: Any) -> tuple[list, list[float], list[int]]:
        eps = self.epsilon
        targets, weights, orders = [], [], []
        for i, (x, ct) in enumerate(zip(state, self.types)):
            if x < ct.count:
                if x >= 1 and ct.spare_prefactor is not None:
                    pre, order = ct.spare_prefactor, ct.spare_order
                else:
                    pre, order = ct.fail_prefactor, ct.fail_order
                targets.append(state[:i] + (x + 1,) + state[i + 1 :])
                weights.append(pre * eps**order)
                orders.append(order)
            if x >= ct.repair_threshold:
                new_x = 0 if ct.group_repair else x - 1
                targets.append(state[:i] + (new_x,) + state[i + 1 :])
                weights.append(ct.repair_rate)
                orders.append(0)
        return targets, weights, orders


def two_type_basic(
    k1: int = 4, k2: int = 4, c: float = 1.0, epsilon: float = 0.01
) -> MulticomponentModel:
    """Two types with dedicated repair; type-1 failures are c times faster."""
    return MulticomponentModel(
        (
            ComponentType(count=k1, fail_prefactor=c),
            ComponentType(count=k2, fail_prefactor=1.0),
        ),
        epsilon,
    )


def two_type_deferred(
    k1: int = 5, k2: int = 2, c: float = 1.0 / 50.0, epsilon: float = 0.01
) -> MulticomponentModel:
    """Type 1 under deferred (threshold 2) group repair; type 2 dedicated.

    The deferral makes the states with one type-1 failure an order-0 cycle
    (no repair is active there), the canonical high-probability-cycle
    example.
    """
    return MulticomponentModel(
        (
            ComponentType(
                count=k1, fail_prefactor=c, repair_threshold=2, group_repair=True
            ),
            ComponentType(count=k2, fail_prefactor=1.0),
        ),
        epsilon,
    )


def two_type_unbalanced(
    k1: int = 5, k2: int = 3, epsilon: float = 0.01
) -> MulticomponentModel:
    """Deferred-group variant with slower spare failures for type 1.

    The first type-1 component fails at order 1, its spares at order 2,
    which makes the dominant path run through the order-0 cycle and is the
    standard example where failure-biasing measures misjudge the rare
    paths.
    """
    return MulticomponentModel(
        (
            ComponentType(
                count=k1,
                fail_prefactor=1.0,
                fail_order=1,
                spare_prefactor=1.0,
                spare_order=2,
                repair_threshold=2,
                group_repair=True,
            ),
            ComponentType(count=k2, fail_prefactor=1.0),
        ),
        epsilon,
    )


DDS_STRATEGIES = ("dedicated", "disk_priority", "proc_priority", "fcfs")

# component types: 0 processors, 1-2 controller sets, 3-8 disk clusters
_DDS_COUNTS = (2, 2, 2, 6, 6, 6, 6, 6, 6)
_DDS_FAIL_PREFACTOR = (0.5, 0.5, 0.5) + (1.0 / 6.0,) * 6
_DDS_FAIL_ORDER = 2
_DDS_REPAIR_ORDER = (0, 0, 0) + (1,) * 6  # disks repair at rate eps
_DDS_DOWN_LIMIT = (2, 2, 2) + (4,) * 6  # failed components meaning "down"


class DdsModel(MarkovModel):
    """Distributed database system with nine component types.

    The system is down when both processors fail, both controllers of a
    set fail, or four disks of one cluster fail.  Failure rates are linear
    in the number of working components; repair follows the chosen
    strategy.  FCFS states carry the chronological list of failed
    component types, other strategies a count vector.
    """

    emits_rates = True

    def __init__(self, strategy: str = "dedicated", epsilon: float = 0.01):
        if strategy not in DDS_STRATEGIES:
            raise ConfigError(f"unknown DDS strategy {strategy!r}")
        self.strategy = strategy
        self.epsilon = epsilon
        # per type: the failure rate for each failed count, the repair rate
        self._fail_rates = [
            [(n - x) * pre * epsilon**_DDS_FAIL_ORDER for x in range(n)]
            for n, pre in zip(_DDS_COUNTS, _DDS_FAIL_PREFACTOR)
        ]
        self._repair_rates = [epsilon**order for order in _DDS_REPAIR_ORDER]

    @property
    def initial_state(self) -> tuple:
        return () if self.strategy == "fcfs" else (0,) * 9

    def _counts(self, state: tuple) -> Sequence[int]:
        if self.strategy != "fcfs":
            return state
        counts = [0] * 9
        for i in state:
            counts[i] += 1
        return counts

    def is_goal(self, state: tuple) -> bool:
        return any(map(ge, self._counts(state), _DDS_DOWN_LIMIT))

    def is_taboo(self, state: tuple) -> bool:
        # FCFS: the failure list is empty
        return not state if self.strategy == "fcfs" else not any(state)

    def successors(self, state: tuple) -> tuple[list, list[float], list[int]]:
        counts = self._counts(state)
        up = [i for i, x in enumerate(counts) if x < _DDS_COUNTS[i]]
        if self.strategy == "fcfs":
            down = state[:1]  # the head of the failure list
            targets = [state + (i,) for i in up]
            if state:
                targets.append(state[1:])
        else:
            down = [i for i, x in enumerate(counts) if x]
            if self.strategy == "disk_priority":
                down = down[-1:]
            elif self.strategy == "proc_priority":
                down = down[:1]
            targets = _moved(counts, up, 1) + _moved(counts, down, -1)
        weights = [self._fail_rates[i][counts[i]] for i in up]
        weights += [self._repair_rates[i] for i in down]
        orders = [_DDS_FAIL_ORDER] * len(up) + [_DDS_REPAIR_ORDER[i] for i in down]
        return targets, weights, orders


def _moved(counts: tuple[int, ...], types: list[int], step: int) -> list[tuple]:
    """``counts`` with ``step`` added to one type, one tuple per type."""
    scratch = list(counts)
    out = []
    for i in types:
        scratch[i] += step
        out.append(tuple(scratch))
        scratch[i] -= step
    return out


def make_dds(strategy: str = "dedicated", epsilon: float = 0.01) -> DdsModel:
    return DdsModel(strategy, epsilon)


def parse_number(name: str, text: str | None, kind: type, default=None):
    """``kind(text)``, or ``default`` if ``text`` is None.

    Text that is not a number of that kind raises ConfigError naming
    ``name``.
    """
    if text is None:
        return default
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{name} expects {kind.__name__}, got {text!r}") from None


#: CLI registry: model name -> (factory, kind of each parameter); a
#: parameter not given keeps the factory's default
MODELS: dict[str, tuple[Callable[..., MarkovModel], dict[str, type]]] = {
    "chain": (make_birth_death_chain, {"levels": int}),
    "two-type": (two_type_basic, {"k1": int, "k2": int, "c": float}),
    "two-type-deferred": (two_type_deferred, {"k1": int, "k2": int, "c": float}),
    "two-type-unbalanced": (two_type_unbalanced, {"k1": int, "k2": int}),
    "dds": (make_dds, {"strategy": str}),
}

MODEL_NAMES = tuple(MODELS)


def build_model(name: str, epsilon: float, params: dict[str, str]) -> MarkovModel:
    """Construct a registered model by name from string parameters."""
    if name not in MODELS:
        raise ConfigError(f"unknown model {name!r}")
    factory, kinds = MODELS[name]
    kwargs = {
        key: parse_number(f"--param {key}", params[key], kind)
        for key, kind in kinds.items() if key in params
    }
    unknown = sorted(set(params) - set(kinds))
    if unknown:
        raise ConfigError(f"unknown parameters for {name}: {unknown}")
    return factory(epsilon=epsilon, **kwargs)
