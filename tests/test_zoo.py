"""Benchmark models: contract validation and external reference values."""

import hashlib
import math
from typing import NamedTuple

import numpy as np
import pytest

from rarepath.errors import ConfigError
from rarepath.model import GOAL_CODE, TABOO_CODE, coded_arrays
from rarepath.preproc import preprocess
from rarepath.zoo import (
    DDS_STRATEGIES,
    ComponentType,
    DdsModel,
    MulticomponentModel,
    build_model,
    make_birth_death_chain,
    make_dds,
    two_type_basic,
    two_type_deferred,
    two_type_unbalanced,
)

from conftest import enumerate_chain, merged_row


class Edge(NamedTuple):
    target: object
    weight: float
    order: int


def edges(model, state):
    """The raw row of ``state``, one ``Edge`` per position."""
    return [Edge(*edge) for edge in zip(*model.successors(state))]


ALL_FACTORIES = [
    pytest.param(lambda: make_birth_death_chain(5, 0.1), id="chain"),
    pytest.param(lambda: two_type_basic(3, 3, 1.0, 0.05), id="two-type"),
    pytest.param(lambda: two_type_deferred(epsilon=0.01), id="deferred"),
    pytest.param(lambda: two_type_unbalanced(epsilon=0.05), id="unbalanced"),
    pytest.param(lambda: make_dds("dedicated", 0.1), id="dds-dedicated"),
    pytest.param(lambda: make_dds("disk_priority", 0.1), id="dds-disk"),
    pytest.param(lambda: make_dds("proc_priority", 0.1), id="dds-proc"),
    pytest.param(lambda: make_dds("fcfs", 0.1), id="dds-fcfs"),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES)
def test_contract_over_reachable_space(factory):
    """Rows normalize, orders are sane, terminals never expand, s not goal."""
    model = factory()
    assert not model.is_goal(model.initial_state)
    rows = enumerate_chain(model, limit=20_000)
    assert len(rows) >= 2
    for state, row in rows.items():
        assert not model.is_goal(state)
        total = sum(p for _z, p, _r in row)
        assert total == pytest.approx(1.0, abs=1e-9), state
        orders = [r for _z, _p, r in row]
        assert all(r >= 0 for r in orders), state
        assert min(orders) == 0, state  # most probable class is order 0


def test_chain_edge_labels():
    """Interior level: up with (eps, order 1), down with (1 - eps, order 0)."""
    model = make_birth_death_chain(5, 0.1)
    row = dict((t, (p, r)) for t, p, r in merged_row(model, 2))
    assert row[3] == (pytest.approx(0.1), 1)
    assert row[1] == (pytest.approx(0.9), 0)
    start = merged_row(model, "s")
    assert start == [(1, 1.0, 0)]


def test_two_type_initial_split():
    """From (0,0): type 1 first with c/(c+1), type 2 first with 1/(c+1)."""
    c = 3.0
    model = two_type_basic(4, 4, c, 0.01)
    row = {t: p for t, p, _r in merged_row(model, (0, 0))}
    assert row[(1, 0)] == pytest.approx(c / (c + 1.0))
    assert row[(0, 1)] == pytest.approx(1.0 / (c + 1.0))


def test_two_type_goal_and_regeneration():
    model = two_type_basic(4, 4, 1.0, 0.01)
    assert model.is_goal((4, 0))
    assert model.is_goal((2, 4))
    assert not model.is_goal((3, 3))
    assert model.is_taboo((0, 0))
    assert model.initial_state == (0, 0)


def test_deferred_repair_structure():
    """Threshold 2 with group repair: no repair at one failure, reset at two."""
    model = two_type_deferred(epsilon=0.01)
    targets_10 = {t.target for t in edges(model, (1, 0))}
    assert (0, 0) not in targets_10  # repair deferred
    targets_20 = {t.target for t in edges(model, (2, 0))}
    assert (0, 0) in targets_20  # group repair resets the type
    # type 2 repairs immediately
    targets_01 = {t.target for t in edges(model, (0, 1))}
    assert (0, 0) in targets_01


def test_unbalanced_spare_failures_are_second_order():
    model = two_type_unbalanced(epsilon=0.01)
    first = {t.target: t.order for t in edges(model, (0, 0))}
    assert first[(1, 0)] == 1
    later = {t.target: t.order for t in edges(model, (1, 0))}
    assert later[(2, 0)] == 2  # spare failure, one order rarer


def test_component_type_validation():
    with pytest.raises(ConfigError):
        ComponentType(count=0)
    with pytest.raises(ConfigError):
        ComponentType(count=2, repair_threshold=3)
    with pytest.raises(ConfigError):
        ComponentType(count=2, fail_prefactor=-1.0)
    with pytest.raises(ConfigError):
        make_birth_death_chain(1, 0.1)
    with pytest.raises(ConfigError):
        make_dds("nonsense", 0.1)


# ------------------------------------------------------------------ DDS

def test_dds_failure_condition():
    model = make_dds("dedicated", 0.1)
    down_procs = (2, 0, 0, 0, 0, 0, 0, 0, 0)
    down_ctrl = (0, 2, 0, 0, 0, 0, 0, 0, 0)
    down_disks = (0, 0, 0, 4, 0, 0, 0, 0, 0)
    three_disks = (0, 0, 0, 3, 0, 0, 0, 0, 0)
    spread = (1, 1, 1, 3, 3, 3, 3, 3, 3)
    assert model.is_goal(down_procs)
    assert model.is_goal(down_ctrl)
    assert model.is_goal(down_disks)
    assert not model.is_goal(three_disks)
    assert not model.is_goal(spread)


def test_dds_failure_rates_linear_in_working_components():
    model = make_dds("dedicated", 0.1)
    eps = 0.1
    raw = {t.target: t.weight for t in edges(model, (0,) * 9)}
    assert raw[(1,) + (0,) * 8] == pytest.approx(2 * 0.5 * eps**2)
    assert raw[(0, 0, 0, 1, 0, 0, 0, 0, 0)] == pytest.approx(6 / 6 * eps**2)
    one_proc = (1,) + (0,) * 8
    raw = {t.target: t.weight for t in edges(model, one_proc)}
    assert raw[(2,) + (0,) * 8] == pytest.approx(1 * 0.5 * eps**2)


def test_dds_repair_strategies():
    failed = (1, 0, 0, 1, 0, 0, 0, 0, 0)  # one processor, one disk
    eps = 0.1

    ded = make_dds("dedicated", eps)
    repairs = {
        t.target: t.weight
        for t in edges(ded, failed)
        if sum(t.target) < sum(failed)
    }
    # both units repair in parallel; disks repair at rate eps
    assert repairs[(0, 0, 0, 1, 0, 0, 0, 0, 0)] == pytest.approx(1.0)
    assert repairs[(1, 0, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(eps)

    disk = make_dds("disk_priority", eps)
    repairs = [
        t for t in edges(disk, failed) if sum(t.target) < sum(failed)
    ]
    assert len(repairs) == 1
    assert repairs[0].target == (1, 0, 0, 0, 0, 0, 0, 0, 0)

    proc = make_dds("proc_priority", eps)
    repairs = [
        t for t in edges(proc, failed) if sum(t.target) < sum(failed)
    ]
    assert len(repairs) == 1
    assert repairs[0].target == (0, 0, 0, 1, 0, 0, 0, 0, 0)


def test_dds_fcfs_repairs_in_failure_order():
    model = make_dds("fcfs", 0.1)
    state = (3, 0)  # a disk failed first, then a processor
    repairs = [t for t in edges(model, state) if len(t.target) < 2]
    assert len(repairs) == 1
    assert repairs[0].target == (0,)  # the disk leaves the queue first
    assert repairs[0].weight == pytest.approx(0.1)  # disk repair rate eps
    assert model.is_taboo(())
    # a list of failed component types, not a count vector
    assert not model.is_taboo((0,))
    assert not model.is_taboo((0, 0))
    # four failures in one cluster down the system regardless of order
    assert model.is_goal((3, 3, 3, 3))
    assert not model.is_goal((3, 4, 5, 6))


DDS_REFERENCE = [
    # strategy, epsilon, probability from an independent numerical solver
    ("dedicated", 0.1, 3.441e-3),
    ("dedicated", 0.01, 1.790e-5),
    ("dedicated", 0.003, 1.532e-6),
    ("disk_priority", 0.01, 1.367e-4),
    ("proc_priority", 0.01, 1.798e-5),
]


@pytest.mark.parametrize("strategy,eps,expected", DDS_REFERENCE)
def test_dds_exact_matches_reference_solver(strategy, eps, expected, dds_oracle):
    pi_s = dds_oracle(strategy, eps)
    assert pi_s == pytest.approx(expected, rel=5e-4)


def test_dds_probability_scales_as_epsilon_squared(dds_oracle):
    """Two failures suffice to go down, so pi = Theta(eps^2)."""
    pi_1 = dds_oracle("dedicated", 0.01)
    pi_2 = dds_oracle("dedicated", 0.003)
    order = math.log(pi_1 / pi_2) / math.log(0.01 / 0.003)
    assert order == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize(
    "strategy,p_delta,lambda_size,gamma_size",
    [
        ("fcfs", "0x1.a9969a4a12bcfp-14", 557, 4104),
        ("dedicated", "0x1.1761fe9c3935cp-16", 172, 370),
    ],
)
def test_dds_preprocessing_pinned(strategy, p_delta, lambda_size, gamma_size):
    """Bit-exact p_delta and set sizes at eps = 0.01: a change to how rows
    are built or embedded must not move them."""
    result = preprocess(make_dds(strategy, 0.01))
    assert result.p_delta.hex() == p_delta
    assert (result.lambda_size, result.gamma_size) == (lambda_size, gamma_size)


def test_dds_oracle_pinned(dds_oracle):
    """Bit-exact oracle pi(s) of DDS dedicated at eps = 0.01."""
    assert dds_oracle("dedicated", 0.01).hex() == "0x1.2c442e0857a29p-16"


@pytest.mark.parametrize("strategy", ["dedicated", "disk_priority", "proc_priority"])
def test_dds_coded_rows_match_successors_on_every_reachable_state(strategy):
    """The batched hook and the scalar row agree position by position:
    target codes (decoded, or marked goal or taboo), weights bit for bit
    and orders."""
    model = make_dds(strategy, 0.01)
    codes = coded_arrays(model, 10**6)[3]
    states = [model.initial_state, *model.decode(codes[1:])]
    assert len(set(states)) == len(states) == 32_768
    assert [model.encode(x) for x in states] == codes.tolist()
    sizes, targets, weights, orders = model.coded_rows(codes)
    ends = np.cumsum(sizes).tolist()
    for x, start, end in zip(states, [0, *ends], ends):
        expect_targets, expect_weights, expect_orders = model.successors(x)
        assert [
            GOAL_CODE if model.is_goal(t) else TABOO_CODE if model.is_taboo(t)
            else model.encode(t) for t in expect_targets
        ] == targets[start:end].tolist()
        plain = targets[start:end] >= 0
        assert model.decode(targets[start:end][plain]) == [
            t for t, keep in zip(expect_targets, plain) if keep
        ]
        assert [w.hex() for w in weights[start:end].tolist()] == [
            w.hex() for w in expect_weights
        ]
        assert orders[start:end].tolist() == expect_orders


def test_dds_fcfs_rows_and_goal_answers_preprocessing_reads_are_pinned():
    """Every row that preprocessing reads from DDS fcfs at eps = 0.01 (its
    targets, ``float.hex`` weights and orders) and every ``is_goal``
    answer, in call order, by the sha256 of their dumps."""

    class Recording(DdsModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.rows, self.goals = [], []

        def successors(self, state):
            row = targets, weights, orders = super().successors(state)
            self.rows.append(f"{targets!r}|{[w.hex() for w in weights]}|{list(orders)!r}")
            return row

        def is_goal(self, state):
            goal = super().is_goal(state)
            self.goals.append(f"{state!r}|{goal}")
            return goal

    model = Recording("fcfs", 0.01)
    preprocess(model)
    digests = {
        name: (len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())
        for name, lines in (("rows", model.rows), ("goals", model.goals))
    }
    assert digests == {
        "rows": (4660, "318bb6187ad8f3c278aab681921379a5e9f41c795f299f9d8363ad83885c25e9"),
        "goals": (5005, "e6580fe270e1bba544f6efafdf6f95b993090c61173cc274d068928b1cac9dd4"),
    }


# ------------------------------------------------------------- registry

def test_registry_builds_each_model():
    assert build_model("chain", 0.1, {"levels": "7"}).levels == 7
    assert build_model("two-type", 0.01, {"k1": "3", "c": "2.0"}).types[0].count == 3
    assert build_model("dds", 0.01, {"strategy": "fcfs"}).strategy == "fcfs"
    assert build_model("two-type-deferred", 0.01, {}).types[0].group_repair
    assert build_model("two-type-unbalanced", 0.01, {}).types[0].spare_order == 2


def test_registry_rejects_unknown_name_and_params():
    with pytest.raises(ConfigError):
        build_model("nope", 0.1, {})
    with pytest.raises(ConfigError):
        build_model("chain", 0.1, {"bogus": "1"})


def test_explicit_spec_constructor():
    model = MulticomponentModel(
        (ComponentType(count=2), ComponentType(count=3)), epsilon=0.05
    )
    assert model.initial_state == (0, 0)
    assert model.is_goal((2, 0))
    assert {t.target for t in edges(model, (0, 0))} == {(1, 0), (0, 1)}
