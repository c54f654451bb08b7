"""Planner admission parity: candidates without per-candidate queries.

The planner admits (item, machine, config) candidates with one
memory-mode check per (machine, config) and one thread placement per
(machine, thread count) instead of resolving a
:class:`~repro.api.types.Query` per candidate.  This pins that shortcut
to the oracle: a candidate is kept exactly when
:meth:`~repro.api.facade.Predictor.resolve` accepts its query and the
model calls it feasible, and every kept candidate carries the direct
prediction and the directly priced energy.
"""

from __future__ import annotations

import pytest

from repro.api.errors import ValidationError
from repro.api.facade import Predictor, sized_workload
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem
from repro.api.types import Query
from repro.core.configs import ConfigName
from repro.engine.energy import EnergyModel
from repro.machine import registry
from repro.plan import CapacityPlanner

#: Includes counts over every machine's hardware-thread limit.
THREAD_LADDER = (16, 64, 256, 288, 1024)
ALL_CONFIGS = tuple(name.value for name in ConfigName)
MIX = tuple(
    TrafficItem(workload=w, size_gb=g, num_threads=t, weight=0.001 * (1 + i % 3))
    for i, (w, g, t) in enumerate(
        (w, g, t)
        for w in ("dgemm", "gups")
        for g in (4.0, 20.0)
        for t in THREAD_LADDER
    )
)
POOL = tuple(
    PoolEntry(machine=name, nodes=10_000, configs=ALL_CONFIGS)
    for name in registry.names()
)


@pytest.fixture(scope="module")
def predictor():
    predictor = Predictor()
    yield predictor
    predictor.close()


@pytest.fixture(scope="module", params=["runtime", "energy"])
def solved(request, predictor):
    plan = PlanRequest(mix=MIX, pool=POOL, objective=request.param)
    return plan, CapacityPlanner(predictor)._candidates(plan)


def _oracle(predictor: Predictor, item: TrafficItem, machine: str, config: str):
    """The direct path: resolve, predict and price one candidate, or
    ``None`` when it is not a candidate."""
    query = Query(
        workload=item.workload,
        size_gb=item.size_gb,
        config=config,
        num_threads=item.num_threads,
        machine=machine,
    )
    try:
        cell = predictor.resolve(query)
    except ValidationError:
        return None
    result = predictor.predict(query)
    if result.error is not None or result.time_ns is None:
        return None
    record = predictor.executor(machine).run_cells([cell])[0]
    workload = sized_workload(item.workload, item.size_gb)
    energy = EnergyModel().estimate(workload.profile(), record.run_result)
    return result, energy.total_j


def test_kept_exactly_when_resolve_accepts_and_values_match(predictor, solved):
    plan, per_item = solved
    rejected = 0
    for index, item in enumerate(MIX):
        kept = {(c.machine, c.config): c for c in per_item[index]}
        assert len(kept) == len(per_item[index])
        for entry in POOL:
            for config in ALL_CONFIGS:
                oracle = _oracle(predictor, item, entry.machine, config)
                candidate = kept.get((entry.machine, config))
                if oracle is None:
                    assert candidate is None, (item, entry.machine, config)
                    rejected += 1
                    continue
                assert candidate is not None, (item, entry.machine, config)
                result, energy_j = oracle
                assert candidate.record.run_result.time_ns == result.time_ns
                assert candidate.record.metric == result.metric
                assert candidate.energy_j == energy_j
                assert candidate.item_index == index
                load = item.weight * result.time_ns * 1e-9
                assert candidate.load_nodes == load
                expected_cost = (
                    item.weight * energy_j if plan.objective == "energy" else load
                )
                assert candidate.cost == expected_cost
    # The ladder must exercise both the rejection and the keep paths.
    assert 0 < rejected < len(MIX) * len(POOL) * len(ALL_CONFIGS)


def test_over_limit_thread_counts_have_no_candidates(solved):
    _, per_item = solved
    limits = {
        name: registry.build(name).max_threads for name in registry.names()
    }
    for index, item in enumerate(MIX):
        for candidate in per_item[index]:
            assert item.num_threads <= limits[candidate.machine]
        if item.num_threads > max(limits.values()):
            assert per_item[index] == []
