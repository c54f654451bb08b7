"""Planner latency benchmark (``repro bench plan``).

Measures how long :class:`~repro.plan.planner.CapacityPlanner` takes to
solve deterministic synthetic fleets of growing size (default 10, 100
and 1000 mix items) and records the curve into ``BENCH_plan.json``
through the one history-carrying writer
(:func:`repro.core.perfbench.write_bench_json`) with
:func:`plan_history_row`, so re-runs accumulate a trajectory instead of
overwriting it.

Honesty rules:

* every fleet size gets a **fresh** predictor — otherwise the run cache
  warmed by fleet N makes fleet 10N artificially fast;
* the synthetic mix is a pure function of the item index (no
  randomness), so the measured problem is identical across runs and
  machines;
* if a fleet does not fit the starting pool, the pool's node counts are
  escalated deterministically until it does, and only the successful
  solve is timed (the escalation count is recorded).
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.api.errors import InfeasiblePlanError
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PoolEntry, TrafficItem
from repro.plan.planner import CapacityPlanner

__all__ = [
    "DEFAULT_FLEET_SIZES",
    "synthetic_request",
    "measure_plan",
    "plan_history_row",
]

DEFAULT_FLEET_SIZES = (10, 100, 1000)

#: The deterministic item template cycle: (workload, size_gb, threads).
_ITEM_CYCLE = (
    ("dgemm", 12.0, 64),
    ("minife", 20.0, 64),
    ("gups", 8.0, 32),
    ("graph500", 16.0, 64),
    ("xsbench", 24.0, 128),
    ("minife", 48.0, 64),
    ("dgemm", 30.0, 128),
    ("gups", 4.0, 16),
)

_POOL_MACHINES = ("knl7210", "xeonmax9480")

#: Pool escalation: multiply node counts by this until the mix fits.
_ESCALATION = 8
_MAX_ESCALATIONS = 8


def synthetic_request(
    fleet_size: int,
    *,
    nodes_per_machine: int,
    objective: str = "runtime",
) -> PlanRequest:
    """A deterministic ``fleet_size``-item mix over the two-machine
    benchmark pool."""
    mix = []
    for i in range(fleet_size):
        workload, size_gb, threads = _ITEM_CYCLE[i % len(_ITEM_CYCLE)]
        mix.append(
            TrafficItem(
                workload=workload,
                size_gb=size_gb,
                num_threads=threads,
                # Per-item arrival weight in (0.0005, 0.004]: spread so
                # the packing is non-trivial but bounded.
                weight=0.0005 * (1 + i % 8),
            )
        )
    pool = [
        PoolEntry(machine=machine, nodes=nodes_per_machine)
        for machine in _POOL_MACHINES
    ]
    return PlanRequest(mix=tuple(mix), pool=tuple(pool), objective=objective)


def _solve_timed(
    planner: CapacityPlanner, fleet_size: int
) -> dict[str, Any]:
    """Solve one synthetic fleet, escalating the pool until feasible;
    time only the successful solve."""
    nodes = max(4, fleet_size // 4)
    for escalations in range(_MAX_ESCALATIONS):
        request = synthetic_request(fleet_size, nodes_per_machine=nodes)
        try:
            started = time.perf_counter()
            result = planner.plan(request)
            elapsed = time.perf_counter() - started
        except InfeasiblePlanError:
            nodes *= _ESCALATION
            continue
        return {
            "latency_ms": elapsed * 1e3,
            "nodes_per_machine": nodes,
            "escalations": escalations,
            "candidates": request.candidate_count(),
            "objective_value": result.objective_value,
            "assignments": len(result.assignments),
        }
    raise InfeasiblePlanError(
        f"synthetic fleet of {fleet_size} never became feasible after "
        f"{_MAX_ESCALATIONS} pool escalations"
    )


def measure_plan(
    fleet_sizes: Sequence[int] = DEFAULT_FLEET_SIZES,
    *,
    table_cache_dir: Any = None,
) -> dict[str, Any]:
    """The ``repro bench plan`` document: planner latency vs fleet size."""
    latency_ms: dict[str, float] = {}
    details: dict[str, Any] = {}
    for fleet_size in fleet_sizes:
        predictor = Predictor(table_cache_dir=table_cache_dir)
        try:
            row = _solve_timed(CapacityPlanner(predictor), fleet_size)
        finally:
            predictor.close()
        latency_ms[str(fleet_size)] = row["latency_ms"]
        details[str(fleet_size)] = row
    return {
        "benchmark": "plan",
        "fleet_sizes": list(fleet_sizes),
        "pool_machines": list(_POOL_MACHINES),
        "planner": {
            "latency_ms": latency_ms,
            "details": details,
        },
        "note": (
            "Latency of CapacityPlanner.plan on deterministic synthetic "
            "mixes; each fleet size runs on a fresh predictor so the run "
            "cache never flatters larger fleets.  Candidate evaluation "
            "dominates: latency scales with candidate_count = items x "
            "sum(configs per pool entry)."
        ),
    }


def plan_history_row(document: dict[str, Any]) -> dict[str, Any]:
    """``BENCH_plan.json``'s trajectory row, from a :func:`measure_plan`
    document."""
    return {"plan_latency_ms": dict(document["planner"]["latency_ms"])}
