"""Wire types of the fleet-scale capacity planner (:mod:`repro.plan`).

The planner speaks the same contract discipline as the prediction
surface (:mod:`repro.api.types`): frozen canonicalizing dataclasses
whose ``to_dict``/``from_dict`` are exact inverses over JSON-ready
dictionaries.

* :class:`TrafficItem` — one slice of fleet traffic: a workload at a
  size and thread count, weighted by its arrival rate (jobs per
  second, or any consistent rate unit);
* :class:`PoolEntry` — one machine type in the fleet: a registry
  machine, how many nodes of it exist, and which memory configurations
  it may be asked to run (empty = the paper trio, filtered to what the
  machine supports);
* :class:`PlanRequest` — the declarative spec: a traffic mix, a
  machine pool, and an objective (``runtime`` or ``energy``);
* :class:`PlanAssignment` — one item's placement: the chosen
  (machine, config), the engine's bit-identical prediction for it, the
  average node load it induces, and its energy price;
* :class:`MachineLoad` — one pool machine's aggregate load in the
  solved plan;
* :class:`PlanResult` — the answer: assignments in mix order, the
  objective value, and per-machine loads.

The load model is Little's law: an item arriving ``weight`` times per
second, each arrival running ``time_s`` seconds on one node, keeps
``weight * time_s`` nodes busy on average.  The planner packs those
loads into the pool's node counts (docs/PLANNING.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.api.errors import (
    EmptyMixError,
    UnknownMachineError,
    ValidationError,
)
from repro.api.types import (
    MACHINE_NAMES,
    SCHEMA_VERSION,
    _canonical_config,
    _check_size,
    _check_str,
    _check_threads,
    _require_keys,
    check_schema_version,
)

__all__ = [
    "OBJECTIVES",
    "TrafficItem",
    "PoolEntry",
    "PlanRequest",
    "PlanAssignment",
    "MachineLoad",
    "PlanResult",
]

#: Objectives a plan may minimize.
OBJECTIVES = ("runtime", "energy")


def _canonical_objective(value: Any) -> str:
    text = _check_str("objective", value).lower()
    if text not in OBJECTIVES:
        raise ValidationError(
            f"unknown objective {value!r}; expected one of "
            f"{', '.join(OBJECTIVES)}"
        )
    return text


def _canonical_pool_machine(value: Any) -> str:
    """Like the query types' machine canonicalization, but an unknown
    name is the planner-taxonomy :class:`UnknownMachineError` (404) —
    the pool naming a machine the registry lacks is the request asking
    about hardware this build does not model."""
    text = _check_str("machine", value).lower()
    if text not in MACHINE_NAMES:
        raise UnknownMachineError(
            f"unknown machine {value!r}; expected one of "
            f"{', '.join(MACHINE_NAMES)}",
            details={"available": list(MACHINE_NAMES)},
        )
    return text


def _check_finite(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return number


def _check_non_negative(name: str, value: Any) -> float:
    number = _check_finite(name, value)
    if number < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return number


@dataclass(frozen=True)
class TrafficItem:
    """One slice of fleet traffic.

    ``weight`` is the item's arrival rate (jobs/second, or any rate
    unit used consistently across the mix); by Little's law the item
    keeps ``weight * predicted_time_s`` nodes busy on average wherever
    it is placed.
    """

    workload: str
    size_gb: float
    num_threads: int = 64
    weight: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload", _check_str("workload", self.workload).lower()
        )
        object.__setattr__(self, "size_gb", _check_size("size_gb", self.size_gb))
        object.__setattr__(
            self, "num_threads", _check_threads("num_threads", self.num_threads)
        )
        object.__setattr__(self, "weight", _check_size("weight", self.weight))

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "size_gb": self.size_gb,
            "num_threads": self.num_threads,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrafficItem":
        _require_keys(
            data,
            required=("workload", "size_gb"),
            optional=("num_threads", "weight"),
        )
        return cls(
            workload=data["workload"],
            size_gb=data["size_gb"],
            num_threads=data.get("num_threads", 64),
            weight=data.get("weight", 1.0),
        )


@dataclass(frozen=True)
class PoolEntry:
    """One machine type in the fleet pool.

    ``configs`` constrains which memory modes the planner may assign on
    this machine; empty means the paper trio (DRAM / HBM / Cache Mode),
    silently narrowed to the modes the machine's spec supports.
    """

    machine: str
    nodes: int
    configs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "machine", _canonical_pool_machine(self.machine)
        )
        object.__setattr__(self, "nodes", _check_threads("nodes", self.nodes))
        configs = self.configs
        if isinstance(configs, (str, bytes)) or not isinstance(
            configs, (list, tuple)
        ):
            raise ValidationError(f"configs must be a list, got {configs!r}")
        canonical = tuple(_canonical_config(c) for c in configs)
        if len(set(canonical)) != len(canonical):
            raise ValidationError(f"duplicate configs in {list(configs)!r}")
        object.__setattr__(self, "configs", canonical)

    def effective_configs(self) -> tuple[str, ...]:
        """The configs the planner enumerates: the explicit list, or the
        paper trio when none was given."""
        if self.configs:
            return self.configs
        from repro.core.configs import ConfigName

        return tuple(c.value for c in ConfigName.paper_trio())

    def to_dict(self) -> dict[str, Any]:
        return {
            "machine": self.machine,
            "nodes": self.nodes,
            "configs": list(self.configs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PoolEntry":
        _require_keys(
            data, required=("machine", "nodes"), optional=("configs",)
        )
        return cls(
            machine=data["machine"],
            nodes=data["nodes"],
            configs=data.get("configs", ()),
        )


@dataclass(frozen=True)
class PlanRequest:
    """The declarative capacity-planning spec."""

    mix: tuple[TrafficItem, ...]
    pool: tuple[PoolEntry, ...]
    objective: str = "runtime"

    def __post_init__(self) -> None:
        mix = self.mix
        if isinstance(mix, (str, bytes)) or not isinstance(mix, (list, tuple)):
            raise ValidationError(f"mix must be a list, got {mix!r}")
        if not mix:
            raise EmptyMixError("the traffic mix is empty: nothing to place")
        for i, item in enumerate(mix):
            if not isinstance(item, TrafficItem):
                raise ValidationError(
                    f"mix[{i}] must be a TrafficItem, got {type(item).__name__}"
                )
        object.__setattr__(self, "mix", tuple(mix))
        pool = self.pool
        if isinstance(pool, (str, bytes)) or not isinstance(
            pool, (list, tuple)
        ):
            raise ValidationError(f"pool must be a list, got {pool!r}")
        if not pool:
            raise EmptyMixError("the machine pool is empty: nowhere to place")
        for i, entry in enumerate(pool):
            if not isinstance(entry, PoolEntry):
                raise ValidationError(
                    f"pool[{i}] must be a PoolEntry, got {type(entry).__name__}"
                )
        machines = [entry.machine for entry in pool]
        if len(set(machines)) != len(machines):
            raise ValidationError(f"duplicate pool machines in {machines}")
        object.__setattr__(self, "pool", tuple(pool))
        object.__setattr__(
            self, "objective", _canonical_objective(self.objective)
        )

    def candidate_count(self) -> int:
        """How many (item, machine, config) predictions the planner must
        make — the admission-control unit, mirroring how a grid request
        counts its expanded queries."""
        per_item = sum(len(entry.effective_configs()) for entry in self.pool)
        return len(self.mix) * per_item

    def canonical_key(self) -> str:
        """A stable string identity of this request (the shard router's
        ring key) — canonicalized fields, sorted keys."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_dict(self) -> dict[str, Any]:
        return {
            "mix": [item.to_dict() for item in self.mix],
            "pool": [entry.to_dict() for entry in self.pool],
            "objective": self.objective,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanRequest":
        _require_keys(
            data, required=("mix", "pool"), optional=("objective",)
        )
        mix = data["mix"]
        if isinstance(mix, (str, bytes)) or not isinstance(mix, (list, tuple)):
            raise ValidationError(f"mix must be a list, got {mix!r}")
        pool = data["pool"]
        if isinstance(pool, (str, bytes)) or not isinstance(
            pool, (list, tuple)
        ):
            raise ValidationError(f"pool must be a list, got {pool!r}")
        return cls(
            mix=tuple(TrafficItem.from_dict(i) for i in mix),
            pool=tuple(PoolEntry.from_dict(e) for e in pool),
            objective=data.get("objective", "runtime"),
        )


@dataclass(frozen=True)
class PlanAssignment:
    """One mix item's solved placement.

    ``time_ns`` and ``metric`` are the engine's prediction for the
    chosen (machine, config) — bit-identical to a direct
    :meth:`repro.api.facade.Predictor.predict` of the same query.
    ``load_nodes`` is ``weight * time_s`` (the busy-node average the
    capacity constraint packs); ``energy_j`` prices one arrival through
    :class:`repro.engine.energy.EnergyModel`.
    """

    item: TrafficItem
    machine: str
    config: str
    time_ns: float
    metric: float
    metric_name: str
    metric_unit: str
    load_nodes: float
    energy_j: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "machine", _canonical_pool_machine(self.machine)
        )
        object.__setattr__(self, "config", _canonical_config(self.config))
        object.__setattr__(self, "time_ns", _check_size("time_ns", self.time_ns))
        object.__setattr__(self, "metric", _check_finite("metric", self.metric))
        _check_str("metric_name", self.metric_name)
        _check_str("metric_unit", self.metric_unit)
        object.__setattr__(
            self, "load_nodes", _check_non_negative("load_nodes", self.load_nodes)
        )
        object.__setattr__(
            self, "energy_j", _check_non_negative("energy_j", self.energy_j)
        )

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    def to_dict(self) -> dict[str, Any]:
        return {
            "item": self.item.to_dict(),
            "machine": self.machine,
            "config": self.config,
            "time_ns": self.time_ns,
            "metric": self.metric,
            "metric_name": self.metric_name,
            "metric_unit": self.metric_unit,
            "load_nodes": self.load_nodes,
            "energy_j": self.energy_j,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanAssignment":
        _require_keys(
            data,
            required=(
                "item",
                "machine",
                "config",
                "time_ns",
                "metric",
                "metric_name",
                "metric_unit",
                "load_nodes",
                "energy_j",
            ),
            optional=(),
        )
        return cls(
            item=TrafficItem.from_dict(data["item"]),
            machine=data["machine"],
            config=data["config"],
            time_ns=data["time_ns"],
            metric=data["metric"],
            metric_name=_check_str("metric_name", data["metric_name"]),
            metric_unit=_check_str("metric_unit", data["metric_unit"]),
            load_nodes=data["load_nodes"],
            energy_j=data["energy_j"],
        )


@dataclass(frozen=True)
class MachineLoad:
    """One pool machine's aggregate load in the solved plan."""

    machine: str
    nodes: int
    load_nodes: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "machine", _canonical_pool_machine(self.machine)
        )
        object.__setattr__(self, "nodes", _check_threads("nodes", self.nodes))
        object.__setattr__(
            self, "load_nodes", _check_non_negative("load_nodes", self.load_nodes)
        )

    @property
    def utilization(self) -> float:
        return self.load_nodes / self.nodes

    def to_dict(self) -> dict[str, Any]:
        return {
            "machine": self.machine,
            "nodes": self.nodes,
            "load_nodes": self.load_nodes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineLoad":
        _require_keys(
            data, required=("machine", "nodes", "load_nodes"), optional=()
        )
        return cls(
            machine=data["machine"],
            nodes=data["nodes"],
            load_nodes=data["load_nodes"],
        )


@dataclass(frozen=True)
class PlanResult:
    """The planner's answer: one assignment per mix item, in mix order.

    Deliberately carries **no** timestamps or elapsed times — the same
    spec planned through the CLI and through ``/v1/plan`` must produce
    byte-identical dictionaries (timing lives in the service envelope's
    ``meta``, outside this object).
    """

    assignments: tuple[PlanAssignment, ...]
    objective: str
    objective_value: float
    loads: tuple[MachineLoad, ...]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        assignments = self.assignments
        if isinstance(assignments, (str, bytes)) or not isinstance(
            assignments, (list, tuple)
        ):
            raise ValidationError(
                f"assignments must be a list, got {assignments!r}"
            )
        for i, assignment in enumerate(assignments):
            if not isinstance(assignment, PlanAssignment):
                raise ValidationError(
                    f"assignments[{i}] must be a PlanAssignment, got "
                    f"{type(assignment).__name__}"
                )
        object.__setattr__(self, "assignments", tuple(assignments))
        object.__setattr__(
            self, "objective", _canonical_objective(self.objective)
        )
        object.__setattr__(
            self,
            "objective_value",
            _check_non_negative("objective_value", self.objective_value),
        )
        loads = self.loads
        if isinstance(loads, (str, bytes)) or not isinstance(
            loads, (list, tuple)
        ):
            raise ValidationError(f"loads must be a list, got {loads!r}")
        for i, load in enumerate(loads):
            if not isinstance(load, MachineLoad):
                raise ValidationError(
                    f"loads[{i}] must be a MachineLoad, got "
                    f"{type(load).__name__}"
                )
        object.__setattr__(self, "loads", tuple(loads))

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "assignments": [a.to_dict() for a in self.assignments],
            "objective": self.objective,
            "objective_value": self.objective_value,
            "loads": [m.to_dict() for m in self.loads],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanResult":
        _require_keys(
            data,
            required=("assignments", "objective", "objective_value", "loads"),
            optional=("schema_version",),
        )
        version = check_schema_version(data.get("schema_version"))
        assignments = data["assignments"]
        if isinstance(assignments, (str, bytes)) or not isinstance(
            assignments, (list, tuple)
        ):
            raise ValidationError(
                f"assignments must be a list, got {assignments!r}"
            )
        loads = data["loads"]
        if isinstance(loads, (str, bytes)) or not isinstance(
            loads, (list, tuple)
        ):
            raise ValidationError(f"loads must be a list, got {loads!r}")
        return cls(
            assignments=tuple(
                PlanAssignment.from_dict(a) for a in assignments
            ),
            objective=data["objective"],
            objective_value=data["objective_value"],
            loads=tuple(MachineLoad.from_dict(m) for m in loads),
            schema_version=version,
        )
