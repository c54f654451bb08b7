"""The typed wire/Python contract of the prediction API.

Every consumer — the asyncio service (:mod:`repro.serve`), its stdlib
client, the CLI and the batch engine — speaks these four frozen
dataclasses and nothing else:

* :class:`Query` — one what-if point: workload, problem size, memory
  configuration, thread count, machine preset;
* :class:`QueryGrid` — the dense cross-product form (the natural unit
  for the columnar :class:`~repro.engine.batch.BatchEvaluator`);
* :class:`PredictionResult` — the answer for one query, either a metric
  or a structured :class:`ErrorInfo` (modelled infeasibility is data,
  never an exception across the wire);
* :class:`ErrorInfo` — the wire form of the
  :mod:`repro.api.errors` taxonomy.

``to_dict``/``from_dict`` are exact inverses and the dictionaries are
JSON-ready; :data:`SCHEMA_VERSION` stamps every envelope so clients and
servers can negotiate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.api.errors import SchemaVersionError, ValidationError
from repro.machine.registry import names as _registry_names

#: Version of the wire schema.  Bump on any incompatible change to the
#: dataclasses below or to the service envelopes built from them.
#: Version 2 added registry machines beyond the two KNL presets; version
#: 3 added the capacity-planner surface (:mod:`repro.api.plan` and
#: ``/v1/plan``).  Both were pure additions — earlier payloads remain
#: valid — so all three versions are negotiable.
SCHEMA_VERSION = 3

#: Versions this build accepts on incoming payloads.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

#: Machine presets a query may name — every key in the machine registry
#: (:mod:`repro.machine.registry`).
MACHINE_NAMES = _registry_names()

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "MACHINE_NAMES",
    "ErrorInfo",
    "Query",
    "QueryGrid",
    "PredictionResult",
    "check_schema_version",
]


def check_schema_version(value: Any) -> int:
    """Validate a declared schema version (missing -> current).

    Any member of :data:`SUPPORTED_SCHEMA_VERSIONS` is accepted, so a
    version-1 client keeps working against a version-2 build.
    """
    if value is None:
        return SCHEMA_VERSION
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(
            f"schema_version must be an integer, got {value!r}"
        )
    if value not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaVersionError(
            f"unsupported schema_version {value}; this build speaks "
            f"{SCHEMA_VERSION}",
            details={"supported": list(SUPPORTED_SCHEMA_VERSIONS)},
        )
    return value


def _require_keys(
    data: Mapping[str, Any], *, required: tuple[str, ...], optional: tuple[str, ...]
) -> None:
    if not isinstance(data, Mapping):
        raise ValidationError(f"expected a mapping, got {type(data).__name__}")
    missing = [k for k in required if k not in data]
    if missing:
        raise ValidationError(f"missing required field(s): {', '.join(missing)}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown field(s): {', '.join(unknown)}")


def _check_str(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _check_size(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    size = float(value)
    if not 0.0 < size < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return size


def _check_threads(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")
    return value


@functools.cache
def _config_aliases() -> tuple[dict[str, str], str]:
    """Lower-cased alias -> ``ConfigName`` value, and the options text.

    Aliases are entered in enum order and never overwritten, so a lookup
    answers what a walk over the enum returning the first member whose
    lower-cased name or value matches would answer.
    """
    from repro.core.configs import ConfigName

    aliases: dict[str, str] = {}
    for member in ConfigName:
        aliases.setdefault(member.name.lower(), member.value)
        aliases.setdefault(member.value.lower(), member.value)
    return aliases, ", ".join(n.value for n in ConfigName)


def _canonical_config(value: Any) -> str:
    """Canonicalize a configuration name to the ``ConfigName`` value.

    Accepts the enum member name (``"CACHE"``) or its value
    (``"Cache Mode"``), case-insensitively, so wire clients never need
    the Python enum.
    """
    text = _check_str("config", value)
    aliases, options = _config_aliases()
    canonical = aliases.get(text.lower())
    if canonical is None:
        raise ValidationError(
            f"unknown config {value!r}; expected one of {options}"
        )
    return canonical


def _canonical_machine(value: Any) -> str:
    text = _check_str("machine", value).lower()
    if text not in MACHINE_NAMES:
        raise ValidationError(
            f"unknown machine {value!r}; expected one of "
            f"{', '.join(MACHINE_NAMES)}"
        )
    return text


@dataclass(frozen=True)
class ErrorInfo:
    """Structured wire form of one API error.

    ``code`` is a stable identifier from :mod:`repro.api.errors`
    (e.g. ``"infeasible_config"`` for the paper's Fig. 4 missing bars);
    ``message`` is human-readable; ``details`` carries optional
    machine-readable context.
    """

    code: str
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_str("code", self.code)
        _check_str("message", self.message)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            data["details"] = dict(self.details)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorInfo":
        _require_keys(
            data, required=("code", "message"), optional=("details",)
        )
        details = data.get("details", {})
        if not isinstance(details, Mapping):
            raise ValidationError(
                f"details must be a mapping, got {type(details).__name__}"
            )
        return cls(
            code=_check_str("code", data["code"]),
            message=_check_str("message", data["message"]),
            details=dict(details),
        )


@dataclass(frozen=True)
class Query:
    """One what-if question: *how fast is this workload, at this size,
    under this memory configuration, with this many threads, on this
    machine?*

    Fields are canonicalized at construction (workload and machine
    lowercased, config normalized to the
    :class:`~repro.core.configs.ConfigName` value), so two queries that
    mean the same thing compare and hash equal — which is what the
    serving layer's coalescer and result cache key on.
    """

    workload: str
    size_gb: float
    config: str
    num_threads: int = 64
    machine: str = "knl7210"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "workload", _check_str("workload", self.workload).lower()
        )
        object.__setattr__(self, "size_gb", _check_size("size_gb", self.size_gb))
        object.__setattr__(self, "config", _canonical_config(self.config))
        object.__setattr__(
            self, "num_threads", _check_threads("num_threads", self.num_threads)
        )
        object.__setattr__(self, "machine", _canonical_machine(self.machine))

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "size_gb": self.size_gb,
            "config": self.config,
            "num_threads": self.num_threads,
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Query":
        _require_keys(
            data,
            required=("workload", "size_gb", "config"),
            optional=("num_threads", "machine"),
        )
        return cls(
            workload=data["workload"],
            size_gb=data["size_gb"],
            config=data["config"],
            num_threads=data.get("num_threads", 64),
            machine=data.get("machine", "knl7210"),
        )


def _check_tuple(name: str, values: Any, check: Any) -> tuple[Any, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {values!r}")
    if not values:
        raise ValidationError(f"{name} must not be empty")
    return tuple(check(f"{name}[{i}]", v) for i, v in enumerate(values))


@dataclass(frozen=True)
class QueryGrid:
    """A dense cross-product of queries — the batch engine's native unit.

    :meth:`expand` enumerates the grid in a fixed nested order
    (workload, size, config, threads), which is also the order of the
    results the service returns for a grid request.
    """

    workloads: tuple[str, ...]
    sizes_gb: tuple[float, ...]
    configs: tuple[str, ...]
    num_threads: tuple[int, ...] = (64,)
    machine: str = "knl7210"

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "workloads",
            _check_tuple(
                "workloads",
                self.workloads,
                lambda n, v: _check_str(n, v).lower(),
            ),
        )
        object.__setattr__(
            self, "sizes_gb", _check_tuple("sizes_gb", self.sizes_gb, _check_size)
        )
        object.__setattr__(
            self,
            "configs",
            _check_tuple(
                "configs", self.configs, lambda n, v: _canonical_config(v)
            ),
        )
        object.__setattr__(
            self,
            "num_threads",
            _check_tuple("num_threads", self.num_threads, _check_threads),
        )
        object.__setattr__(self, "machine", _canonical_machine(self.machine))

    def __len__(self) -> int:
        return (
            len(self.workloads)
            * len(self.sizes_gb)
            * len(self.configs)
            * len(self.num_threads)
        )

    def expand(self) -> tuple[Query, ...]:
        """All grid points, workload-major (workload, size, config,
        threads)."""
        return tuple(
            Query(
                workload=w,
                size_gb=s,
                config=c,
                num_threads=t,
                machine=self.machine,
            )
            for w in self.workloads
            for s in self.sizes_gb
            for c in self.configs
            for t in self.num_threads
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workloads": list(self.workloads),
            "sizes_gb": list(self.sizes_gb),
            "configs": list(self.configs),
            "num_threads": list(self.num_threads),
            "machine": self.machine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryGrid":
        _require_keys(
            data,
            required=("workloads", "sizes_gb", "configs"),
            optional=("num_threads", "machine"),
        )
        return cls(
            workloads=data["workloads"],
            sizes_gb=data["sizes_gb"],
            configs=data["configs"],
            num_threads=data.get("num_threads", (64,)),
            machine=data.get("machine", "knl7210"),
        )


@dataclass(frozen=True)
class PredictionResult:
    """The answer for one :class:`Query`.

    Exactly one of ``metric`` / ``error`` is set.  A feasible prediction
    carries the workload's paper metric (``metric_name`` in
    ``metric_unit``) and the modelled wall time ``time_ns``; an
    infeasible cell carries a structured :class:`ErrorInfo` instead —
    the wire twin of :attr:`repro.core.runner.RunRecord.infeasible_reason`.
    """

    query: Query
    metric: float | None
    metric_name: str
    metric_unit: str
    time_ns: float | None = None
    error: ErrorInfo | None = None
    schema_version: int = SCHEMA_VERSION

    @property
    def feasible(self) -> bool:
        return self.metric is not None

    def answering(self, query: Query) -> "PredictionResult":
        """This result with ``query`` echoed back.

        Distinct queries can share a run key (two MiniFE sizes that
        round to one grid), so a cached answer must be re-stamped with
        the query actually asked before it is returned.
        """
        return self if self.query == query else replace(self, query=query)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "schema_version": self.schema_version,
            "query": self.query.to_dict(),
            "metric": self.metric,
            "metric_name": self.metric_name,
            "metric_unit": self.metric_unit,
            "time_ns": self.time_ns,
        }
        if self.error is not None:
            data["error"] = self.error.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PredictionResult":
        _require_keys(
            data,
            required=("query", "metric", "metric_name", "metric_unit"),
            optional=("time_ns", "error", "schema_version"),
        )
        version = check_schema_version(data.get("schema_version"))
        metric = data["metric"]
        if metric is not None and (
            isinstance(metric, bool) or not isinstance(metric, (int, float))
        ):
            raise ValidationError(f"metric must be a number or null, got {metric!r}")
        error = data.get("error")
        return cls(
            query=Query.from_dict(data["query"]),
            metric=None if metric is None else float(metric),
            metric_name=_check_str("metric_name", data["metric_name"]),
            metric_unit=_check_str("metric_unit", data["metric_unit"]),
            time_ns=data.get("time_ns"),
            error=None if error is None else ErrorInfo.from_dict(error),
            schema_version=version,
        )

    @classmethod
    def from_record(cls, query: Query, record: Any) -> "PredictionResult":
        """Build the wire result from a scalar
        :class:`~repro.core.runner.RunRecord` (or a batch record, which
        is bit-identical by the PR-4 contract)."""
        error = None
        if record.infeasible_reason is not None:
            error = ErrorInfo(
                code="infeasible_config",
                message=record.infeasible_reason,
            )
        run = record.run_result
        return cls(
            query=query,
            metric=record.metric,
            metric_name=record.metric_name,
            metric_unit=record.metric_unit,
            time_ns=None if run is None else run.time_ns,
            error=error,
        )
