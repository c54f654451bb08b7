"""The prediction service: admission, caching, coalescing, lifecycle.

:class:`PredictionService` is the protocol-independent core behind the
HTTP layer (:mod:`repro.serve.http`): it owns the TTL result cache, the
coalescer, the worker pool and the per-service metrics registry, and it
implements the request flow:

1. schema negotiation (:func:`~repro.api.types.check_schema_version`);
2. parsing — a request carries exactly one of ``query`` (one point),
   ``queries`` (a list) or ``grid`` (a dense
   :class:`~repro.api.types.QueryGrid`);
3. per-query resolution + content-addressed keying at the boundary
   (typed :mod:`repro.api.errors` surface here, never mid-batch);
4. TTL-cache lookups — hits are answered on the event loop; **each**
   constituent query counts one hit or miss, a grid of N is N lookups;
5. misses go to the coalescer (or, in the naive baseline configuration,
   one evaluation call per request) under a per-request deadline whose
   expiry cancels still-queued work;
6. results are cached and returned in submission order.

Evaluation happens on pool threads through **thread-local**
:class:`~repro.api.facade.Predictor` instances — the batch evaluator
mutates a shared simulated-OS allocator, so predictors must never be
shared across threads; the service tracks every predictor it created
and aggregates their executor stats for ``/metrics``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import repro
from repro.api.envelope import success_envelope
from repro.api.errors import (
    CapacityError,
    DeadlineExceededError,
    ValidationError,
)
from repro.api.facade import Predictor
from repro.api.plan import PlanRequest, PlanResult
from repro.api.types import (
    MACHINE_NAMES,
    PredictionResult,
    Query,
    QueryGrid,
    check_schema_version,
)
from repro.plan.planner import CapacityPlanner
from repro.obs.metrics import MetricsRegistry
from repro.serve.cache import TTLCache
from repro.serve.coalescer import Coalescer

__all__ = ["ServiceConfig", "PredictionService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Capacity and behaviour knobs of one service instance.

    The defaults suit an interactive what-if service; ``docs/SERVING.md``
    discusses how to tune them.  ``coalesce=False`` turns the service
    into the naive one-request-one-eval baseline the serve benchmark
    measures against (usually combined with ``cache_entries=0``).
    """

    machine: str = "knl7210"
    #: Identity of this instance inside a sharded deployment
    #: (:mod:`repro.serve.shard`); surfaces on ``/healthz`` and
    #: ``/version`` so operators can tell replicas apart.  Empty for a
    #: standalone service.
    replica_id: str = ""
    #: Directory of the persistent ModelTables cache
    #: (:mod:`repro.engine.table_cache`).  When set, every worker
    #: predictor loads prebuilt tables on first touch, so a restarted
    #: service answers its first queries at steady-state speed instead of
    #: paying table construction (docs/SERVING.md, "warm starts").
    table_cache_dir: str | None = None
    max_batch: int = 256
    max_queue: int = 1024
    batch_window_s: float = 0.002
    workers: int = 2
    cache_entries: int = 4096
    cache_ttl_s: float | None = 300.0
    default_deadline_s: float = 10.0
    max_request_queries: int = 4096
    coalesce: bool = True
    drain_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.machine.lower() not in MACHINE_NAMES:
            raise ValidationError(
                f"unknown machine {self.machine!r}; expected one of "
                f"{', '.join(MACHINE_NAMES)}"
            )
        for name in ("max_batch", "max_queue", "workers", "max_request_queries"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.batch_window_s < 0:
            raise ValidationError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.cache_entries < 0:
            raise ValidationError(
                f"cache_entries must be >= 0, got {self.cache_entries}"
            )
        if self.default_deadline_s <= 0:
            raise ValidationError(
                f"default_deadline_s must be positive, got "
                f"{self.default_deadline_s}"
            )


class PredictionService:
    """The coalescing what-if prediction service (protocol-independent)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self.cache: TTLCache[PredictionResult] = TTLCache(
            self.config.cache_entries, self.config.cache_ttl_s
        )
        # Resolution/keying only — never evaluates, so event-loop-only use
        # is safe alongside the pool threads' evaluating predictors.
        self._resolver = Predictor(machine=self.config.machine)
        self._tls = threading.local()
        self._predictors: list[Predictor] = []
        self._predictors_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._coalescer: Coalescer | None = None
        self._state = "created"
        self._started_monotonic: float | None = None
        #: Test seam for deterministic fault injection
        #: (:mod:`repro.serve.faults`): called on the worker thread
        #: before every evaluation.  ``None`` (production) costs one
        #: attribute read per batch.
        self.fault_hook: "Callable[[], None] | None" = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def state(self) -> str:
        """``created`` -> ``running`` -> ``draining`` -> ``stopped``."""
        return self._state

    @property
    def running(self) -> bool:
        return self._state == "running"

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    async def start(self) -> None:
        """Bring up the worker pool and the coalescer dispatchers."""
        if self._state not in ("created", "stopped"):
            raise RuntimeError(f"cannot start a service in state {self._state}")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-eval"
        )
        self._coalescer = Coalescer(
            self._evaluate_batch,
            pool=self._pool,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            dispatchers=self.config.workers,
            batch_window_s=self.config.batch_window_s,
            metrics=self.metrics,
        )
        self._coalescer.start()
        self._state = "running"
        self._started_monotonic = time.monotonic()

    async def stop(self, *, drain: bool = True) -> None:
        """Graceful shutdown: stop admitting, drain, tear down the pool.

        With ``drain=True`` (the default), queued and in-flight requests
        are given ``drain_timeout_s`` to finish before the coalescer is
        stopped; new submissions are rejected with
        :class:`~repro.api.errors.CapacityError` the moment draining
        starts.
        """
        if self._state in ("created", "stopped"):
            self._state = "stopped"
            return
        self._state = "draining"
        assert self._coalescer is not None and self._pool is not None
        if drain:
            await self._coalescer.drain(self.config.drain_timeout_s)
        await self._coalescer.stop()
        self._pool.shutdown(wait=True)
        for predictor in self._tracked_predictors():
            predictor.close()
        self._pool = None
        self._state = "stopped"

    # -- evaluation (pool threads) ---------------------------------------------
    def _worker_predictor(self) -> Predictor:
        """This thread's predictor (created and tracked on first use)."""
        predictor = getattr(self._tls, "predictor", None)
        if predictor is None:
            predictor = Predictor(
                machine=self.config.machine,
                table_cache_dir=self.config.table_cache_dir,
            )
            self._tls.predictor = predictor
            with self._predictors_lock:
                self._predictors.append(predictor)
        return predictor

    def _tracked_predictors(self) -> list[Predictor]:
        with self._predictors_lock:
            return list(self._predictors)

    def _evaluate_batch(self, queries: list[Query]) -> list[PredictionResult]:
        """One dense batch through this pool thread's predictor."""
        hook = self.fault_hook
        if hook is not None:
            hook()
        return self._worker_predictor().predict_many(queries)

    def _evaluate_one(self, query: Query) -> PredictionResult:
        """The naive baseline: one scalar evaluation per call."""
        hook = self.fault_hook
        if hook is not None:
            hook()
        return self._worker_predictor().predict(query)

    # -- request handling (event loop) ----------------------------------------
    @staticmethod
    def parse_queries(payload: Mapping[str, Any]) -> list[Query]:
        """Queries of one request body (exactly one form present)."""
        if not isinstance(payload, Mapping):
            raise ValidationError("request body must be a JSON object")
        check_schema_version(payload.get("schema_version"))
        forms = [k for k in ("query", "queries", "grid") if k in payload]
        if len(forms) != 1:
            raise ValidationError(
                "request must carry exactly one of 'query', 'queries' or "
                f"'grid' (got {forms or 'none'})"
            )
        unknown = sorted(
            set(payload) - {"schema_version", "deadline_s", forms[0]}
        )
        if unknown:
            raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
        if "query" in payload:
            return [Query.from_dict(payload["query"])]
        if "queries" in payload:
            entries = payload["queries"]
            if not isinstance(entries, Sequence) or isinstance(
                entries, (str, bytes)
            ):
                raise ValidationError("'queries' must be a list")
            if not entries:
                raise ValidationError("'queries' must not be empty")
            return [Query.from_dict(q) for q in entries]
        return list(QueryGrid.from_dict(payload["grid"]).expand())

    def _deadline_s(self, payload: Mapping[str, Any]) -> float:
        value = payload.get("deadline_s", self.config.default_deadline_s)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"deadline_s must be a number, got {value!r}")
        if value <= 0:
            raise ValidationError(f"deadline_s must be positive, got {value}")
        return float(value)

    async def handle_predict(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/v1/predict`` body with the versioned envelope."""
        started = time.perf_counter()
        queries = self.parse_queries(payload)
        deadline_s = self._deadline_s(payload)
        if len(queries) > self.config.max_request_queries:
            self.metrics.add("serve.rejected")
            raise CapacityError(
                f"request expands to {len(queries)} queries; the service "
                f"caps requests at {self.config.max_request_queries}",
                details={"max_request_queries": self.config.max_request_queries},
            )
        results, cached = await self._predict_queries(queries, deadline_s)
        self.metrics.add("serve.queries", float(len(queries)))
        self.metrics.set_gauge("serve.cache_hit_rate", self.cache.hit_rate)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        return success_envelope(
            results=[r.to_dict() for r in results],
            meta={
                "queries": len(queries),
                "cached": cached,
                "computed": len(queries) - cached,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _predict_queries(
        self, queries: Sequence[Query], deadline_s: float
    ) -> tuple[list[PredictionResult], int]:
        if self._state != "running":
            raise CapacityError(f"service is {self._state}")
        assert self._coalescer is not None and self._pool is not None
        # Content-addressed keys exist to serve the result cache; with the
        # cache disabled (the naive baseline) computing them would charge
        # that configuration for work it cannot use.
        if self.cache.enabled:
            keys = [self._resolver.cache_key(q) for q in queries]
        else:
            if self.config.coalesce:
                # Still validate at the boundary: one malformed query must
                # not fail the shared batch it would be coalesced into.
                for query in queries:
                    self._resolver.resolve(query)
            keys = [""] * len(queries)
        results: list[PredictionResult | None] = [None] * len(queries)
        miss_indices: list[int] = []
        for i, key in enumerate(keys):
            if self.cache.enabled:
                cached = self.cache.get(key)
                if cached is not None:
                    results[i] = cached.answering(queries[i])
                    continue
            miss_indices.append(i)
        hits = len(queries) - len(miss_indices)
        self.metrics.add("serve.cache_hits", float(hits))
        self.metrics.add("serve.cache_misses", float(len(miss_indices)))
        if miss_indices:
            loop = asyncio.get_running_loop()
            if self.config.coalesce:
                futures = [
                    self._coalescer.submit(queries[i], keys[i])
                    for i in miss_indices
                ]
            else:
                futures = [
                    loop.run_in_executor(
                        self._pool, self._evaluate_one, queries[i]
                    )
                    for i in miss_indices
                ]
            # One future per miss; the single-query request is the hot
            # path, so skip the gather layer for it.
            awaitable = (
                futures[0] if len(futures) == 1 else asyncio.gather(*futures)
            )
            try:
                computed = await asyncio.wait_for(awaitable, timeout=deadline_s)
            except asyncio.TimeoutError:
                for future in futures:
                    future.cancel()
                self.metrics.add("serve.deadline_exceeded")
                raise DeadlineExceededError(
                    f"deadline of {deadline_s:g}s exceeded "
                    f"({len(miss_indices)} queries pending)",
                    details={"deadline_s": deadline_s},
                ) from None
            if len(futures) == 1:
                computed = [computed]
            for i, result in zip(miss_indices, computed):
                results[i] = result
                self.cache.put(keys[i], result)
        assert all(r is not None for r in results)
        return results, hits  # type: ignore[return-value]

    # -- capacity planning (event loop + pool threads) --------------------------
    @staticmethod
    def parse_plan(payload: Mapping[str, Any]) -> PlanRequest:
        """The :class:`~repro.api.plan.PlanRequest` of one ``/v1/plan``
        body (``{"plan": {...}}`` plus the shared envelope fields)."""
        if not isinstance(payload, Mapping):
            raise ValidationError("request body must be a JSON object")
        check_schema_version(payload.get("schema_version"))
        if "plan" not in payload:
            raise ValidationError("request must carry a 'plan' object")
        unknown = sorted(set(payload) - {"schema_version", "deadline_s", "plan"})
        if unknown:
            raise ValidationError(f"unknown field(s): {', '.join(unknown)}")
        return PlanRequest.from_dict(payload["plan"])

    def _solve_plan(self, request: PlanRequest) -> PlanResult:
        """One plan solve on a pool thread, over that thread's predictor
        (so candidate evaluation shares the run/table caches every
        ``/v1/predict`` batch already warmed)."""
        hook = self.fault_hook
        if hook is not None:
            hook()
        return CapacityPlanner(self._worker_predictor()).plan(request)

    async def handle_plan(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/v1/plan`` body with the versioned envelope."""
        started = time.perf_counter()
        request = self.parse_plan(payload)
        deadline_s = self._deadline_s(payload)
        if self._state != "running":
            raise CapacityError(f"service is {self._state}")
        assert self._pool is not None
        candidates = request.candidate_count()
        if candidates > self.config.max_request_queries:
            self.metrics.add("serve.rejected")
            raise CapacityError(
                f"plan expands to {candidates} candidate queries; the "
                f"service caps requests at {self.config.max_request_queries}",
                details={"max_request_queries": self.config.max_request_queries},
            )
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._pool, self._solve_plan, request)
        try:
            result = await asyncio.wait_for(future, timeout=deadline_s)
        except asyncio.TimeoutError:
            self.metrics.add("serve.deadline_exceeded")
            raise DeadlineExceededError(
                f"deadline of {deadline_s:g}s exceeded (plan still solving)",
                details={"deadline_s": deadline_s},
            ) from None
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.metrics.add("serve.plans")
        self.metrics.observe("serve.plan_ms", elapsed_ms)
        return success_envelope(
            plan=result.to_dict(),
            meta={
                "items": len(request.mix),
                "pool": len(request.pool),
                "candidates": candidates,
                "elapsed_ms": elapsed_ms,
            },
        )

    # -- introspection endpoints ------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        health = {
            "status": "ok" if self.running else self._state,
            "state": self._state,
            "uptime_s": self.uptime_s(),
            "queue_depth": (
                0 if self._coalescer is None else self._coalescer.queue_depth
            ),
        }
        if self.config.replica_id:
            health["replica_id"] = self.config.replica_id
        return health

    def version(self) -> dict[str, Any]:
        document = success_envelope(
            service="repro.serve",
            version=repro.__version__,
            machine=self.config.machine,
            coalesce=self.config.coalesce,
        )
        if self.config.replica_id:
            document["replica_id"] = self.config.replica_id
        return document

    def executor_stats(self) -> dict[str, Any]:
        """Aggregated sweep-executor counters across every predictor the
        service created (resolver included — it never evaluates, but its
        counters prove that)."""
        predictors = self._tracked_predictors() + [self._resolver]
        stats = [p.stats() for p in predictors]
        total = {
            "hits": sum(s.hits for s in stats),
            "misses": sum(s.misses for s in stats),
            "disk_hits": sum(s.disk_hits for s in stats),
            "executed": sum(s.executed for s in stats),
            "batches": sum(s.batches for s in stats),
            "batched_cells": sum(s.batched_cells for s in stats),
            "table_cache_hits": sum(s.table_cache_hits for s in stats),
            "table_cache_misses": sum(s.table_cache_misses for s in stats),
            "table_cache_stores": sum(s.table_cache_stores for s in stats),
        }
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
        return total

    def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` document: service registry + cache +
        coalescer + executor counters."""
        coalescer = self._coalescer
        return success_envelope(
            service=self.metrics.as_dict(),
            cache=self.cache.stats(),
            coalescer={
                "enabled": self.config.coalesce,
                "submitted": 0 if coalescer is None else coalescer.submitted,
                "rejected": 0 if coalescer is None else coalescer.rejected,
                "batches": (
                    0 if coalescer is None else coalescer.dispatched_batches
                ),
                "batched_queries": (
                    0 if coalescer is None else coalescer.dispatched_queries
                ),
                "queue_depth": (
                    0 if coalescer is None else coalescer.queue_depth
                ),
            },
            executor=self.executor_stats(),
        )
