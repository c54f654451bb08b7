"""Sharded multi-replica deployment of the prediction service.

One :class:`ShardDeployment` runs N independent
:class:`~repro.serve.service.PredictionService` replicas behind a
:class:`ShardRouter` that places every query on a replica by its
**content-addressed run key** over a consistent-hash ring
(:mod:`repro.serve.ring`).  Key affinity is the whole design: a key
always lands on the same replica while that replica is healthy, so each
replica's private TTL result cache becomes one shard of a fleet-wide
cache with no cross-replica coordination, and the replicas additionally
share one persistent ModelTables directory
(:mod:`repro.engine.table_cache`) so the first replica to build a
machine's tables warms every other replica's cold start.

Data planes — two, both deriving the same ring:

* :class:`ShardRouter` — a single HTTP entry point speaking the exact
  ``repro.serve`` wire protocol (it is hosted by the unmodified
  :class:`~repro.serve.http.HttpServer` via duck typing).  It keeps a
  router-level result cache as a shared tier above the per-replica
  caches, splits each request's misses into per-owner groups, forwards
  the groups concurrently on a thread pool, and fails over along the
  ring's preference order when a replica dies mid-request.
* :class:`ShardClient` — client-side routing for benchmark-scale
  concurrency: each client thread hashes its own keys and talks to the
  owning replica directly, so the router is not a serialization point.
  Both planes derive the identical preference order from the ring, so
  they fail over to the same secondary.

Failure semantics (proved by ``tests/serve/test_faults.py``):

* deterministic request errors (validation, unknown workload,
  deadline) are **never** retried — they are properties of the request,
  not the replica;
* transport failures and poisoned answers fail over to the next ring
  preference and charge the replica's health streak
  (:class:`~repro.serve.registry.ReplicaSet`);
* :class:`~repro.api.errors.CapacityError` (a 429) spills to the next
  preference *without* a health penalty — the replica is alive, just
  full — so a hotspot overflows onto the fleet instead of failing;
* every request either completes with the bit-identical answer
  (:meth:`~repro.api.facade.Predictor.predict` is the oracle) or
  surfaces a typed :mod:`repro.api.errors` error — never a hang, never
  a malformed envelope.

Replica backends: ``thread`` (a :class:`~repro.serve.threadserver.ServerThread`
per replica in this process — what the tests and the fault harness use,
since a :class:`~repro.serve.faults.FaultInjector` can reach in-process
hooks) and ``process`` (one ``repro serve`` subprocess per replica —
what ``repro serve --replicas N`` runs; kill is a real SIGKILL).
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence, TypeVar

import repro
from repro.api.envelope import success_envelope
from repro.api.errors import (
    ApiError,
    CapacityError,
    DeadlineExceededError,
    InfeasibleConfigError,
    PlanError,
    UnknownWorkloadError,
    ValidationError,
)
from repro.api.facade import Predictor
from repro.api.types import PredictionResult, Query
from repro.obs.metrics import MetricsRegistry, merge_exports
from repro.serve.cache import TTLCache
from repro.serve.client import ServeClient
from repro.serve.faults import FaultInjector
from repro.serve.registry import ReplicaSet
from repro.serve.ring import DEFAULT_VNODES, HashRing
from repro.serve.service import PredictionService, ServiceConfig
from repro.serve.threadserver import ServerThread

__all__ = [
    "ShardConfig",
    "ShardRouter",
    "ShardClient",
    "ShardDeployment",
    "ThreadReplica",
    "ProcessReplica",
]

T = TypeVar("T")

#: Errors that are properties of the *request* (or of the global
#: deadline), not of the replica that reported them — retrying them on
#: another replica would only re-derive the same answer.
_FATAL_ERRORS = (
    ValidationError,
    UnknownWorkloadError,
    InfeasibleConfigError,
    DeadlineExceededError,
    # The whole planning taxonomy (empty mix, unknown machine,
    # infeasible plan): deterministic functions of the spec.
    PlanError,
)


@dataclass(frozen=True)
class ShardConfig:
    """Shape and behaviour of one sharded deployment."""

    #: Number of replicas to boot.
    replicas: int = 2
    #: ``thread`` (in-process ServerThreads; supports fault injection)
    #: or ``process`` (one ``repro serve`` subprocess per replica).
    backend: str = "thread"
    #: Per-replica service configuration (every replica gets a copy with
    #: its own ``replica_id``).
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Router bind address (port 0 = ephemeral).
    host: str = "127.0.0.1"
    port: int = 0
    #: Ring layout (virtual nodes per replica).
    vnodes: int = DEFAULT_VNODES
    #: Consecutive forwarding failures before a replica is marked down.
    fail_after: int = 2
    #: Active ``/healthz`` probe period; ``0`` disables active probing
    #: (passive failure detection still runs).
    probe_interval_s: float = 0.5
    #: Router forwarding pool size (each in-flight replica group holds
    #: one thread for the duration of its round trip).
    router_workers: int = 8
    #: Shared router-tier result cache (a second tier above the
    #: per-replica caches; 0 disables).
    router_cache_entries: int = 8192
    router_cache_ttl_s: float | None = 300.0
    #: Maximum replicas tried per group (ring preference order).
    max_attempts: int = 3
    #: Per-attempt time budget; ``None`` spends the full remaining
    #: request deadline on the first replica (no failover on stalls).
    attempt_timeout_s: float | None = None
    #: Share one persistent table-cache directory across all replicas
    #: when the service config does not already name one.
    share_table_cache: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise ValidationError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        for name in ("replicas", "vnodes", "fail_after", "router_workers",
                     "max_attempts"):
            if getattr(self, name) < 1:
                raise ValidationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.probe_interval_s < 0:
            raise ValidationError(
                f"probe_interval_s must be >= 0, got {self.probe_interval_s}"
            )
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValidationError(
                f"attempt_timeout_s must be positive or None, got "
                f"{self.attempt_timeout_s}"
            )
        if self.router_cache_entries < 0:
            raise ValidationError(
                f"router_cache_entries must be >= 0, got "
                f"{self.router_cache_entries}"
            )


class _ReplicaConnections:
    """One thread's keep-alive connections to the fleet's replicas, and
    the one failover loop that spends them.

    Connections are keyed by replica generation, so a restarted replica
    never inherits a socket to its dead twin.  Not thread-safe: the
    router keeps one per pool thread, a :class:`ShardClient` owns one.
    """

    def __init__(self, replicas: ReplicaSet, *, timeout: float) -> None:
        self.replicas = replicas
        self.timeout = timeout
        self._clients: dict[str, tuple[int, ServeClient]] = {}

    def get(self, replica_id: str) -> ServeClient:
        generation = self.replicas.generation(replica_id)  # KeyError if gone
        entry = self._clients.get(replica_id)
        if entry is None or entry[0] != generation:
            if entry is not None:
                entry[1].close()
            host, port = self.replicas.address(replica_id)
            entry = (generation, ServeClient(host, port, timeout=self.timeout))
            self._clients[replica_id] = entry
        return entry[1]

    def drop(self, replica_id: str) -> None:
        entry = self._clients.pop(replica_id, None)
        if entry is not None:
            entry[1].close()

    def close(self) -> None:
        for _, client in list(self._clients.values()):
            client.close()
        self._clients.clear()

    def failover(
        self,
        preferences: Sequence[str],
        call: Callable[..., T],
        argument: Any,
        *,
        deadline_at: float | None,
        attempt_timeout_s: float | None,
        metrics: MetricsRegistry | None = None,
    ) -> T:
        """``call(client, argument, deadline_s=...)`` on the first
        replica in ``preferences`` that answers (see the module docstring
        for the error classes).

        Each attempt gets the time left until ``deadline_at`` (``None``:
        the replica's default deadline), capped at ``attempt_timeout_s``
        on the socket.  ``metrics`` receives the router's counters.
        """
        count = metrics.add if metrics is not None else _no_count
        last_error: Exception | None = None
        for replica_id in preferences:
            budget, remaining = attempt_timeout_s, None
            if deadline_at is not None:
                remaining = deadline_at - time.monotonic()
                if remaining <= 0:
                    break
                budget = remaining if budget is None else min(budget, remaining)
            try:
                client = self.get(replica_id)
            except KeyError:  # deregistered while we routed
                continue
            if budget is not None:
                client.set_timeout(budget + 0.5)
            try:
                answer = call(client, argument, deadline_s=remaining)
            except _FATAL_ERRORS:
                raise
            except CapacityError as exc:
                # Alive but full (or draining): spill to the successor
                # without a health penalty.
                last_error = exc
                count("router.replica_busy", labels={"replica": replica_id})
                continue
            except (OSError, ApiError) as exc:
                # Transport death or a poisoned answer: charge the
                # replica and fail over.
                last_error = exc
                self.drop(replica_id)
                self.replicas.mark_failure(replica_id)
                count("router.failovers", labels={"replica": replica_id})
                continue
            self.replicas.mark_success(replica_id)
            count("router.forwards", labels={"replica": replica_id})
            return answer
        if deadline_at is not None and time.monotonic() >= deadline_at:
            count("router.deadline_exceeded")
            raise DeadlineExceededError(
                "deadline exceeded while failing over "
                f"(tried {list(preferences)})",
            ) from last_error
        if isinstance(last_error, ApiError):
            raise last_error
        count("router.rejected")
        raise CapacityError(
            f"no replica answered (tried {list(preferences)})",
        ) from last_error


def _no_count(*args: Any, **kwargs: Any) -> None:
    """Metrics sink for failover outside the router."""


class ShardRouter:
    """Routing front end with the PredictionService protocol surface.

    Duck-types what :class:`~repro.serve.http.HttpServer` and
    :class:`~repro.serve.threadserver.ServerThread` need — ``metrics``,
    ``running``, async ``start``/``stop``, ``handle_predict``,
    ``handle_plan``, ``healthz``/``version``/``metrics_snapshot`` — so
    the whole HTTP layer is reused unchanged.
    """

    def __init__(self, config: ShardConfig, replicas: ReplicaSet) -> None:
        self.config = config
        self.replicas = replicas
        self.metrics = MetricsRegistry()
        self.cache: TTLCache[PredictionResult] = TTLCache(
            config.router_cache_entries, config.router_cache_ttl_s
        )
        # Keying only (never evaluates) — event-loop use is safe.
        self._resolver = Predictor(machine=config.service.machine)
        self._pool: ThreadPoolExecutor | None = None
        self._probe_task: asyncio.Task[None] | None = None
        self._tls = threading.local()
        self._all_connections: list[_ReplicaConnections] = []
        self._connections_lock = threading.Lock()
        self._state = "created"
        self._started_monotonic: float | None = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def running(self) -> bool:
        return self._state == "running"

    def uptime_s(self) -> float:
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    async def start(self) -> None:
        if self._state not in ("created", "stopped"):
            raise RuntimeError(f"cannot start a router in state {self._state}")
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.router_workers,
            thread_name_prefix="shard-route",
        )
        self._state = "running"
        self._started_monotonic = time.monotonic()
        if self.config.probe_interval_s > 0:
            self._probe_task = asyncio.get_running_loop().create_task(
                self._probe_loop()
            )

    async def stop(self, *, drain: bool = True) -> None:
        if self._state in ("created", "stopped"):
            self._state = "stopped"
            return
        self._state = "draining"
        if self._probe_task is not None:
            self._probe_task.cancel()
            try:
                await self._probe_task
            except asyncio.CancelledError:
                pass
            self._probe_task = None
        pool = self._pool
        if pool is not None:
            # drain=True waits for in-flight forwards to finish their
            # round trips; drain=False abandons them (their sockets die
            # with the replicas).
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=drain)
            )
            self._pool = None
        with self._connections_lock:
            connections, self._all_connections = self._all_connections, []
        for per_thread in connections:
            per_thread.close()
        self._state = "stopped"

    # -- health probing ---------------------------------------------------------
    async def _probe_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.probe_interval_s)
            pool = self._pool
            if pool is None:
                return
            for replica_id in self.replicas.ids():
                try:
                    healthy = await loop.run_in_executor(
                        pool, self._probe_one, replica_id
                    )
                except RuntimeError:  # pool shut down mid-probe
                    return
                self.replicas.mark_probe(replica_id, healthy)
                self.metrics.add("router.probes")

    def _probe_one(self, replica_id: str) -> bool:
        try:
            host, port = self.replicas.address(replica_id)
        except KeyError:
            return False
        timeout = max(0.25, min(2.0, self.config.probe_interval_s * 2))
        try:
            with ServeClient(host, port, timeout=timeout) as client:
                return client.healthz().get("status") == "ok"
        except Exception:
            return False

    # -- request handling (event loop) ----------------------------------------
    async def handle_predict(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/v1/predict`` body with the standard envelope."""
        started = time.perf_counter()
        queries = PredictionService.parse_queries(payload)
        deadline_s = PredictionService.parse_deadline(
            payload, self.config.service.default_deadline_s
        )
        limit = self.config.service.max_request_queries
        if len(queries) > limit:
            self.metrics.add("router.rejected")
            raise CapacityError(
                f"request expands to {len(queries)} queries; the router "
                f"caps requests at {limit}",
                details={"max_request_queries": limit},
            )
        if self._state != "running":
            raise CapacityError(f"router is {self._state}")
        keys = [self._resolver.cache_key(q) for q in queries]
        results: list[PredictionResult | None] = [None] * len(queries)
        miss_indices: list[int] = []
        for i, key in enumerate(keys):
            cached = self.cache.get(key) if self.cache.enabled else None
            if cached is not None:
                results[i] = cached.answering(queries[i])
            else:
                miss_indices.append(i)
        hits = len(queries) - len(miss_indices)
        self.metrics.add("router.cache_hits", float(hits))
        self.metrics.add("router.cache_misses", float(len(miss_indices)))
        if miss_indices:
            await self._forward_misses(
                queries, keys, results, miss_indices, deadline_s
            )
        self.metrics.add("router.queries", float(len(queries)))
        self.metrics.set_gauge("router.cache_hit_rate", self.cache.hit_rate)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        assert all(r is not None for r in results)
        return success_envelope(
            results=[r.to_dict() for r in results],  # type: ignore[union-attr]
            meta={
                "queries": len(queries),
                "cached": hits,
                "computed": len(miss_indices),
                "elapsed_ms": elapsed_ms,
            },
        )

    async def handle_plan(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one ``/v1/plan`` body by forwarding the whole solve to
        one replica (chosen by the request's canonical key, so repeated
        identical specs keep landing where the candidate evaluations are
        already cached), failing over along the ring preference order."""
        started = time.perf_counter()
        request = PredictionService.parse_plan(payload)
        deadline_s = PredictionService.parse_deadline(
            payload, self.config.service.default_deadline_s
        )
        limit = self.config.service.max_request_queries
        candidates = request.candidate_count()
        if candidates > limit:
            self.metrics.add("router.rejected")
            raise CapacityError(
                f"plan expands to {candidates} candidate queries; the "
                f"router caps requests at {limit}",
                details={"max_request_queries": limit},
            )
        if self._state != "running":
            raise CapacityError(f"router is {self._state}")
        preferences = self._routable_ring().preferences(
            request.canonical_key(), self.config.max_attempts
        )
        [result] = await self._forward_all(
            [(preferences, ServeClient.plan, request)],
            deadline_s,
            "plan still solving",
        )
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.metrics.add("router.plans")
        return success_envelope(
            plan=result.to_dict(),
            meta={
                "items": len(request.mix),
                "pool": len(request.pool),
                "candidates": candidates,
                "elapsed_ms": elapsed_ms,
            },
        )

    async def _forward_misses(
        self,
        queries: Sequence[Query],
        keys: Sequence[str],
        results: list[PredictionResult | None],
        miss_indices: Sequence[int],
        deadline_s: float,
    ) -> None:
        """Group misses by ring owner, forward the groups concurrently,
        scatter the answers back in place."""
        ring = self._routable_ring()
        groups: dict[str, list[int]] = {}
        for index in miss_indices:
            groups.setdefault(ring.assign(keys[index]), []).append(index)
        answered = await self._forward_all(
            [
                (
                    ring.preferences(keys[indices[0]], self.config.max_attempts),
                    ServeClient.predict_many,
                    [queries[i] for i in indices],
                )
                for indices in groups.values()
            ],
            deadline_s,
            f"{len(miss_indices)} queries pending",
        )
        for indices, group_results in zip(groups.values(), answered):
            for index, result in zip(indices, group_results):
                results[index] = result
                self.cache.put(keys[index], result)

    def _routable_ring(self) -> HashRing:
        ring = self.replicas.ring()
        if not len(ring):
            self.metrics.add("router.rejected")
            raise CapacityError(
                "no routable replicas (all down or draining)",
                details={"replicas": self.replicas.as_dict()["replicas"]},
            )
        return ring

    async def _forward_all(
        self,
        calls: Sequence[tuple[Sequence[str], Callable[..., Any], Any]],
        deadline_s: float,
        pending: str,
    ) -> list[Any]:
        """Run ``(preferences, call, argument)`` forwards concurrently on
        the pool, all against one request deadline."""
        assert self._pool is not None
        deadline_at = time.monotonic() + deadline_s
        loop = asyncio.get_running_loop()
        futures = [
            loop.run_in_executor(self._pool, self._forward, deadline_at, *call)
            for call in calls
        ]
        try:
            return await asyncio.wait_for(
                asyncio.gather(*futures), timeout=deadline_s + 1.0
            )
        except asyncio.TimeoutError:
            self.metrics.add("router.deadline_exceeded")
            raise DeadlineExceededError(
                f"deadline of {deadline_s:g}s exceeded at the router "
                f"({pending})",
                details={"deadline_s": deadline_s},
            ) from None

    def _forward(
        self,
        deadline_at: float,
        preferences: Sequence[str],
        call: Callable[..., T],
        argument: Any,
    ) -> T:
        """One forward with failover, on a pool thread (each pool thread
        keeps its own replica connections)."""
        connections = getattr(self._tls, "connections", None)
        if connections is None:
            connections = self._tls.connections = _ReplicaConnections(
                self.replicas, timeout=60.0
            )
            with self._connections_lock:
                self._all_connections.append(connections)
        return connections.failover(
            preferences,
            call,
            argument,
            deadline_at=deadline_at,
            attempt_timeout_s=self.config.attempt_timeout_s,
            metrics=self.metrics,
        )

    # -- introspection endpoints ------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        routable = self.replicas.routable_ids()
        status = "ok" if self.running else self._state
        if self.running and not routable:
            status = "degraded"
        return {
            "status": status,
            "state": self._state,
            "role": "router",
            "uptime_s": self.uptime_s(),
            "routable": routable,
            "replica_set": self.replicas.as_dict(),
        }

    def version(self) -> dict[str, Any]:
        return success_envelope(
            service="repro.serve.shard",
            version=repro.__version__,
            machine=self.config.service.machine,
            replicas=len(self.replicas.ids()),
            coalesce=self.config.service.coalesce,
        )

    def _fetch_replica_metrics(self, replica_id: str) -> dict[str, Any]:
        host, port = self.replicas.address(replica_id)
        with ServeClient(host, port, timeout=5.0) as client:
            return client.metrics()

    async def metrics_snapshot(self) -> dict[str, Any]:
        """The ``/metrics`` document: router registry + router cache +
        per-replica snapshots + the cross-replica aggregate.

        Each replica counts its own events exactly once, so fleet totals
        are **sums over snapshots taken in this single pass** — never a
        read of one replica's registry (the stats race this design
        fixes: see :func:`repro.obs.metrics.merge_exports`).
        """
        pool = self._pool
        loop = asyncio.get_running_loop()

        async def fetch(replica_id: str) -> tuple[str, dict[str, Any]]:
            if pool is None:
                return replica_id, {"error": "router stopped"}
            try:
                snapshot = await loop.run_in_executor(
                    pool, self._fetch_replica_metrics, replica_id
                )
            except Exception as exc:
                return replica_id, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
            return replica_id, snapshot

        pairs = await asyncio.gather(
            *(fetch(rid) for rid in self.replicas.ids())
        )
        per_replica = dict(pairs)
        reachable = [s for s in per_replica.values() if "error" not in s]
        executor_total: dict[str, Any] = {}
        for snapshot in reachable:
            for name, value in snapshot.get("executor", {}).items():
                if name == "hit_rate":
                    continue
                executor_total[name] = executor_total.get(name, 0) + value
        lookups = executor_total.get("hits", 0) + executor_total.get("misses", 0)
        executor_total["hit_rate"] = (
            executor_total.get("hits", 0) / lookups if lookups else 0.0
        )
        cache_total: dict[str, Any] = {}
        for snapshot in reachable:
            for name, value in snapshot.get("cache", {}).items():
                if name in ("hit_rate", "ttl_s"):
                    continue
                cache_total[name] = cache_total.get(name, 0) + value
        cache_lookups = cache_total.get("hits", 0) + cache_total.get("misses", 0)
        cache_total["hit_rate"] = (
            cache_total.get("hits", 0) / cache_lookups if cache_lookups else 0.0
        )
        return success_envelope(
            service=self.metrics.as_dict(),
            cache=self.cache.stats(),
            replica_set=self.replicas.as_dict(),
            replicas=per_replica,
            aggregate={
                "service": merge_exports(
                    s.get("service", {}) for s in reachable
                ),
                "executor": executor_total,
                "cache": cache_total,
                "reachable": len(reachable),
            },
        )


class ThreadReplica:
    """One in-process replica: a PredictionService on a ServerThread.

    The test backend — a :class:`~repro.serve.faults.FaultInjector` can
    reach the service's evaluation hook, and :meth:`kill` aborts the
    listener and every connection exactly like a SIGKILL looks from
    outside.
    """

    backend = "thread"

    def __init__(
        self,
        replica_id: str,
        config: ServiceConfig,
        *,
        faults: FaultInjector | None = None,
    ) -> None:
        self.replica_id = replica_id
        self.service = PredictionService(config)
        if faults is not None:
            self.service.fault_hook = faults.hook_for(replica_id)
        self.thread = ServerThread(service=self.service)

    def start(self) -> tuple[str, int]:
        return self.thread.start()

    def stop(self, *, drain: bool = True) -> None:
        self.thread.stop(drain=drain)

    def kill(self) -> None:
        self.thread.kill()


class ProcessReplica:
    """One out-of-process replica: a ``repro serve`` subprocess.

    The production-shaped backend behind ``repro serve --replicas N``:
    the child binds an ephemeral port and reports it through
    ``--port-file``; :meth:`kill` is a real ``SIGKILL``, :meth:`stop`
    a ``SIGINT`` (the CLI's graceful drain path).
    """

    backend = "process"

    def __init__(self, replica_id: str, config: ServiceConfig) -> None:
        self.replica_id = replica_id
        self.config = config
        self.proc: subprocess.Popen[bytes] | None = None
        self._port_dir: str | None = None

    def _argv(self, port_file: str) -> list[str]:
        cfg = self.config
        argv = [sys.executable, "-m", "repro"]
        if cfg.table_cache_dir:
            argv += ["--table-cache", cfg.table_cache_dir]
        argv += [
            "serve",
            "--host", "127.0.0.1",
            "--port", "0",
            "--port-file", port_file,
            "--replica-id", self.replica_id,
            "--machine", cfg.machine,
            "--workers", str(cfg.workers),
            "--max-batch", str(cfg.max_batch),
            "--max-queue", str(cfg.max_queue),
            "--batch-window-ms", str(cfg.batch_window_s * 1e3),
            "--cache-entries", str(cfg.cache_entries),
            "--cache-ttl",
            "0" if cfg.cache_ttl_s is None else str(cfg.cache_ttl_s),
            "--deadline", str(cfg.default_deadline_s),
        ]
        if not cfg.coalesce:
            argv.append("--no-coalesce")
        return argv

    def start(self, *, timeout_s: float = 90.0) -> tuple[str, int]:
        if self.proc is not None:
            raise RuntimeError(f"replica {self.replica_id} already started")
        self._port_dir = tempfile.mkdtemp(
            prefix=f"repro-shard-{self.replica_id}-"
        )
        port_file = os.path.join(self._port_dir, "address")
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            self._argv(port_file),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"replica {self.replica_id} exited with code "
                    f"{self.proc.returncode} during startup"
                )
            try:
                text = open(port_file, encoding="utf-8").read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):  # the CLI writes "host port\n" atomically
                host, port = text.split()
                return host, int(port)
            time.sleep(0.02)
        raise RuntimeError(
            f"replica {self.replica_id} did not report a port within "
            f"{timeout_s:g}s"
        )

    def stop(self, *, drain: bool = True) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT if drain else signal.SIGTERM)
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
        self._cleanup()

    def kill(self) -> None:
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)

    def _cleanup(self) -> None:
        if self._port_dir is not None:
            shutil.rmtree(self._port_dir, ignore_errors=True)
            self._port_dir = None


class ShardDeployment:
    """Boot, route to, fault, and tear down a replica fleet.

    The one-stop harness: ``with ShardDeployment(cfg) as (host, port):``
    boots N replicas plus the router front end and yields the router's
    address (the standard :class:`~repro.serve.client.ServeClient`
    talks to it unmodified).  :meth:`kill_replica`,
    :meth:`drain_replica` and :meth:`restart_replica` are the fault
    harness's verbs; :meth:`stop` releases any injected faults first so
    stalled worker threads can never block interpreter exit.
    """

    def __init__(
        self,
        config: ShardConfig | None = None,
        *,
        faults: FaultInjector | None = None,
    ) -> None:
        self.config = config if config is not None else ShardConfig()
        if faults is not None and self.config.backend != "thread":
            raise ValidationError(
                "fault injection requires the 'thread' backend (hooks are "
                "in-process)"
            )
        self.faults = faults
        self.replicas = ReplicaSet(
            fail_after=self.config.fail_after, vnodes=self.config.vnodes
        )
        self.router = ShardRouter(self.config, self.replicas)
        self._router_thread = ServerThread(
            service=self.router, host=self.config.host, port=self.config.port
        )
        self._handles: dict[str, ThreadReplica | ProcessReplica] = {}
        self._tmp_table_dir: tempfile.TemporaryDirectory[str] | None = None
        self._service_config: ServiceConfig | None = None

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Boot every replica and the router; returns the router
        address."""
        if self._handles:
            raise RuntimeError("deployment already started")
        service_config = self.config.service
        if service_config.table_cache_dir is None and self.config.share_table_cache:
            # One persistent-table directory for the whole fleet: the
            # first replica to build a machine's tables warms the rest.
            self._tmp_table_dir = tempfile.TemporaryDirectory(
                prefix="repro-shard-tables-"
            )
            service_config = replace(
                service_config, table_cache_dir=self._tmp_table_dir.name
            )
        self._service_config = service_config
        for index in range(self.config.replicas):
            self._boot_replica(f"r{index}")
        return self._router_thread.start()

    def _boot_replica(self, replica_id: str) -> None:
        assert self._service_config is not None
        config = replace(self._service_config, replica_id=replica_id)
        handle: ThreadReplica | ProcessReplica
        if self.config.backend == "thread":
            handle = ThreadReplica(replica_id, config, faults=self.faults)
        else:
            handle = ProcessReplica(replica_id, config)
        host, port = handle.start()
        self._handles[replica_id] = handle
        self.replicas.register(replica_id, host, port)

    def stop(self) -> None:
        """Tear everything down (safe to call twice, or after kills)."""
        if self.faults is not None:
            self.faults.release_all()
        try:
            self._router_thread.stop()
        except Exception:
            pass
        for handle in self._handles.values():
            try:
                handle.stop(drain=False)
            except Exception:
                pass
        self._handles.clear()
        if self._tmp_table_dir is not None:
            self._tmp_table_dir.cleanup()
            self._tmp_table_dir = None

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- addresses --------------------------------------------------------------
    @property
    def router_address(self) -> tuple[str, int]:
        return self._router_thread.host, self._router_thread.port

    def addresses(self) -> dict[str, tuple[str, int]]:
        return {rid: self.replicas.address(rid) for rid in self.replicas.ids()}

    def handle(self, replica_id: str) -> ThreadReplica | ProcessReplica:
        return self._handles[replica_id]

    # -- fault-harness verbs ------------------------------------------------------
    def kill_replica(self, replica_id: str) -> None:
        """Crash-stop a replica (connections reset mid-flight).

        Deliberately does *not* touch the registry: discovering the
        death — passively through forwarding failures or actively
        through the probe loop — is exactly the behaviour under test.
        """
        self._handles[replica_id].kill()

    def drain_replica(self, replica_id: str) -> None:
        """Administratively drain: out of the ring immediately, then a
        graceful in-flight-respecting shutdown."""
        self.replicas.start_drain(replica_id)
        self._handles[replica_id].stop(drain=True)

    def restart_replica(self, replica_id: str) -> tuple[str, int]:
        """Boot a fresh instance under the same id (generation bumps, so
        pooled connections to the dead twin are discarded)."""
        handle = self._handles.pop(replica_id, None)
        if handle is not None:
            try:
                handle.kill()
            except Exception:
                pass
        self._boot_replica(replica_id)
        return self.replicas.address(replica_id)

    # -- client-side routing -------------------------------------------------------
    def shard_client(
        self,
        *,
        keyer: "Callable[[Query], str] | None" = None,
        timeout: float = 60.0,
        max_attempts: int | None = None,
    ) -> "ShardClient":
        """A routing-aware client over this deployment's live replica
        set (one per thread — clients hold sockets)."""
        return ShardClient(
            self.replicas,
            keyer=keyer,
            timeout=timeout,
            max_attempts=(
                self.config.max_attempts
                if max_attempts is None
                else max_attempts
            ),
        )


class ShardClient:
    """Client-side consistent-hash routing (no router hop).

    Benchmark-scale concurrency routes here: each client thread hashes
    its own keys against the shared :class:`~repro.serve.registry.ReplicaSet`
    and talks straight to the owning replica, failing over along the
    same ring preference order the router derives.  Not thread-safe —
    one instance per thread (it owns one socket per replica).

    ``keyer`` maps a query to its content-addressed run key; pass
    ``key=`` per call instead when keys are precomputed (the loadgen
    pool already carries them — building one keying predictor per
    client thread would dwarf the serving cost being measured).
    """

    def __init__(
        self,
        replicas: ReplicaSet,
        *,
        keyer: "Callable[[Query], str] | None" = None,
        timeout: float = 60.0,
        max_attempts: int = 3,
    ) -> None:
        if max_attempts < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.replicas = replicas
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._keyer = keyer
        self._connections = _ReplicaConnections(replicas, timeout=timeout)

    def close(self) -> None:
        self._connections.close()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- prediction --------------------------------------------------------------
    def key_for(self, query: Query) -> str:
        if self._keyer is None:
            raise ValidationError(
                "no keyer configured; pass key= per call or construct the "
                "client with keyer="
            )
        return self._keyer(query)

    def predict(
        self,
        query: Query,
        *,
        key: str | None = None,
        deadline_s: float | None = None,
    ) -> PredictionResult:
        """Answer one query on its owning replica, failing over along
        the ring preference order within ``deadline_s``."""
        run_key = key if key is not None else self.key_for(query)
        preferences = self.replicas.preferences(run_key, self.max_attempts)
        if not preferences:
            raise CapacityError("no routable replicas (all down or draining)")
        return self._connections.failover(
            preferences,
            ServeClient.predict,
            query,
            deadline_at=(
                None if deadline_s is None else time.monotonic() + deadline_s
            ),
            attempt_timeout_s=self.timeout,
        )
