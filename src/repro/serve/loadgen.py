"""Closed-loop load generator and benchmark for the prediction service.

Boots two in-process servers — the real coalescing service and the naive
one-request-one-eval baseline (``coalesce=False``, cache disabled) —
drives each with the same population of **distinct** what-if queries
from N concurrent clients, and reports throughput and latency
percentiles per phase:

* ``coalesced`` — cold keys against the coalescing server: every query
  is a model evaluation, but concurrent requests merge into dense
  columnar batches;
* ``hot_cache`` — the same keys again: served from the TTL result cache
  on the event loop, no evaluation at all;
* ``naive`` — the same cold keys against the baseline server: one
  scalar evaluation per request, the pre-serve cost model.

The measurement-hygiene decision that matters most: **the pool is
shaped like real what-if traffic.**  Queries share a small basis of
(workload, size) profiles and fan out across memory configs and thread
counts — the shape of "how should *my* app be placed?" exploration.
Keys are still pairwise distinct (verified by content-addressed run
key, with quantizing size constructors deduplicated), so no result
cache can hide evaluation cost in the cold phases; warmup uses a
key-disjoint slice of the same generator.  Clients are keep-alive
threads in this process, one connection each, released together by a
barrier.

One closed-loop driver, :func:`run_closed_loop`, runs every phase —
single-service and sharded alike.  Each client slot gets its own client
and a send function (:func:`service_slots` sends through
:meth:`~repro.serve.client.ServeClient.predict`, :func:`shard_slots`
through :meth:`~repro.serve.shard.ShardClient.predict`); the driver owns
the barrier, per-request latency, 429 backoff and the accounting.

Every phase's responses are checked bit-identical against direct scalar
:mod:`repro.api` evaluation (and, in the smoke harness, against a
:class:`~repro.checks.checker.CheckingRunner` in ``raise`` mode), which
is the acceptance bar: coalescing and caching may only change *when*
work happens, never the answer.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.api.errors import ApiError, CapacityError
from repro.api.facade import Predictor
from repro.api.types import PredictionResult, Query
from repro.serve.client import ServeClient
from repro.serve.registry import ReplicaSet
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardClient, ShardConfig, ShardDeployment
from repro.serve.threadserver import ServerThread

__all__ = [
    "PhaseRecord",
    "build_query_pool",
    "build_keyed_pool",
    "run_closed_loop",
    "service_slots",
    "shard_slots",
    "verify_identity",
    "measure_serve",
    "measure_serve_sharded",
    "run_smoke",
    "serve_history_row",
    "sharded_history_row",
]

#: (workload, base size) profile basis — few profiles, shared by many
#: queries, exactly like a user sweeping placements for their own app.
_POOL_BASIS = (
    ("dgemm", 2.0),
    ("dgemm", 4.0),
    ("dgemm", 8.0),
    ("minife", 3.0),
    ("minife", 6.0),
    ("minife", 9.0),
    ("xsbench", 2.5),
    ("xsbench", 5.0),
)
_POOL_CONFIGS = ("DRAM", "HBM", "Cache Mode", "Interleave")
_POOL_THREADS = tuple(range(8, 257, 8))
_POOL_CYCLE = len(_POOL_BASIS) * len(_POOL_CONFIGS) * len(_POOL_THREADS)

#: ``(connect, send)``: how each :func:`run_closed_loop` slot builds its
#: client and answers one item with it.
Slots = tuple[Callable[[], Any], Callable[[Any, Any], PredictionResult]]


@dataclass(frozen=True)
class PhaseRecord:
    """Measured outcome of one closed-loop phase.

    The headline number is **goodput** — successfully answered requests
    per second of wall clock — because a phase may run the target *into
    overload*: clients that draw a 429 back off and retry until their
    request deadline, so a deployment whose admission capacity is below
    the offered concurrency spends wall clock in reject/backoff churn
    that goodput (unlike raw request throughput) refuses to count.
    """

    name: str
    concurrency: int
    offered: int
    succeeded: int
    failed: int
    #: 429-driven re-submissions (each is one extra round trip).
    retries: int
    seconds: float
    goodput_rps: float
    p50_ms: float
    p99_ms: float
    max_ms: float

    @property
    def success_rate(self) -> float:
        return self.succeeded / self.offered if self.offered else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "concurrency": self.concurrency,
            "offered": self.offered,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "retries": self.retries,
            "seconds": self.seconds,
            "goodput_rps": self.goodput_rps,
            "success_rate": self.success_rate,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }

    def describe(self) -> str:
        return (
            f"{self.name}: {self.succeeded}/{self.offered} ok "
            f"(+{self.retries} retries) in {self.seconds:.2f}s = "
            f"{self.goodput_rps:.0f} rps goodput "
            f"(p50 {self.p50_ms:.1f} ms, p99 {self.p99_ms:.1f} ms)"
        )


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


def build_keyed_pool(
    count: int, *, predictor: Predictor | None = None
) -> list[tuple[Query, str]]:
    """``count`` ``(query, run_key)`` pairs with pairwise-distinct
    content-addressed keys.

    The sweep walks the profile basis fastest, then configs, then thread
    counts, then (past one full cycle) shifts the size axis — so a
    prefix of the pool covers every (profile, config) pair early, which
    is what warmup slicing relies on.  Candidates whose size quantizes
    onto an already-used key (MiniFE rounds to a mesh dimension, XSBench
    to a gridpoint count) are skipped.

    The keys are what the dedup already computes; carrying them out lets
    the sharded loadgen route client-side without building a keying
    predictor per client thread.
    """
    predictor = predictor if predictor is not None else Predictor()
    pairs: list[tuple[Query, str]] = []
    seen: set[str] = set()
    index = 0
    while len(pairs) < count:
        workload, base_size = _POOL_BASIS[index % len(_POOL_BASIS)]
        config = _POOL_CONFIGS[(index // len(_POOL_BASIS)) % len(_POOL_CONFIGS)]
        threads = _POOL_THREADS[
            (index // (len(_POOL_BASIS) * len(_POOL_CONFIGS)))
            % len(_POOL_THREADS)
        ]
        size_gb = round(base_size + 0.37 * (index // _POOL_CYCLE), 4)
        index += 1
        query = Query(
            workload=workload,
            size_gb=size_gb,
            config=config,
            num_threads=threads,
        )
        key = predictor.cache_key(query)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((query, key))
    return pairs


def build_query_pool(
    count: int, *, predictor: Predictor | None = None
) -> list[Query]:
    """``count`` queries with pairwise-distinct content-addressed keys
    (see :func:`build_keyed_pool`)."""
    return [query for query, _ in build_keyed_pool(count, predictor=predictor)]


def _partition(items: Sequence[Any], clients: int) -> list[list[Any]]:
    """Deal items round-robin over ``clients`` slots (empty slots are
    dropped)."""
    partitions: list[list[Any]] = [[] for _ in range(clients)]
    for i, item in enumerate(items):
        partitions[i % clients].append(item)
    return [p for p in partitions if p]


def run_closed_loop(
    name: str,
    partitions: Sequence[Sequence[Any]],
    connect: Callable[[], Any],
    send: Callable[[Any, Any], PredictionResult],
    *,
    request_deadline_s: float = 120.0,
    backoff_base_s: float = 0.05,
    backoff_cap_s: float = 0.8,
) -> tuple[PhaseRecord, list[PredictionResult]]:
    """One closed loop: one client thread per partition, one request per
    item.

    Each thread builds its client with ``connect()`` (a context manager),
    then a barrier releases them all; ``send(client, item)`` answers one
    item.  A 429 (:class:`~repro.api.errors.CapacityError`) is retried
    with jittered exponential backoff until success or
    ``request_deadline_s``; any other typed or transport error fails the
    request.  A slot whose ``connect()`` fails counts all its items as
    failed and still releases the barrier, so a phase always ends with
    ``offered == succeeded + failed``.  Latency is measured per request,
    retries included — the closed-loop cost a caller pays.

    Returns the phase record plus every response (thread-major, in
    request order) for identity verification.
    """
    barrier = threading.Barrier(len(partitions) + 1)
    latencies_ms: list[list[float]] = [[] for _ in partitions]
    responses: list[list[PredictionResult]] = [[] for _ in partitions]
    failed = [0] * len(partitions)
    retries = [0] * len(partitions)

    def client_loop(slot: int, items: Sequence[Any]) -> None:
        rng = random.Random(0xC0FFEE + slot)  # deterministic jitter
        client = None
        try:
            client = connect()
        except (ApiError, OSError):
            failed[slot] = len(items)
        finally:
            barrier.wait()
        if client is None:
            return
        with client:
            for item in items:
                started = time.perf_counter()
                give_up_at = time.monotonic() + request_deadline_s
                attempt = 0
                while True:
                    try:
                        result = send(client, item)
                    except CapacityError:
                        if time.monotonic() >= give_up_at:
                            failed[slot] += 1
                            break
                        retries[slot] += 1
                        pause = min(
                            backoff_cap_s, backoff_base_s * (2.0 ** attempt)
                        ) * (0.5 + rng.random())
                        attempt += 1
                        time.sleep(pause)
                        continue
                    except (ApiError, OSError):
                        failed[slot] += 1
                        break
                    latencies_ms[slot].append(
                        (time.perf_counter() - started) * 1e3
                    )
                    responses[slot].append(result)
                    break

    threads = [
        threading.Thread(
            target=client_loop, args=(i, items), name=f"loadgen-{i}"
        )
        for i, items in enumerate(partitions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    flat = sorted(lat for bucket in latencies_ms for lat in bucket)
    phase = PhaseRecord(
        name=name,
        concurrency=len(partitions),
        offered=sum(len(p) for p in partitions),
        succeeded=len(flat),
        failed=sum(failed),
        retries=sum(retries),
        seconds=seconds,
        goodput_rps=len(flat) / seconds if seconds else 0.0,
        p50_ms=_percentile(flat, 0.50),
        p99_ms=_percentile(flat, 0.99),
        max_ms=flat[-1] if flat else 0.0,
    )
    return phase, [r for bucket in responses for r in bucket]


def service_slots(
    host: str, port: int, *, deadline_s: float = 120.0
) -> Slots:
    """``(connect, send)`` for :func:`run_closed_loop` against one
    service: a keep-alive :class:`ServeClient` per slot, one query per
    request."""

    def connect() -> ServeClient:
        client = ServeClient(host, port, timeout=deadline_s + 30.0)
        client.healthz()  # establish the keep-alive connection
        return client

    def send(client: ServeClient, query: Query) -> PredictionResult:
        return client.predict(query, deadline_s=deadline_s)

    return connect, send


def shard_slots(
    replicas: ReplicaSet,
    *,
    deadline_s: float = 60.0,
    timeout_s: float = 90.0,
    max_attempts: int = 4,
) -> Slots:
    """``(connect, send)`` for :func:`run_closed_loop` against a sharded
    fleet: each slot routes its ``(query, run_key)`` items client-side
    (:class:`~repro.serve.shard.ShardClient` over the deployment's live
    replica set, so routing and failover see health transitions
    mid-phase)."""

    def connect() -> ShardClient:
        return ShardClient(
            replicas, timeout=timeout_s, max_attempts=max_attempts
        )

    def send(client: ShardClient, item: tuple[Query, str]) -> PredictionResult:
        query, key = item
        return client.predict(query, key=key, deadline_s=deadline_s)

    return connect, send


def _warmup(host: str, port: int, queries: Sequence[Query], clients: int) -> None:
    """Boot profiles and per-thread model tables on the target server."""
    run_closed_loop(
        "warmup", _partition(queries, clients), *service_slots(host, port)
    )


def verify_identity(
    responses: Sequence[PredictionResult], sample: int
) -> dict[str, Any]:
    """Served results vs direct scalar facade evaluation, bit for bit."""
    oracle = Predictor()
    step = max(1, len(responses) // sample) if responses else 1
    checked = 0
    mismatches = 0
    for response in list(responses)[::step][:sample]:
        direct = oracle.predict(response.query)
        checked += 1
        if direct != response:
            mismatches += 1
    return {
        "checked": checked,
        "mismatches": mismatches,
        "bit_identical": mismatches == 0,
    }


def _best(phases: Sequence[PhaseRecord]) -> PhaseRecord:
    return max(phases, key=lambda p: p.goodput_rps)


def measure_serve(
    *,
    clients: int = 64,
    requests_per_client: int = 8,
    workers: int = 2,
    max_batch: int = 256,
    repeats: int = 3,
    identity_sample: int = 64,
) -> dict[str, Any]:
    """The serve benchmark: coalesced vs hot-cache vs naive.

    Returns the ``BENCH_serve.json`` document (see module docstring for
    the phases).  ``clients`` is the closed-loop concurrency; every
    client issues ``requests_per_client`` single-query requests.
    Warmup and measurement are key-disjoint slices of one deduplicated
    pool, and each cold repeat gets its own slice, so cold phases
    evaluate every query.  Every phase runs ``repeats`` times and the
    best run is reported (the usual guard against interference noise on
    a shared box); the naive server replays the same slices, so both
    sides see identical traffic.
    """
    repeats = max(1, repeats)
    total = clients * requests_per_client
    warm_count = 2 * len(_POOL_BASIS) * len(_POOL_CONFIGS)
    pool = build_query_pool(warm_count + repeats * total)
    warmup = pool[:warm_count]
    slices = [
        pool[warm_count + i * total : warm_count + (i + 1) * total]
        for i in range(repeats)
    ]
    partition_sets = [_partition(s, clients) for s in slices]

    coalesced_config = ServiceConfig(
        workers=workers, max_batch=max_batch, max_queue=max(1024, 4 * total)
    )
    naive_config = ServiceConfig(
        workers=workers,
        max_queue=max(1024, 4 * total),
        coalesce=False,
        cache_entries=0,
    )

    responses: list[PredictionResult] = []
    coalesced_runs: list[PhaseRecord] = []
    hot_runs: list[PhaseRecord] = []
    naive_runs: list[PhaseRecord] = []
    with ServerThread(coalesced_config) as server:
        slots = service_slots(server.host, server.port)
        _warmup(server.host, server.port, warmup, clients)
        for partitions in partition_sets:
            phase, run_responses = run_closed_loop(
                "coalesced", partitions, *slots
            )
            coalesced_runs.append(phase)
            responses.extend(run_responses)
        for _ in range(repeats):  # repeated keys: served from the TTL cache
            phase, run_responses = run_closed_loop(
                "hot_cache", partition_sets[-1], *slots
            )
            hot_runs.append(phase)
        responses.extend(run_responses)
        snapshot = server.service.metrics_snapshot()
    with ServerThread(naive_config) as server:
        slots = service_slots(server.host, server.port)
        _warmup(server.host, server.port, warmup, clients)
        for partitions in partition_sets:
            phase, _ = run_closed_loop("naive", partitions, *slots)
            naive_runs.append(phase)

    coalesced, hot, naive = _best(coalesced_runs), _best(hot_runs), _best(naive_runs)
    batches = snapshot["coalescer"]["batches"]
    batched = snapshot["coalescer"]["batched_queries"]
    identity = verify_identity(responses, identity_sample)
    return {
        "concurrency": clients,
        "requests_per_client": requests_per_client,
        "total_requests": total,
        "unique_queries": repeats * total,
        "workers": workers,
        "max_batch": max_batch,
        "repeats": repeats,
        "coalesced": coalesced.as_dict(),
        "hot_cache": hot.as_dict(),
        "naive": naive.as_dict(),
        "coalesced_runs_rps": [round(p.goodput_rps, 1) for p in coalesced_runs],
        "naive_runs_rps": [round(p.goodput_rps, 1) for p in naive_runs],
        "speedup_coalesced_vs_naive": (
            coalesced.goodput_rps / naive.goodput_rps
            if naive.goodput_rps
            else 0.0
        ),
        "speedup_hot_vs_naive": (
            hot.goodput_rps / naive.goodput_rps if naive.goodput_rps else 0.0
        ),
        "coalescing": {
            "batches": batches,
            "batched_queries": batched,
            "mean_batch_size": batched / batches if batches else 0.0,
        },
        "identity": identity,
    }


def run_smoke(
    *,
    clients: int = 50,
    requests_per_client: int = 4,
    workers: int = 2,
    p99_bound_ms: float = 5000.0,
    check_sample: int = 16,
) -> dict[str, Any]:
    """The CI smoke: boot, drive concurrent queries, bound p99, audit
    served results against the invariant checker.

    Raises ``AssertionError`` on any failure (failed or retried
    requests, p99 over bound, non-identical results, invariant
    violations).
    """
    from repro.api.facade import sized_workload
    from repro.checks.checker import CheckingRunner
    from repro.core.configs import ConfigName

    total = clients * requests_per_client
    pool = build_query_pool(total)
    with ServerThread(ServiceConfig(workers=workers)) as server:
        phase, responses = run_closed_loop(
            "smoke",
            _partition(pool, clients),
            *service_slots(server.host, server.port),
        )
        health = server.service.healthz()
    assert phase.failed == 0, f"{phase.failed} failed requests"
    # A 429 is retried by the driver, so it would not show as a failure.
    assert phase.retries == 0, f"{phase.retries} requests drew a 429"
    assert phase.succeeded == total, f"served {phase.succeeded}/{total}"
    assert (
        phase.p99_ms <= p99_bound_ms
    ), f"p99 {phase.p99_ms:.0f} ms over bound {p99_bound_ms:.0f} ms"
    identity = verify_identity(responses, check_sample)
    assert identity["bit_identical"], f"identity mismatches: {identity}"
    # Invariant audit: re-evaluate a sample under CheckingRunner(raise) —
    # it throws on any violated invariant — and pin the served metric to
    # the audited record's, bit for bit.
    checker = CheckingRunner(mode="raise")
    step = max(1, len(responses) // check_sample)
    audited = 0
    for response in responses[::step][:check_sample]:
        query = response.query
        record = checker.run(
            sized_workload(query.workload, query.size_gb),
            ConfigName(query.config),
            query.num_threads,
        )
        assert record.metric == response.metric, (
            f"served metric {response.metric!r} != checked {record.metric!r} "
            f"for {query}"
        )
        audited += 1
    return {
        "phase": phase.as_dict(),
        "health_after": health,
        "identity": identity,
        "invariant_audited": audited,
        "checked_runs": checker.runs_checked,
        "violations": checker.violation_count,
    }


# -- sharded deployment benchmark ------------------------------------------------


def measure_serve_sharded(
    *,
    replica_counts: Sequence[int] = (1, 2, 4),
    concurrency: int = 1024,
    requests_per_client: int = 4,
    workers: int = 1,
    max_queue: int = 256,
    backend: str = "process",
    machine: str = "knl7210",
    identity_sample: int = 64,
    backoff_base_s: float = 0.05,
    backoff_cap_s: float = 0.8,
    request_deadline_s: float = 120.0,
) -> dict[str, Any]:
    """The sharded-deployment benchmark: the replica scaling curve under
    overload, plus the hot cache-affinity phase.

    Measurement framing (documented because it is the honest part): the
    replicas share the host's cores, so aggregate *goodput* scales with
    N only up to ``os.cpu_count()`` — beyond that the closed-loop
    clients self-stabilize at the shared compute ceiling and the curve
    goes flat.  What sharding buys at high concurrency regardless of
    core count is **admission capacity**: each replica carries a fixed
    bounded queue (``max_queue``), so a fleet whose aggregate queue
    covers the offered concurrency admits every request outright, while
    a single replica bounces the excess into 429/backoff churn.  The
    recorded curve therefore carries three metrics per replica count —
    goodput, p99 latency, and 429 retries — and the scaling section
    reports both the goodput ratio and the tail-latency ratio.  On a
    host with fewer cores than replicas the admission curve (retries
    collapsing to zero once the aggregate queue covers the offered
    concurrency) is the signal that survives: goodput pins at the
    compute ceiling and p99 is scheduler-noise dominated, which is why
    ``host_cpu_count`` is recorded alongside.  The ``hot_cache`` phase
    replays the same keys to show key-affinity turning the per-replica
    caches into one fleet-wide cache (every replica serves only its
    ring share).

    Every replica count replays the *same* keyed pool against a fresh
    deployment (cold caches each time); all deployments share one
    persistent table-cache directory, so model-table construction is
    paid once by the first fleet, not per replica.  Results from the
    largest fleet are audited bit-identical against direct scalar
    evaluation.
    """
    import os
    import tempfile

    from repro.cluster.multinode import scaling_efficiency

    if not replica_counts:
        raise ValueError("replica_counts must be non-empty")
    total = concurrency * requests_per_client
    predictor = Predictor(machine=machine)
    pool = build_keyed_pool(total, predictor=predictor)
    partitions = _partition(pool, concurrency)

    backoff = dict(
        request_deadline_s=request_deadline_s,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=backoff_cap_s,
    )
    overload: dict[int, PhaseRecord] = {}
    hot: dict[int, PhaseRecord] = {}
    identity: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-tables-") as tables:
        service = ServiceConfig(
            machine=machine,
            workers=workers,
            max_queue=max_queue,
            cache_entries=2 * total,
            cache_ttl_s=None,
            default_deadline_s=max(60.0, request_deadline_s),
            table_cache_dir=tables,
        )
        for count in replica_counts:
            config = ShardConfig(
                replicas=count,
                backend=backend,
                service=service,
                probe_interval_s=1.0,
                fail_after=3,
            )
            deployment = ShardDeployment(config)
            with deployment:
                slots = shard_slots(deployment.replicas)
                overload[count], responses = run_closed_loop(
                    "overload", partitions, *slots, **backoff
                )
                hot[count], _ = run_closed_loop(
                    "hot_cache", partitions, *slots, **backoff
                )
                if count == max(replica_counts):
                    identity = verify_identity(responses, identity_sample)

    goodput = {n: p.goodput_rps for n, p in overload.items()}
    base_n = min(goodput)
    speedup = {
        n: (goodput[n] / goodput[base_n] if goodput[base_n] else 0.0)
        for n in sorted(goodput)
    }
    base_p99 = overload[base_n].p99_ms
    tail_speedup = {
        n: (base_p99 / overload[n].p99_ms if overload[n].p99_ms else 0.0)
        for n in sorted(overload)
    }
    return {
        "backend": backend,
        "concurrency": concurrency,
        "requests_per_client": requests_per_client,
        "unique_queries": total,
        "workers_per_replica": workers,
        "max_queue_per_replica": max_queue,
        "host_cpu_count": os.cpu_count(),
        "replica_counts": sorted(overload),
        "overload": {str(n): overload[n].as_dict() for n in sorted(overload)},
        "hot_cache": {str(n): hot[n].as_dict() for n in sorted(hot)},
        "scaling": {
            "metric": "overload goodput_rps / p99_ms / retries",
            "goodput_rps": {str(n): round(goodput[n], 1) for n in sorted(goodput)},
            "speedup_vs_min": {str(n): round(s, 3) for n, s in speedup.items()},
            "p99_ms": {
                str(n): round(overload[n].p99_ms, 1) for n in sorted(overload)
            },
            "tail_p99_speedup_vs_min": {
                str(n): round(s, 3) for n, s in tail_speedup.items()
            },
            "retries": {str(n): overload[n].retries for n in sorted(overload)},
            "parallel_efficiency": {
                str(n): round(e, 3)
                for n, e in scaling_efficiency(goodput).items()
            },
        },
        "identity": identity,
        "note": (
            "Replicas share the host's cores (host_cpu_count above): "
            "goodput scales with N only up to the core count, then pins at "
            "the shared compute ceiling, and p99 turns scheduler-noisy.  "
            "The host-independent scaling signal is admission: 429 retries "
            "collapse to zero once the fleet's aggregate queue covers the "
            "offered concurrency.  See docs/SERVING.md, 'The sharded "
            "benchmark'."
        ),
    }


def serve_history_row(document: dict[str, Any]) -> dict[str, Any]:
    """``bench serve``'s trajectory row, from a :func:`measure_serve`
    document."""
    return {
        key: document[key]
        for key in (
            "speedup_coalesced_vs_naive",
            "speedup_hot_vs_naive",
            "concurrency",
        )
    }


def sharded_history_row(sharded: dict[str, Any]) -> dict[str, Any]:
    """``bench serve --replicas N``'s trajectory row, from a
    :func:`measure_serve_sharded` document."""
    scaling = sharded["scaling"]
    return {
        "backend": sharded["backend"],
        "concurrency": sharded["concurrency"],
        "goodput_rps": scaling["goodput_rps"],
        "speedup_vs_min": scaling["speedup_vs_min"],
        "parallel_efficiency": scaling["parallel_efficiency"],
    }
