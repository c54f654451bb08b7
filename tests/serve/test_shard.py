"""The sharded deployment: routing, cache tiers, health, aggregation.

Thread-backend deployments throughout (fast to boot, faultable); the
process backend is exercised by the CLI integration test and the
benchmark.  The oracle for every answer is a direct
:meth:`repro.api.Predictor.predict` — served results must be
bit-identical to it no matter which replica answered.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import Predictor
from repro.api.errors import CapacityError, ValidationError
from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.loadgen import build_query_pool
from repro.serve.registry import ReplicaSet
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment, ShardRouter
from repro.serve.threadserver import ServerThread
from tests.serve.fake_server import FakeServer, answering


def _queries() -> list[Query]:
    return [
        Query(workload=w, size_gb=g, config=c, num_threads=64)
        for w, g in (("gups", 16.0), ("xsbench", 32.0))
        for c in ("DRAM", "HBM", "Cache Mode")
    ]


@pytest.fixture(scope="module")
def oracle():
    predictor = Predictor()
    yield predictor
    predictor.close()


@pytest.fixture(scope="module")
def deployment():
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,  # deterministic: no background transitions
    )
    with ShardDeployment(config) as (host, port):
        yield ShardDeployment, host, port


def test_config_is_validated():
    with pytest.raises(ValidationError):
        ShardConfig(backend="fork")
    with pytest.raises(ValidationError):
        ShardConfig(replicas=0)
    with pytest.raises(ValidationError):
        ShardConfig(attempt_timeout_s=0.0)


def test_router_answers_bit_identically(deployment, oracle):
    _, host, port = deployment
    queries = _queries()
    with ServeClient(host, port, timeout=60.0) as client:
        results = client.predict_many(queries)
    assert [oracle.predict(q) for q in queries] == results


def test_router_cache_tier_absorbs_repeats(deployment, oracle):
    _, host, port = deployment
    query = _queries()[0]
    with ServeClient(host, port, timeout=60.0) as client:
        first = client.predict(query)
        before = client.metrics()["service"]["counters"].get(
            "router.cache_hits", 0.0
        )
        second = client.predict(query)
        after = client.metrics()["service"]["counters"]["router.cache_hits"]
    assert first == second == oracle.predict(query)
    assert after == before + 1.0


def test_healthz_reports_router_role_and_replica_states(deployment):
    _, host, port = deployment
    with ServeClient(host, port, timeout=30.0) as client:
        health = client.healthz()
        version = client.version()
    assert health["status"] == "ok"
    assert health["role"] == "router"
    assert sorted(health["routable"]) == ["r0", "r1"]
    states = {
        rid: entry["state"]
        for rid, entry in health["replica_set"]["replicas"].items()
    }
    assert states == {"r0": "up", "r1": "up"}
    assert health["replica_set"]["ring"]["replicas"] == ["r0", "r1"]
    assert version["service"] == "repro.serve.shard"
    assert version["replicas"] == 2


def test_forwards_follow_ring_assignment(oracle):
    """Key affinity end to end: with the router cache off, every query
    is forwarded to exactly the replica the ring assigns its key to."""
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        router_cache_entries=0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        ring = deployment.replicas.ring()
        expected: dict[str, int] = {}
        for query in queries:
            owner = ring.assign(oracle.cache_key(query))
            expected[owner] = expected.get(owner, 0) + 1
        with ServeClient(host, port, timeout=60.0) as client:
            for query in queries:
                client.predict(query)
            counters = client.metrics()["service"]["counters"]
    forwarded = {
        rid: counters.get(f"router.forwards{{replica={rid}}}", 0.0)
        for rid in ("r0", "r1")
    }
    assert forwarded == {
        rid: float(expected.get(rid, 0)) for rid in ("r0", "r1")
    }


def test_metrics_aggregate_sums_per_replica_counters(oracle):
    """Fleet totals are sums over all replicas, not a read of whichever
    replica answered last — the cross-process stats race regression.

    Drive the two replicas to *unequal* counts by talking to them
    directly, then check the router's aggregate equals the sum (and so
    matches neither individual replica)."""
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        queries = _queries()
        addresses = deployment.addresses()
        loads = {"r0": queries[:4], "r1": queries[4:6]}
        for rid, batch in loads.items():
            rhost, rport = addresses[rid]
            with ServeClient(rhost, rport, timeout=60.0) as client:
                for query in batch:
                    client.predict(query)
        with ServeClient(host, port, timeout=30.0) as client:
            snapshot = client.metrics()
    per_replica = snapshot["replicas"]
    requests_key = "serve.requests{endpoint=/v1/predict,status=200}"
    individual = [
        per_replica[rid]["service"]["counters"][requests_key]
        for rid in ("r0", "r1")
    ]
    assert individual == [4.0, 2.0]
    aggregate = snapshot["aggregate"]
    assert aggregate["reachable"] == 2
    assert aggregate["service"]["counters"][requests_key] == 6.0
    executed = [
        per_replica[rid]["executor"]["executed"] for rid in ("r0", "r1")
    ]
    assert aggregate["executor"]["executed"] == sum(executed)
    assert aggregate["cache"]["misses"] == sum(
        per_replica[rid]["cache"]["misses"] for rid in ("r0", "r1")
    )
    merged_requests = snapshot["aggregate"]["service"]["histograms"][
        "serve.request_ms{endpoint=/v1/predict}"
    ]
    assert merged_requests["count"] == 6


def test_restart_bumps_generation_and_keeps_answers_identical(oracle):
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    deployment = ShardDeployment(config)
    with deployment:
        queries = _queries()
        with deployment.shard_client(
            keyer=oracle.cache_key, timeout=30.0
        ) as client:
            assert client.predict(queries[0]) == oracle.predict(queries[0])
            assert deployment.replicas.generation("r0") == 0
            deployment.restart_replica("r0")
            assert deployment.replicas.generation("r0") == 1
            # The same client keeps working: its pooled connection to the
            # dead twin is keyed on (replica, generation) and re-dials.
            for query in queries:
                assert client.predict(query) == oracle.predict(query)


def test_no_routable_replicas_is_a_typed_capacity_error():
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        fail_after=1,
        attempt_timeout_s=2.0,
        router_cache_entries=0,
    )
    deployment = ShardDeployment(config)
    with deployment as (host, port):
        deployment.kill_replica("r0")
        deployment.kill_replica("r1")
        with ServeClient(host, port, timeout=30.0) as client:
            query = _queries()[0]
            with pytest.raises(CapacityError):
                client.predict(query)
            # Both replicas were charged and downed; the next request is
            # rejected up front with the same typed envelope.
            assert deployment.replicas.routable_ids() == []
            with pytest.raises(CapacityError):
                client.predict(query)
            health = client.healthz()
    assert health["status"] == "degraded"
    assert health["routable"] == []


def test_shard_client_routes_and_fails_over(oracle):
    config = ShardConfig(
        replicas=3,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        fail_after=1,
    )
    deployment = ShardDeployment(config)
    with deployment:
        queries = _queries()
        ring = deployment.replicas.ring()
        by_owner: dict[str, Query] = {}
        for query in queries:
            by_owner.setdefault(ring.assign(oracle.cache_key(query)), query)
        victim, query = next(iter(by_owner.items()))
        with deployment.shard_client(
            keyer=oracle.cache_key, timeout=30.0
        ) as client:
            deployment.kill_replica(victim)
            # Failover to the ring successor, bit-identical, and the dead
            # replica is discovered passively.
            assert client.predict(query) == oracle.predict(query)
            assert deployment.replicas.info(victim).state == "down"
            assert victim not in deployment.replicas.routable_ids()


def test_concurrent_router_clients_agree_with_oracle(deployment, oracle):
    _, host, port = deployment
    queries = _queries()
    expected = [oracle.predict(q) for q in queries]
    errors: list[Exception] = []

    def loop() -> None:
        try:
            with ServeClient(host, port, timeout=60.0) as client:
                for _ in range(3):
                    assert client.predict_many(queries) == expected
        except Exception as exc:  # surfaces in the main thread
            errors.append(exc)

    threads = [threading.Thread(target=loop) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "client thread hung"
    assert errors == []


@pytest.mark.parametrize(
    "body",
    [b'{"results": []}', b"{}"],
    ids=["empty-results", "missing-results"],
)
def test_router_fails_over_on_a_poisoned_replica_answer(oracle, body):
    """A replica that answers 200 with a wrong-sized or missing
    ``results`` list is poisoned, not the caller's fault: the router
    charges it and fails over, and the caller gets the right answers."""
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
        fail_after=1,
        router_cache_entries=0,
        attempt_timeout_s=5.0,
    )
    queries = build_query_pool(12, predictor=oracle)
    replicas = ReplicaSet(fail_after=config.fail_after)
    with FakeServer(answering("200 OK", body)) as bad, ServerThread(
        config.service
    ) as good:
        replicas.register("r0", bad.host, bad.port)
        replicas.register("r1", good.host, good.port)
        ring = replicas.ring()
        assert "r0" in {ring.assign(oracle.cache_key(q)) for q in queries}
        router = ShardRouter(config, replicas)
        with ServerThread(service=router) as front:
            with ServeClient(front.host, front.port, timeout=60.0) as client:
                results = client.predict_many(queries)
    assert results == [oracle.predict(q) for q in queries]
    counters = router.metrics.as_dict()["counters"]
    assert counters["router.failovers{replica=r0}"] >= 1
    assert replicas.info("r0").state == "down"
