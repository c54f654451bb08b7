"""Result-cache hits echo the query that was asked, over real TCP.

Two MiniFE sizes that round to the same grid share a run key, so the
second asker is served from the result cache entry the first one
filled.  The answer must still be exactly what
:meth:`~repro.api.facade.Predictor.predict` gives for the asked query —
the echoed ``query`` included — on the single service and through the
sharded router's own cache tier.
"""

from __future__ import annotations

import pytest

from repro.api.facade import Predictor
from repro.api.types import Query
from repro.serve.client import ServeClient
from repro.serve.service import ServiceConfig
from repro.serve.shard import ShardConfig, ShardDeployment
from repro.serve.threadserver import ServerThread

FIRST = Query(workload="minife", size_gb=1.0, config="DRAM", num_threads=64)
SECOND = Query(workload="minife", size_gb=1.001, config="DRAM", num_threads=64)


@pytest.fixture(scope="module")
def oracle():
    predictor = Predictor()
    yield predictor
    predictor.close()


def test_the_two_queries_share_a_run_key(oracle):
    assert FIRST != SECOND
    assert oracle.cache_key(FIRST) == oracle.cache_key(SECOND)


def _ask_both(client: ServeClient, hit_counter: str):
    first = client.predict(FIRST)
    before = client.metrics()["service"]["counters"].get(hit_counter, 0.0)
    second = client.predict(SECOND)
    after = client.metrics()["service"]["counters"][hit_counter]
    assert after == before + 1.0  # the second answer is a cache hit
    return first, second


def test_service_cache_hit_echoes_the_asked_query(oracle):
    with ServerThread(ServiceConfig(workers=1, cache_ttl_s=None)) as server:
        with ServeClient(server.host, server.port, timeout=60.0) as client:
            first, second = _ask_both(client, "serve.cache_hits")
    assert first == oracle.predict(FIRST)
    assert second == oracle.predict(SECOND)
    assert second.query == SECOND


def test_router_cache_hit_echoes_the_asked_query(oracle):
    config = ShardConfig(
        replicas=2,
        backend="thread",
        service=ServiceConfig(workers=1, cache_ttl_s=None),
        probe_interval_s=0.0,
    )
    with ShardDeployment(config) as (host, port):
        with ServeClient(host, port, timeout=60.0) as client:
            first, second = _ask_both(client, "router.cache_hits")
    assert first == oracle.predict(FIRST)
    assert second == oracle.predict(SECOND)
    assert second.query == SECOND
