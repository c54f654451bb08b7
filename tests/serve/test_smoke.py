"""The load generator and the CI smoke harness, at test-sized scale."""

from __future__ import annotations

import pytest

from repro.api import Predictor
from repro.serve.loadgen import (
    _partition,
    build_query_pool,
    measure_serve,
    run_smoke,
)


def test_query_pool_keys_are_pairwise_distinct():
    predictor = Predictor()
    pool = build_query_pool(96, predictor=predictor)
    keys = {predictor.cache_key(q) for q in pool}
    assert len(pool) == 96
    assert len(keys) == 96
    predictor.close()


def test_query_pool_shares_a_small_profile_basis():
    pool = build_query_pool(64)
    profiles = {(q.workload, q.size_gb) for q in pool}
    # Many queries, few (workload, size) profiles: the columnar engine's
    # table setup amortizes across the pool.
    assert len(profiles) <= 8


def test_partition_deals_round_robin_and_drops_empties():
    pool = build_query_pool(5)
    partitions = _partition(pool, 3)
    assert [len(p) for p in partitions] == [2, 2, 1]
    assert _partition(pool[:2], 8) == [[pool[0]], [pool[1]]]


@pytest.mark.slow
def test_run_smoke_passes_at_small_scale():
    report = run_smoke(
        clients=8, requests_per_client=2, workers=2, check_sample=4
    )
    assert report["phase"]["failed"] == 0
    assert report["phase"]["offered"] == 16
    assert report["identity"]["bit_identical"]
    assert report["violations"] == 0
    assert report["invariant_audited"] >= 1


@pytest.mark.slow
def test_measure_serve_reports_all_phases_at_small_scale():
    document = measure_serve(
        clients=4, requests_per_client=2, workers=2, repeats=1,
        identity_sample=4,
    )
    for phase in ("coalesced", "hot_cache", "naive"):
        assert document[phase]["failed"] == 0
        assert document[phase]["retries"] == 0
        assert document[phase]["goodput_rps"] > 0
    assert document["identity"]["bit_identical"]
    assert document["coalescing"]["batched_queries"] >= 8
