"""The prediction service: lifecycle, coalescing identity, deadlines,
backpressure, request parsing and the metrics snapshot.

The service is driven directly (no HTTP) on private event loops; the
acceptance property — every served answer bit-identical to a direct
scalar ``repro.api`` evaluation — is asserted with full
``PredictionResult`` equality.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro.api import (
    CapacityError,
    DeadlineExceededError,
    Predictor,
    Query,
    SchemaVersionError,
    ValidationError,
)
from repro.api.types import SCHEMA_VERSION
from repro.core.executor import RunCache
from repro.serve.service import PredictionService, ServiceConfig


def run_service(coro_factory, config=None):
    """Boot a service, run ``coro_factory(service)``, stop, return value."""

    async def scenario():
        service = PredictionService(config)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.stop()

    return asyncio.run(scenario())


QUERIES = [
    Query(workload=w, size_gb=s, config=c, num_threads=t)
    for w, s in (("dgemm", 4.0), ("xsbench", 2.5))
    for c in ("DRAM", "HBM")
    for t in (32, 64)
]


class TestLifecycle:
    def test_state_progression(self):
        async def scenario():
            service = PredictionService()
            assert service.state == "created"
            assert not service.running
            await service.start()
            assert service.state == "running"
            assert service.healthz()["status"] == "ok"
            await service.stop()
            assert service.state == "stopped"
            assert service.healthz()["status"] == "stopped"

        asyncio.run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            with pytest.raises(RuntimeError):
                await service.start()
            await service.stop()

        asyncio.run(scenario())

    def test_stopped_service_refuses_requests(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            await service.stop()
            with pytest.raises(CapacityError):
                await service.handle_predict(
                    {"query": QUERIES[0].to_dict()}
                )

        asyncio.run(scenario())

    def test_restart_after_stop(self):
        async def scenario():
            service = PredictionService()
            await service.start()
            await service.stop()
            await service.start()
            envelope = await service.handle_predict(
                {"query": QUERIES[0].to_dict()}
            )
            await service.stop()
            return envelope

        envelope = asyncio.run(scenario())
        assert envelope["meta"]["queries"] == 1


class TestCoalescingIdentity:
    def test_concurrent_singles_match_direct_scalar_evaluation(self):
        # N concurrent single-query requests coalesce into dense batches;
        # each answer must equal the scalar facade's, bit for bit.
        async def scenario(service):
            return await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES
                ]
            )

        envelopes = run_service(
            scenario, ServiceConfig(batch_window_s=0.01)
        )
        oracle = Predictor()
        for query, envelope in zip(QUERIES, envelopes):
            served = envelope["results"][0]
            assert served == oracle.predict(query).to_dict()
        oracle.close()

    def test_grid_request_matches_expanded_singles(self):
        grid = {
            "workloads": ["dgemm"],
            "sizes_gb": [2.0, 4.0],
            "configs": ["DRAM", "HBM"],
            "num_threads": [64],
        }

        async def scenario(service):
            return await service.handle_predict({"grid": grid})

        envelope = run_service(scenario)
        oracle = Predictor()
        expected = [
            oracle.predict(
                Query(workload="dgemm", size_gb=s, config=c, num_threads=64)
            ).to_dict()
            for s in (2.0, 4.0)
            for c in ("DRAM", "HBM")
        ]
        assert envelope["results"] == expected
        oracle.close()

    def test_infeasible_cell_serializes_as_error_info(self):
        async def scenario(service):
            return await service.handle_predict(
                {
                    "query": Query(
                        workload="gups", size_gb=32.0, config="HBM"
                    ).to_dict()
                }
            )

        envelope = run_service(scenario)
        (result,) = envelope["results"]
        assert result["metric"] is None
        assert result["error"]["code"] == "infeasible_config"

    def test_cache_hits_answer_identically(self):
        query = QUERIES[0]

        async def scenario(service):
            first = await service.handle_predict({"query": query.to_dict()})
            second = await service.handle_predict({"query": query.to_dict()})
            return first, second

        first, second = run_service(scenario)
        assert first["meta"]["cached"] == 0
        assert second["meta"]["cached"] == 1
        assert first["results"] == second["results"]


class TestDeadlinesAndBackpressure:
    def test_deadline_exceeded_while_queued(self):
        # The batch window (50 ms) exceeds the deadline (1 ms), so the
        # request times out while its query is still queued.
        async def scenario(service):
            with pytest.raises(DeadlineExceededError):
                await service.handle_predict(
                    {"query": QUERIES[0].to_dict(), "deadline_s": 0.001}
                )
            return service.metrics_snapshot()

        snapshot = run_service(
            scenario, ServiceConfig(batch_window_s=0.05)
        )
        counters = snapshot["service"]["counters"]
        assert counters.get("serve.deadline_exceeded") == 1.0

    def test_oversized_request_rejected_up_front(self):
        async def scenario(service):
            with pytest.raises(CapacityError):
                await service.handle_predict(
                    {
                        "grid": {
                            "workloads": ["dgemm"],
                            "sizes_gb": [float(s) for s in range(1, 6)],
                            "configs": ["DRAM"],
                        }
                    }
                )

        run_service(scenario, ServiceConfig(max_request_queries=4))

    def test_full_queue_rejects_with_capacity_error(self):
        async def scenario(service):
            # Fill the admission queue synchronously (no await), then
            # one more submission must bounce.
            futures = [
                service._coalescer.submit(q, f"k{i}")
                for i, q in enumerate(QUERIES[:2])
            ]
            with pytest.raises(CapacityError):
                service._coalescer.submit(QUERIES[2], "overflow")
            await asyncio.gather(*futures)

        run_service(scenario, ServiceConfig(max_queue=2))


class TestRequestParsing:
    def test_exactly_one_form_required(self):
        q = QUERIES[0].to_dict()
        with pytest.raises(ValidationError, match="exactly one"):
            PredictionService.parse_queries({})
        with pytest.raises(ValidationError, match="exactly one"):
            PredictionService.parse_queries(
                {"query": q, "queries": [q]}
            )

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            PredictionService.parse_queries(
                {"query": QUERIES[0].to_dict(), "tenant": "a"}
            )

    def test_queries_must_be_a_nonempty_list(self):
        with pytest.raises(ValidationError):
            PredictionService.parse_queries({"queries": []})
        with pytest.raises(ValidationError):
            PredictionService.parse_queries({"queries": "not-a-list"})

    def test_schema_version_negotiation(self):
        body = {"query": QUERIES[0].to_dict()}
        assert len(PredictionService.parse_queries(body)) == 1
        assert len(
            PredictionService.parse_queries(
                dict(body, schema_version=SCHEMA_VERSION)
            )
        ) == 1
        with pytest.raises(SchemaVersionError):
            PredictionService.parse_queries(
                dict(body, schema_version=SCHEMA_VERSION + 1)
            )

    def test_bad_deadline_rejected(self):
        async def scenario(service):
            for bad in (0, -1.0, "soon", True):
                with pytest.raises(ValidationError):
                    await service.handle_predict(
                        {"query": QUERIES[0].to_dict(), "deadline_s": bad}
                    )

        run_service(scenario)


class TestMetricsSnapshot:
    def test_snapshot_counts_constituent_queries(self):
        async def scenario(service):
            await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES
                ]
            )
            return service.metrics_snapshot()

        snapshot = run_service(scenario, ServiceConfig(batch_window_s=0.01))
        coalescer = snapshot["coalescer"]
        assert coalescer["enabled"]
        assert coalescer["submitted"] == len(QUERIES)
        assert coalescer["batched_queries"] == len(QUERIES)
        # Coalescing happened: fewer dispatches than queries.
        assert coalescer["batches"] < len(QUERIES)
        # The executor section counts every constituent cell.
        assert snapshot["executor"]["batched_cells"] == len(QUERIES)
        assert snapshot["cache"]["misses"] == len(QUERIES)

    def test_naive_configuration_disables_coalescing(self):
        config = ServiceConfig(coalesce=False, cache_entries=0)

        async def scenario(service):
            await asyncio.gather(
                *[
                    service.handle_predict({"query": q.to_dict()})
                    for q in QUERIES[:4]
                ]
            )
            return service.metrics_snapshot()

        snapshot = run_service(scenario, config)
        assert not snapshot["coalescer"]["enabled"]
        assert snapshot["coalescer"]["submitted"] == 0
        assert snapshot["cache"]["max_entries"] == 0

    def test_naive_mode_still_validates_at_the_boundary(self):
        from repro.api import UnknownWorkloadError

        config = ServiceConfig(coalesce=False, cache_entries=0)

        async def scenario(service):
            with pytest.raises(UnknownWorkloadError):
                await service.handle_predict(
                    {
                        "query": {
                            "workload": "linpack",
                            "size_gb": 4.0,
                            "config": "DRAM",
                        }
                    }
                )

        run_service(scenario, config)


def _worker_predictors(service, count):
    """``count`` worker predictors, each made on its own thread as the
    pool threads make theirs."""
    made = []
    for _ in range(count):
        thread = threading.Thread(
            target=lambda: made.append(service._worker_predictor())
        )
        thread.start()
        thread.join(timeout=30.0)
    return made


class TestSharedRunCache:
    def test_a_cell_evaluated_on_one_worker_is_a_hit_on_the_other(self):
        service = PredictionService(ServiceConfig(workers=2))
        first, second = _worker_predictors(service, 2)
        assert first is not second
        for machine in ("knl7210", "xeonmax9480"):
            query = Query(
                workload="gups", size_gb=4.0, config="HBM", machine=machine
            )
            assert first.predict(query) == second.predict(query)
            assert (
                first.executor(machine).cache is second.executor(machine).cache
            )
        stats = second.stats()
        assert (stats.hits, stats.misses, stats.executed) == (2, 0, 0)
        assert service.executor_stats()["executed"] == 2

    def test_racing_workers_share_one_cache_and_answer_identically(self):
        """More workers than cores, first uses racing on a short switch
        interval: every worker adopts the same cache per preset, and the
        cache ends up holding each distinct cell exactly once."""
        queries = [
            Query(workload=w, size_gb=s, config=c, machine=m, num_threads=16)
            for w, s in (("gups", 2.0), ("minife", 3.0), ("xsbench", 2.5))
            for c in ("DRAM", "HBM")
            for m in ("knl7210", "xeonmax9480")
        ]
        expected = [Predictor().predict(q) for q in queries]
        service = PredictionService(ServiceConfig(workers=6))
        barrier = threading.Barrier(6)
        answers, errors, predictors = [], [], []

        def work(offset: int) -> None:
            try:
                barrier.wait(timeout=30.0)
                predictor = service._worker_predictor()
                predictors.append(predictor)
                order = queries[offset:] + queries[:offset]
                answers.append((offset, predictor.predict_many(order)))
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for offset, results in answers:
            assert results == expected[offset:] + expected[:offset]
        for machine in ("knl7210", "xeonmax9480"):
            caches = {id(p.executor(machine).cache) for p in predictors}
            assert caches == {id(service._run_caches[machine])}
            assert len(service._run_caches[machine]) == len(queries) // 2

    def test_metrics_count_a_shared_caches_disk_hits_once(self, tmp_path):
        query = QUERIES[0]
        Predictor(cache_dir=tmp_path).predict(query)  # writes the entry
        service = PredictionService(ServiceConfig(workers=2))
        service._run_caches["knl7210"] = RunCache(cache_dir=tmp_path)
        first, second = _worker_predictors(service, 2)
        answers = [first.predict(query), second.predict(query)]
        assert answers[0] == answers[1]
        # One disk read, then an in-memory hit on the other worker; each
        # predictor reports the shared cache's one disk hit.
        assert first.stats().disk_hits == second.stats().disk_hits == 1
        executor = service.executor_stats()
        assert executor["disk_hits"] == 1
        assert executor["hits"] == 2 and executor["executed"] == 0


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine": "epyc"},
            {"workers": 0},
            {"max_batch": 0},
            {"max_queue": 0},
            {"batch_window_s": -0.5},
            {"cache_entries": -1},
            {"default_deadline_s": 0.0},
        ],
    )
    def test_invalid_knobs_raise(self, kwargs):
        with pytest.raises(ValidationError):
            ServiceConfig(**kwargs)
