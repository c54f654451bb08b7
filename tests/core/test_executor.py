"""SweepExecutor tests: cache keys, memoization, strategies, stats."""

import json

import pytest

from repro.core.configs import ConfigName, make_config
from repro.core.executor import (
    ExecutionStrategy,
    RunCache,
    SweepCell,
    SweepExecutor,
    as_executor,
    cache_key,
    executor_from_env,
    ordered_map,
    record_from_json,
    record_to_json,
)
from repro.core.runner import ExperimentRunner
from repro.core.sweep import size_sweep
from repro.machine.presets import knl7210, knl7250
from repro.workloads.stream import StreamBenchmark


def _stream(gb: float) -> StreamBenchmark:
    return StreamBenchmark(size_bytes=int(gb * 1e9))


DRAM = make_config(ConfigName.DRAM)
HBM = make_config(ConfigName.HBM)
CACHE = make_config(ConfigName.CACHE)


class TestCacheKey:
    def test_stable_across_calls(self, machine):
        a = cache_key(machine, _stream(2.0), DRAM, 64)
        b = cache_key(machine, _stream(2.0), DRAM, 64)
        assert a == b

    def test_distinct_across_equal_instances(self, machine):
        assert cache_key(machine, _stream(2.0), DRAM, 64) == cache_key(
            machine, StreamBenchmark(size_bytes=int(2e9)), DRAM, 64
        )

    def test_config_changes_key(self, machine):
        w = _stream(2.0)
        assert cache_key(machine, w, DRAM, 64) != cache_key(machine, w, HBM, 64)

    def test_threads_change_key(self, machine):
        w = _stream(2.0)
        assert cache_key(machine, w, DRAM, 64) != cache_key(machine, w, DRAM, 128)

    def test_params_change_key(self, machine):
        assert cache_key(machine, _stream(2.0), DRAM, 64) != cache_key(
            machine, _stream(2.1), DRAM, 64
        )

    def test_machine_preset_invalidates(self):
        w = _stream(2.0)
        assert cache_key(knl7210(), w, DRAM, 64) != cache_key(knl7250(), w, DRAM, 64)

    def test_ablation_config_params_change_key(self, machine):
        w = _stream(2.0)
        one_way = make_config(ConfigName.CACHE, cache_associativity=1)
        eight_way = make_config(ConfigName.CACHE, cache_associativity=8)
        assert cache_key(machine, w, one_way, 64) != cache_key(
            machine, w, eight_way, 64
        )


class TestRecordSerialization:
    def test_feasible_roundtrip(self, machine):
        record = ExperimentRunner(machine).run(_stream(2.0), HBM, 64)
        assert record_from_json(record_to_json(record)) == record

    def test_infeasible_roundtrip(self, machine):
        record = ExperimentRunner(machine).run(_stream(20.0), HBM, 64)
        assert record.infeasible_reason is not None
        assert record_from_json(record_to_json(record)) == record

    def test_json_encodable(self, machine):
        record = ExperimentRunner(machine).run(_stream(2.0), CACHE, 64)
        text = json.dumps(record_to_json(record))
        assert record_from_json(json.loads(text)) == record


class TestRunCache:
    def test_lru_eviction(self, machine):
        cache = RunCache(max_entries=2)
        runner = ExperimentRunner(machine)
        records = [runner.run(_stream(gb), DRAM, 64) for gb in (1.0, 2.0, 3.0)]
        for i, record in enumerate(records):
            cache.put(f"k{i}", record)
        assert cache.get("k0") is None  # evicted
        assert cache.get("k1") == records[1]
        assert cache.get("k2") == records[2]

    def test_disk_roundtrip(self, machine, tmp_path):
        runner = ExperimentRunner(machine)
        record = runner.run(_stream(2.0), HBM, 64)
        RunCache(cache_dir=tmp_path).put("deadbeef", record)
        fresh = RunCache(cache_dir=tmp_path)
        assert fresh.get("deadbeef") == record
        assert fresh.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        assert RunCache(cache_dir=tmp_path).get("bad") is None

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            RunCache(max_entries=0)


class TestSweepExecutor:
    def test_run_matches_plain_runner(self, machine):
        plain = ExperimentRunner(machine).run(_stream(2.0), ConfigName.HBM, 64)
        cached = SweepExecutor(ExperimentRunner(machine)).run(
            _stream(2.0), ConfigName.HBM, 64
        )
        assert plain == cached

    def test_batch_dedupe_counts_hits(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        cell = SweepCell(_stream(2.0), DRAM, 64)
        records = executor.run_cells([cell, cell, cell])
        assert records[0] == records[1] == records[2]
        stats = executor.stats()
        assert stats.misses == 1 and stats.hits == 2 and stats.executed == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepExecutor(jobs=0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            SweepExecutor(strategy="gpu")

    def test_strategy_defaults(self):
        assert SweepExecutor().strategy is ExecutionStrategy.SERIAL
        assert SweepExecutor(jobs=4).strategy is ExecutionStrategy.THREADS

    def test_as_executor_passthrough(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        assert as_executor(executor) is executor
        wrapped = as_executor(ExperimentRunner(machine))
        assert isinstance(wrapped, SweepExecutor)

    def test_stats_describe(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        executor.run(_stream(2.0), DRAM, 64)
        executor.run(_stream(2.0), DRAM, 64)
        text = executor.stats().describe()
        assert "2 lookups" in text and "50.0%" in text


SWEEP_SIZES = (2.0, 8.0, 20.0)


def _sweep(executor) -> list:
    rs = size_sweep(executor, _stream, SWEEP_SIZES, num_threads=64)
    return [record for _, record in rs.records]


class TestDeterminismUnderParallelism:
    """Same sweep through jobs=1, thread jobs=4 and process jobs=4 must
    yield identical RunRecord sequences and identical cache keys."""

    @pytest.fixture(scope="class")
    def serial_records(self, machine):
        return _sweep(SweepExecutor(ExperimentRunner(machine), jobs=1))

    @pytest.mark.parametrize("strategy", ["threads", "processes"])
    def test_records_identical(self, machine, serial_records, strategy):
        with SweepExecutor(
            ExperimentRunner(machine), jobs=4, strategy=strategy
        ) as executor:
            assert _sweep(executor) == serial_records

    @pytest.mark.parametrize("strategy", ["serial", "threads", "processes"])
    def test_cache_keys_identical(self, machine, strategy):
        executor = SweepExecutor(
            ExperimentRunner(machine), jobs=4, strategy=strategy
        )
        cells = [
            SweepCell(_stream(gb), config, 64)
            for gb in SWEEP_SIZES
            for config in (DRAM, HBM, CACHE)
        ]
        keys = [executor.cache_key(cell) for cell in cells]
        baseline = SweepExecutor(ExperimentRunner(machine))
        assert keys == [baseline.cache_key(cell) for cell in cells]
        executor.close()


class TestCacheHitRate:
    def test_repeated_sweep_hits_above_90_percent(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        _sweep(executor)
        executor.reset_stats()
        repeated = _sweep(executor)
        stats = executor.stats()
        assert stats.hit_rate > 0.9
        assert stats.executed == 0
        assert repeated == _sweep(SweepExecutor(ExperimentRunner(machine)))

    def test_cumulative_hit_rate_grows(self, machine):
        executor = SweepExecutor(ExperimentRunner(machine))
        for _ in range(12):
            _sweep(executor)
        assert executor.stats().hit_rate > 0.9

    def test_disk_cache_survives_restart(self, machine, tmp_path):
        first = SweepExecutor(ExperimentRunner(machine), cache_dir=tmp_path)
        warm = _sweep(first)
        fresh = SweepExecutor(ExperimentRunner(machine), cache_dir=tmp_path)
        assert _sweep(fresh) == warm
        stats = fresh.stats()
        assert stats.executed == 0 and stats.hit_rate == 1.0


class TestStatsConsistencyAcrossStrategies:
    """The documented `ExecutorStats` aggregation contract: counters
    accumulate in the submitting process under *every* strategy, so the
    same batch sequence reports identical stats whether cells ran
    serially, on a thread pool or across a process pool — `--jobs N`
    hit rates are directly comparable."""

    def _execute_batches(self, machine, strategy):
        with SweepExecutor(
            ExperimentRunner(machine), jobs=4, strategy=strategy
        ) as executor:
            _sweep(executor)
            _sweep(executor)  # second pass: all memory-cache hits
            stats = executor.stats()
        return stats

    @pytest.fixture(scope="class")
    def serial_stats(self, machine):
        return self._execute_batches(machine, "serial")

    @pytest.mark.parametrize("strategy", ["threads", "processes"])
    def test_identical_to_serial(self, machine, serial_stats, strategy):
        stats = self._execute_batches(machine, strategy)
        assert (
            stats.hits,
            stats.misses,
            stats.disk_hits,
            stats.executed,
        ) == (
            serial_stats.hits,
            serial_stats.misses,
            serial_stats.disk_hits,
            serial_stats.executed,
        )
        assert stats.hit_rate == serial_stats.hit_rate

    def test_counts_are_complete(self, serial_stats):
        # Every lookup is either a hit or a miss; every miss executed.
        assert serial_stats.hits + serial_stats.misses > 0
        assert serial_stats.executed == serial_stats.misses
        assert serial_stats.hit_rate == pytest.approx(
            serial_stats.hits / (serial_stats.hits + serial_stats.misses)
        )


class TestExecutorFromEnv:
    def test_no_env_returns_runner(self, machine):
        runner = ExperimentRunner(machine)
        assert executor_from_env(runner, env={}) is runner

    def test_jobs_env_wraps(self, machine):
        wrapped = executor_from_env(
            ExperimentRunner(machine), env={"REPRO_JOBS": "3"}
        )
        assert isinstance(wrapped, SweepExecutor)
        assert wrapped.jobs == 3
        assert wrapped.strategy is ExecutionStrategy.THREADS

    def test_strategy_env(self, machine):
        wrapped = executor_from_env(
            ExperimentRunner(machine),
            env={"REPRO_JOBS": "2", "REPRO_EXECUTOR": "processes"},
        )
        assert wrapped.strategy is ExecutionStrategy.PROCESSES
        wrapped.close()

    def test_cache_dir_env(self, machine, tmp_path):
        wrapped = executor_from_env(
            ExperimentRunner(machine), env={"REPRO_CACHE_DIR": str(tmp_path)}
        )
        assert isinstance(wrapped, SweepExecutor)
        assert wrapped.cache.cache_dir == tmp_path


class TestOrderedMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert ordered_map(lambda x: x * x, items, jobs=4) == [
            x * x for x in items
        ]

    def test_serial_path(self):
        assert ordered_map(str, [1, 2], jobs=1) == ["1", "2"]

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ordered_map(str, [1], jobs=0)


class TestSensitivityParallel:
    def test_jobs_do_not_change_results(self, machine):
        from repro.core.sensitivity import (
            SensitivityAnalysis,
            default_perturbations,
            paper_conclusions,
        )

        analysis = SensitivityAnalysis(machine)
        perturbations = default_perturbations()[:3]
        conclusions = paper_conclusions()[:2]
        serial = analysis.run(perturbations, conclusions, jobs=1)
        threaded = analysis.run(perturbations, conclusions, jobs=3)
        assert serial == threaded
