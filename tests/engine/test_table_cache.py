"""Persistent ModelTables cache: keys, lifecycle, corruption, isolation.

The table cache's contract (docs/ENGINE.md) is that a fresh process
answering against a populated cache produces the *same bits* as one that
built its tables from scratch — and that nothing short of an identical
(machine, model version, configuration) triple ever shares an entry.
These tests pin:

* content-address composition — same inputs address the same entry,
  different machines / configs / ``TABLES_VERSION`` never collide;
* hit / miss / store / corrupt counters across the cold -> warm cycle;
* corrupt-file recovery — truncated JSON, checksum mismatch, and
  checksum-valid-but-malformed payloads are all dropped and rebuilt
  without poisoning results;
* incremental construction — an extending grid reuses cached slices and
  grows the entry rather than replacing it;
* bit-identical records from cache-warmed, cache-populating, and
  uncached evaluators alike; and
* the :class:`~repro.core.executor.SweepExecutor` wiring (``cache_dir``
  defaulting, ``REPRO_TABLE_CACHE``, stats surface); and
* concurrent writers — instances on threads and in other processes
  sharing one directory never raise and never lose a stored slice.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro.engine.table_cache as table_cache_module
from repro.core.configs import ConfigName, make_config
from repro.core.executor import SweepCell, SweepExecutor, executor_from_env
from repro.core.runner import ExperimentRunner
from repro.engine.batch import BatchEvaluator
from repro.engine.table_cache import TableCache, table_key
from repro.machine import registry
from repro.machine.presets import knl7210
from repro.workloads.registry import FROM_GB

TRIO = [make_config(name) for name in ConfigName.paper_trio()]


def small_grid(sizes=(0.5, 4.0, 12.0), threads=(1, 64)):
    """A small but representative sweep: sizes straddle HBM capacity."""
    workloads = [FROM_GB[name](s) for s in sizes for name in ("minife", "gups")]
    return [
        (workload, config, num_threads)
        for workload in workloads
        for config in TRIO
        for num_threads in threads
    ]


class TestTableKey:
    def test_stable_across_equal_inputs(self):
        config = TRIO[0]
        assert table_key(knl7210(), config) == table_key(knl7210(), config)

    def test_configs_never_share_an_entry(self):
        machine = knl7210()
        keys = {table_key(machine, config) for config in TRIO}
        assert len(keys) == len(TRIO)

    def test_machines_never_share_an_entry(self):
        config = TRIO[0]
        assert table_key(knl7210(), config) != table_key(
            registry.build("xeonmax9480"), config
        )

    def test_model_version_invalidates_every_entry(self, monkeypatch):
        config = TRIO[0]
        before = table_key(knl7210(), config)
        monkeypatch.setattr(
            table_cache_module,
            "TABLES_VERSION",
            table_cache_module.TABLES_VERSION + 1,
        )
        assert table_key(knl7210(), config) != before


class TestLifecycle:
    def test_cold_misses_then_stores_then_warm_hits(self, tmp_path):
        grid = small_grid()
        cold_cache = TableCache(tmp_path)
        cold = BatchEvaluator(table_cache=cold_cache)
        cold.evaluate(grid)
        # One entry per configuration in the grid.
        assert cold_cache.misses == len(TRIO)
        assert cold_cache.hits == 0
        assert cold_cache.stores == len(TRIO)
        assert len(list(tmp_path.glob("tables-*.json"))) == len(TRIO)

        warm_cache = TableCache(tmp_path)
        warm = BatchEvaluator(table_cache=warm_cache)
        warm.evaluate(grid)
        assert warm_cache.hits == len(TRIO)
        assert warm_cache.misses == 0
        # Nothing new to persist: the loaded tables already cover the grid.
        assert warm_cache.stores == 0

    def test_warm_records_bit_identical_to_fresh_and_uncached(self, tmp_path):
        grid = small_grid()
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(grid)

        warm = BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(grid)
        uncached = BatchEvaluator().evaluate(grid)
        assert warm.records() == uncached.records()
        assert np.array_equal(warm.metric, uncached.metric, equal_nan=True)
        assert np.array_equal(warm.feasible, uncached.feasible)

    def test_repeated_evaluate_does_not_restore(self, tmp_path):
        grid = small_grid()
        cache = TableCache(tmp_path)
        evaluator = BatchEvaluator(table_cache=cache)
        evaluator.evaluate(grid)
        stores = cache.stores
        evaluator.evaluate(grid)  # fully memoized: no table growth
        assert cache.stores == stores

    def test_incremental_extension_reuses_and_grows_entries(self, tmp_path):
        def leaves(node):
            if isinstance(node, dict):
                return sum(leaves(v) for v in node.values())
            return 1

        base = small_grid(sizes=(0.5, 4.0))
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(base)
        probe = TableCache(tmp_path)
        config = base[0][1]
        key = table_key(knl7210(), config)
        before = leaves(probe.load(key))

        extended_cache = TableCache(tmp_path)
        extended = BatchEvaluator(table_cache=extended_cache)
        extended.evaluate(small_grid(sizes=(0.5, 4.0, 12.0, 20.0)))
        # The overlapping slices were loaded, not rebuilt...
        assert extended_cache.hits == len(TRIO)
        # ...and the new sizes merged into the same entries, growing them.
        assert extended_cache.stores == len(TRIO)
        assert leaves(TableCache(tmp_path).load(key)) > before
        assert len(list(tmp_path.glob("tables-*.json"))) == len(TRIO)


class TestCorruptionRecovery:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda path: path.write_text("not json {"),
            lambda path: path.write_text(json.dumps({"payload": {}})),
            lambda path: path.write_text(
                json.dumps({"checksum": "0" * 64, "payload": {"tables": {}}})
            ),
        ],
        ids=["truncated", "missing-checksum", "checksum-mismatch"],
    )
    def test_undecodable_file_is_dropped_and_rebuilt(self, tmp_path, damage):
        grid = small_grid(sizes=(0.5, 12.0))
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(grid)
        victim = sorted(tmp_path.glob("tables-*.json"))[0]
        damage(victim)

        cache = TableCache(tmp_path)
        result = BatchEvaluator(table_cache=cache).evaluate(grid)
        assert cache.corrupt == 1
        assert cache.hits == len(TRIO) - 1
        assert cache.misses == 1
        # The rebuilt entry was re-persisted and decodes cleanly again.
        assert cache.stores == 1
        repaired = TableCache(tmp_path)
        repaired_evaluator = BatchEvaluator(table_cache=repaired)
        assert (
            repaired_evaluator.evaluate(grid).records() == result.records()
        )
        assert repaired.hits == len(TRIO) and repaired.corrupt == 0

    def test_checksum_valid_but_malformed_payload_recovers(self, tmp_path):
        grid = small_grid(sizes=(0.5, 12.0))
        config = grid[0][1]
        key = table_key(knl7210(), config)
        # A self-consistent file whose payload is not a ModelTables
        # snapshot: load() accepts it, prefill() must reject it.
        poisoned = TableCache(tmp_path)
        poisoned.store(key, {"tables": "bogus", "placements": {}})

        cache = TableCache(tmp_path)
        result = BatchEvaluator(table_cache=cache).evaluate(grid)
        assert cache.corrupt == 1
        assert result.records() == BatchEvaluator().evaluate(grid).records()
        # The poisoned file is gone; the rebuilt one round-trips.
        follow_up = TableCache(tmp_path)
        BatchEvaluator(table_cache=follow_up).evaluate(grid)
        assert follow_up.corrupt == 0

    def test_corrupt_file_never_poisons_results(self, tmp_path):
        grid = small_grid()
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(grid)
        for path in tmp_path.glob("tables-*.json"):
            path.write_text(path.read_text()[:200])  # truncate all entries
        rebuilt = BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(
            grid
        )
        assert rebuilt.records() == BatchEvaluator().evaluate(grid).records()


class TestCrossMachineIsolation:
    def test_machines_write_disjoint_entries(self, tmp_path):
        knl_grid = small_grid(sizes=(0.5, 12.0))
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(knl_grid)

        xeonmax = registry.build("xeonmax9480")
        xeon_cache = TableCache(tmp_path)
        BatchEvaluator(xeonmax, table_cache=xeon_cache).evaluate(knl_grid)
        # A cache warmed by KNL offers the Xeon Max nothing: every load
        # is a miss and the Xeon Max writes its own entries alongside.
        assert xeon_cache.hits == 0
        assert xeon_cache.misses == len(TRIO)
        assert len(list(tmp_path.glob("tables-*.json"))) == 2 * len(TRIO)

    def test_shared_directory_keeps_per_machine_bits(self, tmp_path):
        grid = small_grid(sizes=(0.5, 12.0))
        xeonmax = registry.build("xeonmax9480")
        BatchEvaluator(table_cache=TableCache(tmp_path)).evaluate(grid)
        BatchEvaluator(xeonmax, table_cache=TableCache(tmp_path)).evaluate(
            grid
        )
        warm_xeon = BatchEvaluator(
            registry.build("xeonmax9480"), table_cache=TableCache(tmp_path)
        ).evaluate(grid)
        fresh_xeon = BatchEvaluator(registry.build("xeonmax9480")).evaluate(
            grid
        )
        assert warm_xeon.records() == fresh_xeon.records()


class TestExecutorWiring:
    def test_cache_dir_implies_tables_subdirectory(self, tmp_path):
        with SweepExecutor(ExperimentRunner(), cache_dir=tmp_path) as ex:
            assert ex.table_cache is not None
            assert ex.table_cache.directory == tmp_path / "tables"

    def test_stats_surface_and_warm_restart(self, tmp_path):
        cells = [SweepCell(w, c, t) for w, c, t in small_grid()]
        with SweepExecutor(
            ExperimentRunner(), table_cache_dir=tmp_path
        ) as cold:
            cold_records = cold.run_cells(cells)
            assert cold.stats().table_cache_stores == len(TRIO)
            assert cold.stats().table_cache_misses == len(TRIO)
        # A new executor over the same directory models a restarted
        # process: tables load instead of rebuilding, results match.
        with SweepExecutor(
            ExperimentRunner(), table_cache_dir=tmp_path
        ) as warm:
            assert warm.run_cells(cells) == cold_records
            assert warm.stats().table_cache_hits == len(TRIO)
            assert warm.stats().table_cache_misses == 0

    def test_reset_stats_zeroes_table_counters(self, tmp_path):
        cells = [SweepCell(w, c, t) for w, c, t in small_grid((0.5,))]
        with SweepExecutor(
            ExperimentRunner(), table_cache_dir=tmp_path
        ) as ex:
            ex.run_cells(cells)
            ex.reset_stats()
            stats = ex.stats()
            assert stats.table_cache_hits == 0
            assert stats.table_cache_misses == 0
            assert stats.table_cache_stores == 0

    def test_executor_from_env_reads_table_cache_var(self, tmp_path):
        ex = executor_from_env(env={"REPRO_TABLE_CACHE": str(tmp_path)})
        assert ex is not None
        assert ex.table_cache is not None
        assert ex.table_cache.directory == tmp_path


#: One writer's stores: ``SLICES`` distinct slices of ``ENTRIES`` floats
#: each, large enough that read – merge – replace cycles overlap.
SLICES, ENTRIES = 8, 500


def _slice(writer: str, index: int) -> dict:
    return {
        "slices": {
            f"{writer}-{index}": {
                str(j): float(j) + index / 8 for j in range(ENTRIES)
            }
        }
    }


_CHILD = """
import pathlib, sys, time
sys.path.insert(0, sys.argv[1])
from repro.engine.table_cache import TableCache
sys.path.insert(0, sys.argv[2])
from test_table_cache import SLICES, _slice
directory, writer, go = sys.argv[3], sys.argv[4], pathlib.Path(sys.argv[5])
cache = TableCache(directory)
go.with_name(f"ready-{writer}").touch()
while not go.exists():
    time.sleep(0.001)
for index in range(SLICES):
    cache.store("shared", _slice(writer, index))
"""


class TestConcurrentWriters:
    """Separate ``TableCache`` instances on one directory — replicas in
    one process (a thread-backend shard deployment sharing its table
    cache) and separate processes — must serialize their read – merge –
    replace cycles: no store raises, the entry ends up holding every
    slice, and no temporary file is left behind."""

    def test_threads_and_processes_keep_every_slice(self, tmp_path):
        directory = tmp_path / "tables"
        go = tmp_path / "go"
        src = pathlib.Path(table_cache_module.__file__).resolve().parents[2]
        here = pathlib.Path(__file__).resolve().parent
        children = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _CHILD,
                    str(src),
                    str(here),
                    str(directory),
                    f"proc{n}",
                    str(go),
                ],
                env={**os.environ, "PYTHONPATH": str(src)},
            )
            for n in range(2)
        ]
        caches = [TableCache(directory) for _ in range(4)]
        errors: list[Exception] = []
        barrier = threading.Barrier(len(caches))

        def write(n: int) -> None:
            try:
                barrier.wait()
                for index in range(SLICES):
                    caches[n].store("shared", _slice(f"thread{n}", index))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(n,)) for n in range(len(caches))
        ]
        interval = sys.getswitchinterval()
        try:
            deadline = time.monotonic() + 60
            while len(list(tmp_path.glob("ready-*"))) < len(children):
                assert time.monotonic() < deadline, "writer processes never started"
                time.sleep(0.01)
            sys.setswitchinterval(1e-5)
            go.touch()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            codes = [child.wait(timeout=120) for child in children]
        finally:
            sys.setswitchinterval(interval)
            for child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert codes == [0, 0]
        payload = TableCache(directory).load("shared")
        writers = [f"thread{n}" for n in range(4)] + ["proc0", "proc1"]
        expected = {
            f"{writer}-{index}" for writer in writers for index in range(SLICES)
        }
        assert set(payload["slices"]) == expected
        for name, entries in payload["slices"].items():
            index = int(name.rsplit("-", 1)[1])
            assert entries == _slice("x", index)["slices"][f"x-{index}"]
        assert list(directory.glob("*.tmp")) == []
