"""Golden run keys: the memoized key builder against the canonical-JSON formula.

:func:`repro.core.executor.cache_key` hashes a memoized machine/config
prefix and a memoized per-workload suffix instead of re-encoding the
whole cell.  The oracle here is the original formula — one
``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` of the
full payload — so any drift in the key bytes, which would orphan every
on-disk run cache, fails loudly.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import pytest

from repro.api.facade import sized_workload
from repro.core.configs import ConfigName, make_config
from repro.core.executor import (
    RunCache,
    SweepCell,
    SweepExecutor,
    cache_key,
    config_fingerprint,
    machine_fingerprint,
)
from repro.core.runner import ExperimentRunner
from repro.machine import registry
from repro.workloads.registry import FROM_GB

#: Two sizes per sized workload, each inside every constructor's range.
SIZES_GB = (6.0, 20.0)
THREADS = (32, 256)
CHECKS = (None, "warn", "raise")
CONFIGS = tuple(make_config(name) for name in ConfigName.paper_trio()) + (
    make_config(ConfigName.CACHE, cache_associativity=8),
)


def reference_key(machine, workload, config, num_threads, check=None) -> str:
    """The canonical-JSON run key, encoded in one piece."""
    payload = {
        "machine": machine_fingerprint(machine),
        "workload": {"name": workload.spec.name, "params": workload.params()},
        "config": config_fingerprint(config),
        "num_threads": int(num_threads),
    }
    if check is not None:
        payload["check"] = str(check)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("machine_name", registry.names())
def test_keys_match_the_canonical_json_formula(machine_name):
    machine = registry.build(machine_name)
    checked = 0
    for name in sorted(FROM_GB):
        for size_gb in SIZES_GB:
            workload = sized_workload(name, size_gb)
            for config in CONFIGS:
                for threads in THREADS:
                    for check in CHECKS:
                        assert cache_key(
                            machine, workload, config, threads, check=check
                        ) == reference_key(
                            machine, workload, config, threads, check
                        ), (machine_name, name, size_gb, config, threads, check)
                        checked += 1
    assert checked == len(FROM_GB) * len(SIZES_GB) * len(CONFIGS) * len(
        THREADS
    ) * len(CHECKS)


def test_memoized_key_is_stable_across_repeated_calls():
    machine = registry.build("xeonmax9480")
    workload = sized_workload("gups", 6.0)
    config = CONFIGS[-1]
    keys = {cache_key(machine, workload, config, 64) for _ in range(3)}
    assert keys == {reference_key(machine, workload, config, 64)}


def test_concurrent_first_use_of_the_memos_yields_reference_keys():
    """Worker threads share the prefix memo and the workload instances
    (``sized_workload`` is process-wide); racing first uses may compute
    an entry twice but must never produce a different key.  Fresh
    machines and workloads make every first use happen in the race."""
    machines = [registry.build(name) for name in registry.names()]
    cells = [
        (machine, FROM_GB[name](9.0), config, threads)
        for machine in machines
        for name in sorted(FROM_GB)
        for config in CONFIGS
        for threads in THREADS
    ]
    expected = [reference_key(*cell, "warn") for cell in cells]
    results: list[list[str]] = []
    errors: list[BaseException] = []

    def worker() -> None:
        try:
            results.append([cache_key(*cell, check="warn") for cell in cells])
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [expected] * len(threads)


@pytest.mark.parametrize("check", [None, "warn"])
def test_run_cache_written_under_reference_keys_reads_back_as_disk_hits(
    tmp_path, check
):
    """A cache directory written by the one-piece formula (any older
    build) is fully addressable by the memoized keys."""
    cells_by_machine = {}
    for machine_name in registry.names():
        modes = registry.build(machine_name).supported_memory_modes
        cells_by_machine[machine_name] = [
            SweepCell(sized_workload(name, SIZES_GB[0]), config, 16)
            for name in ("gups", "minife")
            for config in CONFIGS
            if config.mcdram.mode.value in modes
        ]
    expected = {}
    for machine_name, cells in cells_by_machine.items():
        writer = RunCache(cache_dir=tmp_path)
        fresh = SweepExecutor(
            ExperimentRunner(registry.build(machine_name)), check=check
        )
        machine = fresh.machine
        records = fresh.run_cells(cells)
        for cell, record in zip(cells, records):
            key = reference_key(
                machine, cell.workload, cell.config, cell.num_threads, check
            )
            writer.put(key, record)
        expected[machine_name] = records
    for machine_name, cells in cells_by_machine.items():
        reader = SweepExecutor(
            ExperimentRunner(registry.build(machine_name)),
            cache_dir=tmp_path,
            check=check,
        )
        assert reader.run_cells(cells) == expected[machine_name]
        stats = reader.stats()
        assert stats.disk_hits == len(cells)
        assert stats.executed == 0


@pytest.mark.parametrize("check", CHECKS)
def test_memoized_keys_match_the_formula_on_every_repeat(check):
    """Keys served from the per-workload memo — second and later calls,
    interleaved across machines, configs and threads — are the
    reference bytes under every check mode."""
    machines = [registry.build(name) for name in ("knl7210", "xeonmax9480")]
    workloads = [sized_workload(name, 9.0) for name in ("gups", "xsbench")]
    cells = [
        (machine, workload, config, threads)
        for machine in machines
        for workload in workloads
        for config in CONFIGS
        for threads in THREADS
    ]
    expected = [reference_key(*cell, check) for cell in cells]
    for _ in range(3):
        assert [cache_key(*cell, check=check) for cell in cells] == expected


def test_ablation_configs_sharing_a_name_get_distinct_memoized_keys():
    machine = registry.build("knl7210")
    workload = sized_workload("minife", 6.0)
    ablations = [
        make_config(ConfigName.CACHE, cache_associativity=ways)
        for ways in (1, 2, 8)
    ]
    assert len({config.name for config in ablations}) == 1
    for check in CHECKS:
        for _ in range(2):
            keys = [
                cache_key(machine, workload, config, 64, check=check)
                for config in ablations
            ]
            assert len(set(keys)) == len(ablations)
            assert keys == [
                reference_key(machine, workload, config, 64, check)
                for config in ablations
            ]


def test_equal_machine_objects_share_keys():
    """The memo is keyed on object identity, but keys stay content
    addresses: a second build of a preset keys every cell the same."""
    workload = sized_workload("graph500", 6.0)
    first, second = registry.build("knl7250"), registry.build("knl7250")
    assert first is not second
    for config in CONFIGS:
        assert cache_key(first, workload, config, 32) == cache_key(
            second, workload, config, 32
        )
