"""Tests of the benchmark's traffic generator.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import traffic  # noqa: E402

SECONDS = 15.0


def _wire(workload: str, seed: int) -> list[bytes]:
    return [r.wire() for r in traffic.stream(workload, seed, SECONDS)]


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload: str) -> None:
    assert _wire(workload, 7) == _wire(workload, 7)
    assert [r.wire() for r in traffic.warmup(workload, 7)] == [
        r.wire() for r in traffic.warmup(workload, 7)
    ]


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_different_seeds_give_different_streams(workload: str) -> None:
    assert _wire(workload, 1) != _wire(workload, 2)


def test_routed_replays_interactive() -> None:
    for seed in (1, 2, 3):
        routed = traffic.stream("routed", seed, SECONDS)
        interactive = traffic.stream("interactive", seed, SECONDS)
        assert routed == interactive


def test_open_loop_arrivals_are_due_in_order_inside_the_window() -> None:
    dues = [r.due_s for r in traffic.stream("interactive", 3, SECONDS)]
    assert dues == sorted(dues)
    assert 0 <= dues[0] and dues[-1] < SECONDS
    assert len(dues) == round(traffic.INTERACTIVE_RATE_RPS * SECONDS)


def test_four_interactive_requests_in_five_repeat_an_earlier_key() -> None:
    for seed in (1, 2, 3):
        bodies = [r.body for r in traffic.stream("interactive", seed, SECONDS)]
        repeats = len(bodies) - len(set(bodies))
        assert repeats == round(traffic.REPEAT_SHARE * len(bodies))


def test_interactive_population_is_several_times_the_result_cache() -> None:
    population = traffic.interactive_population()
    assert len(population) >= 4 * 4096
    assert len({json.dumps(q, sort_keys=True) for q in population}) == len(population)


def test_sweep_has_grids_past_the_admission_queue_within_the_cap() -> None:
    requests = traffic.stream("sweep", 5, SECONDS)
    sizes = [r.queries for r in requests]
    assert any(size > traffic.ADMISSION_QUEUE for size in sizes)
    assert min(sizes) < 100
    assert max(sizes) <= traffic.REQUEST_CAP
    for request in requests:
        assert len(list(traffic.iter_queries(request))) == request.queries


def test_sweep_runs_whole_cycles_of_one_mix() -> None:
    cycle = traffic.cycle_length("sweep")
    for seed in (1, 2):
        sizes = [r.queries for r in traffic.stream("sweep", seed, SECONDS)]
        assert len(sizes) % cycle == 0
        first = sorted(sizes[:cycle])
        for start in range(0, len(sizes), cycle):
            assert sorted(sizes[start : start + cycle]) == first


def test_every_over_cap_grid_is_followed_by_the_smallest_grid() -> None:
    sizes = [r.queries for r in traffic.stream("sweep", 9, SECONDS)]
    for i, size in enumerate(sizes[:-1]):
        if size > traffic.ADMISSION_QUEUE:
            assert sizes[i + 1] == min(sizes)


def test_every_plan_stays_within_the_candidate_cap() -> None:
    for seed in range(1, 6):
        plans = traffic.stream("plan", seed, SECONDS) + traffic.warmup("plan", seed)
        for request in plans:
            plan = request.payload()["plan"]
            assert request.queries == traffic.plan_candidates(plan)
            assert request.queries <= traffic.REQUEST_CAP
            assert {entry["machine"] for entry in plan["pool"]} == set(traffic.PLAN_POOL)
        assert {r.payload()["plan"]["objective"] for r in plans} == set(traffic.PLAN_OBJECTIVES)


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_warmup_is_key_disjoint_from_the_measured_stream(workload: str) -> None:
    def threads(requests: list) -> set[int]:
        found: set[int] = set()
        for request in requests:
            payload = request.payload()
            if "plan" in payload:
                found |= {item["num_threads"] for item in payload["plan"]["mix"]}
            else:
                found |= {q["num_threads"] for q in traffic.iter_queries(request)}
        return found

    measured = threads(traffic.stream(workload, 4, SECONDS))
    warm = threads(traffic.warmup(workload, 4))
    assert measured and warm and not measured & warm


@pytest.mark.parametrize("workload", traffic.WORKLOADS)
def test_warmup_does_the_same_work_whatever_the_seed(workload: str) -> None:
    def volume(seed: int) -> list[int]:
        return sorted(r.queries for r in traffic.warmup(workload, seed))

    assert all(volume(seed) == volume(1) for seed in range(2, 8))
