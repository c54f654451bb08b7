"""BENCH trajectory files: one writer, one history schema.

``make bench`` / ``make bench-serve`` / ``bench plan`` regenerate their
BENCH_*.json files through :func:`repro.core.perfbench.write_bench_json`:
the headline document is replaced, the ``history`` list already in the
file is carried forward untouched, and the bench's own row (built by its
row builder) is appended.  The engine document always carries the
constant ``recalibration`` note explaining the 2026-08 scalar-baseline
break.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.core.perfbench import (
    RECALIBRATION_NOTE,
    EngineBenchResult,
    engine_history_row,
    write_bench_json,
)
from repro.plan.bench import plan_history_row
from repro.serve.loadgen import serve_history_row, sharded_history_row

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def fake_result(scalar_seconds: float = 0.05) -> EngineBenchResult:
    return EngineBenchResult(
        grid_points=1000,
        scalar_sample_points=100,
        scalar_seconds=scalar_seconds,
        batch_cold_seconds=0.02,
        batch_warm_seconds=0.01,
        batch_hot_seconds=0.005,
        identity_checked_points=100,
        eventsim_requests=12800,
        eventsim_reference_seconds=0.04,
        eventsim_optimized_seconds=0.008,
    )


def write_engine(result: EngineBenchResult, path) -> None:
    write_bench_json(result.as_dict(), path, engine_history_row(result))


class TestEngineBenchHistory:
    def test_first_write_creates_history_and_recalibration(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == RECALIBRATION_NOTE
        assert len(document["history"]) == 1
        entry = document["history"][0]
        assert entry["scalar_us_per_point"] == 500.0
        assert entry["eventsim_speedup"] == 5.0
        assert "at" in entry

    def test_regeneration_appends_not_overwrites(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine(fake_result(0.05), path)
        write_engine(fake_result(0.02), path)
        document = json.loads(path.read_text())
        assert [h["scalar_us_per_point"] for h in document["history"]] == [
            500.0,
            200.0,
        ]
        # The headline block always reflects the latest measurement.
        assert document["scalar"]["us_per_point"] == 200.0

    def test_recalibration_note_is_always_the_constant(self, tmp_path):
        committed = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        assert committed["recalibration"] == RECALIBRATION_NOTE
        path = tmp_path / "BENCH_engine.json"
        stale = {"date": "2031-01-01", "reason": "future break"}
        path.write_text(json.dumps({"recalibration": stale}))
        write_engine(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["recalibration"] == RECALIBRATION_NOTE

    def test_corrupt_existing_file_starts_history_fresh(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json")
        write_engine(fake_result(), path)
        document = json.loads(path.read_text())
        assert len(document["history"]) == 1

    def test_eventsim_point_recorded(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        write_engine(fake_result(), path)
        document = json.loads(path.read_text())
        assert document["eventsim"]["speedup"] == 5.0
        assert document["eventsim"]["requests"] == 12800


class TestServeBenchHistory:
    DOCUMENT = {
        "speedup_coalesced_vs_naive": 3.1,
        "speedup_hot_vs_naive": 4.0,
        "concurrency": 64,
        "coalesced": {"goodput_rps": 900.0},
    }

    def test_history_accumulates_across_writes(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        row = serve_history_row(self.DOCUMENT)
        write_bench_json(self.DOCUMENT, path, row)
        write_bench_json(self.DOCUMENT, path, row)
        document = json.loads(path.read_text())
        assert len(document["history"]) == 2
        assert all(
            h["speedup_coalesced_vs_naive"] == 3.1 for h in document["history"]
        )

    def test_sharded_scaling_summary_lands_in_history(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        sharded = {
            "backend": "process",
            "concurrency": 1024,
            "scaling": {
                "goodput_rps": {"1": 100.0, "4": 380.0},
                "speedup_vs_min": {"1": 1.0, "4": 3.8},
                "parallel_efficiency": {"1": 1.0, "4": 0.95},
            },
        }
        write_bench_json({"sharded": sharded}, path, sharded_history_row(sharded))
        entry = json.loads(path.read_text())["history"][0]
        assert entry["speedup_vs_min"] == {"1": 1.0, "4": 3.8}
        assert entry["parallel_efficiency"] == {"1": 1.0, "4": 0.95}
        assert entry["backend"] == "process"

    def test_input_document_is_not_mutated(self, tmp_path):
        document = dict(self.DOCUMENT)
        write_bench_json(
            document, tmp_path / "b.json", serve_history_row(document)
        )
        assert "history" not in document


# Keys written by hand into a committed row (a parent-commit comparison
# and its note); no row builder emits them.
_HAND_ANNOTATIONS = {"note", "parent_plan_latency_ms"}


def _engine_rewrite(path: pathlib.Path) -> tuple[dict, dict]:
    result = fake_result()
    return result.as_dict(), engine_history_row(result)


def _plan_rewrite(path: pathlib.Path) -> tuple[dict, dict]:
    document = json.loads(path.read_text())
    del document["history"]
    return document, plan_history_row(document)


@pytest.mark.parametrize(
    "name, rewrite",
    [("BENCH_engine.json", _engine_rewrite), ("BENCH_plan.json", _plan_rewrite)],
)
def test_committed_trajectory_survives_a_rewrite(tmp_path, name, rewrite):
    """Rewriting a committed BENCH file through the one writer keeps
    every earlier ``history`` row byte-for-byte and appends exactly one
    row with the keys of the latest committed row."""
    path = tmp_path / name
    shutil.copy(REPO_ROOT / name, path)
    before = json.loads(path.read_text())["history"]
    document, row = rewrite(path)
    write_bench_json(document, path, row)
    after = json.loads(path.read_text())["history"]
    assert len(after) == len(before) + 1
    for old, kept in zip(before, after):
        assert json.dumps(kept, indent=2) == json.dumps(old, indent=2)
    assert list(after[-1]) == ["at", *row]
    assert set(after[-1]) == set(before[-1]) - _HAND_ANNOTATIONS
