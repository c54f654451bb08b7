"""Serve-path benchmark: end-to-end and per-layer numbers for ``repro serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every gated workload

Each run boots ``repro serve --prewarm`` (``routed``: ``--replicas 2``)
as its own process on a fresh table-cache directory, :data:`BOOTS`
times, and drives the servers from this process with the seeded traffic
of :mod:`traffic`: the open-loop workloads replay a stream of a third of
``--seconds`` on each of the last three servers (each end-to-end metric
is the median of the three windows), the closed-loop workloads send one
stream of ``--seconds`` to the last.  It then checks a sample of the answers
against the in-process oracles (:mod:`oracle`), prints a report, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports the per-layer metrics, taken from a second,
traced server process (:mod:`traced_serve`) fed the same traffic, with
the tracing overhead measured against an untraced run of that traffic.
``BENCHMARK.json`` is the one source of metric names and units.  A run
whose correctness gate fails reports no numbers: its result has
``"correct": false`` and empty ``metrics``, and it exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import traffic  # noqa: E402
from loadgen import DRAIN_S, Outcome, closed_loop, open_loop  # noqa: E402
from server import boot  # noqa: E402

#: Boots per untraced run; ``setup_s`` is the median of their times.
BOOTS = 5
#: Open-loop workloads, whose stream is replayed on the last
#: :data:`WINDOWS` boots.  Their stream draws fresh keys at a fixed rate,
#: so its length sets how many a run draws; it stays at the 15 s the
#: benchmark was defined with, and the replays on fresh servers measure
#: the rest of the run.  A closed loop's first cycles fill the run cache,
#: so one long window is steadier than three short ones.
REPLAYED = ("interactive", "routed")
WINDOWS = 3
#: Replies kept for the correctness gate.
SAMPLE = {"interactive": 48, "routed": 48, "sweep": 6, "plan": 2}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile.  Failures enter as ``inf``; a percentile
    that lands on one reads as the drain deadline, the latency at which a
    missing reply counts as timed out."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return min(ordered[rank], DRAIN_S * 1e3)


@dataclass
class Phase:
    """One measured window against one server."""

    workload: str
    outcomes: list[Outcome]
    #: The window: opens with the first request, closes with the last reply.
    t0: float
    t1: float
    cpu_s: float
    rss_mb: float
    metrics_before: dict[str, Any]
    metrics_after: dict[str, Any]
    warmup: list[Outcome] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0

    @property
    def window_s(self) -> float:
        return self.t1 - self.t0

    @property
    def succeeded(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]

    def latencies(self) -> list[float]:
        return [o.latency_ms if o.ok else math.inf for o in self.outcomes]

    def late_ms_p99(self) -> float:
        """How late the open-loop generator sent (0 for closed loops)."""
        return percentile([(o.sent - o.due) * 1e3 for o in self.outcomes], 99.0)

    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end figure of the window (``setup_s`` comes from
        the boots).  On the open-loop workloads ``throughput_rps`` and
        ``points_per_s`` are the offered rate unless requests fail or the
        server falls behind."""
        latencies = self.latencies()
        answered = sum(o.answered for o in self.succeeded)
        return {
            "latency_p50_ms": percentile(latencies, 50.0),
            "latency_p90_ms": percentile(latencies, 90.0),
            "latency_p99_ms": percentile(latencies, 99.0),
            "throughput_rps": len(self.succeeded) / self.window_s,
            "points_per_s": answered / self.window_s,
            "cpu_us_per_query": self.cpu_s / max(answered, 1) * 1e6,
            "rss_peak_mb": self.rss_mb,
            "error_rate": 1.0 - len(self.succeeded) / len(self.outcomes),
        }


def _sample(workload: str, seed: int, population: int) -> frozenset[int]:
    rng = random.Random(f"sample:{workload}:{seed}")
    return frozenset(rng.sample(range(population), min(SAMPLE[workload], population)))


def drive(server: Any, workload: str, seed: int, requests: list, keep: frozenset[int]) -> Phase:
    """Warm up (untimed, key-disjoint), then measure one window."""
    warm_requests = traffic.warmup(workload, seed)
    if warm_requests[0].due_s is None:
        warm = closed_loop(server.host, server.port, warm_requests)
    else:
        warm, _ = open_loop(server.host, server.port, warm_requests)
    before = server.metrics()
    # Keep the collector's pauses out of the generator's timestamps: the
    # window allocates no reference cycles worth collecting.
    gc.collect()
    gc.disable()
    try:
        cpu0, load0 = server.cpu_s(), time.process_time()
        if workload in ("interactive", "routed"):
            outcomes, t0 = open_loop(server.host, server.port, requests, keep=keep)
        else:
            t0 = time.perf_counter()
            outcomes = closed_loop(server.host, server.port, requests, keep=keep)
        t1 = max(o.done for o in outcomes)
        cpu, load = server.cpu_s() - cpu0, time.process_time() - load0
    finally:
        gc.enable()
    after = server.metrics()
    return Phase(
        workload, outcomes, t0, t1, cpu, server.rss_peak_mb(), before, after,
        warmup=warm, loadgen_cpu_s=load,
    )


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict[str, Any]:
    """Untraced: :data:`BOOTS` boots; a replayed workload is measured on
    the last :data:`WINDOWS`, a closed loop on the last one.  Traced: one
    untraced and one traced boot, both measured on the same traffic."""
    replicas = 2 if workload == "routed" else 1
    replayed = workload in REPLAYED
    windows = WINDOWS if replayed else 1
    requests = traffic.stream(workload, seed, seconds / windows)
    keep = _sample(workload, seed, len(requests))
    spans_file = scratch / "spans.json"
    if trace:
        boots: list[tuple[str | None, Path | None]] = [("untraced", None), ("traced", spans_file)]
    else:
        names = [f"window {i + 1}" for i in range(windows)] if replayed else ["window"]
        boots = [(None, None)] * (BOOTS - windows) + [(name, None) for name in names]
    setups: list[float] = []
    phases: dict[str, Phase] = {}
    for name, spans in boots:
        server = boot(ROOT, scratch, replicas=replicas, traced_spans=spans)
        try:
            setups.append(server.setup_s)
            if name is not None:
                phases[name] = drive(server, workload, seed, requests, keep)
        finally:
            server.stop()
            shutil.rmtree(server.table_dir, ignore_errors=True)
    verdicts = [oracle.check(requests, phase.outcomes) for phase in phases.values()]
    result = {
        "setups": setups,
        "phases": phases,
        "checked": sum(v.checked for v in verdicts),
        "problems": [p for v in verdicts for p in v.problems],
    }
    if trace:
        spans = json.loads(spans_file.read_text())
        result["per_layer"] = layers.per_layer(
            workload, phases["traced"], phases["untraced"], requests, spans
        )
    return result


def _report_phase(name: str, phase: Phase) -> list[str]:
    lines = []
    for label, outcomes in (("warmup", phase.warmup), ("measure", phase.outcomes)):
        ok = sum(o.ok for o in outcomes)
        line = f"  [{name}/{label}] sent {len(outcomes)}  succeeded {ok}  failed {len(outcomes) - ok}"
        if label == "measure":
            line += f"  in {phase.window_s:.2f} s"
            refused = sum(o.status == 429 for o in outcomes)
            timed_out = sum(o.status in (-1, 504) for o in outcomes)
            dropped = sum(o.status == 0 for o in outcomes)
            line += f"  (refused {refused}, timed out {timed_out}, dropped {dropped})"
        lines.append(line)
    return lines


#: Units of the end-to-end figures that are printed but not in
#: ``BENCHMARK.json`` (the tails and error rate spread too widely over
#: seeds to bound; ``points_per_s`` is a ``sweep`` figure).
UNBOUNDED_UNITS = {
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "points_per_s": "1/s",
    "error_rate": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*traffic.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    section = "per_layer" if args.trace else "end_to_end"
    reported = {m["name"]: m["unit"] for m in bench[section]}
    # Servers stop on SIGINT (their drain path).  A shell that starts this
    # process in the background ignores SIGINT, and children inherit an
    # ignored signal; a handler here is reset to the default in children.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    gated = [w["name"] for w in bench["workloads"]]
    workloads = gated if args.workload == "all" else [args.workload]
    scratch = ROOT / ".perfbench_run" / str(os.getpid())
    summary: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result = run(workload, args.seed, args.seconds, bool(args.trace), scratch)
            phases = result["phases"]
            print(f"== {workload} (seed {args.seed}, --seconds {args.seconds:g})")
            for name, measured in phases.items():
                print("\n".join(_report_phase(name, measured)))
            print(f"  correctness: {result['checked']} answers checked, "
                  f"{len(result['problems'])} mismatches")
            for problem in result["problems"][:10]:
                print(f"    MISMATCH {problem}")
            summary["correct"] &= not result["problems"] and result["checked"] > 0
            for measured in phases.values():
                summary["attempted"] += len(measured.outcomes)
                summary["failed"] += len(measured.outcomes) - len(measured.succeeded)
            if not summary["correct"]:
                print("  correctness gate failed: no numbers reported")
                continue
            if args.trace:
                metrics = result["per_layer"]
            else:
                windows = [measured.end_to_end() for measured in phases.values()]
                metrics = {name: statistics.median(w[name] for w in windows) for name in windows[0]}
                metrics["setup_s"] = statistics.median(result["setups"])
            for name in reported:
                print(f"  {name:<32} {metrics[name]:14.4f} {reported[name]}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                summary["metrics"][key] = {"value": metrics[name], "unit": reported[name]}
            for name, value in metrics.items():
                if name not in reported:
                    unit = UNBOUNDED_UNITS[name]
                    print(f"  {name + ' (not bounded)':<32} {value:14.4f} {unit}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    if not summary["correct"]:
        summary["metrics"] = {}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
