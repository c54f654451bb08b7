"""Per-layer metrics of a traced run.

Inputs: the spans the traced server wrote (:mod:`traced_serve`), the
``/metrics`` documents taken just before and after the measured window,
and the generator's own outcomes.  Spans count when they start inside
the window (the server and the generator share the monotonic clock).

Per-query figures divide by the queries the window's requests expand to
(plan: candidate queries).  A layer the workload never reaches reports
0.  Self time is a span's duration minus the part of it its child spans
cover.  Metric names and units are in ``BENCHMARK.json``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any

__all__ = ["per_layer"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, *path: str) -> float:
    for key in path:
        before, after = before.get(key, {}), after.get(key, {})
    return float(after or 0) - float(before or 0)


def _histogram_mean(before: dict, after: dict, name: str) -> float:
    b = before.get("histograms", {}).get(name, {})
    a = after.get("histograms", {}).get(name, {})
    return _ratio(a.get("sum", 0.0) - b.get("sum", 0.0), a.get("count", 0) - b.get("count", 0))


def _counter_total(before: dict, after: dict, prefix: str) -> float:
    total = 0.0
    for name, value in after.get("counters", {}).items():
        if name == prefix or name.startswith(prefix + "{"):
            total += value - before.get("counters", {}).get(name, 0.0)
    return total


def _self_time(span: tuple, children: list[tuple]) -> float:
    """Duration minus the union of the children's intervals."""
    covered, reach = 0.0, span[1]
    for child in sorted(children, key=lambda c: c[1]):
        start, end = max(child[1], reach), min(child[2], span[2])
        if end > start:
            covered += end - start
            reach = end
    return (span[2] - span[1]) - covered


def per_layer(workload: str, traced: Any, untraced: Any, requests: list, trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced phase (``run.Phase``), with
    the tracing overhead against the untraced phase of the same traffic."""
    start, end = traced.t0, traced.t1
    spans = [s for s in trace["spans"] if start <= s[1] <= end]
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[0]].append(span)
        children[span[4]].append(span)

    def total_s(*names: str) -> float:
        return sum(s[2] - s[1] for name in names for s in by_name[name])

    def size(name: str) -> int:
        return sum(s[6] for s in by_name[name])

    queries = sum(requests[o.index].queries for o in traced.outcomes)

    def per_query_us(*names: str) -> float:
        return _ratio(total_s(*names), queries) * 1e6
    b, a = traced.metrics_before, traced.metrics_after
    routed = workload == "routed"
    # Replica-side sections: the service's own, or the fleet aggregate.
    rb = b.get("aggregate", b) if routed else b
    ra = a.get("aggregate", a) if routed else a
    endpoint = "/v1/plan" if workload == "plan" else "/v1/predict"
    request_ms = f"serve.request_ms{{endpoint={endpoint}}}"
    server_ms = _histogram_mean(b["service"], a["service"], request_ms)
    answered = [o for o in traced.outcomes if o.status > 0]
    client_ms = statistics.fmean((o.done - o.sent) * 1e3 for o in answered) if answered else 0.0

    if routed:
        coalescer_b = [r.get("coalescer", {}) for r in b["replicas"].values()]
        coalescer_a = [r.get("coalescer", {}) for r in a["replicas"].values()]
    else:
        coalescer_b, coalescer_a = [b["coalescer"]], [a["coalescer"]]

    def coalescer(key: str) -> float:
        return sum(x.get(key, 0) for x in coalescer_a) - sum(x.get(key, 0) for x in coalescer_b)

    batched = coalescer("batched_queries")
    computed = sum(o.computed for o in traced.outcomes if o.ok)
    waits = [w for t, w in trace["waits"] if start <= t <= end]
    batch_ages: dict[float, float] = {}
    for t, w in trace["waits"]:
        if start <= t <= end:
            batch_ages[t] = max(batch_ages.get(t, 0.0), w)
    executed = _delta(rb, ra, "executor", "executed") - _delta(rb, ra, "executor", "batched_cells")
    run_hits = _delta(rb, ra, "executor", "hits")
    run_lookups = run_hits + _delta(rb, ra, "executor", "misses")
    cache_hits = _delta(rb, ra, "cache", "hits")
    cache_lookups = cache_hits + _delta(rb, ra, "cache", "misses")
    plans = by_name["plan.plan"]
    n_plans = len(plans) if workload == "plan" else 0
    plan_ids = {p[3] for p in plans}
    # The planner's own candidate evaluations: its ``run_cells`` calls.
    plan_cells = [s for s in by_name["executor.run_cells"] if s[4] in plan_ids]
    stores = by_name["table_cache.store"]

    metrics = {
        "http.server_ms": server_ms,
        "http.client_overhead_ms": client_ms - server_ms,
        "decode.us_per_query": per_query_us("decode.parse_queries"),
        "resolve.us_per_query": per_query_us("facade.resolve"),
        "run_key.calls_per_query": _ratio(len(by_name["executor.cache_key"]), queries),
        "run_key.us_per_query": per_query_us("executor.cache_key"),
        "executor.run_cache_hit_ratio": _ratio(run_hits, run_lookups),
        "cache.hit_ratio": _ratio(cache_hits, cache_lookups),
        "cache.evictions": _delta(rb, ra, "cache", "evictions"),
        "coalescer.queue_wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
        "coalescer.window_ms": statistics.fmean(batch_ages.values()) * 1e3 if batch_ages else 0.0,
        "coalescer.batch_size_mean": _ratio(batched, coalescer("batches")),
        "coalescer.rejected": float(coalescer("rejected")),
        "coalescer.useful_ratio": _ratio(computed, batched),
        # Self time: the table-cache stores an evaluation ends with are
        # reported on their own.
        "engine.us_per_point": _ratio(
            sum(_self_time(s, children[s[3]]) for s in by_name["engine.evaluate"]),
            size("engine.evaluate"),
        ) * 1e6,
        "engine.scalar_cells": executed,
        "table_cache.misses": _delta(rb, ra, "executor", "table_cache_misses"),
        "table_cache.stores": float(len(stores)),
        "table_cache.store_ms": _ratio(total_s("table_cache.store"), len(stores)) * 1e3,
        "assemble.us_per_query": per_query_us("assemble.from_record", "assemble.to_dict"),
        "encode.us_per_query": per_query_us("encode.envelope", "encode.json_dumps"),
        "plan.candidates_per_plan": _ratio(sum(s[6] for s in plan_cells), n_plans),
        "plan.evaluate_ms": _ratio(sum(s[2] - s[1] for s in plan_cells), n_plans) * 1e3,
        "plan.pricing_ms": _ratio(total_s("plan.estimate_record"), n_plans) * 1e3,
        "plan.audit_ms": _ratio(total_s("plan.check_plan"), n_plans) * 1e3,
        "plan.packing_ms": _ratio(sum(_self_time(p, children[p[3]]) for p in plans), n_plans) * 1e3,
        "router.hop_ms": 0.0,
        "router.forward_ms": 0.0,
        "router.cache_hit_ratio": 0.0,
        "router.failovers": 0.0,
        "loadgen.late_ms_p99": traced.late_ms_p99(),
        "loadgen.cpu_share": _ratio(traced.loadgen_cpu_s, traced.window_s),
        "trace.overhead_p50_ms": traced.end_to_end()["latency_p50_ms"]
        - untraced.end_to_end()["latency_p50_ms"],
        "trace.overhead_cpu_us_per_query": traced.end_to_end()["cpu_us_per_query"]
        - untraced.end_to_end()["cpu_us_per_query"],
        "trace.spans_per_query": _ratio(len(spans), queries),
    }
    if routed:
        forwards = by_name["router.forward"]
        forward_ms = _ratio(total_s("router.forward"), len(forwards)) * 1e3
        replica_ms = _histogram_mean(rb["service"], ra["service"], request_ms)
        router_hits = _delta(b, a, "cache", "hits")
        metrics.update(
            {
                "router.forward_ms": forward_ms,
                "router.hop_ms": forward_ms - replica_ms if forwards else 0.0,
                "router.cache_hit_ratio": _ratio(
                    router_hits, router_hits + _delta(b, a, "cache", "misses")
                ),
                "router.failovers": _counter_total(b["service"], a["service"], "router.failovers"),
            }
        )
    return metrics
