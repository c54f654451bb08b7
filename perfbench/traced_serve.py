"""Traced launcher for ``repro serve``: records spans, then serves.

Usage::

    python3 perfbench/traced_serve.py SPANS_FILE [repro CLI arguments...]

Before handing its arguments to ``repro.cli.main`` the launcher wraps the
public functions at each layer boundary of the serve path (the program's
files are not touched).  Every call records a span -- name, start, end,
its own id, the id of the span that caused it, and the id of the request
it belongs to -- in memory; when the server exits (SIGINT) the spans are
written to ``SPANS_FILE`` as JSON.  Request ids come from the
``handle_predict`` / ``handle_plan`` root spans and follow the work onto
pool threads, because submitting to a thread pool carries the caller's
context along.  Coalesced batches are shared by many requests and start
their own roots.

Counts are taken at the same boundaries: a span's ``size`` is the number
of queries, cells or points the call handled, and the coalescer's
submit-to-dispatch waits are recorded per query.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import inspect
import itertools
import json
import sys
import types
from time import perf_counter
from typing import Any, Callable

__all__ = ["Recorder", "install"]

_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)


class Recorder:
    """In-memory span store (list appends are atomic across threads)."""

    def __init__(self) -> None:
        #: (name, start, end, span id, parent id, request id, size)
        self.spans: list[tuple[str, float, float, int, int, int, int]] = []
        #: Coalescer: (dispatch time, submit-to-dispatch wait) per query.
        self.waits: list[tuple[float, float]] = []
        self._ids = itertools.count(1)
        self._submitted: dict[int, tuple[float, Any]] = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        root: bool = False,
        size: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """``fn`` with a span around every call."""
        spans, ids = self.spans, self._ids

        def enter() -> tuple[int, int, int, contextvars.Token]:
            span_id = next(ids)
            parent, request = _CURRENT.get()
            if root:
                request = span_id
            return span_id, parent, request, _CURRENT.set((span_id, request))

        def leave(opened: tuple, start: float, args: tuple, result: Any) -> None:
            span_id, parent, request, token = opened
            end = perf_counter()
            _CURRENT.reset(token)
            n = size(args, result) if size is not None and result is not None else 1
            spans.append((name, start, end, span_id, parent, request, n))

        if inspect.iscoroutinefunction(fn):

            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                opened, result = enter(), None
                start = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(opened, start, args, result)

            return traced_async

        def traced(*args: Any, **kwargs: Any) -> Any:
            opened, result = enter(), None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(opened, start, args, result)

        return traced

    # -- coalescer queue waits ----------------------------------------------------
    def wrap_submit(self, fn: Callable) -> Callable:
        submitted = self._submitted

        def submit(coalescer: Any, query: Any, key: str) -> Any:
            future = fn(coalescer, query, key)  # raises when refused
            submitted[id(query)] = (perf_counter(), query)
            return future

        return submit

    def wrap_dispatch(self, fn: Callable) -> Callable:
        """Around the pool-thread batch evaluation: each query's wait
        ends when its batch starts evaluating."""
        submitted, waits = self._submitted, self.waits

        def predict_many(predictor: Any, queries: Any) -> Any:
            now = perf_counter()
            for query in queries:
                entry = submitted.pop(id(query), None)
                if entry is not None:
                    waits.append((now, now - entry[0]))
            return fn(predictor, queries)

        return predict_many

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "waits": self.waits}, handle)


def _carry_context(submit: Callable) -> Callable:
    """``ThreadPoolExecutor.submit`` that runs the task in the caller's
    context, so spans on pool threads keep their parent and request."""

    def submit_in_context(executor: Any, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        return submit(executor, contextvars.copy_context().run, fn, *args, **kwargs)

    return submit_in_context


def _length_of_arg(args: tuple, result: Any) -> int:
    return len(args[1])


def _length_of_result(args: tuple, result: Any) -> int:
    return len(result)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of the serve path (see module docstring)."""
    from repro.api import types as api_types
    from repro.api.facade import Predictor
    from repro.core.executor import SweepExecutor
    from repro.engine.batch import BatchEvaluator
    from repro.engine.energy import EnergyModel
    from repro.engine.table_cache import TableCache
    from repro.plan import planner
    from repro.serve import http, service, shard
    from repro.serve.client import ServeClient
    from repro.serve.coalescer import Coalescer

    wrap = recorder.wrap
    executor_cls = concurrent.futures.ThreadPoolExecutor
    executor_cls.submit = _carry_context(executor_cls.submit)

    for cls in (service.PredictionService, shard.ShardRouter):
        cls.handle_predict = wrap("request.predict", cls.handle_predict, root=True)
        cls.handle_plan = wrap("request.plan", cls.handle_plan, root=True)
    # api.types: decoding
    parse = service.PredictionService.__dict__["parse_queries"].__func__
    service.PredictionService.parse_queries = staticmethod(
        wrap("decode.parse_queries", parse, size=_length_of_result)
    )
    for cls, attr in ((api_types.Query, "from_dict"), (api_types.PredictionResult, "from_record")):
        method = cls.__dict__[attr].__func__
        label = "decode.query_from_dict" if attr == "from_dict" else "assemble.from_record"
        setattr(cls, attr, classmethod(wrap(label, method)))
    api_types.QueryGrid.expand = wrap(
        "decode.grid_expand", api_types.QueryGrid.expand, size=_length_of_result
    )
    api_types.PredictionResult.to_dict = wrap(
        "assemble.to_dict", api_types.PredictionResult.to_dict
    )
    # api.facade, core.executor, engine
    Predictor.resolve = wrap("facade.resolve", Predictor.resolve)
    Predictor.predict_many = recorder.wrap_dispatch(
        wrap("facade.predict_many", Predictor.predict_many, size=_length_of_arg)
    )
    SweepExecutor.cache_key = wrap("executor.cache_key", SweepExecutor.cache_key)
    SweepExecutor.run_cells = wrap(
        "executor.run_cells", SweepExecutor.run_cells, size=_length_of_arg
    )
    BatchEvaluator.evaluate = wrap(
        "engine.evaluate", BatchEvaluator.evaluate, size=_length_of_arg
    )
    TableCache.store = wrap("table_cache.store", TableCache.store)
    # serve.coalescer
    Coalescer.submit = recorder.wrap_submit(Coalescer.submit)
    # api.envelope + the response encoding in serve.http
    service.success_envelope = wrap("encode.envelope", service.success_envelope)
    shard.success_envelope = wrap("encode.envelope", shard.success_envelope)
    http.json = types.SimpleNamespace(
        dumps=wrap("encode.json_dumps", json.dumps),
        loads=json.loads,
        JSONDecodeError=json.JSONDecodeError,
    )
    # plan.planner (+ engine.energy, plan.invariants)
    planner.CapacityPlanner.plan = wrap("plan.plan", planner.CapacityPlanner.plan)
    EnergyModel.estimate_record = wrap("plan.estimate_record", EnergyModel.estimate_record)
    planner.check_plan = wrap("plan.check_plan", planner.check_plan)
    # serve.shard: the router's forwards (health probes are GETs, skipped)
    forward = wrap("router.forward", ServeClient.request)
    plain = ServeClient.request

    def request(client: Any, method: str, *args: Any, **kwargs: Any) -> Any:
        call = forward if method == "POST" else plain
        return call(client, method, *args, **kwargs)

    ServeClient.request = request


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
