"""The correctness gate, run after the timed window.

* ``/v1/predict``: every sampled answer is decoded in full
  (``PredictionResult.from_dict``) and must be bit-identical to the
  in-process scalar oracle ``Predictor.predict`` of the same query,
  echoed ``query`` included.  Up to :data:`POINTS_PER_REPLY` evenly
  spaced points of each sampled grid are checked.
* ``/v1/plan``: every sampled plan must pass
  ``repro.plan.invariants.check_plan`` and equal an in-process
  ``CapacityPlanner.plan`` of the same spec.

Comparison is on the JSON form, which round-trips floats exactly, so any
last-digit drift is a mismatch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from loadgen import Outcome
from traffic import Request, iter_queries

__all__ = ["POINTS_PER_REPLY", "Verdict", "check"]

#: Points checked per sampled ``/v1/predict`` reply.
POINTS_PER_REPLY = 64


def _roundtrip(document: Any) -> Any:
    return json.loads(json.dumps(document))


@dataclass
class Verdict:
    checked: int = 0
    problems: list[str] = field(default_factory=list)


def check(requests: Sequence[Request], outcomes: Sequence[Outcome]) -> Verdict:
    """Check every kept reply."""
    from repro.api.facade import Predictor
    from repro.api.plan import PlanRequest, PlanResult
    from repro.api.types import PredictionResult, Query
    from repro.plan.invariants import check_plan
    from repro.plan.planner import CapacityPlanner

    predictor = Predictor()
    verdict = Verdict()
    problems = verdict.problems
    for outcome in outcomes:
        if outcome.reply is None or not outcome.ok:
            continue
        request = requests[outcome.index]
        if request.path == "/v1/plan":
            spec = PlanRequest.from_dict(request.payload()["plan"])
            answer = PlanResult.from_dict(outcome.reply["plan"])
            violations = check_plan(spec, answer)
            if violations:
                problems.append(f"plan #{outcome.index}: {violations}")
            expected = CapacityPlanner(Predictor()).plan(spec).to_dict()
            if _roundtrip(expected) != outcome.reply["plan"]:
                problems.append(f"plan #{outcome.index}: differs from in-process plan")
            verdict.checked += 1
            continue
        queries = list(iter_queries(request))
        results = outcome.reply["results"]
        if len(results) != len(queries):
            problems.append(
                f"request #{outcome.index}: {len(results)} results for "
                f"{len(queries)} queries"
            )
            continue
        step = max(1, len(queries) // POINTS_PER_REPLY)
        for position in range(0, len(queries), step):
            answer = PredictionResult.from_dict(results[position])
            expected = predictor.predict(Query.from_dict(queries[position]))
            if answer != expected or _roundtrip(expected.to_dict()) != results[position]:
                problems.append(
                    f"request #{outcome.index} point {position}: "
                    f"{results[position]} != {expected.to_dict()}"
                )
            verdict.checked += 1
    return verdict
