"""The fleet-scale capacity planner.

Given a declarative traffic mix and a machine pool
(:class:`~repro.api.plan.PlanRequest`), the planner:

1. **fans out** every (item, machine, config) candidate into sweep
   cells — admitted exactly as :meth:`~repro.api.facade.Predictor.resolve`
   would admit the matching query — and evaluates them as dense
   per-machine batches through the
   :class:`~repro.api.facade.Predictor`'s executors, so each
   candidate's prediction is bit-identical to a direct
   :meth:`~repro.api.facade.Predictor.predict` of the same query and
   shares the run cache and the persistent table cache (a prewarmed
   deployment plans with **zero** table builds);
2. **prices** each candidate: its busy-node load by Little's law
   (``weight * time_s``) and its energy per arrival through
   :class:`~repro.engine.energy.EnergyModel`;
3. **solves** the placement: deterministic greedy best-fit-decreasing
   (hardest items first) followed by a bounded best-improvement local
   search, minimizing aggregate runtime load or aggregate energy under
   the pool's node-count capacity constraints;
4. **validates** the answer against the plan invariants
   (:mod:`repro.plan.invariants`) before returning it.

Candidates a machine cannot run at all — an unsupported memory mode,
a thread count over the machine's limit, a footprint the model calls
infeasible (the paper's Fig. 4 missing bars) — are silently excluded;
an item left with *no* candidate anywhere raises
:class:`~repro.api.errors.InfeasiblePlanError`, as does a mix whose
loads cannot be packed into the pool.

Everything is deterministic: no randomness, no wall-clock inputs, and
stable tie-breaking (item order, then machine and config names), so
the same request always produces the same
:class:`~repro.api.plan.PlanResult` — the property the CLI-vs-service
identity test pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.api.errors import InfeasiblePlanError, PlanError
from repro.api.facade import Predictor, sized_workload
from repro.api.plan import (
    MachineLoad,
    PlanAssignment,
    PlanRequest,
    PlanResult,
)
from repro.core.configs import ConfigName, make_config
from repro.core.executor import SweepCell
from repro.core.runner import RunRecord
from repro.engine.energy import EnergyModel, EnergyParameters
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.plan.invariants import check_plan
from repro.runtime.simos import ensure_mode_supported

__all__ = ["CapacityPlanner", "plan_request"]

#: Relative capacity slack for float sums of loads.
_REL_TOL = 1e-9

#: Hard ceiling on local-search improvement rounds (each round applies
#: the single best improving move; convergence is usually a handful).
_MAX_SEARCH_ROUNDS = 256


@dataclass(slots=True, eq=False)
class _Candidate:
    """One evaluated (item, machine, config) placement option.

    ``machine`` and ``config`` are the canonical wire names; ``record``
    is the feasible :class:`~repro.core.runner.RunRecord` the assignment
    reads its prediction from.
    """

    item_index: int
    machine: str
    config: str
    record: RunRecord
    load_nodes: float
    energy_j: float
    cost: float


class CapacityPlanner:
    """Solves :class:`PlanRequest` specs over a shared predictor.

    Like the predictor it wraps, a planner is **not** thread-safe; the
    serving layer builds one per worker thread on top of that thread's
    predictor (so plans share the service's executors and caches).
    """

    def __init__(
        self,
        predictor: Predictor | None = None,
        *,
        energy_params: EnergyParameters | None = None,
    ) -> None:
        self.predictor = predictor if predictor is not None else Predictor()
        self.energy_model = EnergyModel(energy_params)

    # -- evaluation -----------------------------------------------------------
    def _candidates(self, request: PlanRequest) -> list[list[_Candidate]]:
        """Per-item feasible candidates, evaluated as one dense batch per
        machine (the bit-identity path).

        Admission mirrors :meth:`Predictor.resolve` without building a
        query per candidate: the memory-mode check runs once per
        (machine, config) and the thread placement once per
        (machine, thread count).
        """
        # Machine-independent problems (unknown workload, a size the
        # constructor rejects) are typed request errors, not "infeasible
        # everywhere" — surface them before any fan-out.
        workloads = [
            sized_workload(item.workload, item.size_gb) for item in request.mix
        ]
        energy = request.objective == "energy"
        per_item: list[list[_Candidate]] = [[] for _ in request.mix]
        for entry in request.pool:
            machine = self.predictor.machine(entry.machine)
            configs = []
            for name in entry.effective_configs():
                config = make_config(ConfigName(name))
                try:
                    ensure_mode_supported(machine, config.mcdram)
                except ValueError:
                    continue  # this machine offers no such memory mode
                configs.append(config)
            placeable: dict[int, bool] = {}
            cells: list[SweepCell] = []
            owners: list[int] = []
            for index, item in enumerate(request.mix):
                threads = item.num_threads
                ok = placeable.get(threads)
                if ok is None:
                    try:
                        machine.place_threads(threads)
                        ok = True
                    except ValueError:
                        ok = False  # over the machine's thread limit
                    placeable[threads] = ok
                if not ok:
                    continue
                for config in configs:
                    cells.append(SweepCell(workloads[index], config, threads))
                    owners.append(index)
            if not cells:
                continue
            records = self.predictor.executor(entry.machine).run_cells(cells)
            for cell, index, record in zip(cells, owners, records):
                run = record.run_result
                if record.infeasible_reason is not None or run is None:
                    continue  # modelled infeasibility: not a candidate
                item = request.mix[index]
                load = item.weight * run.time_ns * 1e-9
                estimate = self.energy_model.estimate_record(
                    cell.workload, record
                )
                per_item[index].append(
                    _Candidate(
                        index,
                        entry.machine,
                        cell.config.name.value,
                        record,
                        load,
                        estimate.total_j,
                        item.weight * estimate.total_j if energy else load,
                    )
                )
        # Deterministic candidate order regardless of batch scheduling.
        for options in per_item:
            options.sort(key=lambda c: (c.cost, c.machine, c.config))
        return per_item

    # -- solving --------------------------------------------------------------
    @staticmethod
    def _fits(load: float, remaining: float) -> bool:
        return load <= remaining + abs(remaining) * _REL_TOL + 1e-12

    def _greedy(
        self,
        request: PlanRequest,
        per_item: Sequence[Sequence[_Candidate]],
    ) -> list[_Candidate]:
        missing = [
            request.mix[i].workload
            for i, options in enumerate(per_item)
            if not options
        ]
        if missing:
            raise InfeasiblePlanError(
                "no feasible (machine, config) candidate for mix item(s): "
                + ", ".join(missing),
                details={"items": missing},
            )
        remaining = {entry.machine: float(entry.nodes) for entry in request.pool}
        # Best-fit decreasing: place the hardest items (largest best-case
        # cost) first, while capacity is still fungible.
        order = sorted(
            range(len(per_item)),
            key=lambda i: (-per_item[i][0].cost, i),
        )
        chosen: list[_Candidate | None] = [None] * len(per_item)
        for index in order:
            placed = None
            for candidate in per_item[index]:
                if self._fits(candidate.load_nodes, remaining[candidate.machine]):
                    placed = candidate
                    break
            if placed is None:
                item = request.mix[index]
                raise InfeasiblePlanError(
                    f"mix item {index} ({item.workload}, "
                    f"{item.size_gb:g} GB, weight {item.weight:g}) does not "
                    "fit the remaining node capacity on any machine",
                    details={
                        "item": item.to_dict(),
                        "remaining_nodes": dict(remaining),
                    },
                )
            chosen[index] = placed
            remaining[placed.machine] -= placed.load_nodes
        assert all(c is not None for c in chosen)
        return chosen  # type: ignore[return-value]

    def _local_search(
        self,
        request: PlanRequest,
        per_item: Sequence[Sequence[_Candidate]],
        chosen: list[_Candidate],
    ) -> list[_Candidate]:
        """Bounded best-improvement search: repeatedly apply the single
        move (reassign one item to another candidate) that most reduces
        the objective while staying capacity-feasible."""
        remaining = {entry.machine: float(entry.nodes) for entry in request.pool}
        for candidate in chosen:
            remaining[candidate.machine] -= candidate.load_nodes
        for _ in range(_MAX_SEARCH_ROUNDS):
            best_delta = 0.0
            best_move: tuple[int, _Candidate] | None = None
            for index, current in enumerate(chosen):
                for candidate in per_item[index]:
                    if candidate is current:
                        continue
                    delta = candidate.cost - current.cost
                    if delta >= best_delta:
                        continue
                    free = remaining[candidate.machine]
                    if candidate.machine == current.machine:
                        free += current.load_nodes
                    if not self._fits(candidate.load_nodes, free):
                        continue
                    best_delta = delta
                    best_move = (index, candidate)
            if best_move is None:
                return chosen
            index, candidate = best_move
            current = chosen[index]
            remaining[current.machine] += current.load_nodes
            remaining[candidate.machine] -= candidate.load_nodes
            chosen[index] = candidate
        return chosen

    # -- entry point ----------------------------------------------------------
    def plan(self, request: PlanRequest) -> PlanResult:
        """Solve one request; raises the typed :mod:`repro.api.errors`
        on malformed or infeasible specs."""
        tags = {
            "items": len(request.mix),
            "pool": len(request.pool),
            "objective": request.objective,
        }
        with obs_trace.span("plan.solve", tags=tags):
            per_item = self._candidates(request)
            obs_metrics.add(
                "plan.candidates",
                float(sum(len(options) for options in per_item)),
            )
            chosen = self._greedy(request, per_item)
            chosen = self._local_search(request, per_item, chosen)
            assignments = tuple(
                PlanAssignment(
                    item=request.mix[candidate.item_index],
                    machine=candidate.machine,
                    config=candidate.config,
                    time_ns=candidate.record.run_result.time_ns,
                    metric=candidate.record.metric,
                    metric_name=candidate.record.metric_name,
                    metric_unit=candidate.record.metric_unit,
                    load_nodes=candidate.load_nodes,
                    energy_j=candidate.energy_j,
                )
                for candidate in chosen
            )
            totals = {entry.machine: 0.0 for entry in request.pool}
            for assignment in assignments:
                totals[assignment.machine] += assignment.load_nodes
            loads = tuple(
                MachineLoad(
                    machine=entry.machine,
                    nodes=entry.nodes,
                    load_nodes=totals[entry.machine],
                )
                for entry in request.pool
            )
            result = PlanResult(
                assignments=assignments,
                objective=request.objective,
                objective_value=sum(c.cost for c in chosen),
                loads=loads,
            )
            violations = check_plan(request, result)
            if violations:  # pragma: no cover - solver bug guard
                raise PlanError(
                    "solver produced an invalid plan: "
                    + "; ".join(violations),
                    details={"violations": violations},
                )
            obs_metrics.add("plan.solved")
            obs_metrics.add("plan.assignments", float(len(assignments)))
        return result


def plan_request(
    request: PlanRequest, *, predictor: Predictor | None = None
) -> PlanResult:
    """One-shot convenience: solve ``request`` on a fresh (or given)
    predictor."""
    return CapacityPlanner(predictor).plan(request)
