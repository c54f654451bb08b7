"""Data-movement energy model.

The paper motivates HBM through data movement ("The effective use of
these memory technologies helps reducing data movement [3]", citing
Kestor et al.'s energy-cost study).  This extension prices a simulated
run's traffic and compute so configurations can be compared on energy and
energy-delay product, not just time.

Per-bit transfer energies follow the literature the paper cites: DDR4
costs roughly 15-20 pJ/bit at the device plus I/O; on-package stacked
DRAM roughly a third of that (shorter, wider interfaces).  Static/leakage
power is charged per second of runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.perfmodel import RunResult
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import MemoryProfile
from repro.util.validation import check_non_negative


@dataclass(frozen=True)
class EnergyParameters:
    """Energy coefficients (defaults from the 3D-stacked-memory
    literature the paper builds on)."""

    dram_pj_per_byte: float = 120.0      # ~15 pJ/bit DDR4 incl. I/O
    hbm_pj_per_byte: float = 40.0        # ~5 pJ/bit on-package stack
    cache_probe_pj_per_byte: float = 8.0  # MCDRAM tag probe per cached access
    flop_pj: float = 20.0                # double-precision FMA + overhead
    static_watts: float = 215.0          # KNL node TDP share at load

    def __post_init__(self) -> None:
        for name in (
            "dram_pj_per_byte",
            "hbm_pj_per_byte",
            "cache_probe_pj_per_byte",
            "flop_pj",
            "static_watts",
        ):
            check_non_negative(name, getattr(self, name))


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy breakdown of one run (joules)."""

    dynamic_memory_j: float
    dynamic_compute_j: float
    static_j: float

    @property
    def total_j(self) -> float:
        return self.dynamic_memory_j + self.dynamic_compute_j + self.static_j

    def edp(self, time_s: float) -> float:
        """Energy-delay product (J*s)."""
        check_non_negative("time_s", time_s)
        return self.total_j * time_s


class EnergyModel:
    """Prices a simulated run."""

    def __init__(self, params: EnergyParameters | None = None) -> None:
        self.params = params if params is not None else EnergyParameters()

    def _per_byte_pj(self, location: Location) -> float:
        p = self.params
        if location is Location.DRAM:
            return p.dram_pj_per_byte
        if location is Location.HBM:
            return p.hbm_pj_per_byte
        # Cache mode: every byte crosses MCDRAM (probe + data) and misses
        # additionally cross DDR; approximate with the blended worst case
        # of an MCDRAM transfer plus the probe overhead (the DDR share is
        # charged by callers through the mix when known).
        return p.hbm_pj_per_byte + p.cache_probe_pj_per_byte

    def estimate(
        self,
        profile: MemoryProfile,
        run: RunResult,
        mix: PlacementMix | dict[str, PlacementMix] | None = None,
    ) -> EnergyEstimate:
        """Energy for a profile executed as ``run``.

        ``mix`` defaults to the run's recorded placement; pass the same
        per-phase mapping used for the run for fine-grained placements.
        """
        if mix is None:
            mix = run.placement
        memory_pj = 0.0
        compute_pj = 0.0
        for phase in profile.phases:
            phase_mix = mix[phase.name] if isinstance(mix, dict) else mix
            for location, fraction in phase_mix.fractions:
                memory_pj += (
                    phase.traffic_bytes * fraction * self._per_byte_pj(location)
                )
            compute_pj += phase.flops * self.params.flop_pj
        static_j = self.params.static_watts * run.time_s
        return EnergyEstimate(
            dynamic_memory_j=memory_pj * 1e-12,
            dynamic_compute_j=compute_pj * 1e-12,
            static_j=static_j,
        )

    def estimate_record(self, workload, record) -> "EnergyEstimate | None":
        """Energy for one feasible :class:`~repro.core.runner.RunRecord`.

        The record-level twin of :meth:`estimate` — prices the
        workload's profile under the record's simulated run, which is
        how the energy report and the capacity planner
        (:mod:`repro.plan`) both consume the model.  Returns ``None``
        for infeasible records (no run to price).  The profile comes from
        :meth:`~repro.workloads.base.Workload.profile_cached`, so pricing
        many records of one workload builds its profile once.
        """
        run = getattr(record, "run_result", None)
        if run is None:
            return None
        return self.estimate(workload.profile_cached(), run)
