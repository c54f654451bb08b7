"""The analytic performance simulator.

For every phase of a workload profile, under a data placement and an
OpenMP environment, the model computes:

* **memory time** — via Little's law: the threads offer a demand
  (outstanding lines / latency); each location serves it up to its
  sequential bandwidth or its random-access capacity (with smooth
  saturation); locations overlap, so the slowest one sets the phase's
  memory time;
* **compute time** — flops against the machine's thread-scaled peak;
* **phase time** — max of the two (perfect overlap — the roofline
  assumption) times the synchronization overhead factor.

All the paper's effects emerge from this composition:

* sequential + HBM → device-bandwidth-bound, ~4x DRAM (Figs. 2, 4 top);
* random + HBM → latency-bound and 15–20 % *slower* than DRAM (Fig. 4
  bottom);
* cache mode → in between, degrading with footprint (Figs. 2, 4);
* hardware threads → more outstanding requests → large gains on HBM,
  none on already-saturated DRAM STREAM (Figs. 5, 6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.engine.littles_law import littles_law_bandwidth
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile, Phase
from repro.engine.threading_model import ThreadingModel
from repro.machine.topology import KNLMachine
from repro.memory.modes import MemorySystem
from repro.memory.tlb import TLBModel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.process import OpenMPEnvironment
from repro.util.units import CACHE_LINE, NS_PER_S


@dataclass(frozen=True)
class PhaseResult:
    """Timing breakdown for one phase."""

    name: str
    time_ns: float
    memory_time_ns: float
    compute_time_ns: float
    sync_factor: float
    achieved_bandwidth: float
    effective_latency_ns: float

    @property
    def bottleneck(self) -> str:
        return "memory" if self.memory_time_ns >= self.compute_time_ns else "compute"


@dataclass(frozen=True)
class RunResult:
    """Aggregate result of a simulated run."""

    workload: str
    placement: PlacementMix
    num_threads: int
    phase_results: tuple[PhaseResult, ...]

    @functools.cached_property
    def time_ns(self) -> float:
        # Computed once per (frozen) result: the planner and the energy
        # model read it for every plan candidate served from the run cache.
        return sum(p.time_ns for p in self.phase_results)

    @property
    def time_s(self) -> float:
        return self.time_ns / NS_PER_S

    def gflops(self, total_flops: float) -> float:
        """Achieved GFLOP/s given the run's total flop count."""
        if self.time_s == 0:
            raise ZeroDivisionError("run took zero time")
        return total_flops / self.time_s / 1e9

    def rate_per_s(self, operations: float) -> float:
        """Generic operations-per-second metric (updates, TEPS, lookups)."""
        if self.time_s == 0:
            raise ZeroDivisionError("run took zero time")
        return operations / self.time_s

    def describe(self) -> str:
        """Per-phase bottleneck breakdown (for reports and debugging)."""
        lines = [
            f"{self.workload} @ {self.num_threads} threads, "
            f"{self.placement.describe()}: {self.time_s * 1e3:.2f} ms"
        ]
        total = self.time_ns or 1.0
        for phase in self.phase_results:
            bw = (
                f", {phase.achieved_bandwidth / 1e9:.1f} GB/s"
                if phase.achieved_bandwidth
                else ""
            )
            sync = (
                f", sync x{phase.sync_factor:.2f}"
                if phase.sync_factor > 1.0
                else ""
            )
            lines.append(
                f"  {phase.name:<16} {phase.time_ns / total:6.1%}  "
                f"{phase.bottleneck}-bound{bw}{sync}"
            )
        return "\n".join(lines)


class PerformanceModel:
    """Analytic simulator bound to one machine + memory system."""

    def __init__(
        self,
        machine: KNLMachine,
        memory: MemorySystem,
        *,
        tlb: TLBModel | None = None,
    ) -> None:
        self.machine = machine
        self.memory = memory
        self.tlb = tlb if tlb is not None else TLBModel()
        self.threading = ThreadingModel(machine)

    # -- location primitives ----------------------------------------------------
    def _check_location(self, location: Location) -> None:
        if location is Location.HBM and not self.memory.has_flat_hbm:
            raise ValueError(
                "placement uses the flat HBM node but MCDRAM is not in "
                "flat/hybrid mode"
            )
        if location is Location.DRAM_CACHED and self.memory.cache_model is None:
            raise ValueError(
                "placement uses the MCDRAM cache but MCDRAM is in flat mode"
            )
        if (
            location is Location.DRAM
            and self.memory.dram_fronted_by_cache
        ):
            raise ValueError(
                "in cache/hybrid mode DDR accesses go through the MCDRAM "
                "cache; use Location.DRAM_CACHED"
            )

    def sequential_bandwidth(
        self,
        location: Location,
        footprint_bytes: int,
        threads_per_core: int,
        write_fraction: float = 0.0,
    ) -> float:
        """Device-side sequential bandwidth cap for a location (bytes/s).

        ``write_fraction`` engages the sequential write-asymmetry penalty
        on devices that have one (NVM tiers); it is a no-op on the KNL
        devices.
        """
        self._check_location(location)
        if location is Location.DRAM:
            return self.memory.dram.stream_bandwidth(
                threads_per_core, write_fraction
            )
        if location is Location.HBM:
            return self.memory.mcdram.stream_bandwidth(
                threads_per_core, write_fraction
            )
        assert self.memory.cache_model is not None
        return self.memory.cache_model.streaming_bandwidth(
            footprint_bytes, threads_per_core, write_fraction
        )

    def sequential_latency_ns(self, location: Location, footprint_bytes: int) -> float:
        """Latency governing the *demand* side of sequential streams.

        Prefetching hides translation, so this is close to the device idle
        latency plus the mesh directory lookup.
        """
        self._check_location(location)
        directory = self.machine.mesh.directory_lookup_ns()
        if location is Location.DRAM:
            return self.memory.dram.idle_latency_ns + directory
        if location is Location.HBM:
            return self.memory.mcdram.idle_latency_ns + directory
        assert self.memory.cache_model is not None
        cache = self.memory.cache_model
        h = cache.streaming_hit_rate(footprint_bytes)
        miss = (
            cache.tag_probe_fraction * self.memory.mcdram.idle_latency_ns
            + self.memory.dram.idle_latency_ns
        )
        return h * self.memory.mcdram.idle_latency_ns + (1 - h) * miss + directory

    def random_latency_ns(self, location: Location, footprint_bytes: int) -> float:
        """Average random-access latency at a location, incl. translation."""
        self._check_location(location)
        directory = self.machine.mesh.directory_lookup_ns()
        if location is Location.DRAM:
            base = self.memory.dram.idle_latency_ns
        elif location is Location.HBM:
            base = self.memory.mcdram.idle_latency_ns
        else:
            assert self.memory.cache_model is not None
            base = self.memory.cache_model.random_latency_ns(footprint_bytes)
        translation = self.tlb.translation_overhead_ns(footprint_bytes, base)
        return base + directory + translation

    def random_capacity_lines(
        self,
        location: Location,
        footprint_bytes: int,
        write_fraction: float = 0.0,
    ) -> float:
        """Device-side random-access capacity (lines/s)."""
        self._check_location(location)
        if location is Location.DRAM:
            cap = self.memory.dram.random_bandwidth(write_fraction=write_fraction)
        elif location is Location.HBM:
            cap = self.memory.mcdram.random_bandwidth(write_fraction=write_fraction)
        else:
            assert self.memory.cache_model is not None
            cap = self.memory.cache_model.random_bandwidth_cap(
                footprint_bytes, write_fraction
            )
        return cap / CACHE_LINE

    # -- columnar twins ---------------------------------------------------------
    # Bulk (per-footprint-column) twins of the location primitives above,
    # used by the batch engine's table construction
    # (:class:`repro.engine.batch.ModelTables`).  Bit-identical per element
    # to the scalar methods: same expression order, same scalar device
    # constants broadcast over the column, transcendental-free at this
    # layer (the memory models keep those on :mod:`math`).

    def sequential_bandwidth_many(
        self,
        location: Location,
        footprints: np.ndarray,
        threads_per_core: int,
        write_fraction: float = 0.0,
    ) -> np.ndarray:
        """Columnar twin of :meth:`sequential_bandwidth`."""
        self._check_location(location)
        if location is Location.DRAM:
            return np.full(
                len(footprints),
                self.memory.dram.stream_bandwidth(threads_per_core, write_fraction),
            )
        if location is Location.HBM:
            return np.full(
                len(footprints),
                self.memory.mcdram.stream_bandwidth(threads_per_core, write_fraction),
            )
        assert self.memory.cache_model is not None
        return self.memory.cache_model.streaming_bandwidth_many(
            footprints, threads_per_core, write_fraction
        )

    def sequential_latency_ns_many(
        self, location: Location, footprints: np.ndarray
    ) -> np.ndarray:
        """Columnar twin of :meth:`sequential_latency_ns`."""
        self._check_location(location)
        directory = self.machine.mesh.directory_lookup_ns()
        if location is Location.DRAM:
            return np.full(
                len(footprints), self.memory.dram.idle_latency_ns + directory
            )
        if location is Location.HBM:
            return np.full(
                len(footprints), self.memory.mcdram.idle_latency_ns + directory
            )
        assert self.memory.cache_model is not None
        cache = self.memory.cache_model
        h = cache.streaming_hit_rate_many(footprints)
        miss = (
            cache.tag_probe_fraction * self.memory.mcdram.idle_latency_ns
            + self.memory.dram.idle_latency_ns
        )
        return h * self.memory.mcdram.idle_latency_ns + (1 - h) * miss + directory

    def random_latency_ns_many(
        self, location: Location, footprints: np.ndarray
    ) -> np.ndarray:
        """Columnar twin of :meth:`random_latency_ns`."""
        self._check_location(location)
        directory = self.machine.mesh.directory_lookup_ns()
        base: float | np.ndarray
        if location is Location.DRAM:
            base = self.memory.dram.idle_latency_ns
        elif location is Location.HBM:
            base = self.memory.mcdram.idle_latency_ns
        else:
            assert self.memory.cache_model is not None
            base = self.memory.cache_model.random_latency_ns_many(footprints)
        translation = self.tlb.translation_overhead_ns_many(footprints, base)
        return base + directory + translation

    def random_capacity_lines_many(
        self,
        location: Location,
        footprints: np.ndarray,
        write_fraction: float = 0.0,
    ) -> np.ndarray:
        """Columnar twin of :meth:`random_capacity_lines`."""
        self._check_location(location)
        if location is Location.DRAM:
            cap = np.full(
                len(footprints),
                self.memory.dram.random_bandwidth(write_fraction=write_fraction),
            )
        elif location is Location.HBM:
            cap = np.full(
                len(footprints),
                self.memory.mcdram.random_bandwidth(write_fraction=write_fraction),
            )
        else:
            assert self.memory.cache_model is not None
            cap = self.memory.cache_model.random_bandwidth_cap_many(
                footprints, write_fraction
            )
        return cap / CACHE_LINE

    # -- phase timing ---------------------------------------------------------
    def _sequential_memory_time_ns(
        self, phase: Phase, mix: PlacementMix, env: OpenMPEnvironment
    ) -> tuple[float, float, float]:
        """Returns (time_ns, achieved_bw, effective_latency)."""
        outstanding = self.threading.outstanding_requests(phase, env)
        tpc = env.threads_per_core
        worst_time = 0.0
        weighted_latency = 0.0
        for location, fraction in mix.fractions:
            if fraction == 0.0:
                continue
            bytes_here = phase.traffic_bytes * fraction
            latency = self.sequential_latency_ns(location, phase.footprint_bytes)
            weighted_latency += fraction * latency
            demand = littles_law_bandwidth(outstanding * fraction, latency)
            cap = self.sequential_bandwidth(
                location, phase.footprint_bytes, tpc, phase.write_fraction
            )
            bandwidth = min(demand, cap)
            if bytes_here > 0:
                worst_time = max(worst_time, bytes_here / bandwidth * NS_PER_S)
        achieved = (
            phase.traffic_bytes / (worst_time / NS_PER_S) if worst_time else 0.0
        )
        return worst_time, achieved, weighted_latency

    def _random_memory_time_ns(
        self, phase: Phase, mix: PlacementMix, env: OpenMPEnvironment
    ) -> tuple[float, float, float]:
        outstanding = self.threading.outstanding_requests(phase, env)
        worst_time = 0.0
        weighted_latency = 0.0
        for location, fraction in mix.fractions:
            if fraction == 0.0:
                continue
            accesses_here = phase.accesses * fraction
            latency = self.random_latency_ns(location, phase.footprint_bytes)
            weighted_latency += fraction * latency
            demand_lines = outstanding * fraction / (latency / NS_PER_S)
            cap_lines = self.random_capacity_lines(
                location, phase.footprint_bytes, phase.write_fraction
            )
            # Hard capacity: random streams are either latency-bound
            # (demand below the device's bank-level parallelism) or pinned
            # at the device limit.
            rate = min(demand_lines, cap_lines)
            if accesses_here > 0:
                worst_time = max(worst_time, accesses_here / rate * NS_PER_S)
        achieved = (
            phase.accesses * CACHE_LINE / (worst_time / NS_PER_S)
            if worst_time
            else 0.0
        )
        return worst_time, achieved, weighted_latency

    def _compute_time_ns(self, phase: Phase, env: OpenMPEnvironment) -> float:
        if phase.flops == 0.0:
            return 0.0
        scale = self.threading.compute_scale(env)
        gflops = self.machine.peak_dp_gflops * scale * phase.compute_efficiency
        return phase.flops / (gflops * 1e9) * NS_PER_S

    def phase_result(
        self, phase: Phase, mix: PlacementMix, env: OpenMPEnvironment
    ) -> PhaseResult:
        """Simulate one phase.

        With an observation session active (:mod:`repro.obs`) the phase is
        additionally wrapped in a ``perfmodel.phase`` span and its traffic
        decomposition is recorded in the metrics registry; the returned
        numbers are identical either way (golden-identity tested).
        """
        if not (obs_trace.enabled() or obs_metrics.enabled()):
            return self._phase_result(phase, mix, env)
        with obs_trace.span(
            "perfmodel.phase",
            tags={"phase": phase.name, "pattern": phase.pattern.value},
        ):
            result = self._phase_result(phase, mix, env)
        self._observe_phase(phase, mix, env)
        return result

    def _phase_result(
        self, phase: Phase, mix: PlacementMix, env: OpenMPEnvironment
    ) -> PhaseResult:
        if phase.traffic_bytes > 0:
            if phase.pattern is AccessPattern.SEQUENTIAL:
                mem_time, bandwidth, latency = self._sequential_memory_time_ns(
                    phase, mix, env
                )
            else:
                mem_time, bandwidth, latency = self._random_memory_time_ns(
                    phase, mix, env
                )
        else:
            mem_time, bandwidth, latency = 0.0, 0.0, 0.0
        compute_time = self._compute_time_ns(phase, env)
        sync = self.threading.sync_overhead_factor(phase, env)
        total = max(mem_time, compute_time) * sync
        return PhaseResult(
            name=phase.name,
            time_ns=total,
            memory_time_ns=mem_time,
            compute_time_ns=compute_time,
            sync_factor=sync,
            achieved_bandwidth=bandwidth,
            effective_latency_ns=latency,
        )

    def _observe_phase(
        self, phase: Phase, mix: PlacementMix, env: OpenMPEnvironment
    ) -> None:
        """Record the phase's model internals in the metrics registry.

        Emits the quantities the paper reports and the figures are built
        from: Little's-law concurrency (``model.concurrency``), per-device
        bytes moved (``model.bytes_moved{device=...}``) — with cache-mode
        traffic split between the MCDRAM side (every access probes the
        cache) and the DDR side (the miss fraction) — plus the MCDRAM
        cache and TLB accounting delegated to the respective models.
        """
        if not obs_metrics.enabled():
            return
        sequential = phase.pattern is AccessPattern.SEQUENTIAL
        pattern = phase.pattern.value
        obs_metrics.observe(
            "model.concurrency",
            self.threading.outstanding_requests(phase, env),
            {"pattern": pattern},
        )
        lines = phase.accesses
        for location, fraction in mix.fractions:
            if fraction == 0.0:
                continue
            traffic = (
                phase.traffic_bytes if sequential else lines * CACHE_LINE
            ) * fraction
            if location is Location.DRAM:
                obs_metrics.add("model.bytes_moved", traffic, {"device": "dram"})
            elif location is Location.HBM:
                obs_metrics.add("model.bytes_moved", traffic, {"device": "mcdram"})
            else:
                assert self.memory.cache_model is not None
                hit_rate = self.memory.cache_model.record_accesses(
                    phase.footprint_bytes, pattern, traffic / CACHE_LINE
                )
                # Every access probes MCDRAM; the miss fraction also
                # transfers from DDR (the composition of section 2.1 of
                # docs/MODEL.md).
                obs_metrics.add("model.bytes_moved", traffic, {"device": "mcdram"})
                obs_metrics.add(
                    "model.bytes_moved", traffic * (1.0 - hit_rate), {"device": "dram"}
                )
        if not sequential:
            self.tlb.record_walks(phase.footprint_bytes, lines)

    def evaluate(
        self,
        profile: MemoryProfile,
        mix: PlacementMix | dict[str, PlacementMix],
        num_threads: int,
    ) -> RunResult:
        """Simulate a full profile under a placement and thread count.

        ``mix`` may be a single :class:`PlacementMix` (the paper's
        coarse-grained binding — every structure in one place) or a
        mapping from phase name to mix (the fine-grained memkind
        placement of the paper's future-work section; every phase must be
        mapped).
        """
        env = OpenMPEnvironment(self.machine, num_threads)
        if isinstance(mix, dict):
            missing = [p.name for p in profile.phases if p.name not in mix]
            if missing:
                raise ValueError(
                    f"fine-grained placement missing phases: {missing}"
                )
            mix_for = lambda phase: mix[phase.name]
            reported = next(iter(mix.values()))
        else:
            mix_for = lambda phase: mix
            reported = mix
        with obs_trace.span(
            "perfmodel.run",
            tags=(
                {"workload": profile.workload, "threads": num_threads}
                if obs_trace.enabled()
                else None
            ),
        ):
            results = tuple(
                self.phase_result(phase, mix_for(phase), env)
                for phase in profile.phases
            )
        obs_metrics.add("model.runs")
        return RunResult(
            workload=profile.workload,
            placement=reported,
            num_threads=num_threads,
            phase_results=results,
        )
