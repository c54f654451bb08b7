"""Energy model tests."""

import pytest

from repro.core.configs import ConfigName, make_config
from repro.core.runner import ExperimentRunner
from repro.engine.energy import EnergyModel, EnergyParameters
from repro.engine.placement import Location, PlacementMix
from repro.engine.profilephase import AccessPattern, MemoryProfile, Phase
from repro.machine import registry
from repro.util.units import GB
from repro.workloads.registry import FROM_GB


def stream_profile(gb=4.0):
    return MemoryProfile(
        "stream",
        (
            Phase(
                "triad",
                AccessPattern.SEQUENTIAL,
                traffic_bytes=gb * GB,
                flops=1e9,
                footprint_bytes=int(gb * GB),
            ),
        ),
    )


@pytest.fixture()
def model():
    return EnergyModel()


class TestEnergyModel:
    def test_hbm_moves_bytes_cheaper(self, model, flat_model):
        prof = stream_profile()
        dram_run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        hbm_run = flat_model.evaluate(prof, PlacementMix.pure(Location.HBM), 64)
        dram_e = model.estimate(prof, dram_run)
        hbm_e = model.estimate(prof, hbm_run)
        assert hbm_e.dynamic_memory_j < dram_e.dynamic_memory_j
        # HBM also finishes faster -> less static energy -> lower total.
        assert hbm_e.total_j < dram_e.total_j

    def test_memory_energy_magnitude(self, model, flat_model):
        """4 GB at 120 pJ/byte = 0.48 J on DDR."""
        prof = stream_profile(4.0)
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.dynamic_memory_j == pytest.approx(0.48, rel=1e-6)

    def test_static_energy_scales_with_time(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.static_j == pytest.approx(215.0 * run.time_s)

    def test_compute_energy(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.dynamic_compute_j == pytest.approx(1e9 * 20e-12)

    def test_edp(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        assert estimate.edp(run.time_s) == pytest.approx(
            estimate.total_j * run.time_s
        )

    def test_cache_mode_pays_probe_energy(self, model, cache_model_pm):
        prof = stream_profile()
        run = cache_model_pm.evaluate(
            prof, PlacementMix.pure(Location.DRAM_CACHED), 64
        )
        estimate = model.estimate(prof, run)
        params = EnergyParameters()
        expected = (
            prof.phases[0].traffic_bytes
            * (params.hbm_pj_per_byte + params.cache_probe_pj_per_byte)
            * 1e-12
        )
        assert estimate.dynamic_memory_j == pytest.approx(expected)

    def test_fine_grained_mapping(self, model, flat_model):
        prof = MemoryProfile(
            "two",
            (
                Phase("a", AccessPattern.SEQUENTIAL, 1 * GB, footprint_bytes=GB),
                Phase("b", AccessPattern.SEQUENTIAL, 1 * GB, footprint_bytes=GB),
            ),
        )
        mixes = {
            "a": PlacementMix.pure(Location.HBM),
            "b": PlacementMix.pure(Location.DRAM),
        }
        run = flat_model.evaluate(prof, mixes, 64)
        estimate = model.estimate(prof, run, mixes)
        params = EnergyParameters()
        expected = (
            1 * GB * params.hbm_pj_per_byte + 1 * GB * params.dram_pj_per_byte
        ) * 1e-12
        assert estimate.dynamic_memory_j == pytest.approx(expected)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EnergyParameters(flop_pj=-1.0)
        with pytest.raises(ValueError):
            EnergyParameters(static_watts=-5.0)

    def test_negative_edp_time_rejected(self, model, flat_model):
        prof = stream_profile()
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = model.estimate(prof, run)
        with pytest.raises(ValueError):
            estimate.edp(-1.0)


def reference_estimate(params, profile, run, mix=None):
    """The energy arithmetic as first written: a per-phase, per-location
    dispatch on the coefficients, in the same float operation order."""

    def per_byte_pj(location):
        if location is Location.DRAM:
            return params.dram_pj_per_byte
        if location is Location.HBM:
            return params.hbm_pj_per_byte
        return params.hbm_pj_per_byte + params.cache_probe_pj_per_byte

    if mix is None:
        mix = run.placement
    memory_pj = 0.0
    compute_pj = 0.0
    for phase in profile.phases:
        phase_mix = mix[phase.name] if isinstance(mix, dict) else mix
        for location, fraction in phase_mix.fractions:
            memory_pj += phase.traffic_bytes * fraction * per_byte_pj(location)
        compute_pj += phase.flops * params.flop_pj
    return (
        memory_pj * 1e-12,
        compute_pj * 1e-12,
        params.static_watts * run.time_s,
    )


PARAMETER_SETS = {
    "default": EnergyParameters(),
    "custom": EnergyParameters(
        dram_pj_per_byte=97.3,
        hbm_pj_per_byte=31.7,
        cache_probe_pj_per_byte=3.3,
        flop_pj=11.1,
        static_watts=187.9,
    ),
}


class TestBitIdentityWithTheDispatchingArithmetic:
    """The per-location table prices every feasible record with exactly
    the bits of the per-phase dispatch it replaced."""

    @pytest.mark.parametrize("params", PARAMETER_SETS.values(), ids=PARAMETER_SETS)
    @pytest.mark.parametrize("machine_name", registry.names())
    def test_every_feasible_record_on_every_supported_config(
        self, machine_name, params
    ):
        machine = registry.build(machine_name)
        runner = ExperimentRunner(machine)
        model = EnergyModel(params)
        threads = min(64, machine.num_cores)
        priced = 0
        for config_name in ConfigName:
            config = make_config(config_name)
            if config.mcdram.mode.value not in machine.supported_memory_modes:
                continue
            for name in sorted(FROM_GB):
                for size_gb in (3.0, 12.0):
                    workload = FROM_GB[name](size_gb)
                    record = runner.run(workload, config, threads)
                    estimate = model.estimate_record(workload, record)
                    if record.run_result is None:
                        assert estimate is None
                        continue
                    expected = reference_estimate(
                        params, workload.profile(), record.run_result
                    )
                    assert (
                        estimate.dynamic_memory_j,
                        estimate.dynamic_compute_j,
                        estimate.static_j,
                    ) == expected
                    assert estimate.total_j == sum(expected)
                    priced += 1
        assert priced > 0

    @pytest.mark.parametrize("params", PARAMETER_SETS.values(), ids=PARAMETER_SETS)
    def test_per_phase_mixes(self, params, flat_model):
        prof = MemoryProfile(
            "two-phase",
            (
                Phase(
                    "a",
                    AccessPattern.SEQUENTIAL,
                    traffic_bytes=3.1 * GB,
                    flops=7e8,
                    footprint_bytes=int(2 * GB),
                ),
                Phase(
                    "b",
                    AccessPattern.RANDOM,
                    traffic_bytes=1.7 * GB,
                    flops=3e8,
                    footprint_bytes=int(1 * GB),
                ),
            ),
        )
        mix = {
            "a": PlacementMix.of(hbm=0.3, dram=0.7),
            "b": PlacementMix(((Location.DRAM_CACHED, 1.0),)),
        }
        run = flat_model.evaluate(prof, PlacementMix.pure(Location.DRAM), 64)
        estimate = EnergyModel(params).estimate(prof, run, mix)
        assert (
            estimate.dynamic_memory_j,
            estimate.dynamic_compute_j,
            estimate.static_j,
        ) == reference_estimate(params, prof, run, mix)
