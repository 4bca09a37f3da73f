"""Unit tests for the memory models (experiment E17)."""

import pytest

from repro.memory.hierarchy import AccessProfile, MemoryHierarchy, MemoryLevel
from repro.memory.technology import (
    EDRAM,
    EFLASH,
    ESRAM,
    EXTERNAL_DRAM,
    MEMORY_TECHNOLOGIES,
)
from repro.memory.tradeoff import (
    architecture_tradeoff,
    best_architecture,
)


class TestTechnologies:
    def test_esram_fastest_on_chip(self):
        assert ESRAM.read_latency_cycles < EDRAM.read_latency_cycles
        assert ESRAM.read_latency_cycles < EFLASH.read_latency_cycles

    def test_edram_denser_than_sram(self):
        """The density advantage that justifies eDRAM integration."""
        assert EDRAM.area_mm2_per_mb < ESRAM.area_mm2_per_mb / 2

    def test_external_cheapest_per_mb(self):
        assert EXTERNAL_DRAM.cost_usd_per_mb == min(
            t.cost_usd_per_mb for t in MEMORY_TECHNOLOGIES.values()
        )

    def test_external_pays_pin_crossing(self):
        assert EXTERNAL_DRAM.read_latency_cycles > 5 * EDRAM.read_latency_cycles
        assert (
            EXTERNAL_DRAM.energy_pj_per_byte_read
            > 5 * EDRAM.energy_pj_per_byte_read
        )

    def test_eflash_nonvolatile_slow_writes(self):
        assert EFLASH.non_volatile
        assert EFLASH.write_latency_cycles > 100 * EFLASH.read_latency_cycles
        assert EFLASH.endurance_writes < float("inf")

    def test_access_energy_scales_with_bytes(self):
        assert ESRAM.access_energy_pj(64) == pytest.approx(
            8 * ESRAM.access_energy_pj(8)
        )

    def test_access_energy_validation(self):
        with pytest.raises(ValueError):
            ESRAM.access_energy_pj(-1)


class TestHierarchy:
    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([])

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MemoryLevel(ESRAM, 0.0)

    def test_hit_distribution_sums_to_one(self):
        hierarchy = MemoryHierarchy(
            [MemoryLevel(ESRAM, 0.5), MemoryLevel(EXTERNAL_DRAM, 64.0)]
        )
        profile = AccessProfile(working_set_mb=8.0)
        assert sum(hierarchy.hit_distribution(profile)) == pytest.approx(1.0)

    def test_bigger_scratchpad_more_hits(self):
        profile = AccessProfile(working_set_mb=4.0)
        small = MemoryHierarchy(
            [MemoryLevel(ESRAM, 0.25), MemoryLevel(EXTERNAL_DRAM, 64.0)]
        )
        big = MemoryHierarchy(
            [MemoryLevel(ESRAM, 2.0), MemoryLevel(EXTERNAL_DRAM, 64.0)]
        )
        assert big.hit_distribution(profile)[0] > small.hit_distribution(profile)[0]

    def test_average_latency_between_extremes(self):
        hierarchy = MemoryHierarchy(
            [MemoryLevel(ESRAM, 1.0), MemoryLevel(EXTERNAL_DRAM, 64.0)]
        )
        profile = AccessProfile(working_set_mb=8.0)
        latency = hierarchy.average_latency_cycles(profile)
        assert ESRAM.read_latency_cycles < latency < EXTERNAL_DRAM.read_latency_cycles

    def test_backstop_must_fit_working_set(self):
        hierarchy = MemoryHierarchy([MemoryLevel(ESRAM, 1.0)])
        profile = AccessProfile(working_set_mb=8.0)
        with pytest.raises(ValueError, match="backstop"):
            hierarchy.average_latency_cycles(profile)

    def test_power_has_static_and_dynamic_parts(self):
        hierarchy = MemoryHierarchy(
            [MemoryLevel(ESRAM, 1.0), MemoryLevel(EXTERNAL_DRAM, 64.0)]
        )
        profile = AccessProfile(working_set_mb=8.0)
        total = hierarchy.total_power_mw(profile)
        assert total > hierarchy.static_power_mw()

    def test_area_only_counts_levels(self):
        hierarchy = MemoryHierarchy([MemoryLevel(ESRAM, 2.0)])
        assert hierarchy.on_chip_area_mm2() == pytest.approx(
            2.0 * ESRAM.area_mm2_per_mb
        )

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            AccessProfile(working_set_mb=0.0)
        with pytest.raises(ValueError):
            AccessProfile(working_set_mb=1.0, write_fraction=1.5)
        with pytest.raises(ValueError):
            AccessProfile(working_set_mb=1.0, locality=-0.1)


class TestTradeoff:
    def test_small_working_set_prefers_esram(self):
        assert best_architecture(0.0625).architecture == "all_esram"

    def test_large_working_set_needs_external(self):
        assert "external" in best_architecture(64.0).architecture

    def test_middle_band_uses_edram(self):
        """The eDRAM integration window the paper's Section 3 weighs."""
        winners = {best_architecture(ws).architecture for ws in (2.0, 4.0, 8.0)}
        assert any("edram" in w for w in winners)

    def test_all_candidates_evaluated(self):
        points = architecture_tradeoff(4.0)
        assert {p.architecture for p in points} == {
            "all_esram",
            "esram_edram",
            "esram_external",
            "esram_edram_external",
        }

    def test_sweep_regime_progression(self):
        sweep = [best_architecture(ws) for ws in (0.0625, 1.0, 16.0, 64.0)]
        # latency of the winner grows as the working set outgrows the die.
        latencies = [p.avg_latency_cycles for p in sweep]
        assert latencies[0] < latencies[-1]

    def test_score_weighting_changes_winner(self):
        """Power-focused vs latency-focused designs pick differently at
        some working set."""
        differs = False
        for ws in (1.0, 4.0, 16.0):
            latency_first = best_architecture(ws, latency_weight=3.0,
                                              power_weight=0.1,
                                              area_weight=0.1, cost_weight=0.1)
            cost_first = best_architecture(ws, latency_weight=0.1,
                                           power_weight=0.1,
                                           area_weight=1.0, cost_weight=3.0)
            if latency_first.architecture != cost_first.architecture:
                differs = True
        assert differs
