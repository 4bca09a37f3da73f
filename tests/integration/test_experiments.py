"""Integration tests: every experiment regenerates the paper's shape.

These are the top-level acceptance tests of the reproduction — each one
runs the full experiment function from :mod:`repro.analysis.experiments`
and asserts the paper-claimed shape holds (who wins, crossovers, bands).
"""

import pytest

from repro.analysis.experiments import (
    e01_mask_nre,
    e02_mask_breakeven,
    e03_design_breakeven,
    e04_risc_equivalents,
    e05_alternatives,
    e06_productivity,
    e07_hw_sw_growth,
    e08_figure1,
    e09_wire_delay,
    e11_multithreading,
    e12_efpga_share,
    e13_fppa_composition,
    e15_mapping,
    e16_low_power,
    e17_memory_tradeoff,
    e18_npse_vs_cam,
)
from repro.analysis.report import format_table, render_experiment
from repro.engine import registry


class TestRegistry:
    def test_all_18_experiments_registered(self):
        names = [
            entry.name
            for entry in registry.registered("repro.analysis.experiments")
        ]
        assert len(names) == 18
        assert sorted(names) == sorted(f"E{i}" for i in range(1, 19))

    def test_result_contract(self):
        result = e01_mask_nre()
        assert {"claim", "rows", "verdict"} <= set(result)
        assert result["rows"]


class TestEconomicExperiments:
    def test_e1_mask_nre(self):
        verdict = e01_mask_nre()["verdict"]
        assert verdict["exceeds_1M_at_90nm"]
        assert 8.0 < verdict["growth_over_3_generations"] < 13.0

    def test_e2_mask_breakeven(self):
        assert e02_mask_breakeven()["verdict"]["exceeds_1M"]

    def test_e3_design_breakeven(self):
        verdict = e03_design_breakeven()["verdict"]
        assert verdict["nre_in_10M_100M_band"]
        assert verdict["volume_in_10M_100M_band"]

    def test_e4_risc_equivalents(self):
        assert e04_risc_equivalents()["verdict"]["exceeds_1000"]

    def test_e5_alternatives_three_regions(self):
        verdict = e05_alternatives()["verdict"]
        assert verdict["fpga_wins_low"]
        assert verdict["asic_wins_high"]
        assert verdict["distinct_regions"] >= 3

    def test_e6_productivity_decline(self):
        verdict = e06_productivity()["verdict"]
        assert verdict["peak_node"] == "130nm"
        assert verdict["declines_after_peak"]

    def test_e7_sw_overtakes_hw(self):
        assert e07_hw_sw_growth()["verdict"]["before_paper"]


class TestArchitectureExperiments:
    def test_e8_figure1_tradeoff(self):
        verdict = e08_figure1()["verdict"]
        assert verdict["all_on_front"]

    def test_e9_wire_delay_band(self):
        verdict = e09_wire_delay()["verdict"]
        assert verdict["in_6_10_band"]
        assert verdict["noc_many_times_larger"]

    def test_e11_multithreading(self):
        verdict = e11_multithreading(
            thread_counts=(1, 4, 8), latencies=(100,)
        )["verdict"]
        assert verdict["recovers_90pct"]
        assert verdict["util_1_thread_at_100cyc"] < 0.25

    def test_e12_efpga_share(self):
        verdict = e12_efpga_share()["verdict"]
        assert verdict["acceptable_below_5pct"]
        assert verdict["prohibitive_at_30pct"]

    def test_e13_fppa(self):
        verdict = e13_fppa_composition()["verdict"]
        assert verdict["has_all_component_classes"]
        assert verdict["scales_to_64_pes"]

    def test_e15_mapping(self):
        verdict = e15_mapping(tasks=40, num_pes=8)["verdict"]
        assert verdict["auto_beats_naive"]
        assert verdict["speedup_vs_random"] > 1.2

    def test_e16_low_power(self):
        verdict = e16_low_power()["verdict"]
        assert verdict["multi_vt_saves_over_half_leakage"]
        assert verdict["back_bias_cuts_leakage"]
        assert verdict["dvs_quadratic_energy"]

    def test_e17_memory(self):
        verdict = e17_memory_tradeoff()["verdict"]
        assert verdict["esram_wins_small"]
        assert verdict["external_wins_large"]
        assert verdict["regime_changes"] >= 2

    def test_e18_npse(self):
        verdict = e18_npse_vs_cam(table_sizes=(1_000, 20_000))["verdict"]
        assert verdict["trie_wins_energy_at_scale"]


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy", "c": 3.5}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert "a" in lines[0] and "c" in lines[0]

    def test_format_empty(self):
        assert format_table([]) == "(no rows)"

    def test_render_experiment(self):
        text = render_experiment("E1", e01_mask_nre())
        assert "=== E1 ===" in text
        assert "claim:" in text
        assert "verdict:" in text
