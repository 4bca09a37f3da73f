"""Unit tests for traffic generation and the multimedia/wireless workloads."""

import pytest

from repro.apps.ipv4 import parse_header, verify_checksum
from repro.apps.multimedia import (
    FRAME_RATE_TARGETS,
    frame_rate_on_platform,
    video_pipeline_graph,
)
from repro.apps.trafficgen import (
    PacketTrace,
    build_trie,
    random_prefix_table,
    worst_case_trace,
)
from repro.apps.wireless import (
    RECEIVE_CHAIN,
    SYMBOL_RATE_HZ,
    WlanBaseband,
    wlan_power_comparison,
)
from repro.mapping.dse import make_platform_model


class TestPrefixTable:
    def test_requested_count(self):
        table = random_prefix_table(100, seed=3)
        assert len(table) == 100

    def test_default_route_included(self):
        table = random_prefix_table(10)
        assert (0, 0, 0) in table

    def test_prefixes_are_mask_aligned(self):
        for prefix, length, _hop in random_prefix_table(300, seed=4):
            if length < 32 and length > 0:
                assert prefix & ((1 << (32 - length)) - 1) == 0

    def test_deterministic_per_seed(self):
        assert random_prefix_table(50, seed=9) == random_prefix_table(50, seed=9)
        assert random_prefix_table(50, seed=9) != random_prefix_table(50, seed=10)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_prefix_table(0)


class TestWorstCaseTrace:
    def test_paper_line_rate_arithmetic(self):
        """40B packets at 10 Gb/s on a 500 MHz SoC: 16-cycle spacing."""
        table = random_prefix_table(100)
        trace = worst_case_trace(10, table)
        assert trace.interarrival_cycles == pytest.approx(16.0)

    def test_headers_are_valid_ipv4(self):
        table = random_prefix_table(100)
        trace = worst_case_trace(50, table)
        for header in trace.headers:
            assert verify_checksum(header)
            assert parse_header(header).is_valid()

    def test_hit_fraction_honoured(self):
        table = random_prefix_table(500, seed=5)
        trie = build_trie(table)
        trace = worst_case_trace(400, table, hit_fraction=1.0, seed=6)
        hits = sum(
            trie.lookup(parse_header(h).dst)[0] is not None
            for h in trace.headers
        )
        assert hits == 400

    def test_validation(self):
        table = random_prefix_table(10)
        with pytest.raises(ValueError):
            worst_case_trace(0, table)
        with pytest.raises(ValueError):
            worst_case_trace(1, table, hit_fraction=1.5)
        with pytest.raises(ValueError):
            PacketTrace(headers=[], packet_bytes=10, line_rate_gbps=10,
                        clock_ghz=0.5)


class TestMultimedia:
    def test_pipeline_is_dag_with_slices(self):
        graph = video_pipeline_graph(parallel_slices=4)
        assert len(graph.topological_order()) == len(graph)
        assert "idct.0" in graph.tasks and "idct.3" in graph.tasks

    def test_dsp_platform_faster_than_risc_only(self):
        risc_only = make_platform_model(8, "mesh", dsp_fraction=0.0)
        with_dsp = make_platform_model(8, "mesh", dsp_fraction=0.5)
        assert frame_rate_on_platform(with_dsp) > frame_rate_on_platform(
            risc_only
        )

    def test_more_slices_enable_more_parallelism(self):
        platform = make_platform_model(8, "mesh", dsp_fraction=0.5)
        serial = frame_rate_on_platform(platform, parallel_slices=1)
        parallel = frame_rate_on_platform(platform, parallel_slices=8)
        assert parallel > serial

    def test_targets_table(self):
        assert FRAME_RATE_TARGETS["dvd_sd"] == 30.0

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            video_pipeline_graph(macroblocks_per_frame=0)
        with pytest.raises(ValueError):
            video_pipeline_graph(parallel_slices=0)


class TestWireless:
    def test_all_hardwired_lowest_power(self):
        report = wlan_power_comparison()
        assert report["all_hardwired"]["power_mw"] < report["all_dsp"]["power_mw"]
        assert (
            report["all_hardwired"]["power_mw"]
            < report["all_efpga"]["power_mw"]
        )

    def test_efpga_pays_10x_over_hardwired(self):
        report = wlan_power_comparison()
        ratio = (
            report["all_efpga"]["power_mw"]
            / report["all_hardwired"]["power_mw"]
        )
        assert 5.0 < ratio <= 10.5

    def test_hardwired_meets_symbol_rate(self):
        report = wlan_power_comparison()
        assert report["all_hardwired"]["feasible"]

    def test_mixed_between_extremes(self):
        report = wlan_power_comparison()
        assert (
            report["all_hardwired"]["power_mw"]
            <= report["mixed"]["power_mw"]
            <= report["all_dsp"]["power_mw"] + report["all_efpga"]["power_mw"]
        )

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            WlanBaseband(assignment={"fft64": "magic"})

    def test_stage_times_positive(self):
        baseband = WlanBaseband(
            assignment={s.name: "hardwired" for s in RECEIVE_CHAIN}
        )
        for stage in RECEIVE_CHAIN:
            assert baseband.stage_time_us(stage) > 0
        assert baseband.symbol_time_us() < 1e6 / SYMBOL_RATE_HZ * len(RECEIVE_CHAIN)
