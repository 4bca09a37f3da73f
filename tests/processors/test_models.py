"""Unit tests for processor classes, DSP, eFPGA, HW IP, I/O."""

import pytest

from repro.processors.classes import (
    FIGURE1_CLASSES,
    ProcessorKind,
    figure1_series,
    pareto_front,
)
from repro.processors.dsp import DspModel, STANDARD_KERNELS
from repro.processors.efpga import EFPGA_POWER_PENALTY, EfpgaFabric
from repro.processors.hwip import MPEG2_DECODER, VITERBI, HardwiredIp
from repro.processors.ioblocks import STANDARD_IO_FAMILIES, IoBlock


class TestFigure1Classes:
    def test_all_seven_vehicles_present(self):
        assert len(FIGURE1_CLASSES) == 7

    def test_risc_is_reference(self):
        risc = FIGURE1_CLASSES[ProcessorKind.GENERAL_PURPOSE_RISC]
        assert risc.relative_performance == 1.0
        assert risc.flexibility == 1.0

    def test_hardwired_extreme_differentiation(self):
        hardwired = FIGURE1_CLASSES[ProcessorKind.HARDWIRED]
        risc = FIGURE1_CLASSES[ProcessorKind.GENERAL_PURPOSE_RISC]
        assert hardwired.differentiation() > 20 * risc.differentiation()
        assert hardwired.flexibility < 0.1

    def test_figure1_is_a_real_tradeoff(self):
        """Every vehicle is Pareto-optimal: you cannot gain
        differentiation without losing flexibility."""
        assert len(pareto_front()) == len(FIGURE1_CLASSES)

    def test_series_rows(self):
        rows = figure1_series()
        assert len(rows) == 7
        assert all("flexibility" in row for row in rows)


class TestDsp:
    def test_more_macs_fewer_cycles(self):
        small = DspModel(mac_units=1)
        big = DspModel(mac_units=8)
        kernel = STANDARD_KERNELS["fir"]
        assert big.kernel_cycles(kernel, 256) < small.kernel_cycles(kernel, 256)

    def test_amdahl_limits_speedup(self):
        huge = DspModel(mac_units=1000)
        kernel = STANDARD_KERNELS["iir_biquad"]  # 0.9 parallel fraction
        reference = kernel.reference_cycles(256)
        assert huge.kernel_cycles(kernel, 256) > reference * 0.09

    def test_kernel_size_validation(self):
        with pytest.raises(ValueError):
            STANDARD_KERNELS["fir"].reference_cycles(0)

    def test_mac_validation(self):
        with pytest.raises(ValueError):
            DspModel(mac_units=0)

    def test_time_uses_clock(self):
        slow = DspModel(clock_mhz=100.0)
        fast = DspModel(clock_mhz=400.0)
        kernel = STANDARD_KERNELS["fft"]
        assert slow.kernel_time_us(kernel, 64) == pytest.approx(
            4 * fast.kernel_time_us(kernel, 64)
        )


class TestEfpga:
    def test_paper_10x_power_penalty(self):
        """Section 6.3: 'the 10X cost and power penalty of eFPGA's'."""
        assert EFPGA_POWER_PENALTY == 10.0

    def test_capacity_enforced(self):
        fabric = EfpgaFabric(luts=100)
        with pytest.raises(ValueError, match="LUT"):
            fabric.map_function("big", asic_gates=10_000)

    def test_unmap_reclaims(self):
        fabric = EfpgaFabric(luts=1000)
        fabric.map_function("f", 4000)
        used = fabric.luts_used
        fabric.unmap("f")
        assert fabric.luts_used == 0
        assert used > 0

    def test_duplicate_mapping_rejected(self):
        fabric = EfpgaFabric(luts=1000)
        fabric.map_function("f", 400)
        with pytest.raises(ValueError, match="already"):
            fabric.map_function("f", 400)


class TestHwIp:
    def test_service_cycles_pipeline(self):
        # latency + (n-1)/throughput
        assert VITERBI.service_cycles(1) == pytest.approx(64.0)
        assert VITERBI.service_cycles(11) == pytest.approx(74.0)

    def test_items_validation(self):
        with pytest.raises(ValueError):
            MPEG2_DECODER.service_cycles(0)

    def test_throughput_validation(self):
        with pytest.raises(ValueError):
            HardwiredIp("bad", 0.0, 1.0, 100, 1.0)

    def test_mpeg2_sustains_sd_video(self):
        """SD MPEG-2: 1350 macroblocks/frame * 30 fps at 100 MHz."""
        mb_per_second = 1350 * 30
        cycles_per_second = 100e6
        cycles_needed = MPEG2_DECODER.service_cycles(mb_per_second)
        assert cycles_needed < cycles_per_second


class TestIoBlocks:
    def test_paper_dozen_families(self):
        """Section 6.4: 'a dozen main I/O families'."""
        assert len(STANDARD_IO_FAMILIES) == 12

    def test_spi4_worst_case_arrival(self):
        """40-byte packets at 10 Gb/s, 500 MHz clock: one per 16 cycles."""
        spi4 = STANDARD_IO_FAMILIES["spi4"]
        assert spi4.packet_interarrival_cycles(40, 0.5) == pytest.approx(16.0)

    def test_bytes_per_cycle(self):
        spi4 = STANDARD_IO_FAMILIES["spi4"]
        assert spi4.bytes_per_cycle(0.5) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            IoBlock("bad", 0.0, 1.0, 100, "x")
        spi4 = STANDARD_IO_FAMILIES["spi4"]
        with pytest.raises(ValueError):
            spi4.bytes_per_cycle(0.0)
        with pytest.raises(ValueError):
            spi4.packet_interarrival_cycles(0, 0.5)
