"""Unit tests for the DFT subsystem (IEEE 1500 wrappers, scheduling, BIST)."""

import pytest

from repro.dft.bist import (
    MARCH_ALGORITHMS,
    memory_bist_cycles,
    memory_bist_time_ms,
    patterns_for_coverage,
)
from repro.dft.schedule import SocTestSchedule, schedule_tests, serial_test_cycles
from repro.dft.wrapper import (
    CoreTestSpec,
    Ieee1500Wrapper,
)


def spec(name="core", inputs=32, outputs=32, flops=2000, chains=4,
         patterns=500, power=50.0):
    return CoreTestSpec(
        name=name, inputs=inputs, outputs=outputs, scan_flops=flops,
        internal_chains=chains, patterns=patterns, test_power_mw=power,
    )


class TestWrapper:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            spec(chains=0)
        with pytest.raises(ValueError):
            spec(patterns=0)

    def test_wrapper_cells(self):
        wrapper = Ieee1500Wrapper(spec(inputs=10, outputs=6))
        assert wrapper.wrapper_cells == 16

    def test_chain_length_shrinks_with_tam(self):
        narrow = Ieee1500Wrapper(spec(), tam_width=1)
        wide = Ieee1500Wrapper(spec(), tam_width=8)
        assert wide.scan_chain_length() < narrow.scan_chain_length()
        # The core has 4 internal chains, so width 8 only exploits 4.
        assert wide.effective_width == 4
        assert narrow.scan_chain_length() == pytest.approx(
            4 * wide.scan_chain_length(), rel=0.01
        )

    def test_test_cycles_formula(self):
        wrapper = Ieee1500Wrapper(spec(patterns=10), tam_width=4)
        length = wrapper.scan_chain_length()
        assert wrapper.test_cycles() == 11 * length + 10

    def test_tam_width_validation(self):
        with pytest.raises(ValueError):
            Ieee1500Wrapper(spec(), tam_width=0)


class TestScheduling:
    def test_parallel_beats_serial(self):
        specs = [spec(name=f"c{i}", flops=2000 + 500 * i) for i in range(6)]
        schedule = schedule_tests(specs, tam_width=16)
        assert schedule.total_cycles < serial_test_cycles(specs, 16)

    def test_constraints_validated(self):
        specs = [spec(name=f"c{i}") for i in range(5)]
        schedule = schedule_tests(specs, tam_width=8)
        schedule.validate()  # must not raise
        # five 50 mW tests: at least two run at once
        assert schedule.power_at(1.0) >= 2 * 50.0

    def test_power_budget_serializes(self):
        specs = [spec(name=f"c{i}", power=60.0) for i in range(4)]
        free = schedule_tests(specs, tam_width=16)
        tight = schedule_tests(specs, tam_width=16, power_budget_mw=100.0)
        # Only one 60mW test fits a 100mW budget at a time.
        assert tight.total_cycles > free.total_cycles
        assert max(
            tight.power_at(e.start_cycle) for e in tight.entries
        ) == 60.0

    def test_all_cores_scheduled_once(self):
        specs = [spec(name=f"c{i}") for i in range(7)]
        schedule = schedule_tests(specs, tam_width=8)
        assert sorted(e.core for e in schedule.entries) == sorted(
            s.name for s in specs
        )

    def test_overcommit_detected_by_validate(self):
        from repro.dft.schedule import ScheduledTest

        schedule = SocTestSchedule(tam_width=2)
        schedule.entries = [
            ScheduledTest("a", 0, 10, 2, 10.0),
            ScheduledTest("b", 5, 15, 2, 10.0),
        ]
        with pytest.raises(ValueError, match="overcommitted"):
            schedule.validate()


class TestBist:
    def test_march_c_is_10n(self):
        # 1 Kbit memory with 1-bit words: 1024 cells x 10 ops.
        assert memory_bist_cycles(1024, word_bits=1) == 10 * 1024

    def test_word_width_divides_work(self):
        assert memory_bist_cycles(1024, word_bits=32) == 10 * 32

    def test_algorithm_complexity_ordering(self):
        assert (
            MARCH_ALGORITHMS["mats+"].operations_per_cell
            < MARCH_ALGORITHMS["march_c-"].operations_per_cell
            < MARCH_ALGORITHMS["march_lr"].operations_per_cell
        )

    def test_unknown_algorithm(self):
        with pytest.raises(KeyError):
            memory_bist_cycles(1024, algorithm="march_xyzzy")

    def test_bist_time_for_platform_sram(self):
        """The StepNP 2MB eSRAM tests in well under a second at 100MHz."""
        assert memory_bist_time_ms(2.0) < 1000.0

    def test_patterns_for_coverage_values(self):
        # ceil(-ln(1 - target / 0.99) / 0.002) at the defaults
        assert patterns_for_coverage(0.5) == 352
        assert patterns_for_coverage(0.95) == 1605
        targets = (0.1, 0.5, 0.9, 0.95, 0.98)
        counts = [patterns_for_coverage(t) for t in targets]
        assert counts == sorted(set(counts))

    def test_patterns_validation(self):
        with pytest.raises(ValueError):
            patterns_for_coverage(0.999, ceiling=0.99)
