"""Unit tests for complexity growth and productivity (E4, E6, E7)."""

import pytest

from repro.economics.complexity import (
    REFERENCE_YEAR,
    complexity_table,
    hw_complexity,
    risc_equivalents,
    risc_equivalents_at_node,
    sw_complexity,
    sw_effort,
    sw_overtakes_hw_year,
)
from repro.economics.productivity import (
    design_productivity,
    productivity_peak_node,
    productivity_series,
)
from repro.technology.node import node


class TestComplexityGrowth:
    def test_reference_year_normalized(self):
        assert hw_complexity(REFERENCE_YEAR) == pytest.approx(1.0)
        assert sw_complexity(REFERENCE_YEAR) == pytest.approx(1.0)

    def test_hw_growth_56pct(self):
        assert hw_complexity(REFERENCE_YEAR + 1) == pytest.approx(1.56)

    def test_sw_growth_140pct(self):
        assert sw_complexity(REFERENCE_YEAR + 1) == pytest.approx(2.40)

    def test_sw_outpaces_hw(self):
        year = REFERENCE_YEAR + 5
        assert sw_complexity(year) > hw_complexity(year)

    def test_sw_overtakes_hw_before_paper(self):
        """Section 6: 'in many leading SoCs today [2003], the embedded
        S/W development effort has surpassed that of the H/W design
        effort' — the crossover must be <= 2003."""
        assert sw_overtakes_hw_year() <= 2003.0

    def test_sw_effort_minority_at_reference(self):
        assert sw_effort(REFERENCE_YEAR) < 0.5

    def test_complexity_table_rows(self):
        rows = complexity_table(1997, 2003)
        assert len(rows) == 7
        assert rows[0]["year"] == 1997
        assert rows[-1]["sw_over_hw_effort"] > 1.0


class TestRiscEquivalents:
    def test_paper_1000_cores_claim(self):
        """Section 1: 100M transistors ~= >1000 32-bit RISC cores."""
        assert risc_equivalents(100e6) >= 1000

    def test_at_node(self):
        assert risc_equivalents_at_node("130nm", 150.0) > 1000

    def test_core_size_validation(self):
        with pytest.raises(ValueError):
            risc_equivalents(1e6, core_transistors=0)


class TestProductivity:
    def test_peak_at_130nm(self):
        """Section 2: productivity declines 'for 90nm technologies and
        beyond'."""
        assert productivity_peak_node() == "130nm"

    def test_decline_below_90nm(self):
        series = dict(productivity_series())
        assert series["65nm"] < series["90nm"]
        assert series["50nm"] < series["65nm"]
        assert series["45nm"] < series["50nm"]

    def test_growth_up_to_130nm(self):
        series = dict(productivity_series())
        assert series["350nm"] < series["250nm"] < series["180nm"] < series["130nm"]

    def test_design_productivity_by_label_or_node(self):
        assert design_productivity("90nm") == design_productivity(node("90nm"))
