"""Unit tests for the Moore's-law growth rates."""

from repro.technology.scaling import (
    MOORE_TRANSISTOR_GROWTH,
    SOFTWARE_COMPLEXITY_GROWTH,
)


class TestGrowthConstants:
    def test_paper_growth_rates(self):
        """Section 6 quotes 56%/yr HW and 140%/yr SW."""
        assert MOORE_TRANSISTOR_GROWTH == 0.56
        assert SOFTWARE_COMPLEXITY_GROWTH == 1.40
