"""Unit tests for the per-gate variation figure."""

from repro.technology.node import node
from repro.technology.variation import gate_sigma_fraction


class TestGateSigma:
    def test_grows_with_scaling(self):
        assert gate_sigma_fraction(node("45nm")) > gate_sigma_fraction(
            node("180nm")
        )

    def test_capped(self):
        assert gate_sigma_fraction(node("45nm")) <= 0.20
