"""Unit tests for the process-node database."""

import pytest

from repro.technology.node import NODES, ProcessNode, node, node_names, nodes_between


class TestLookup:
    def test_known_node(self):
        assert node("90nm").feature_nm == 90

    def test_unknown_node_lists_options(self):
        with pytest.raises(KeyError, match="90nm"):
            node("1nm")

    def test_node_names_ordered_old_to_new(self):
        names = node_names()
        features = [NODES[n].feature_nm for n in names]
        assert features == sorted(features, reverse=True)
        assert names[0] == "350nm"
        assert names[-1] == "45nm"

    def test_nodes_between_inclusive(self):
        chain = nodes_between("180nm", "90nm")
        assert [n.name for n in chain] == ["180nm", "130nm", "90nm"]

    def test_nodes_between_inverted_raises(self):
        with pytest.raises(ValueError):
            nodes_between("90nm", "180nm")


class TestDatabaseTrends:
    """The database must encode the trends the paper cites."""

    def test_density_increases_with_scaling(self):
        ordered = [NODES[n] for n in node_names()]
        densities = [p.density_mtx_per_mm2 for p in ordered]
        assert densities == sorted(densities)

    def test_mask_cost_increases_with_scaling(self):
        ordered = [NODES[n] for n in node_names()]
        costs = [p.mask_set_cost_usd for p in ordered]
        assert costs == sorted(costs)

    def test_vdd_decreases_with_scaling(self):
        ordered = [NODES[n] for n in node_names()]
        vdds = [p.vdd for p in ordered]
        assert vdds == sorted(vdds, reverse=True)

    def test_leakage_explodes_with_scaling(self):
        assert NODES["45nm"].leakage_na_per_um > 100 * NODES["250nm"].leakage_na_per_um

    def test_mask_exceeds_1M_at_90nm(self):
        assert node("90nm").mask_set_cost_usd > 1_000_000

    def test_mask_below_1M_at_130nm(self):
        assert node("130nm").mask_set_cost_usd < 1_000_000

    def test_years_monotone(self):
        ordered = [NODES[n] for n in node_names()]
        years = [p.year for p in ordered]
        assert years == sorted(years)

    def test_density_roughly_doubles_per_node(self):
        ordered = [NODES[n] for n in node_names()]
        for older, newer in zip(ordered, ordered[1:]):
            ratio = newer.density_mtx_per_mm2 / older.density_mtx_per_mm2
            assert 1.1 < ratio < 2.6


class TestProcessNodeMethods:
    def test_transistors_for_area(self):
        p = node("130nm")
        assert p.transistors_for_area(100.0) == pytest.approx(
            p.density_mtx_per_mm2 * 1e8
        )

    def test_100M_transistors_fit_130nm_die(self):
        """The paper's '100 million transistor' 0.13um SoC is feasible."""
        p = node("130nm")
        assert p.transistors_for_area(200.0) > 100e6  # a buildable die
