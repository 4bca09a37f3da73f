"""Unit tests for topology builders."""

import pytest

from repro.noc.topology import (
    Topology,
    TopologyKind,
    bus,
    crossbar,
    fat_tree,
    make_topology,
    mesh,
    ring,
    star,
    torus,
    tree,
)


class TestValidation:
    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.RING, 2, [(0, 5)], [0, 1])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.RING, 2, [(1, 1)], [0, 1])

    def test_bad_terminal_attachment_rejected(self):
        with pytest.raises(ValueError):
            Topology(TopologyKind.RING, 2, [(0, 1)], [0, 9])

    def test_auto_name(self):
        topo = Topology(TopologyKind.RING, 3, [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
        assert topo.name == "ring-3"


class TestBus:
    def test_single_router(self):
        topo = bus(8)
        assert topo.num_routers == 1
        assert len(topo.edges) == 0
        assert topo.num_terminals == 8

    def test_minimum_terminals(self):
        with pytest.raises(ValueError):
            bus(1)


class TestRing:
    def test_structure(self):
        topo = ring(8)
        assert topo.num_routers == 8
        assert len(topo.edges) == 16  # bidirectional
        # Every router has exactly two out-neighbours.
        assert all(len(topo.adjacency()[r]) == 2 for r in range(8))

    def test_minimum(self):
        with pytest.raises(ValueError):
            ring(2)


class TestMesh:
    def test_4x4(self):
        topo = mesh(16)
        assert topo.num_routers == 16
        # 2*W*H - W - H undirected edges, doubled.
        assert len(topo.edges) == 2 * (2 * 16 - 4 - 4)

    def test_explicit_width(self):
        topo = mesh(12, width=4)
        assert topo.name == "mesh-4x3"

    def test_non_rectangular_rejected(self):
        with pytest.raises(ValueError):
            mesh(12, width=5)

    def test_corner_degree(self):
        topo = mesh(16)
        assert len(topo.adjacency()[0]) == 2       # corner
        assert len(topo.adjacency()[5]) == 4       # interior


class TestTorus:
    def test_wraparound_degree(self):
        topo = torus(16)
        assert all(len(topo.adjacency()[r]) == 4 for r in range(16))

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            torus(4)  # 2x2


class TestTree:
    def test_binary_tree_16(self):
        topo = tree(16, arity=2)
        assert topo.num_routers == 15 + 16
        # Terminals attach to leaf routers only.
        assert all(r >= 15 for r in topo.terminal_router)

    def test_arity_validation(self):
        with pytest.raises(ValueError):
            tree(8, arity=1)


class TestFatTree:
    def test_16_terminals(self):
        topo = fat_tree(16)
        assert topo.num_terminals == 16
        assert topo.num_routers == 6  # 4 leaves + 2 roots

    def test_uneven_terminals_supported(self):
        topo = fat_tree(21)
        assert topo.num_terminals == 21
        assert max(topo.terminal_router) < topo.num_routers

    def test_leaf_root_bipartite(self):
        topo = fat_tree(16)
        leaves = set(topo.terminal_router)
        for u, v in topo.edges:
            assert (u in leaves) != (v in leaves)

    def test_minimum(self):
        with pytest.raises(ValueError):
            fat_tree(1)


class TestCrossbar:
    def test_complete_graph(self):
        topo = crossbar(6)
        assert len(topo.edges) == 6 * 5

    def test_highest_wiring_cost(self):
        """The crossbar's quadratic cost (E10's cost axis)."""
        n = 16
        xbar = crossbar(n).wiring_cost()
        for build in (ring, mesh, fat_tree, star):
            assert xbar > build(n).wiring_cost()


class TestStar:
    def test_center_router(self):
        topo = star(8)
        assert topo.num_routers == 9
        assert all(r != 8 for r in topo.terminal_router)


class TestMakeTopology:
    @pytest.mark.parametrize("kind", list(TopologyKind))
    def test_all_kinds_buildable_at_16(self, kind):
        topo = make_topology(kind, 16)
        assert topo.num_terminals == 16
        assert topo.kind is kind

    def test_string_kind(self):
        assert make_topology("mesh", 16).kind is TopologyKind.MESH


class TestCostMetrics:
    def test_wiring_cost_positive(self):
        for build in (bus, ring, mesh, torus, tree, fat_tree, crossbar, star):
            assert build(16).wiring_cost() > 0
