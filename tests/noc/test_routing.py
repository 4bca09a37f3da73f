"""Unit and property tests for routing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.routing import build_routing
from repro.noc.topology import (
    TopologyKind,
    crossbar,
    fat_tree,
    make_topology,
    mesh,
    ring,
    star,
    torus,
    tree,
)

ALL_BUILDERS = [ring, mesh, torus, tree, fat_tree, crossbar, star]


class TestRoutingBasics:
    def test_self_route_is_single_node(self):
        routing = build_routing(mesh(16))
        assert routing.route(5, 5) == [5]

    def test_route_endpoints(self):
        routing = build_routing(mesh(16))
        path = routing.route(0, 15)
        assert path[0] == 0 and path[-1] == 15

    def test_route_follows_edges(self):
        topo = mesh(16)
        routing = build_routing(topo)
        edges = set(topo.edges)
        path = routing.route(0, 15)
        for u, v in zip(path, path[1:]):
            assert (u, v) in edges

    def test_route_length_matches_distance(self):
        topo = mesh(16)
        routing = build_routing(topo)
        for src in range(16):
            for dst in range(16):
                path = routing.route(src, dst)
                assert len(path) - 1 == routing.hops(src, dst)

    def test_mesh_distance_is_manhattan(self):
        routing = build_routing(mesh(16, width=4))
        # (0,0) to (3,3): 6 hops.
        assert routing.hops(0, 15) == 6

    def test_crossbar_routers_one_hop_apart(self):
        distance = build_routing(crossbar(8)).distance
        assert max(max(row) for row in distance) == 1

    def test_ring_farthest_router_half_way_round(self):
        distance = build_routing(ring(8)).distance
        assert max(max(row) for row in distance) == 4


class TestEcmp:
    def test_fat_tree_has_path_diversity(self):
        """The SPIN fat tree offers multiple minimal paths leaf-to-leaf."""
        topo = fat_tree(16)
        routing = build_routing(topo)
        leaves = sorted(set(topo.terminal_router))
        assert len(routing.next_hops[leaves[0]][leaves[-1]]) >= 2

    def test_flows_spread_across_roots(self):
        topo = fat_tree(16)
        routing = build_routing(topo)
        leaves = sorted(set(topo.terminal_router))
        first_hops = {
            routing.route(leaves[0], leaves[1], flow=f)[1] for f in range(64)
        }
        assert len(first_hops) >= 2

    def test_same_flow_same_path(self):
        """Per-flow determinism preserves in-order delivery."""
        routing = build_routing(fat_tree(16))
        for flow in (0, 7, 123):
            assert routing.route(0, 3, flow) == routing.route(0, 3, flow)

    def test_mesh_single_path_on_line(self):
        routing = build_routing(mesh(4, width=4))
        assert len(routing.next_hops[0][3]) == 1


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_all_pairs_reachable(build):
    topo = build(16)
    routing = build_routing(topo)
    for src in range(topo.num_routers):
        for dst in range(topo.num_routers):
            assert routing.hops(src, dst) >= 0


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_routes_are_loop_free(build):
    topo = build(16)
    routing = build_routing(topo)
    for src in range(topo.num_routers):
        for dst in range(topo.num_routers):
            for flow in (0, 1, 99):
                path = routing.route(src, dst, flow)
                assert len(path) == len(set(path)), (
                    f"loop in {build.__name__} route {src}->{dst}"
                )


@given(
    terminals=st.sampled_from([8, 12, 16, 24, 32]),
    kind=st.sampled_from(
        [
            TopologyKind.RING,
            TopologyKind.MESH,
            TopologyKind.FAT_TREE,
            TopologyKind.STAR,
            TopologyKind.TREE,
        ]
    ),
    src=st.integers(min_value=0, max_value=31),
    dst=st.integers(min_value=0, max_value=31),
    flow=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_property_minimal_routes(terminals, kind, src, dst, flow):
    """Any route is exactly as long as the BFS distance — minimality."""
    topo = make_topology(kind, terminals)
    routing = build_routing(topo)
    src %= topo.num_routers
    dst %= topo.num_routers
    path = routing.route(src, dst, flow)
    assert len(path) - 1 == routing.hops(src, dst)
    edges = set(topo.edges)
    for u, v in zip(path, path[1:]):
        assert (u, v) in edges


class TestRoutingCaches:
    def test_cached_routing_shares_one_table(self):
        from repro.noc.routing import cached_routing

        a = cached_routing(mesh(16))
        b = cached_routing(mesh(16))       # structurally identical
        assert a is b

    def test_cached_routing_distinguishes_topologies(self):
        from repro.noc.routing import cached_routing

        assert cached_routing(mesh(16)) is not cached_routing(torus(16))
        assert cached_routing(mesh(16)) is not cached_routing(mesh(12))

    def test_cached_routing_matches_build_routing(self):
        from repro.noc.routing import cached_routing

        for builder in ALL_BUILDERS:
            topo = builder(16)
            fresh = build_routing(topo)
            shared = cached_routing(topo)
            assert shared.distance == fresh.distance
            assert shared.next_hops == fresh.next_hops

    def test_route_paths_memoized_and_stable(self):
        routing = build_routing(fat_tree(16))
        first = routing.route(0, 3, flow=7)
        again = routing.route(0, 3, flow=7)
        assert again is first               # memo hit
        assert routing.route(0, 3, flow=7) == first

