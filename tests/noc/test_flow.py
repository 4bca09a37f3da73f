"""Flow-level NoC mode: equivalence against the event-driven model.

The validity envelope asserted here is the one documented in
``docs/performance.md``: below saturation the flow model's average
latency tracks DES within 35% and peak link utilization within 0.15
absolute; saturation verdicts agree at clearly-stable and
clearly-overloaded operating points; and sweeping offered load yields
the same saturation-point ordering across topologies.
"""

import pytest

from repro.noc.flow import FlowModel, demand_matrix, flow_traffic_metrics
from repro.noc.metrics import saturation_load, simulate_traffic
from repro.noc.network import Network
from repro.noc.topology import bus, crossbar, fat_tree, mesh, ring, torus, tree
from repro.noc.traffic import TrafficPattern
from repro.sim.core import Simulator

LATENCY_RTOL = 0.35
UTIL_ATOL = 0.15


def both_modes(topology, load, duration=2000.0, **kwargs):
    des = simulate_traffic(
        topology, TrafficPattern.UNIFORM, load,
        duration=duration, warmup=duration / 4, mode="des", **kwargs
    )
    flow = simulate_traffic(
        topology, TrafficPattern.UNIFORM, load,
        duration=duration, warmup=duration / 4, mode="flow", **kwargs
    )
    return des, flow


class TestDemandMatrix:
    def test_uniform_rows_sum_to_offered_load(self):
        topo = mesh(16)
        demand = demand_matrix(topo, TrafficPattern.UNIFORM, 0.3)
        for src in range(16):
            assert sum(demand[src]) == pytest.approx(0.3)
            assert demand[src][src] == 0.0

    def test_deterministic_pattern_concentrates(self):
        topo = mesh(16)
        demand = demand_matrix(topo, TrafficPattern.NEIGHBOR, 0.2)
        for src in range(16):
            assert demand[src][(src + 1) % 16] == pytest.approx(0.2)
            assert sum(demand[src]) == pytest.approx(0.2)

    def test_hotspot_mix(self):
        topo = mesh(16)
        demand = demand_matrix(
            topo, TrafficPattern.HOTSPOT, 0.2, hotspot=3,
            hotspot_fraction=0.5,
        )
        # A non-hotspot source sends half its load to the hotspot plus
        # its uniform share; the hotspot itself sprays uniformly.
        assert demand[0][3] == pytest.approx(0.5 * 0.2 + 0.5 * 0.2 / 15)
        assert sum(demand[0]) == pytest.approx(0.2)
        assert demand[3][3] == 0.0
        assert sum(demand[3]) == pytest.approx(0.2)

    def test_rejects_nonpositive_load(self):
        with pytest.raises(ValueError):
            demand_matrix(mesh(4), TrafficPattern.UNIFORM, 0.0)


class TestFlowVersusDes:
    @pytest.mark.parametrize("terminals", [4, 16])
    def test_mesh_low_load_latency_and_util(self, terminals):
        des, flow = both_modes(mesh(terminals), 0.1)
        assert flow.avg_latency == pytest.approx(
            des.avg_latency, rel=LATENCY_RTOL
        )
        assert flow.peak_link_utilization == pytest.approx(
            des.peak_link_utilization, abs=UTIL_ATOL
        )
        assert flow.saturated == des.saturated == False  # noqa: E712
        assert flow.accepted_load == pytest.approx(
            des.accepted_load, rel=0.15
        )

    def test_mesh_mid_load_stays_unsaturated_in_both(self):
        des, flow = both_modes(mesh(16), 0.3)
        assert not des.saturated and not flow.saturated
        assert flow.avg_latency == pytest.approx(
            des.avg_latency, rel=LATENCY_RTOL
        )

    def test_bus_agrees_on_both_sides_of_saturation(self):
        topo = bus(8)
        des_lo, flow_lo = both_modes(topo, 0.05)
        assert not des_lo.saturated and not flow_lo.saturated
        assert flow_lo.avg_latency == pytest.approx(
            des_lo.avg_latency, rel=LATENCY_RTOL
        )
        # 8 terminals sharing one flit/cycle saturate well below 0.4.
        des_hi, flow_hi = both_modes(topo, 0.4)
        assert des_hi.saturated and flow_hi.saturated
        # Both cap accepted throughput at the medium's capacity share.
        assert flow_hi.accepted_load == pytest.approx(
            des_hi.accepted_load, rel=0.15
        )

    def test_zero_load_latency_matches_event_model_exactly(self):
        for topo in (mesh(16), ring(8), fat_tree(16), bus(8)):
            sim = Simulator()
            network = Network(sim, topo)
            model = FlowModel(topo)
            for src, dst in ((0, topo.num_terminals // 2), (1, 2)):
                if topo.kind.value == "bus":
                    continue  # Network's bus zero-load omits ejection
                assert model.zero_load_latency(src, dst) == pytest.approx(
                    network.zero_load_latency(src, dst)
                )

    def test_saturation_point_ordering_matches_des(self):
        """The acceptance check: no ordering inversion on E10 topologies."""
        loads = [0.1, 0.3, 0.6, 0.9]
        builders = [bus, ring, tree, mesh, torus, fat_tree, crossbar]
        des_sat = {}
        flow_sat = {}
        for build in builders:
            topo = build(16)
            des_sat[topo.name] = saturation_load(
                topo, TrafficPattern.UNIFORM, loads=loads,
                duration=1200.0, warmup=300.0, mode="des",
            )
            flow_sat[topo.name] = saturation_load(
                topo, TrafficPattern.UNIFORM, loads=loads,
                duration=1200.0, warmup=300.0, mode="flow",
            )
        names = list(des_sat)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if des_sat[a] < des_sat[b]:
                    assert flow_sat[a] <= flow_sat[b], (
                        f"{a} saturates before {b} under DES "
                        f"({des_sat[a]} < {des_sat[b]}) but after under "
                        f"flow ({flow_sat[a]} > {flow_sat[b]})"
                    )
                elif des_sat[a] > des_sat[b]:
                    assert flow_sat[a] >= flow_sat[b]
        # The paper-level anchors hold in both modes.
        assert des_sat["bus-16"] == min(des_sat.values())
        assert flow_sat["bus-16"] == min(flow_sat.values())
        assert flow_sat["crossbar-16"] == max(flow_sat.values())


class TestFlowModeNetwork:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown NoC mode"):
            simulate_traffic(
                mesh(4), TrafficPattern.UNIFORM, 0.1, mode="flit"
            )


class TestFlowMetricsShape:
    def test_flow_metrics_deterministic(self):
        a = flow_traffic_metrics(mesh(16), TrafficPattern.UNIFORM, 0.25)
        b = flow_traffic_metrics(
            mesh(16), TrafficPattern.UNIFORM, 0.25, seed=99
        )
        assert a == b  # seed is ignored: expectations, not sample paths

    def test_row_shape_matches_des(self):
        des, flow = both_modes(mesh(4), 0.1, duration=800.0)
        assert set(des.as_row()) == set(flow.as_row())

    def test_wait_capped_at_run_scale(self):
        # Near-critical utilization must not explode the M/D/1 pole.
        metrics = flow_traffic_metrics(
            ring(16), TrafficPattern.UNIFORM, 0.5, duration=4000.0
        )
        assert metrics.avg_latency < 10 * 4000.0

    @pytest.mark.parametrize(
        "build", [bus, ring, tree, mesh, torus, fat_tree, crossbar]
    )
    def test_latency_monotone_in_offered_load(self, build):
        """The stable/overloaded wait branches meet continuously at
        rho = 1: latency must never *drop* as load rises through a
        link's capacity (a discontinuity there can misorder
        saturation points)."""
        topo = build(16)
        previous = 0.0
        for load in [round(0.05 * i, 2) for i in range(1, 21)]:
            metrics = flow_traffic_metrics(
                topo, TrafficPattern.UNIFORM, load,
                duration=4000.0, warmup=1000.0,
            )
            assert metrics.avg_latency >= previous - 1e-9, (
                topo.name, load, previous, metrics.avg_latency,
            )
            previous = metrics.avg_latency

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            flow_traffic_metrics(
                mesh(4), TrafficPattern.UNIFORM, 0.1,
                duration=100.0, warmup=100.0,
            )


class TestRegisteredScenariosInDesMode:
    """E10 and A1 default to flow mode; the packet-level event model
    must reach the same verdicts."""

    @pytest.mark.parametrize("name", ["E10", "A1"])
    def test_des_mode_keeps_the_flow_verdict(self, name):
        from repro.engine.executor import run_spec
        from repro.engine.registry import get

        spec = get(name).spec
        flow = run_spec(spec)
        des = run_spec(spec.with_params(mode="des"))
        assert des.params["mode"] == "des"
        assert des.ok, des.error
        assert des.reproduced is True
        assert des.verdict == flow.verdict
