"""Unit tests for the network model."""

import hashlib
import random

import pytest

from repro.noc.link import Link
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import bus, crossbar, fat_tree, mesh, ring
from repro.sim.core import Simulator, Timeout


def make_net(topo_builder, n=16, **kwargs):
    sim = Simulator()
    return sim, Network(sim, topo_builder(n), **kwargs)


class TestPacket:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, size_flits=0)

    def test_latency_requires_delivery(self):
        packet = Packet(src=0, dst=1)
        with pytest.raises(ValueError):
            _ = packet.latency

    def test_ids_unique(self):
        a, b = Packet(src=0, dst=1), Packet(src=0, dst=1)
        assert a.packet_id != b.packet_id


class TestLink:
    def test_reserve_serializes(self):
        link = Link("l")
        s1, f1 = link.reserve(0.0, 4)
        s2, f2 = link.reserve(0.0, 4)
        assert (s1, f1) == (0.0, 4.0)
        assert (s2, f2) == (4.0, 8.0)

    def test_idle_gap_not_busy(self):
        link = Link("l")
        link.reserve(0.0, 2)
        link.reserve(10.0, 2)
        assert link.utilization(20.0) == pytest.approx(0.2)

    def test_bandwidth_validation(self):
        with pytest.raises(ValueError):
            Link("l", flits_per_cycle=0)


class TestDelivery:
    def test_packet_delivered_with_hops(self):
        sim, net = make_net(mesh)
        delivered = []
        packet = Packet(src=0, dst=15, size_flits=4)
        net.send(packet, on_deliver=lambda p: delivered.append(p))
        sim.run()
        assert delivered == [packet]
        assert packet.delivered_at is not None
        assert packet.hops == 6  # Manhattan distance on 4x4 mesh

    def test_same_router_delivery(self):
        sim, net = make_net(mesh)
        packet = Packet(src=3, dst=3, size_flits=2)
        net.send(packet)
        sim.run()
        assert packet.delivered_at is not None
        assert packet.hops == 0

    def test_terminal_range_checked(self):
        sim, net = make_net(mesh)
        with pytest.raises(ValueError):
            net.send(Packet(src=0, dst=99))

    def test_attach_receiver_called(self):
        sim, net = make_net(mesh)
        seen = []
        net.attach(15, lambda p: seen.append(p.payload))
        net.send(Packet(src=0, dst=15, payload="hello"))
        sim.run()
        assert seen == ["hello"]

    def test_counters(self):
        sim, net = make_net(mesh)
        for dst in (1, 2, 3):
            net.send(Packet(src=0, dst=dst, size_flits=2))
        sim.run()
        assert net.injected_packets == 3
        assert net.delivered_packets == 3
        assert net.delivered_flits == 6


class TestZeroLoadLatency:
    def test_simulated_matches_analytic_on_idle_mesh(self):
        sim, net = make_net(mesh)
        packet = Packet(src=0, dst=15, size_flits=4)
        net.send(packet)
        sim.run()
        assert packet.latency == pytest.approx(net.zero_load_latency(0, 15, 4))

    def test_simulated_matches_analytic_on_idle_ring(self):
        sim, net = make_net(ring)
        packet = Packet(src=0, dst=5, size_flits=4)
        net.send(packet)
        sim.run()
        assert packet.latency == pytest.approx(net.zero_load_latency(0, 5, 4))

    def test_crossbar_latency_below_mesh(self):
        _, xbar = make_net(crossbar)
        _, grid = make_net(mesh)
        assert xbar.zero_load_latency(0, 15) < grid.zero_load_latency(0, 15)


class TestBusSpecialCase:
    def test_bus_delivery(self):
        sim, net = make_net(bus)
        packet = Packet(src=0, dst=7, size_flits=4)
        net.send(packet)
        sim.run()
        assert packet.delivered_at is not None

    def test_bus_serializes_everything(self):
        sim, net = make_net(bus, n=4)
        packets = [Packet(src=i, dst=(i + 1) % 4, size_flits=10) for i in range(4)]
        for packet in packets:
            net.send(packet)
        sim.run()
        finish_times = sorted(p.delivered_at for p in packets)
        # Each 10-flit packet holds the single medium for 10 cycles.
        gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
        assert all(gap >= 10.0 for gap in gaps)

    def test_bus_utilization_uses_shared_medium(self):
        sim, net = make_net(bus, n=4)
        net.send(Packet(src=0, dst=1, size_flits=8))
        sim.run()
        assert net.peak_link_utilization() > 0


class TestContention:
    def test_contention_increases_latency(self):
        """Two packets fighting for one link: the loser waits."""
        sim = Simulator()
        net = Network(sim, ring(4))
        a = Packet(src=0, dst=1, size_flits=8)
        b = Packet(src=0, dst=1, size_flits=8)
        net.send(a)
        net.send(b)
        sim.run()
        assert b.latency > a.latency

    def test_router_delay_adds_per_hop(self):
        sim_fast = Simulator()
        fast = Network(sim_fast, mesh(16), router_delay=1.0)
        sim_slow = Simulator()
        slow = Network(sim_slow, mesh(16), router_delay=5.0)
        assert slow.zero_load_latency(0, 15) > fast.zero_load_latency(0, 15)

    def test_negative_router_delay_rejected(self):
        with pytest.raises(ValueError):
            Network(Simulator(), mesh(16), router_delay=-1.0)


def _contending_burst(topo_builder, seed=11, terminals=16, per_source=12):
    """Run a seeded burst of contending packets; return the delivery
    order digest and the number of events the kernel executed.

    Even terminals inject open-loop (a send, then a 0-3 cycle gap, some
    gaps carrying a value); odd terminals inject closed-loop (a send,
    then wait for its delivery event, sometimes yielding the processor
    once). Same-time sends, shared links and ejection ports make every
    reservation's order matter.
    """
    rng = random.Random(seed)
    sim = Simulator()
    net = Network(sim, topo_builder(terminals))
    packets = [
        [
            Packet(
                src=src,
                dst=rng.randrange(terminals),
                size_flits=rng.choice((1, 2, 4, 8)),
            )
            for _ in range(per_source)
        ]
        for src in range(terminals)
    ]
    first_id = packets[0][0].packet_id
    order = []

    def record(packet):
        order.append((packet.packet_id - first_id, packet.delivered_at,
                      packet.hops))

    for terminal in range(terminals):
        net.attach(terminal, record)
    gaps = [[rng.choice((0, 0, 1, 2.5, 3)) for _ in range(per_source)]
            for _ in range(terminals)]

    def open_loop(src):
        for packet, gap in zip(packets[src], gaps[src]):
            net.send(packet)
            yield Timeout(gap, value=gap) if gap == 1 else Timeout(gap)

    def closed_loop(src):
        for packet, gap in zip(packets[src], gaps[src]):
            delivered = sim.event()
            net.send(packet, on_deliver=lambda _p, ev=delivered: ev.succeed())
            yield delivered
            if gap == 0:
                yield None

    for src in range(terminals):
        sim.spawn(open_loop(src) if src % 2 == 0 else closed_loop(src))
    sim.run()
    assert len(order) == terminals * per_source
    return hashlib.sha256(repr(order).encode()).hexdigest(), sim.events_executed


class TestPinnedEventOrder:
    """The DES dispatch order, recorded before the kernel and network
    fast paths changed how events are queued: same digests and event
    counts mean every packet was delivered at the same time, after the
    same hops, in the same order."""

    @pytest.mark.parametrize(
        "topo_builder, digest, events",
        [
            (
                mesh,
                "346955da4ad9383f0e09bcacad1ccc7b"
                "104a1ecf035aed6be1e803acb048c2ff",
                1113,
            ),
            (
                fat_tree,
                "847d779f4a1b2644ad1284f54b3a1819"
                "d84870d3f1d6e294a762d7cb9dbdaf64",
                926,
            ),
            (
                ring,
                "ed4615f1d839b3f1e34a11dc3ab59357"
                "b7fa2ff9397f7fb1a8ea3b1af57a5d6b",
                1388,
            ),
            (
                bus,
                "60501756c7ffd1747c28b1542f41c426"
                "4c672c2ad5d60437d0553deba708cd92",
                650,
            ),
        ],
        ids=["mesh", "fat_tree", "ring", "bus"],
    )
    def test_contending_burst_replays_the_recorded_order(
        self, topo_builder, digest, events
    ):
        assert _contending_burst(topo_builder) == (digest, events)
