"""The StepNP IPv4 experiment harness (the paper's headline result).

Section 7.2: "We achieved near 100% utilization of the embedded
processors and threads, even in presence of NoC interconnect latencies
of over 100 cycles, while processing worst-case traffic at a 10 Gbit
line rate."

:func:`run_ipv4_on_stepnp` reproduces the setup: a StepNP platform
(N multithreaded PEs + NoC + on-chip SRAM forwarding table + 10 Gbit/s
line interface), the DSOC-deployed :class:`~repro.apps.ipv4.Ipv4Forwarder`
replicated across all PEs, and a worst-case 40-byte-packet trace pushed
at line rate.  Extra configured NoC latency models the "latencies of
over 100 cycles" regime; the thread-count sweep is experiment E14's
x-axis, and its runs share one :func:`forwarding_inputs` build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.ipv4 import Ipv4Forwarder
from repro.apps.lpm import LpmTrie
from repro.apps.trafficgen import (
    PacketTrace,
    build_trie,
    random_prefix_table,
    worst_case_trace,
)
from repro.dsoc.broker import ReplicaPolicy
from repro.dsoc.runtime import DsocRuntime
from repro.noc.ocp import OcpSlave
from repro.noc.topology import TopologyKind
from repro.platform.fppa import build_platform
from repro.platform.stepnp import stepnp_spec
from repro.sim.core import Timeout


@dataclass(frozen=True)
class Ipv4RunResult:
    """Measured outcome of one StepNP IPv4 run."""

    num_pes: int
    threads_per_pe: int
    extra_table_latency: float
    offered_gbps: float
    sustained_gbps: float
    packets_offered: int
    packets_processed: int
    packets_forwarded: int
    packets_dropped: int
    avg_pe_utilization: float
    min_pe_utilization: float
    duration_cycles: float

    @property
    def line_rate_sustained(self) -> bool:
        """True when >=90% of offered packets completed inside the
        line-rate window (the remainder is the in-flight pipeline tail)."""
        return self.packets_processed >= 0.90 * self.packets_offered

    def as_row(self) -> dict:
        return {
            "pes": self.num_pes,
            "threads": self.threads_per_pe,
            "table_latency": self.extra_table_latency,
            "offered_gbps": round(self.offered_gbps, 2),
            "sustained_gbps": round(self.sustained_gbps, 2),
            "utilization": round(self.avg_pe_utilization, 3),
            "line_rate": self.line_rate_sustained,
        }


def forwarding_inputs(
    packets: int = 2000,
    line_rate_gbps: float = 10.0,
    packet_bytes: int = 40,
    clock_ghz: float = 0.5,
    table_prefixes: int = 2000,
    seed: int = 9,
) -> Tuple[LpmTrie, PacketTrace]:
    """The forwarding-table trie and the worst-case trace of a run.

    The defaults are :func:`run_ipv4_on_stepnp`'s.  A run only reads
    both (headers are ``bytes``), so runs that differ in platform
    settings alone can share one build.
    """
    table = random_prefix_table(table_prefixes, seed=seed)
    trie = build_trie(table)
    trace = worst_case_trace(
        packets,
        table,
        packet_bytes=packet_bytes,
        line_rate_gbps=line_rate_gbps,
        clock_ghz=clock_ghz,
        seed=seed,
    )
    return trie, trace


def run_ipv4_on_stepnp(
    num_pes: int = 16,
    threads_per_pe: int = 8,
    packets: int = 2000,
    line_rate_gbps: float = 10.0,
    packet_bytes: int = 40,
    clock_ghz: float = 0.5,
    table_prefixes: int = 2000,
    extra_table_latency: float = 0.0,
    topology: TopologyKind | str = TopologyKind.FAT_TREE,
    policy: ReplicaPolicy = ReplicaPolicy.ROUND_ROBIN,
    inputs: Optional[Tuple[LpmTrie, PacketTrace]] = None,
    seed: int = 9,
) -> Ipv4RunResult:
    """Run worst-case IPv4 traffic through a StepNP instance.

    *extra_table_latency* adds cycles to every forwarding-table SRAM
    access, standing in for deeper NoC hierarchies; the total
    round-trip seen by a thread is NoC request + SRAM + NoC response.

    The simulation stops at the end of the line-rate window (offered
    packets × interarrival time). ``packets_processed`` counts the
    replies the ingress received inside it; ``packets_forwarded`` and
    ``packets_dropped`` count what the servants finished inside it, so
    ``packets_processed <= packets_forwarded + packets_dropped <=
    packets_offered``.

    *inputs* is a prebuilt ``(trie, trace)`` pair from
    :func:`forwarding_inputs`; when given, the table and trace
    arguments are not read.
    """
    spec = stepnp_spec(
        num_pes=num_pes,
        threads=threads_per_pe,
        topology=topology,
        clock_ghz=clock_ghz,
    )
    platform = build_platform(spec)
    if inputs is None:
        inputs = forwarding_inputs(
            packets=packets,
            line_rate_gbps=line_rate_gbps,
            packet_bytes=packet_bytes,
            clock_ghz=clock_ghz,
            table_prefixes=table_prefixes,
            seed=seed,
        )
    trie, trace = inputs
    # Re-bind the eSRAM terminal with the configured extra latency: it
    # holds the forwarding table the servants walk.
    esram = next(m for m in platform.memories if m.technology == "esram")
    table_terminal = esram.terminal
    if extra_table_latency > 0:
        OcpSlave(
            platform.network,
            table_terminal,
            access_latency=esram.slave.access_latency + extra_table_latency,
            name="fwd-table",
        )
    runtime = DsocRuntime(platform, policy=policy)
    servants: List[Ipv4Forwarder] = []

    def factory() -> Ipv4Forwarder:
        servant = Ipv4Forwarder(trie, table_terminal)
        servants.append(servant)
        return servant

    runtime.deploy_replicated(
        "ipv4", factory, server_threads=threads_per_pe
    )
    # The line interface's terminal doubles as the ingress dispatcher.
    ingress_terminal = platform.line_interfaces[0].terminal
    proxy = runtime.proxy(ingress_terminal, "ipv4")
    completions: List[Tuple[int, float]] = []  # (result, completion time)
    sim = platform.sim

    def ingress():
        from repro.apps.ipv4 import dst_address

        gap = trace.interarrival_cycles
        call = proxy.call
        record = completions.append
        for header in trace.headers:
            event = call("process", dst_address(header), header)
            event.callbacks.append(
                lambda ev: record((ev.value, sim.now))
            )
            yield Timeout(gap)

    sim.spawn(ingress(), name="ingress")
    # The line-rate window: every measurement, the servants' forwarded
    # and dropped counts included, is taken against it.
    window = trace.interarrival_cycles * trace.count
    platform.run(until=window)
    avg_util = platform.average_pe_utilization()
    min_util = platform.min_pe_utilization()
    in_window = len(completions)
    forwarded = sum(s.forwarded for s in servants)
    dropped = sum(s.dropped for s in servants)
    # Sustained rate = packets that completed inside the window.
    sustained_gbps = in_window * packet_bytes * 8.0 * clock_ghz / window
    return Ipv4RunResult(
        num_pes=num_pes,
        threads_per_pe=threads_per_pe,
        extra_table_latency=extra_table_latency,
        offered_gbps=line_rate_gbps,
        sustained_gbps=sustained_gbps,
        packets_offered=trace.count,
        packets_processed=in_window,
        packets_forwarded=forwarded,
        packets_dropped=dropped,
        avg_pe_utilization=avg_util,
        min_pe_utilization=min_util,
        duration_cycles=window,
    )
