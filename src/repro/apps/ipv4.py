"""IPv4 fast-path processing.

The application of the paper's headline result (Section 7.2): "we have
successfully mapped a DSOC model of a complete IPv4 fast-path
application onto a large-scale multi-processor and H/W multi-threaded
instance of the StepNP platform."

This module provides the real packet processing — RFC-791 header
parse/build, RFC-1071 checksum, TTL handling — plus the
:class:`Ipv4Forwarder` DSOC servant whose timing model drives the E14
simulation (parse/verify compute, trie lookups as split NoC reads to
the forwarding-table SRAM, header rewrite compute).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.apps.lpm import LpmTrie
from repro.dsoc.idl import Interface, Method, Param
from repro.dsoc.objects import DsocObject

IPV4_MIN_HEADER_BYTES = 20


#: Preformatted 10-halfword layout of the minimum IPv4 header — the
#: shape every fast-path checksum touches.
_TEN_HALFWORDS = struct.Struct(">10H")


def checksum16(data: bytes) -> int:
    """RFC 1071 one's-complement checksum over *data*.

    The 20-byte minimum-header case (one per packet on the forwarding
    fast path) sums the ten halfwords with a single struct unpack; the
    general case walks byte pairs.  Both fold identically.
    """
    n = len(data)
    if n == 20:
        total = sum(_TEN_HALFWORDS.unpack(data))
    else:
        if n % 2:
            data = data + b"\x00"
            n += 1
        total = 0
        for i in range(0, n, 2):
            total += (data[i] << 8) | data[i + 1]
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def dst_address(header: bytes) -> int:
    """The destination address field, without a full header parse."""
    return struct.unpack_from(">I", header, 16)[0]


@dataclass
class Ipv4Header:
    """Parsed IPv4 header fields (no options support needed for 40B
    worst-case fast-path packets)."""

    version: int
    ihl: int
    dscp: int
    total_length: int
    identification: int
    flags: int
    fragment_offset: int
    ttl: int
    protocol: int
    header_checksum: int
    src: int
    dst: int

    def is_valid(self) -> bool:
        """Version/IHL/TTL sanity for fast-path forwarding."""
        return (
            self.version == 4
            and self.ihl >= 5
            and self.total_length >= IPV4_MIN_HEADER_BYTES
            and self.ttl > 0
        )


def parse_header(data: bytes) -> Ipv4Header:
    """Parse the first 20 bytes of *data* as an IPv4 header."""
    if len(data) < IPV4_MIN_HEADER_BYTES:
        raise ValueError(
            f"need >= {IPV4_MIN_HEADER_BYTES} bytes, got {len(data)}"
        )
    (
        ver_ihl,
        dscp,
        total_length,
        identification,
        flags_frag,
        ttl,
        protocol,
        checksum,
        src,
        dst,
    ) = struct.unpack(">BBHHHBBHII", data[:20])
    return Ipv4Header(
        version=ver_ihl >> 4,
        ihl=ver_ihl & 0x0F,
        dscp=dscp,
        total_length=total_length,
        identification=identification,
        flags=flags_frag >> 13,
        fragment_offset=flags_frag & 0x1FFF,
        ttl=ttl,
        protocol=protocol,
        header_checksum=checksum,
        src=src,
        dst=dst,
    )


def build_header(
    src: int,
    dst: int,
    ttl: int = 64,
    protocol: int = 17,
    total_length: int = 40,
    identification: int = 0,
    dscp: int = 0,
) -> bytes:
    """Build a valid 20-byte IPv4 header with a correct checksum."""
    header = bytearray(
        struct.pack(
            ">BBHHHBBHII",
            (4 << 4) | 5,
            dscp,
            total_length,
            identification,
            0,
            ttl,
            protocol,
            0,
            src,
            dst,
        )
    )
    # Patch the checksum in place rather than packing a second time.
    struct.pack_into(">H", header, 10, checksum16(bytes(header)))
    return bytes(header)


def verify_checksum(header: bytes) -> bool:
    """True when the embedded checksum is consistent (RFC 1071 sums to 0)."""
    return checksum16(header[:IPV4_MIN_HEADER_BYTES]) == 0


#: Cycle costs of the fast-path phases on a 500 MHz configurable PE.
#: Sized so that 16 PEs at a 10 Gbit/s 40-byte-packet line rate (one
#: packet per 16 cycles, 256 cycles of aggregate budget per packet) run
#: at the paper's "near 100%" utilization: 240 core cycles per packet.
PARSE_VERIFY_CYCLES = 110.0
REWRITE_CYCLES = 80.0
CLASSIFY_CYCLES = 50.0


class Ipv4Forwarder(DsocObject):
    """DSOC servant for the IPv4 fast path.

    ``process(dst, header)`` performs: parse+verify compute, one trie
    SRAM read per touched level (split transactions to the forwarding
    table's NoC terminal — this is where the >100-cycle NoC latencies
    bite single-threaded cores), then classify+rewrite compute.
    """

    interface = Interface(
        "Ipv4Forwarder",
        (
            Method(
                "process",
                (Param("dst", "u32"), Param("header", "bytes")),
            ),
        ),
    )

    def __init__(
        self,
        table: LpmTrie,
        table_terminal: int,
        parse_cycles: float = PARSE_VERIFY_CYCLES,
        rewrite_cycles: float = REWRITE_CYCLES,
        classify_cycles: float = CLASSIFY_CYCLES,
    ) -> None:
        super().__init__()
        self.table = table
        self.table_terminal = table_terminal
        self.parse_cycles = parse_cycles
        self.rewrite_cycles = rewrite_cycles
        self.classify_cycles = classify_cycles
        self.forwarded = 0
        self.dropped = 0

    def serve_process(self, ctx, svc, dst, header):
        # Phase 1: parse + checksum verification (pure compute).
        yield from ctx.compute(self.parse_cycles)
        if not verify_checksum(header):
            self.dropped += 1
            return -1
        parsed = parse_header(header)
        if not parsed.is_valid() or parsed.ttl <= 1:
            self.dropped += 1
            return -1
        # Phase 2: trie walk — one split SRAM read per level actually
        # touched.  The functional result comes from the local table
        # model; the reads model the NoC/SRAM traffic of the NPSE walk.
        next_hop, accesses = self.table.lookup(parsed.dst)
        for level in range(accesses):
            yield from svc.read(
                self.table_terminal, (parsed.dst >> (24 - 8 * min(level, 3))), 2
            )
        if next_hop is None:
            self.dropped += 1
            return -1
        # Phase 3: classification + TTL/checksum rewrite (compute).
        yield from ctx.compute(self.classify_cycles + self.rewrite_cycles)
        self.forwarded += 1
        return next_hop
