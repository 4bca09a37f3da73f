"""Line-rate packet traffic generation.

Builds the forwarding tables and packet traces for the IPv4
experiments: random-but-realistic prefix tables (a mix of /8 through
/24 with a default route) and worst-case minimum-size packet streams —
40-byte packets back to back at 10 Gbit/s, the arrival process the
paper's Section 7.2 result assumes.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator, List, Tuple

from repro.apps.cam import CamTable
from repro.apps.ipv4 import build_header
from repro.apps.lpm import LpmTrie
from repro.sim.rng import RandomStreams

#: Realistic-ish prefix length distribution for an early-2000s core
#: table: heavy /16-/24 with some coarse aggregates.
PREFIX_LENGTH_WEIGHTS: List[Tuple[int, float]] = [
    (8, 0.02),
    (12, 0.04),
    (16, 0.22),
    (18, 0.07),
    (20, 0.14),
    (22, 0.14),
    (24, 0.37),
]


def random_prefix_entries(
    prefixes: int,
    next_hops: int = 16,
    seed: int = 5,
    include_default: bool = True,
) -> Iterator[Tuple[int, int, int]]:
    """An iterator over *prefixes* distinct (prefix, length, next_hop)
    entries: the default route first if *include_default*, then
    prefixes drawn by :data:`PREFIX_LENGTH_WEIGHTS`.

    The arguments are checked at the call; the entries are drawn one
    at a time as they are read, so a caller that reads them once never
    holds the table.
    """
    if prefixes < 1:
        raise ValueError(f"need >=1 prefix, got {prefixes}")
    if next_hops < 1:
        raise ValueError(f"need >=1 next hop, got {next_hops}")
    return _draw_entries(prefixes, next_hops, seed, include_default)


def _draw_entries(
    prefixes: int, next_hops: int, seed: int, include_default: bool
) -> Iterator[Tuple[int, int, int]]:
    rng = RandomStreams(seed).get("prefix_table")
    # One weighted draw per prefix is the hot path of every table
    # build, so the cumulative weights are prepared once and each draw
    # is a single bisect — the exact operation ``rng.choices`` performs
    # internally (identical float math, so identical tables), without
    # its per-call accumulate/validation/list overhead.
    cum_weights = list(accumulate(w for _l, w in PREFIX_LENGTH_WEIGHTS))
    total = cum_weights[-1] + 0.0
    hi = len(PREFIX_LENGTH_WEIGHTS) - 1
    random = rng.random
    getrandbits = rng.getrandbits
    # A /length draw is new when its bit in that length's bitmap is
    # clear: 2**length bits, 2 MiB for /24 and 2.67 MiB for all seven
    # lengths, where sets of the drawn ints grow with the table.
    bitmaps = [
        (length, bytearray(((1 << length) + 7) >> 3))
        for length, _w in PREFIX_LENGTH_WEIGHTS
    ]
    # The next hop is rng.randrange(next_hops) as the interpreter runs
    # it (Random._randbelow_with_getrandbits): draw bit_length() bits,
    # redraw while out of range.
    hop_bits = next_hops.bit_length()
    drawn = 0
    if include_default:
        drawn = 1
        yield (0, 0, 0)
    while drawn < prefixes:
        length, seen = bitmaps[bisect(cum_weights, random() * total, 0, hi)]
        bits = getrandbits(length)
        byte = bits >> 3
        bit = 1 << (bits & 7)
        if seen[byte] & bit:
            continue
        seen[byte] |= bit
        hop = getrandbits(hop_bits)
        while hop >= next_hops:
            hop = getrandbits(hop_bits)
        drawn += 1
        yield (bits << (32 - length), length, hop)


def random_prefix_table(
    prefixes: int,
    next_hops: int = 16,
    seed: int = 5,
    include_default: bool = True,
) -> List[Tuple[int, int, int]]:
    """Generate (prefix, length, next_hop) entries: the list of
    :func:`random_prefix_entries`, for callers that read it more than
    once or index it."""
    return list(
        random_prefix_entries(prefixes, next_hops, seed, include_default)
    )


def build_trie(table: List[Tuple[int, int, int]], stride: int = 8) -> LpmTrie:
    """Load a prefix table into a trie (bulk-load fast path)."""
    trie = LpmTrie(stride=stride)
    trie.insert_many(table)
    return trie


def build_cam(table: List[Tuple[int, int, int]]) -> CamTable:
    """Load a prefix table into the CAM baseline."""
    cam = CamTable()
    for prefix, length, next_hop in table:
        cam.insert(prefix, length, next_hop)
    return cam


@dataclass
class PacketTrace:
    """A generated stream of IPv4 packets.

    ``headers`` are real 20-byte IPv4 headers; ``interarrival_cycles``
    is the line-rate spacing at the SoC clock.
    """

    headers: List[bytes]
    packet_bytes: int
    line_rate_gbps: float
    clock_ghz: float
    interarrival_cycles: float = field(init=False)

    def __post_init__(self) -> None:
        if self.packet_bytes < 20:
            raise ValueError(f"packet must be >=20 bytes, got {self.packet_bytes}")
        if self.line_rate_gbps <= 0 or self.clock_ghz <= 0:
            raise ValueError("rates must be positive")
        bytes_per_cycle = self.line_rate_gbps / 8.0 / self.clock_ghz
        self.interarrival_cycles = self.packet_bytes / bytes_per_cycle

    @property
    def count(self) -> int:
        return len(self.headers)


def worst_case_trace(
    count: int,
    table: List[Tuple[int, int, int]],
    packet_bytes: int = 40,
    line_rate_gbps: float = 10.0,
    clock_ghz: float = 0.5,
    seed: int = 9,
    hit_fraction: float = 0.98,
) -> PacketTrace:
    """Minimum-size packets at full line rate.

    Destinations are drawn so *hit_fraction* of them match a random
    table prefix (the rest fall to the default route or miss),
    modelling worst-case traffic that still exercises deep trie walks.
    """
    if count < 1:
        raise ValueError(f"need >=1 packet, got {count}")
    if not 0.0 <= hit_fraction <= 1.0:
        raise ValueError(f"hit fraction must be in [0,1], got {hit_fraction}")
    rng = RandomStreams(seed).get("trace")
    specific = [entry for entry in table if entry[1] > 0]
    headers: List[bytes] = []
    for index in range(count):
        if specific and rng.random() < hit_fraction:
            prefix, length, _hop = rng.choice(specific)
            host_bits = 32 - length
            dst = prefix | (rng.getrandbits(host_bits) if host_bits else 0)
        else:
            dst = rng.getrandbits(32)
        src = rng.getrandbits(32)
        headers.append(
            build_header(
                src=src,
                dst=dst,
                ttl=64,
                total_length=packet_bytes,
                identification=index & 0xFFFF,
            )
        )
    return PacketTrace(
        headers=headers,
        packet_bytes=packet_bytes,
        line_rate_gbps=line_rate_gbps,
        clock_ghz=clock_ghz,
    )
