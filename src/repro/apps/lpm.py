"""Longest-prefix-match trie: the NPSE packet search engine model.

Section 8 of the paper describes "a high-performance network packet
search engine optimized for IPv4/IPv6 forwarding.  In comparison with
CAM-based look-up methods, it relies on an SRAM-based approach that is
more memory and power-efficient" [Soni et al., DATE 2003].  This module
implements the SRAM side: a multi-bit-stride trie whose per-lookup cost
is a handful of SRAM reads, with area/energy accounting that experiment
E18 compares against the CAM baseline.  E18 and ablation A3 read that
accounting from :func:`trie_footprint`, which computes it in one pass
over the prefix entries without building the trie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: Energy of one SRAM read of a trie node (pJ), 130 nm class.
SRAM_READ_PJ = 20.0

#: SRAM bits per trie-node entry (next-hop/child pointer + flags).
BITS_PER_ENTRY = 24


class _Node:
    """One trie node: a 2^stride fan-out of children and stored next hops.

    ``next_hops[i]`` holds ``(next_hop, prefix_length)`` so controlled
    prefix expansion can give longer prefixes priority regardless of
    insertion order.  Both maps are index->value dicts rather than
    dense ``[None] * fanout`` lists: real tables leave most slots
    empty, and skipping the dense allocation makes table builds ~2x
    faster (the SRAM accounting in :meth:`LpmTrie.stats` still charges
    the full ``fanout`` entries per node, as the hardware would).
    """

    __slots__ = ("children", "next_hops")

    def __init__(self) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.next_hops: Dict[int, Tuple[int, int]] = {}


@dataclass(frozen=True)
class TrieStats:
    """Size/cost figures of a trie: a built :class:`LpmTrie`'s, or the
    footprint :func:`trie_footprint` computes from a prefix table."""

    prefixes: int
    nodes: int
    entries: int
    sram_bits: int
    sram_kbytes: float
    worst_case_accesses: int

    @classmethod
    def for_nodes(cls, prefixes: int, nodes: int, stride: int) -> "TrieStats":
        """Figures for *nodes* nodes of ``2**stride`` SRAM entries each."""
        entries = nodes * (1 << stride)
        bits = entries * BITS_PER_ENTRY
        return cls(
            prefixes=prefixes,
            nodes=nodes,
            entries=entries,
            sram_bits=bits,
            sram_kbytes=bits / 8.0 / 1024.0,
            worst_case_accesses=32 // stride,
        )

def check_prefix(prefix: int, length: int) -> None:
    """Reject a malformed ``prefix/length`` (shared with the CAM)."""
    if not 0 <= length <= 32:
        raise ValueError(f"prefix length must be 0..32, got {length}")
    if not 0 <= prefix < 1 << 32:
        raise ValueError(f"prefix out of range: {prefix:#x}")
    if length < 32 and prefix & ((1 << (32 - length)) - 1):
        raise ValueError(
            f"prefix {prefix:#010x}/{length} has bits below the mask"
        )


def _check_stride(stride: int) -> None:
    if not 1 <= stride <= 16:
        raise ValueError(f"stride must be in 1..16, got {stride}")
    if 32 % stride:
        raise ValueError(f"stride {stride} must divide 32")


class LpmTrie:
    """Multi-bit-stride longest-prefix-match trie over IPv4 addresses.

    Parameters
    ----------
    stride:
        Bits consumed per level; stride 8 gives at most 4 SRAM accesses
        per lookup for IPv4.  Controlled-prefix-expansion is applied on
        insert: a prefix whose length is not a stride multiple is
        expanded into the covering entries at the next level boundary.
    """

    def __init__(self, stride: int = 8) -> None:
        _check_stride(stride)
        self.stride = stride
        self.levels = 32 // stride
        self._fanout = 1 << stride
        self._root = _Node()
        self._node_count = 1
        self._prefixes = 0

    def insert(self, prefix: int, length: int, next_hop: int) -> None:
        """Insert ``prefix/length`` with *next_hop*.

        Longer (more specific) prefixes stored deeper override shorter
        ones on lookup, per LPM semantics.
        """
        check_prefix(prefix, length)
        if next_hop < 0:
            raise ValueError(f"negative next hop {next_hop}")
        self._prefixes += 1
        # Expanded entries share one tuple; the keep-the-longest-prefix
        # comparison runs inline because table builds hit it hundreds of
        # thousands of times (the span loops below are the hot path).
        entry = (next_hop, length)
        if length == 0:
            # Default route: expand across the root level.
            hops = self._root.next_hops
            for index in range(self._fanout):
                existing = hops.get(index)
                if existing is None or length >= existing[1]:
                    hops[index] = entry
            return
        # Walk full-stride levels.
        node = self._root
        remaining = length
        shift = 32
        while remaining > self.stride:
            shift -= self.stride
            index = (prefix >> shift) & (self._fanout - 1)
            child = node.children.get(index)
            if child is None:
                child = _Node()
                node.children[index] = child
                self._node_count += 1
            node = child
            remaining -= self.stride
        # Controlled prefix expansion within the final level.
        shift -= self.stride
        base = (prefix >> shift) & (self._fanout - 1)
        span = 1 << (self.stride - remaining)
        start = base & ~(span - 1)
        hops = node.next_hops
        for index in range(start, start + span):
            existing = hops.get(index)
            if existing is None or length >= existing[1]:
                hops[index] = entry

    def insert_many(
        self, entries: List[Tuple[int, int, int]]
    ) -> None:
        """Bulk-load ``(prefix, length, next_hop)`` entries.

        Equivalent to calling :meth:`insert` per entry (the property
        tests assert identical tries) but substantially faster for
        table builds into an **empty** trie: entries are stable-sorted
        by prefix length, which makes the keep-the-longest comparison
        always true — every expanded slot is an unconditional
        overwrite, and whole expansion spans are written with one
        C-level dict update.  On a trie that already holds prefixes
        the sort cannot order the batch against the existing entries,
        so the bulk load falls back to checked per-entry inserts.
        """
        if self._prefixes:
            for prefix, length, next_hop in entries:
                self.insert(prefix, length, next_hop)
            return
        fanout_mask = self._fanout - 1
        stride = self.stride
        for prefix, length, next_hop in sorted(
            entries, key=lambda e: e[1]
        ):
            check_prefix(prefix, length)
            if next_hop < 0:
                raise ValueError(f"negative next hop {next_hop}")
            self._prefixes += 1
            entry = (next_hop, length)
            if length == 0:
                self._root.next_hops.update(
                    dict.fromkeys(range(self._fanout), entry)
                )
                continue
            node = self._root
            remaining = length
            shift = 32
            while remaining > stride:
                shift -= stride
                index = (prefix >> shift) & fanout_mask
                child = node.children.get(index)
                if child is None:
                    child = _Node()
                    node.children[index] = child
                    self._node_count += 1
                node = child
                remaining -= stride
            shift -= stride
            base = (prefix >> shift) & fanout_mask
            span = 1 << (stride - remaining)
            if span == 1:
                node.next_hops[base] = entry
            else:
                start = base & ~(span - 1)
                node.next_hops.update(
                    dict.fromkeys(range(start, start + span), entry)
                )

    def lookup(self, address: int) -> Tuple[Optional[int], int]:
        """Return ``(next_hop, sram_accesses)`` for *address*.

        ``next_hop`` is None when no prefix covers the address.
        """
        if not 0 <= address < 1 << 32:
            raise ValueError(f"address out of range: {address:#x}")
        node = self._root
        shift = 32
        best: Optional[int] = None
        accesses = 0
        while node is not None:
            shift -= self.stride
            index = (address >> shift) & (self._fanout - 1)
            accesses += 1
            entry = node.next_hops.get(index)
            if entry is not None:
                best = entry[0]
            node = node.children.get(index) if shift > 0 else None
        return best, accesses

    def lookup_many(
        self, addresses: List[int]
    ) -> List[Tuple[Optional[int], int]]:
        """Batched :meth:`lookup` over an address array.

        Returns one ``(next_hop, sram_accesses)`` pair per address.
        The walk is identical to :meth:`lookup`; batching hoists the
        per-call attribute lookups, which matters when experiments
        probe hundreds of addresses per configuration.
        """
        stride = self.stride
        mask = self._fanout - 1
        root = self._root
        results: List[Tuple[Optional[int], int]] = []
        append = results.append
        for address in addresses:
            if not 0 <= address < 1 << 32:
                raise ValueError(f"address out of range: {address:#x}")
            node = root
            shift = 32
            best: Optional[int] = None
            accesses = 0
            while node is not None:
                shift -= stride
                index = (address >> shift) & mask
                accesses += 1
                entry = node.next_hops.get(index)
                if entry is not None:
                    best = entry[0]
                node = node.children.get(index) if shift > 0 else None
            append((best, accesses))
        return results

    def stats(self) -> TrieStats:
        """Memory and worst-case-access figures."""
        return TrieStats.for_nodes(
            self._prefixes, self._node_count, self.stride
        )


def trie_footprint(
    entries: Iterable[Tuple[int, int, int]], stride: int, probes: List[int]
) -> Tuple[TrieStats, List[int]]:
    """``LpmTrie(stride)`` loaded with *entries*: its stats and the SRAM
    accesses of each probe lookup, computed without building the trie.

    With ``levels = 32 // stride``, the root always exists, and for each
    k in 1..levels-1 there is one depth-(k+1) node per distinct top
    ``k * stride`` bits among the prefixes longer than ``k * stride``
    bits.  A lookup reads the root, then one more node for each
    consecutive depth whose key matches the address's top bits.  Equal
    to ``stats()`` and the ``lookup_many`` access counts of the built
    trie (the tests assert it), with the same validation errors.

    *entries* is read once, so it may be an iterator: each entry is
    checked, counted and reduced to its node keys as it arrives, and
    ``prefixes`` is the number read, duplicates included.
    """
    _check_stride(stride)
    # node keys per depth 2..levels, keyed by the top k*stride bits
    depths = [(bits, 32 - bits, set()) for bits in range(stride, 32, stride)]
    prefixes = 0
    for prefix, length, next_hop in entries:
        check_prefix(prefix, length)
        if next_hop < 0:
            raise ValueError(f"negative next hop {next_hop}")
        prefixes += 1
        for bits, shift, keys in depths:
            if length <= bits:
                break
            keys.add(prefix >> shift)
    accesses = []
    for address in probes:
        if not 0 <= address < 1 << 32:
            raise ValueError(f"address out of range: {address:#x}")
        count = 1
        for _bits, shift, keys in depths:
            if address >> shift not in keys:
                break
            count += 1
        accesses.append(count)
    nodes = 1 + sum(len(keys) for _bits, _shift, keys in depths)
    return TrieStats.for_nodes(prefixes, nodes, stride), accesses


def linear_scan_lookup(
    table: List[Tuple[int, int, int]], address: int
) -> Optional[int]:
    """Reference LPM by linear scan over (prefix, length, next_hop).

    Used by the property tests as the semantics oracle for the trie.
    """
    best_length = -1
    best_hop: Optional[int] = None
    for prefix, length, next_hop in table:
        if length == 0:
            matches = True
        else:
            mask = ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
            matches = (address & mask) == prefix
        if matches and length > best_length:
            best_length = length
            best_hop = next_hop
    return best_hop
