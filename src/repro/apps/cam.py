"""CAM/TCAM lookup baseline.

The comparison point for the NPSE experiment (E18): a ternary CAM
matches all stored prefixes in parallel in a single access, but every
stored bit participates in every search, so search energy scales with
table size and each ternary cell costs ~2x SRAM area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.lpm import check_prefix

#: TCAM cell area relative to an SRAM bit (ternary cell = 2 bits + match).
TCAM_AREA_FACTOR = 2.0

#: Search energy per stored ternary bit per lookup (pJ) — every cell
#: discharges its matchline segment on every search.
TCAM_SEARCH_PJ_PER_KBIT = 1.4

#: Bits per IPv4 TCAM entry (32 value + 32 mask stored as ternary).
TCAM_BITS_PER_ENTRY = 32


@dataclass(frozen=True)
class TcamModel:
    """Area/energy figures for a TCAM of a given size."""

    entries: int
    bits: int
    area_sram_equivalent_bits: float
    search_energy_pj: float

    @classmethod
    def for_entries(cls, entries: int) -> "TcamModel":
        if entries < 1:
            raise ValueError(f"need >=1 entry, got {entries}")
        bits = entries * TCAM_BITS_PER_ENTRY
        return cls(
            entries=entries,
            bits=bits,
            area_sram_equivalent_bits=bits * TCAM_AREA_FACTOR,
            search_energy_pj=bits / 1024.0 * TCAM_SEARCH_PJ_PER_KBIT,
        )


class CamTable:
    """A functional TCAM: priority-ordered prefix matching in one access.

    Entries are kept sorted by descending prefix length (the hardware
    priority encoder); lookup reports the energy of the full parallel
    search.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[int, int, int]] = []  # (prefix, length, hop)
        self._sorted = True

    def insert(self, prefix: int, length: int, next_hop: int) -> None:
        check_prefix(prefix, length)
        self._entries.append((prefix, length, next_hop))
        self._sorted = False

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, address: int) -> Tuple[Optional[int], float]:
        """Return ``(next_hop, search_energy_pj)`` for one parallel search."""
        if not 0 <= address < 1 << 32:
            raise ValueError(f"address out of range: {address:#x}")
        if not self._sorted:
            self._entries.sort(key=lambda e: -e[1])
            self._sorted = True
        energy = self.model().search_energy_pj if self._entries else 0.0
        for prefix, length, next_hop in self._entries:
            if length == 0:
                return next_hop, energy
            mask = ~((1 << (32 - length)) - 1) & 0xFFFFFFFF
            if (address & mask) == prefix:
                return next_hop, energy
        return None, energy

    def model(self) -> TcamModel:
        return TcamModel.for_entries(max(1, len(self._entries)))
