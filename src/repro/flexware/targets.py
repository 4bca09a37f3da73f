"""Retargeting cost models.

The FlexWare pitch is one source, many processors: this module costs
the same IR program on three targets —

* **gp_risc** — one instruction per IR op at the ISS's cycle costs;
* **dsp** — a MAC-fusing single-issue DSP: a ``mul`` whose only use is
  the immediately-following ``add`` fuses into one 1-cycle MAC, and
  loads dual-issue with arithmetic (the classic DSP datapath);
* **asip** — a configurable processor whose custom instruction
  collapses each load-load-mul-add tap of a filter kernel.

The report these produce is the Figure-1 spectrum driven bottom-up
from code rather than from catalog numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.flexware.ir import IrProgram

#: Per-IR-op cycle cost on the plain RISC (mirrors the ISS costs).
_RISC_COSTS = {
    "const": 1, "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1,
    "shl": 1, "shr": 1, "mul": 3, "load": 2, "store": 2,
}


@dataclass(frozen=True)
class TargetCost:
    """Cycle cost of one program on one target."""

    target: str
    cycles: float
    fused_macs: int = 0
    collapsed_taps: int = 0

def _risc_cost(program: IrProgram) -> TargetCost:
    cycles = sum(_RISC_COSTS[op.opcode] for op in program.ops)
    return TargetCost(target="gp_risc", cycles=float(cycles))


def _use_counts(program: IrProgram) -> Dict[int, int]:
    uses: Dict[int, int] = {}
    for op in program.ops:
        for src in op.srcs:
            uses[src] = uses.get(src, 0) + 1
    if program.output is not None:
        uses[program.output] = uses.get(program.output, 0) + 1
    return uses


def _dsp_cost(program: IrProgram) -> TargetCost:
    """MAC fusion + load/arith dual issue."""
    uses = _use_counts(program)
    cycles = 0.0
    fused = 0
    skip = set()
    ops = program.ops
    for index, op in enumerate(ops):
        if index in skip:
            continue
        nxt = ops[index + 1] if index + 1 < len(ops) else None
        if (
            op.opcode == "mul"
            and nxt is not None
            and nxt.opcode == "add"
            and op.dst in nxt.srcs
            and uses.get(op.dst, 0) == 1
        ):
            cycles += 1.0   # one MAC issue
            fused += 1
            skip.add(index + 1)
            continue
        if op.opcode == "load":
            # Dual issue: a load pairs with the next non-load op for free
            # half the time; model as half-cost loads.
            cycles += 1.0
            continue
        cycles += 1.0
    return TargetCost(target="dsp", cycles=cycles, fused_macs=fused)


def _asip_cost(program: IrProgram) -> TargetCost:
    """Custom 'tap' instruction: load+load+mul+add in 2 cycles.

    Pattern-matches the FIR tap shape (two loads feeding a mul feeding
    an accumulate); everything else runs at RISC cost.
    """
    ops = program.ops
    uses = _use_counts(program)
    cycles = 0.0
    taps = 0
    index = 0
    consumed = set()
    while index < len(ops):
        window = ops[index:index + 4]
        if (
            len(window) == 4
            and window[0].opcode == "load"
            and window[1].opcode == "load"
            and window[2].opcode == "mul"
            and window[3].opcode == "add"
            and set(window[2].srcs) == {window[0].dst, window[1].dst}
            and window[2].dst in window[3].srcs
            and uses.get(window[0].dst, 0) == 1
            and uses.get(window[1].dst, 0) == 1
            and uses.get(window[2].dst, 0) == 1
        ):
            cycles += 2.0
            taps += 1
            index += 4
            continue
        cycles += _RISC_COSTS[ops[index].opcode]
        index += 1
    return TargetCost(target="asip", cycles=cycles, collapsed_taps=taps)


TARGETS = {
    "gp_risc": _risc_cost,
    "dsp": _dsp_cost,
    "asip": _asip_cost,
}


def cost_on_target(program: IrProgram, target: str) -> TargetCost:
    """Cost *program* on a named target."""
    if target not in TARGETS:
        raise KeyError(
            f"unknown target {target!r}; known: {', '.join(sorted(TARGETS))}"
        )
    program.validate()
    return TARGETS[target](program)


def retargeting_report(program: IrProgram) -> List[dict]:
    """Cost the program on every target; rows sorted by cycles."""
    risc = cost_on_target(program, "gp_risc")
    rows = []
    for name in sorted(TARGETS):
        cost = cost_on_target(program, name)
        rows.append(
            {
                "target": name,
                "cycles": cost.cycles,
                "speedup_vs_risc": round(risc.cycles / cost.cycles, 2),
                "fused_macs": cost.fused_macs,
                "collapsed_taps": cost.collapsed_taps,
            }
        )
    rows.sort(key=lambda row: row["cycles"])
    return rows
