"""Code generation from the IR to the RISC ISS.

Linear-scan register allocation over the straight-line IR's live
ranges, with spilling to a stack area when the twelve allocatable
registers run out.  The emitted assembly is real: it assembles with
:mod:`repro.processors.risc` and executes on the ISS, and the test
suite checks the result against the IR's reference evaluator over
random programs.

Register convention
-------------------
``r1``-``r12``: allocatable; ``r13``: spill-area base; ``r14``:
scratch for reloads/immediates; ``r15``: second scratch.  Inputs are
passed pre-loaded into their temps' home locations by the harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.flexware.ir import IrError, IrOp, IrProgram
from repro.processors.risc import RiscCpu, assemble

ALLOCATABLE = list(range(1, 13))
SPILL_BASE_REG = 13
SCRATCH_A = 14
SCRATCH_B = 15

#: Word-addressed base of the spill area in the ISS memory.
SPILL_AREA_BASE = 0x8000


@dataclass
class Location:
    """Where a temp lives: a register or a spill slot."""

    register: Optional[int] = None
    spill_slot: Optional[int] = None

    @property
    def spilled(self) -> bool:
        return self.register is None


@dataclass
class CompiledProgram:
    """The output of :func:`compile_to_risc`."""

    assembly: str
    locations: Dict[int, Location]
    spill_slots: int
    instructions: int

    def run(
        self,
        inputs: Dict[int, int],
        memory: Optional[Dict[int, int]] = None,
    ) -> Tuple[int, RiscCpu]:
        """Execute on the ISS; returns (result, finished cpu).

        The result is left in ``r1`` by the emitted epilogue.
        """
        cpu = RiscCpu(program=assemble(self.assembly), memory=dict(memory or {}))
        cpu.registers[SPILL_BASE_REG] = SPILL_AREA_BASE
        for temp, value in inputs.items():
            location = self.locations[temp]
            if location.spilled:
                cpu.memory[SPILL_AREA_BASE + 4 * location.spill_slot] = (
                    value & 0xFFFFFFFF
                )
            else:
                cpu.registers[location.register] = value & 0xFFFFFFFF
        cpu.run()
        return cpu.registers[1], cpu


def _allocate(program: IrProgram) -> Tuple[Dict[int, Location], int]:
    """Linear-scan allocation over live ranges; returns locations and
    the number of spill slots used."""
    ranges = program.live_ranges()
    # Allocate in order of definition; free registers whose temp died.
    order = sorted(ranges, key=lambda t: ranges[t][0])
    free = list(ALLOCATABLE)
    active: List[Tuple[int, int]] = []   # (end, temp)
    locations: Dict[int, Location] = {}
    next_slot = 0
    for temp in order:
        start, end = ranges[temp]
        # Expire dead intervals.
        for active_end, active_temp in list(active):
            if active_end < start:
                active.remove((active_end, active_temp))
                register = locations[active_temp].register
                if register is not None:
                    free.append(register)
        if free:
            register = free.pop(0)
            locations[temp] = Location(register=register)
            active.append((end, temp))
            active.sort()
        else:
            # Spill the interval ending last (this temp or an active one).
            active.sort()
            longest_end, longest_temp = active[-1] if active else (-1, -1)
            if active and longest_end > end:
                # Steal the register from the longest-living active temp.
                stolen = locations[longest_temp].register
                locations[longest_temp] = Location(spill_slot=next_slot)
                next_slot += 1
                active.remove((longest_end, longest_temp))
                locations[temp] = Location(register=stolen)
                active.append((end, temp))
                active.sort()
            else:
                locations[temp] = Location(spill_slot=next_slot)
                next_slot += 1
    return locations, next_slot


class _Emitter:
    def __init__(self, locations: Dict[int, Location]) -> None:
        self.locations = locations
        self.lines: List[str] = []

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def read(self, temp: int, scratch: int) -> int:
        """Return a register holding *temp*, reloading spills."""
        location = self.locations[temp]
        if not location.spilled:
            return location.register
        offset = 4 * location.spill_slot
        self.emit(f"lw r{scratch}, {offset}(r{SPILL_BASE_REG})")
        return scratch

    def write(self, temp: int, source_reg: int) -> None:
        """Store *source_reg* into temp's home location."""
        location = self.locations[temp]
        if location.spilled:
            offset = 4 * location.spill_slot
            self.emit(f"sw r{source_reg}, {offset}(r{SPILL_BASE_REG})")
        elif location.register != source_reg:
            self.emit(f"mov r{location.register}, r{source_reg}")

    def dest_reg(self, temp: int) -> int:
        location = self.locations[temp]
        return SCRATCH_A if location.spilled else location.register


_BINOPS = {"add": "add", "sub": "sub", "mul": "mul",
           "and": "and", "or": "or", "xor": "xor"}


def compile_to_risc(program: IrProgram) -> CompiledProgram:
    """Compile the IR program to RISC assembly."""
    program.validate()
    if program.output is None:
        raise IrError("cannot compile a program without an output")
    locations, spill_slots = _allocate(program)
    emitter = _Emitter(locations)
    for op in program.ops:
        _emit_op(emitter, op)
    # Epilogue: move the result into r1.
    result_reg = emitter.read(program.output, SCRATCH_A)
    if result_reg != 1:
        emitter.emit(f"mov r1, r{result_reg}")
    emitter.emit("halt")
    assembly = "\n".join(emitter.lines)
    return CompiledProgram(
        assembly=assembly,
        locations=locations,
        spill_slots=spill_slots,
        instructions=len(emitter.lines),
    )


def _emit_op(emitter: _Emitter, op: IrOp) -> None:
    if op.opcode == "const":
        dest = emitter.dest_reg(op.dst)
        emitter.emit(f"li r{dest}, {op.imm & 0xFFFFFFFF}")
        emitter.write(op.dst, dest)
    elif op.opcode in _BINOPS:
        a = emitter.read(op.srcs[0], SCRATCH_A)
        b = emitter.read(op.srcs[1], SCRATCH_B)
        dest = emitter.dest_reg(op.dst)
        emitter.emit(f"{_BINOPS[op.opcode]} r{dest}, r{a}, r{b}")
        emitter.write(op.dst, dest)
    elif op.opcode in ("shl", "shr"):
        a = emitter.read(op.srcs[0], SCRATCH_A)
        dest = emitter.dest_reg(op.dst)
        emitter.emit(f"{op.opcode} r{dest}, r{a}, {op.imm & 31}")
        emitter.write(op.dst, dest)
    elif op.opcode == "load":
        address = emitter.read(op.srcs[0], SCRATCH_A)
        dest = emitter.dest_reg(op.dst)
        emitter.emit(f"lw r{dest}, 0(r{address})")
        emitter.write(op.dst, dest)
    elif op.opcode == "store":
        address = emitter.read(op.srcs[0], SCRATCH_A)
        value = emitter.read(op.srcs[1], SCRATCH_B)
        emitter.emit(f"sw r{value}, 0(r{address})")
    else:  # pragma: no cover - OPCODES is closed
        raise IrError(f"unhandled opcode {op.opcode}")
