"""Reconfigurable processor: RISC core + eFPGA instruction extensions.

Section 8 of the paper: "The development and manufacturing of a 1 GOPS
reconfigurable signal processing IC.  This combines a commercial
configurable RISC core with an embedded FPGA fabric which implements
the application-specific instruction extensions."  And Section 6.2:
"Reconfigurable processors take this one step further, by allowing
run-time changes to the architecture."

This module implements that machine executably: a
:class:`ReconfigurableCpu` wraps the :mod:`repro.processors.risc` ISS
with custom instructions (``xop0`` .. ``xop7``) whose datapaths are
configured onto an :class:`~repro.processors.efpga.EfpgaFabric` at run
time.  Each extension collapses a multi-instruction pattern into one
(multi-cycle) instruction, and can be swapped for another mid-program —
the run-time architecture change the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.processors.efpga import EfpgaFabric
from repro.processors.risc import (
    Assembler,
    Instruction,
    MASK32,
    RiscCpu,
    RiscError,
)

#: Number of custom-instruction opcode slots.
XOP_SLOTS = 8


@dataclass(frozen=True)
class CustomInstruction:
    """One eFPGA-implemented instruction extension.

    Attributes
    ----------
    name:
        Human-readable name (e.g. ``"mac16"``).
    semantics:
        ``f(a, b) -> result`` over 32-bit unsigned operands.
    replaces_instructions:
        Base-ISA instructions the pattern replaces (speedup accounting).
    gates:
        Hardwired-equivalent gate count configured onto the fabric.
    cycles:
        Execution cycles of the fabric datapath (eFPGA runs slower than
        core logic, so complex extensions take >1 cycle).
    """

    name: str
    semantics: Callable[[int, int], int]
    replaces_instructions: int
    gates: float
    cycles: int = 1

    def __post_init__(self) -> None:
        if self.replaces_instructions < 1:
            raise ValueError(f"{self.name}: must replace >=1 instruction")
        if self.gates <= 0:
            raise ValueError(f"{self.name}: gate count must be positive")
        if self.cycles < 1:
            raise ValueError(f"{self.name}: cycles must be >=1")


class ExtendedAssembler(Assembler):
    """Assembler accepting ``xop<k> rd, ra, rb`` custom opcodes."""

    def _parse(self, text, lineno, labels, pc):
        parts = text.replace(",", " ").split()
        op = parts[0].lower()
        if op.startswith("xop"):
            try:
                slot = int(op[3:])
            except ValueError:
                raise RiscError(f"line {lineno}: bad extension opcode {op!r}")
            if not 0 <= slot < XOP_SLOTS:
                raise RiscError(
                    f"line {lineno}: extension slot {slot} out of range "
                    f"(0..{XOP_SLOTS - 1})"
                )
            args = parts[1:]
            self._arity(op, args, 3, lineno)
            return Instruction(
                op=op,
                rd=self._reg(args[0], lineno),
                ra=self._reg(args[1], lineno),
                rb=self._reg(args[2], lineno),
                source_line=lineno,
            )
        return super()._parse(text, lineno, labels, pc)


class ReconfigurableCpu(RiscCpu):
    """A RISC ISS whose ``xop`` slots execute on an eFPGA fabric.

    Extensions are loaded with :meth:`configure` (which claims fabric
    LUTs) and removed with :meth:`unconfigure` (run-time
    reconfiguration).  Executing an unconfigured slot raises — exactly
    what the silicon would do.
    """

    def __init__(
        self,
        program: List[Instruction],
        fabric: Optional[EfpgaFabric] = None,
        **kwargs,
    ) -> None:
        super().__init__(program=program, **kwargs)
        self.fabric = fabric or EfpgaFabric(luts=8_000)
        self._slots: Dict[int, CustomInstruction] = {}
        self.xop_executions = 0
        self.reconfigurations = 0
        self._xop_equivalent_ops = 0

    def configure(self, slot: int, extension: CustomInstruction) -> None:
        """Load *extension* into an opcode slot, claiming fabric space."""
        if not 0 <= slot < XOP_SLOTS:
            raise RiscError(f"slot {slot} out of range (0..{XOP_SLOTS - 1})")
        if slot in self._slots:
            raise RiscError(
                f"slot {slot} already holds {self._slots[slot].name!r}; "
                "unconfigure it first"
            )
        self.fabric.map_function(f"xop{slot}:{extension.name}", extension.gates)
        self._slots[slot] = extension
        self.reconfigurations += 1

    def unconfigure(self, slot: int) -> None:
        """Free a slot (run-time reconfiguration)."""
        extension = self._slots.pop(slot, None)
        if extension is None:
            raise RiscError(f"slot {slot} is not configured")
        self.fabric.unmap(f"xop{slot}:{extension.name}")

    def configured_extensions(self) -> Dict[int, str]:
        return {slot: ext.name for slot, ext in self._slots.items()}

    def step(self) -> None:
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program):
            raise RiscError(f"pc {self.pc} outside program")
        ins = self.program[self.pc]
        if not ins.op.startswith("xop"):
            super().step()
            return
        slot = int(ins.op[3:])
        extension = self._slots.get(slot)
        if extension is None:
            raise RiscError(
                f"executed unconfigured extension slot {slot} at "
                f"pc={self.pc} (line {ins.source_line})"
            )
        a = self.registers[ins.ra] & MASK32
        b = self.registers[ins.rb] & MASK32
        result = extension.semantics(a, b) & MASK32
        self._write(ins.rd, result)
        self.cycles += extension.cycles
        self.instructions_retired += 1
        self.xop_executions += 1
        self._xop_equivalent_ops += extension.replaces_instructions
        self.pc += 1

    def effective_ops_retired(self) -> int:
        """Base-ISA-equivalent operations retired: an ``xop`` execution
        counts as the instruction pattern it replaced — the numerator of
        the GOPS figure."""
        return (
            self.instructions_retired
            - self.xop_executions
            + self._xop_equivalent_ops
        )


def run_extended(
    source: str,
    extensions: Dict[int, CustomInstruction],
    memory: Optional[Dict[int, int]] = None,
    fabric: Optional[EfpgaFabric] = None,
) -> ReconfigurableCpu:
    """Assemble and run *source* with the given slot configuration."""
    program = ExtendedAssembler().assemble(source)
    cpu = ReconfigurableCpu(program=program, fabric=fabric, memory=dict(memory or {}))
    for slot, extension in extensions.items():
        cpu.configure(slot, extension)
    cpu.run()
    return cpu


def gops_estimate(
    cpu: ReconfigurableCpu,
    clock_mhz: float = 200.0,
    equivalent_ops_per_xop: Optional[float] = None,
) -> float:
    """Giga-operations per second sustained by the finished run.

    Operations are base-ISA equivalents: an ``xop`` counts as the
    pattern it replaced.  The paper's IC claims 1 GOPS at 0.18 um —
    reachable when wide extensions execute every few cycles.
    """
    if cpu.cycles == 0:
        return 0.0
    if equivalent_ops_per_xop is not None:
        base_ops = cpu.instructions_retired - cpu.xop_executions
        ops = base_ops + cpu.xop_executions * equivalent_ops_per_xop
    else:
        ops = cpu.effective_ops_retired()
    ops_per_cycle = ops / cpu.cycles
    return ops_per_cycle * clock_mhz * 1e6 / 1e9


# --- a standard extension library -------------------------------------------

def _mac16(a: int, b: int) -> int:
    """Multiply-accumulate of packed 16-bit halves: lo(a)*lo(b)+hi(a)*hi(b)."""
    lo = (a & 0xFFFF) * (b & 0xFFFF)
    hi = ((a >> 16) & 0xFFFF) * ((b >> 16) & 0xFFFF)
    return (lo + hi) & MASK32


def _sad8(a: int, b: int) -> int:
    """Sum of absolute differences over packed bytes (video kernels)."""
    total = 0
    for shift in (0, 8, 16, 24):
        xa = (a >> shift) & 0xFF
        xb = (b >> shift) & 0xFF
        total += abs(xa - xb)
    return total & MASK32


def _bitrev8(a: int, _b: int) -> int:
    """Bit-reverse the low byte (FFT address generation)."""
    byte = a & 0xFF
    reversed_byte = int(f"{byte:08b}"[::-1], 2)
    return (a & ~0xFF & MASK32) | reversed_byte


def _crc_step(a: int, b: int) -> int:
    """One byte of CRC-32 (polynomial 0xEDB88320) folded into the state."""
    crc = a ^ (b & 0xFF)
    for _ in range(8):
        crc = (crc >> 1) ^ (0xEDB88320 if crc & 1 else 0)
    return crc & MASK32


STANDARD_EXTENSIONS: Dict[str, CustomInstruction] = {
    ext.name: ext
    for ext in [
        CustomInstruction("mac16", _mac16, replaces_instructions=7,
                          gates=9_000, cycles=2),
        CustomInstruction("sad8", _sad8, replaces_instructions=16,
                          gates=6_000, cycles=2),
        CustomInstruction("bitrev8", _bitrev8, replaces_instructions=12,
                          gates=1_200, cycles=1),
        CustomInstruction("crc_step", _crc_step, replaces_instructions=20,
                          gates=4_500, cycles=2),
    ]
}
