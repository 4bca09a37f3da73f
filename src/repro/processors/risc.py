"""A small 32-bit RISC instruction-set simulator with assembler.

The "high-level IP block" level of the paper's abstraction stack
(Section 3, level 3) includes embedded RISC processors.  This ISS is
the executable stand-in: a load/store, 16-register, 32-bit integer
machine with a two-pass assembler.  It is used to derive cycle counts
for task models (e.g. the IPv4 header-processing kernels) and as a unit
of the "1000 RISC cores on a die" arithmetic (its logic complexity is
pinned to :data:`repro.economics.complexity.RISC32_LOGIC_TRANSISTORS`).

ISA
---
``add/sub/and/or/xor rd, ra, rb`` — three-register ALU ops (1 cycle)
``addi/subi/andi/ori/xori rd, ra, imm`` — immediate forms (1 cycle)
``shl/shr rd, ra, rb|imm`` — shifts (1 cycle)
``mul rd, ra, rb`` — multiply (3 cycles)
``lw rd, offset(ra)`` / ``sw rs, offset(ra)`` — load/store (2 cycles)
``li rd, imm`` — load immediate (1 cycle)
``mov rd, ra`` — register move (1 cycle)
``beq/bne/blt/bge ra, rb, label`` — branches (1 + 1 taken penalty)
``jmp label`` — unconditional jump (2 cycles)
``halt`` — stop execution
``nop``

Registers ``r0``..``r15``; ``r0`` reads as zero and ignores writes.
All arithmetic is modulo 2^32; ``blt/bge`` compare as signed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

MASK32 = 0xFFFFFFFF


class RiscError(Exception):
    """Assembly or execution error."""


def _signed(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    op: str
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    target: int = 0
    source_line: int = 0


#: Cycle cost per opcode (branch-taken penalty added at run time).
CYCLE_COSTS: Dict[str, int] = {
    "add": 1, "sub": 1, "and": 1, "or": 1, "xor": 1,
    "addi": 1, "subi": 1, "andi": 1, "ori": 1, "xori": 1,
    "shl": 1, "shr": 1, "shli": 1, "shri": 1,
    "mul": 3, "li": 1, "mov": 1,
    "lw": 2, "sw": 2,
    "beq": 1, "bne": 1, "blt": 1, "bge": 1,
    "jmp": 2, "halt": 1, "nop": 1,
}

_REG_RE = re.compile(r"^r(\d{1,2})$")
_MEM_RE = re.compile(r"^(-?\w+)\((r\d{1,2})\)$")
_LABEL_RE = re.compile(r"^([A-Za-z_]\w*):$")


class Assembler:
    """Two-pass assembler for the RISC ISA."""

    THREE_REG = {"add", "sub", "and", "or", "xor", "mul", "shl", "shr"}
    TWO_REG_IMM = {"addi", "subi", "andi", "ori", "xori", "shli", "shri"}
    BRANCHES = {"beq", "bne", "blt", "bge"}

    def assemble(self, source: str) -> List[Instruction]:
        """Assemble *source* text into an instruction list."""
        lines = self._clean(source)
        labels = self._collect_labels(lines)
        program: List[Instruction] = []
        for lineno, text in lines:
            if _LABEL_RE.match(text):
                continue
            program.append(self._parse(text, lineno, labels, len(program)))
        return program

    def _clean(self, source: str) -> List[Tuple[int, str]]:
        out = []
        for lineno, raw in enumerate(source.splitlines(), start=1):
            text = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if text:
                out.append((lineno, text))
        return out

    def _collect_labels(self, lines: List[Tuple[int, str]]) -> Dict[str, int]:
        labels: Dict[str, int] = {}
        pc = 0
        for lineno, text in lines:
            match = _LABEL_RE.match(text)
            if match:
                name = match.group(1)
                if name in labels:
                    raise RiscError(f"line {lineno}: duplicate label {name!r}")
                labels[name] = pc
            else:
                pc += 1
        return labels

    def _parse(
        self,
        text: str,
        lineno: int,
        labels: Dict[str, int],
        pc: int,
    ) -> Instruction:
        parts = text.replace(",", " ").split()
        op = parts[0].lower()
        args = parts[1:]
        try:
            if op in ("halt", "nop"):
                self._arity(op, args, 0, lineno)
                return Instruction(op=op, source_line=lineno)
            if op == "jmp":
                self._arity(op, args, 1, lineno)
                return Instruction(
                    op=op, target=self._label(args[0], labels, lineno),
                    source_line=lineno,
                )
            if op in self.BRANCHES:
                self._arity(op, args, 3, lineno)
                return Instruction(
                    op=op,
                    ra=self._reg(args[0], lineno),
                    rb=self._reg(args[1], lineno),
                    target=self._label(args[2], labels, lineno),
                    source_line=lineno,
                )
            if op == "li":
                self._arity(op, args, 2, lineno)
                return Instruction(
                    op=op, rd=self._reg(args[0], lineno),
                    imm=self._imm(args[1], lineno), source_line=lineno,
                )
            if op == "mov":
                self._arity(op, args, 2, lineno)
                return Instruction(
                    op=op, rd=self._reg(args[0], lineno),
                    ra=self._reg(args[1], lineno), source_line=lineno,
                )
            if op in ("lw", "sw"):
                self._arity(op, args, 2, lineno)
                match = _MEM_RE.match(args[1])
                if not match:
                    raise RiscError(
                        f"line {lineno}: bad memory operand {args[1]!r}"
                    )
                offset = self._imm(match.group(1), lineno)
                base = self._reg(match.group(2), lineno)
                return Instruction(
                    op=op, rd=self._reg(args[0], lineno),
                    ra=base, imm=offset, source_line=lineno,
                )
            if op in self.THREE_REG:
                self._arity(op, args, 3, lineno)
                # Allow immediate third operand for shifts: shl rd, ra, 3.
                if op in ("shl", "shr") and not _REG_RE.match(args[2]):
                    return Instruction(
                        op=op + "i",
                        rd=self._reg(args[0], lineno),
                        ra=self._reg(args[1], lineno),
                        imm=self._imm(args[2], lineno),
                        source_line=lineno,
                    )
                return Instruction(
                    op=op,
                    rd=self._reg(args[0], lineno),
                    ra=self._reg(args[1], lineno),
                    rb=self._reg(args[2], lineno),
                    source_line=lineno,
                )
            if op in self.TWO_REG_IMM:
                self._arity(op, args, 3, lineno)
                return Instruction(
                    op=op,
                    rd=self._reg(args[0], lineno),
                    ra=self._reg(args[1], lineno),
                    imm=self._imm(args[2], lineno),
                    source_line=lineno,
                )
        except RiscError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise RiscError(f"line {lineno}: {exc}") from exc
        raise RiscError(f"line {lineno}: unknown opcode {op!r}")

    def _arity(self, op: str, args: List[str], want: int, lineno: int) -> None:
        if len(args) != want:
            raise RiscError(
                f"line {lineno}: {op} expects {want} operands, got {len(args)}"
            )

    def _reg(self, token: str, lineno: int) -> int:
        match = _REG_RE.match(token.lower())
        if not match:
            raise RiscError(f"line {lineno}: expected register, got {token!r}")
        index = int(match.group(1))
        if not 0 <= index <= 15:
            raise RiscError(f"line {lineno}: register r{index} out of range")
        return index

    def _imm(self, token: str, lineno: int) -> int:
        try:
            return int(token, 0)
        except ValueError:
            raise RiscError(
                f"line {lineno}: expected immediate, got {token!r}"
            ) from None

    def _label(self, token: str, labels: Dict[str, int], lineno: int) -> int:
        if token not in labels:
            raise RiscError(f"line {lineno}: undefined label {token!r}")
        return labels[token]


def assemble(source: str) -> List[Instruction]:
    """Module-level convenience wrapper around :class:`Assembler`."""
    return Assembler().assemble(source)


@dataclass
class RiscCpu:
    """Executes an assembled program against a word-addressed memory.

    ``memory`` maps word addresses to 32-bit values.  ``run`` returns
    total cycles consumed, the figure the task models use.
    """

    program: List[Instruction]
    memory: Dict[int, int] = field(default_factory=dict)
    registers: List[int] = field(default_factory=lambda: [0] * 16)
    pc: int = 0
    cycles: int = 0
    instructions_retired: int = 0
    halted: bool = False
    branch_taken_penalty: int = 1

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Execute until ``halt`` or the instruction cap; returns cycles."""
        while not self.halted:
            if self.instructions_retired >= max_instructions:
                raise RiscError(
                    f"instruction cap {max_instructions} exceeded "
                    f"(infinite loop?) at pc={self.pc}"
                )
            self.step()
        return self.cycles

    def step(self) -> None:
        """Execute one instruction."""
        if self.halted:
            return
        if not 0 <= self.pc < len(self.program):
            raise RiscError(f"pc {self.pc} outside program")
        ins = self.program[self.pc]
        self.cycles += CYCLE_COSTS[ins.op]
        self.instructions_retired += 1
        next_pc = self.pc + 1
        regs = self.registers
        op = ins.op
        if op == "halt":
            self.halted = True
        elif op == "nop":
            pass
        elif op in ("add", "addi"):
            value = regs[ins.ra] + (regs[ins.rb] if op == "add" else ins.imm)
            self._write(ins.rd, value)
        elif op in ("sub", "subi"):
            value = regs[ins.ra] - (regs[ins.rb] if op == "sub" else ins.imm)
            self._write(ins.rd, value)
        elif op in ("and", "andi"):
            self._write(ins.rd, regs[ins.ra] & (regs[ins.rb] if op == "and" else ins.imm))
        elif op in ("or", "ori"):
            self._write(ins.rd, regs[ins.ra] | (regs[ins.rb] if op == "or" else ins.imm))
        elif op in ("xor", "xori"):
            self._write(ins.rd, regs[ins.ra] ^ (regs[ins.rb] if op == "xor" else ins.imm))
        elif op in ("shl", "shli"):
            amount = (regs[ins.rb] if op == "shl" else ins.imm) & 31
            self._write(ins.rd, regs[ins.ra] << amount)
        elif op in ("shr", "shri"):
            amount = (regs[ins.rb] if op == "shr" else ins.imm) & 31
            self._write(ins.rd, (regs[ins.ra] & MASK32) >> amount)
        elif op == "mul":
            self._write(ins.rd, regs[ins.ra] * regs[ins.rb])
        elif op == "li":
            self._write(ins.rd, ins.imm)
        elif op == "mov":
            self._write(ins.rd, regs[ins.ra])
        elif op == "lw":
            address = (regs[ins.ra] + ins.imm) & MASK32
            self._write(ins.rd, self.memory.get(address, 0))
        elif op == "sw":
            address = (regs[ins.ra] + ins.imm) & MASK32
            self.memory[address] = regs[ins.rd] & MASK32
        elif op in ("beq", "bne", "blt", "bge"):
            taken = self._branch_taken(op, regs[ins.ra], regs[ins.rb])
            if taken:
                self.cycles += self.branch_taken_penalty
                next_pc = ins.target
        elif op == "jmp":
            next_pc = ins.target
        else:  # pragma: no cover - decoder guarantees coverage
            raise RiscError(f"unimplemented opcode {op!r}")
        self.pc = next_pc

    def _branch_taken(self, op: str, a: int, b: int) -> bool:
        if op == "beq":
            return (a & MASK32) == (b & MASK32)
        if op == "bne":
            return (a & MASK32) != (b & MASK32)
        if op == "blt":
            return _signed(a) < _signed(b)
        return _signed(a) >= _signed(b)

    def _write(self, rd: int, value: int) -> None:
        if rd != 0:
            self.registers[rd] = value & MASK32
