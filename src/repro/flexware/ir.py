"""The FlexWare-lite intermediate representation.

Straight-line three-address code over an unbounded set of virtual
registers ("temps"), 32-bit unsigned semantics.  Enough to express the
inner loops the paper's domains care about (filters, checksums, address
arithmetic) while keeping code generation honest: real register
pressure, real spilling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

MASK32 = 0xFFFFFFFF

#: opcode -> (number of temp operands, has immediate)
OPCODES: Dict[str, Tuple[int, bool]] = {
    "const": (0, True),    # dst = imm
    "add": (2, False),
    "sub": (2, False),
    "mul": (2, False),
    "and": (2, False),
    "or": (2, False),
    "xor": (2, False),
    "shl": (1, True),      # dst = src << imm
    "shr": (1, True),
    "load": (1, False),    # dst = mem[src]  (word-addressed)
    "store": (2, False),   # mem[src0] = src1; dst unused
}


class IrError(ValueError):
    """Malformed IR."""


@dataclass(frozen=True)
class IrOp:
    """One three-address operation."""

    opcode: str
    dst: Optional[int]                 # destination temp (None for store)
    srcs: Tuple[int, ...] = ()
    imm: int = 0

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES:
            raise IrError(
                f"unknown opcode {self.opcode!r}; known: "
                f"{', '.join(sorted(OPCODES))}"
            )
        arity, _has_imm = OPCODES[self.opcode]
        if len(self.srcs) != arity:
            raise IrError(
                f"{self.opcode} takes {arity} sources, got {len(self.srcs)}"
            )
        if self.opcode == "store":
            if self.dst is not None:
                raise IrError("store has no destination")
        elif self.dst is None:
            raise IrError(f"{self.opcode} needs a destination temp")


@dataclass
class IrProgram:
    """A straight-line IR program.

    ``inputs`` lists temps that arrive pre-set from the caller;
    ``output`` is the temp whose final value the program returns.
    """

    ops: List[IrOp] = field(default_factory=list)
    inputs: List[int] = field(default_factory=list)
    output: Optional[int] = None
    _next_temp: int = 0

    # -- builder interface ---------------------------------------------------

    def new_input(self) -> int:
        temp = self._fresh()
        self.inputs.append(temp)
        return temp

    def emit(self, opcode: str, *srcs: int, imm: int = 0) -> int:
        """Append an op with a fresh destination; returns the dest temp."""
        dst = None if opcode == "store" else self._fresh()
        self.ops.append(IrOp(opcode, dst, tuple(srcs), imm))
        return dst if dst is not None else -1

    def set_output(self, temp: int) -> None:
        self.output = temp

    def _fresh(self) -> int:
        temp = self._next_temp
        self._next_temp += 1
        return temp

    # -- validation & analysis -----------------------------------------------

    def validate(self) -> None:
        """Check SSA-style def-before-use."""
        defined = set(self.inputs)
        for index, op in enumerate(self.ops):
            for src in op.srcs:
                if src not in defined:
                    raise IrError(
                        f"op {index} ({op.opcode}) uses undefined temp t{src}"
                    )
            if op.dst is not None:
                if op.dst in defined:
                    raise IrError(
                        f"op {index} redefines temp t{op.dst} (IR is SSA)"
                    )
                defined.add(op.dst)
        if self.output is not None and self.output not in defined:
            raise IrError(f"output temp t{self.output} never defined")

    def live_ranges(self) -> Dict[int, Tuple[int, int]]:
        """(definition index, last use index) per temp.

        Inputs are defined at -1; the output is kept live to the end.
        """
        ranges: Dict[int, Tuple[int, int]] = {
            temp: (-1, -1) for temp in self.inputs
        }
        for index, op in enumerate(self.ops):
            if op.dst is not None:
                ranges[op.dst] = (index, index)
            for src in op.srcs:
                start, _end = ranges[src]
                ranges[src] = (start, index)
        if self.output is not None and self.output in ranges:
            start, _end = ranges[self.output]
            ranges[self.output] = (start, len(self.ops))
        return ranges

    # -- reference semantics ---------------------------------------------------

    def evaluate(
        self,
        inputs: Dict[int, int],
        memory: Optional[Dict[int, int]] = None,
    ) -> int:
        """Reference interpreter; returns the output temp's value."""
        self.validate()
        if set(inputs) != set(self.inputs):
            raise IrError(
                f"inputs {sorted(inputs)} do not match declared "
                f"{sorted(self.inputs)}"
            )
        if self.output is None:
            raise IrError("program has no output temp")
        memory = memory if memory is not None else {}
        values: Dict[int, int] = {t: v & MASK32 for t, v in inputs.items()}
        for op in self.ops:
            values_in = [values[src] for src in op.srcs]
            if op.opcode == "const":
                result = op.imm
            elif op.opcode == "add":
                result = values_in[0] + values_in[1]
            elif op.opcode == "sub":
                result = values_in[0] - values_in[1]
            elif op.opcode == "mul":
                result = values_in[0] * values_in[1]
            elif op.opcode == "and":
                result = values_in[0] & values_in[1]
            elif op.opcode == "or":
                result = values_in[0] | values_in[1]
            elif op.opcode == "xor":
                result = values_in[0] ^ values_in[1]
            elif op.opcode == "shl":
                result = values_in[0] << (op.imm & 31)
            elif op.opcode == "shr":
                result = (values_in[0] & MASK32) >> (op.imm & 31)
            elif op.opcode == "load":
                result = memory.get(values_in[0] & MASK32, 0)
            elif op.opcode == "store":
                memory[values_in[0] & MASK32] = values_in[1] & MASK32
                continue
            else:  # pragma: no cover - OPCODES is closed
                raise IrError(f"unhandled opcode {op.opcode}")
            values[op.dst] = result & MASK32
        return values[self.output]


def fir_ir(taps: int) -> IrProgram:
    """Build a *taps*-tap FIR inner loop (unrolled): the MAC-heavy shape
    the DSP target fuses."""
    if taps < 1:
        raise IrError(f"need >=1 tap, got {taps}")
    program = IrProgram()
    sample_base = program.new_input()
    coeff_base = program.new_input()
    acc = program.emit("const", imm=0)
    for k in range(taps):
        s_addr = program.emit("add", sample_base, program.emit("const", imm=k))
        c_addr = program.emit("add", coeff_base, program.emit("const", imm=k))
        sample = program.emit("load", s_addr)
        coeff = program.emit("load", c_addr)
        product = program.emit("mul", sample, coeff)
        acc = program.emit("add", acc, product)
    program.set_output(acc)
    program.validate()
    return program
