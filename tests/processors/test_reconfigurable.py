"""Unit tests for the reconfigurable processor (Section 8's 1-GOPS IC)."""

import pytest

from repro.processors.efpga import EfpgaFabric
from repro.processors.reconfigurable import (
    STANDARD_EXTENSIONS,
    CustomInstruction,
    ExtendedAssembler,
    ReconfigurableCpu,
    gops_estimate,
    run_extended,
)
from repro.processors.risc import RiscError


class TestExtendedAssembler:
    def test_xop_parsed(self):
        program = ExtendedAssembler().assemble("xop0 r1, r2, r3\nhalt")
        assert program[0].op == "xop0"
        assert (program[0].rd, program[0].ra, program[0].rb) == (1, 2, 3)

    def test_slot_range_checked(self):
        with pytest.raises(RiscError, match="slot"):
            ExtendedAssembler().assemble("xop9 r1, r2, r3\nhalt")

    def test_base_isa_still_works(self):
        program = ExtendedAssembler().assemble("add r1, r2, r3\nhalt")
        assert program[0].op == "add"

    def test_arity_checked(self):
        with pytest.raises(RiscError):
            ExtendedAssembler().assemble("xop0 r1, r2\nhalt")


class TestConfiguration:
    def test_configure_claims_fabric(self):
        fabric = EfpgaFabric(luts=4_000)
        cpu = ReconfigurableCpu(
            program=ExtendedAssembler().assemble("halt"), fabric=fabric
        )
        cpu.configure(0, STANDARD_EXTENSIONS["mac16"])
        assert fabric.luts_used > 0
        assert set(fabric.mapped) == {"xop0:mac16"}

    def test_fabric_capacity_limits_extensions(self):
        fabric = EfpgaFabric(luts=500)  # too small for mac16's 9000 gates
        cpu = ReconfigurableCpu(
            program=ExtendedAssembler().assemble("halt"), fabric=fabric
        )
        with pytest.raises(ValueError, match="LUT"):
            cpu.configure(0, STANDARD_EXTENSIONS["mac16"])

    def test_double_configure_rejected(self):
        cpu = ReconfigurableCpu(program=ExtendedAssembler().assemble("halt"))
        cpu.configure(0, STANDARD_EXTENSIONS["bitrev8"])
        with pytest.raises(RiscError, match="already"):
            cpu.configure(0, STANDARD_EXTENSIONS["mac16"])

    def test_unconfigure_frees_fabric(self):
        fabric = EfpgaFabric(luts=4_000)
        cpu = ReconfigurableCpu(
            program=ExtendedAssembler().assemble("halt"), fabric=fabric
        )
        cpu.configure(0, STANDARD_EXTENSIONS["mac16"])
        cpu.unconfigure(0)
        assert fabric.luts_used == 0
        with pytest.raises(RiscError):
            cpu.unconfigure(0)

    def test_runtime_reconfiguration(self):
        """The paper's 'run-time changes to the architecture': swap the
        datapath in one slot between two kernels."""
        fabric = EfpgaFabric(luts=2_000)
        cpu = ReconfigurableCpu(
            program=ExtendedAssembler().assemble("halt"), fabric=fabric
        )
        cpu.configure(0, STANDARD_EXTENSIONS["bitrev8"])
        cpu.unconfigure(0)
        cpu.configure(0, STANDARD_EXTENSIONS["sad8"])
        assert set(fabric.mapped) == {"xop0:sad8"}
        assert cpu.reconfigurations == 2


class TestExecution:
    def test_unconfigured_slot_traps(self):
        cpu = ReconfigurableCpu(
            program=ExtendedAssembler().assemble("xop3 r1, r2, r3\nhalt")
        )
        with pytest.raises(RiscError, match="unconfigured"):
            cpu.run()

    def test_mac16_semantics(self):
        cpu = run_extended(
            """
            li r1, 0x00020003   # hi=2 lo=3
            li r2, 0x00040005   # hi=4 lo=5
            xop0 r3, r1, r2     # 3*5 + 2*4 = 23
            halt
            """,
            {0: STANDARD_EXTENSIONS["mac16"]},
        )
        assert cpu.registers[3] == 23

    def test_sad8_semantics(self):
        cpu = run_extended(
            """
            li r1, 0x10203040
            li r2, 0x0F213F42
            xop1 r3, r1, r2
            halt
            """,
            {1: STANDARD_EXTENSIONS["sad8"]},
        )
        # |0x10-0x0F| + |0x20-0x21| + |0x30-0x3F| + |0x40-0x42| = 1+1+15+2
        assert cpu.registers[3] == 19

    def test_bitrev8(self):
        cpu = run_extended(
            "li r1, 0x01\nxop0 r2, r1, r0\nhalt",
            {0: STANDARD_EXTENSIONS["bitrev8"]},
        )
        assert cpu.registers[2] == 0x80

    def test_crc_step_matches_reference(self):
        import zlib

        cpu = run_extended(
            """
            li r1, 0xFFFFFFFF
            li r2, 0x61          # 'a'
            xop0 r1, r1, r2
            halt
            """,
            {0: STANDARD_EXTENSIONS["crc_step"]},
        )
        assert cpu.registers[1] == (zlib.crc32(b"a") ^ 0xFFFFFFFF)

    def test_xop_cycle_cost(self):
        ext = STANDARD_EXTENSIONS["mac16"]  # 2 cycles
        cpu = run_extended(
            "li r1, 1\nli r2, 1\nxop0 r3, r1, r2\nhalt",
            {0: ext},
        )
        assert cpu.cycles == 1 + 1 + 2 + 1

    def test_r0_write_ignored(self):
        cpu = run_extended(
            "li r1, 3\nxop0 r0, r1, r1\nhalt",
            {0: STANDARD_EXTENSIONS["mac16"]},
        )
        assert cpu.registers[0] == 0


class TestGops:
    def test_extension_multiplies_throughput(self):
        """A MAC-16 loop with the extension vs the same work in base ISA:
        the extension must yield several-fold fewer cycles."""
        with_ext = run_extended(
            """
            li r1, 0x00020003
            li r2, 0x00040005
            li r4, 100
        loop:
            xop0 r3, r1, r2
            subi r4, r4, 1
            bne r4, r0, loop
            halt
            """,
            {0: STANDARD_EXTENSIONS["mac16"]},
        )
        base = run_extended(
            """
            li r1, 0x00020003
            li r2, 0x00040005
            li r4, 100
        loop:
            andi r5, r1, 0xFFFF
            andi r6, r2, 0xFFFF
            mul r7, r5, r6
            shri r5, r1, 16
            shri r6, r2, 16
            mul r8, r5, r6
            add r3, r7, r8
            subi r4, r4, 1
            bne r4, r0, loop
            halt
            """,
            {},
        )
        assert with_ext.registers[3] == base.registers[3] == 23
        assert base.cycles > 2.5 * with_ext.cycles

    def test_gops_estimate_reaches_paper_regime(self):
        """The paper's Section 8 IC claims 1 GOPS: a 0.18um RISC plus
        eFPGA extensions.  An unrolled SAD loop (16-op pattern per xop)
        at 200 MHz must land in that regime; the base ISA manages only
        ~0.15 GOPS."""
        cpu = run_extended(
            """
            li r1, 0x10203040
            li r2, 0x0F213F42
            li r4, 100
        loop:
            xop0 r3, r1, r2
            xop0 r5, r1, r2
            xop0 r6, r1, r2
            xop0 r7, r1, r2
            subi r4, r4, 1
            bne r4, r0, loop
            halt
            """,
            {0: STANDARD_EXTENSIONS["sad8"]},
        )
        gops = gops_estimate(cpu, clock_mhz=200.0)
        assert gops > 0.9

    def test_effective_ops_accounting(self):
        ext = STANDARD_EXTENSIONS["sad8"]  # replaces 16 instructions
        cpu = run_extended(
            "li r1, 1\nli r2, 2\nxop0 r3, r1, r2\nhalt",
            {0: ext},
        )
        # 3 base instructions (li, li, halt) + 16 equivalents for the xop.
        assert cpu.effective_ops_retired() == 3 + 16

    def test_custom_instruction_validation(self):
        with pytest.raises(ValueError):
            CustomInstruction("bad", lambda a, b: 0, replaces_instructions=0,
                              gates=100)
        with pytest.raises(ValueError):
            CustomInstruction("bad", lambda a, b: 0, replaces_instructions=1,
                              gates=0)
