"""Unit tests for the RISC ISS and assembler."""

import pytest

from repro.processors.risc import (
    Assembler,
    RiscCpu,
    RiscError,
    assemble,
)


class TestAssembler:
    def test_comments_and_blanks_ignored(self):
        program = assemble(
            """
            # a comment
            li r1, 5   ; trailing comment

            halt
            """
        )
        assert len(program) == 2

    def test_labels_resolve(self):
        program = assemble(
            """
            jmp end
            li r1, 1
        end:
            halt
            """
        )
        assert program[0].target == 2

    def test_duplicate_label_rejected(self):
        with pytest.raises(RiscError, match="duplicate"):
            assemble("x:\nnop\nx:\nhalt")

    def test_undefined_label_rejected(self):
        with pytest.raises(RiscError, match="undefined"):
            assemble("jmp nowhere\nhalt")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(RiscError, match="unknown opcode"):
            assemble("frobnicate r1, r2, r3")

    def test_bad_register_rejected(self):
        with pytest.raises(RiscError, match="register"):
            assemble("li r16, 1")

    def test_arity_checked(self):
        with pytest.raises(RiscError, match="expects"):
            assemble("add r1, r2")

    def test_memory_operand_parsed(self):
        program = assemble("lw r1, 8(r2)\nhalt")
        assert program[0].imm == 8
        assert program[0].ra == 2

    def test_bad_memory_operand(self):
        with pytest.raises(RiscError, match="memory operand"):
            assemble("lw r1, r2")

    def test_hex_immediates(self):
        program = assemble("li r1, 0xFF\nhalt")
        assert program[0].imm == 255

    def test_shift_immediate_form(self):
        program = assemble("shl r1, r2, 3\nhalt")
        assert program[0].op == "shli"


class TestArithmetic:
    def test_add(self):
        cpu = RiscCpu(
            program=assemble("li r1, 3\nli r2, 4\nadd r3, r1, r2\nhalt")
        )
        cpu.run()
        assert cpu.registers[3] == 7

    def test_sub_wraps_unsigned(self):
        cpu = RiscCpu(program=assemble("li r1, 0\nsubi r2, r1, 1\nhalt"))
        cpu.run()
        assert cpu.registers[2] == 0xFFFFFFFF

    def test_mul(self):
        cpu = RiscCpu(
            program=assemble("li r1, 6\nli r2, 7\nmul r3, r1, r2\nhalt")
        )
        cpu.run()
        assert cpu.registers[3] == 42

    def test_mul_wraps_32bit(self):
        cpu = RiscCpu(program=assemble("li r1, 0x10000\nmul r2, r1, r1\nhalt"))
        cpu.run()
        assert cpu.registers[2] == 0

    def test_logic_ops(self):
        cpu = RiscCpu(program=assemble(
            """
            li r1, 0b1100
            li r2, 0b1010
            and r3, r1, r2
            or r4, r1, r2
            xor r5, r1, r2
            halt
            """)
        )
        cpu.run()
        assert cpu.registers[3] == 0b1000
        assert cpu.registers[4] == 0b1110
        assert cpu.registers[5] == 0b0110

    def test_shifts(self):
        cpu = RiscCpu(program=assemble(
            "li r1, 0x80000000\nshri r2, r1, 31\nshli r3, r2, 4\nhalt")
        )
        cpu.run()
        assert cpu.registers[2] == 1
        assert cpu.registers[3] == 16

    def test_r0_always_zero(self):
        cpu = RiscCpu(program=assemble("li r0, 99\nadd r1, r0, r0\nhalt"))
        cpu.run()
        assert cpu.registers[0] == 0
        assert cpu.registers[1] == 0

    def test_mov(self):
        cpu = RiscCpu(program=assemble("li r1, 13\nmov r2, r1\nhalt"))
        cpu.run()
        assert cpu.registers[2] == 13


class TestMemory:
    def test_store_load_roundtrip(self):
        cpu = RiscCpu(program=assemble(
            "li r1, 0x1000\nli r2, 77\nsw r2, 0(r1)\nlw r3, 0(r1)\nhalt")
        )
        cpu.run()
        assert cpu.registers[3] == 77

    def test_offset_addressing(self):
        cpu = RiscCpu(program=assemble(
            "li r1, 100\nli r2, 5\nsw r2, 8(r1)\nlw r3, 8(r1)\nhalt")
        )
        cpu.run()
        assert cpu.memory[108] == 5
        assert cpu.registers[3] == 5

    def test_uninitialized_memory_reads_zero(self):
        cpu = RiscCpu(program=assemble("lw r1, 0(r0)\nhalt"))
        cpu.run()
        assert cpu.registers[1] == 0

    def test_preloaded_memory(self):
        cpu = RiscCpu(
            program=assemble("li r1, 4\nlw r2, 0(r1)\nhalt"),
            memory={4: 1234},
        )
        cpu.run()
        assert cpu.registers[2] == 1234


class TestControlFlow:
    def test_loop_sums_1_to_10(self):
        cpu = RiscCpu(program=assemble(
            """
            li r1, 10
            li r2, 0
        loop:
            add r2, r2, r1
            subi r1, r1, 1
            bne r1, r0, loop
            halt
            """)
        )
        cpu.run()
        assert cpu.registers[2] == 55

    def test_beq_taken(self):
        cpu = RiscCpu(program=assemble(
            "li r1, 5\nli r2, 5\nbeq r1, r2, skip\nli r3, 1\nskip:\nhalt")
        )
        cpu.run()
        assert cpu.registers[3] == 0

    def test_blt_signed_comparison(self):
        # -1 < 1 as signed even though 0xFFFFFFFF > 1 unsigned.
        cpu = RiscCpu(program=assemble(
            """
            li r1, 0
            subi r1, r1, 1
            li r2, 1
            blt r1, r2, neg
            li r3, 0
            jmp end
        neg:
            li r3, 1
        end:
            halt
            """)
        )
        cpu.run()
        assert cpu.registers[3] == 1

    def test_bge(self):
        cpu = RiscCpu(program=assemble(
            "li r1, 5\nli r2, 5\nbge r1, r2, ok\nli r3, 9\nok:\nhalt")
        )
        cpu.run()
        assert cpu.registers[3] == 0

    def test_infinite_loop_detected(self):
        cpu = RiscCpu(program=assemble("loop:\njmp loop"))
        with pytest.raises(RiscError, match="cap"):
            cpu.run(max_instructions=100)


class TestCycleAccounting:
    def test_load_costs_two_cycles(self):
        cpu = RiscCpu(program=assemble("lw r1, 0(r0)\nhalt"))
        cpu.run()
        assert cpu.cycles == 2 + 1

    def test_taken_branch_penalty(self):
        taken = RiscCpu(program=assemble("li r1, 1\nbeq r1, r1, t\nt:\nhalt"))
        taken.run()
        not_taken = RiscCpu(
            program=assemble("li r1, 1\nbne r1, r1, t\nt:\nhalt")
        )
        not_taken.run()
        assert taken.cycles == not_taken.cycles + 1

    def test_memory_ops_take_more_than_a_cycle_each(self):
        cpu = RiscCpu(program=assemble("lw r1, 0(r0)\nsw r1, 4(r0)\nhalt"))
        cpu.run()
        assert cpu.cycles > cpu.instructions_retired


class TestRealKernels:
    def test_checksum_like_accumulation(self):
        """A word-sum kernel like the IPv4 checksum inner loop."""
        memory = {i * 4: (i + 1) * 0x1111 for i in range(5)}
        cpu = RiscCpu(program=assemble(
            """
            li r1, 0      # address
            li r2, 5      # count
            li r3, 0      # sum
        loop:
            lw r4, 0(r1)
            add r3, r3, r4
            addi r1, r1, 4
            subi r2, r2, 1
            bne r2, r0, loop
            halt
            """),
            memory=memory,
        )
        cpu.run()
        assert cpu.registers[3] == sum(memory.values())

    def test_fibonacci(self):
        cpu = RiscCpu(program=assemble(
            """
            li r1, 0
            li r2, 1
            li r3, 10
        loop:
            add r4, r1, r2
            mov r1, r2
            mov r2, r4
            subi r3, r3, 1
            bne r3, r0, loop
            halt
            """)
        )
        cpu.run()
        assert cpu.registers[1] == 55  # fib(10)

    def test_table_walk_like_trie_lookup(self):
        """Pointer chasing like the NPSE trie walk."""
        memory = {100: 200, 200: 300, 300: 0xABCD}
        cpu = RiscCpu(program=assemble(
            """
            li r1, 100
            lw r1, 0(r1)
            lw r1, 0(r1)
            lw r1, 0(r1)
            halt
            """),
            memory=memory,
        )
        cpu.run()
        assert cpu.registers[1] == 0xABCD
