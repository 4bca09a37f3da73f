"""Unit tests for the platform layer (spec, FPPA builder, StepNP)."""

import pytest

from repro.noc.topology import TopologyKind
from repro.platform.fppa import build_platform
from repro.platform.spec import IoSpec, MemorySpec, PeSpec, PlatformSpec
from repro.platform.stepnp import STEPNP_LARGE, STEPNP_SMALL, stepnp_spec
from repro.processors.classes import ProcessorKind
from repro.sim.core import Timeout


class TestSpecs:
    def test_pe_spec_validation(self):
        with pytest.raises(ValueError):
            PeSpec(ProcessorKind.DSP, count=0)
        with pytest.raises(ValueError):
            PeSpec(ProcessorKind.DSP, count=1, threads=0)
        with pytest.raises(ValueError):
            PeSpec(ProcessorKind.DSP, count=1, clock_ghz=0.0)

    def test_memory_spec_validation(self):
        with pytest.raises(ValueError, match="technology"):
            MemorySpec(technology="dram9000", capacity_mb=1.0)
        with pytest.raises(ValueError):
            MemorySpec(technology="esram", capacity_mb=0.0)

    def test_io_spec_validation(self):
        with pytest.raises(ValueError, match="family"):
            IoSpec(family="warp_bus")

    def test_empty_platform_rejected(self):
        spec = PlatformSpec(name="empty")
        with pytest.raises(ValueError, match="no processors"):
            spec.validate()

    def test_terminal_count(self):
        spec = stepnp_spec(num_pes=8, threads=4)
        # 8 PEs + 2 memories + 1 hwip + 1 io + 1 efpga
        assert spec.num_terminals() == 13

    def test_transistor_rollup_positive(self):
        assert stepnp_spec().logic_transistors() > 1e6

    def test_summary_fields(self):
        summary = stepnp_spec(num_pes=16, threads=8).summary()
        assert summary["processors"] == 16
        assert summary["hardware_threads"] == 128


class TestStepnpConfigs:
    def test_small_is_half_dozen(self):
        """'Current generation platforms ... already include over a
        half-dozen processors.'"""
        assert STEPNP_SMALL.num_pes() == 6

    def test_large_is_16x8(self):
        assert STEPNP_LARGE.num_pes() == 16
        assert STEPNP_LARGE.total_threads() == 128

    def test_scales_to_hundreds_of_threads(self):
        """Section 6: 'MP-SoC platforms will include ten to hundreds of
        embedded processors.'"""
        spec = stepnp_spec(num_pes=128, threads=4)
        assert spec.num_pes() == 128
        assert spec.total_threads() == 512

    def test_topology_by_string(self):
        spec = stepnp_spec(topology="mesh")
        assert spec.topology is TopologyKind.MESH

    def test_pe_count_validation(self):
        with pytest.raises(ValueError):
            stepnp_spec(num_pes=0)


class TestBuildPlatform:
    def test_component_bindings_created(self):
        platform = build_platform(stepnp_spec(num_pes=8, threads=4))
        assert len(platform.pes) == 8
        assert len(platform.memories) == 2
        assert "viterbi_decoder" in platform.hw_ip_slaves
        assert len(platform.line_interfaces) == 1
        assert platform.efpga is not None

    def test_terminals_unique(self):
        platform = build_platform(stepnp_spec(num_pes=8))
        terminals = [b.terminal for b in platform.pes] + [
            b.terminal for b in platform.memories
        ]
        assert len(terminals) == len(set(terminals))

    def test_memory_terminal_lookup(self):
        platform = build_platform(stepnp_spec(num_pes=4))
        assert platform.memory_terminal("esram") >= 4
        with pytest.raises(ValueError):
            platform.memory_terminal("eflash")

    def test_pe_memory_transaction_runs(self):
        platform = build_platform(stepnp_spec(num_pes=4, threads=2))
        target = platform.memory_terminal("esram")
        binding = platform.pes[0]
        out = []

        def thread_body(ctx):
            yield from ctx.compute(5)
            value = yield from ctx.remote(binding.master.read(target, 0x10))
            out.append(value)

        binding.pe.spawn_thread(thread_body)
        platform.run(until=10_000)
        assert out == [None]  # unwritten address reads None, roundtrip worked

    def test_utilization_zero_when_idle(self):
        platform = build_platform(stepnp_spec(num_pes=4))
        platform.run(until=100)
        assert platform.average_pe_utilization() == 0.0

    def test_mesh_platform_builds(self):
        platform = build_platform(stepnp_spec(num_pes=6, topology="mesh"))
        assert platform.topology.kind is TopologyKind.MESH
