"""Unit tests for the TLM layer."""

import pytest

from repro.sim.core import Simulator
from repro.tlm.bus import AddressMap, TlmBus, TlmMemory
from repro.tlm.compare import compare_abstractions, quantum_sweep
from repro.tlm.payload import GenericPayload, ResponseStatus, TlmCommand
from repro.tlm.quantum import QuantumKeeper


class TestPayload:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenericPayload(TlmCommand.READ, address=-1)
        with pytest.raises(ValueError):
            GenericPayload(TlmCommand.READ, address=0, length=0)
        with pytest.raises(ValueError):
            GenericPayload(TlmCommand.WRITE, address=0, data=b"xy", length=4)

    def test_starts_incomplete(self):
        payload = GenericPayload(TlmCommand.READ, address=0)
        assert payload.status is ResponseStatus.INCOMPLETE


class TestMemoryTarget:
    def test_write_read_roundtrip(self):
        memory = TlmMemory("m", size=256)
        address_map = AddressMap()
        address_map.add(0, 256, memory)
        bus = TlmBus(address_map)
        write = GenericPayload(TlmCommand.WRITE, 16, data=b"\xde\xad\xbe\xef")
        bus.b_transport(write)
        assert write.status is ResponseStatus.OK
        read = GenericPayload(TlmCommand.READ, 16, length=4)
        bus.b_transport(read)
        assert read.data == b"\xde\xad\xbe\xef"

    def test_unwritten_reads_zero(self):
        memory = TlmMemory("m", size=64)
        assert memory._read(0, 4) == b"\x00\x00\x00\x00"

    def test_transaction_counter(self):
        memory = TlmMemory("m", size=64)
        memory.b_transport(GenericPayload(TlmCommand.READ, 0), 0)
        assert memory.transactions == 1


class TestAddressMap:
    def test_decode_offsets(self):
        a = TlmMemory("a", 0x100)
        b = TlmMemory("b", 0x100)
        address_map = AddressMap()
        address_map.add(0x000, 0x100, a)
        address_map.add(0x100, 0x100, b)
        target, offset = address_map.decode(0x180)
        assert target is b
        assert offset == 0x80

    def test_unmapped_returns_none(self):
        address_map = AddressMap()
        address_map.add(0x100, 0x100, TlmMemory("a", 0x100))
        assert address_map.decode(0x50) is None

    def test_overlap_rejected(self):
        address_map = AddressMap()
        address_map.add(0x000, 0x200, TlmMemory("a", 0x200))
        with pytest.raises(ValueError, match="overlaps"):
            address_map.add(0x100, 0x100, TlmMemory("b", 0x100))

    def test_address_error_status(self):
        address_map = AddressMap()
        bus = TlmBus(address_map)
        payload = GenericPayload(TlmCommand.READ, 0x9999)
        bus.b_transport(payload)
        assert payload.status is ResponseStatus.ADDRESS_ERROR


class TestTimingAnnotation:
    def test_delay_components(self):
        memory = TlmMemory("m", 256, access_delay=10.0)
        address_map = AddressMap()
        address_map.add(0, 256, memory)
        bus = TlmBus(address_map, arbitration_delay=2.0, bytes_per_cycle=8.0)
        payload = GenericPayload(TlmCommand.READ, 0, length=16)
        delay = bus.b_transport(payload)
        assert delay == pytest.approx(2.0 + 16 / 8.0 + 10.0)

    def test_longer_transfers_cost_more(self):
        memory = TlmMemory("m", 256)
        address_map = AddressMap()
        address_map.add(0, 256, memory)
        bus = TlmBus(address_map)
        short = bus.b_transport(GenericPayload(TlmCommand.READ, 0, length=4))
        long = bus.b_transport(GenericPayload(TlmCommand.READ, 0, length=64))
        assert long > short


class TestQuantumKeeper:
    def test_quantum_validation(self):
        with pytest.raises(ValueError):
            QuantumKeeper(Simulator(), 0.0)

    def test_accumulates_locally_without_kernel(self):
        sim = Simulator()
        keeper = QuantumKeeper(sim, quantum=100.0)
        keeper.add(30.0)
        keeper.add(30.0)
        assert sim.now == 0.0
        assert not keeper.need_sync()
        keeper.add(40.0)  # 60 already held locally: now at the quantum
        assert keeper.need_sync()

    def test_sync_reconciles_kernel_time(self):
        sim = Simulator()
        keeper = QuantumKeeper(sim, quantum=50.0)

        def proc():
            keeper.add(75.0)
            yield from keeper.maybe_sync()

        sim.spawn(proc())
        sim.run()
        assert sim.now == 75.0
        assert not keeper.need_sync()
        assert keeper.sync_count == 1

    def test_flush_handles_remainder(self):
        sim = Simulator()
        keeper = QuantumKeeper(sim, quantum=1000.0)

        def proc():
            keeper.add(10.0)
            yield from keeper.flush()

        sim.spawn(proc())
        sim.run()
        assert sim.now == 10.0

    def test_bigger_quantum_fewer_syncs(self):
        def syncs(quantum):
            sim = Simulator()
            keeper = QuantumKeeper(sim, quantum)

            def proc():
                for _ in range(100):
                    keeper.add(10.0)
                    yield from keeper.maybe_sync()
                yield from keeper.flush()

            sim.spawn(proc())
            sim.run()
            return keeper.sync_count

        assert syncs(10.0) > syncs(1000.0)


class TestCompare:
    def test_tlm_uses_far_fewer_events(self):
        """The paper's [10] claim: TLM 'increases the simulation speed'."""
        comparison = compare_abstractions(transactions=100, quantum=1000.0)
        assert comparison.event_ratio > 10.0

    def test_timing_error_bounded(self):
        """LT annotation tracks the cycle model within ~50% end to end
        (the abstractions count different mechanisms, but the totals
        must be the same order)."""
        comparison = compare_abstractions(transactions=100, quantum=1000.0)
        assert comparison.timing_error < 0.5

    def test_quantum_sweep_monotone_events(self):
        rows = quantum_sweep(quanta=(10.0, 1000.0), transactions=50)
        assert rows[0]["tlm_events"] > rows[1]["tlm_events"]
        # Final-time error does not depend on quantum (LT is conservative
        # about total accumulated delay).
        assert rows[0]["timing_error"] == pytest.approx(
            rows[1]["timing_error"], abs=0.01
        )

    def test_transaction_validation(self):
        with pytest.raises(ValueError):
            compare_abstractions(transactions=0)
