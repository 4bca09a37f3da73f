"""Integration tests for the StepNP IPv4 experiment (E14)."""

import pytest

from repro.analysis.experiments import e14_ipv4_stepnp
from repro.apps import stepnp_ipv4
from repro.apps.stepnp_ipv4 import forwarding_inputs, run_ipv4_on_stepnp
from repro.dsoc.broker import ReplicaPolicy


@pytest.fixture(scope="module")
def mt_run():
    """The headline configuration: 16 PEs x 8 threads, 100+ cycle table."""
    return run_ipv4_on_stepnp(
        num_pes=16, threads_per_pe=8, packets=800, extra_table_latency=100.0
    )


@pytest.fixture(scope="module")
def st_run():
    """Single-threaded control."""
    return run_ipv4_on_stepnp(
        num_pes=16, threads_per_pe=1, packets=800, extra_table_latency=100.0
    )


class TestHeadlineResult:
    def test_line_rate_sustained_with_multithreading(self, mt_run):
        """Section 7.2: 10 Gbit line rate with >100-cycle NoC latency."""
        assert mt_run.line_rate_sustained
        assert mt_run.sustained_gbps > 9.0

    def test_near_full_utilization_with_multithreading(self, mt_run):
        assert mt_run.avg_pe_utilization > 0.85

    def test_single_thread_collapses(self, st_run):
        assert not st_run.line_rate_sustained
        assert st_run.sustained_gbps < 6.0
        assert st_run.avg_pe_utilization < 0.6

    def test_multithreading_beats_single_thread(self, mt_run, st_run):
        assert mt_run.sustained_gbps > 1.5 * st_run.sustained_gbps
        assert mt_run.avg_pe_utilization > 1.5 * st_run.avg_pe_utilization

    def test_packets_accounted(self, mt_run):
        """A reply the ingress holds was finished by a servant first,
        and both counts stop at the end of the line-rate window."""
        finished = mt_run.packets_forwarded + mt_run.packets_dropped
        assert 0 < mt_run.packets_processed <= finished
        assert finished <= mt_run.packets_offered

    def test_load_spread_across_pes(self, mt_run):
        """Round-robin should keep the slowest PE near the average."""
        assert mt_run.min_pe_utilization > 0.5 * mt_run.avg_pe_utilization


class TestSweep:
    def test_thread_sweep_monotone(self):
        results = [
            run_ipv4_on_stepnp(
                threads_per_pe=threads, packets=400,
                extra_table_latency=100.0,
            )
            for threads in (1, 4)
        ]
        assert results[0].sustained_gbps < results[1].sustained_gbps

    def test_shared_inputs_match_a_build_per_run(self):
        """E14's runs share one trie and trace; a run reads them only,
        so each result equals the run that builds its own."""
        inputs = forwarding_inputs(packets=300)
        for threads in (1, 4):
            shared = run_ipv4_on_stepnp(
                threads_per_pe=threads, packets=300,
                extra_table_latency=100.0, inputs=inputs,
            )
            own = run_ipv4_on_stepnp(
                threads_per_pe=threads, packets=300,
                extra_table_latency=100.0,
            )
            assert shared == own

    def test_e14_builds_its_table_once(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        real = stepnp_ipv4.random_prefix_table
        monkeypatch.setattr(stepnp_ipv4, "random_prefix_table", counting)
        result = e14_ipv4_stepnp(thread_counts=(1, 2, 4), packets=100)
        assert len(result["rows"]) == 3
        assert len(built) == 1

    def test_latency_hurts_single_thread_only(self):
        low_lat = run_ipv4_on_stepnp(
            num_pes=16, threads_per_pe=1, packets=400, extra_table_latency=0.0
        )
        high_lat = run_ipv4_on_stepnp(
            num_pes=16, threads_per_pe=1, packets=400,
            extra_table_latency=150.0,
        )
        assert high_lat.sustained_gbps < low_lat.sustained_gbps

    def test_shortest_queue_policy_close_to_round_robin(self):
        """Under perfectly symmetric deterministic load, strict round
        robin is optimal; shortest-queue must stay close (it wins when
        service times vary, which this trace's do only mildly)."""
        result = run_ipv4_on_stepnp(
            num_pes=16,
            threads_per_pe=8,
            packets=400,
            extra_table_latency=100.0,
            policy=ReplicaPolicy.SHORTEST_QUEUE,
        )
        assert result.sustained_gbps > 8.0
        assert result.avg_pe_utilization > 0.8

    def test_mesh_topology_also_works(self):
        """The harness runs on any topology; the mesh's longer average
        hop count costs a little throughput vs the SPIN fat tree."""
        result = run_ipv4_on_stepnp(
            num_pes=16, threads_per_pe=8, packets=400,
            extra_table_latency=50.0, topology="mesh",
        )
        assert result.sustained_gbps > 8.0
        assert result.avg_pe_utilization > 0.8

    def test_as_row_fields(self):
        result = run_ipv4_on_stepnp(num_pes=4, threads_per_pe=2, packets=100)
        row = result.as_row()
        assert {"pes", "threads", "offered_gbps", "sustained_gbps",
                "utilization", "line_rate"} <= set(row)


class TestScaling:
    def test_fewer_pes_cannot_sustain(self):
        """4 PEs cannot absorb 240 cycles/packet at 16-cycle arrivals."""
        result = run_ipv4_on_stepnp(
            num_pes=4, threads_per_pe=8, packets=400,
            extra_table_latency=100.0,
        )
        assert not result.line_rate_sustained
        assert result.avg_pe_utilization > 0.9  # saturated, not idle

    def test_half_line_rate_easy_for_16_pes(self):
        result = run_ipv4_on_stepnp(
            num_pes=16, threads_per_pe=8, packets=400,
            line_rate_gbps=5.0, extra_table_latency=100.0,
        )
        assert result.line_rate_sustained
        assert result.avg_pe_utilization < 0.6
