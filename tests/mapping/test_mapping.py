"""Unit tests for task graphs, mappers, evaluation and annealing."""

import pytest

from repro.mapping.anneal import anneal_map
from repro.mapping.dse import (
    DesignPoint,
    explore,
    make_platform_model,
    pareto_points,
)
from repro.mapping.evaluate import evaluate_mapping
from repro.noc.routing import cached_routing
from repro.mapping.mapper import (
    MAPPERS,
    communication_aware_map,
    greedy_load_balance_map,
    random_map,
    round_robin_map,
    run_mapper,
)
from repro.mapping.taskgraph import (
    Task,
    TaskGraph,
    layered_random_graph,
)
from repro.noc.topology import TopologyKind


class TestTaskGraph:
    def test_duplicate_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", 100))
        with pytest.raises(ValueError, match="duplicate"):
            graph.add_task(Task("a", 100))

    def test_edge_to_unknown_task_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", 100))
        with pytest.raises(ValueError, match="unknown"):
            graph.add_edge("a", "ghost", 10)

    def test_self_edge_rejected(self):
        graph = TaskGraph()
        graph.add_task(Task("a", 100))
        with pytest.raises(ValueError, match="self"):
            graph.add_edge("a", "a", 10)

    def test_cycle_rejected_and_rolled_back(self):
        graph = TaskGraph()
        for name in "abc":
            graph.add_task(Task(name, 100))
        graph.add_edge("a", "b", 1)
        graph.add_edge("b", "c", 1)
        with pytest.raises(ValueError, match="cycle"):
            graph.add_edge("c", "a", 1)
        # Rolled back: graph still usable and acyclic.
        assert ("c", "a") not in graph.edges
        assert len(graph.topological_order()) == 3

    def test_topological_order_respects_edges(self):
        graph = layered_random_graph(40, layers=4, seed=2)
        order = {name: i for i, name in enumerate(graph.topological_order())}
        for (src, dst) in graph.edges:
            assert order[src] < order[dst]

    def test_critical_path_bounds_makespan_from_below(self):
        graph = TaskGraph()
        for name in "abcde":
            graph.add_task(Task(name, 100))
        for src, dst in zip("abcd", "bcde"):
            graph.add_edge(src, dst, 256)
        assert graph.critical_path_cycles() == pytest.approx(500.0)

    def test_affinity_speedup(self):
        task = Task("t", 1000, (("dsp", 4.0),))
        assert task.cycles_on("dsp") == pytest.approx(250.0)
        assert task.cycles_on("gp_risc") == pytest.approx(1000.0)

    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Task("t", -1)


class TestGenerators:
    def test_layered_random_is_dag_and_deterministic(self):
        a = layered_random_graph(30, seed=9)
        b = layered_random_graph(30, seed=9)
        assert set(a.edges) == set(b.edges)
        assert len(a.topological_order()) == 30

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            layered_random_graph(3, layers=5)


class TestMappers:
    @pytest.fixture
    def setup(self):
        graph = layered_random_graph(50, layers=5, seed=4)
        platform = make_platform_model(8, "mesh", dsp_fraction=0.25)
        return graph, platform

    @pytest.mark.parametrize("name", sorted(MAPPERS))
    def test_mapper_produces_valid_mapping(self, setup, name):
        graph, platform = setup
        mapping = run_mapper(name, graph, platform)
        assert set(mapping) == set(graph.tasks)
        assert all(0 <= pe < platform.num_pes for pe in mapping.values())

    def test_unknown_mapper_rejected(self, setup):
        graph, platform = setup
        with pytest.raises(KeyError):
            run_mapper("quantum", graph, platform)

    def test_round_robin_balanced_count(self, setup):
        graph, platform = setup
        mapping = round_robin_map(graph, platform)
        counts = [0] * platform.num_pes
        for pe in mapping.values():
            counts[pe] += 1
        assert max(counts) - min(counts) <= 1

    def test_greedy_balances_load_better_than_random(self, setup):
        graph, platform = setup
        routing = cached_routing(platform.topology)
        greedy = evaluate_mapping(
            graph, platform, greedy_load_balance_map(graph, platform), routing
        )
        rand = evaluate_mapping(
            graph, platform, random_map(graph, platform), routing
        )
        assert greedy.load_imbalance <= rand.load_imbalance

    def test_comm_aware_reduces_byte_hops_vs_round_robin(self, setup):
        graph, platform = setup
        routing = cached_routing(platform.topology)
        comm = evaluate_mapping(
            graph, platform, communication_aware_map(graph, platform), routing
        )
        naive = evaluate_mapping(
            graph, platform, round_robin_map(graph, platform), routing
        )
        assert comm.noc_byte_hops < naive.noc_byte_hops

    def test_automated_beats_naive_makespan(self, setup):
        """Experiment E15's core assertion."""
        graph, platform = setup
        routing = cached_routing(platform.topology)
        best_auto = min(
            evaluate_mapping(
                graph, platform, run_mapper(name, graph, platform), routing
            ).makespan_cycles
            for name in ("greedy_load", "comm_aware")
        )
        naive = min(
            evaluate_mapping(
                graph, platform, run_mapper(name, graph, platform), routing
            ).makespan_cycles
            for name in ("random", "round_robin")
        )
        assert best_auto < naive


class TestEvaluate:
    def test_missing_task_rejected(self):
        graph = layered_random_graph(3, layers=3)  # tasks t0, t1, t2
        platform = make_platform_model(2)
        with pytest.raises(ValueError, match="misses"):
            evaluate_mapping(graph, platform, {"t0": 0})

    def test_out_of_range_pe_rejected(self):
        graph = layered_random_graph(2, layers=2)  # tasks t0, t1
        platform = make_platform_model(2)
        with pytest.raises(ValueError, match="mapped to PE"):
            evaluate_mapping(graph, platform, {"t0": 0, "t1": 7})

    def test_colocated_pipeline_has_zero_comm(self):
        graph = TaskGraph()
        for name in "abcd":
            graph.add_task(Task(name, 1000))
        for src, dst in zip("abc", "bcd"):
            graph.add_edge(src, dst, 256)
        platform = make_platform_model(4)
        cost = evaluate_mapping(
            graph,
            platform,
            {name: 0 for name in graph.tasks},
            cached_routing(platform.topology),
        )
        assert cost.total_comm_cycles == 0.0
        assert cost.makespan_cycles == pytest.approx(graph.total_compute())

    def test_makespan_at_least_critical_path(self):
        graph = layered_random_graph(40, seed=6)
        platform = make_platform_model(8)
        routing = cached_routing(platform.topology)
        for name in sorted(MAPPERS):
            cost = evaluate_mapping(
                graph, platform, run_mapper(name, graph, platform), routing
            )
            assert cost.makespan_cycles >= graph.critical_path_cycles() - 1e-6

    def test_affinity_exploited_by_greedy(self):
        graph = TaskGraph()
        graph.add_task(Task("hot", 1000, (("dsp", 10.0),)))
        platform = make_platform_model(2, dsp_fraction=0.5)
        mapping = greedy_load_balance_map(graph, platform)
        assert platform.pe_kinds[mapping["hot"]] == "dsp"


class TestAnneal:
    def test_anneal_never_worse_than_initial(self):
        graph = layered_random_graph(40, seed=8)
        platform = make_platform_model(6)
        routing = cached_routing(platform.topology)
        initial = round_robin_map(graph, platform)
        initial_cost = evaluate_mapping(graph, platform, initial, routing)
        annealed = anneal_map(graph, platform, initial=initial, iterations=600)
        final_cost = evaluate_mapping(graph, platform, annealed, routing)
        assert final_cost.makespan_cycles <= initial_cost.makespan_cycles

    def test_anneal_deterministic_for_seed(self):
        graph = layered_random_graph(25, seed=8)
        platform = make_platform_model(4)
        a = anneal_map(graph, platform, iterations=200, seed=5)
        b = anneal_map(graph, platform, iterations=200, seed=5)
        assert a == b

    def test_anneal_validation(self):
        graph = layered_random_graph(2, layers=2)
        platform = make_platform_model(2)
        with pytest.raises(ValueError):
            anneal_map(graph, platform, iterations=0)
        with pytest.raises(ValueError):
            anneal_map(graph, platform, cooling=1.0)


class TestDse:
    def test_explore_full_factorial(self):
        graph = layered_random_graph(20, layers=4, seed=2)
        points = explore(
            graph,
            pe_counts=(4, 8),
            topologies=(TopologyKind.MESH,),
            mappers=("round_robin", "comm_aware"),
        )
        assert len(points) == 2 * 1 * 2

    def test_pareto_front_nondominated(self):
        graph = layered_random_graph(30, layers=4, seed=2)
        points = explore(graph, pe_counts=(2, 4, 8))
        front = pareto_points(points)
        assert front
        for point in front:
            for other in points:
                strictly_better = (
                    other.cost.makespan_cycles < point.cost.makespan_cycles
                    and other.area_proxy <= point.area_proxy
                ) or (
                    other.cost.makespan_cycles <= point.cost.makespan_cycles
                    and other.area_proxy < point.area_proxy
                )
                assert not strictly_better

    def test_more_pes_not_slower(self):
        """With the same mapper, adding PEs never hurts makespan much."""
        graph = layered_random_graph(40, layers=4, seed=2)
        small = make_platform_model(2)
        large = make_platform_model(16)
        small_cost = evaluate_mapping(
            graph,
            small,
            greedy_load_balance_map(graph, small),
            cached_routing(small.topology),
        )
        large_cost = evaluate_mapping(
            graph,
            large,
            greedy_load_balance_map(graph, large),
            cached_routing(large.topology),
        )
        assert large_cost.makespan_cycles <= small_cost.makespan_cycles * 1.05

    def test_make_platform_model_mix(self):
        platform = make_platform_model(8, dsp_fraction=0.25, asip_fraction=0.25)
        assert platform.pe_kinds.count("dsp") == 2
        assert platform.pe_kinds.count("asip") == 2
        assert platform.pe_kinds.count("gp_risc") == 4

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            make_platform_model(4, dsp_fraction=0.8, asip_fraction=0.8)
