"""The eighteen experiments of the reproduction.

Each ``eNN_*`` function regenerates one of the paper's quantitative
claims or figures (the mapping is documented in DESIGN.md) and returns
a dict with ``rows`` (list of flat dicts), a ``claim`` string quoting
the paper, and a ``verdict`` dict of the headline measured numbers.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, List

from repro.apps.cam import TcamModel
from repro.apps.lpm import SRAM_READ_PJ, trie_footprint
from repro.apps.stepnp_ipv4 import run_ipv4_on_stepnp
from repro.apps.trafficgen import random_prefix_entries
from repro.economics.alternatives import (
    best_alternative,
    efpga_partition_cost,
)
from repro.economics.breakeven import BreakEven
from repro.economics.complexity import (
    complexity_table,
    risc_equivalents,
    sw_overtakes_hw_year,
)
from repro.economics.nre import mask_nre_growth_per_generation, mask_nre_series
from repro.economics.productivity import (
    productivity_peak_node,
    productivity_series,
)
from repro.mapping.anneal import anneal_map
from repro.mapping.evaluator import MappingEvaluator
from repro.mapping.dse import make_platform_model
from repro.mapping.mapper import MAPPERS, run_mapper
from repro.mapping.taskgraph import layered_random_graph
from repro.memory.tradeoff import architecture_tradeoff, best_architecture
from repro.noc.metrics import simulate_traffic
from repro.noc.topology import (
    bus,
    crossbar,
    fat_tree,
    mesh,
    ring,
    torus,
    tree,
)
from repro.noc.traffic import TrafficPattern
from repro.platform.stepnp import stepnp_spec
from repro.processors.classes import figure1_series, pareto_front
from repro.processors.multithread import run_latency_hiding_experiment
from repro.technology.node import node, node_names, nodes_between
from repro.technology.power import PowerModel, dvs_energy_delay, multi_vt_optimize
from repro.technology.wires import WireModel
from repro.engine.registry import scenario


@scenario("E1", tags=("experiments", "economics", "smoke"))
def e01_mask_nre() -> dict:
    """E1: mask NRE x10 in ~3 generations, > $1M at 90 nm."""
    rows = [
        {"node": name, "mask_nre_usd": cost}
        for name, cost in mask_nre_series()
    ]
    growth = mask_nre_growth_per_generation("350nm", "90nm")
    over_3_generations = growth ** 3
    return {
        "claim": (
            "mask set NRE multiplied by ten in about three process "
            "generations, exceeding $1M at 90nm"
        ),
        "rows": rows,
        "verdict": {
            "growth_per_generation": round(growth, 3),
            "growth_over_3_generations": round(over_3_generations, 2),
            "mask_90nm_usd": node("90nm").mask_set_cost_usd,
            "exceeds_1M_at_90nm": node("90nm").mask_set_cost_usd > 1e6,
        },
    }


@scenario("E2", tags=("experiments", "economics", "smoke"))
def e02_mask_breakeven() -> dict:
    """E2: $5 chip, 20% margin -> >1M units to recover the 90nm mask."""
    rows = []
    for name in node_names():
        analysis = BreakEven.analyze(name, price_usd=5.0, margin=0.20)
        rows.append(analysis.as_row())
    focal = BreakEven.analyze("90nm", price_usd=5.0, margin=0.20)
    return {
        "claim": (
            "for a chip sold at $5 with 20% margin, over one million "
            "chips must be sold to pay the mask set NRE alone"
        ),
        "rows": rows,
        "verdict": {
            "mask_only_volume_90nm": focal.mask_only_volume,
            "exceeds_1M": focal.mask_only_volume > 1_000_000,
        },
    }


@scenario("E3", tags=("experiments", "economics", "smoke"))
def e03_design_breakeven() -> dict:
    """E3: $10-100M design NRE at 0.13um -> 10-100M units break-even."""
    rows = []
    for transistors in (40e6, 100e6, 200e6):
        analysis = BreakEven.analyze(
            "130nm", price_usd=5.0, margin=0.20, transistors=transistors
        )
        row = analysis.as_row()
        row["transistors"] = transistors
        rows.append(row)
    focal = BreakEven.analyze("130nm", transistors=100e6)
    return {
        "claim": (
            "design NRE ranges from $10M to $100M for complex 0.13um "
            "designs, implying volumes of 10 to 100 million chips"
        ),
        "rows": rows,
        "verdict": {
            "design_nre_130nm_100Mtx": round(focal.design_nre),
            "nre_in_10M_100M_band": 10e6 <= focal.design_nre <= 100e6,
            "total_volume": focal.total_volume,
            "volume_in_10M_100M_band": 10e6 <= focal.total_volume <= 100e6,
        },
    }


@scenario("E4", tags=("experiments", "economics", "smoke"))
def e04_risc_equivalents() -> dict:
    """E4: 100M+ transistors ~= the logic of >1000 32-bit RISC cores."""
    rows = []
    for name in node_names():
        process = node(name)
        for area in (80.0, 100.0, 150.0):
            budget = process.transistors_for_area(area)
            rows.append(
                {
                    "node": name,
                    "die_mm2": area,
                    "transistors": budget,
                    "risc_equivalents": round(risc_equivalents(budget)),
                }
            )
    return {
        "claim": (
            "over 100 million transistors - enough to theoretically "
            "place the logic of over one thousand 32 bit RISC "
            "processors on a die"
        ),
        "rows": rows,
        "verdict": {
            "risc_per_100M_tx": risc_equivalents(100e6),
            "exceeds_1000": risc_equivalents(100e6) >= 1000,
        },
    }


@scenario("E5", tags=("experiments", "economics", "smoke"))
def e05_alternatives() -> dict:
    """E5: the NRE-flexibility continuum and its volume crossovers."""
    volumes = [1_000, 5_000, 20_000, 100_000, 500_000, 2_000_000, 10_000_000]
    rows = []
    for volume in volumes:
        choice, cost = best_alternative("130nm", volume)
        rows.append(
            {
                "volume": volume,
                "winner": choice.value,
                "total_cost_usd": round(cost),
            }
        )
    winners = [row["winner"] for row in rows]
    return {
        "claim": (
            "FPGAs win at low volume (medium volumes below 100K/year "
            "preclude ASICs); flexible platforms and structured arrays "
            "occupy the middle; ASICs need multi-million volumes"
        ),
        "rows": rows,
        "verdict": {
            "low_volume_winner": winners[0],
            "high_volume_winner": winners[-1],
            "fpga_wins_low": winners[0] == "fpga",
            "asic_wins_high": winners[-1] == "asic",
            "distinct_regions": len(dict.fromkeys(winners)),
        },
    }


@scenario("E6", tags=("experiments", "economics", "smoke"))
def e06_productivity() -> dict:
    """E6: design productivity declines at 90nm and beyond."""
    rows = [
        {"node": name, "tx_per_man_year": round(value)}
        for name, value in productivity_series()
    ]
    peak = productivity_peak_node()
    by_name = dict(productivity_series())
    return {
        "claim": (
            "for 90nm technologies and beyond, the design productivity "
            "(transistors designed per man-year) will actually decline"
        ),
        "rows": rows,
        "verdict": {
            "peak_node": peak,
            "declines_after_peak": by_name["65nm"] < by_name["90nm"]
            and by_name["50nm"] < by_name["65nm"],
        },
    }


@scenario("E7", tags=("experiments", "economics", "smoke"))
def e07_hw_sw_growth() -> dict:
    """E7: HW +56%/yr vs SW +140%/yr; SW effort overtakes HW."""
    rows = complexity_table(1997, 2008)
    crossover = sw_overtakes_hw_year()
    return {
        "claim": (
            "hardware complexity grows 56%/year, embedded software "
            "complexity 140%/year; SW development effort has surpassed "
            "HW design effort in leading SoCs"
        ),
        "rows": rows,
        "verdict": {
            "sw_overtakes_hw_year": round(crossover, 1),
            "before_paper": crossover <= 2003.0,
        },
    }


@scenario("E8", tags=("experiments", "processors", "smoke"))
def e08_figure1() -> dict:
    """E8: the Figure-1 flexibility/differentiation spectrum."""
    rows = figure1_series()
    front = [kind.value for kind in pareto_front()]
    ordered = sorted(rows, key=lambda r: -r["flexibility"])
    monotone = all(
        ordered[i]["differentiation"] <= ordered[i + 1]["differentiation"]
        or ordered[i]["flexibility"] > ordered[i + 1]["flexibility"]
        for i in range(len(ordered) - 1)
    )
    return {
        "claim": (
            "a spectrum of processors trades time-to-market/flexibility "
            "against power/performance/cost differentiation (Figure 1)"
        ),
        "rows": rows,
        "verdict": {
            "pareto_front_size": len(front),
            "all_on_front": len(front) == len(rows),
            "tradeoff_monotone": monotone,
        },
    }


@scenario("E9", tags=("experiments", "technology", "noc", "smoke"))
def e09_wire_delay() -> dict:
    """E9: 6-10 cycles to cross a 50nm die; NoC latencies much larger."""
    rows = []
    for process in nodes_between("180nm", "45nm"):
        model = WireModel.for_node(process.name)
        rows.append(
            {
                "node": process.name,
                "ps_per_mm": round(model.repeated_ps_per_mm, 1),
                "cross_chip_ps": round(model.cross_chip_ps),
                "clock_ghz": process.clock_ghz,
                "cross_chip_cycles": round(model.cross_chip_cycles, 2),
                "noc_8hop_cycles": round(model.noc_hop_budget(8), 1),
            }
        )
    fifty = WireModel.for_node("50nm")
    return {
        "claim": (
            "in 50nm technologies the intra-chip propagation delay will "
            "be between six and ten clock cycles; a complex NoC could "
            "exhibit latencies many times larger"
        ),
        "rows": rows,
        "verdict": {
            "cycles_at_50nm": round(fifty.cross_chip_cycles, 2),
            "in_6_10_band": 6.0 <= fifty.cross_chip_cycles <= 10.0,
            "noc_many_times_larger": fifty.noc_hop_budget(8)
            > 2.0 * fifty.cross_chip_cycles,
        },
    }


@scenario(
    "E10",
    tags=("experiments", "noc", "perf"),
    params={"terminals": 16, "loads": (0.05, 0.15, 0.3, 0.5),
            "duration": 4000.0, "mode": "flow"},
)
def e10_noc_topologies(
    terminals: int = 16,
    loads: tuple = (0.05, 0.15, 0.3, 0.5),
    duration: float = 4000.0,
    mode: str = "flow",
) -> dict:
    """E10: characterize bus/ring/tree/mesh/torus/crossbar/fat-tree.

    Runs in the batched flow-level NoC mode by default (the analytic
    fast path, validated against DES by ``tests/noc/test_flow.py``);
    override with ``spec.with_params(mode="des")`` for the
    packet-granular event simulation.
    """
    builders = [bus, ring, tree, mesh, torus, fat_tree, crossbar]
    rows = []
    for build in builders:
        topology = build(terminals)
        for load in loads:
            metrics = simulate_traffic(
                topology,
                TrafficPattern.UNIFORM,
                load,
                duration=duration,
                warmup=duration / 4,
                mode=mode,
            )
            rows.append(metrics.as_row())
    by_topology: Dict[str, List[dict]] = {}
    for row in rows:
        by_topology.setdefault(row["topology"], []).append(row)
    low_load = loads[0]

    def lat(name_prefix: str) -> float:
        for row in rows:
            if row["topology"].startswith(name_prefix) and row["offered"] == low_load:
                return row["avg_latency"]
        return float("nan")

    bus_saturates_first = all(
        row["saturated"]
        for row in by_topology[f"bus-{terminals}"]
        if row["offered"] >= 0.15
    )
    return {
        "claim": (
            "much remaining work to characterize topologies - bus, "
            "ring, tree to full-crossbar - for different application "
            "domains; buses do not scale"
        ),
        "rows": rows,
        "verdict": {
            "bus_saturates_first": bus_saturates_first,
            "crossbar_lowest_latency": lat("crossbar") <= lat("mesh")
            and lat("crossbar") <= lat("ring"),
            "crossbar_highest_cost": crossbar(terminals).wiring_cost()
            == max(b(terminals).wiring_cost() for b in builders),
        },
    }


@scenario(
    "E11",
    tags=("experiments", "processors", "smoke"),
    params={"thread_counts": (1, 2, 4, 8, 16),
            "latencies": (10, 50, 100, 200), "compute_cycles": 20.0},
)
def e11_multithreading(
    thread_counts: tuple = (1, 2, 4, 8, 16),
    latencies: tuple = (10, 50, 100, 200),
    compute_cycles: float = 20.0,
) -> dict:
    """E11: HW multithreading hides interconnect latency."""
    rows = []
    for latency in latencies:
        for threads in thread_counts:
            result = run_latency_hiding_experiment(
                threads, compute_cycles, latency, duration=20_000.0
            )
            rows.append(
                {
                    "latency": latency,
                    "threads": threads,
                    "utilization": round(result["utilization"], 3),
                    "ideal": round(result["ideal"], 3),
                }
            )
    at_100 = {
        row["threads"]: row["utilization"]
        for row in rows
        if row["latency"] == 100
    }
    return {
        "claim": (
            "multithreading lets the processor execute other streams "
            "while a thread blocks on a high-latency operation; "
            "hardware swaps threads in one cycle"
        ),
        "rows": rows,
        "verdict": {
            "util_1_thread_at_100cyc": at_100[min(at_100)],
            "util_max_threads_at_100cyc": at_100[max(at_100)],
            "recovers_90pct": at_100[max(at_100)] >= 0.90,
            "matches_analytic_bound": all(
                abs(row["utilization"] - min(row["ideal"],
                    compute_cycles / (compute_cycles + 1.0))) < 0.08
                for row in rows
            ),
        },
    }


@scenario(
    "E12",
    tags=("experiments", "economics", "efpga", "smoke"),
    params={"shares": (0.0, 0.01, 0.03, 0.05, 0.10, 0.20, 0.30)},
)
def e12_efpga_share(shares: tuple = (0.0, 0.01, 0.03, 0.05, 0.10, 0.20, 0.30)) -> dict:
    """E12: the 10x eFPGA penalty restricts it to <5% of functionality."""
    rows = []
    for share in shares:
        result = efpga_partition_cost("130nm", total_gates=10e6,
                                      efpga_function_share=share)
        rows.append(
            {
                "function_share": share,
                "cost_overhead": round(result["overhead_ratio"], 3),
                "area_share_efpga": round(result["area_share_efpga"], 3),
            }
        )
    at_5pct = next(r for r in rows if r["function_share"] == 0.05)
    at_30pct = next(r for r in rows if r["function_share"] == 0.30)
    return {
        "claim": (
            "eFPGAs complement processors only with limited scope "
            "(<5% of IC functionality); the 10X cost and power penalty "
            "restricts further use"
        ),
        "rows": rows,
        "verdict": {
            "overhead_at_5pct_function": at_5pct["cost_overhead"],
            "overhead_at_30pct_function": at_30pct["cost_overhead"],
            "acceptable_below_5pct": at_5pct["cost_overhead"] <= 1.5,
            "prohibitive_at_30pct": at_30pct["cost_overhead"] >= 2.5,
        },
    }


@scenario("E13", tags=("experiments", "platform", "smoke"))
def e13_fppa_composition() -> dict:
    """E13: the Figure-2 FPPA platform instance."""
    rows = []
    for pes, threads in ((6, 4), (16, 8), (32, 8), (64, 4)):
        spec = stepnp_spec(num_pes=pes, threads=threads)
        rows.append(spec.summary())
    large = stepnp_spec(num_pes=16, threads=8)
    return {
        "claim": (
            "Figure 2: a domain-specific flexible architecture platform "
            "with configurable processors, a network-on-chip, "
            "reconfigurable HW, standard HW and communication I/Os; "
            "platforms include ten to hundreds of processors"
        ),
        "rows": rows,
        "verdict": {
            "has_all_component_classes": bool(
                large.pes and large.memories and large.hw_ips
                and large.ios and large.efpga_luts > 0
            ),
            "scales_to_64_pes": rows[-1]["processors"] == 64,
        },
    }


@scenario(
    "E14",
    tags=("experiments", "apps", "noc", "perf"),
    params={"thread_counts": (1, 2, 4, 8), "packets": 1200,
            "extra_table_latency": 100.0},
    # single-thread failing to hold line rate is the negative control
    expected_false=("line_rate_without_mt",),
)
def e14_ipv4_stepnp(
    thread_counts: tuple = (1, 2, 4, 8),
    packets: int = 1200,
    extra_table_latency: float = 100.0,
) -> dict:
    """E14: IPv4 at 10 Gbit/s on StepNP with >100-cycle latencies."""
    rows = []
    for threads in thread_counts:
        result = run_ipv4_on_stepnp(
            num_pes=16,
            threads_per_pe=threads,
            packets=packets,
            extra_table_latency=extra_table_latency,
        )
        rows.append(result.as_row())
    best = rows[-1]
    single = rows[0]
    return {
        "claim": (
            "near 100% utilization of the embedded processors and "
            "threads, even in presence of NoC interconnect latencies of "
            "over 100 cycles, while processing worst-case traffic at a "
            "10 Gbit line rate"
        ),
        "rows": rows,
        "verdict": {
            "single_thread_utilization": single["utilization"],
            "multithreaded_utilization": best["utilization"],
            "line_rate_with_mt": best["line_rate"],
            "line_rate_without_mt": single["line_rate"],
            "near_full_utilization": best["utilization"] >= 0.90,
        },
    }


@scenario(
    "E15",
    tags=("experiments", "mapping", "perf"),
    params={"tasks": 60, "num_pes": 8, "seed": 3},
)
def e15_mapping(tasks: int = 60, num_pes: int = 8, seed: int = 3) -> dict:
    """E15: automated mapping beats naive placement."""
    graph = layered_random_graph(tasks, layers=6, seed=seed)
    platform = make_platform_model(num_pes, "mesh", dsp_fraction=0.25)
    evaluator = MappingEvaluator(graph, platform)
    rows = []
    makespans = {}
    for name in sorted(MAPPERS):
        mapping = run_mapper(name, graph, platform)
        cost = evaluator.evaluate(mapping, mapper_name=name)
        rows.append(cost.as_row())
        makespans[name] = cost.makespan_cycles
    annealed = anneal_map(graph, platform, iterations=1500, evaluator=evaluator)
    cost = evaluator.evaluate(annealed, mapper_name="anneal")
    rows.append(cost.as_row())
    makespans["anneal"] = cost.makespan_cycles
    return {
        "claim": (
            "tools are urgently needed to explore the mapping process "
            "and automate optimization; DSOC mapping enables rapid "
            "exploration and optimization"
        ),
        "rows": rows,
        "verdict": {
            "random_makespan": round(makespans["random"], 1),
            "best_auto_makespan": round(
                min(makespans["comm_aware"], makespans["anneal"]), 1
            ),
            "speedup_vs_random": round(
                makespans["random"]
                / min(makespans["comm_aware"], makespans["anneal"]),
                2,
            ),
            "auto_beats_naive": min(
                makespans["comm_aware"], makespans["anneal"]
            )
            < min(makespans["random"], makespans["round_robin"]),
        },
    }


@scenario("E16", tags=("experiments", "technology", "power", "smoke"))
def e16_low_power() -> dict:
    """E16: multi-Vt, back-bias and voltage-scaling levers."""
    process = node("90nm")
    model = PowerModel.for_block(process, transistors=50e6)
    vt = multi_vt_optimize(model, critical_fraction=0.2)
    rows = [
        {
            "technique": "multi_vt(80% high-Vt)",
            "metric": "leakage saving",
            "value": round(vt["leakage_saving"], 3),
        }
    ]
    for scale in (1.0, 0.9, 0.8, 0.7):
        dvs = dvs_energy_delay(model, scale)
        rows.append(
            {
                "technique": f"dvs(vdd x{scale})",
                "metric": "energy/delay factors",
                "value": (
                    round(dvs["energy_factor"], 3),
                    round(dvs["delay_factor"], 3),
                ),
            }
        )
    from repro.technology.power import leakage_current_per_um, VtClass

    bias_reduction = leakage_current_per_um(
        process, VtClass.NOMINAL, body_bias_v=0.5
    ) / leakage_current_per_um(process, VtClass.NOMINAL, 0.0)
    rows.append(
        {
            "technique": "back_bias(0.5V)",
            "metric": "leakage ratio",
            "value": round(bias_reduction, 3),
        }
    )
    return {
        "claim": (
            "low-power is a must: on-chip voltage control, back-bias to "
            "master leakage, and multi-Vt transistors"
        ),
        "rows": rows,
        "verdict": {
            "multi_vt_saves_over_half_leakage": vt["leakage_saving"] > 0.5,
            "back_bias_cuts_leakage": bias_reduction < 0.5,
            "dvs_quadratic_energy": abs(
                dvs_energy_delay(model, 0.7)["energy_factor"] - 0.49
            )
            < 1e-9,
        },
    }


@scenario(
    "E17",
    tags=("experiments", "memory", "smoke"),
    params={"working_sets": (0.0625, 0.25, 1.0, 4.0, 16.0, 64.0)},
)
def e17_memory_tradeoff(
    working_sets: tuple = (0.0625, 0.25, 1.0, 4.0, 16.0, 64.0),
) -> dict:
    """E17: eSRAM/eDRAM/eFlash vs external memory tradeoffs."""
    rows = []
    winners = []
    for ws in working_sets:
        for point in architecture_tradeoff(ws):
            rows.append(
                {
                    "working_set_mb": ws,
                    "architecture": point.architecture,
                    "latency": round(point.avg_latency_cycles, 1),
                    "power_mw": round(point.total_power_mw, 1),
                    "area_mm2": round(point.on_chip_area_mm2, 2),
                }
            )
        winners.append((ws, best_architecture(ws).architecture))
    return {
        "claim": (
            "the two main platform design issues are power optimization "
            "and embedded memory architecture tradeoffs (eSRAM, eDRAM, "
            "eFlash vs external memories)"
        ),
        "rows": rows,
        "verdict": {
            "small_ws_winner": winners[0][1],
            "large_ws_winner": winners[-1][1],
            "esram_wins_small": winners[0][1] == "all_esram",
            "external_wins_large": "external" in winners[-1][1],
            "regime_changes": len(dict.fromkeys(w for _ws, w in winners)),
        },
    }


def _npse_vs_cam_row(size: int) -> dict:
    """One E18 row. The table is streamed once through the footprint,
    so no more than its first 500 entries are held at once."""
    entries = random_prefix_entries(size, seed=5)
    head = list(islice(entries, 500))
    # Average accesses over a sample of lookups in a stride-8 trie.
    sample = [prefix | 0x123 for prefix, _length, _hop in head]
    # trie_footprint validates every entry as CamTable.insert would, so
    # the CAM's figures need only its entry count.
    stats, accesses = trie_footprint(chain(head, entries), 8, sample)
    avg_accesses = sum(accesses) / len(accesses)
    trie_energy = avg_accesses * SRAM_READ_PJ
    cam_model = TcamModel.for_entries(stats.prefixes)
    return {
        "prefixes": size,
        "trie_sram_kb": round(stats.sram_kbytes, 1),
        "trie_lookup_pj": round(trie_energy, 1),
        "cam_bits_kb": round(cam_model.area_sram_equivalent_bits / 8 / 1024, 1),
        "cam_lookup_pj": round(cam_model.search_energy_pj, 1),
        "energy_ratio_cam_over_trie": round(
            cam_model.search_energy_pj / trie_energy, 1
        ),
    }


@scenario(
    "E18",
    tags=("experiments", "apps", "perf"),
    params={"table_sizes": (1_000, 10_000, 100_000)},
)
def e18_npse_vs_cam(table_sizes: tuple = (1_000, 10_000, 100_000)) -> dict:
    """E18: SRAM-trie search engine vs CAM on memory and power."""
    rows = [_npse_vs_cam_row(size) for size in table_sizes]
    large = rows[-1]
    return {
        "claim": (
            "an SRAM-based search engine is more memory and "
            "power-efficient than CAM-based look-up methods"
        ),
        "rows": rows,
        "verdict": {
            "cam_over_trie_energy_at_100k": large["energy_ratio_cam_over_trie"],
            "trie_wins_energy_at_scale": large["energy_ratio_cam_over_trie"] > 1.0,
        },
    }
