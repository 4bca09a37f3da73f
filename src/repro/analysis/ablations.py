"""The nine ablation studies (A1-A9) as registered scenarios.

Every ablation follows the same contract as the E-experiments: a dict
with ``claim``, ``rows`` and a boolean-rich ``verdict``.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.engine.registry import scenario


# ---------------------------------------------------------------------------
# A1: NoC router pipeline depth
# ---------------------------------------------------------------------------

def sweep_router_delay(delays=(1.0, 2.0, 4.0, 8.0), mode="flow"):
    """Deeper router pipelines raise zero-load latency, not throughput."""
    from repro.noc.metrics import simulate_traffic
    from repro.noc.topology import mesh
    from repro.noc.traffic import TrafficPattern

    rows = []
    for delay in delays:
        metrics = simulate_traffic(
            mesh(16),
            TrafficPattern.UNIFORM,
            offered_load=0.2,
            duration=4000.0,
            warmup=1000.0,
            router_delay=delay,
            mode=mode,
        )
        rows.append(
            {
                "router_delay": delay,
                "avg_latency": round(metrics.avg_latency, 2),
                "accepted": round(metrics.accepted_load, 3),
                "saturated": metrics.saturated,
            }
        )
    return rows


@scenario(
    "A1",
    tags=("ablation", "noc"),
    params={"delays": (1.0, 2.0, 4.0, 8.0), "mode": "flow"},
)
def a01_router_ablation(delays=(1.0, 2.0, 4.0, 8.0), mode="flow") -> dict:
    """Ablation A1: NoC router pipeline depth."""
    rows = sweep_router_delay(tuple(delays), mode=mode)
    latencies = [row["avg_latency"] for row in rows]
    accepted = [row["accepted"] for row in rows]
    return {
        "claim": (
            "deeper router pipelines raise zero-load latency linearly "
            "in hop count but leave saturation throughput unchanged"
        ),
        "rows": rows,
        "verdict": {
            "latency_rises_with_depth": latencies == sorted(latencies),
            "throughput_unaffected": max(accepted) - min(accepted) < 0.02,
        },
    }


# ---------------------------------------------------------------------------
# A2: hardware vs software thread swap cost
# ---------------------------------------------------------------------------

def sweep_swap_cost(costs=(0.0, 1.0, 10.0, 50.0, 200.0)):
    """Utilization vs context-switch cost at 100-cycle remote latency."""
    from repro.processors.multithread import run_latency_hiding_experiment

    rows = []
    for cost in costs:
        result = run_latency_hiding_experiment(
            num_threads=8,
            compute_cycles=20.0,
            remote_latency=100.0,
            duration=20_000.0,
            swap_cycles=cost,
        )
        rows.append(
            {
                "swap_cycles": cost,
                "utilization": round(result["utilization"], 3),
                "occupancy": round(result["occupancy"], 3),
                "throughput": round(result["throughput"], 4),
            }
        )
    return rows


@scenario(
    "A2",
    tags=("ablation", "processors", "smoke"),
    params={"costs": (0.0, 1.0, 10.0, 50.0, 200.0)},
)
def a02_thread_swap_ablation(costs=(0.0, 1.0, 10.0, 50.0, 200.0)) -> dict:
    """Ablation A2: hardware vs software thread swap cost."""
    rows = sweep_swap_cost(tuple(costs))
    utils = [row["utilization"] for row in rows]
    # anchor on the hardware-class (<= 1 cycle) and software-class
    # (>= 100 cycles) swap costs actually present in the sweep, so
    # spec.with_params(costs=...) overrides keep a meaningful verdict
    hw = [u for r, u in zip(rows, utils) if r["swap_cycles"] <= 1.0]
    sw = [u for r, u in zip(rows, utils) if r["swap_cycles"] >= 100.0]
    return {
        "claim": (
            "hardware multithreading swaps threads in one cycle; "
            "OS-style switching collapses utilization"
        ),
        "rows": rows,
        "verdict": {
            "utilization_falls_with_cost": utils == sorted(utils, reverse=True),
            "hw_swap_over_90pct": bool(hw) and min(hw) > 0.9,
            "sw_switch_under_40pct": bool(sw) and max(sw) < 0.4,
        },
    }


# ---------------------------------------------------------------------------
# A3: LPM trie stride width
# ---------------------------------------------------------------------------

def sweep_stride(strides=(2, 4, 8), prefixes=20_000):
    """SRAM footprint vs lookup accesses over trie stride widths."""
    from repro.apps.lpm import LpmTrie
    from repro.apps.trafficgen import random_prefix_table

    table = random_prefix_table(prefixes, seed=5)
    probes = [(p | 0x0101) & 0xFFFFFFFF for p, _l, _h in table[:400]]
    rows = []
    for stride in strides:
        trie = LpmTrie(stride=stride)
        trie.insert_many(table)
        stats = trie.stats()
        accesses = [acc for _hop, acc in trie.lookup_many(probes)]
        rows.append(
            {
                "stride": stride,
                "sram_kb": round(stats.sram_kbytes, 1),
                "avg_accesses": round(sum(accesses) / len(accesses), 2),
                "worst_accesses": stats.worst_case_accesses,
            }
        )
    return rows


@scenario(
    "A3",
    tags=("ablation", "apps", "perf"),
    params={"strides": (2, 4, 8), "prefixes": 20_000},
)
def a03_lpm_stride_ablation(strides=(2, 4, 8), prefixes=20_000) -> dict:
    """Ablation A3: LPM trie stride width."""
    rows = sweep_stride(tuple(strides), prefixes)
    accesses = [row["avg_accesses"] for row in rows]
    srams = [row["sram_kb"] for row in rows]
    return {
        "claim": (
            "wider strides mean fewer memory reads per lookup but more "
            "controlled-prefix-expansion SRAM blowup (knee at 4-8 bits)"
        ),
        "rows": rows,
        "verdict": {
            "accesses_fall_with_stride": accesses
            == sorted(accesses, reverse=True),
            "sram_grows_with_stride": srams[-1] > srams[0],
        },
    }


# ---------------------------------------------------------------------------
# A4: mapper quality vs optimization cost
# ---------------------------------------------------------------------------

def mapper_cost_quality(tasks=60, num_pes=8, seed=3):
    """Constructive mappers vs annealing at rising iteration budgets."""
    from repro.mapping.anneal import anneal_map
    from repro.mapping.dse import make_platform_model
    from repro.mapping.evaluator import MappingEvaluator
    from repro.mapping.mapper import MAPPERS, run_mapper
    from repro.mapping.taskgraph import layered_random_graph

    graph = layered_random_graph(tasks, layers=6, seed=seed)
    platform = make_platform_model(num_pes, "mesh", dsp_fraction=0.25)
    evaluator = MappingEvaluator(graph, platform)
    rows = []
    for name in sorted(MAPPERS):
        start = time.perf_counter()
        mapping = run_mapper(name, graph, platform)
        elapsed = time.perf_counter() - start
        cost = evaluator.evaluate(mapping)
        rows.append(
            {
                "mapper": name,
                "makespan": round(cost.makespan_cycles, 1),
                "map_time_ms": round(elapsed * 1000, 2),
            }
        )
    for iterations in (200, 1000, 3000):
        start = time.perf_counter()
        mapping = anneal_map(
            graph, platform, iterations=iterations, evaluator=evaluator
        )
        elapsed = time.perf_counter() - start
        cost = evaluator.evaluate(mapping)
        rows.append(
            {
                "mapper": f"anneal-{iterations}",
                "makespan": round(cost.makespan_cycles, 1),
                "map_time_ms": round(elapsed * 1000, 2),
            }
        )
    return rows


@scenario(
    "A4",
    tags=("ablation", "mapping", "perf"),
    params={"tasks": 60, "num_pes": 8, "seed": 3},
)
def a04_mapper_ablation(tasks=60, num_pes=8, seed=3) -> dict:
    """Ablation A4: mapper quality vs optimization cost."""
    rows = mapper_cost_quality(tasks, num_pes, seed)
    by_name = {row["mapper"]: row["makespan"] for row in rows}
    return {
        "claim": (
            "assist and automate optimization where possible: each unit "
            "of optimization time buys makespan"
        ),
        "rows": rows,
        "verdict": {
            "comm_aware_beats_random": by_name["comm_aware"]
            < by_name["random"],
            "anneal_budget_converges": by_name["anneal-3000"]
            <= by_name["anneal-200"] * 1.02,
        },
    }


# ---------------------------------------------------------------------------
# A5: TLM quantum size vs simulation speed and accuracy
# ---------------------------------------------------------------------------

@scenario(
    "A5",
    tags=("ablation", "tlm", "smoke"),
    params={"quanta": (10.0, 100.0, 1000.0, 10_000.0), "transactions": 200},
)
def a05_tlm_quantum(
    quanta=(10.0, 100.0, 1000.0, 10_000.0), transactions=200
) -> dict:
    """Ablation A5: TLM quantum size vs simulation speed and accuracy."""
    from repro.tlm.compare import quantum_sweep

    rows = quantum_sweep(quanta=tuple(quanta), transactions=transactions)
    events = [row["tlm_events"] for row in rows]
    return {
        "claim": (
            "loosely-timed modeling with larger quanta costs fewer "
            "kernel events while back-annotated timing stays accurate"
        ),
        "rows": rows,
        "verdict": {
            "bigger_quantum_fewer_events": events
            == sorted(events, reverse=True),
            "event_ratio_over_5x": all(r["event_ratio"] > 5 for r in rows),
            "timing_error_under_25pct": all(
                r["timing_error"] < 0.25 for r in rows
            ),
        },
    }


# ---------------------------------------------------------------------------
# A6: SoC test scheduling vs TAM width
# ---------------------------------------------------------------------------

def make_soc_cores(num_pes=12):
    from repro.dft.wrapper import CoreTestSpec

    cores = [
        CoreTestSpec(
            name=f"pe{i}", inputs=64, outputs=64, scan_flops=8_000,
            internal_chains=4, patterns=800, test_power_mw=40.0,
        )
        for i in range(num_pes)
    ]
    cores.append(
        CoreTestSpec(
            name="noc", inputs=256, outputs=256, scan_flops=20_000,
            internal_chains=8, patterns=1200, test_power_mw=80.0,
        )
    )
    return cores


def sweep_tam_width(widths=(4, 8, 16, 32)):
    """Test time for a 12-core SoC as the TAM widens."""
    from repro.dft.schedule import schedule_tests, serial_test_cycles

    cores = make_soc_cores()
    rows = []
    for width in widths:
        schedule = schedule_tests(cores, tam_width=width)
        rows.append(
            {
                "tam_width": width,
                "schedule_cycles": schedule.total_cycles,
                "serial_cycles": serial_test_cycles(cores, width),
                "speedup_vs_serial": round(
                    serial_test_cycles(cores, width) / schedule.total_cycles, 2
                ),
            }
        )
    return rows


@scenario(
    "A6",
    tags=("ablation", "dft", "smoke"),
    params={"widths": (4, 8, 16, 32)},
)
def a06_dft_schedule(widths=(4, 8, 16, 32)) -> dict:
    """Ablation A6: SoC test scheduling vs TAM width."""
    rows = sweep_tam_width(tuple(widths))
    times = [row["schedule_cycles"] for row in rows]
    return {
        "claim": (
            "DFT has to evolve together with SoC complexity: wider test "
            "access mechanisms cut SoC test time vs serial core tests"
        ),
        "rows": rows,
        "verdict": {
            "wider_tam_faster": times == sorted(times, reverse=True),
            "parallel_speedup_over_1_5x": rows[-1]["speedup_vs_serial"] > 1.5,
        },
    }


# ---------------------------------------------------------------------------
# A7: hardware vs software OS scheduling cost
# ---------------------------------------------------------------------------

def _rtos_task_set():
    from repro.rtos.schedulability import PeriodicTaskSpec

    return [
        PeriodicTaskSpec("isr", period=80, wcet=10),
        PeriodicTaskSpec("codec", period=200, wcet=70),
        PeriodicTaskSpec("control", period=500, wcet=120),
    ]


def sweep_switch_cost(costs=(0.0, 1.0, 5.0, 15.0, 30.0)):
    """Response-time analysis under rising context-switch cost."""
    from repro.rtos.schedulability import (
        max_context_switch_cost,
        response_time_analysis,
        schedulable,
    )

    task_set = _rtos_task_set()
    rows = []
    for cost in costs:
        responses = response_time_analysis(task_set, context_switch=cost)
        rows.append(
            {
                "switch_cycles": cost,
                "r_isr": responses["isr"],
                "r_codec": responses["codec"],
                "r_control": responses["control"],
                "schedulable": schedulable(task_set, cost),
            }
        )
    rows.append(
        {
            "switch_cycles": f"limit={max_context_switch_cost(task_set):.1f}",
            "r_isr": "-", "r_codec": "-", "r_control": "-",
            "schedulable": "-",
        }
    )
    return rows


@scenario(
    "A7",
    tags=("ablation", "rtos", "smoke"),
    params={"costs": (0.0, 1.0, 5.0, 15.0, 30.0)},
)
def a07_rtos_switch(costs=(0.0, 1.0, 5.0, 15.0, 30.0)) -> dict:
    """Ablation A7: hardware vs software OS scheduling cost."""
    rows = sweep_switch_cost(tuple(costs))
    # the last row is the analytic limit annotation; judge only the
    # swept costs, anchored on the cheapest/costliest actually present
    swept = [r for r in rows if not isinstance(r["switch_cycles"], str)]
    hw = [r for r in swept if r["switch_cycles"] <= 1.0]
    return {
        "claim": (
            "part of the O/S services will need to be performed in "
            "hardware: the set schedules under a 1-cycle scheduler and "
            "becomes infeasible under software-kernel costs"
        ),
        "rows": rows,
        "verdict": {
            "hw_1cycle_schedulable": bool(hw)
            and all(r["schedulable"] for r in hw),
            "sw_kernel_infeasible": swept[-1]["schedulable"] is False,
        },
    }


# ---------------------------------------------------------------------------
# A8: FlexWare retargeting across the processor spectrum
# ---------------------------------------------------------------------------

def retarget_fir(taps=32):
    """One FIR source costed on RISC, DSP and ASIP, plus an ISS check."""
    from repro.flexware.codegen import compile_to_risc
    from repro.flexware.ir import fir_ir
    from repro.flexware.targets import retargeting_report

    program = fir_ir(taps=taps)
    rows = retargeting_report(program)
    memory = {i: i + 1 for i in range(taps)}
    memory.update({0x200 + i: 2 for i in range(taps)})
    sample_base, coeff_base = program.inputs
    expected = program.evaluate(
        {sample_base: 0, coeff_base: 0x200}, memory=dict(memory)
    )
    compiled = compile_to_risc(program)
    result, cpu = compiled.run(
        {sample_base: 0, coeff_base: 0x200}, memory=memory
    )
    for row in rows:
        row["iss_verified"] = row["target"] != "gp_risc" or result == expected
        row["iss_cycles"] = cpu.cycles if row["target"] == "gp_risc" else "-"
    return rows, result == expected


@scenario(
    "A8",
    tags=("ablation", "flexware", "smoke"),
    params={"taps": 32},
)
def a08_flexware_retarget(taps=32) -> dict:
    """Ablation A8: FlexWare retargeting across the processor spectrum."""
    rows, iss_matches = retarget_fir(taps)
    order = [row["target"] for row in rows]
    return {
        "claim": (
            "one source program retargets across the Figure-1 spectrum; "
            "differentiation derives bottom-up from code"
        ),
        "rows": rows,
        "verdict": {
            "order_asip_dsp_risc": order == ["asip", "dsp", "gp_risc"],
            "iss_matches_reference": iss_matches,
        },
    }


# ---------------------------------------------------------------------------
# A9: the 1-GOPS reconfigurable signal-processing IC
# ---------------------------------------------------------------------------

_EXTENDED_KERNEL = """
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
"""

# The same four SADs in base ISA (one byte lane shown x4 via shifts).
_BASE_KERNEL_HEADER = """
    li r1, 0x10203040
    li r2, 0x0F213F42
    li r4, 100
loop:
"""
_BASE_SAD = "".join(
    f"""
    shri r5, r1, {shift}
    andi r5, r5, 0xFF
    shri r6, r2, {shift}
    andi r6, r6, 0xFF
    sub r7, r5, r6
    blt r7, r0, neg{tag}_{shift}
    jmp pos{tag}_{shift}
neg{tag}_{shift}:
    sub r7, r0, r7
pos{tag}_{shift}:
    add r3, r3, r7
"""
    for tag in range(4)
    for shift in (0, 8, 16, 24)
)
_BASE_KERNEL = (
    _BASE_KERNEL_HEADER
    + "    li r3, 0\n"
    + _BASE_SAD
    + """
    subi r4, r4, 1
    bne r4, r0, loop
    halt
"""
)


def gops_comparison():
    """SAD kernel with and without the eFPGA instruction extension."""
    from repro.processors.reconfigurable import (
        STANDARD_EXTENSIONS,
        gops_estimate,
        run_extended,
    )

    extended = run_extended(_EXTENDED_KERNEL,
                            {0: STANDARD_EXTENSIONS["sad8"]})
    base = run_extended(_BASE_KERNEL, {})
    return [
        {
            "configuration": "risc+efpga(sad8)",
            "cycles": extended.cycles,
            "gops@200MHz": round(gops_estimate(extended, 200.0), 2),
        },
        {
            "configuration": "base risc",
            "cycles": base.cycles,
            "gops@200MHz": round(gops_estimate(base, 200.0), 2),
        },
    ]


@scenario("A9", tags=("ablation", "processors", "efpga", "smoke"))
def a09_reconfig_gops() -> dict:
    """Ablation A9: the 1-GOPS reconfigurable signal-processing IC."""
    rows = gops_comparison()
    by_config = {row["configuration"]: row for row in rows}
    return {
        "claim": (
            "a configurable RISC core plus an eFPGA fabric implementing "
            "application-specific instruction extensions reaches the "
            "1-GOPS class at a 200 MHz clock"
        ),
        "rows": rows,
        "verdict": {
            "extended_near_1_gops": by_config["risc+efpga(sad8)"][
                "gops@200MHz"
            ]
            > 0.9,
            "base_under_0_3_gops": by_config["base risc"]["gops@200MHz"]
            < 0.3,
            "extension_speedup_over_5x": by_config["base risc"]["cycles"]
            > 5 * by_config["risc+efpga(sad8)"]["cycles"],
        },
    }


#: Back-compat view over the engine registry, mirroring ALL_EXPERIMENTS.
from repro.engine.registry import registered as _registered  # noqa: E402

ALL_ABLATIONS: Dict[str, object] = {
    entry.name: entry.fn for entry in _registered(__name__)
}
