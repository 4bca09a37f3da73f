"""Consumer multimedia workload.

Section 8's outlook extends the MP-SoC programming models "for consumer
multimedia applications like image processing and digital video"; the
introduction names set-top box / DVD / audio as the products where
software licenses exceed silicon cost.  This module provides a video
decoder pipeline as a task graph (for the mapping tools) plus frame-
rate feasibility checks.
"""

from __future__ import annotations

from typing import Dict

from repro.mapping.evaluate import PlatformModel, evaluate_mapping
from repro.noc.routing import cached_routing
from repro.mapping.mapper import communication_aware_map
from repro.mapping.taskgraph import Task, TaskGraph

#: Frames-per-second targets per product class.
FRAME_RATE_TARGETS: Dict[str, float] = {
    "dvd_sd": 30.0,
    "settop_sd": 30.0,
    "digital_video_hd": 60.0,
    "camera_preview": 15.0,
}

#: Per-macroblock reference cycle weights for the decoder stages
#: (GP-RISC reference; DSP/hardwired affinities below).
_STAGE_CYCLES = {
    "bitstream_parse": 300.0,
    "vld": 900.0,
    "inverse_quant": 400.0,
    "idct": 1400.0,
    "motion_comp": 1200.0,
    "deblock": 800.0,
    "color_convert": 700.0,
    "display_dma": 150.0,
}

#: Stage affinities: signal-processing stages run much faster on DSPs.
_STAGE_AFFINITY = {
    "vld": (("asip", 6.0),),
    "inverse_quant": (("dsp", 4.0),),
    "idct": (("dsp", 5.0), ("asip", 8.0)),
    "motion_comp": (("dsp", 4.0),),
    "deblock": (("dsp", 3.5),),
    "color_convert": (("dsp", 4.0),),
}


def video_pipeline_graph(
    macroblocks_per_frame: int = 1350,
    parallel_slices: int = 4,
) -> TaskGraph:
    """A video decode pipeline with slice-level data parallelism.

    The front end (parse, VLD) is serial; IDCT/MC/deblock fan out over
    *parallel_slices*; colour conversion and display close the pipe.
    Compute weights are per *frame* (macroblock weight x count).
    """
    if macroblocks_per_frame < 1:
        raise ValueError(
            f"need >=1 macroblock, got {macroblocks_per_frame}"
        )
    if parallel_slices < 1:
        raise ValueError(f"need >=1 slice, got {parallel_slices}")
    graph = TaskGraph(name=f"video-{parallel_slices}slice")
    mb = macroblocks_per_frame

    def stage_task(name: str, share: float = 1.0) -> Task:
        return Task(
            name,
            _STAGE_CYCLES[name.split(".")[0]] * mb * share,
            _STAGE_AFFINITY.get(name.split(".")[0], ()),
        )

    graph.add_task(stage_task("bitstream_parse"))
    graph.add_task(stage_task("vld"))
    graph.add_edge("bitstream_parse", "vld", 64_000.0)
    per_slice = 1.0 / parallel_slices
    for s in range(parallel_slices):
        for stage in ("inverse_quant", "idct", "motion_comp", "deblock"):
            graph.add_task(stage_task(f"{stage}.{s}", per_slice))
        graph.add_edge("vld", f"inverse_quant.{s}", 32_000.0 * per_slice)
        graph.add_edge(f"inverse_quant.{s}", f"idct.{s}", 48_000.0 * per_slice)
        graph.add_edge(f"idct.{s}", f"motion_comp.{s}", 96_000.0 * per_slice)
        graph.add_edge(f"motion_comp.{s}", f"deblock.{s}", 96_000.0 * per_slice)
    graph.add_task(stage_task("color_convert"))
    graph.add_task(stage_task("display_dma"))
    for s in range(parallel_slices):
        graph.add_edge(f"deblock.{s}", "color_convert", 96_000.0 * per_slice)
    graph.add_edge("color_convert", "display_dma", 128_000.0)
    return graph


def frame_rate_on_platform(
    platform: PlatformModel,
    clock_ghz: float = 0.3,
    macroblocks_per_frame: int = 1350,
    parallel_slices: int = 4,
) -> float:
    """Achievable frames per second with communication-aware mapping."""
    graph = video_pipeline_graph(macroblocks_per_frame, parallel_slices)
    mapping = communication_aware_map(graph, platform)
    cost = evaluate_mapping(
        graph, platform, mapping, cached_routing(platform.topology)
    )
    seconds_per_frame = cost.makespan_cycles / (clock_ghz * 1e9)
    return 1.0 / seconds_per_frame
