#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from a scenario-engine run of E1-E18.

The experiments execute through :func:`repro.engine.executor.execute`
(parallel across a worker pool, optionally cached), and the page is
rendered from the uniform :class:`ScenarioResult` records.

Run:  python scripts/generate_experiments_md.py
      python scripts/generate_experiments_md.py EXPERIMENTS.md \
          --workers 8 --cache .repro_cache
"""

import argparse
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.report import format_table
from repro.engine import registry
from repro.engine.cache import ResultCache
from repro.engine.executor import execute

#: Paper-side statements per experiment, quoted or paraphrased, plus the
#: measured quantity we compare against.
PAPER_SIDE = {
    "E1": "Mask-set NRE multiplied by ~10 in about three process "
          "generations; exceeds $1M at 90 nm (Sec. 1).",
    "E2": "A $5 chip at 20% margin must sell >1M units to pay the 90 nm "
          "mask-set NRE alone (Sec. 1).",
    "E3": "Design NRE is $10M-$100M at 0.13 um, implying 10-100M unit "
          "break-even volumes (Sec. 1).",
    "E4": "100M+ transistors hold the logic of >1000 32-bit RISC "
          "processors (Sec. 1).",
    "E5": "FPGAs serve volumes below ~100K units/year where ASICs are "
          "precluded; structured arrays and platforms fill the middle "
          "(Sec. 1).",
    "E6": "Design productivity (transistors/man-year) declines for 90 nm "
          "and beyond due to deep-submicron effects (Sec. 2).",
    "E7": "HW complexity grows 56%/year; embedded SW 140%/year; SW effort "
          "has surpassed HW effort in leading SoCs by 2003 (Sec. 6).",
    "E8": "Figure 1: processor vehicles trade time-to-market/flexibility "
          "against power/performance/cost differentiation.",
    "E9": "At 50 nm, intra-chip propagation delay is 6-10 clock cycles; "
          "a complex NoC exhibits latencies many times larger (Sec. 6.1).",
    "E10": "Topologies from bus through ring/tree to full crossbar need "
           "characterization; shared buses do not scale (Sec. 6.1).",
    "E11": "Hardware multithreading (1-cycle swap) hides high-latency "
           "operations; utilization recovers with enough threads "
           "(Sec. 6.2).",
    "E12": "eFPGA's 10x cost and power penalty restricts it to <5% of IC "
           "functionality (Sec. 6.3).",
    "E13": "Figure 2: the FPPA platform combines configurable processors, "
           "a NoC, eFPGA, standard HW IP and communication I/O; platforms "
           "span ten to hundreds of processors (Secs. 6, 7.1).",
    "E14": "Near 100% utilization of processors and threads with NoC "
           "latencies >100 cycles at a 10 Gbit/s worst-case line rate "
           "(Sec. 7.2).",
    "E15": "Tools must automate application-to-platform mapping; DSOC "
           "enables rapid exploration and optimization (Secs. 5.3, 7.2).",
    "E16": "Low-power is a must: on-chip voltage control, back-bias to "
           "master leakage, multi-Vt transistors (Sec. 4).",
    "E17": "Embedded memory architecture tradeoffs (eSRAM, eDRAM, eFlash "
           "vs external) are a main platform design issue (Sec. 3).",
    "E18": "An SRAM-based search engine beats CAM lookup on memory and "
           "power efficiency (Sec. 8, NPSE).",
}

HEADER = '''# EXPERIMENTS — paper vs measured

Generated by ``scripts/generate_experiments_md.py`` from a live run of
all 18 experiments (the same functions ``repro run`` and the
``perfbench/`` benchmark execute).  Each section states the paper's
claim, the measured headline numbers from this reproduction, and the
full regenerated table.  Absolute figures depend on the calibrated
constants documented in the model modules under ``src/repro``; the
*shape* of every result (who wins, crossovers, bands) is the
reproduction target and is asserted by
``tests/integration/test_experiments.py``.

| Exp | Paper claim (short) | Reproduced? |
|-----|---------------------|-------------|
'''


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--cache", default=None,
        help="optional engine result-cache directory",
    )
    args = parser.parse_args(argv)

    specs = [e.spec for e in registry.select(tags=["experiments"])]
    cache = ResultCache(args.cache) if args.cache else None
    report = execute(specs, workers=args.workers, cache=cache)

    sections = []
    summary_rows = []
    for result in report:
        eid = result.name
        ok = result.ok and bool(result.reproduced)
        status = "yes" if ok else "NO"
        origin = "cache" if result.cached else result.backend
        summary_rows.append(
            f"| {eid} | {PAPER_SIDE[eid].split('(')[0].strip()} | {status} |"
        )
        body = io.StringIO()
        body.write(f"\n## {eid}\n\n")
        body.write(f"**Paper**: {PAPER_SIDE[eid]}\n\n")
        body.write(f"**Claim text**: {result.claim}\n\n")
        body.write("**Measured verdict**:\n\n")
        for key, value in result.verdict.items():
            body.write(f"- `{key}` = {value}\n")
        if result.error:
            body.write(f"\n**{result.status}**:\n\n```\n{result.error}\n```\n")
        body.write(f"\n(ran in {result.elapsed_s:.1f}s via {origin})\n\n")
        body.write("```\n")
        body.write(format_table(result.rows))
        body.write("\n```\n")
        sections.append(body.getvalue())
        print(f"{eid}: {status} ({result.elapsed_s:.1f}s, {origin})")
    with open(args.path, "w") as f:
        f.write(HEADER)
        f.write("\n".join(summary_rows))
        f.write("\n")
        f.write("".join(sections))
    print(f"wrote {args.path}")
    if report.failed:
        for result in report.failed:
            print(f"\n{result.name} {result.status}:\n{result.error}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
