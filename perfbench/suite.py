"""The ``paper-suite`` workload: all registered scenarios, serially.

Each pass starts :mod:`runner` in a fresh process, so memo caches such
as ``cached_routing`` start cold as they do for a user, and times it
from outside: set-up from launch to "registry loaded", the window from
the first spec to the last result, CPU and VmHWM from ``/proc``.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import checks
import layers
import procstat
from report import Outcome, calm_rounds, latency, mid
from repro.engine import registry
from repro.engine.spec import ScenarioSpec

#: scenarios whose own wall time is reported as a per-layer metric:
#: the ones that dominate a pass.
TIMED_SCENARIOS = ("E14", "E18", "A3", "A4", "E11", "E15")

#: roughly one serial pass on a 2-core x86 host; sets passes per run.
PASS_SECONDS = 3.5


def suite_specs(seed: int) -> list:
    """Every registered scenario at its registered params.

    The spec seed is the registered seed plus the workload seed, so
    workload seed 0 reproduces EXPERIMENTS.md.
    """
    return [
        ScenarioSpec(e.spec.name, e.spec.params_dict(),
                     seed=e.spec.seed + seed, tags=e.spec.tags)
        for e in registry.all_scenarios()
    ]


def _expect(proc, wanted: str) -> str:
    line = proc.stdout.readline()
    if not line.startswith(wanted):
        raise RuntimeError(
            f"runner said {line.strip()!r}, expected {wanted!r} "
            f"(exit code {proc.poll()})"
        )
    return line


def run_pass(ctx, specs_file: Path, index: int, traced: bool) -> dict:
    """One fresh-process pass; returns its measurements and results."""
    out = ctx.workdir / f"pass-{index}.json"
    trace_dir = ctx.new_dir(f"trace-pass-{index}") if traced else None
    with open(ctx.workdir / f"runner-{index}.log", "w") as log:
        launched = time.monotonic()
        proc = ctx.start(
            [str(ctx.bench / "runner.py"), str(specs_file), str(out),
             str(trace_dir) if traced else "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            text=True,
        )
        ready = float(_expect(proc, "ready").split()[1])
        cpu_before = procstat.cpu_seconds(proc.pid)
        host_before = procstat.host_ticks()
        proc.stdin.write("go\n")
        proc.stdin.flush()
        _expect(proc, "done")
        steal = procstat.steal_share(host_before)
        cpu = procstat.cpu_seconds(proc.pid) - cpu_before
        peak = procstat.peak_rss_mib(proc.pid)
        proc.stdin.write("dump\n")
        proc.stdin.flush()
        code = ctx.finish(proc)
    if code != 0:
        raise RuntimeError(f"runner pass {index} exited with {code}")
    data = json.loads(out.read_text())
    # as for a sweep: a spec waits from the start of the run it was
    # submitted with until its result is delivered
    stamps = [stamp for _hash, stamp in data["stamps"]]
    latencies = [(stamp - data["start"]) * 1000.0 for stamp in stamps]
    return {
        "traced": traced,
        "steal": steal,
        "setup_s": ready - launched,
        "wall_s": stamps[-1] - data["start"],
        "cpu_s": cpu,
        "peak_mib": peak,
        "latencies_ms": latencies,
        "events": data["events"],
        "results": data["results"],
        "dumps": layers.load_dumps(trace_dir) if traced else [],
    }


def run(ctx, seed: int, seconds: int, trace: bool) -> Outcome:
    specs = suite_specs(seed)
    specs_file = ctx.workdir / "suite-specs.json"
    specs_file.write_text(json.dumps([s.to_dict() for s in specs]))
    if trace:
        plain = [run_pass(ctx, specs_file, 0, False)]
        passes = plain + [run_pass(ctx, specs_file, 1, True)]
    else:
        plain, passes = calm_rounds(
            lambda i: run_pass(ctx, specs_file, i, False),
            max(1, round(seconds / PASS_SECONDS)),
        )

    outcome = Outcome(attempted=len(specs) * len(passes))
    golden = checks.load_golden().get(str(seed))
    outcome.fail(checks.suite_failures(
        [p["results"] for p in passes], golden
    ))
    count = len(specs)
    latencies = [p["latencies_ms"] for p in plain]
    rates = [count / p["wall_s"] for p in plain]
    outcome.end_to_end = {
        "specs_per_s": (mid(rates), len(plain)),
        "latency_p50_ms": latency(latencies, 50),
        "latency_p90_ms": latency(latencies, 90),
        "cpu_ms_per_spec": (
            mid([p["cpu_s"] * 1000.0 / count for p in plain]), len(plain)
        ),
        "peak_rss_mb": (mid([p["peak_mib"] for p in plain]), len(plain)),
        "setup_s": (mid([p["setup_s"] for p in plain]), len(plain)),
    }
    events = {p["events"] for p in passes}
    elapsed = {
        name: mid([r["elapsed_s"] for p in plain for r in p["results"]
                   if r["name"] == name])
        for name in TIMED_SCENARIOS
    }
    outcome.per_layer = {"sim.events": max(events)}
    outcome.per_layer.update(
        {f"scenario.{name}_s": value for name, value in elapsed.items()}
    )
    outcome.notes.append(
        f"runner: {len(passes)} fresh-process passes, golden digests "
        + ("checked" if golden is not None else
           "not held for this seed (verdicts and pass-to-pass "
           "identity checked)")
    )
    for p in passes:
        use = ("traced" if p["traced"] else
               "timed" if any(p is q for q in plain) else "disturbed, unused")
        outcome.notes.append(
            f"pass ({use}): {count} specs in {p['wall_s']:.2f} s, "
            f"host steal {100 * p['steal']:.1f}%, "
            f"runner cpu {p['cpu_s']:.2f} s"
        )
    outcome.notes.append(
        f"sim.events per pass: {sorted(events)}"
        + (" (identical)" if len(events) == 1 else " (DIFFER)")
    )
    traced = [p for p in passes if p["traced"]]
    if traced:
        spans = layers.totals(d for p in traced for d in p["dumps"])
        outcome.per_layer.update(layers.from_spans(spans, count))
        traced_rate = mid([count / p["wall_s"] for p in traced])
        outcome.per_layer["trace.specs_per_s"] = traced_rate
        outcome.per_layer["trace.overhead_ratio"] = mid(rates) / traced_rate
    return outcome
