"""Benchmark runs, the perf trajectory, and the regression gate.

One uniform payload (``repro-bench-v1``, the shape ``BENCH_RESULTS.json``
has always carried) feeds three consumers:

* ``BENCH_RESULTS.json`` — the latest full measurement, committed as
  the regression baseline;
* ``BENCH_TRAJECTORY.json`` — an append-only log of (code version,
  per-scenario wall time) entries, so perf wins and losses are visible
  over the repo's history;
* the regression gate — compares the current run against a baseline
  payload over the scenarios they share and fails (exit code 3) when
  total wall time regresses beyond a configurable threshold.

``python -m repro bench`` is the command-line face of :func:`run_bench`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.engine import registry
from repro.engine.cache import ResultCache, compute_code_version
from repro.engine.executor import execute
from repro.engine.results import Report

BENCH_SCHEMA = "repro-bench-v1"
TRAJECTORY_SCHEMA = "repro-bench-trajectory-v1"

#: Default allowed wall-time growth before the gate trips (25%).
DEFAULT_THRESHOLD = 0.25

#: Wall-time growth below this absolute floor never trips the gate (or
#: flags a scenario) — such deltas are interpreter/executor noise.
_MIN_COMPARABLE_S = 0.25

EXIT_OK = 0
EXIT_SCENARIOS_FAILED = 1
EXIT_REGRESSION = 3


def bench_payload(report: Report, workers: int) -> dict:
    """The uniform ``repro-bench-v1`` payload for an executed report."""
    benchmarks = []
    for result in report:
        metric, value = result.headline_metric()
        benchmarks.append(
            {
                "scenario": result.name,
                "params": result.params,
                "tags": sorted(result.tags),
                "status": result.status,
                "headline_metric": {"name": metric, "value": value},
                "wall_time_s": round(result.elapsed_s, 4),
                "cached": result.cached,
            }
        )
    return {
        "schema": BENCH_SCHEMA,
        "code_version": compute_code_version(),
        "workers": workers,
        "scenarios": len(benchmarks),
        "failed": len(report.failed),
        "total_wall_time_s": round(
            sum(r.elapsed_s for r in report.executed), 3
        ),
        "benchmarks": benchmarks,
    }


def trajectory_entry(payload: dict, tags: Optional[Sequence[str]]) -> dict:
    """One append-only trajectory record derived from a bench payload."""
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "code_version": payload["code_version"],
        "workers": payload["workers"],
        "tags": sorted(tags) if tags else [],
        "scenarios": payload["scenarios"],
        "failed": payload["failed"],
        "total_wall_time_s": payload["total_wall_time_s"],
        "per_scenario_wall_s": {
            b["scenario"]: b["wall_time_s"]
            for b in payload["benchmarks"]
            if not b["cached"]
        },
    }


def append_trajectory(path: str | Path, entry: dict) -> Path:
    """Append *entry* to the trajectory file, creating it if missing."""
    path = Path(path)
    data = {"schema": TRAJECTORY_SCHEMA, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except ValueError:
            loaded = None  # corrupt file: restart the log, don't crash
        if (
            isinstance(loaded, dict)
            and loaded.get("schema") == TRAJECTORY_SCHEMA
            and isinstance(loaded.get("entries"), list)
        ):
            data = loaded
    data["entries"].append(entry)
    path.write_text(json.dumps(data, indent=1, default=str) + "\n")
    return path


@dataclass
class BenchComparison:
    """Outcome of gating a bench payload against a baseline payload."""

    baseline_version: str
    current_version: str
    threshold: float
    compared: int                  # scenarios present in both runs
    baseline_total_s: float
    current_total_s: float
    regressions: List[str]         # per-scenario informational flags
    regressed: bool                # total exceeded the threshold
    #: scenarios left out of the comparison because one side replayed
    #: them from the result cache (a replay's wall time measures the
    #: cache, not the scenario — comparing it would mask regressions
    #: or fake wins).
    excluded_cached: int = 0

    @property
    def ratio(self) -> float:
        if self.baseline_total_s <= 0:
            return 1.0
        return self.current_total_s / self.baseline_total_s

    def render(self) -> str:
        lines = [
            f"baseline {self.baseline_version} -> current "
            f"{self.current_version}: {self.compared} comparable scenarios",
            f"wall time {self.baseline_total_s:.2f}s -> "
            f"{self.current_total_s:.2f}s ({self.ratio:.2f}x, "
            f"threshold {1.0 + self.threshold:.2f}x)",
        ]
        if self.excluded_cached:
            lines.append(
                f"  {self.excluded_cached} scenario(s) excluded from the "
                "gate: cache replays, not fresh measurements"
            )
        for name in self.regressions:
            lines.append(f"  slower: {name}")
        lines.append(
            "REGRESSION: total wall time over threshold"
            if self.regressed
            else "regression gate passed"
        )
        return "\n".join(lines)


def _wall_times(payload: dict) -> Dict[str, float]:
    """Scenario -> fresh wall time; cache replays are never comparable."""
    return {
        b["scenario"]: b["wall_time_s"]
        for b in payload.get("benchmarks", [])
        if b.get("status") == "ok" and not b.get("cached")
    }


def _names(payload: dict) -> set:
    return {
        b["scenario"]
        for b in payload.get("benchmarks", [])
        if b.get("status") == "ok"
    }


def compare_payloads(
    current: dict, baseline: dict, threshold: float = DEFAULT_THRESHOLD
) -> BenchComparison:
    """Gate *current* against *baseline* over their shared scenarios.

    Only the intersection is compared, so a ``--tags smoke`` run gates
    cleanly against a committed full-suite baseline.  Scenarios either
    side replayed from the result cache (``"cached": true``) are
    excluded — a replay's wall time measures the cache, so letting it
    into the comparison would mask a real regression or fake a win —
    and the exclusion count is reported.  The pass/fail verdict is on
    the summed wall time; per-scenario slowdowns beyond the threshold
    are reported informationally (they are noisy in isolation,
    especially under worker contention).
    """
    base = _wall_times(baseline)
    cur = _wall_times(current)
    shared = sorted(set(base) & set(cur), key=registry.natural_key)
    excluded_cached = len(
        (_names(current) & _names(baseline)) - set(shared)
    )
    base_total = sum(base[name] for name in shared)
    cur_total = sum(cur[name] for name in shared)
    regressions = [
        f"{name}: {base[name]:.2f}s -> {cur[name]:.2f}s"
        for name in shared
        if cur[name] > base[name] * (1.0 + threshold)
        and cur[name] - base[name] > _MIN_COMPARABLE_S
    ]
    return BenchComparison(
        baseline_version=baseline.get("code_version", "?"),
        current_version=current.get("code_version", "?"),
        threshold=threshold,
        compared=len(shared),
        baseline_total_s=round(base_total, 3),
        current_total_s=round(cur_total, 3),
        regressions=regressions,
        regressed=(
            bool(shared)
            and cur_total > base_total * (1.0 + threshold)
            and cur_total - base_total > _MIN_COMPARABLE_S
        ),
        excluded_cached=excluded_cached,
    )


PROFILE_SCHEMA = "repro-bench-profile-v1"


def profile_payload(
    entries: Sequence, top: int = 20, quiet: bool = False
) -> dict:
    """cProfile every entry serially; keep the top cumulative functions.

    Returns the ``repro-bench-profile-v1`` payload: per scenario, its
    profiled wall time and the *top* functions by cumulative time
    (``ncalls``/``tottime``/``cumtime``) — the data future perf PRs
    should start from instead of guessing.
    """
    import cProfile
    import pstats

    from repro.engine.executor import run_spec

    scenarios = []
    for entry in entries:
        profiler = cProfile.Profile()
        start = time.perf_counter()
        profiler.enable()
        result = run_spec(entry.spec, backend="profile")
        profiler.disable()
        elapsed = time.perf_counter() - start
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        functions = []
        for func in stats.fcn_list[: top + 5]:  # type: ignore[attr-defined]
            file, line, name = func
            cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
            if name in ("<built-in method builtins.exec>",) or (
                file == "~" and "profiler" in name
            ):
                continue
            functions.append(
                {
                    "function": name,
                    "file": file,
                    "line": line,
                    "ncalls": ncalls,
                    "primitive_calls": cc,
                    "tottime_s": round(tottime, 4),
                    "cumtime_s": round(cumtime, 4),
                }
            )
            if len(functions) == top:
                break
        scenarios.append(
            {
                "scenario": entry.name,
                "status": result.status,
                "wall_time_s": round(elapsed, 4),
                "top_functions": functions,
            }
        )
        if not quiet:
            print(f"  {entry.name:<14} {result.status:<7} {elapsed:.2f}s")
    return {
        "schema": PROFILE_SCHEMA,
        "code_version": compute_code_version(),
        "top": top,
        "scenarios": scenarios,
    }


def run_profile(
    tags: Optional[Sequence[str]] = None,
    names: Optional[Sequence[str]] = None,
    out: str | Path = "BENCH_PROFILE.json",
    top: int = 20,
    quiet: bool = False,
) -> int:
    """``python -m repro bench --profile``: write ``BENCH_PROFILE.json``.

    Runs serially (a profiler per worker process would be meaningless)
    and skips the trajectory and the regression gate — profiled wall
    times carry instrumentation overhead and must never be compared
    against uninstrumented baselines.
    """
    entries = registry.select(tags=list(tags) if tags else None,
                              names=list(names) if names else None)
    if not entries:
        print("no scenarios selected")
        return 2
    payload = profile_payload(entries, top=top, quiet=quiet)
    Path(out).write_text(json.dumps(payload, indent=1, default=str) + "\n")
    failed = sum(1 for s in payload["scenarios"] if s["status"] != "ok")
    print(
        f"\nwrote {out}: {len(payload['scenarios'])} scenarios profiled, "
        f"top {top} cumulative functions each"
    )
    return EXIT_SCENARIOS_FAILED if failed else EXIT_OK


def run_bench(
    tags: Optional[Sequence[str]] = None,
    names: Optional[Sequence[str]] = None,
    workers: int = 4,
    timeout_s: Optional[float] = 300.0,
    out: str | Path = "BENCH_RESULTS.json",
    trajectory: Optional[str | Path] = "BENCH_TRAJECTORY.json",
    baseline: Optional[str | Path] = None,
    threshold: float = DEFAULT_THRESHOLD,
    cache_dir: Optional[str | Path] = None,
    quiet: bool = False,
) -> int:
    """Execute the selected scenarios and run the perf bookkeeping.

    The baseline defaults to whatever *out* held before this run (the
    committed results file); pass ``baseline=""`` to skip the gate and
    ``trajectory=None`` to skip the log.  Benchmarks run uncached by
    default so wall times are real.
    """
    entries = registry.select(tags=list(tags) if tags else None,
                              names=list(names) if names else None)
    if not entries:
        print("no scenarios selected")
        return 2
    explicit_baseline = baseline not in (None, "")
    baseline_path = Path(baseline) if explicit_baseline else Path(out)
    baseline_payload = None
    if baseline != "" and baseline_path.exists():
        try:
            loaded = json.loads(baseline_path.read_text())
        except ValueError:
            loaded = None
        if isinstance(loaded, dict) and loaded.get("schema") == BENCH_SCHEMA:
            baseline_payload = loaded
        elif explicit_baseline:
            # A requested gate that cannot load must fail loudly, not
            # silently wave regressions through.
            print(
                f"error: baseline {baseline_path} is not a "
                f"{BENCH_SCHEMA} payload"
            )
            return 2
    elif explicit_baseline:
        print(f"error: baseline {baseline_path} does not exist")
        return 2

    def progress(result) -> None:
        if not quiet:
            print(
                f"  {result.name:<14} {result.status:<7} "
                f"{result.elapsed_s:.2f}s",
                flush=True,
            )

    report = execute(
        [e.spec for e in entries],
        workers=workers,
        timeout_s=timeout_s,
        cache=ResultCache(cache_dir) if cache_dir else None,
        progress=progress,
    )
    payload = bench_payload(report, workers)
    Path(out).write_text(json.dumps(payload, indent=1, default=str) + "\n")
    print(
        f"\nwrote {out}: {payload['scenarios']} scenarios, "
        f"{payload['failed']} failed, "
        f"{payload['total_wall_time_s']:.2f}s total"
    )
    replayed = sum(1 for b in payload["benchmarks"] if b["cached"])
    if replayed:
        print(
            f"warning: {replayed} scenario(s) replayed from the result "
            "cache (marked \"cached\": true); their wall times are not "
            "fresh measurements and are excluded from the regression "
            "gate — this payload is not a full benchmark baseline"
        )
    if trajectory:
        append_trajectory(trajectory, trajectory_entry(payload, tags))
        print(f"appended trajectory entry to {trajectory}")
    exit_code = EXIT_SCENARIOS_FAILED if report.failed else EXIT_OK
    if baseline_payload is not None:
        comparison = compare_payloads(payload, baseline_payload, threshold)
        print()
        print(comparison.render())
        if comparison.regressed and exit_code == EXIT_OK:
            exit_code = EXIT_REGRESSION
    elif baseline != "":
        print(f"no baseline at {baseline_path}; regression gate skipped")
    return exit_code
