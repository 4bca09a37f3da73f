"""One serial pass of the paper suite in a fresh process.

    python3 perfbench/runner.py SPECS.json OUT.json TRACE_DIR|-

This is the ``repro run --workers 1 --no-cache`` path: the specs run
through ``repro.engine.executor.execute(backend="serial", cache=None)``
in a process whose memo caches start cold.  A line protocol on
stdin/stdout lets the parent read ``/proc`` at exactly the window
edges:

    runner: "ready <monotonic>"   registry loaded (end of set-up)
    parent: "go"
    runner: "done"                last result delivered
    parent: "dump"                /proc read; write OUT.json and exit

OUT.json holds the results, the CLOCK_MONOTONIC stamp of each result
delivery, the window start, and the simulator event count read from
``Simulator.events_executed``.  With a TRACE_DIR the full span set is
installed and written there too.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import tracer


def main(argv) -> int:
    specs_path, out_path, trace_dir = argv
    from repro.engine import registry
    from repro.engine.executor import execute
    from repro.engine.spec import ScenarioSpec

    registry.load_all()
    traced = trace_dir != "-"
    # the event count is read untraced too: a speed-only change must
    # leave it identical, so it is counted on every pass
    recorder = tracer.install(
        tracer.Recorder(), only=None if traced else {"sim.run"}
    )
    specs = [ScenarioSpec.from_dict(d)
             for d in json.loads(Path(specs_path).read_text())]
    print(f"ready {time.monotonic()!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2
    stamps = []
    start = time.monotonic()
    report = execute(
        specs, backend="serial", cache=None,
        progress=lambda result: stamps.append(
            (result.spec_hash, time.monotonic())
        ),
    )
    print("done", flush=True)
    if sys.stdin.readline().strip() != "dump":
        return 2
    recorder.active = False
    events = sum(span[4] for span in recorder.spans if span[0] == "sim.run")
    Path(out_path).write_text(json.dumps({
        "start": start,
        "stamps": stamps,
        "events": events,
        "results": [r.to_dict() for r in report.results],
    }, default=str))
    if traced:
        recorder.dump(Path(trace_dir) / f"runner-{os.getpid()}.json",
                      "runner")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
