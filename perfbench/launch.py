"""Run one ``repro`` command with the span wrappers installed.

    python3 perfbench/launch.py ROLE TRACE_DIR -- <repro arguments>

Installs :mod:`tracer` in this process, then runs
``repro.engine.cli.main`` with the arguments after ``--``; the spans
are written to ``TRACE_DIR/ROLE-<pid>.json`` when the process exits.
The traced topology starts every coordinator, front, pool and worker
this way instead of ``python -m repro``.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

import tracer


def main(argv) -> int:
    role, trace_dir, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py ROLE TRACE_DIR -- ARGS...")
    recorder = tracer.install(tracer.Recorder())
    atexit.register(
        recorder.dump, Path(trace_dir) / f"{role}-{os.getpid()}.json", role
    )
    from repro.engine.cli import main as repro_main

    return repro_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
