"""The repo benchmark: four seeded workloads, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` adds a traced
round (see ``launch.py``) and reports the per-layer metrics and the
tracing overhead.  Human-readable lines go first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import layers
import procstat
from report import END_TO_END

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: BENCHMARK.json gates only ``paper-suite`` and ``sweep``.  On a
#: shared virtual machine the other two follow the host's load too
#: closely to gate: ``interactive`` is latency-bound (its throughput
#: halves whenever the hypervisor steals 10-15% of the CPUs) and
#: ``sweep-federated`` keeps five processes busy on two vCPUs (ten runs
#: spread by up to a quarter of their median).  Both run by hand.
WORKLOADS = ("paper-suite", "sweep", "interactive", "sweep-federated")
#: a run that has not finished by then is killed with its processes.
WATCHDOG_S = 170.0


class Context:
    """Where a run keeps its files, and the processes it started."""

    def __init__(self, workdir: Path):
        self.bench = BENCH
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        TMPDIR=str(workdir))
        self.env.pop("REPRO_EVENTS", None)
        self.env.pop("REPRO_WAREHOUSE", None)
        self.children = []

    def start(self, argv, **popen):
        """A Python child (``argv`` after the interpreter) in the root."""
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT,
                                env=self.env, **popen)
        self.children.append(proc)
        return proc

    def finish(self, proc, timeout: float = 60.0) -> int:
        """Wait for ``proc``; kill it past ``timeout``.  Its exit code
        (negative when it had to be killed)."""
        try:
            return proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9

    def new_dir(self, name: str) -> Path:
        path = self.workdir / name
        path.mkdir()
        return path

    def kill_all(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.kill()
        for proc in self.children:
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure(ctx: Context, args):
    # the workload modules import the program, so src/ must be on the
    # path before they load
    host_before = procstat.host_ticks()
    if args.workload == "paper-suite":
        import suite

        outcome = suite.run(ctx, args.seed, args.seconds, bool(args.trace))
    else:
        import cluster

        outcome = cluster.run(ctx, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    outcome.notes.append(
        "host steal during the run: "
        f"{100.0 * procstat.steal_share(host_before):.1f}% of CPU time "
        "(wall-time metrics slow down with it)"
    )
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}  "
          f"failed_ratio {outcome.failed / max(1, outcome.attempted):.6f}")
    for line in outcome.failures[:20]:
        print(f"  FAILED {line}")
    for line in outcome.notes:
        print(f"  {line}")
    metrics = {}
    if args.trace:
        for name, unit, _better in layers.PER_LAYER:
            value = float(outcome.per_layer.get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:14.6f} {unit}")
    else:
        for name, unit, _better, _bound in END_TO_END:
            value, samples = outcome.end_to_end[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:16s} {value:12.4f} {unit:8s} n={samples}")
        for name, unit, _better in layers.PER_LAYER:
            if name in outcome.per_layer:
                print(f"  {name:40s} {outcome.per_layer[name]:14.6f} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "engine" / "cli.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the build step: byte-compile the program (and this benchmark) so
    # every process, the first run's included, imports cached bytecode
    # the way an installed program does; a no-op once it is current
    for tree in (SRC / "repro", BENCH):
        compileall.compile_dir(tree, quiet=1)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    ctx = Context(Path(tempfile.mkdtemp(prefix="run-", dir=scratch)))
    os.environ["TMPDIR"] = str(ctx.workdir)

    def abort() -> None:
        print("error: run exceeded its time limit", file=sys.stderr)
        ctx.kill_all()
        os._exit(3)

    watchdog = threading.Timer(WATCHDOG_S, abort)
    watchdog.daemon = True
    watchdog.start()
    # SIGTERM unwinds through the finally below, which stops the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = measure(ctx, args)
    finally:
        watchdog.cancel()
        ctx.kill_all()
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            scratch.rmdir()  # unless a concurrent run still uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
