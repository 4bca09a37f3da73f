"""Outside-in process accounting read from ``/proc/<pid>``.

CPU is the on-CPU time of every thread of the process, summed from
``/proc/<pid>/task/*/schedstat`` (nanoseconds, user and system alike;
a thread that already exited is no longer listed, and none of the
measured processes ends a thread inside a timed window).  Peak memory
is ``VmHWM`` from ``/proc/<pid>/status``.  Both work on any live
process the benchmark started, without its cooperation.
"""

from __future__ import annotations

import os
import resource


def cpu_seconds(pid: int) -> float:
    """CPU seconds consumed so far by the live threads of ``pid``."""
    total = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as fh:
                total += int(fh.read().split()[0])
        except FileNotFoundError:
            continue  # the thread ended between listdir and open
    return total / 1e9


def own_cpu_seconds() -> float:
    """CPU seconds of this process, threads that ended included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def host_ticks() -> tuple:
    """(steal, total) CPU ticks of this machine from ``/proc/stat``:
    steal is time the hypervisor ran something else on our CPUs."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: tuple) -> float:
    """Share of CPU time stolen by the hypervisor since ``before``
    (a :func:`host_ticks` reading)."""
    steal, total = host_ticks()
    return (steal - before[0]) / max(1, total - before[1])


def peak_rss_mib(pid: int) -> float:
    """High-water resident set size (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")
