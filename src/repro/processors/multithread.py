"""Hardware-multithreaded processing element.

Section 6.2: "Multithreading lets the processor execute other streams
while another thread is blocked on a high latency operation.  A hardware
multithreaded processor has separate register banks for different
threads, with hardware units that schedule threads and swap them in one
cycle."  This model is the heart of experiments E11 and E14: it shows
near-100% core utilization in the face of >100-cycle NoC latencies once
enough thread contexts exist.

Model
-----
The core issues from one thread at a time.  A thread alternates compute
segments (which occupy the core) and remote operations (which do not —
split transactions).  Swapping to a different thread costs
``swap_cycles`` (1 for hardware multithreading; tens to hundreds for a
software context switch, which experiment E11's ablation sweeps).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.core import Event, SimulationError, Simulator, Timeout
from repro.sim.resources import Resource


class ThreadContext:
    """Per-thread handle passed to thread body generators.

    Thread bodies use ``yield from ctx.compute(n)`` for work that
    occupies the core for *n* cycles, and ``yield from ctx.remote(ev)``
    to wait on a split transaction (the core is surrendered while
    waiting).
    """

    def __init__(self, pe: "HardwareMultithreadedPE", thread_id: int) -> None:
        self.pe = pe
        self.thread_id = thread_id
        self.sim: Simulator = pe.sim
        self.completed_items = 0
        self.compute_cycles = 0.0
        self.stall_cycles = 0.0

    def compute(self, cycles: float) -> Generator[Any, Any, None]:
        """Occupy the core for *cycles* of useful work."""
        if cycles < 0:
            raise SimulationError(f"negative compute time {cycles}")
        yield self.pe._acquire(self.thread_id)
        yield Timeout(cycles)
        self.compute_cycles += cycles
        self.pe._busy_cycles += cycles
        self.pe._release()

    def remote(self, event: Event) -> Generator[Any, Any, Any]:
        """Wait for a split transaction without holding the core."""
        start = self.sim.now
        value = yield event
        self.stall_cycles += self.sim.now - start
        return value

    def remote_delay(self, cycles: float) -> Generator[Any, Any, None]:
        """Convenience: a fixed-latency remote operation."""
        start = self.sim.now
        yield Timeout(cycles)
        self.stall_cycles += self.sim.now - start

    def item_done(self) -> None:
        """Mark one work item completed (throughput accounting)."""
        self.completed_items += 1
        self.pe.completed_items += 1


ThreadBody = Callable[[ThreadContext], Generator[Any, Any, Any]]


class HardwareMultithreadedPE:
    """A processor core with N hardware thread contexts.

    Parameters
    ----------
    sim:
        Simulation kernel.
    num_threads:
        Hardware contexts (register banks).
    swap_cycles:
        Cost of switching the core to a different thread.  1.0 models
        the paper's single-cycle hardware swap; pass e.g. 100 to model
        a software (OS) context switch.
    name:
        Label for reports.
    """

    def __init__(
        self,
        sim: Simulator,
        num_threads: int = 4,
        swap_cycles: float = 1.0,
        name: str = "pe",
    ) -> None:
        if num_threads < 1:
            raise SimulationError(f"need >=1 thread, got {num_threads}")
        if swap_cycles < 0:
            raise SimulationError(f"negative swap cost {swap_cycles}")
        self.sim = sim
        self.num_threads = num_threads
        self.swap_cycles = swap_cycles
        self.name = name
        self._core = Resource(sim, capacity=1, name=f"{name}.core")
        self._current_thread: Optional[int] = None
        self._busy_cycles = 0.0
        self._swap_overhead_cycles = 0.0
        self.completed_items = 0
        self.contexts: list[ThreadContext] = []
        self._start_time = sim.now

    def spawn_thread(self, body: ThreadBody) -> ThreadContext:
        """Create a context and start *body* on it."""
        if len(self.contexts) >= self.num_threads:
            raise SimulationError(
                f"{self.name} has only {self.num_threads} hardware contexts"
            )
        ctx = ThreadContext(self, len(self.contexts))
        self.contexts.append(ctx)
        self.sim.spawn(body(ctx), name=f"{self.name}.t{ctx.thread_id}")
        return ctx

    def _acquire(self, thread_id: int) -> Event:
        """Request the core for a thread; charges swap cost on a switch."""
        grant = self._core.request()
        done = self.sim.event(f"{self.name}.grant")

        def on_grant(_ev: Event) -> None:
            if self._current_thread is not None and self._current_thread != thread_id:
                swap = self.swap_cycles
                self._swap_overhead_cycles += swap
                self._current_thread = thread_id

                def after_swap() -> None:
                    done.succeed(None)

                self.sim.schedule(swap, after_swap)
            else:
                self._current_thread = thread_id
                done.succeed(None)

        if grant.triggered:
            on_grant(grant)
        else:
            grant.callbacks.append(on_grant)
        return done

    def _release(self) -> None:
        self._core.release()

    # -- metrics -------------------------------------------------------------

    def utilization(self) -> float:
        """Useful-work fraction of elapsed core time (excludes swaps)."""
        elapsed = self.sim.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return self._busy_cycles / elapsed

    def occupancy(self) -> float:
        """Busy-or-swapping fraction of elapsed core time."""
        elapsed = self.sim.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return (self._busy_cycles + self._swap_overhead_cycles) / elapsed

    @property
    def busy_cycles(self) -> float:
        return self._busy_cycles

    def throughput(self) -> float:
        """Completed work items per cycle."""
        elapsed = self.sim.now - self._start_time
        return self.completed_items / elapsed if elapsed > 0 else 0.0


def ideal_utilization(
    num_threads: int,
    compute_cycles: float,
    remote_latency: float,
) -> float:
    """Closed-form utilization bound for the alternating workload.

    A thread computes for ``compute_cycles`` then waits
    ``remote_latency``; with N threads interleaving, core utilization is
    ``min(1, N * c / (c + L))``.  The simulated PE should approach this
    bound (minus swap overhead) — experiment E11 checks it.
    """
    if num_threads < 1:
        raise ValueError(f"need >=1 thread, got {num_threads}")
    if compute_cycles <= 0:
        raise ValueError(f"compute segment must be positive, got {compute_cycles}")
    if remote_latency < 0:
        raise ValueError(f"negative latency {remote_latency}")
    return min(1.0, num_threads * compute_cycles / (compute_cycles + remote_latency))


def run_latency_hiding_experiment(
    num_threads: int,
    compute_cycles: float,
    remote_latency: float,
    duration: float = 20000.0,
    swap_cycles: float = 1.0,
) -> dict[str, float]:
    """Simulate the canonical compute/remote alternation and report.

    Returns utilization, occupancy, throughput, and the analytic bound
    for comparison.
    """
    sim = Simulator()
    pe = HardwareMultithreadedPE(
        sim, num_threads=num_threads, swap_cycles=swap_cycles
    )

    def body(ctx: ThreadContext):
        while ctx.sim.now < duration:
            yield from ctx.compute(compute_cycles)
            yield from ctx.remote_delay(remote_latency)
            ctx.item_done()

    for _ in range(num_threads):
        pe.spawn_thread(body)
    sim.run(until=duration)
    return {
        "num_threads": num_threads,
        "compute_cycles": compute_cycles,
        "remote_latency": remote_latency,
        "utilization": pe.utilization(),
        "occupancy": pe.occupancy(),
        "throughput": pe.throughput(),
        "ideal": ideal_utilization(num_threads, compute_cycles, remote_latency),
    }
