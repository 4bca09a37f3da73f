"""Serial and multiprocessing scenario execution behind one interface.

Both backends funnel through :func:`run_spec`, which derives the job's
RNG seed from the spec hash before invoking the scenario function —
so a scenario produces bit-identical rows whether it runs in-process,
in a worker pool, or on a re-run (same seed => identical result).

The process backend uses a ``fork`` context where available (workers
inherit the loaded registry); under ``spawn`` the worker re-imports
the registry via :func:`repro.engine.registry.load_all`.
"""

from __future__ import annotations

import multiprocessing
import random
import time
import traceback
from typing import Callable, Iterable, List, Optional, Sequence

from repro.engine import registry
from repro.engine.cache import ResultCache
from repro.engine.results import Report, ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS

ProgressFn = Callable[[ScenarioResult], None]

_COMPONENT = "engine.executor"

#: terminal event kind per result status (anything else is an error).
_RESULT_KINDS = {"ok": "job-finish", "timeout": "job-timeout"}


def _observe_result(result: ScenarioResult) -> None:
    """Per-result telemetry at the collection point (any backend)."""
    if result.cached:
        METRICS.counter("engine.cache_hits").inc()
    else:
        if result.ok:
            METRICS.counter("engine.jobs_completed").inc()
        METRICS.histogram("engine.job_wall_s").observe(result.elapsed_s)
        METRICS.histogram(
            f"engine.wall_s.{result.name}"
        ).observe(result.elapsed_s)
    if not result.ok:
        METRICS.counter("engine.jobs_failed").inc()
    if BUS.enabled:
        BUS.emit(
            _COMPONENT,
            "cache-hit" if result.cached
            else _RESULT_KINDS.get(result.status, "job-error"),
            spec_hash=result.spec_hash,
            scenario=result.name,
            status=result.status,
            wall_time_s=round(result.elapsed_s, 6),
            backend=result.backend,
        )


def run_spec(spec: ScenarioSpec, backend: str = "serial") -> ScenarioResult:
    """Execute one spec deterministically and capture the outcome."""
    registry.load_all()
    scn = registry.get(spec.name)
    if BUS.enabled:
        BUS.emit(
            _COMPONENT, "job-start",
            spec_hash=spec.content_hash, scenario=spec.name,
            backend=backend,
        )
    random.seed(spec.derived_seed())
    start = time.perf_counter()
    try:
        payload = scn.fn(**spec.params_dict()) or {}
        if not isinstance(payload, dict):
            raise TypeError(
                f"scenario {spec.name!r} returned "
                f"{type(payload).__name__}, expected a dict with "
                "rows/verdict/claim"
            )
        status, error = "ok", None
    except Exception:
        # the full, untruncated traceback: failures streamed out of a
        # worker (or a remote service) must be debuggable client-side
        payload, status, error = {}, "error", traceback.format_exc()
    elapsed = time.perf_counter() - start
    return ScenarioResult(
        name=spec.name,
        spec_hash=spec.content_hash,
        params=spec.params_dict(),
        seed=spec.seed,
        tags=tuple(sorted(spec.tags)),
        status=status,
        claim=payload.get("claim", ""),
        verdict=payload.get("verdict", {}),
        rows=payload.get("rows", []),
        elapsed_s=elapsed,
        backend=backend,
        error=error,
        expected_false=scn.expected_false,
    )


def _worker(spec: ScenarioSpec) -> ScenarioResult:
    return run_spec(spec, backend="process")


class SerialBackend:
    """Run scenarios one after the other in this process.

    Cannot enforce a timeout (there is no worker to abandon); callers
    wanting ``timeout_s`` honored get the process backend via
    :func:`make_backend`'s ``auto`` mode.
    """

    name = "serial"

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
    ) -> List[ScenarioResult]:
        results = []
        for spec in specs:
            result = run_spec(spec, backend=self.name)
            results.append(result)
            if progress:
                progress(result)
        return results


class ProcessBackend:
    """Fan scenarios out over a multiprocessing worker pool.

    The per-job timeout is best-effort (measured from when the
    collector starts waiting on the job).  When a job times out, the
    whole pool is terminated — reclaiming the hung worker — and the
    not-yet-collected jobs are resubmitted to a fresh pool, so one
    hung scenario neither hangs the run nor mislabels queued jobs as
    timeouts.  Work a terminated pool had already finished but not
    delivered is re-executed; determinism makes that safe.
    """

    name = "process"

    def __init__(
        self, workers: int = 2, timeout_s: Optional[float] = None
    ):
        self.workers = max(1, int(workers))
        self.timeout_s = timeout_s

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
    ) -> List[ScenarioResult]:
        registry.load_all()  # before fork, so workers inherit it
        results: List[ScenarioResult] = []
        remaining = list(specs)
        while remaining:
            remaining = self._run_batch(remaining, results, progress)
        return results

    def _run_batch(
        self,
        specs: List[ScenarioSpec],
        results: List[ScenarioResult],
        progress: Optional[ProgressFn],
    ) -> List[ScenarioSpec]:
        """One pool lifetime; returns the specs to resubmit (on timeout)."""
        pool = self._context().Pool(processes=self.workers)
        resubmit: List[ScenarioSpec] = []
        timed_out = False
        aborted = False
        try:
            pending = [
                (spec, pool.apply_async(_worker, (spec,))) for spec in specs
            ]
            for index, (spec, handle) in enumerate(pending):
                waited_from = time.perf_counter()
                try:
                    result = handle.get(self.timeout_s)
                except multiprocessing.TimeoutError:
                    timed_out = True
                    timeout_s = self.timeout_s or 0.0
                    result = ScenarioResult.from_failure(
                        spec, f"exceeded {timeout_s:.1f}s timeout",
                        status="timeout", backend=self.name,
                        elapsed_s=timeout_s,
                    )
                    resubmit = [s for s, _h in pending[index + 1:]]
                except Exception as exc:
                    # format_exception(exc) renders the whole chain —
                    # including multiprocessing's RemoteTraceback cause,
                    # i.e. the worker-side frames — verbatim; elapsed is
                    # the collector's wait (an upper bound on the run),
                    # so even pool-level failures are queryable by time
                    result = ScenarioResult.from_failure(
                        spec, "".join(traceback.format_exception(exc)),
                        backend=self.name,
                        elapsed_s=time.perf_counter() - waited_from,
                    )
                results.append(result)
                if progress:
                    try:
                        progress(result)
                    except BaseException:
                        # a raising progress callback is the caller's
                        # abort signal (the service uses it to cancel):
                        # don't let close()+join() run out the queue
                        aborted = True
                        raise
                if timed_out:
                    break
        finally:
            if timed_out or aborted:
                pool.terminate()  # close()+join() would wait on the queue
            else:
                pool.close()
            pool.join()
        return resubmit


def make_backend(
    backend: str = "auto",
    workers: int = 1,
    timeout_s: Optional[float] = None,
):
    if backend == "auto":
        # a timeout needs a worker process to abandon, so it forces
        # the process backend even at workers=1
        backend = (
            "process" if workers > 1 or timeout_s is not None else "serial"
        )
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessBackend(workers=workers, timeout_s=timeout_s)
    raise ValueError(f"unknown backend {backend!r}")


def execute(
    specs: Iterable[ScenarioSpec],
    *,
    workers: int = 1,
    timeout_s: Optional[float] = None,
    backend: str = "auto",
    cache: Optional[ResultCache] = None,
    progress: Optional[ProgressFn] = None,
) -> Report:
    """Run the given specs, consulting and filling ``cache`` if given.

    Cached scenarios are not re-executed; everything else runs on the
    selected backend.  Each fresh ``ok`` result goes into the cache as
    it lands, before ``progress`` sees it, so a run that ``progress``
    aborts keeps the results it finished.  The returned
    :class:`Report` mixes cached and fresh results, sorted by scenario
    name.
    """
    specs = list(specs)
    results: List[ScenarioResult] = []
    to_run: List[ScenarioSpec] = []

    def observed(result: ScenarioResult) -> None:
        _observe_result(result)
        if progress:
            progress(result)

    def landed(result: ScenarioResult) -> None:
        if cache is not None and result.ok:
            cache.put(result)
        observed(result)

    for spec in specs:
        hit = cache.get(spec) if cache is not None else None
        if hit is not None:
            results.append(hit)
            observed(hit)
        else:
            to_run.append(spec)
    runner = make_backend(backend, workers=workers, timeout_s=timeout_s)
    fresh = runner.run(to_run, progress=landed)
    code_version = cache.code_version if cache is not None else ""
    return Report(results=results + fresh, code_version=code_version)
