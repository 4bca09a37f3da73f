"""The engine executor and its cache, as one ``run(specs)`` call.

:class:`LocalBackend` is what ``repro run``, a plain ``repro serve``
and every cluster worker execute specs through, so the on-disk result
cache, deterministic seeding and warehouse recording are the same
wherever a spec runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

from repro.engine.cache import ResultCache
from repro.engine.executor import execute
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec

ProgressFn = Callable[[ScenarioResult], None]


class LocalBackend:
    """The engine executor plus its cache.

    The executor runs serially, or on a process pool when
    ``workers > 1`` or a ``timeout_s`` is set (a timeout needs a
    worker process to abandon).

    ``run`` returns results in *completion* order and invokes
    ``progress`` once per result as it lands, the contract streaming
    is built on; it is safe to call from a worker thread (a server
    runs it off the event loop).  When constructed with a
    ``warehouse`` (a
    :class:`~repro.telemetry.warehouse.ResultsWarehouse` or a path to
    one), every result — fresh, failed, or cache replay — is recorded
    as a warehouse row under ``label``, the submitting job's id, so a
    whole run history is queryable with ``repro query``.
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: Optional[float] = None,
        cache: Union[ResultCache, str, Path, None] = None,
        warehouse=None,
    ):
        self.workers = workers
        self.timeout_s = timeout_s
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        if isinstance(warehouse, (str, Path)):
            from repro.telemetry.warehouse import ResultsWarehouse

            warehouse = ResultsWarehouse(warehouse, source="local")
        self.warehouse = warehouse

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[ProgressFn] = None,
        *,
        label: Optional[str] = None,
    ) -> List[ScenarioResult]:
        completed: List[ScenarioResult] = []
        job_id = label or ""

        def observe(result: ScenarioResult) -> None:
            completed.append(result)
            if self.warehouse is not None:
                self.warehouse.record_result(result, job_id=job_id)
            if progress:
                progress(result)

        execute(
            specs,
            workers=self.workers,
            timeout_s=self.timeout_s,
            cache=self.cache,
            progress=observe,
        )
        return completed

    def describe(self) -> str:
        cache = self.cache.root if self.cache is not None else "off"
        return f"local(workers={self.workers}, cache={cache})"
