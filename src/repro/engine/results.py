"""Uniform scenario result records and their aggregation.

Every backend (serial, process pool, cache replay) produces the same
:class:`ScenarioResult`; a run of many scenarios aggregates into one
:class:`Report` that renders as text or round-trips through JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.engine.spec import ScenarioSpec


@dataclass(frozen=True)
class ScenarioResult:
    """The outcome of executing one :class:`ScenarioSpec`."""

    name: str
    spec_hash: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    tags: Tuple[str, ...] = ()
    status: str = "ok"              # ok | error | timeout
    claim: str = ""
    verdict: Dict[str, Any] = field(default_factory=dict)
    rows: List[dict] = field(default_factory=list)
    elapsed_s: float = 0.0
    backend: str = "serial"
    cached: bool = False
    code_version: str = ""
    error: Optional[str] = None
    #: verdict keys that are negative controls — expected False; set
    #: by the scenario's @scenario(expected_false=...) declaration.
    expected_false: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def reproduced(self) -> Optional[bool]:
        """Whether every boolean verdict holds (negative controls excepted).

        ``None`` when the scenario failed or asserts nothing boolean.
        """
        if not self.ok:
            return None
        bools = {
            k: v for k, v in self.verdict.items() if isinstance(v, bool)
        }
        if not bools:
            return None
        return all(v or k in self.expected_false for k, v in bools.items())

    def headline_metric(self) -> Tuple[str, Any]:
        """The first numeric (non-bool) verdict entry, or the row count."""
        for key, value in self.verdict.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return key, value
        return "rows", len(self.rows)

    @classmethod
    def from_failure(
        cls,
        spec: ScenarioSpec,
        error: str,
        *,
        backend: str,
        status: str = "error",
        elapsed_s: float = 0.0,
    ) -> "ScenarioResult":
        """A non-ok result for *spec*: an error, or a timeout.

        It carries the spec's hash, plain params, seed and tags as a
        run's result does, plus its wall time, so failures are
        queryable in the warehouse, not just printable tracebacks.
        """
        return cls(
            name=spec.name,
            spec_hash=spec.content_hash,
            params=spec.params_dict(),
            seed=spec.seed,
            tags=tuple(sorted(spec.tags)),
            status=status,
            elapsed_s=elapsed_s,
            backend=backend,
            error=error,
        )

    def as_cached(self) -> "ScenarioResult":
        return replace(self, cached=True, backend="cache")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "params": dict(self.params),
            "seed": self.seed,
            "tags": list(self.tags),
            "status": self.status,
            "claim": self.claim,
            "verdict": dict(self.verdict),
            "rows": list(self.rows),
            "elapsed_s": self.elapsed_s,
            "backend": self.backend,
            "cached": self.cached,
            "code_version": self.code_version,
            "error": self.error,
            "expected_false": list(self.expected_false),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            name=data["name"],
            spec_hash=data["spec_hash"],
            params=dict(data.get("params") or {}),
            seed=data.get("seed", 0),
            tags=tuple(data.get("tags") or ()),
            status=data.get("status", "ok"),
            claim=data.get("claim", ""),
            verdict=dict(data.get("verdict") or {}),
            rows=list(data.get("rows") or []),
            elapsed_s=data.get("elapsed_s", 0.0),
            backend=data.get("backend", "serial"),
            cached=data.get("cached", False),
            code_version=data.get("code_version", ""),
            error=data.get("error"),
            expected_false=tuple(data.get("expected_false") or ()),
        )

    def comparable_payload(self) -> Dict[str, Any]:
        """The deterministic part of the result (for equivalence checks)."""
        return {
            "name": self.name,
            "spec_hash": self.spec_hash,
            "status": self.status,
            "verdict": self.verdict,
            "rows": self.rows,
        }


@dataclass
class Report:
    """An aggregated run of many scenarios."""

    results: List[ScenarioResult] = field(default_factory=list)
    code_version: str = ""

    def __post_init__(self) -> None:
        from repro.engine.registry import natural_key

        self.results = sorted(self.results, key=lambda r: natural_key(r.name))

    # -- access -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def get(self, name: str) -> Optional[ScenarioResult]:
        for result in self.results:
            if result.name == name:
                return result
        return None

    @property
    def executed(self) -> List[ScenarioResult]:
        return [r for r in self.results if not r.cached]

    @property
    def from_cache(self) -> List[ScenarioResult]:
        return [r for r in self.results if r.cached]

    @property
    def failed(self) -> List[ScenarioResult]:
        return [r for r in self.results if not r.ok]

    # -- rendering ----------------------------------------------------------

    def summary_rows(self) -> List[dict]:
        rows = []
        for result in self.results:
            metric, value = result.headline_metric()
            reproduced = result.reproduced
            rows.append(
                {
                    "scenario": result.name,
                    "status": result.status,
                    "reproduced": "-" if reproduced is None else reproduced,
                    "backend": result.backend,
                    "cached": result.cached,
                    "elapsed_s": round(result.elapsed_s, 3),
                    "headline": f"{metric}={value}",
                }
            )
        return rows

    def render(self) -> str:
        from repro.analysis.report import format_table

        lines = [format_table(self.summary_rows())]
        total = sum(r.elapsed_s for r in self.executed)
        lines.append("")
        lines.append(
            f"{len(self.results)} scenarios: "
            f"{len(self.executed)} executed, {len(self.from_cache)} cached, "
            f"{len(self.failed)} failed ({total:.2f}s compute)"
        )
        for result in self.failed:
            lines.append(f"  {result.name}: {result.status}: {result.error}")
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code_version": self.code_version,
            "results": [r.to_dict() for r in self.results],
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=1, default=str))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Report":
        data = json.loads(Path(path).read_text())
        return cls(
            results=[ScenarioResult.from_dict(r) for r in data["results"]],
            code_version=data.get("code_version", ""),
        )
