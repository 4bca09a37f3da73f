"""Decorator-based scenario registry with tag selection.

Domain modules declare workloads with :func:`scenario`; the engine
discovers them through :func:`load_all`, which imports every module
known to register scenarios (the 18 experiments, the nine ablations,
the mapping DSE sweep).  The registry is the single namespace the
executor, the cache and the CLI operate on.

A scenario function takes its params as keyword arguments and returns
a dict with ``rows`` (list of flat dicts) and optionally ``claim`` and
``verdict`` — the contract :mod:`repro.analysis.experiments`
established.
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.spec import ScenarioSpec

_REGISTRY: Dict[str, "Scenario"] = {}
_LOADED = False
_DISCOVERED: Optional[Tuple[str, ...]] = None

#: source marker identifying a scenario-bearing module: a use of the
#: ``@scenario`` decorator or a direct ``register(...)`` call, under
#: their canonical names.  That naming is the discovery contract —
#: aliasing the decorator (``import scenario as x``) hides a module
#: from the scan; a false positive merely costs one harmless import.
_SCENARIO_MARKER = re.compile(
    r"^\s*@?(?:registry\.)?(?:scenario|register)\(", re.MULTILINE
)


def discover_scenario_modules() -> Tuple[str, ...]:
    """Every ``repro.*`` module whose source applies ``@scenario``.

    Replaces the old hand-maintained ``SCENARIO_MODULES`` tuple, where
    a forgotten entry silently dropped scenarios from :func:`load_all`.
    Discovery scans the package *source tree* rather than importing
    every module (imports stay lazy and side-effect-free for modules
    that register nothing).  Memoized per process; the scan itself is
    a few milliseconds over the whole package.
    """
    global _DISCOVERED
    if _DISCOVERED is not None:
        return _DISCOVERED
    package_root = Path(__file__).resolve().parents[1]  # src/repro
    modules = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.name == "__main__.py":
            continue
        if relative.parts[0] == "engine":
            continue  # the engine defines the machinery, never workloads
        try:
            # python sources are utf-8; the locale default is not
            if not _SCENARIO_MARKER.search(path.read_text("utf-8")):
                continue
        except (OSError, UnicodeDecodeError):
            continue
        parts = ("repro",) + relative.with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules.append(".".join(parts))
    _DISCOVERED = tuple(modules)
    return _DISCOVERED


def natural_key(name: str):
    """Sort key that orders E2 before E10."""
    import re

    return [
        int(chunk) if chunk.isdigit() else chunk
        for chunk in re.split(r"(\d+)", name)
    ]


@dataclass(frozen=True)
class Scenario:
    """A registered workload: its spec plus the callable behind it."""

    spec: ScenarioSpec
    fn: Callable[..., dict]
    module: str
    doc: str = ""
    #: verdict keys that are negative controls (expected False).
    expected_false: tuple = ()

    @property
    def name(self) -> str:
        return self.spec.name


def scenario(
    name: Optional[str] = None,
    *,
    tags: Iterable[str] = (),
    params: Optional[dict] = None,
    seed: int = 0,
    expected_false: Iterable[str] = (),
) -> Callable[[Callable[..., dict]], Callable[..., dict]]:
    """Register the decorated function as a scenario.

    ``params`` records the canonical default parameters — they become
    part of the spec hash, so changing a default re-keys the cache.
    ``expected_false`` names verdict keys that are negative controls
    (a False there does not count against reproduction).  The function
    itself is returned unchanged and stays directly callable (tests
    and benchmarks keep importing it as before).
    """

    def wrap(fn: Callable[..., dict]) -> Callable[..., dict]:
        spec = ScenarioSpec(
            name or fn.__name__, params or {}, seed=seed, tags=tags
        )
        register(spec, fn, expected_false=expected_false)
        return fn

    return wrap


def register(
    spec: ScenarioSpec,
    fn: Callable[..., dict],
    expected_false: Iterable[str] = (),
) -> Scenario:
    existing = _REGISTRY.get(spec.name)
    entry = Scenario(
        spec=spec,
        fn=fn,
        module=fn.__module__,
        doc=(fn.__doc__ or "").strip().splitlines()[0]
        if fn.__doc__
        else "",
        expected_false=tuple(expected_false),
    )
    if existing is not None:
        same_origin = (
            existing.module == entry.module
            and existing.fn.__qualname__ == fn.__qualname__
        )
        if not same_origin:
            raise ValueError(
                f"scenario {spec.name!r} already registered by "
                f"{existing.module}.{existing.fn.__qualname__}"
            )
    _REGISTRY[spec.name] = entry
    return entry


def unregister(name: str) -> None:
    """Remove a scenario (test helper)."""
    _REGISTRY.pop(name, None)


def load_all() -> None:
    """Import every scenario-bearing module (idempotent).

    The module set is auto-discovered from the package sources
    (:func:`discover_scenario_modules`), so adding a new
    ``@scenario``-bearing file anywhere under ``src/repro/`` is enough
    — no list to keep in sync.
    """
    global _LOADED
    if _LOADED:
        return
    for module in discover_scenario_modules():
        importlib.import_module(module)
    _LOADED = True


def get(name: str) -> Scenario:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown scenario {name!r}; registered: {known}"
        ) from None


def all_scenarios() -> List[Scenario]:
    load_all()
    return sorted(_REGISTRY.values(), key=lambda s: natural_key(s.name))


def registered(module: Optional[str] = None) -> List[Scenario]:
    """Currently-registered scenarios *without* triggering load_all.

    With *module*, only the scenarios that module registered; safe to
    call while that module is still importing (load_all would recurse).
    """
    entries = sorted(_REGISTRY.values(), key=lambda s: natural_key(s.name))
    if module:
        entries = [e for e in entries if e.module == module]
    return entries


def all_tags() -> Dict[str, int]:
    """Tag -> scenario count over the whole registry."""
    counts: Dict[str, int] = {}
    for entry in all_scenarios():
        for tag in entry.spec.tags:
            counts[tag] = counts.get(tag, 0) + 1
    return dict(sorted(counts.items()))


def select(
    tags: Optional[Iterable[str]] = None,
    names: Optional[Iterable[str]] = None,
) -> List[Scenario]:
    """Scenarios matching any of ``tags`` and/or the explicit ``names``.

    With both filters the union is returned; with neither, everything.
    """
    entries = all_scenarios()
    if tags is None and names is None:
        return entries
    wanted_tags = set(tags or ())
    wanted_names = set(names or ())
    unknown = wanted_names - {e.name for e in entries}
    if unknown:
        raise KeyError(f"unknown scenario names: {sorted(unknown)}")
    return [
        e
        for e in entries
        if e.name in wanted_names
        or (wanted_tags and e.spec.matches(wanted_tags))
    ]
