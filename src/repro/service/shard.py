"""Deterministic sweep expansion and round-robin sharding.

A *sweep* fans one base :class:`ScenarioSpec` out over the cross
product of parameter axes via ``spec.with_params`` — each expanded
spec is an ordinary engine job with its own content hash, so caching,
seeding and determinism all come for free.  A *shard* is the
round-robin subset ``specs[index::total]`` of an expansion: the
``total`` subsets are disjoint, cover the expansion exactly, and
depend only on the expansion order (which is itself deterministic),
so N machines can each take ``i/N`` and their results together are
the serial run's.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.spec import ScenarioSpec


def expand_sweep(
    spec: ScenarioSpec, axes: Mapping[str, Sequence[Any]]
) -> List[ScenarioSpec]:
    """Fan ``spec`` out over the cross product of parameter axes.

    Axes are iterated in sorted-name order and each axis in its given
    value order, so the expansion order — and therefore any sharding
    of it — is deterministic regardless of dict ordering.  With no
    axes the spec itself is returned (a sweep of one).
    """
    if not axes:
        return [spec]
    names = sorted(axes)
    for name in names:
        if not isinstance(axes[name], (list, tuple)) or not len(axes[name]):
            raise ValueError(
                f"sweep axis {name!r} must be a non-empty sequence"
            )
    return [
        spec.with_params(**dict(zip(names, values)))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def expand_specs(
    specs: Iterable[ScenarioSpec],
    axes: Optional[Mapping[str, Sequence[Any]]] = None,
) -> List[ScenarioSpec]:
    """Expand every spec over the same sweep axes (order-preserving)."""
    expanded: List[ScenarioSpec] = []
    for spec in specs:
        expanded.extend(expand_sweep(spec, axes or {}))
    return expanded


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse the CLI ``i/N`` shard syntax (zero-based index)."""
    try:
        index_s, total_s = text.split("/", 1)
        index, total = int(index_s), int(total_s)
    except ValueError:
        raise ValueError(
            f"shard must look like 'i/N' (e.g. 0/4), got {text!r}"
        ) from None
    _check_shard(index, total)
    return index, total


def _check_shard(index: int, total: int) -> None:
    if total < 1:
        raise ValueError(f"shard count must be >= 1, got {total}")
    if not 0 <= index < total:
        raise ValueError(
            f"shard index must be in [0, {total}), got {index}"
        )


def shard_specs(
    specs: Sequence[ScenarioSpec], index: int, total: int
) -> List[ScenarioSpec]:
    """Round-robin shard ``index`` of ``total`` (deterministic subset).

    Round-robin (rather than contiguous blocks) balances sweeps whose
    cost varies monotonically along an axis — the expensive tail of a
    ``pe_counts`` axis lands one-per-shard instead of all in the last.
    """
    _check_shard(index, total)
    return list(specs[index::total])
