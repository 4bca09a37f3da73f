"""Frozen scenario descriptions with canonical content hashes.

A :class:`ScenarioSpec` is the unit of work the engine schedules and
caches: a name, a parameter dict, a base seed, and selection tags.  Two
specs with the same (name, params, seed) — regardless of dict ordering
or tag differences — have the same :meth:`content_hash`, which is what
the result cache and the per-job RNG derivation key on.  Tags are
deliberately excluded from the hash: they control *selection*, not the
computation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Tuple


#: marker distinguishing a frozen Mapping from a plain tuple of pairs,
#: so a params value like [("a", 1), ("b", 2)] round-trips as a tuple
#: instead of silently becoming a dict (and colliding hashes with one).
_MAPPING_TAG = "__mapping__"


def _freeze(value: Any) -> Any:
    """Recursively convert a params value into a hashable form."""
    if isinstance(value, Mapping):
        return (
            _MAPPING_TAG,
            tuple(sorted((str(k), _freeze(v)) for k, v in value.items())),
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"scenario params must be JSON-like (got {type(value).__name__})"
    )


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` for passing params back to functions."""
    if isinstance(value, tuple):
        if (
            len(value) == 2
            and value[0] == _MAPPING_TAG
            and isinstance(value[1], tuple)
        ):
            return {k: _thaw(v) for k, v in value[1]}
        return tuple(_thaw(v) for v in value)
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative, hashable unit of work."""

    name: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    tags: FrozenSet[str] = field(default_factory=frozenset)

    def __init__(
        self,
        name: str,
        params: Mapping[str, Any] | Tuple[Tuple[str, Any], ...] | None = None,
        seed: int = 0,
        tags: Iterable[str] = (),
    ) -> None:
        object.__setattr__(self, "name", name)
        # store the bare (key, frozen-value) pairs; the _MAPPING_TAG
        # wrapper only matters for *nested* mappings
        _tag, pairs = _freeze(dict(params) if params else {})
        object.__setattr__(self, "params", pairs)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "tags", frozenset(tags))

    # -- canonical identity -------------------------------------------------

    def params_dict(self) -> Dict[str, Any]:
        """The params as a plain dict (tuples stay tuples)."""
        return {k: _thaw(v) for k, v in self.params}

    def canonical_json(self) -> str:
        """Deterministic JSON encoding of the hashed identity.

        ``sort_keys`` canonicalises dict ordering and json renders
        tuples as lists, so a params dict given in any order — or with
        lists in place of tuples — hashes identically.
        """
        payload = {
            "name": self.name,
            "params": self.params_dict(),
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @property
    def content_hash(self) -> str:
        """Stable sha256 hex digest of (name, params, seed).

        Computed on first access and kept in an attribute that is not a
        dataclass field, so equality and ``hash()`` ignore it.
        """
        try:
            return self.__dict__["_content_hash"]
        except KeyError:
            digest = hashlib.sha256(self.canonical_json().encode()).hexdigest()
            object.__setattr__(self, "_content_hash", digest)
            return digest

    def derived_seed(self) -> int:
        """Deterministic per-job RNG seed from the content hash."""
        return int(self.content_hash[:12], 16) ^ self.seed

    # -- derivation ---------------------------------------------------------

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        """A new spec with some params replaced (hash changes)."""
        params = self.params_dict()
        params.update(overrides)
        return ScenarioSpec(self.name, params, self.seed, self.tags)

    def matches(self, tags: Iterable[str] | None = None) -> bool:
        """True when *any* of the requested tags is present (or no filter)."""
        if not tags:
            return True
        return bool(self.tags & set(tags))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "params": self.params_dict(),
            "seed": self.seed,
            "tags": sorted(self.tags),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            params=data.get("params") or {},
            seed=data.get("seed", 0),
            tags=data.get("tags") or (),
        )
