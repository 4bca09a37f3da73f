"""Deterministic random-number streams.

Every stochastic model component draws from a *named* stream derived from
a single root seed, so adding a new consumer never perturbs the draws of
existing ones — simulations stay reproducible as the model grows.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """A factory of independent, named :class:`random.Random` streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("traffic")
    >>> b = streams.get("mapping")
    >>> a is streams.get("traffic")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for *name*, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(self._derive(name))
            self._streams[name] = stream
        return stream

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return int.from_bytes(digest[:8], "big")
