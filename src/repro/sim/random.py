"""Named, reproducible random-number streams.

Every stochastic component of the simulator (arrival process, per-type
service demands, buffer-pool coin flips, lock item selection, ...)
draws from its own :class:`random.Random` substream derived from a
single root seed.  This gives two properties the experiments rely on:

* **Reproducibility** — the same seed regenerates the same run.
* **Common random numbers** — comparing two MPL values (or an internal
  vs external scheduling policy) under the same seed exposes each
  component to the same randomness, sharpening the comparison the same
  way the paper's paired hardware experiments do.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List


def derive_seed(root_seed: int, *components: object) -> int:
    """A stable 63-bit seed derived from a root seed and a label path.

    Replicated experiment grids (:func:`replicate_seeds`) use this to
    give every replicate its own seed that depends only on
    ``(root_seed, components)`` — never on worker scheduling or
    submission order — so a ``--jobs N`` run is bit-identical to the
    sequential one.
    """
    label = ":".join([str(int(root_seed))] + [repr(c) for c in components])
    digest = hashlib.sha256(label.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def replicate_seeds(root_seed: int, count: int, name: str = "replicate") -> List[int]:
    """``count`` distinct, order-stable seeds for replicated runs."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count!r}")
    return [derive_seed(root_seed, name, index) for index in range(count)]


class RandomStreams:
    """A factory of independent named substreams from one root seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for ``name``, creating it on first use.

        Substream seeds are derived by hashing ``(root seed, name)`` so
        that streams are stable regardless of creation order.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        substream = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = substream
        return substream

    def spawn(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one's."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomStreams(seed={self.seed})"
