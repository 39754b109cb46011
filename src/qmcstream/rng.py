"""Splittable deterministic randomness.

Every random procedure in the package draws from a substream addressed by
(root seed, path of integers). Substreams are independent Philox counter
streams, so trials, restarts, and reservoirs are reproducible regardless of
how many other substreams were consumed or in what order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream addressed by ``(seed, *path)``."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(int(p) & _MASK64 for p in path),
    )
    return np.random.Generator(np.random.Philox(ss))

