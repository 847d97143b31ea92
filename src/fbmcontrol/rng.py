"""Counter-based substreams for reproducible, scheduler-independent sampling.

Every path/dimension pair gets its own Philox stream keyed by
``(seed, path << DIM_BITS | dim)``, so any partition of the paths across
workers regenerates bit-identical values.
"""

from __future__ import annotations

import numpy as np

DIM_BITS = 20  # up to 2^20 driving dimensions, 2^44 paths per seed


class SubstreamSampler:
    """Draws standard normals from per-(path, dim) Philox substreams.

    A single bit-generator is re-keyed in place per substream; the output is
    bit-identical to constructing a fresh ``Philox(key=[seed, path<<20|dim])``
    for every pair, but ~15x faster.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) < 2**63:
            raise ValueError(f"seed must be in [0, 2^63), got {seed}")
        self.seed = int(seed)
        self._bg = np.random.Philox(key=np.array([0, 0], dtype=np.uint64))
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state

    def normals(self, path: int, dim: int, n: int) -> np.ndarray:
        """Standard normal draws for one (path, dim) substream."""
        st = self._state
        st["state"]["key"][:] = (self.seed, (path << DIM_BITS) | dim)
        st["state"]["counter"][:] = 0
        st["buffer_pos"] = 4  # force buffer refill from the new key
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen.standard_normal(n)

    def normal_block(self, paths: range, m: int, n: int) -> np.ndarray:
        """Standard normals of shape (len(paths), m, n), one substream each."""
        out = np.empty((len(paths), m, n))
        for row, p in enumerate(paths):
            for d in range(m):
                out[row, d] = self.normals(p, d, n)
        return out
