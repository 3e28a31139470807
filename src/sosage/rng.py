"""Deterministic substream derivation from a single master seed.

Every random draw in a run comes from a counter-based generator keyed by
(master seed, phase tag, generation, index). Streams are independent and
stateless across generations, so resuming a run at any generation derives
exactly the streams the uninterrupted run would have used.
"""

from __future__ import annotations

import zlib

import numpy as np

MASK64 = (1 << 64) - 1


def substream(seed: int, phase: str, generation: int = 0, index: int = 0) -> np.random.Generator:
    """Generator for one (phase, generation, index) cell of the run."""
    key = [seed & MASK64, zlib.crc32(phase.encode("utf-8")), generation & MASK64, index & MASK64]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))
