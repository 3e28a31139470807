"""Deterministic substream derivation from a single master seed.

Every random draw in a run comes from a counter-based generator keyed by
(master seed, phase tag, generation, index). Streams are independent and
stateless across generations, so resuming a run at any generation derives
exactly the streams the uninterrupted run would have used.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

MASK64 = (1 << 64) - 1


def substream(seed: int, phase: str, generation: int = 0, index: int = 0) -> np.random.Generator:
    """Generator for one (phase, generation, index) cell of the run."""
    key = [seed & MASK64, zlib.crc32(phase.encode("utf-8")), generation & MASK64, index & MASK64]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


# below this many draws, one scalar integers call per draw is cheaper than
# one broadcast call, whose fixed cost is that of about four scalar calls
SCALAR_DRAWS = 4


def _tail_shuffled(n: int, k: int) -> bool:
    """numpy's choice shuffles the tail of range(n) for large samples of a
    large population, and runs Floyd's algorithm otherwise."""
    return n > 10000 and k > n // 50


def _bounds(n: int, k: int) -> Iterable[int]:
    """The inclusive upper bound of each draw numpy's choice(n, k,
    replace=False) makes, in order: the positions its tail shuffle swaps,
    or the j of each Floyd step and then the positions its shuffle swaps."""
    if _tail_shuffled(n, k):
        return range(n - 1, max(n - k, 1) - 1, -1)
    return chain(range(n - k, n), range(k - 1, 0, -1))


@lru_cache(maxsize=256)
def _all_bounds(shapes: tuple[tuple[int, int], ...]) -> np.ndarray:
    bounds = np.fromiter(chain.from_iterable(_bounds(n, k) for n, k in shapes), np.int64)
    bounds.flags.writeable = False
    return bounds


def _replay(draws: Iterator[int], n: int, k: int) -> list[int]:
    """One choice(n, k, replace=False) sample, computed from its draws, which
    come in the order _bounds gives."""
    if _tail_shuffled(n, k):
        pool = list(range(n))
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = next(draws)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[n - k:]
    # Floyd's algorithm: a repeated draw takes the bound j, which no earlier
    # step can have taken
    sample: list[int] = []
    taken: set[int] = set()
    for j in range(n - k, n):
        val = next(draws)
        if val in taken:
            val = j
        taken.add(val)
        sample.append(val)
    for i in range(k - 1, 0, -1):
        j = next(draws)
        sample[i], sample[j] = sample[j], sample[i]
    return sample


def samples_without_replacement(
    rng: np.random.Generator, shapes: Sequence[tuple[int, int]]
) -> list[list[int]]:
    """One sample of k distinct indices from range(n) per (n, k) in `shapes`.

    Equal to calling rng.choice(n, k, replace=False) once per shape, in order,
    and it leaves rng where those calls would. integers draws each bound the
    way choice does (a zero bound costs no draw), so the bounded draws of all
    the samples come from one rng.integers call, or from a scalar call each
    when there are fewer than SCALAR_DRAWS, and numpy's algorithm is
    replayed on the results.
    """
    shapes = tuple(shapes)
    bounds = _all_bounds(shapes)
    if len(bounds) < SCALAR_DRAWS:
        draws = [int(rng.integers(0, b, endpoint=True)) for b in bounds.tolist()]
    else:
        draws = rng.integers(0, bounds, endpoint=True).tolist()
    remaining = iter(draws)
    return [_replay(remaining, n, k) for n, k in shapes]
