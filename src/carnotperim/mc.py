"""Monte-Carlo plumbing: deterministic substreams, estimates, batched maps.

Every stochastic routine in the package draws from a generator keyed by
(seed, *integer key path).  Results are therefore bit-identical for a given
seed regardless of worker count or scheduling.

The package's sampling kernel is ``box_batches``, uniform draws in an axis
box in batches of BATCH rows, and ``hit_or_miss``, which integrates an
indicator over the same batches into an Estimate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

BATCH = 1 << 16


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, key...) coordinates."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo point estimate with its standard error."""

    value: float
    stderr: float
    n_samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.stderr < 0:
            raise ValueError("stderr must be nonnegative")

    def as_dict(self):
        return {
            "value": self.value,
            "stderr": self.stderr,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def joint_stderr(*estimates) -> float:
    return math.hypot(*[e.stderr for e in estimates])


def _batch_sizes(n_samples: int):
    n = int(n_samples)
    if n < 0:
        raise ValueError("n_samples must be >= 0")
    sizes = [BATCH] * (n // BATCH)
    if n % BATCH:
        sizes.append(n % BATCH)
    return sizes


def ordered_map(fn, args_list, workers: int = 1):
    """Map fn over args_list preserving order; optional thread pool."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=int(workers)) as pool:
        return list(pool.map(fn, args_list))


def _box_draw(hw, size, seed, key, b):
    return substream(seed, *key, b).uniform(-1.0, 1.0, size=(size, len(hw))) * hw


def box_batches(hw, n_samples: int, seed: int, key: tuple = ()):
    """Yield n_samples uniform points of the box prod [-hw_i, hw_i] in batches.

    Batch b holds BATCH rows (the last one the remainder) drawn from
    substream(seed, *key, b).
    """
    for b, size in enumerate(_batch_sizes(n_samples)):
        yield _box_draw(hw, size, seed, key, b)


def hit_or_miss(
    hw, inside, n_samples: int, seed: int, key: tuple = (), workers: int = 1
) -> Estimate:
    """Volume of {inside} within the box prod [-hw_i, hw_i], by hit-or-miss.

    inside maps a (k, len(hw)) batch of box_batches points to k booleans.
    Batches may run on a thread pool; hit counts are reduced in batch order,
    so the result does not depend on scheduling.
    """
    sizes = _batch_sizes(n_samples)
    n = sum(sizes)
    if n == 0:
        return Estimate(0.0, 0.0, 0, seed)
    hw = np.asarray(hw, dtype=float)

    def count(item):
        b, size = item
        return int(np.count_nonzero(inside(_box_draw(hw, size, seed, key, b))))

    hits = float(sum(ordered_map(count, list(enumerate(sizes)), workers)))
    volume = float(np.prod(2.0 * hw))
    # indicator weights: sum w^2 = sum w = hits
    var = max(hits - hits * hits / n, 0.0) / (n - 1) if n > 1 else 0.0
    return Estimate(volume * (hits / n), volume * math.sqrt(var / n), n, seed)
