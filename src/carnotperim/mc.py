"""Monte-Carlo plumbing: deterministic substreams, estimates, batched draws.

Every stochastic routine in the package draws from a generator keyed by
(seed, *integer key path).  Results are therefore bit-identical for a given
seed.

The package's sampling kernel is ``box_batches``, uniform draws in an axis
box in batches of BATCH rows, and ``hit_or_miss``, which integrates an
indicator over the same batches into an Estimate.  Both draw through
``_box_columns``; hit-or-miss walks each batch in column-major blocks of
BLOCK rows, so its working set stays in cache while the draws and hit
counts are those of the whole batch.  BLOCK is 8192 rows: against 4096 it
halves the Python calls per sample, and of 4096, 8192 and 12288 it gave
the fewest ns per slice_area sample for Koranyi and twoball on H^1 and
Koranyi and starball on H^2 (see README, "Notes on method").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BATCH = 1 << 16
BLOCK = 1 << 13


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


def _box_columns(rng, hw, raw, cols):
    """Fill cols, a (d, k) array, with k uniform points of the box
    prod [-hw_i, hw_i], one point per column; raw is k*d scratch.

    The numbers are those of rng.uniform(-1, 1, (k, d)) * hw, taken row by
    row: uniform(-1, 1) is -1 + 2 random(), and the generator is sequential,
    so consecutive calls continue one batch's draws.  They are computed in
    two passes as (r - 0.5) * (2 hw), which is bitwise (2 r - 1) * hw: every
    draw is r = j 2^-53, so r - 0.5 and 2 r - 1 are exact, and so is 2 hw
    for hw below 2^1023; both forms round the real hw (2 r - 1) once.
    """
    rng.random(out=raw)
    np.subtract(raw.reshape(cols.shape[::-1]).T, 0.5, out=cols)
    cols *= 2.0 * hw[:, None]
    return cols


def box_batches(hw, n_samples: int, seed: int, key: tuple = ()):
    """Yield n_samples uniform points of the box prod [-hw_i, hw_i] in batches.

    Batch b holds BATCH rows (the last one the remainder) drawn from
    substream(seed, *key, b), as a column-major (rows, len(hw)) array.
    """
    hw = np.asarray(hw, dtype=float)
    for b, size in enumerate(_batch_sizes(n_samples)):
        cols = np.empty((len(hw), size))
        yield _box_columns(substream(seed, *key, b), hw, np.empty(cols.size), cols).T


def hit_or_miss(hw, inside, n_samples: int, seed: int, key: tuple = ()) -> Estimate:
    """Volume of {inside} within the box prod [-hw_i, hw_i], by hit-or-miss.

    inside maps a column-major (k, len(hw)) block of at most BLOCK points to
    k booleans.  Each batch of box_batches is drawn and tested block by block
    from its own substream, so the points are those of box_batches; one
    pair of block buffers serves every batch.
    """
    sizes = _batch_sizes(n_samples)
    n = sum(sizes)
    if n == 0:
        return Estimate(0.0, 0.0, 0, seed)
    hw = np.asarray(hw, dtype=float)
    d = len(hw)
    raw = np.empty(min(n, BLOCK) * d)
    cols = np.empty(raw.size)
    hits = 0
    for b, size in enumerate(sizes):
        rng = substream(seed, *key, b)
        for start in range(0, size, BLOCK):
            k = min(BLOCK, size - start)
            block = _box_columns(rng, hw, raw[: k * d], cols[: k * d].reshape(d, k))
            hits += int(np.count_nonzero(inside(block.T)))
    hits = float(hits)
    volume = float(np.prod(2.0 * hw))
    # indicator weights: sum w^2 = sum w = hits
    var = max(hits - hits * hits / n, 0.0) / (n - 1) if n > 1 else 0.0
    return Estimate(volume * (hits / n), volume * math.sqrt(var / n), n, seed)
