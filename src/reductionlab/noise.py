"""Deterministic, seedable Wiener-increment streams.

Each increment is Gaussian(0, dt).  Streams are built on the counter-based
Philox bit generator so that the stream for ensemble member i is a pure
function of (base_seed, i): any trajectory can be regenerated bit-for-bit
without touching the streams of other members, which makes ensemble results
independent of batching, scheduling, and worker count.  A single path of seed
s is member 0 of base seed s.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "wiener_path",
    "trajectory_generator",
]


def wiener_path(seed: int, dt: float, n_steps: int) -> np.ndarray:
    """n_steps independent Gaussian(0, dt) increments, as a read-only array.

    The path is ensemble member 0 of base seed `seed`, bit for bit: a longer
    path extends a shorter one drawn from the same seed.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    inc = trajectory_generator(seed, 0).standard_normal(n_steps) * np.sqrt(dt)
    inc.setflags(write=False)
    return inc


def trajectory_generator(base_seed: int, index: int) -> np.random.Generator:
    """Generator for ensemble member `index`, a pure function of (base_seed, index)."""
    seq = np.random.SeedSequence((int(base_seed), int(index)))
    return np.random.Generator(np.random.Philox(seq))

