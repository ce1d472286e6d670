"""Deterministic random-stream helpers.

Every stochastic component draws from a generator derived from
``np.random.SeedSequence`` spawn keys, never from global state. Streams
are addressed by (seed, *path) so any step of any pipeline can be
regenerated in isolation: the training loop asks for (seed, step) each
iteration, which makes resume-from-checkpoint bit-identical to an
uninterrupted run without persisting generator state.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for stream (seed, *path); same arguments, same stream."""
    if seed < 0 or any(p < 0 for p in path):
        raise ValueError("seed and path entries must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *path))))
