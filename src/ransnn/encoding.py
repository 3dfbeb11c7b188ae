"""Rate coding: turn raw input vectors into binary spike trains.

Each input component is divided by the vector's maximum into [0, 1] and used
as a per-step firing probability over a fixed window of time steps, i.e.
Poisson-style intensity coding realized as independent Bernoulli draws (at
most one spike per step).
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng


def normalize_input(x) -> np.ndarray:
    """Map a nonnegative raw input vector into [0, 1] as x / max(x); an
    all-zero vector stays all-zero."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("normalize_input requires finite input")
    if x.size and x.min() < 0:
        raise ValueError("divide_by_max normalization requires nonnegative input")
    m = x.max() if x.size else 0.0
    return x / m if m > 0 else np.zeros_like(x)


def poisson_encode(p, time_steps: int, rng: Rng) -> np.ndarray:
    """Draw a (T, N) uint8 spike train with s[t, j] ~ Bernoulli(p[j]),
    independent across steps and neurons.

    p = 0 never fires and p = 1 fires every step, exactly. Draws come from
    the caller's Rng, so the realization is fixed by (seed, stream_id).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"intensities must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or (p.size and (p.min() < 0 or p.max() > 1)):
        raise ValueError("intensities must lie in [0, 1]")
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    u = rng.random((time_steps, p.size))
    return (u < p).astype(np.uint8)


def encode_sample(x, time_steps: int, rng: Rng) -> np.ndarray:
    """Normalize one raw sample and encode it over time_steps."""
    return poisson_encode(normalize_input(x), time_steps, rng)
