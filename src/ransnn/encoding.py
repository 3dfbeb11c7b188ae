"""Rate coding: turn raw input vectors into binary spike trains.

Each input component is normalized into [0, 1] and used as a per-step firing
probability over a fixed window of time steps, i.e. Poisson-style intensity
coding realized as independent Bernoulli draws (at most one spike per step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng

NORMALIZATIONS = ("divide_by_max", "min_max", "none")


@dataclass(frozen=True)
class EncoderConfig:
    """Time window length and the normalization applied before encoding."""

    time_steps: int = 25
    normalization: str = "divide_by_max"

    def __post_init__(self):
        if self.time_steps < 1:
            raise ValueError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}, "
                f"expected one of {NORMALIZATIONS}")


@dataclass
class SpikeTrain:
    """Binary raster over (time step, neuron).

    ``bits`` is a (T, N) uint8 array whose entries are 0 or 1. Use
    :meth:`from_bits` to build one from untrusted data; internal code
    constructs trains directly from comparisons that already guarantee
    the invariant.
    """

    bits: np.ndarray

    @classmethod
    def from_bits(cls, bits) -> "SpikeTrain":
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError(f"spike train must be 2-D (T, N), got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("spike train entries must be 0 or 1")
        return cls(bits=arr.astype(np.uint8))


def normalize_input(x, mode: str = "divide_by_max") -> np.ndarray:
    """Map a raw input vector into [0, 1].

    divide_by_max: x / max(x) for nonnegative x; an all-zero vector stays
    all-zero. min_max: (x - min) / (max - min), degenerating to all-zero when
    every entry is equal. none: validates that x already lies in [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("normalize_input requires finite input")
    if mode == "divide_by_max":
        if x.size and x.min() < 0:
            raise ValueError("divide_by_max normalization requires nonnegative input")
        m = x.max() if x.size else 0.0
        return x / m if m > 0 else np.zeros_like(x)
    if mode == "min_max":
        if x.size == 0:
            return x.copy()
        lo, hi = x.min(), x.max()
        return (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)
    if mode == "none":
        if x.size and (x.min() < 0 or x.max() > 1):
            raise ValueError("normalization 'none' requires input already in [0, 1]")
        return x.copy()
    raise ValueError(f"unknown normalization {mode!r}, expected one of {NORMALIZATIONS}")


def poisson_encode(p, time_steps: int, rng: Rng) -> SpikeTrain:
    """Draw a (T, N) spike train with s[t, j] ~ Bernoulli(p[j]), independent
    across steps and neurons.

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
    return SpikeTrain(bits=(u < p).astype(np.uint8))


def encode_sample(x, cfg: EncoderConfig, rng: Rng) -> SpikeTrain:
    """Normalize one raw sample and encode it over cfg.time_steps."""
    return poisson_encode(normalize_input(x, cfg.normalization), cfg.time_steps, rng)
