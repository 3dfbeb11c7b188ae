"""Rate coding: turn raw input vectors into binary spike trains.

Each input component is divided by the vector's maximum into [0, 1] and used
as a per-step firing probability over a fixed window of time steps, i.e.
Poisson-style intensity coding realized as independent Bernoulli draws (at
most one spike per step), each sample from its own Philox stream.
"""

from __future__ import annotations

import numpy as np

from .numerics import Rng, philox


def encode_sample(x, time_steps: int, rng: Rng) -> np.ndarray:
    """One raw sample's (T, N) spike train from rng's float draws: the
    reference encode_batch keeps bit for bit, at a name the bench traces."""
    p = np.asarray(x, dtype=np.float64)
    p = p / p.max() if p.size and p.max() > 0 else np.zeros_like(p)
    return (rng.random((time_steps, p.size)) < p).astype(np.uint8)


def encode_batch(images, indices, time_steps: int, master_seed: int, stream_base: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The (n, T, N) uint8 spike trains of the n samples images[indices],
    row k equal to encode_sample(images[indices[k]], T, Rng(master_seed,
    stream_base + indices[k])), so a sample's train never depends on its
    batch. out supplies the array (a new one without it): uint8, or float64
    to receive the spikes as 0.0/1.0, a LIF layer's GEMM input.

    The rows are normalized in one pass. Each sample's Philox stream gives
    T*N raw integers r, and r >> 11 < p * 2**53 is compared in integers:
    random() is (r >> 11) * 2**-53 exactly and p * 2**53 is exact, so the
    bits are those of random() < p, p = 0 and p = 1 included.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    x = np.asarray(images)[indices].astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("encode_batch requires finite input")
    if x.size and x.min() < 0:
        raise ValueError("divide_by_max normalization requires nonnegative input")
    shape = (len(indices), time_steps, x.shape[1])
    out = np.empty(shape, np.uint8) if out is None else out
    if out.shape != shape or out.dtype not in (np.uint8, np.float64):
        raise ValueError(f"out must be {shape} uint8 or float64, got {out.shape} {out.dtype}")
    peak = x.max(axis=1, keepdims=True, initial=0.0)
    p = np.divide(x, peak, out=x, where=peak > 0)  # a row of zeros stays p = 0
    limits = np.ceil(np.multiply(p, 2.0 ** 53, out=p), out=p).astype(np.uint64)
    for k, i in enumerate(indices):
        raw = philox(master_seed, stream_base + int(i)).random_raw(time_steps * x.shape[1])
        raw >>= np.uint64(11)
        np.less(raw.reshape(time_steps, -1), limits[k], out=out[k])
    return out
