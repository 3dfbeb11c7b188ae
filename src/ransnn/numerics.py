"""Shared numeric substrate: seeded RNG streams, softmax, and the Adam
optimizer.

Everything here is deterministic given its inputs. The generator is
counter-based (Philox, keyed by ``(seed, stream_id)``), so any piece of the
pipeline can derive its own independent stream from one master seed and
reproduce it bit-for-bit regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF

# Stream-id layout for the whole pipeline. Bases are spaced 2**32 apart so
# per-sample streams (offset by the sample's dataset index) never collide
# with per-layer weight streams or with each other.
WEIGHT_STREAM = 0  # + weight-matrix index (0-based)
ENCODE_TRAIN_STREAM = 1 << 32  # + sample index within the train split
ENCODE_TEST_STREAM = 2 << 32  # + sample index within the test split
SHUFFLE_STREAM = 3 << 32  # batch-selection permutations

# Probabilities are clamped to this floor before any log, so a confidently
# wrong prediction yields a large finite loss instead of -inf.
PROB_FLOOR = 1e-12

# Entries per block of adam_step: each of its two work arrays holds this many.
ADAM_BLOCK = 1 << 15


def philox(seed: int, stream_id: int) -> np.random.Philox:
    """Stream (seed, stream_id)'s Philox4x64 bit generator, which Rng draws
    from; the ids mod 2**64 are its 128-bit key."""
    key = np.array([int(seed) & _U64, int(stream_id) & _U64], dtype=np.uint64)
    return np.random.Philox(key=key)


class Rng:
    """Deterministic random stream addressed by ``(seed, stream_id)``.

    Backed by numpy's Philox4x64 counter-based generator with the two ids as
    its 128-bit key: the same pair always reproduces the same sequence, and
    distinct stream_ids give statistically independent sequences. Gaussian
    variates are produced by Box-Muller on top of the uniform stream rather
    than numpy's ziggurat, so the exact draw sequence is pinned down here.

    An Rng is single-owner mutable state; concurrent workers must each build
    their own from a distinct stream_id instead of sharing one.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _U64
        self.stream_id = int(stream_id) & _U64
        self._gen = np.random.Generator(philox(seed, stream_id))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream_id={self.stream_id})"

    def random(self, size=None):
        """Uniform float64 draws in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, n: int,
                out: np.ndarray | None = None) -> np.ndarray:
        """n i.i.d. draws from U[low, high), written into out if given (see
        _draws_out) and returned."""
        if not low < high:
            raise ValueError(f"uniform bounds must satisfy low < high, got [{low}, {high})")
        out = _draws_out(out, n)
        flat = out.reshape(-1)
        self._gen.random(out=flat)
        np.multiply(flat, high - low, out=flat)
        np.add(low, flat, out=flat)
        # low + u*(high-low) can round up to exactly `high`; keep the
        # interval half-open.
        np.minimum(flat, np.nextafter(high, low), out=flat)
        return out

    def normal(self, mean: float, std: float, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
        """n i.i.d. Gaussian draws via the Box-Muller transform, written
        into out if given (see _draws_out) and returned: the cosine draws
        go to the even entries and the sine draws to the odd ones, without
        an n-sized temporary."""
        if std < 0:
            raise ValueError(f"normal std must be >= 0, got {std}")
        out = _draws_out(out, n)
        flat = out.reshape(-1)
        pairs = (n + 1) // 2
        u1 = 1.0 - self._gen.random(pairs)  # (0, 1]: keeps the log finite
        u2 = self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        np.multiply(r, np.cos(theta), out=flat[0::2])
        np.multiply(r[:n // 2], np.sin(theta)[:n // 2], out=flat[1::2])
        np.multiply(std, flat, out=flat)
        np.add(mean, flat, out=flat)
        return out

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def _draws_out(out: np.ndarray | None, n: int) -> np.ndarray:
    """The array n draws are written into: out, which must be a writable,
    C-contiguous float64 array of n entries in any shape, or a new (n,)
    array. Each entry goes through the same operations, in the same order,
    either way."""
    if out is None:
        return np.empty(n)
    if not (isinstance(out, np.ndarray) and out.size == n and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writable, C-contiguous float64 array of {n} "
                         "entries")
    return out


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax along the last axis (max-subtraction)."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax requires finite input")
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class AdamConfig:
    """Adam's step size, moment decay rates and denominator epsilon."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class AdamState:
    """Adam first/second moments for one flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    config: AdamConfig = AdamConfig()

    @classmethod
    def zeros(cls, n: int, config: AdamConfig = AdamConfig()) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0, config=config)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, in place; the denominator is
    sqrt(v_hat) + eps.

    Overwrites params, state.m and state.v with their updated values and
    increments state.t; grads is only read. params, m and v must be
    writable, C-contiguous float64 arrays of grads' shape, so an update can
    never land in a copy.

    The update runs over blocks of ADAM_BLOCK entries with two block-sized
    work arrays, so it allocates little. Each entry goes through the
    operations of the textbook expression, with the same operands in the
    same order: m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, and
    params - lr*(m/c1) / (sqrt(v/c2) + eps) with c = 1 - b**t.
    """
    grads = np.asarray(grads, dtype=np.float64)
    for name, a in (("params", params), ("m", state.m), ("v", state.v)):
        if np.shape(a) != grads.shape:
            raise ValueError(f"adam_step shape mismatch: {name} {np.shape(a)}, "
                             f"grads {grads.shape}")
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.flags.c_contiguous and a.flags.writeable):
            raise ValueError(f"adam_step writes {name} in place: it must be a writable, "
                             "C-contiguous float64 array")
    cfg = state.config
    state.t += 1
    c1, c2 = 1.0 - cfg.beta1 ** state.t, 1.0 - cfg.beta2 ** state.t
    work = np.empty((2, min(params.size, ADAM_BLOCK)))
    flat = [a.reshape(-1) for a in (params, grads, state.m, state.v)]
    for lo in range(0, params.size, ADAM_BLOCK):
        p, g, m, v = (a[lo:lo + ADAM_BLOCK] for a in flat)
        w, step = work[:, :len(g)]
        np.multiply(cfg.beta1, m, out=m)
        np.add(m, np.multiply(1.0 - cfg.beta1, g, out=w), out=m)
        np.multiply(cfg.beta2, v, out=v)
        np.multiply(np.multiply(1.0 - cfg.beta2, g, out=w), g, out=w)
        np.add(v, w, out=v)
        np.divide(v, c2, out=w)
        np.add(np.sqrt(w, out=w), cfg.eps, out=w)
        np.divide(m, c1, out=step)
        np.divide(np.multiply(cfg.lr, step, out=step), w, out=step)
        np.subtract(p, step, out=p)
