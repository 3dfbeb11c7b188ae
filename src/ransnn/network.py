"""The spiking network core: LIF layer dynamics, fixed random weights, and
discrete-time forward simulation.

A network is a stack of LIF layers whose weight matrices are sampled once
from a chosen distribution and then frozen; only the readout trained on top
of its spike counts ever changes. Each simulation step updates a layer as

    u_pre  = beta * u + W s_in(t)
    s      = 1 where u_pre > u_thr   (strict)
    u_post = u_pre - u_thr * s       (subtractive reset)

with layers consuming the spikes their predecessor emitted at the same step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, WEIGHT_STREAM


@dataclass(frozen=True)
class LifParams:
    """Per-layer neuron constants: membrane retention beta and firing
    threshold u_thr. 1 - beta is the per-step leak."""

    beta: float = 0.95
    u_thr: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must lie in [0, 1), got {self.beta}")
        if not self.u_thr > 0.0:
            raise ValueError(f"u_thr must be positive, got {self.u_thr}")


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def __post_init__(self):
        if not self.low < self.high:
            raise ValueError(f"uniform bounds must satisfy low < high, got [{self.low}, {self.high})")


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError(f"normal std must be >= 0, got {self.std}")


WeightDistribution = Uniform | Normal


def fan_in_uniform(n_in: int) -> Uniform:
    """The default weight distribution U(-a, a) with a = sqrt(6 / fan_in)."""
    a = float(np.sqrt(6.0 / n_in))
    return Uniform(-a, a)


def sample_weights(dist: WeightDistribution, rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Sample a (rows, cols) matrix i.i.d. from dist, filled row-major."""
    if isinstance(dist, Uniform):
        vals = rng.uniform(dist.low, dist.high, rows * cols)
    elif isinstance(dist, Normal):
        vals = rng.normal(dist.mean, dist.std, rows * cols)
    else:
        raise TypeError(f"unknown weight distribution: {dist!r}")
    return vals.reshape(rows, cols)


@dataclass(frozen=True)
class NetworkTopology:
    """Layer sizes plus the fixed random weights connecting them.

    weights[i] has shape (layer_sizes[i+1], layer_sizes[i]) and is read-only:
    the hidden representation never changes after construction. Every layer
    of neurons shares the one lif.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    lif: LifParams
    dist: WeightDistribution
    seed: int


def init_weights(layer_sizes, dist: WeightDistribution, seed: int,
                 lif: LifParams = LifParams()) -> NetworkTopology:
    """Build a network with every weight matrix sampled from dist and frozen.

    Matrix i draws from stream i of the seed, so a topology rebuilds
    bit-identically from (layer_sizes, dist, seed) and shallower networks
    share their prefix matrices with deeper ones.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and one hidden layer")
    if any(s < 1 for s in sizes):
        raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
    weights = []
    for i in range(len(sizes) - 1):
        w = sample_weights(dist, Rng(seed, WEIGHT_STREAM + i), sizes[i + 1], sizes[i])
        w.setflags(write=False)
        weights.append(w)
    return NetworkTopology(layer_sizes=sizes, weights=tuple(weights), lif=lif,
                           dist=dist, seed=int(seed))


def _buffer(scratch: dict, key, shape, dtype) -> np.ndarray:
    """A prefix of the work array kept under key, regrown only when too small."""
    size = int(np.prod(shape))
    flat = scratch.get(key)
    if flat is None or flat.size < size:
        flat = scratch[key] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def simulate(bits: np.ndarray, weights, lif: LifParams, *, record: bool = False,
             scratch: dict | None = None) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The one LIF kernel: a (B, T, n_in) batch of 0/1 inputs through a
    stack of layers sharing the neuron constants lif, every potential
    starting at 0.

    Per layer, one (B*T, n_in) @ W.T GEMM gives all input currents, then the
    recursion runs in place over the steps for the whole batch. Returns one
    (spikes, u_pre) pair per layer: the (B, T, n) uint8 raster and, with
    record=True, the pre-reset potentials written over the currents (else
    None). A scratch dict passed to successive calls keeps their work arrays,
    which the returned arrays then share; the (B*T, n) float64 copy of layer
    i's input stays readable at _buffer(scratch, ("in", i), ...) until the
    next call. No row depends on the rest of the batch, so any grouping
    gives bit-identical spikes.
    """
    n_batch, steps, n_in = bits.shape
    if n_in != weights[0].shape[1]:
        raise ValueError(f"input has {n_in} neurons, layer 1 expects {weights[0].shape[1]}")
    scratch = {} if scratch is None else scratch
    s = bits.reshape(n_batch * steps, -1)
    out = []
    for i, w in enumerate(weights):
        x = _buffer(scratch, ("in", i), s.shape, np.float64)
        x[...] = s
        cur = _buffer(scratch, ("cur", i), (n_batch, steps, w.shape[0]), np.float64)
        np.matmul(x, w.T, out=cur.reshape(x.shape[0], -1))
        spikes = _buffer(scratch, ("spikes", i), cur.shape, np.uint8)
        u = np.zeros((n_batch, cur.shape[2]))
        for t in range(steps):
            u *= lif.beta
            u += cur[:, t]
            fired = np.greater(u, lif.u_thr, out=spikes[:, t])
            if record:
                cur[:, t] = u
            u -= lif.u_thr * fired
        out.append((spikes, cur if record else None))
        s = spikes.reshape(n_batch * steps, -1)
    return out


def simulate_forward(net: NetworkTopology, bits: np.ndarray, *,
                     scratch: dict | None = None) -> np.ndarray:
    """The last hidden layer's (B, T, n_L) uint8 spikes for a (B, T, n_in)
    bit array of B samples; scratch as in simulate."""
    spikes, _ = simulate(bits, net.weights, net.lif, scratch=scratch)[-1]
    return spikes
