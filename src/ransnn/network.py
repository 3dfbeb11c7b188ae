"""The spiking network core: LIF layer dynamics, fixed random weights, and
discrete-time forward simulation.

A network is a stack of LIF layers whose weight matrices are sampled once
from a chosen distribution and then frozen; only the readout trained on top
of its spike counts ever changes. Each simulation step updates a layer as

    u_pre  = beta * u + W s_in(t)
    s      = 1 where u_pre > u_thr   (strict)
    u_post = u_pre - u_thr * s       (subtractive reset)

with layers consuming the spikes their predecessor emitted at the same step.
simulate runs a batch in parts of samples fixed by the shapes, spread over
one thread per CPU, so the number of threads changes no bit.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng, WEIGHT_STREAM

# simulate splits a batch into parts of at least PART samples and
# PART_ELEMENTS potentials per step, and into at most PARTS parts (README:
# "Simulation kernel and extraction chunks").
PART = 4
PARTS = 16
PART_ELEMENTS = 2048


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


@functools.cache
def openblas():
    """numpy's bundled OpenBLAS, loaded by ctypes, or None where its
    thread-count and config symbols cannot be found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            for name, argtypes, restype in (("set_num_threads", [ctypes.c_int], None),
                                            ("get_num_threads", [], ctypes.c_int),
                                            ("get_config", [], ctypes.c_char_p),
                                            ("get_corename", [], ctypes.c_char_p)):
                fn = getattr(lib, f"scipy_openblas_{name}64_")
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError):
            continue
        return lib
    return None


def worker_count() -> int:
    """The threads that run the parts of simulate and of the BPTT backward:
    one per CPU this process may run on while numpy's OpenBLAS runs one
    thread (as harness.one_blas_thread pins it), else 1, so that the parts
    and OpenBLAS's own threads never compete for the cores."""
    lib = openblas()
    if lib is None or lib.scipy_openblas_get_num_threads64_() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def part_size(n_batch: int, width: int) -> int:
    """Samples per part of a batch of n_batch samples whose widest layer
    has width neurons; it depends on these shapes alone. Numpy calls on
    fewer than PART_ELEMENTS potentials are too short for a second thread
    to gain, and each part adds calls."""
    return max(PART, -(-n_batch // PARTS), -(-PART_ELEMENTS // width))


_pool: tuple[int, int, ThreadPoolExecutor] | None = None  # (pid, threads, pool)
_pool_lock = threading.Lock()


def run_parts(fn, n: int, size: int) -> None:
    """fn(rows) for the slices rows = [0, size), [size, 2 size), ... that
    cover range(n), on up to worker_count() threads: the calling thread and
    a pool created on first use. Each part must write only its own outputs,
    so no bit depends on which thread runs it or when. Returns once every
    part is done, raising the first error of any."""
    global _pool
    parts = [slice(start, start + size) for start in range(0, n, size)]
    threads = min(worker_count(), len(parts))
    if threads <= 1:
        for rows in parts:
            fn(rows)
        return
    with _pool_lock:
        # A replaced pool's threads end once it is garbage collected.
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads - 1:
            _pool = (os.getpid(), threads - 1,
                     ThreadPoolExecutor(threads - 1, thread_name_prefix="ransnn-part"))
        pool = _pool[2]
    pending, lock = iter(parts), threading.Lock()

    def drain():
        while True:
            with lock:
                rows = next(pending, None)
            if rows is None:
                return
            fn(rows)

    futures = [pool.submit(drain) for _ in range(threads - 1)]
    try:
        drain()
    finally:
        wait(futures)
    for f in futures:
        f.result()


def simulate(bits: np.ndarray, weights, lif: LifParams, *, record: bool = False,
             scratch: dict | None = None) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """The one LIF kernel: a (B, T, n_in) batch of 0/1 inputs through a
    stack of layers sharing the neuron constants lif, every potential
    starting at 0.

    The batch splits into parts of part_size(B, n) samples, n the widest
    layer's width, which run_parts
    spreads over the workers. A part runs the whole stack over its samples:
    per layer one GEMM of its (part*T, n_in) rows by W.T for their input
    currents, then the recursion in place over the steps. Returns one
    (spikes, u_pre) pair per layer: the (B, T, n) uint8 raster and, with
    record=True, the pre-reset potentials written over the currents (else
    None). A scratch dict passed to successive calls keeps their work
    arrays, which the returned arrays then share; the (B*T, n) float64 copy
    of layer i's input stays readable at _buffer(scratch, ("in", i), ...)
    until the next call. No row depends on the rest of the batch, so any
    grouping gives bit-identical spikes; the split depends only on the
    shapes, so any worker count gives the same bits.
    """
    n_batch, steps, n_in = bits.shape
    if n_in != weights[0].shape[1]:
        raise ValueError(f"input has {n_in} neurons, layer 1 expects {weights[0].shape[1]}")
    scratch = {} if scratch is None else scratch
    layers = []
    for i, w in enumerate(weights):
        n_out, n_prev = w.shape
        layers.append((w, _buffer(scratch, ("in", i), (n_batch, steps, n_prev), np.float64),
                       _buffer(scratch, ("cur", i), (n_batch, steps, n_out), np.float64),
                       _buffer(scratch, ("spikes", i), (n_batch, steps, n_out), np.uint8)))

    def run_part(rows):
        s = bits[rows]
        for w, x, cur, spikes in layers:
            x, cur, spikes = x[rows], cur[rows], spikes[rows]
            x[...] = s
            np.matmul(x.reshape(-1, w.shape[1]), w.T, out=cur.reshape(-1, w.shape[0]))
            u = np.zeros((cur.shape[0], w.shape[0]))
            for t in range(steps):
                u *= lif.beta
                u += cur[:, t]
                fired = np.greater(u, lif.u_thr, out=spikes[:, t])
                if record:
                    cur[:, t] = u
                u -= lif.u_thr * fired
            s = spikes

    run_parts(run_part, n_batch, part_size(n_batch, max(w.shape[0] for w in weights)))
    return [(spikes, cur if record else None) for _, _, cur, spikes in layers]


def simulate_forward(net: NetworkTopology, bits: np.ndarray, *,
                     scratch: dict | None = None) -> np.ndarray:
    """The last hidden layer's (B, T, n_L) uint8 spikes for a (B, T, n_in)
    bit array of B samples; scratch as in simulate."""
    spikes, _ = simulate(bits, net.weights, net.lif, scratch=scratch)[-1]
    return spikes
