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
one thread per CPU, so the number of threads changes no bit; so does
count_spikes, the one pass that encodes samples and counts their spikes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import os
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoding import encode_batch
from .numerics import Rng, WEIGHT_STREAM

# row_groups cuts rows into parts of at least PART samples and
# PART_ELEMENTS potentials per step, and into at most PARTS parts (README:
# "Simulation kernel and extraction chunks").
PART = 4
PARTS = 16
PART_ELEMENTS = 2048
# Samples per chunk of a selection in count_spikes, which runs each chunk as
# its row_groups (README: why 8).
EXTRACT_CHUNK = 8
# Least seconds between two progress lines of count_spikes.
PROGRESS_SECONDS = 5.0

log = logging.getLogger("ransnn")


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
        if not -np.inf < self.low < self.high < np.inf:
            raise ValueError(f"uniform bounds must be finite with low < high, "
                             f"got [{self.low}, {self.high})")


@dataclass(frozen=True)
class Normal:
    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and 0 <= self.std < np.inf):
            raise ValueError(f"normal needs a finite mean and a finite std >= 0, "
                             f"got N({self.mean}, {self.std})")


WeightDistribution = Uniform | Normal


def fan_in_uniform(n_in: int) -> Uniform:
    """The default weight distribution U(-a, a) with a = sqrt(6 / fan_in)."""
    a = float(np.sqrt(6.0 / n_in))
    return Uniform(-a, a)


def sample_weights(dist: WeightDistribution, rng: Rng, rows: int, cols: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Sample a (rows, cols) matrix i.i.d. from dist, filled row-major; out,
    if given, is a writable, C-contiguous float64 array of rows * cols
    entries that receives the matrix, which is then a view of it."""
    if isinstance(dist, Uniform):
        vals = rng.uniform(dist.low, dist.high, rows * cols, out=out)
    elif isinstance(dist, Normal):
        vals = rng.normal(dist.mean, dist.std, rows * cols, out=out)
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


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    thread count, so that no float result depends on OPENBLAS_NUM_THREADS.
    Where OpenBLAS's symbols are missing it does nothing, and run records
    say "unpinned"."""
    lib = openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def worker_count() -> int:
    """The threads that run the parts of simulate, of count_spikes and of
    the BPTT backward: one per CPU this process may run on while numpy's
    OpenBLAS runs one thread (as one_blas_thread pins it), else 1, so that
    the parts and OpenBLAS's own threads never compete for the cores."""
    lib = openblas()
    if lib is None or lib.scipy_openblas_get_num_threads64_() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def row_groups(start: int, stop: int, width: int) -> list[slice]:
    """Rows [start, stop) of a batch whose widest layer has width neurons,
    cut into parts of max(PART, ceil(n / PARTS), ceil(PART_ELEMENTS /
    width)) rows, n = stop - start, the last one shorter. These are the
    GEMM row groups that fix every bit, so they depend on the shapes alone.
    Numpy calls on fewer than PART_ELEMENTS potentials are too short for a
    second thread to gain, and each part adds calls."""
    size = max(PART, -(-(stop - start) // PARTS), -(-PART_ELEMENTS // width))
    return [slice(row, min(row + size, stop)) for row in range(start, stop, size)]


def run_parts(fn, parts: list[slice]) -> None:
    """fn(rows) for each slice rows of parts, so that min(worker_count(),
    len(parts)) run at once: in order on the calling thread where that is 1,
    else each on a pool of that many threads that lives for the call. Each
    part must write only its own outputs and must not call run_parts, so no
    bit depends on which thread runs it or when. Returns once every part is
    done, raising the first part's error of any."""
    workers = min(worker_count(), len(parts))
    if workers <= 1:
        for rows in parts:
            fn(rows)
        return
    # Every part is submitted and the pool drained before any result is
    # read: Executor.map would cancel the pending parts once one raised.
    with ThreadPoolExecutor(workers, thread_name_prefix="ransnn-part") as pool:
        futures = [pool.submit(fn, rows) for rows in parts]
    for f in futures:
        f.result()


def work_arrays(scratch: dict, weights, n_batch: int, steps: int) -> list[tuple]:
    """Per layer i, (w, cur, out) for a batch of n_batch samples: its
    float64 currents, kept in scratch under ("cur", i), and the array its
    spikes go to. That is the next layer's float64 input, kept under
    ("in", i + 1), or for the last layer uint8 spikes, kept under "spikes".
    The first layer's input is the caller's."""
    layers = []
    for i, w in enumerate(weights):
        shape = (n_batch, steps, w.shape[0])
        cur = _buffer(scratch, ("cur", i), shape, np.float64)
        if i + 1 < len(weights):
            layers.append((w, cur, _buffer(scratch, ("in", i + 1), shape, np.float64)))
        else:
            layers.append((w, cur, _buffer(scratch, "spikes", shape, np.uint8)))
    return layers


def lif_stack(x: np.ndarray, layers, lif: LifParams, record: bool = False) -> np.ndarray:
    """The one LIF recursion: a (m, T, n_in) part of float64 0.0/1.0
    inputs x through the layers of work_arrays for m samples, every
    potential starting at 0, to the last layer's spikes. Per layer one GEMM
    of the (m*T, n_in) rows by w.T writes the currents, then the steps write
    spikes into out (and, with record, the pre-reset potentials over the
    currents): as 0.0/1.0 into the next layer's input, whose GEMM reads
    them, or as uint8 for the last layer. It starts no thread."""
    for w, cur, out in layers:
        np.matmul(x.reshape(-1, w.shape[1]), w.T, out=cur.reshape(-1, w.shape[0]))
        u = np.zeros((cur.shape[0], w.shape[0]))
        for t in range(cur.shape[1]):
            u *= lif.beta
            u += cur[:, t]
            fired = np.greater(u, lif.u_thr, out=out[:, t])
            if record:
                cur[:, t] = u
            u -= lif.u_thr * fired
        x = out
    return x


def simulate(bits: np.ndarray, weights, lif: LifParams,
             scratch: dict | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """A (B, T, n_in) batch of 0/1 inputs through a stack of layers
    sharing the neuron constants lif, every potential starting at 0.

    The batch splits into row_groups(0, B, n), n the widest layer's
    width, which run_parts spreads over the workers; each part runs
    lif_stack over its rows of the work arrays, recording. Returns per layer
    the arrays it ran in: the (B, T, n) pre-reset potentials and the
    (B, T, n) spikes, as float64 0.0/1.0 for a layer that feeds another (the
    next layer's GEMM input) and as uint8 for the last layer. A scratch
    dict passed to successive calls keeps their work arrays, which the
    returned arrays then share until the next call.

    Every work array is made on the calling thread before the parts run.
    Each part copies its bits as float64 into its own rows of the second
    layer's input, which hold nothing until the first layer's spikes
    overwrite them, or, where those are narrower or there is one layer, of a
    (B, T, n_in) work array kept under ("in", 0). The split is fixed by the
    shapes alone, so any worker count gives the same bits; another grouping
    of the rows may not, since BLAS may round a GEMM's rows differently in
    it (README, "Simulation kernel and extraction chunks").
    """
    n_batch, steps, n_in = bits.shape
    if n_in != weights[0].shape[1]:
        raise ValueError(f"input has {n_in} neurons, layer 1 expects {weights[0].shape[1]}")
    scratch = {} if scratch is None else scratch
    layers = work_arrays(scratch, weights, n_batch, steps)
    wide = len(weights) > 1 and weights[0].shape[0] >= n_in
    inputs = layers[0][2] if wide else _buffer(scratch, ("in", 0), bits.shape, np.float64)

    def run_part(rows):
        shape = bits[rows].shape
        x = inputs[rows].reshape(-1)[:np.prod(shape)].reshape(shape)
        x[...] = bits[rows]
        lif_stack(x, [(w, cur[rows], out[rows]) for w, cur, out in layers], lif, record=True)

    run_parts(run_part, row_groups(0, n_batch, max(w.shape[0] for w in weights)))
    return [(cur, out) for _, cur, out in layers]


def simulate_forward(net: NetworkTopology, bits: np.ndarray) -> np.ndarray:
    """The last hidden layer's (B, T, n_L) uint8 spikes for a (B, T, n_in)
    bit array of B samples."""
    return simulate(bits, net.weights, net.lif)[-1][1]


def count_spikes(weights, lif: LifParams, images, indices, steps, master_seed: int,
                 stream_base: int) -> dict[int, np.ndarray]:
    """The last layer's spike counts of the samples images[indices] through
    the layers of weights, each sample encoded from stream stream_base + its
    index of master_seed: one (n, n_L) array per window length t in steps,
    row k summing the first t steps of sample indices[k], as uint8 where
    max(steps) <= 255 and as uint16 otherwise.

    The samples run once at T = max(steps). A sample's encoding at t is the
    first t rows of its encoding at T, and no step's spikes depend on a later
    one, so each array equals a direct count at t. The units, each chunk of
    EXTRACT_CHUNK samples cut by row_groups at the widest layer's width, fix
    every GEMM's rows and go to one run_parts call. Before it the calling
    thread makes one set of work arrays per worker, sized for the largest
    unit, so none comes from a part thread's malloc arena. A unit takes a set
    from a queue and puts it back when it ends, raising or not, encodes its
    samples as 0.0/1.0 straight into the first layer's float64 input, runs
    lif_stack in the set and sums its counts into its own rows of every
    array. The thread that finishes a unit logs the samples done and the
    samples per second at INFO, at most once per PROGRESS_SECONDS.
    """
    steps = sorted({int(t) for t in steps})
    if not steps:
        raise ValueError("steps must name at least one window length")
    if images.shape[1] != weights[0].shape[1]:
        raise ValueError(f"dataset samples have {images.shape[1]} pixels, the first "
                         f"layer expects {weights[0].shape[1]} inputs")
    if steps[0] < 1 or steps[-1] > 0xFFFF:
        raise ValueError(f"window lengths must lie in [1, 65535] (u16 counts), got {steps}")
    indices = np.asarray(indices, dtype=np.int64)
    counts = {t: np.zeros((len(indices), weights[-1].shape[0]),
                          dtype=np.min_scalar_type(steps[-1])) for t in steps}
    width = max(w.shape[0] for w in weights)
    units = [rows for chunk in range(0, len(indices), EXTRACT_CHUNK)
             for rows in row_groups(chunk, min(chunk + EXTRACT_CHUNK, len(indices)), width)]
    largest = max((rows.stop - rows.start for rows in units), default=0)
    homes = queue.SimpleQueue()
    for _ in range(min(worker_count(), len(units))):
        home = {}
        _buffer(home, ("in", 0), (largest, steps[-1], images.shape[1]), np.float64)
        work_arrays(home, weights, largest, steps[-1])
        homes.put(home)
    lock = threading.Lock()
    done, start = 0, time.perf_counter()
    logged = start

    def run_unit(rows):
        nonlocal done, logged
        shape = (rows.stop - rows.start, steps[-1], images.shape[1])
        home = homes.get()
        try:
            x = encode_batch(images, indices[rows], steps[-1], master_seed, stream_base,
                             out=_buffer(home, ("in", 0), shape, np.float64))
            spikes = lif_stack(x, work_arrays(home, weights, len(x), steps[-1]), lif)
            for t in steps:
                spikes[:, :t].sum(axis=1, dtype=counts[t].dtype, out=counts[t][rows])
        finally:
            homes.put(home)
        with lock:
            done += len(x)
            now = time.perf_counter()
            if now - logged >= PROGRESS_SECONDS:
                logged = now
                log.info("spike counts: %d of %d samples, %.0f samples/s", done,
                         len(indices), done / (now - start))

    run_parts(run_unit, units)
    return counts
