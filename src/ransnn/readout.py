"""Spike-count feature extraction and the trained linear readout.

The hidden network is fixed, so every sample's spike-count vector is computed
exactly once and cached; training then touches only the cached features. That
single pass is what makes readout training orders of magnitude cheaper than
training the whole network. The readout itself is a linear map plus softmax,
trained with Adam on mean cross-entropy.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Uncalled: encode_sample, simulate_forward stay for bench sites encoding.encode, network.simulate
from .encoding import encode_sample  # noqa: F401
from .idx import LabeledDataset
from .network import (LifParams, NetworkTopology, WeightDistribution,  # noqa: F401
                      count_spikes, simulate_forward)
from .numerics import AdamConfig, AdamState, PROB_FLOOR, adam_step, softmax

CACHE_MAGIC = b"RSNNFC01"
# Feature entries a cache save widens, a load narrows, or held-out scoring
# widens to float32, at a time: no whole-matrix copy in the other dtype is
# made.
CACHE_BLOCK = 1 << 20
# Training steps whose held-out accuracies one GEMM scores (README: why 16).
EVAL_GROUP = 16


def feature_digest(layer_sizes, dist: WeightDistribution, seed: int, lif: LifParams,
                   time_steps: int, dataset_id: str, master_seed: int,
                   stream_base: int, indices) -> int:
    """64-bit fingerprint of everything that determines a feature cache.

    Equal digests mean equal network seed, sizes, weight distribution, LIF
    constants, window length, dataset split, encoding streams and selected
    indices, so a cache may stand in for re-simulation, without the weights.
    The "norm" part names the one input normalization, and the "lif" part
    repeats lif once per weight matrix, so caches written when these were
    settings (or per layer) keep their digests.
    """
    parts = [
        f"seed={seed}",
        f"sizes={tuple(int(n) for n in layer_sizes)}",
        f"dist={dist!r}",
        "lif=" + ";".join([f"{lif.beta!r},{lif.u_thr!r}"] * (len(layer_sizes) - 1)),
        f"T={time_steps}",
        "norm=divide_by_max",
        f"dataset={dataset_id}",
        f"master_seed={master_seed}",
        f"stream_base={stream_base}",
    ]
    h = hashlib.blake2b("|".join(parts).encode(), digest_size=8)
    h.update(np.asarray(indices, dtype="<i8").tobytes())
    return struct.unpack("<Q", h.digest())[0]


class CacheFormatError(ValueError):
    """A feature cache file that is not one save wrote for the expected
    configuration: bad magic, short header, digest mismatch, a payload of
    the wrong length or a count above its window length."""


@dataclass
class FeatureCache:
    """Per-sample spike counts for one dataset split under one fixed network.

    features is (num_samples, n_L) with entries in [0, time_steps], as
    count_spikes makes them and load returns them: uint8 where time_steps
    <= 255, else uint16. source_config_digest fingerprints the producing
    configuration so a stale cache cannot silently stand in for a different
    one.
    """

    features: np.ndarray
    labels: np.ndarray
    time_steps: int
    source_config_digest: int

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def save(self, path) -> None:
        """Write the flat binary layout: magic, four little-endian u64
        fields (num_samples, n_L, T, digest), u16 features row-major, then
        u16 labels. Floats, labels outside [0, 65535] and features outside
        [0, min(T, 65535)], which load would refuse, are a ValueError before
        any file is made. The bytes go to a temporary file in the same
        directory that then replaces path, so a crash never leaves a
        truncated cache."""
        n, f = self.features.shape
        for name, a, top in (("features", self.features, min(self.time_steps, 0xFFFF)),
                             ("labels", self.labels, 0xFFFF)):
            if not np.issubdtype(a.dtype, np.integer) or a.size and (
                    a.min() < 0 or a.max() > top):
                raise ValueError(f"{name} do not fit the u16 on-disk layout in [0, {top}]")
        path = Path(path)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(CACHE_MAGIC)
                fh.write(struct.pack("<QQQQ", n, f, self.time_steps,
                                     self.source_config_digest))
                # Buffer-protocol writes of u16 row blocks: a contiguous u16
                # matrix is not copied, and a uint8 one is widened a block at
                # a time.
                for rows in _blocks(n, f):
                    fh.write(np.ascontiguousarray(self.features[rows], dtype="<u2"))
                fh.write(np.ascontiguousarray(self.labels, dtype="<u2"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, expected_digest: int | None = None) -> "FeatureCache":
        """Read a cache written by save, a row block at a time, into uint8
        features where T <= 255, else uint16. A count above T is a
        CacheFormatError."""
        with open(path, "rb") as fh:
            head = fh.read(40)
            if head[:8] != CACHE_MAGIC:
                raise CacheFormatError(f"{path}: not a feature cache (bad magic)")
            if len(head) != 40:
                raise CacheFormatError(f"{path}: truncated cache header")
            n, f, t, digest = struct.unpack("<QQQQ", head[8:])
            if expected_digest is not None and digest != expected_digest:
                raise CacheFormatError(
                    f"{path}: cache digest {digest:#x} does not match expected "
                    f"{expected_digest:#x}; it was built from a different configuration")
            have = os.fstat(fh.fileno()).st_size - 40
            need = 2 * n * f + 2 * n
            if have != need:
                raise CacheFormatError(f"{path}: truncated cache or trailing bytes "
                                       f"(have {have} payload bytes, need {need})")
            feats = np.empty((n, f), dtype=np.uint8 if t <= 0xFF else np.uint16)
            blocks = _blocks(n, f)
            block = np.empty((blocks[0].stop if blocks else 0, f), dtype="<u2")
            for rows in blocks:
                part = block[:rows.stop - rows.start]
                fh.readinto(part)
                if part.max(initial=0) > t:
                    raise CacheFormatError(f"{path}: a count exceeds the window length T = {t}")
                feats[rows] = part
            labels = np.empty(n, dtype="<u2")
            fh.readinto(labels)
        return cls(features=feats, labels=labels.astype(np.int64), time_steps=int(t),
                   source_config_digest=int(digest))


def _blocks(n: int, f: int) -> list[slice]:
    """Rows [0, n) of an (n, f) matrix in blocks of at most CACHE_BLOCK
    entries, and at least one row."""
    size = max(1, CACHE_BLOCK // max(f, 1))
    return [slice(row, min(row + size, n)) for row in range(0, n, size)]


def extract_features(net: NetworkTopology, time_steps: int, dataset: LabeledDataset,
                     master_seed: int, *, indices, stream_base: int,
                     dataset_id: str) -> FeatureCache:
    """The FeatureCache of the selected samples' count_spikes through net at
    the window time_steps; dataset_id names the split in its digest."""
    indices = np.asarray(indices, dtype=np.int64)
    [(t, counts)] = count_spikes(net.weights, net.lif, dataset.images, indices, (time_steps,),
                                 master_seed, stream_base).items()
    return FeatureCache(features=counts, labels=dataset.labels[indices], time_steps=t,
                        source_config_digest=feature_digest(
                            net.layer_sizes, net.dist, net.seed, net.lif, t, dataset_id,
                            master_seed, stream_base, indices))


@dataclass
class ReadoutModel:
    """Linear map from spike counts to class logits, plus a bias."""

    weights: np.ndarray  # (num_classes, n_features)
    bias: np.ndarray  # (num_classes,)

    @property
    def num_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class IterationMetrics:
    """One training-curve point.

    train_accuracy is measured on the iteration's minibatch; test_accuracy on
    the full held-out cache. elapsed is cumulative training seconds up to and
    including this iteration, with metric evaluation excluded.
    """

    iteration: int
    train_accuracy: float
    test_accuracy: float
    loss: float
    elapsed: float


def readout_loss_grad(model: ReadoutModel, x: np.ndarray,
                      labels: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, probs, grad) for a batch: the mean clamped cross-entropy of the
    softmax of x @ weights.T + bias against labels, those (B, C)
    probabilities, and the loss's analytic gradient.

    x is (B, n_features) float64. d_logits is (softmax - one-hot) / B; grad
    is one flat vector holding the weight gradient d_logits.T @ x row-major,
    then the bias gradient, d_logits' column sums.
    """
    probs = softmax(x @ model.weights.T + model.bias)
    rows = np.arange(len(labels))
    loss = float(-np.log(np.maximum(probs[rows, labels], PROB_FLOOR)).mean())
    d_logits = probs.copy()
    d_logits[rows, labels] -= 1.0
    d_logits /= len(labels)
    n_w = model.weights.size
    grad = np.empty(n_w + len(model.bias))
    np.matmul(d_logits.T, x, out=grad[:n_w].reshape(model.weights.shape))
    grad[n_w:] = d_logits.sum(axis=0)
    return loss, probs, grad


def train_readout(cache_train: FeatureCache, cache_test: FeatureCache, *,
                  adam: AdamConfig, batch_size: int,
                  num_classes: int) -> tuple[ReadoutModel, list[IterationMetrics]]:
    """Train the linear readout on cached features with Adam.

    Batches are consecutive blocks of batch_size rows of the training cache,
    visited in order (one Adam step per batch, any trailing partial block
    dropped); the whole procedure is a pure function of its arguments. Every
    label must lie in [0, num_classes). A metrics point, with held-out
    accuracy on the whole test cache, is recorded after every step; its
    elapsed field times only the forward/backward/update work, not metric
    evaluation. Each step's weights and bias are copied into a buffer of
    min(EVAL_GROUP, steps) snapshots, which _test_accuracies scores from
    the test counts after the group's last step.
    """
    if len(cache_train) == 0 or len(cache_test) == 0:
        raise ValueError("training requires non-empty train and test caches")
    if cache_train.num_features != cache_test.num_features:
        raise ValueError(
            f"feature width mismatch: train {cache_train.num_features} vs "
            f"test {cache_test.num_features}")
    if not all(0 <= c.labels.min() <= c.labels.max() < num_classes
               for c in (cache_train, cache_test)):
        raise ValueError(f"a cache holds a label outside [0, {num_classes})")
    if not 1 <= batch_size <= len(cache_train):
        raise ValueError(
            f"batch_size must lie in [1, {len(cache_train)}] (the cache), got {batch_size}")
    n_feat = cache_train.num_features
    total_iters = len(cache_train) // batch_size

    # Adam updates theta in place; the weights (row-major), then the bias,
    # are views of it.
    theta = np.zeros((n_feat + 1) * num_classes)
    n_w = num_classes * n_feat
    model = ReadoutModel(weights=theta[:n_w].reshape(num_classes, n_feat), bias=theta[n_w:])
    state = AdamState.zeros(theta.size, adam)
    group = min(EVAL_GROUP, total_iters)
    w_group = np.empty((group, num_classes, n_feat))
    b_group = np.empty((group, num_classes))

    metrics: list[IterationMetrics] = []
    pending: list[tuple[int, float, float, float]] = []
    elapsed = 0.0
    for iteration in range(1, total_iters + 1):
        rows = slice((iteration - 1) * batch_size, iteration * batch_size)
        t0 = time.perf_counter()
        xb = cache_train.features[rows].astype(np.float64)
        yb = cache_train.labels[rows]
        loss, probs, grad = readout_loss_grad(model, xb, yb)
        adam_step(theta, grad, state)
        elapsed += time.perf_counter() - t0

        w_group[len(pending)] = model.weights
        b_group[len(pending)] = model.bias
        pending.append((iteration, float((probs.argmax(axis=1) == yb).mean()), loss, elapsed))
        if len(pending) == group or iteration == total_iters:
            test_accs = _test_accuracies(cache_test.features, cache_test.labels,
                                         w_group[:len(pending)], b_group[:len(pending)])
            metrics += [IterationMetrics(iteration=i, train_accuracy=batch_acc,
                                         test_accuracy=test_acc, loss=step_loss,
                                         elapsed=step_elapsed)
                        for (i, batch_acc, step_loss, step_elapsed), test_acc
                        in zip(pending, test_accs)]
            pending.clear()

    return model, metrics


def _gamma(n_feat: int, u: float) -> float:
    """γ_K = Ku / (1 - Ku) at unit roundoff u for K = n_feat terms, or inf
    where Ku >= 1/4, past which the bounds below are not proved."""
    return n_feat * u / (1.0 - n_feat * u) if n_feat * u < 0.25 else np.inf


def _leads(logits, preds, margin) -> np.ndarray:
    """(m, n) mask over the (m, C, n) logits whose argmax over classes is
    preds: True where every logit is finite and the top one leads the next
    by more than margin, an (m, n) array. It overwrites each top logit with
    -inf."""
    sure = np.isfinite(logits).all(axis=1)
    top = np.take_along_axis(logits, preds[:, None], axis=1)[:, 0]
    np.put_along_axis(logits, preds[:, None], -np.inf, axis=1)
    with np.errstate(invalid="ignore"):
        sure &= top.astype(np.float64, copy=False) - logits.max(axis=1) > margin
    return sure


def _certified(logits, preds, x_sums, w_max, b_max, k: int) -> np.ndarray:
    """_leads of the (m, C, n) logits of n rows with row sums x_sums, scored
    under m snapshots of K = k weights, max|W| w_max and max|b| b_max, in
    the logits' dtype from operands cast to it, with the margin
    2.5 (e + e64) (README, "Determinism").

    e = (γ_K + 3u)(A + B) + 2σ (x_sums + 1), with u the dtype's unit
    roundoff and σ its smallest subnormal, A = x_sums · max|W| and
    B = max|b|, bounds the logit's distance from the exact one: the casts
    of W and b, at most σ/2 more for an entry that lands among the
    subnormals, the sum in any order, with or without FMA, and the bias's
    addition. e64 = (γ_K + 2u)(A + B) at u = 2⁻⁵³ bounds the snapshot's
    float64 product likewise. So the two differ by at most e + e64, and a
    lead above twice that fixes the product's argmax; the factor 2.5
    leaves room for the rounding of the bounds and of the lead.
    """
    info = np.finfo(logits.dtype)
    u, u64 = float(info.eps) / 2, 2.0 ** -53
    scale = np.multiply.outer(w_max, x_sums) + b_max[:, None]
    e = (_gamma(k, u) + 3 * u + _gamma(k, u64) + 2 * u64) * scale
    e += 2 * float(info.smallest_subnormal) * (x_sums + 1.0)
    return _leads(logits, preds, 2.5 * e)


def _test_accuracies(counts, labels, weights, bias) -> list[float]:
    """Held-out accuracy of each snapshot j, weights[j] (C, K) and bias[j]
    (C,), on the (n, K) integer spike counts: that of the snapshot's
    float64 product counts @ weights[j].T + bias[j], whose argmax takes the
    lowest of tied classes. Three levels find it, each only where the last
    could not:

    1. A float32 GEMM, with the snapshots' weights stacked into m·C rows
       and a row of ones, scores every snapshot over the _blocks of the
       counts, each widened into one float32 work array. The ones row's
       sums are exact below 2²⁴ (in any order, a sum of nonnegative
       integers first rounds at a partial sum past 2²⁴, and no later sum
       falls back below it); a block with a larger one is summed in
       float64. _certified accepts a (snapshot, row) pair whose argmax it
       proves equal to the product's.
    2. The rows of a snapshot left uncertified are scored by a float64
       product of those rows alone, over _blocks of them, which _certified
       accepts likewise.
    3. A snapshot with a row that neither accepts is rescored by its whole
       float64 product, from a float64 copy of the counts made on demand.

    So the accuracy does not depend on any GEMM's last bits, nor on the
    blocks.
    """
    (m, c, k), n = weights.shape, len(counts)
    with np.errstate(over="ignore"):
        w32 = np.vstack([weights.reshape(m * c, k), np.ones(k)]).astype(np.float32)
        b32 = np.append(bias, 0.0).astype(np.float32)[:, None]
    w_max, b_max = np.abs(weights).max(axis=(1, 2)), np.abs(bias).max(axis=1)
    preds, sure, x_sums = np.empty((m, n), np.intp), np.empty((m, n), bool), np.empty(n)
    blocks = _blocks(n, k)
    work = np.empty((blocks[0].stop, k), dtype=np.float32)
    for rows in blocks:
        x = work[:rows.stop - rows.start]
        np.copyto(x, counts[rows])
        with np.errstate(over="ignore", invalid="ignore"):
            logits = w32 @ x.T
            logits += b32
        sums = logits[-1]
        x_sums[rows] = sums if sums.max() < 2 ** 24 else x.sum(axis=1, dtype=np.float64)
        logits = logits[:-1].reshape(m, c, len(x))
        preds[:, rows] = logits.argmax(axis=1)
        sure[:, rows] = _certified(logits, preds[:, rows], x_sums[rows], w_max, b_max, k)
    del work, x  # level 2's float64 blocks do not sit on top of the work array
    whole = None
    for j in np.flatnonzero(~sure.all(axis=1)):
        left = np.flatnonzero(~sure[j])
        for rows in (left[block] for block in _blocks(len(left), k)):
            part = (counts[rows].astype(np.float64) @ weights[j].T + bias[j]).T[None]
            part_preds = part.argmax(axis=1)
            sure[j, rows] = _certified(part, part_preds, x_sums[rows], w_max[j:j + 1],
                                       b_max[j:j + 1], k)[0]
            preds[j, rows] = part_preds[0]
        if not sure[j].all():
            whole = counts.astype(np.float64) if whole is None else whole
            preds[j] = (whole @ weights[j].T + bias[j]).argmax(axis=1)
    return [float(acc) for acc in (preds == labels).mean(axis=1)]


def evaluate(model: ReadoutModel, cache: FeatureCache) -> float:
    """Fraction of cache samples whose argmax class matches the label,
    scored as one snapshot by the training curve's scorer.

    Ties resolve to the lowest class index (argmax takes the first maximum).
    """
    if len(cache) == 0:
        raise ValueError("cannot evaluate on an empty cache")
    if cache.num_features != model.num_features:
        raise ValueError(
            f"cache width {cache.num_features} does not match model width "
            f"{model.num_features}")
    return _test_accuracies(cache.features, cache.labels, model.weights[None],
                            model.bias[None])[0]
