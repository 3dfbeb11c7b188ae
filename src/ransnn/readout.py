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
# Feature entries a cache save widens, or a load narrows, at a time: no
# whole-matrix copy in the other dtype is made.
CACHE_BLOCK = 1 << 18
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
    label must lie below num_classes. A metrics point, with held-out
    accuracy on the whole test cache, is recorded after every step; its
    elapsed field times only the forward/backward/update work, not metric
    evaluation. Each step's weights and bias are copied into a buffer of
    min(EVAL_GROUP, steps) snapshots, which _test_accuracies scores after
    the group's last step from the test counts and one float32 copy of
    them.
    """
    if len(cache_train) == 0 or len(cache_test) == 0:
        raise ValueError("training requires non-empty train and test caches")
    if cache_train.num_features != cache_test.num_features:
        raise ValueError(
            f"feature width mismatch: train {cache_train.num_features} vs "
            f"test {cache_test.num_features}")
    if max(cache_train.labels.max(), cache_test.labels.max()) >= num_classes:
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
    x_test = cache_test.features.astype(np.float32)
    x_sums = _row_sums(cache_test.features)
    y_test = cache_test.labels
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
            test_accs = _test_accuracies(cache_test.features, x_test, x_sums, y_test,
                                         w_group[:len(pending)], b_group[:len(pending)])
            metrics += [IterationMetrics(iteration=i, train_accuracy=batch_acc,
                                         test_accuracy=test_acc, loss=step_loss,
                                         elapsed=step_elapsed)
                        for (i, batch_acc, step_loss, step_elapsed), test_acc
                        in zip(pending, test_accs)]
            pending.clear()

    return model, metrics


def _row_sums(features) -> np.ndarray:
    """Each row's sum of spike counts, exact (integer) and as float64."""
    return features.sum(axis=1, dtype=np.int64).astype(np.float64)


def _gamma(n_feat: int, u: float) -> float:
    """γ_K = Ku / (1 - Ku) at unit roundoff u for K = n_feat terms, or inf
    where Ku >= 1/4, past which the bounds below are not proved."""
    return n_feat * u / (1.0 - n_feat * u) if n_feat * u < 0.25 else np.inf


def _scale(x_sums, weights, bias) -> np.ndarray:
    """(m, n) A + B per snapshot and sample: x_sums · max|W| + max|b|."""
    return (np.multiply.outer(np.abs(weights).max(axis=(1, 2)), x_sums)
            + np.abs(bias).max(axis=1)[:, None])


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


def _certified(logits, preds, x_sums, weights, bias) -> np.ndarray:
    """_leads of the float64 logits of n samples under m snapshots with the
    margin 5e, e = (γ_K + 2u)(A + B) at u = 2⁻⁵³ (_gamma, _scale; README,
    "Determinism").

    Any summation order, with or without FMA, of a row x >= 0 times a
    snapshot's weights plus its bias is within e of the exact logit, so two
    such products differ by at most 2e and a lead above 4e in one fixes the
    other's argmax. The factor 5 leaves room for the rounding of e and of
    the lead.
    """
    u = 2.0 ** -53
    return _leads(logits, preds, 5 * (_gamma(weights.shape[2], u) + 2 * u)
                  * _scale(x_sums, weights, bias))


def _certified32(logits, preds, x_sums, weights, bias) -> np.ndarray:
    """_leads of float32 logits, computed from float32 copies of the counts,
    weights and bias, with the margin 2.5 (e32 + e64).

    e64 is _certified's e. e32 = (γ_K + 3u)(A + B) + 2⁻¹⁴⁸ (x_sums + 1) at
    u = 2⁻²⁴ bounds the float32 logit's distance from the exact one: the
    rounding of W and b to float32, at most 2⁻¹⁵⁰ more for an entry that
    lands among the subnormals, the GEMM's sum in any order and the bias's
    addition. So the float32 logits and the snapshot's float64 product
    differ by at most e32 + e64, and a lead above twice that fixes the
    product's argmax; the factor 2.5 leaves room for the rounding of the
    bounds and of the lead.
    """
    u32, u64, k = 2.0 ** -24, 2.0 ** -53, weights.shape[2]
    scale = _scale(x_sums, weights, bias)
    e = (_gamma(k, u32) + 3 * u32 + _gamma(k, u64) + 2 * u64) * scale
    e += 2.0 ** -148 * (x_sums + 1.0)
    return _leads(logits, preds, 2.5 * e)


def _test_accuracies(counts, x, x_sums, labels, weights, bias) -> list[float]:
    """Held-out accuracy of each snapshot j, weights[j] (C, K) and bias[j]
    (C,), on the (n, K) integer spike counts, x their float32 copy and x_sums
    their row sums: that of the snapshot's float64 product
    counts @ weights[j].T + bias[j], whose argmax takes the lowest of tied
    classes. Three levels find it, each only where the last could not:

    1. One float32 GEMM, W_group @ x.T with the snapshots' weights stacked
       into m·C rows, scores every snapshot; _certified32 accepts a
       (snapshot, row) pair whose argmax it proves equal to the product's.
    2. The rows of a snapshot left uncertified are scored by a float64
       product of those rows alone, which _certified accepts likewise.
    3. A snapshot with a row that neither accepts is rescored by its whole
       float64 product, from a float64 copy of the counts made on demand.

    So the accuracy does not depend on any GEMM's last bits.
    """
    m, c, k = weights.shape
    with np.errstate(over="ignore", invalid="ignore"):
        logits = weights.reshape(m * c, k).astype(np.float32) @ x.T
        logits += bias.reshape(m * c, 1).astype(np.float32)
    logits = logits.reshape(m, c, len(x))
    preds = logits.argmax(axis=1)
    sure = _certified32(logits, preds, x_sums, weights, bias)
    whole = None
    for j in np.flatnonzero(~sure.all(axis=1)):
        rows = np.flatnonzero(~sure[j])
        part = (counts[rows].astype(np.float64) @ weights[j].T + bias[j]).T[None]
        part_preds = part.argmax(axis=1)
        part_sure = _certified(part, part_preds, x_sums[rows], weights[j:j + 1],
                               bias[j:j + 1])
        preds[j, rows] = part_preds[0]
        if not part_sure.all():
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
    return _test_accuracies(cache.features, cache.features.astype(np.float32),
                            _row_sums(cache.features), cache.labels, model.weights[None],
                            model.bias[None])[0]
