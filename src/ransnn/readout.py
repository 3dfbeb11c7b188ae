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
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Uncalled: encode_sample, simulate_forward stay for bench sites encoding.encode, network.simulate
from .encoding import encode_batch, encode_sample  # noqa: F401
from .idx import LabeledDataset
from .network import (LifParams, NetworkTopology, WeightDistribution, _buffer,  # noqa: F401
                      lif_stack, part_size, run_parts, simulate_forward, work_arrays)
from .numerics import AdamConfig, AdamState, PROB_FLOOR, adam_step, softmax

CACHE_MAGIC = b"RSNNFC01"
# Samples per chunk of a selection in count_spikes, which runs each chunk as
# parts of part_size(chunk, width) samples (README: why 8).
EXTRACT_CHUNK = 8
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
    configuration: bad magic, short header, digest mismatch or a payload of
    the wrong length."""


@dataclass
class FeatureCache:
    """Per-sample spike counts for one dataset split under one fixed network.

    features is (num_samples, n_L) uint16 with entries in [0, time_steps];
    source_config_digest fingerprints the producing configuration so a stale
    cache cannot silently stand in for a different one.
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
        u16 labels. The bytes go to a temporary file in the same directory
        that then replaces path, so a crash never leaves a truncated cache."""
        n, f = self.features.shape
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 0xFFFF):
            raise ValueError("labels do not fit the u16 on-disk layout")
        path = Path(path)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(CACHE_MAGIC)
                fh.write(struct.pack("<QQQQ", n, f, self.time_steps,
                                     self.source_config_digest))
                # Buffer-protocol writes: no copy of a contiguous u16 matrix.
                fh.write(np.ascontiguousarray(self.features, dtype="<u2"))
                fh.write(np.ascontiguousarray(self.labels, dtype="<u2"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path, expected_digest: int | None = None) -> "FeatureCache":
        """Read a cache written by save, straight into its final arrays."""
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
            feats = np.empty((n, f), dtype="<u2")
            labels = np.empty(n, dtype="<u2")
            fh.readinto(feats)
            fh.readinto(labels)
        return cls(features=feats, labels=labels.astype(np.int64), time_steps=int(t),
                   source_config_digest=int(digest))


def count_spikes(weights, lif: LifParams, images, indices, steps, master_seed: int,
                 stream_base: int) -> dict[int, np.ndarray]:
    """The last layer's spike counts of the samples images[indices] through
    the layers of weights, each sample encoded from stream stream_base + its
    index of master_seed: one (n, n_L) uint16 array per window length t in
    steps, row k summing the first t steps of sample indices[k].

    The samples run once at T = max(steps). A sample's encoding at t is the
    first t rows of its encoding at T, and no step's spikes depend on a
    later one, so each array equals a direct count at t. One run_parts call
    runs the units, the parts of part_size(len(chunk), width) samples of
    each chunk of EXTRACT_CHUNK (width the widest layer's), which fix every
    GEMM's rows. A unit encodes its samples, runs lif_stack in its thread's
    work arrays and sums its counts into its own rows of every array.
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
    counts = {t: np.zeros((len(indices), weights[-1].shape[0]), dtype=np.uint16)
              for t in steps}
    units = []
    for chunk in range(0, len(indices), EXTRACT_CHUNK):
        end = min(chunk + EXTRACT_CHUNK, len(indices))
        size = part_size(end - chunk, max(w.shape[0] for w in weights))
        units += [slice(start, min(start + size, end)) for start in range(chunk, end, size)]
    local = threading.local()  # vars(local) is the running thread's own dict

    def run_unit(part):
        rows = units[part.start]
        shape = (rows.stop - rows.start, steps[-1], images.shape[1])
        bits = encode_batch(images, indices[rows], steps[-1], master_seed, stream_base,
                            out=_buffer(vars(local), "bits", shape, np.uint8))
        spikes = lif_stack(bits, work_arrays(vars(local), weights, len(bits), steps[-1]), lif)
        for t in steps:
            spikes[:, :t].sum(axis=1, dtype=np.uint16, out=counts[t][rows])

    run_parts(run_unit, len(units), 1)
    return counts


def extract_features_at(net: NetworkTopology, dataset: LabeledDataset,
                        master_seed: int, steps, *, indices, stream_base: int,
                        dataset_id: str) -> dict[int, FeatureCache]:
    """One FeatureCache per window length t in steps, holding count_spikes
    of the selected samples through net; dataset_id names the split in the
    digest, which equals that of a direct extraction at t."""
    indices = np.asarray(indices, dtype=np.int64)
    counts = count_spikes(net.weights, net.lif, dataset.images, indices, steps,
                          master_seed, stream_base)
    labels = dataset.labels[indices]
    return {t: FeatureCache(
                features=features, labels=labels, time_steps=t,
                source_config_digest=feature_digest(
                    net.layer_sizes, net.dist, net.seed, net.lif, t,
                    dataset_id, master_seed, stream_base, indices))
            for t, features in counts.items()}


def extract_features(net: NetworkTopology, time_steps: int, dataset: LabeledDataset,
                     master_seed: int, *, indices, stream_base: int,
                     dataset_id: str) -> FeatureCache:
    """The FeatureCache of extract_features_at for the single window
    time_steps."""
    return extract_features_at(net, dataset, master_seed, (time_steps,), indices=indices,
                               stream_base=stream_base,
                               dataset_id=dataset_id)[time_steps]


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
    the group's last step.
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
    x_test = cache_test.features.astype(np.float64)
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
            test_accs = _test_accuracies(x_test, x_sums, y_test, w_group[:len(pending)],
                                         b_group[:len(pending)])
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


def _certified(logits, preds, x_sums, weights, bias) -> np.ndarray:
    """(m, n) mask over the (m, C, n) logits of n samples under m snapshots,
    whose argmax over classes is preds: True where every logit is finite
    and the top one leads the next by more than 4e, with e = (γ_K + 2u)
    (x_sums · max|W| + max|b|) per snapshot and sample, K the feature count
    (README, "Determinism"). It overwrites each top logit with -inf.

    Any summation order, with or without FMA, of a row x >= 0 times a
    snapshot's weights plus its bias is within e of the exact logit, so two
    such products differ by at most 2e and a lead above 4e in one fixes the
    other's argmax. The factor 5 leaves room for the rounding of e and of
    the lead.
    """
    n_feat = weights.shape[2]
    u = 2.0 ** -53
    gamma = n_feat * u / (1.0 - n_feat * u)
    err = (gamma + 2 * u) * (np.multiply.outer(np.abs(weights).max(axis=(1, 2)), x_sums)
                             + np.abs(bias).max(axis=1)[:, None])
    sure = np.isfinite(logits).all(axis=1)
    top = np.take_along_axis(logits, preds[:, None], axis=1)[:, 0]
    np.put_along_axis(logits, preds[:, None], -np.inf, axis=1)
    sure &= top - logits.max(axis=1) > 5 * err
    return sure


def _test_accuracies(x, x_sums, labels, weights, bias) -> list[float]:
    """Held-out accuracy of each snapshot j, weights[j] (C, K) and bias[j]
    (C,), on the float64 rows x (n, K) of nonnegative counts, whose sums are
    x_sums.

    One GEMM, W_group @ x.T with the snapshots' weights stacked into m·C
    rows, scores every snapshot. Its argmax is taken where _certified
    proves it equals that of x @ weights[j].T + bias[j], the per-snapshot
    product; a snapshot with any uncertified row is rescored with that
    product, whose argmax takes the lowest of tied classes. So the accuracy
    does not depend on the GEMM's last bits.
    """
    m, c, k = weights.shape
    logits = weights.reshape(m * c, k) @ x.T
    logits += bias.reshape(m * c, 1)
    logits = logits.reshape(m, c, len(x))
    preds = logits.argmax(axis=1)
    sure = _certified(logits, preds, x_sums, weights, bias)
    for j in np.flatnonzero(~sure.all(axis=1)):
        preds[j] = (x @ weights[j].T + bias[j]).argmax(axis=1)
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
    return _test_accuracies(cache.features.astype(np.float64), _row_sums(cache.features),
                            cache.labels, model.weights[None], model.bias[None])[0]
