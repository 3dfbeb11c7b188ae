"""Synthetic MNIST-shaped inputs for the benchmark.

Writes gzipped IDX files (28x28 u8 images, u8 labels, 10 classes) whose
content is a pure function of the workload seed. Each class has a fixed
template made of a few soft-edged curved strokes; a sample is its class
template shifted by up to two pixels, with strokes partly dropped, its
contrast jittered and a fainter copy of another class's template overlaid.
The overlay makes some samples genuinely ambiguous, so a classifier lands
well above chance but below 1.0. About 19% of pixels are nonzero, as in
MNIST.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

SIDE = 28
NUM_CLASSES = 10
MAX_SHIFT = 2
# The class templates are the same for every workload seed; the seed only
# draws the samples. Class difficulty therefore does not vary with the seed.
_TEMPLATE_KEY = 0x5EED_0F_DA7A

FILE_NAMES = {
    "train_images": "train-images-idx3-ubyte.gz",
    "train_labels": "train-labels-idx1-ubyte.gz",
    "test_images": "t10k-images-idx3-ubyte.gz",
    "test_labels": "t10k-labels-idx1-ubyte.gz",
}


def _stroke(rng: np.random.Generator) -> np.ndarray:
    """One quadratic Bezier stroke with a soft edge, values in [0, 1]."""
    p0, p1, p2 = rng.uniform(6.0, 21.0, size=(3, 2))
    t = np.linspace(0.0, 1.0, 40)[:, None]
    curve = (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2
    yy, xx = np.mgrid[0:SIDE, 0:SIDE]
    grid = np.stack([yy.ravel(), xx.ravel()], axis=1).astype(np.float64)
    dist = np.sqrt(((grid[:, None, :] - curve[None, :, :]) ** 2).sum(-1)).min(1)
    return np.clip(1.6 - dist, 0.0, 1.0).reshape(SIDE, SIDE)


def class_templates() -> np.ndarray:
    """(NUM_CLASSES, 28, 28) float templates in [0, 1], three strokes each."""
    rng = np.random.default_rng(_TEMPLATE_KEY)
    return np.stack([np.max([_stroke(rng) for _ in range(3)], axis=0)
                     for _ in range(NUM_CLASSES)])


def _shifted(img: np.ndarray, dy: int, dx: int) -> np.ndarray:
    pad = np.pad(img, MAX_SHIFT)
    return pad[MAX_SHIFT - dy:MAX_SHIFT - dy + SIDE, MAX_SHIFT - dx:MAX_SHIFT - dx + SIDE]


def make_split(n: int, rng: np.random.Generator,
               templates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n images (n, 28, 28) u8 and balanced labels (n,) u8 in shuffled order."""
    labels = rng.permutation(np.arange(n) % NUM_CLASSES).astype(np.uint8)
    other = (labels + rng.integers(1, NUM_CLASSES, n)) % NUM_CLASSES
    shifts = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n, 2, 2))
    overlay = rng.uniform(0.1, 0.5, n)
    contrast = rng.uniform(0.7, 1.0, n)
    keep = rng.random((n, SIDE, SIDE)) >= 0.2
    images = np.empty((n, SIDE, SIDE), dtype=np.uint8)
    for k in range(n):
        own = _shifted(templates[labels[k]], *shifts[k, 0])
        mix = _shifted(templates[other[k]], *shifts[k, 1])
        img = np.maximum(own * keep[k], overlay[k] * mix) * contrast[k]
        images[k] = np.round(img * 255.0).astype(np.uint8)
    return images, labels


def idx_bytes(array: np.ndarray) -> bytes:
    """The IDX layout for a u8 array: zero, zero, dtype 0x08, rank, extents."""
    header = struct.pack(">BBBB", 0, 0, 0x08, array.ndim)
    header += b"".join(struct.pack(">I", d) for d in array.shape)
    return header + np.ascontiguousarray(array, dtype=np.uint8).tobytes()


def write_dataset(out_dir, seed: int, n_train: int, n_test: int) -> dict:
    """Write the four IDX files under out_dir and return their paths by role
    plus the traffic properties of the generated images."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    templates = class_templates()
    rng = np.random.default_rng([seed, 0xDA7A])
    train_x, train_y = make_split(n_train, rng, templates)
    test_x, test_y = make_split(n_test, rng, templates)
    arrays = {"train_images": train_x, "train_labels": train_y,
              "test_images": test_x, "test_labels": test_y}
    paths = {}
    for role, arr in arrays.items():
        path = out / FILE_NAMES[role]
        # mtime=0 keeps the gzip bytes a pure function of the seed.
        path.write_bytes(gzip.compress(idx_bytes(arr), mtime=0))
        paths[role] = str(path)
    return {"paths": paths, "traffic": traffic_properties(train_x)}


def traffic_properties(images: np.ndarray) -> dict:
    """Pixel density and the expected input spike density per step under the
    program's divide-by-max rate coding."""
    flat = images.reshape(len(images), -1).astype(np.float64)
    peak = flat.max(axis=1, keepdims=True)
    rates = np.divide(flat, peak, out=np.zeros_like(flat), where=peak > 0)
    return {"nonzero_frac": float((flat > 0).mean()),
            "input_spike_density": float(rates.mean())}
