import gzip
import struct
from pathlib import Path

import numpy as np
import pytest

from ransnn.idx import IdxTensor, LabeledDataset
from ransnn.network import simulate
from ransnn.numerics import ENCODE_TRAIN_STREAM, Rng
from ransnn.readout import extract_features


def blob_dataset(num_classes: int, samples_per_class: int, side: int = 12,
                 seed: int = 7) -> LabeledDataset:
    """Synthetic image dataset with one bright patch per class: easy to
    classify, shaped like the real inputs (u8, square, labels in [0, C))."""
    rng = Rng(seed, 99)
    pixels = side * side
    block = pixels // num_classes
    images, labels = [], []
    for c in range(num_classes):
        for _ in range(samples_per_class):
            img = (rng.uniform(0, 30, pixels)).astype(np.uint8)
            lo = c * block
            img[lo:lo + block] = rng.uniform(160, 255, block).astype(np.uint8)
            images.append(img)
            labels.append(c)
    order = Rng(seed, 100).permutation(len(images))
    images = np.stack(images)[order]
    labels = np.asarray(labels, dtype=np.int64)[order]
    return LabeledDataset(images=images, labels=labels, num_classes=num_classes)


def mnist_shaped(n, pixels=784, density=0.19, seed=0) -> LabeledDataset:
    """u8 images with about MNIST's fraction of nonzero pixels."""
    rng = Rng(seed, 3)
    on = rng.random((n, pixels)) < density
    images = (on * rng.uniform(1, 256, n * pixels).reshape(n, pixels)).astype(np.uint8)
    return LabeledDataset(images=images, labels=np.arange(n, dtype=np.int64) % 10,
                          num_classes=10)


def idx_bytes(dims, payload: bytes, dtype_code: int = 0x08) -> bytes:
    """The IDX header for dims and dtype_code, followed by payload."""
    header = struct.pack(">BBBB", 0, 0, dtype_code, len(dims))
    header += b"".join(struct.pack(">I", d) for d in dims)
    return header + payload


def idx_tensor_bytes(tensor: IdxTensor) -> bytes:
    """Serialize a tensor to the exact IDX byte layout."""
    return idx_bytes(tensor.dims, tensor.data.astype(np.uint8).tobytes(), tensor.dtype_code)


def write_idx(tensor: IdxTensor, path, gz: bool = False) -> None:
    """Write a tensor as an IDX file, gzipped if gz."""
    raw = idx_tensor_bytes(tensor)
    Path(path).write_bytes(gzip.compress(raw) if gz else raw)


def write_dataset_idx(ds: LabeledDataset, side: int, dir_path, prefix: str,
                      gz: bool = False) -> tuple[str, str]:
    """Write a LabeledDataset as a pair of IDX files; returns their paths."""
    n = len(ds)
    images = IdxTensor(dtype_code=0x08, dims=(n, side, side),
                       data=ds.images.reshape(n, side, side))
    labels = IdxTensor(dtype_code=0x08, dims=(n,),
                       data=ds.labels.astype(np.uint8))
    suffix = ".gz" if gz else ""
    img_path = str(dir_path / f"{prefix}-images-idx3-ubyte{suffix}")
    lab_path = str(dir_path / f"{prefix}-labels-idx1-ubyte{suffix}")
    write_idx(images, img_path, gz=gz)
    write_idx(labels, lab_path, gz=gz)
    return img_path, lab_path


def drive_layer(currents, lif) -> tuple[np.ndarray, np.ndarray]:
    """One LIF layer through network.simulate with chosen (T, n) input
    currents, exactly: input t fires only at step t and column t of the
    weights holds currents[t], so step t adds currents[t] and nothing else.
    Every potential starts at 0, so a first current u0 <= u_thr sets a
    starting potential. Returns the (T, n) spikes and pre-reset potentials;
    the post-reset potential of step t shows in step t + 1, whose u_pre is
    beta * u_post(t) + currents[t + 1]."""
    currents = np.asarray(currents, dtype=np.float64)
    bits = np.eye(len(currents), dtype=np.uint8)[None]
    [(spikes, u_pre)] = simulate(bits, (currents.T.copy(),), lif, record=True)
    return spikes[0], u_pre[0]


def extract(net, time_steps, ds, master_seed, indices=None):
    """extract_features on the train streams, over the whole dataset unless
    indices selects samples."""
    indices = np.arange(len(ds)) if indices is None else indices
    return extract_features(net, time_steps, ds, master_seed, indices=indices,
                            stream_base=ENCODE_TRAIN_STREAM, dataset_id="mnist/train")


@pytest.fixture
def small_blobs():
    return blob_dataset(num_classes=3, samples_per_class=40, side=12, seed=7)
