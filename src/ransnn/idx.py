"""IDX-format dataset ingestion and batch assembly.

The IDX container (used by the MNIST-family downloads) is: two zero bytes,
a dtype code byte, a dimension-count byte, that many big-endian u32 extents,
then the raw payload. Only unsigned-byte payloads (code 0x08) are supported;
a gzip wrapper is detected by its 0x1f 0x8b prefix and unwrapped
transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import Rng, SHUFFLE_STREAM


class IdxError(ValueError):
    """Base for malformed or unsupported IDX input."""


class IdxFormatError(IdxError):
    """Header bytes do not form a valid IDX header."""


class IdxUnsupportedDtypeError(IdxError):
    """Valid IDX dtype code, but not one this loader handles."""


class IdxLengthError(IdxError):
    """Payload length disagrees with the header's extents."""


class DatasetError(ValueError):
    """Images/labels that do not assemble into a coherent dataset."""


IDX_U8 = 0x08
# Valid IDX dtype codes; everything except u8 is rejected as unsupported.
_IDX_DTYPE_CODES = {0x08: "u8", 0x09: "i8", 0x0B: "i16", 0x0C: "i32",
                    0x0D: "f32", 0x0E: "f64"}
_GZIP_MAGIC = b"\x1f\x8b"


@dataclass
class IdxTensor:
    """A decoded IDX tensor: dtype code, extents, and the payload array."""

    dtype_code: int
    dims: tuple[int, ...]
    data: np.ndarray  # shaped to dims, uint8


def parse_idx(data: bytes) -> IdxTensor:
    """Decode IDX bytes, gzipped or not (told apart by the gzip prefix),
    into a tensor."""
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError) as exc:
            raise IdxFormatError(f"bad gzip container: {exc}") from exc
    if len(data) < 4:
        raise IdxFormatError(f"IDX header needs 4 bytes, got {len(data)}")
    zero0, zero1, dtype_code, ndim = struct.unpack(">BBBB", data[:4])
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(
            f"bad IDX magic: first two bytes must be zero, got {zero0:#04x} {zero1:#04x}")
    if dtype_code not in _IDX_DTYPE_CODES:
        raise IdxFormatError(f"unknown IDX dtype code {dtype_code:#04x}")
    if dtype_code != IDX_U8:
        raise IdxUnsupportedDtypeError(
            f"IDX dtype {_IDX_DTYPE_CODES[dtype_code]} ({dtype_code:#04x}) is not supported; "
            "only unsigned byte (0x08) payloads are handled")
    if ndim < 1:
        raise IdxFormatError("IDX dimension count must be >= 1")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(
            f"IDX header truncated: need {header_len} bytes for {ndim} extents, got {len(data)}")
    dims = struct.unpack(f">{ndim}I", data[4:header_len])
    expected = 1
    for d in dims:
        expected *= d
    payload = data[header_len:]
    if len(payload) != expected:
        raise IdxLengthError(
            f"IDX payload length {len(payload)} does not match extents {dims} "
            f"(expected {expected} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    return IdxTensor(dtype_code=dtype_code, dims=tuple(dims), data=arr)


def read_idx(path) -> IdxTensor:
    """Read an IDX file from disk, unwrapping gzip automatically."""
    return parse_idx(Path(path).read_bytes())


@dataclass
class LabeledDataset:
    """Flattened u8 images with integer labels.

    images is (n, pixels) uint8; labels is (n,) int64 with every label in
    [0, num_classes). Immutable by convention once loaded.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return self.images.shape[0]


def load_dataset(image_path, label_path, num_classes: int) -> LabeledDataset:
    """Assemble a dataset from an IDX image file and an IDX label file.

    Images must be rank 3 ([n, rows, cols]) and are flattened row-major;
    labels must be rank 1 with the same n and values inside [0, num_classes).
    """
    images = read_idx(image_path)
    labels = read_idx(label_path)
    if len(images.dims) != 3:
        raise DatasetError(
            f"image tensor must be rank 3 [n, rows, cols], got dims {images.dims}")
    if len(labels.dims) != 1:
        raise DatasetError(f"label tensor must be rank 1, got dims {labels.dims}")
    n = images.dims[0]
    if labels.dims[0] != n:
        raise DatasetError(
            f"image/label count mismatch: {n} images vs {labels.dims[0]} labels")
    lab = labels.data.astype(np.int64)
    if n and (lab.min() < 0 or lab.max() >= num_classes):
        raise DatasetError(
            f"labels must lie in [0, {num_classes}), found range "
            f"[{lab.min()}, {lab.max()}]")
    flat = images.data.reshape(n, -1)
    return LabeledDataset(images=flat, labels=lab, num_classes=int(num_classes))


def make_batches(ds: LabeledDataset, batch_size: int, num_batches: int,
                 seed: int) -> np.ndarray:
    """The dataset indices of num_batches full batches, taken from a seeded
    shuffle of the dataset.

    Batch b is entries [b * batch_size, (b + 1) * batch_size) of the
    returned array. The permutation is deterministic in the seed, so the
    same (dataset, seed) always yields the same batch composition.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if num_batches < 0:
        raise ValueError(f"num_batches must be >= 0, got {num_batches}")
    n = len(ds)
    needed = batch_size * num_batches
    if n < needed:
        raise ValueError(
            f"dataset has {n} samples but {num_batches} batches of "
            f"{batch_size} need {needed}")
    return Rng(seed, SHUFFLE_STREAM).permutation(n)[:needed]
