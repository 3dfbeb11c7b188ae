"""IDX-format dataset ingestion and batch assembly.

The IDX container (used by the MNIST-family downloads) is: two zero bytes,
a dtype code byte, a dimension-count byte, that many big-endian u32 extents,
then the raw payload. Only unsigned-byte payloads (code 0x08) are supported;
a gzip wrapper is detected by its 0x1f 0x8b prefix and unwrapped
transparently.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import math
import struct
import zlib
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
# The largest ratio of inflated to deflated bytes: a match of at most 258
# bytes costs at least two bits (RFC 1951).
_DEFLATE_RATIO = 1032


@dataclass
class IdxTensor:
    """A decoded IDX tensor: dtype code, extents, and the payload array."""

    dtype_code: int
    dims: tuple[int, ...]
    data: np.ndarray  # shaped to dims, uint8


@contextlib.contextmanager
def _gzip_errors():
    """Errors of a gzip container, raised as IdxFormatError."""
    try:
        yield
    except (OSError, EOFError, zlib.error) as exc:
        raise IdxFormatError(f"bad gzip container: {exc}") from exc


def _read_header(fh) -> tuple[int, ...]:
    """The extents of the u8 IDX header read from fh, which is left at the
    payload."""
    head = fh.read(4)
    if len(head) < 4:
        raise IdxFormatError(f"IDX header needs 4 bytes, got {len(head)}")
    zero0, zero1, dtype_code, ndim = head
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
    extents = fh.read(4 * ndim)
    if len(extents) < 4 * ndim:
        raise IdxFormatError(f"IDX header truncated: need {4 + 4 * ndim} bytes for {ndim} "
                             f"extents, got {4 + len(extents)}")
    return struct.unpack(f">{ndim}I", extents)


def parse_idx(data: bytes) -> IdxTensor:
    """Decode IDX bytes, gzipped or not (told apart by the gzip prefix),
    into a tensor whose array is a view of the payload in the (inflated)
    bytes."""
    if data[:2] == _GZIP_MAGIC:
        with _gzip_errors():
            data = gzip.decompress(data)
    fh = io.BytesIO(data)
    dims = _read_header(fh)
    arr = np.frombuffer(memoryview(data)[fh.tell():], dtype=np.uint8)
    expected = math.prod(dims)
    if arr.size != expected:
        raise IdxLengthError(
            f"IDX payload length {arr.size} does not match extents {dims} "
            f"(expected {expected} bytes)")
    return IdxTensor(dtype_code=IDX_U8, dims=dims, data=arr.reshape(dims))


def _header_dims(data: bytes) -> tuple[int, ...]:
    """The extents in the header of data's IDX bytes, gzipped or not,
    inflating no more than the header."""
    if data[:2] != _GZIP_MAGIC:
        return _read_header(io.BytesIO(data))
    with _gzip_errors(), gzip.GzipFile(fileobj=io.BytesIO(data)) as fh:
        return _read_header(fh)


def _stored_size_agrees(data: bytes, dims: tuple[int, ...]) -> bool:
    """Whether the size data stores agrees with an IDX file of extents
    dims: its length for raw bytes; for gzipped ones, the trailer's ISIZE
    (the inflated length mod 2**32) and the most that data can inflate to.
    Only a multi-member gzip file can disagree and still decode."""
    size = 4 + 4 * len(dims) + math.prod(dims)
    if data[:2] != _GZIP_MAGIC:
        return len(data) == size
    return (size <= _DEFLATE_RATIO * len(data)
            and int.from_bytes(data[-4:], "little") == size % 2**32)


def read_idx(path) -> IdxTensor:
    """Read an IDX file from disk, unwrapping gzip automatically."""
    return parse_idx(Path(path).read_bytes())


@dataclass
class LabeledDataset:
    """Flattened u8 images with integer labels.

    images is (n, pixels) uint8; labels is (n,) int64 with every label in
    [0, num_classes). Immutable by convention once loaded. fingerprint names
    the bytes the dataset was read from (None for one built from arrays).
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    fingerprint: str | None = None

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def pixels(self) -> int:
        return self.images.shape[1]


class _IdxDataset(LabeledDataset):
    """A LabeledDataset read by load_dataset. Its size and pixel width come
    from the image file's header; it holds the file's bytes until the first
    access to .images, which decodes the pixels by parse_idx, with all of
    its checks, and then drops the bytes."""

    def __init__(self, image_bytes: bytes, dims: tuple[int, ...], labels: np.ndarray,
                 num_classes: int, fingerprint: str):
        self._dims, self._image_bytes, self._images = dims, image_bytes, None
        self.labels, self.num_classes, self.fingerprint = labels, num_classes, fingerprint

    @property
    def images(self) -> np.ndarray:
        if self._images is None:
            self._images = parse_idx(self._image_bytes).data.reshape(len(self), self.pixels)
            self._image_bytes = None
        return self._images

    def __len__(self) -> int:
        return self._dims[0]

    @property
    def pixels(self) -> int:
        return self._dims[1] * self._dims[2]


def load_dataset(image_path, label_path, num_classes: int) -> LabeledDataset:
    """Assemble a dataset from an IDX image file and an IDX label file.

    Images must be rank 3 ([n, rows, cols]) and are flattened row-major;
    labels must be rank 1 with the same n and values inside [0, num_classes).
    Each file is read once. The image header, the size the image file
    stores and the labels are checked here. Where the stored size agrees
    with the header, the pixels are decoded on the first access to .images;
    where it disagrees, they are decoded here and the dataset is a plain
    LabeledDataset, so no caller sizes anything by extents the file cannot
    hold. The dataset's fingerprint is a blake2b digest of both files'
    bytes as stored, gzipped or raw.
    """
    image_bytes = Path(image_path).read_bytes()
    label_bytes = Path(label_path).read_bytes()
    dims = _header_dims(image_bytes)
    images = None if _stored_size_agrees(image_bytes, dims) else parse_idx(image_bytes).data
    labels = parse_idx(label_bytes)
    if len(dims) != 3:
        raise DatasetError(
            f"image tensor must be rank 3 [n, rows, cols], got dims {dims}")
    if len(labels.dims) != 1:
        raise DatasetError(f"label tensor must be rank 1, got dims {labels.dims}")
    n = dims[0]
    if labels.dims[0] != n:
        raise DatasetError(
            f"image/label count mismatch: {n} images vs {labels.dims[0]} labels")
    lab = labels.data.astype(np.int64)
    if n and (lab.min() < 0 or lab.max() >= num_classes):
        raise DatasetError(
            f"labels must lie in [0, {num_classes}), found range "
            f"[{lab.min()}, {lab.max()}]")
    h = hashlib.blake2b(len(image_bytes).to_bytes(8, "little"), digest_size=16)
    h.update(image_bytes)
    h.update(label_bytes)
    if images is None:
        return _IdxDataset(image_bytes, dims, lab, int(num_classes), h.hexdigest())
    return LabeledDataset(images.reshape(n, dims[1] * dims[2]), lab, int(num_classes),
                          h.hexdigest())


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
