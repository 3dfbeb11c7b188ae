import gzip
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import idx_bytes, idx_tensor_bytes, write_dataset_idx, write_idx
from ransnn.idx import (DatasetError, IdxFormatError,
                        IdxLengthError, IdxTensor, IdxUnsupportedDtypeError,
                        LabeledDataset, load_dataset, make_batches,
                        parse_idx, read_idx)


class TestParseIdx:
    def test_cube_example(self):
        raw = idx_bytes((2, 2, 2), bytes(range(8)))
        tensor = parse_idx(raw)
        assert tensor.dims == (2, 2, 2)
        assert tensor.dtype_code == 0x08
        assert np.array_equal(tensor.data.ravel(), np.arange(8))

    def test_empty_label_file(self):
        tensor = parse_idx(idx_bytes((0,), b""))
        assert tensor.dims == (0,)
        assert tensor.data.size == 0

    def test_nonzero_magic_rejected(self):
        raw = bytearray(idx_bytes((1,), b"\x05"))
        raw[0] = 1
        with pytest.raises(IdxFormatError):
            parse_idx(bytes(raw))
        raw = bytearray(idx_bytes((1,), b"\x05"))
        raw[1] = 0xFF
        with pytest.raises(IdxFormatError):
            parse_idx(bytes(raw))

    def test_truncated_payload_rejected(self):
        with pytest.raises(IdxLengthError):
            parse_idx(idx_bytes((2, 3), b"\x00" * 5))

    def test_excess_payload_rejected(self):
        with pytest.raises(IdxLengthError):
            parse_idx(idx_bytes((2,), b"\x00" * 3))

    def test_unsupported_dtype_rejected(self):
        for code in (0x09, 0x0B, 0x0C, 0x0D, 0x0E):
            with pytest.raises(IdxUnsupportedDtypeError):
                parse_idx(idx_bytes((1,), b"\x00", dtype_code=code))

    def test_unknown_dtype_code_is_format_error(self):
        with pytest.raises(IdxFormatError):
            parse_idx(idx_bytes((1,), b"\x00", dtype_code=0x42))

    def test_truncated_header_rejected(self):
        with pytest.raises(IdxFormatError):
            parse_idx(b"\x00\x00")
        with pytest.raises(IdxFormatError):
            parse_idx(b"\x00\x00\x08\x02\x00\x00")

    def test_gzip_detected_by_prefix(self):
        raw = idx_bytes((3,), b"abc")
        assert np.array_equal(parse_idx(gzip.compress(raw)).data,
                              parse_idx(raw).data)

    def test_corrupt_gzip_rejected(self):
        zipped = gzip.compress(idx_bytes((2,), b"ab"))
        with pytest.raises(IdxFormatError, match="gzip"):
            parse_idx(zipped[:-6])

    def test_invalid_deflate_block_is_a_format_error(self):
        # zlib's own error, not only gzip's CRC and EOF checks, is a
        # format error: BTYPE 11 in the first deflate block is reserved.
        zipped = bytearray(gzip.compress(idx_bytes((3,), b"abc")))
        zipped[10] |= 0b110
        with pytest.raises(IdxFormatError, match="gzip"):
            parse_idx(bytes(zipped))

    def test_huge_extents_of_a_gzipped_file_are_a_length_error(self):
        # The array is sized by what the stream can hold, not by the header.
        zipped = gzip.compress(idx_bytes((2**32 - 1,) * 3, b"abc"))
        with pytest.raises(IdxLengthError, match="length 3 "):
            parse_idx(zipped)

    def test_payload_is_a_view_of_the_input(self):
        raw = idx_bytes((2, 3), bytes(range(6)))
        assert np.shares_memory(parse_idx(raw).data, np.frombuffer(raw, np.uint8))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=3), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, dims, seed):
        count = int(np.prod(dims))
        payload = np.random.default_rng(seed).integers(0, 256, count, dtype=np.uint8)
        raw = idx_bytes(tuple(dims), payload.tobytes())
        tensor = parse_idx(raw)
        assert idx_tensor_bytes(tensor) == raw
        again = parse_idx(idx_tensor_bytes(tensor))
        assert again.dims == tensor.dims
        assert np.array_equal(again.data, tensor.data)


class TestIdxFiles:
    def test_write_read_plain_and_gz(self, tmp_path):
        tensor = IdxTensor(dtype_code=0x08, dims=(4, 3),
                           data=np.arange(12, dtype=np.uint8).reshape(4, 3))
        plain = tmp_path / "t-idx"
        zipped = tmp_path / "t-idx.gz"
        write_idx(tensor, plain)
        write_idx(tensor, zipped, gz=True)
        assert np.array_equal(read_idx(plain).data, tensor.data)
        assert np.array_equal(read_idx(zipped).data, tensor.data)


class TestLoadDataset:
    def test_blob_files_round_trip(self, tmp_path, small_blobs):
        img, lab = write_dataset_idx(small_blobs, side=12, dir_path=tmp_path,
                                     prefix="train", gz=True)
        ds = load_dataset(img, lab, num_classes=3)
        assert len(ds) == len(small_blobs)
        assert ds.images.shape == (len(ds), 144)
        assert np.array_equal(ds.images, small_blobs.images)
        assert np.array_equal(ds.labels, small_blobs.labels)

    def test_count_mismatch(self, tmp_path, small_blobs):
        img, _ = write_dataset_idx(small_blobs, 12, tmp_path, "a")
        short = IdxTensor(dtype_code=0x08, dims=(3,),
                          data=np.zeros(3, dtype=np.uint8))
        write_idx(short, tmp_path / "bad-labels")
        with pytest.raises(DatasetError):
            load_dataset(img, tmp_path / "bad-labels", num_classes=3)

    def test_label_out_of_range(self, tmp_path, small_blobs):
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "b")
        with pytest.raises(DatasetError):
            load_dataset(img, lab, num_classes=2)

    def test_wrong_rank_rejected(self, tmp_path):
        flat = IdxTensor(dtype_code=0x08, dims=(6, 4),
                         data=np.zeros((6, 4), dtype=np.uint8))
        labels = IdxTensor(dtype_code=0x08, dims=(6,),
                           data=np.zeros(6, dtype=np.uint8))
        write_idx(flat, tmp_path / "imgs")
        write_idx(labels, tmp_path / "labs")
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "imgs", tmp_path / "labs", num_classes=10)

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("role", ["images", "labels"])
    @pytest.mark.parametrize("byte,value,error", [
        (0, 1, IdxFormatError), (1, 0xFF, IdxFormatError), (2, 0x42, IdxFormatError),
        (2, 0x0D, IdxUnsupportedDtypeError)])
    def test_bad_magic_or_dtype_raised_at_load(self, tmp_path, small_blobs, gz, role,
                                                byte, value, error):
        paths = dict(zip(("images", "labels"), write_dataset_idx(small_blobs, 12, tmp_path, "d")))
        data = bytearray(Path(paths[role]).read_bytes())
        data[byte] = value
        Path(paths[role]).write_bytes(gzip.compress(data) if gz else bytes(data))
        with pytest.raises(error):
            load_dataset(paths["images"], paths["labels"], num_classes=3)

    @pytest.mark.parametrize("gz", [False, True])
    def test_pixels_decode_on_first_access(self, tmp_path, small_blobs, monkeypatch, gz):
        import ransnn.idx

        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "lazy", gz=gz)
        ds = load_dataset(img, lab, num_classes=3)
        calls = []
        real = ransnn.idx.parse_idx
        monkeypatch.setattr(ransnn.idx, "parse_idx", lambda data: calls.append(1) or real(data))
        assert (len(ds), ds.pixels) == (len(small_blobs), 144)
        assert make_batches(ds, 8, 3, seed=1).shape == (24,)
        assert calls == []
        assert np.array_equal(ds.images, small_blobs.images)
        assert ds.images is ds.images and calls == [1]

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("damage", ["short", "wide"])
    def test_image_size_against_the_header_raised_at_load(self, tmp_path, small_blobs, gz,
                                                           damage):
        # A payload a byte short, or a cols extent of 0x0C0C for 0x0C, fails
        # in load_dataset, before a caller sizes anything by the header.
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "bad")
        data = bytearray(Path(img).read_bytes())
        if damage == "short":
            del data[-1]
        else:
            data[14] = 0x0C
        Path(img).write_bytes(gzip.compress(data) if gz else bytes(data))
        with pytest.raises(IdxLengthError):
            load_dataset(img, lab, num_classes=3)

    def test_gzip_trailer_of_the_undamaged_file_still_fails_at_load(self, tmp_path,
                                                                     small_blobs):
        # A wide cols extent inside the deflate stream, with the trailer
        # (CRC and ISIZE) of the file as written: the decode at load fails.
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "bad", gz=True)
        good = Path(img).read_bytes()
        data = bytearray(gzip.decompress(good))
        data[14] = 0x0C
        Path(img).write_bytes(gzip.compress(data)[:-8] + good[-8:])
        with pytest.raises(IdxFormatError, match="gzip"):
            load_dataset(img, lab, num_classes=3)

    def test_damaged_deflate_stream_raised_on_first_access(self, tmp_path, small_blobs):
        # The stored size agrees with the header, so the CRC mismatch is
        # found by the decode on first access.
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "crc", gz=True)
        data = bytearray(Path(img).read_bytes())
        data[-8] ^= 0xFF
        Path(img).write_bytes(bytes(data))
        ds = load_dataset(img, lab, num_classes=3)
        assert len(ds) == len(small_blobs)
        with pytest.raises(IdxFormatError, match="gzip"):
            ds.images

    def test_multi_member_gzip_decodes_at_load(self, tmp_path, small_blobs):
        # The last member's ISIZE is not the file's length, so the pixels
        # are decoded by load_dataset, and decode the same.
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "multi")
        data = Path(img).read_bytes()
        Path(img).write_bytes(gzip.compress(data[:100]) + gzip.compress(data[100:]))
        ds = load_dataset(img, lab, num_classes=3)
        assert ds._images is not None
        assert np.array_equal(ds.images, small_blobs.images)

    def test_pixel_range(self, tmp_path, small_blobs):
        img, lab = write_dataset_idx(small_blobs, 12, tmp_path, "c")
        ds = load_dataset(img, lab, num_classes=3)
        assert ds.images.min() >= 0 and ds.images.max() <= 255


class TestMakeBatches:
    def _ds(self, n):
        return LabeledDataset(images=np.zeros((n, 4), dtype=np.uint8),
                              labels=np.zeros(n, dtype=np.int64), num_classes=2)

    def test_benchmark_scale_consumption(self):
        assert len(make_batches(self._ds(60_000), 128, 400, seed=0)) == 51_200

    def test_same_seed_same_composition(self):
        a = make_batches(self._ds(1000), 32, 10, seed=5)
        b = make_batches(self._ds(1000), 32, 10, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, make_batches(self._ds(1000), 32, 10, seed=6))

    def test_zero_batches_is_empty(self):
        batches = make_batches(self._ds(10), 4, 0, seed=1)
        assert batches.shape == (0,)

    def test_capacity_error(self):
        with pytest.raises(ValueError):
            make_batches(self._ds(100), 16, 7, seed=0)

    def test_partition_has_no_duplicates(self):
        ds = self._ds(517)
        seen = make_batches(ds, 16, 517 // 16, seed=9)
        assert len(seen) == 16 * (517 // 16)
        assert len(np.unique(seen)) == len(seen)
        assert seen.min() >= 0 and seen.max() < 517

    def test_all_batches_full_size(self):
        # 12 batches of 8 fill all but 4 of the 100 samples.
        assert len(make_batches(self._ds(100), 8, 12, seed=2)) == 12 * 8

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            make_batches(self._ds(10), 0, 1, seed=0)

