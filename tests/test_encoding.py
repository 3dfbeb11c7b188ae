import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mnist_shaped
from oracles import normalize_input, poisson_encode
from ransnn.encoding import encode_batch, encode_sample
from ransnn.numerics import ENCODE_TEST_STREAM, Rng


class TestNormalizeInput:
    def test_eight_bit_pixels_divide_by_max(self):
        x = np.array([0.0, 128.0, 255.0])
        assert np.array_equal(normalize_input(x), np.array([0.0, 128.0 / 255.0, 1.0]))

    def test_all_zero_maps_to_all_zero(self):
        assert np.array_equal(normalize_input(np.zeros(5)), np.zeros(5))

    def test_outputs_in_unit_interval(self):
        rng = Rng(3, 0)
        out = normalize_input(rng.uniform(0, 255, 784))
        assert out.min() >= 0.0 and out.max() == 1.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_input(np.array([-2.0, 0.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize_input(np.array([np.nan, 1.0]))


class TestPoissonEncode:
    def test_zero_intensity_never_fires(self):
        bits = poisson_encode(np.zeros(20), 100, Rng(1, 0))
        assert bits.sum() == 0

    def test_unit_intensity_always_fires(self):
        bits = poisson_encode(np.ones(20), 100, Rng(1, 0))
        assert np.all(bits == 1)

    def test_half_intensity_count_in_binomial_band(self):
        bits = poisson_encode(np.array([0.5]), 10_000, Rng(42, 0))
        count = int(bits.sum())
        assert 4850 <= count <= 5150

    def test_deterministic_given_stream(self):
        p = Rng(6, 0).uniform(0, 1, 30)
        a = poisson_encode(p, 50, Rng(9, 123))
        b = poisson_encode(p, 50, Rng(9, 123))
        assert np.array_equal(a, b)

    def test_out_of_range_intensity_rejected(self):
        with pytest.raises(ValueError):
            poisson_encode(np.array([1.2]), 10, Rng(0, 0))
        with pytest.raises(ValueError):
            poisson_encode(np.array([-0.1]), 10, Rng(0, 0))

    def test_window_validated(self):
        with pytest.raises(ValueError):
            poisson_encode(np.full(3, 0.5), 0, Rng(0, 0))

    def test_shape(self):
        bits = poisson_encode(np.full(7, 0.3), 13, Rng(0, 0))
        assert bits.shape == (13, 7)
        assert bits.dtype == np.uint8

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_empirical_rate_within_three_sigma_for_most_neurons(self, p):
        # 1000 independent neurons at the same intensity over T=10^4 steps:
        # at least 99% of them must land inside the binomial 3-sigma band.
        steps = 10_000
        bits = poisson_encode(np.full(1000, p), steps, Rng(17, 0))
        rates = bits.mean(axis=0)
        band = 3.0 * math.sqrt(p * (1 - p) / steps)
        frac_ok = np.mean(np.abs(rates - p) <= band)
        assert frac_ok >= 0.99

    def test_lag_one_autocorrelation_near_zero(self):
        steps = 10_000
        bits = poisson_encode(np.array([0.5]), steps, Rng(23, 0))[:, 0].astype(float)
        x = bits - bits.mean()
        corr = (x[:-1] * x[1:]).sum() / (x * x).sum()
        assert abs(corr) <= 3.0 / math.sqrt(steps)


class TestSpikeTrain:
    """The (T, N) uint8 raster poisson_encode returns."""

    @given(st.integers(1, 30), st.integers(1, 40), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_entries_always_binary(self, steps, neurons, seed):
        p = Rng(seed, 1).uniform(0, 1, neurons)
        bits = poisson_encode(p, steps, Rng(seed, 2))
        assert np.isin(bits, (0, 1)).all()


class TestEncodeSample:
    def test_encode_sample_composes(self):
        x = Rng(4, 0).uniform(0, 255, 64)
        direct = poisson_encode(normalize_input(x), 10, Rng(5, 77))
        assert np.array_equal(direct, encode_sample(x, 10, Rng(5, 77)))


class TestEncodeBatch:
    """encode_batch equals encode_sample on each sample's own stream."""

    @staticmethod
    def images(n):
        # Row 0 is all zero; row 1's one nonzero pixel gets p = 1.
        images = mnist_shaped(n + 2, seed=9).images
        images[0] = 0
        images[1] = 0
        images[1, 300] = 17
        return images

    @staticmethod
    def per_sample(images, indices, steps, seed, base):
        return np.stack([encode_sample(images[i], steps, Rng(seed, base + int(i)))
                         for i in indices])

    @pytest.mark.parametrize("n", [1, 7, 128])
    @pytest.mark.parametrize("steps", [1, 25])
    def test_equals_per_sample_encoding(self, n, steps):
        images = self.images(n)
        indices = [0, 1, *Rng(2, 0).uniform(2, n + 2, n).astype(np.int64)][:n][::-1]
        bits = encode_batch(images, indices, steps, 5, ENCODE_TEST_STREAM)
        assert bits.dtype == np.uint8 and bits.shape == (n, steps, 784)
        assert np.array_equal(bits, self.per_sample(images, indices, steps, 5,
                                                    ENCODE_TEST_STREAM))

    def test_all_zero_image_never_fires_and_unit_pixel_always_fires(self):
        bits = encode_batch(self.images(0), [0, 1], 25, 3, 0)
        assert not bits[0].any()
        assert bits[1, :, 300].all() and bits[1].sum() == 25

    def test_out_is_filled_in_place_as_a_prefix_of_a_larger_buffer(self):
        # A float64 out, a LIF layer's GEMM input, gets the bits as 0.0/1.0.
        images = self.images(9)
        expected = self.per_sample(images, range(2, 11), 10, 1, 40)
        for dtype in (np.uint8, np.float64):
            buffer = np.full(4 * 10 * 11 * 784, 7, dtype=dtype)
            out = buffer[:9 * 10 * 784].reshape(9, 10, 784)
            assert encode_batch(images, range(2, 11), 10, 1, 40, out=out) is out
            assert out.dtype == dtype and np.array_equal(out, expected)
            assert (buffer[out.size:] == 7).all()

    def test_wrong_out_shape_and_bad_input_rejected(self):
        images = self.images(3)
        for dtype in (np.uint8, np.float64):
            with pytest.raises(ValueError, match="out must be"):
                encode_batch(images, [0, 1], 5, 1, 0, out=np.empty((2, 4, 784), dtype))
        for dtype in (np.float32, np.int64, np.bool_):
            with pytest.raises(ValueError, match="out must be"):
                encode_batch(images, [0, 1], 5, 1, 0, out=np.empty((2, 5, 784), dtype))
        with pytest.raises(ValueError):
            encode_batch(images, [0], 0, 1, 0)
        with pytest.raises(ValueError):
            encode_batch(np.array([[-1.0, 2.0]]), [0], 5, 1, 0)
