import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import cross_entropy, reference_adam_step, reference_normal, reference_uniform
from ransnn.numerics import ADAM_BLOCK, AdamConfig, AdamState, Rng, adam_step, philox, softmax


class TestRng:
    def test_same_seed_and_stream_is_bit_identical(self):
        a = Rng(42, 0).random(100)
        b = Rng(42, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(42, 0).random(1)
        b = Rng(42, 1).random(1)
        assert a[0] != b[0]

    def test_first_uniform_draws_in_unit_interval(self):
        u = Rng(42, 0).random(10)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_uniform_respects_weight_scale_bounds(self):
        a = math.sqrt(6.0 / 784.0)
        samples = Rng(1, 0).uniform(-a, a, 100_000)
        assert np.all(samples >= -a) and np.all(samples < a)

    def test_uniform_mean_matches_three_sigma_band(self):
        samples = Rng(2, 0).uniform(0.0, 1.0, 1_000_000)
        assert 0.498 <= samples.mean() <= 0.502

    def test_uniform_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Rng(0, 0).uniform(5.0, 5.0, 1)

    def test_uniform_reproducible_across_instances(self):
        a = Rng(9, 3).uniform(-2.0, 3.0, 1000)
        b = Rng(9, 3).uniform(-2.0, 3.0, 1000)
        assert np.array_equal(a, b)

    def test_normal_zero_std_returns_mean_exactly(self):
        samples = Rng(5, 0).normal(0.0, 0.0, 100)
        assert np.array_equal(samples, np.zeros(100))

    def test_normal_sample_std_in_band(self):
        samples = Rng(3, 0).normal(0.0, 1.0, 1_000_000)
        assert 0.997 <= samples.std() <= 1.003

    def test_normal_sample_mean_in_band(self):
        samples = Rng(4, 0).normal(3.0, 1.0, 1_000_000)
        assert 2.997 <= samples.mean() <= 3.003

    def test_normal_negative_std_rejected(self):
        with pytest.raises(ValueError):
            Rng(0, 0).normal(0.0, -1.0, 1)

    def test_normal_reproducible_across_instances(self):
        a = Rng(7, 11).normal(1.0, 2.0, 999)
        b = Rng(7, 11).normal(1.0, 2.0, 999)
        assert np.array_equal(a, b)


class TestDrawsIntoOut:
    # Sampling into a given array keeps each entry's operations and their
    # order, so the draws equal the fresh-array expressions bit for bit.
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 1001, 4096])
    @pytest.mark.parametrize("kind, a, b", [("uniform", -0.3, 0.7), ("normal", 0.5, 1.3),
                                            ("uniform", 1.0, 1.0 + 2.0 ** -50)])
    def test_equals_the_fresh_array_expressions(self, n, kind, a, b):
        reference = {"uniform": reference_uniform, "normal": reference_normal}[kind]
        expected = reference(11, 5, a, b, n)
        fresh = getattr(Rng(11, 5), kind)(a, b, n)
        # A prefix of a larger vector, shaped as a matrix where n allows.
        vector = np.full(n + 3, np.nan)
        out = vector[:n].reshape((n // 7, 7) if n % 7 == 0 else n)
        given = getattr(Rng(11, 5), kind)(a, b, n, out=out)
        assert given is out and np.isnan(vector[n:]).all()
        assert fresh.tobytes() == expected.tobytes() == given.tobytes()

    def test_the_upper_clamp_acts_on_a_given_array(self):
        # U[1, 1 + 2^-50): 1 + u * 2^-50 rounds up to the excluded bound for
        # u near 1, which the clamp moves to the largest value below it.
        low, high, n = 1.0, 1.0 + 2.0 ** -50, 4096
        unclamped = low + np.random.Generator(philox(11, 5)).random(n) * (high - low)
        assert (unclamped == high).any()
        out = Rng(11, 5).uniform(low, high, n, out=np.empty(n))
        assert out.max() == np.nextafter(high, low)
        assert out.tobytes() == reference_uniform(11, 5, low, high, n).tobytes()

    @pytest.mark.parametrize("out", [np.empty(5), np.empty(6, dtype=np.float32),
                                     np.empty(12)[::2], np.empty((3, 2)).T])
    def test_an_out_that_cannot_take_the_draws_is_rejected(self, out):
        for kind in ("uniform", "normal"):
            with pytest.raises(ValueError, match="out must be"):
                getattr(Rng(0, 0), kind)(0.0, 1.0, 6, out=out)


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(softmax(np.array([0.0, 0.0])), np.array([0.5, 0.5]))

    def test_large_logit_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_log_closed_form(self):
        p = softmax(np.log(np.array([1.0, 2.0, 3.0])))
        assert np.allclose(p, np.array([1, 2, 3]) / 6.0, rtol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))

    @given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-50, 50)),
           st.floats(-30, 30))
    @settings(max_examples=80, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, z, shift):
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0)
        assert np.allclose(p, softmax(z + shift), atol=1e-12)


class TestCrossEntropy:
    """The oracle the readout and SG loss tests compare against."""

    def test_perfect_prediction_is_zero(self):
        y = np.zeros(5)
        y[2] = 1.0
        p = np.zeros(5)
        p[2] = 1.0
        assert cross_entropy(y, p) == 0.0

    def test_uniform_ten_classes(self):
        y = np.zeros(10)
        y[0] = 1.0
        assert cross_entropy(y, np.full(10, 0.1)) == pytest.approx(math.log(10), rel=1e-12)

    def test_half_probability(self):
        y = np.array([1.0, 0.0])
        assert cross_entropy(y, np.array([0.5, 0.5])) == pytest.approx(math.log(2), rel=1e-12)

    def test_zero_probability_clamped_not_raised(self):
        y = np.array([1.0, 0.0])
        loss = cross_entropy(y, np.array([0.0, 1.0]))
        assert loss == pytest.approx(-math.log(1e-12))

    def test_nonnegative(self):
        rng = Rng(12, 0)
        for _ in range(50):
            p = softmax(rng.normal(0, 3, 6))
            y = np.zeros(6)
            y[int(rng.uniform(0, 6, 1)[0])] = 1.0
            assert cross_entropy(y, p) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), np.zeros(4))


class TestAdam:
    def test_first_step_closed_form(self):
        # With fresh moments, m_hat = g and v_hat = g^2, so the update is
        # -lr * g / (|g| + eps).
        params = np.array([1.0, -2.0])
        expected = params - 1e-3 * 0.5 / (0.5 + 1e-8)
        state = AdamState.zeros(2, AdamConfig(lr=1e-3))
        assert adam_step(params, np.array([0.5, 0.5]), state) is None
        assert np.allclose(params, expected, rtol=1e-12)
        assert state.t == 1

    def test_first_step_magnitude_close_to_lr(self):
        params = np.zeros(1)
        adam_step(params, np.array([0.5]), AdamState.zeros(1, AdamConfig(lr=1e-3)))
        assert params[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_sign_following_negative_gradient(self):
        params = np.zeros(1)
        adam_step(params, np.array([-0.01]), AdamState.zeros(1, AdamConfig(lr=1e-3)))
        assert params[0] == pytest.approx(1e-3, rel=1e-6)

    def test_zero_gradient_fresh_state_is_noop(self):
        params = np.array([0.3, -1.5, 7.0])
        state = AdamState.zeros(3)
        adam_step(params, np.zeros(3), state)
        assert np.array_equal(params, [0.3, -1.5, 7.0])
        assert state.t == 1

    def test_second_moment_nonnegative_and_t_increments(self):
        params = np.zeros(4)
        state = AdamState.zeros(4)
        rng = Rng(8, 0)
        for step in range(1, 20):
            adam_step(params, rng.normal(0, 1, 4), state)
            assert state.t == step
            assert np.all(state.v >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3))

    def test_updates_in_place(self):
        params, grads = np.array([1.0, -0.5, 2.0]), np.array([1.0, -1.0, 0.25])
        state = AdamState.zeros(3, AdamConfig(lr=0.1))
        ref_params, ref_state = reference_adam_step(params.copy(), grads,
                                                    AdamState.zeros(3, AdamConfig(lr=0.1)))
        m, v = state.m, state.v
        adam_step(params, grads, state)
        assert state.m is m and state.v is v
        assert _bits(params) == _bits(ref_params)
        assert _bits(state.m) == _bits(ref_state.m)
        assert _bits(state.v) == _bits(ref_state.v)
        assert np.array_equal(grads, [1.0, -1.0, 0.25])
        assert state.t == 1

    @pytest.mark.parametrize("case", ["non-contiguous params", "float32 params",
                                      "read-only params", "m of the wrong shape"])
    def test_targets_that_cannot_be_written_in_place_rejected(self, case):
        params, state = np.zeros(4), AdamState.zeros(4)
        if case == "non-contiguous params":
            params = np.zeros(8)[::2]
        elif case == "float32 params":
            params = np.zeros(4, dtype=np.float32)
        elif case == "read-only params":
            params.flags.writeable = False
        else:
            state.m = np.zeros(5)
        with pytest.raises(ValueError):
            adam_step(params, np.ones(4), state)
        assert state.t == 0


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tobytes()


class TestAdamBlocks:
    """The blocked update against the whole-array oracle, bit for bit."""

    @pytest.mark.parametrize("n", [1, ADAM_BLOCK - 1, ADAM_BLOCK, ADAM_BLOCK + 1,
                                   3 * ADAM_BLOCK + 7])
    @pytest.mark.parametrize("grads", ["random", "zero", "negative"])
    def test_thirty_steps_equal_the_oracle_bitwise(self, n, grads):
        rng = Rng(21, n)
        params = rng.normal(0.0, 0.5, n)
        state = AdamState.zeros(n, AdamConfig(lr=3e-3))
        ref_params, ref_state = params.copy(), AdamState.zeros(n, AdamConfig(lr=3e-3))
        for _ in range(30):
            if grads == "random":
                g = rng.normal(0.0, 2.0, n)
            elif grads == "zero":
                g = np.zeros(n)
            else:
                g = -np.abs(rng.normal(0.0, 1e-3, n))
            adam_step(params, g, state)
            ref_params, ref_state = reference_adam_step(ref_params, g, ref_state)
            assert _bits(params) == _bits(ref_params)
            assert _bits(state.m) == _bits(ref_state.m)
            assert _bits(state.v) == _bits(ref_state.v)
        assert state.t == ref_state.t == 30

    def test_peak_is_two_blocks(self):
        n = 200_000
        rng = Rng(22, 0)
        params, grads = rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n)
        state = AdamState.zeros(n)
        adam_step(params, grads, state)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 1.05 * 8 * 2 * ADAM_BLOCK
