import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import drive_layer, extract
from oracles import (leak_decay_sequence, linear_filter_membrane, poisson_encode,
                     reference_lif_stack)
from ransnn.encoding import encode_sample
from ransnn.idx import LabeledDataset
from ransnn.network import (LifParams, NetworkTopology, Normal, Uniform, count_spikes,
                            fan_in_uniform, init_weights, simulate, simulate_forward)
from ransnn.numerics import ENCODE_TRAIN_STREAM, Rng


class TestLifParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LifParams(beta=1.0)
        with pytest.raises(ValueError):
            LifParams(beta=-0.1)
        with pytest.raises(ValueError):
            LifParams(u_thr=0.0)


class TestDistributions:
    def test_uniform_bounds_validated(self):
        for low, high in ((5.0, 5.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                Uniform(low, high)

    def test_normal_std_validated(self):
        for mean, std in ((0.0, -1.0), (0.0, math.inf), (math.nan, 1.0), (math.inf, 1.0),
                          (0.0, math.nan)):
            with pytest.raises(ValueError):
                Normal(mean, std)

    def test_fan_in_uniform_matches_rule(self):
        dist = fan_in_uniform(784)
        a = math.sqrt(6.0 / 784.0)
        assert dist.low == -a and dist.high == a


class TestInitWeights:
    def test_shapes_and_bounds_at_benchmark_scale(self):
        a = math.sqrt(6.0 / 784.0)
        net = init_weights([784, 2000], Uniform(-a, a), seed=3)
        (w,) = net.weights
        assert w.shape == (2000, 784)
        assert np.all(w >= -a) and np.all(w < a)

    def test_zero_variance_normal_gives_zero_weights(self):
        net = init_weights([10, 5], Normal(0.0, 0.0), seed=0)
        assert np.array_equal(net.weights[0], np.zeros((5, 10)))

    def test_same_seed_bit_identical(self):
        a = init_weights([20, 30, 7], Uniform(-0.1, 0.1), seed=11)
        b = init_weights([20, 30, 7], Uniform(-0.1, 0.1), seed=11)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weights_are_frozen(self):
        net = init_weights([4, 3], Uniform(-1, 1), seed=0)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 9.0

    def test_layer_size_validation(self):
        with pytest.raises(ValueError):
            init_weights([5], Uniform(-1, 1), seed=0)
        with pytest.raises(ValueError):
            init_weights([5, 0], Uniform(-1, 1), seed=0)

    def test_multi_layer_shapes(self):
        net = init_weights([8, 6, 4], Uniform(-1, 1), seed=1)
        assert net.weights[0].shape == (6, 8)
        assert net.weights[1].shape == (4, 6)
        assert net.lif == LifParams()


class TestLifStep:
    """One LIF step as the simulation kernel takes it, driven by chosen
    currents (conftest.drive_layer)."""

    def test_spike_and_subtractive_reset(self):
        lif = LifParams(beta=0.95, u_thr=1.0)
        spikes, u_pre = drive_layer([[0.5], [0.6], [0.0]], lif)
        # 0.95 * 0.5 + 0.6 = 1.075 > 1 -> spike, then 1.075 - 1 = 0.075
        assert spikes[:, 0].tolist() == [0, 1, 0]
        assert u_pre[1, 0] == 0.95 * 0.5 + 0.6
        assert u_pre[1, 0] - 1.0 == pytest.approx(0.075, abs=1e-12)
        assert u_pre[2, 0] == 0.95 * (u_pre[1, 0] - 1.0)

    def test_rest_state_stays_at_rest(self):
        spikes, u_pre = drive_layer(np.zeros((4, 3)), LifParams())
        assert np.array_equal(spikes, np.zeros((4, 3), dtype=np.uint8))
        assert np.array_equal(u_pre, np.zeros((4, 3)))

    def test_subthreshold_no_spike(self):
        lif = LifParams(beta=0.95, u_thr=1.0)
        spikes, u_pre = drive_layer([[0.9], [0.05], [0.0]], lif)
        assert not spikes.any()
        assert u_pre[1, 0] == pytest.approx(0.905, abs=1e-12)
        assert u_pre[2, 0] == 0.95 * u_pre[1, 0]

    def test_threshold_is_strict(self):
        # u_pre exactly at threshold: no spike, and no reset.
        spikes, u_pre = drive_layer([[1.0], [0.0]], LifParams(beta=0.5, u_thr=1.0))
        assert spikes[0, 0] == 0
        assert u_pre[0, 0] == 1.0
        assert u_pre[1, 0] == 0.5

    @given(st.integers(0, 2**31), st.floats(0.0, 0.99), st.floats(0.1, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_reset_soundness(self, seed, beta, u_thr):
        # With per-step drive bounded by u_thr the pre-reset potential can
        # never exceed 2 * u_thr, so one subtraction always lands at or
        # below threshold. The first current sets the starting potentials
        # and the last, zero, one reads the fifth step's post-reset state.
        params = LifParams(beta=beta, u_thr=u_thr)
        rng = Rng(seed, 0)
        currents = np.vstack([rng.uniform(-1.0, min(u_thr, 1.0), 16),
                              rng.uniform(-3.0 * u_thr, u_thr, 5 * 16).reshape(5, 16),
                              np.zeros(16)])
        spikes, u_pre = drive_layer(currents, params)
        assert not spikes[0].any()
        for t in range(1, 6):
            fired = spikes[t] == 1
            assert np.array_equal(fired, u_pre[t] > params.u_thr)
            u_post = np.where(fired, u_pre[t] - params.u_thr, u_pre[t])
            assert np.all(u_post <= params.u_thr)
            assert np.array_equal(u_pre[t + 1], params.beta * u_post + currents[t + 1])

    def test_overdrive_subtracts_exactly_once(self):
        # A step that overshoots past 2 * u_thr still sheds exactly one
        # threshold's worth of potential: the reset is a single subtraction.
        spikes, u_pre = drive_layer([[3.5], [0.0]], LifParams(beta=0.9, u_thr=1.0))
        assert spikes[0, 0] == 1
        assert u_pre[1, 0] == 0.9 * 2.5

    def test_pure_leak_decay_exact(self):
        params = LifParams(beta=0.95, u_thr=1.0)
        u0 = Rng(4, 0).uniform(0.0, 0.9, 8)
        expected = leak_decay_sequence(u0, params.beta, steps=40)
        spikes, u_pre = drive_layer(np.vstack([u0, np.zeros((40, 8))]), params)
        assert not spikes.any()
        for k in range(40):
            assert np.array_equal(u_pre[k + 1], expected[k])


class TestSimulateForward:
    def _net(self, sizes, scale, seed=0, lif=LifParams()):
        return init_weights(sizes, Uniform(-scale, scale), seed=seed, lif=lif)

    def test_silence_propagates(self):
        net = self._net([10, 20, 5], 0.5)
        out = simulate_forward(net, np.zeros((1, 25, 10), dtype=np.uint8))
        assert out.sum() == 0
        assert out.shape == (1, 25, 5)

    def test_strong_identity_drive_fires_every_step(self):
        lif = LifParams(beta=0.95, u_thr=1.0)
        w = (2.0 * lif.u_thr * np.eye(4))
        net = NetworkTopology(layer_sizes=(4, 4), weights=(w,), lif=lif,
                              dist=Uniform(-1, 1), seed=0)
        out = simulate_forward(net, np.ones((1, 10, 4), dtype=np.uint8))
        assert np.all(out == 1)

    def test_deterministic(self):
        net = self._net([12, 30], 0.4, seed=5)
        train = poisson_encode(Rng(1, 0).uniform(0, 1, 12), 20, Rng(2, 0))
        a = simulate_forward(net, train[None])
        b = simulate_forward(net, train[None])
        assert np.array_equal(a, b)

    def test_matches_stepwise_lif_composition_bitwise(self):
        net = self._net([9, 14], 0.6, seed=8)
        lif = net.lif
        train = poisson_encode(Rng(3, 0).uniform(0, 1, 9), 15, Rng(4, 0))
        out = simulate_forward(net, train[None])[0]
        u = np.zeros(14)
        w = net.weights[0]
        for t in range(15):
            u = lif.beta * u + train[t].astype(np.float64) @ w.T
            spikes = u > lif.u_thr
            assert np.array_equal(out[t], spikes)
            u = u - lif.u_thr * spikes

    def test_subthreshold_linearity_matches_convolution_oracle(self):
        # Inputs scaled so nothing ever crosses threshold: the membrane must
        # equal the explicit geometric-decay convolution of the currents.
        lif = LifParams(beta=0.9, u_thr=1e6)
        net = self._net([6, 8], 0.05, seed=13, lif=lif)
        train = poisson_encode(Rng(5, 0).uniform(0, 1, 6), 12, Rng(6, 0))
        expected = linear_filter_membrane(net.weights[0], lif.beta, train)
        [(u_pre, spikes)] = simulate(train[None], net.weights, net.lif)
        assert not spikes.any()
        assert np.max(np.abs(u_pre[0] - expected)) <= 1e-12

    def test_input_width_mismatch(self):
        net = self._net([10, 5], 0.3)
        with pytest.raises(ValueError):
            simulate_forward(net, np.zeros((1, 5, 11), dtype=np.uint8))

    def test_two_layer_network_runs(self):
        net = self._net([10, 16, 6], 0.8, seed=2)
        train = poisson_encode(Rng(7, 0).uniform(0.4, 1.0, 10), 25, Rng(8, 0))
        out = simulate_forward(net, train[None])
        assert out.shape == (1, 25, 6)
        assert np.isin(out, (0, 1)).all()

    # The first layer's float64 input copy lives in the second layer's input
    # rows where they are as wide (10 -> 16), else in a (B, T, n_in) work
    # array whose rows the parts share (20 -> 16).
    @pytest.mark.parametrize("sizes", [(10, 16, 6), (20, 16, 6)], ids=["in-next-input",
                                                                       "parts-share-input"])
    def test_a_layer_feeding_another_returns_its_spikes_as_float64(self, sizes):
        net = self._net(sizes, 0.8, seed=2)
        bits = (Rng(9, 0).random((3, 7, sizes[0])) < 0.4).astype(np.uint8)
        (u0, s0), (u1, s1) = simulate(bits, net.weights, net.lif)
        (ref_s0, ref_u0), (ref_s1, ref_u1) = reference_lif_stack(net.weights, net.lif, bits)
        assert s0.dtype == np.float64 and s1.dtype == np.uint8
        assert s0.any() and s1.any() and not s0.all()
        for got, ref in ((u0, ref_u0), (s0, ref_s0), (u1, ref_u1), (s1, ref_s1)):
            assert np.array_equal(got, ref)


class TestSimulatePrefix:
    """A run over the first t steps of an input has the spikes of the first
    t steps of the run over all of it: what lets one simulation at the
    longest window serve every shorter one. The potentials agree to
    rounding only, since BLAS may pick another GEMM kernel for another
    number of rows."""

    # The two-layer net's layers both fire at rates near 0.3-0.4.
    @pytest.mark.parametrize("sizes,dist", [((784, 2000), fan_in_uniform(784)),
                                            ((64, 30, 12), Uniform(-0.3, 0.32))])
    def test_prefix_equals_first_steps_of_the_full_run(self, sizes, dist):
        net = init_weights(sizes, dist, seed=3)
        bits = (Rng(4, 0).random((9, 25, sizes[0])) < 0.2).astype(np.uint8)
        full = [(s.copy(), u.copy()) for u, s in simulate(bits, net.weights, net.lif)]
        assert all(s.any() and not s.all() for s, _ in full)
        for t in (1, 7, 24):
            prefix = simulate(bits[:, :t], net.weights, net.lif)
            for (u, s), (s_full, u_full) in zip(prefix, full):
                assert np.array_equal(s, s_full[:, :t])
                np.testing.assert_allclose(u, u_full[:, :t], rtol=0, atol=1e-12)


class TestAccumulateSpikes:
    """Spike counts as feature extraction accumulates them: per hidden
    neuron, the number of steps of the window in which it fired."""

    @staticmethod
    def _dataset(images):
        images = np.asarray(images, dtype=np.uint8)
        return LabeledDataset(images=images, labels=np.zeros(len(images), dtype=np.int64),
                              num_classes=1)

    @staticmethod
    def _identity_net(n, gain):
        lif = LifParams(beta=0.95, u_thr=1.0)
        return NetworkTopology(layer_sizes=(n, n), weights=(gain * np.eye(n),),
                               lif=lif, dist=Uniform(-1, 1), seed=0)

    def test_all_zero(self):
        # A zero pixel never fires, so nothing downstream does.
        ds = self._dataset(np.zeros((3, 4)))
        cache = extract(self._identity_net(4, 2.0), 25, ds, master_seed=0)
        assert np.array_equal(cache.features, np.zeros((3, 4), dtype=np.uint16))

    def test_saturated(self):
        # A pixel at the image's maximum fires every step, and a drive of
        # 2 * u_thr fires its neuron every step.
        ds = self._dataset(np.full((3, 4), 255))
        cache = extract(self._identity_net(4, 2.0), 25, ds, master_seed=0)
        assert np.array_equal(cache.features, np.full((3, 4), 25))

    def test_direct_summation(self):
        # The count over the first t steps grows by exactly the spike the
        # neuron emitted at step t.
        ds = self._dataset(Rng(3, 0).uniform(0, 256, 2 * 8).reshape(2, 8))
        net = init_weights([8, 6], Uniform(-1.0, 1.0), seed=4)
        windows = count_spikes(net.weights, net.lif, ds.images, np.arange(len(ds)),
                               range(1, 11), 5, ENCODE_TRAIN_STREAM)
        for k in range(len(ds)):
            bits = encode_sample(ds.images[k], 10, Rng(5, ENCODE_TRAIN_STREAM + k))
            raster = simulate_forward(net, bits[None])[0]
            assert raster.any() and not raster.all()
            counts = np.stack([windows[t][k] for t in range(1, 11)]).astype(int)
            assert np.array_equal(np.diff(counts, axis=0, prepend=0), raster)

    @given(st.integers(1, 40), st.integers(1, 30), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_counts_bounded_by_window(self, steps, neurons, seed):
        ds = self._dataset(Rng(seed, 0).uniform(0, 256, 2 * neurons).reshape(2, neurons))
        net = init_weights([neurons, 10], Uniform(-1.0, 1.0), seed=seed)
        counts = extract(net, steps, ds, seed).features
        assert np.all(counts >= 0) and np.all(counts <= steps)

    def test_encoder_writes_the_first_layers_input(self, monkeypatch):
        # Each unit's lif_stack runs on the very float64 array encode_batch
        # filled, with no uint8 copy of the bits between them.
        import ransnn.network

        encoded, stacked = [], []
        real_encode, real_stack = ransnn.network.encode_batch, ransnn.network.lif_stack

        def spy_encode(*args, **kwargs):
            encoded.append(real_encode(*args, **kwargs))
            return encoded[-1]

        def spy_stack(x, *args, **kwargs):
            stacked.append(x)
            return real_stack(x, *args, **kwargs)

        monkeypatch.setattr(ransnn.network, "encode_batch", spy_encode)
        monkeypatch.setattr(ransnn.network, "lif_stack", spy_stack)
        ds = self._dataset(Rng(3, 0).uniform(0, 256, 11 * 8).reshape(11, 8))
        net = init_weights([8, 6], Uniform(-1.0, 1.0), seed=4)
        count_spikes(net.weights, net.lif, ds.images, np.arange(len(ds)), (5,), 5,
                     ENCODE_TRAIN_STREAM)
        assert len(stacked) == len(encoded) == 2
        for x, bits in zip(stacked, encoded):
            assert x is bits and x.dtype == np.float64
