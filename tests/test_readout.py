import numpy as np
import pytest

from conftest import extract, mnist_shaped
from oracles import (central_difference_grad, cross_entropy, reference_cache_bytes,
                     reference_lif_stack, relative_error)
from ransnn import readout
from ransnn.encoding import encode_sample
from ransnn.idx import LabeledDataset
from ransnn.network import (LifParams, Normal, Uniform, fan_in_uniform, init_weights,
                            simulate_forward)
from ransnn.numerics import (ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM, AdamConfig, Rng, adam_step,
                             softmax)
from ransnn.readout import (EVAL_GROUP, CacheFormatError, FeatureCache, ReadoutModel, evaluate,
                            extract_features, extract_features_at, feature_digest,
                            readout_loss_grad, train_readout)


def random_model(num_classes, num_features, seed=0, scale=0.5):
    rng = Rng(seed, 0)
    return ReadoutModel(
        weights=rng.normal(0, scale, num_classes * num_features).reshape(
            num_classes, num_features),
        bias=rng.normal(0, scale, num_classes))


def counts_cache(features, labels, time_steps=25):
    return FeatureCache(features=np.asarray(features, dtype=np.uint16),
                        labels=np.asarray(labels, dtype=np.int64), time_steps=time_steps,
                        source_config_digest=0)


class TestExtractFeatures:
    def _setup(self, n_samples=6, pixels=16, hidden=10, seed=3):
        rng = Rng(seed, 7)
        images = rng.uniform(0, 255, n_samples * pixels).astype(np.uint8)
        ds = LabeledDataset(images=images.reshape(n_samples, pixels),
                            labels=np.arange(n_samples, dtype=np.int64) % 3,
                            num_classes=3)
        net = init_weights([pixels, hidden], Uniform(-0.6, 0.6), seed=seed)
        return ds, net, 25

    def test_all_zero_dataset_gives_zero_features(self):
        ds = LabeledDataset(images=np.zeros((5, 16), dtype=np.uint8),
                            labels=np.zeros(5, dtype=np.int64), num_classes=1)
        net = init_weights([16, 8], Uniform(-1, 1), seed=0)
        cache = extract(net, 25, ds, master_seed=1)
        assert np.array_equal(cache.features, np.zeros((5, 8), dtype=np.uint16))

    def test_deterministic(self):
        ds, net, steps = self._setup()
        a = extract(net, steps, ds, master_seed=11)
        b = extract(net, steps, ds, master_seed=11)
        assert np.array_equal(a.features, b.features)
        assert a.source_config_digest == b.source_config_digest

    def test_counts_bounded_by_window(self):
        ds, net, steps = self._setup()
        cache = extract(net, steps, ds, master_seed=11)
        assert cache.features.min() >= 0 and cache.features.max() <= steps

    def test_rows_match_public_op_composition(self):
        ds, net, steps = self._setup()
        cache = extract(net, steps, ds, master_seed=11)
        for k in range(len(ds)):
            rng = Rng(11, ENCODE_TRAIN_STREAM + k)
            train = encode_sample(ds.images[k], steps, rng)
            counts = simulate_forward(net, train[None])[0].sum(axis=0)
            assert np.array_equal(cache.features[k], counts.astype(np.uint16))

    def test_independent_of_grouping_and_order(self):
        ds, net, steps = self._setup(n_samples=9)
        full = extract(net, steps, ds, master_seed=4)
        first = extract(net, steps, ds, master_seed=4, indices=np.arange(5))
        rest = extract(net, steps, ds, master_seed=4, indices=np.arange(5, 9))
        assert np.array_equal(np.vstack([first.features, rest.features]), full.features)
        shuffled = np.array([7, 2, 5, 0])
        part = extract(net, steps, ds, master_seed=4, indices=shuffled)
        assert np.array_equal(part.features, full.features[shuffled])
        assert np.array_equal(part.labels, full.labels[shuffled])

    def test_width_mismatch_rejected(self):
        ds, _, steps = self._setup(pixels=16)
        net = init_weights([20, 8], Uniform(-1, 1), seed=0)
        with pytest.raises(ValueError):
            extract(net, steps, ds, master_seed=0)

    def test_digest_covers_the_selected_indices(self):
        ds, net, steps = self._setup(n_samples=9)
        a = extract(net, steps, ds, master_seed=4, indices=np.arange(4))
        again = extract(net, steps, ds, master_seed=4, indices=np.arange(4))
        shifted = extract(net, steps, ds, master_seed=4, indices=np.arange(1, 5))
        longer = extract(net, steps, ds, master_seed=4, indices=np.arange(5))
        assert a.source_config_digest == again.source_config_digest
        assert a.source_config_digest != shifted.source_config_digest
        assert a.source_config_digest != longer.source_config_digest


class TestExtractionBatchInvariance:
    """Chunked extraction must give every row the bits of simulating its
    sample alone, whatever the selection length (the BLAS in use does not
    promise that a GEMM row is independent of the other rows)."""

    # Both layers of the two-layer net fire at rates near 0.3-0.4.
    @pytest.mark.parametrize("sizes,dist", [((784, 300), fan_in_uniform(784)),
                                            ((784, 120, 40), Uniform(-0.15, 0.16))])
    def test_rows_equal_per_sample_simulation(self, sizes, dist):
        ds = mnist_shaped(160)
        net = init_weights(sizes, dist, seed=5)
        order = Rng(9, 0).permutation(len(ds))
        for n in (1, 7, 9, 128):
            sel = order[:n]
            cache = extract(net, 25, ds, 21, indices=sel)
            assert cache.features.any()
            for k, idx in enumerate(sel):
                train = encode_sample(ds.images[idx], 25, Rng(21, ENCODE_TRAIN_STREAM + int(idx)))
                counts = simulate_forward(net, train[None])[0].sum(axis=0)
                assert np.array_equal(cache.features[k], counts)
                old_bits = reference_lif_stack(net.weights, net.lif, train[None])[-1][0]
                assert np.array_equal(cache.features[k], old_bits[0].sum(axis=0))


class TestExtractFeaturesAt:
    """One simulation at the longest window gives every shorter window's
    cache, equal to a direct extraction at that window, digest included."""

    @pytest.mark.parametrize("n", [1, 7, 9, 128])
    def test_equals_direct_extraction_per_window(self, n):
        ds = mnist_shaped(160)
        net = init_weights((784, 300), fan_in_uniform(784), seed=5)
        sel = Rng(9, 0).permutation(len(ds))[:n]
        caches = extract_features_at(net, ds, 21, (25, 1, 7), indices=sel, stream_base=77,
                                     dataset_id="mnist/train")
        assert sorted(caches) == [1, 7, 25]
        for t, cache in caches.items():
            direct = extract_features(net, t, ds, 21, indices=sel, stream_base=77,
                                      dataset_id="mnist/train")
            assert cache.features.any()
            assert cache.features.dtype == direct.features.dtype
            assert np.array_equal(cache.features, direct.features)
            assert np.array_equal(cache.labels, direct.labels)
            assert cache.time_steps == direct.time_steps == t
            assert cache.source_config_digest == direct.source_config_digest
        assert len({c.source_config_digest for c in caches.values()}) == 3

    def test_no_window_rejected(self):
        self._extract_at((), match="at least one")

    @pytest.mark.parametrize("steps", [(0, 5), (70000,)])
    def test_window_outside_the_count_range_rejected(self, steps):
        self._extract_at(steps, match="65535")

    @staticmethod
    def _extract_at(steps, match):
        ds = mnist_shaped(4)
        net = init_weights((784, 10), fan_in_uniform(784), seed=5)
        with pytest.raises(ValueError, match=match):
            extract_features_at(net, ds, 0, steps, indices=np.arange(4),
                                stream_base=ENCODE_TRAIN_STREAM, dataset_id="mnist/train")


class TestFeatureDigest:
    """Digests of caches written by earlier versions stay valid: these are
    the values recorded when the window length was part of an encoder
    config with a normalization setting."""

    def test_default_train_split_digest_is_pinned(self):
        assert feature_digest((784, 2000), fan_in_uniform(784), 1234, LifParams(), 25,
                              "mnist/train", 1234, ENCODE_TRAIN_STREAM,
                              np.arange(8)) == 0x3cfd9a753413360d

    def test_two_layer_test_split_digest_is_pinned(self):
        assert feature_digest((784, 300, 100), Normal(0.0, 0.05), 7,
                              LifParams(0.9, 1.0), 10, "fmnist/test", 7,
                              ENCODE_TEST_STREAM, [5, 3, 9]) == 0xb660f656c418190e


class TestFeatureCacheFile:
    def test_round_trip_bitwise(self, tmp_path):
        cache = counts_cache(Rng(1, 0).uniform(0, 25, 60).reshape(12, 5),
                             Rng(2, 0).uniform(0, 4, 12).astype(np.int64))
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        loaded = FeatureCache.load(path)
        assert np.array_equal(loaded.features, cache.features)
        assert np.array_equal(loaded.labels, cache.labels)
        assert loaded.time_steps == cache.time_steps
        assert loaded.source_config_digest == cache.source_config_digest

    def test_layout_is_the_documented_binary_format(self, tmp_path):
        cache = counts_cache(np.array([[3, 1], [0, 25]]), np.array([1, 0]),
                             time_steps=25)
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        raw = path.read_bytes()
        assert raw[:8] == b"RSNNFC01"
        import struct
        n, f, t, digest = struct.unpack("<QQQQ", raw[8:40])
        assert (n, f, t, digest) == (2, 2, 25, 0)
        feats = np.frombuffer(raw[40:48], dtype="<u2")
        assert np.array_equal(feats, [3, 1, 0, 25])
        labels = np.frombuffer(raw[48:], dtype="<u2")
        assert np.array_equal(labels, [1, 0])

    @pytest.mark.parametrize("shape", [(0, 5), (1, 1), (12, 5), (33, 300)])
    def test_file_bytes_equal_the_copying_writer(self, tmp_path, shape):
        n, f = shape
        cache = counts_cache(Rng(3, 0).uniform(0, 26, n * f).reshape(n, f),
                             Rng(4, 0).uniform(0, 10, n).astype(np.int64))
        cache.source_config_digest = 0xFEDCBA9876543210
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        assert path.read_bytes() == reference_cache_bytes(cache)
        path.write_bytes(reference_cache_bytes(cache))
        loaded = FeatureCache.load(path, expected_digest=0xFEDCBA9876543210)
        assert loaded.features.dtype == np.uint16 and loaded.labels.dtype == np.int64
        assert np.array_equal(loaded.features, cache.features)
        assert np.array_equal(loaded.labels, cache.labels)

    def test_non_contiguous_features_saved_by_value(self, tmp_path):
        wide = counts_cache(Rng(5, 0).uniform(0, 26, 40).reshape(4, 10), np.arange(4))
        cache = counts_cache(wide.features[:, ::2], wide.labels)
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        assert path.read_bytes() == reference_cache_bytes(cache)

    def test_digest_mismatch_rejected(self, tmp_path):
        cache = counts_cache(np.zeros((3, 4)), np.zeros(3))
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        FeatureCache.load(path, expected_digest=0)
        with pytest.raises(CacheFormatError):
            FeatureCache.load(path, expected_digest=1234)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOTACACHE" + b"\x00" * 64)
        with pytest.raises(CacheFormatError):
            FeatureCache.load(path)

    def test_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.rsnnfc"
        counts_cache(np.zeros((3, 4)), np.zeros(3)).save(path)
        before = path.read_bytes()

        def fail(*_args):
            raise OSError("disk full")

        monkeypatch.setattr("ransnn.readout.os.replace", fail)
        with pytest.raises(OSError):
            counts_cache(np.ones((3, 4)), np.zeros(3)).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cache.rsnnfc"]

    def test_truncated_rejected(self, tmp_path):
        cache = counts_cache(np.zeros((3, 4)), np.zeros(3))
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(CacheFormatError):
            FeatureCache.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        cache = counts_cache(np.zeros((3, 4)), np.zeros(3))
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(CacheFormatError):
            FeatureCache.load(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "cache.rsnnfc"
        path.write_bytes(b"RSNNFC01" + b"\x00" * 20)
        with pytest.raises(CacheFormatError):
            FeatureCache.load(path)


def loss_grad(model, features, label):
    """readout_loss_grad for the single spike-count vector features."""
    x = np.asarray(features, dtype=np.float64)[None]
    return readout_loss_grad(model, x, np.array([label]))


class TestReadoutForward:
    def test_zero_model_is_uniform(self):
        model = ReadoutModel(weights=np.zeros((4, 6)), bias=np.zeros(4))
        _, probs, _ = loss_grad(model, np.arange(6), 0)
        assert np.allclose(probs, 0.25, atol=1e-15)

    def test_always_firing_neuron_drives_its_class(self):
        weights = np.zeros((5, 8))
        weights[3, 2] = 1.0  # class 3 watches neuron 2
        model = ReadoutModel(weights=weights, bias=np.zeros(5))
        counts = np.zeros(8)
        counts[2] = 25.0
        _, probs, _ = loss_grad(model, counts, 0)
        assert probs.argmax() == 3

    def test_probabilities_sum_to_one(self):
        model = random_model(7, 11, seed=5)
        counts = Rng(0, 0).uniform(0, 25, 10 * 11).reshape(10, 11)
        _, probs, _ = readout_loss_grad(model, counts, np.arange(10) % 7)
        assert probs.shape == (10, 7)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)

    def test_shape_mismatch(self):
        model = random_model(3, 4)
        with pytest.raises(ValueError):
            loss_grad(model, np.zeros(5), 0)


class TestReadoutGrad:
    def test_perfect_prediction_gives_zero_gradient(self):
        # One huge logit makes the softmax saturate at the true class.
        weights = np.zeros((3, 4))
        weights[1, 0] = 100.0
        model = ReadoutModel(weights=weights, bias=np.zeros(3))
        features = np.array([10.0, 0.0, 0.0, 0.0])
        loss, _, grad = loss_grad(model, features, 1)
        assert loss < 1e-12
        assert grad.shape == (3 * 4 + 3,)
        assert np.max(np.abs(grad)) < 1e-12

    def test_zero_features_leave_weight_gradient_zero(self):
        model = random_model(4, 5, seed=2)
        y = np.array([0.0, 0.0, 1.0, 0.0])
        _, probs, grad = loss_grad(model, np.zeros(5), 2)
        d_w, d_b = grad[:4 * 5], grad[4 * 5:]
        assert np.array_equal(d_w, np.zeros(4 * 5))
        expected = softmax(model.bias) - y
        assert np.allclose(probs[0], softmax(model.bias), rtol=1e-15)
        assert np.allclose(d_b, expected, rtol=1e-15)

    def test_matches_central_finite_differences(self):
        # 100 random small instances; loss differentiated numerically with
        # step 1e-5 must agree with the analytic gradient to < 1e-6. Weight
        # scale keeps logits a few units wide: saturated softmax would make
        # the (clamped) loss numerically flat and starve the differences.
        # The batches hold one to three rows, so the mean over rows counts.
        num_classes, num_features = 4, 6
        for trial in range(100):
            rng = Rng(trial, 3)
            model = random_model(num_classes, num_features, seed=trial + 1000,
                                 scale=0.05)
            rows = 1 + trial % 3
            x = rng.uniform(0.0, 25.0, rows * num_features).reshape(rows, num_features)
            labels = rng.uniform(0, num_classes, rows).astype(np.int64)
            y = np.eye(num_classes)[labels]
            _, _, analytic = readout_loss_grad(model, x, labels)

            def loss_fn(theta):
                w = theta[:num_classes * num_features].reshape(num_classes,
                                                               num_features)
                b = theta[num_classes * num_features:]
                return np.mean([cross_entropy(y[r], softmax(w @ x[r] + b))
                                for r in range(rows)])

            theta0 = np.concatenate([model.weights.ravel(), model.bias])
            numeric = central_difference_grad(loss_fn, theta0, step=1e-5)
            assert relative_error(analytic, numeric) < 1e-6
            assert readout_loss_grad(model, x, labels)[0] == pytest.approx(
                loss_fn(theta0), rel=1e-12)


def separable_caches(samples_per_class=320, active=5, features=16, time_steps=25):
    """Two classes with disjoint always-active neurons: linearly separable."""
    n = 2 * samples_per_class
    feats = np.zeros((n, features), dtype=np.uint16)
    labels = np.zeros(n, dtype=np.int64)
    feats[:samples_per_class, :active] = time_steps
    feats[samples_per_class:, active:2 * active] = time_steps
    labels[samples_per_class:] = 1
    order = Rng(0, 50).permutation(n)
    train = counts_cache(feats[order], labels[order], time_steps)
    test = counts_cache(feats[order[:100]], labels[order[:100]], time_steps)
    return train, test


class TestTrainReadout:
    def test_separable_task_reaches_full_train_accuracy_quickly(self):
        train, test = separable_caches(samples_per_class=1600)
        _, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=64,  # 50 steps
                                   num_classes=2)
        early = [m for m in metrics if m.iteration <= 50]
        assert max(m.train_accuracy for m in early) == 1.0

    def test_loss_decreases_on_separable_task(self):
        train, test = separable_caches(samples_per_class=1600)
        _, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=64,
                                   num_classes=2)
        by_iter = {m.iteration: m.loss for m in metrics}
        assert by_iter[50] < by_iter[1]

    def test_shuffled_labels_stay_at_chance(self):
        rng = Rng(9, 0)
        n_train, n_test, width, classes = 2560, 6400, 50, 10
        x_train = rng.uniform(0, 25, n_train * width).reshape(n_train, width)
        x_test = rng.uniform(0, 25, n_test * width).reshape(n_test, width)
        y_train = (rng.uniform(0, classes, n_train)).astype(np.int64)
        y_test = (rng.uniform(0, classes, n_test)).astype(np.int64)
        train = counts_cache(x_train, y_train)
        test = counts_cache(x_test, y_test)
        _, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=128,
                                   num_classes=classes)
        assert all(0.06 <= m.test_accuracy <= 0.14 for m in metrics)

    def test_empty_cache_rejected(self):
        empty = counts_cache(np.zeros((0, 4)), np.zeros(0))
        filled = counts_cache(np.zeros((8, 4)), np.zeros(8))
        with pytest.raises(ValueError):
            train_readout(empty, filled, adam=AdamConfig(), batch_size=2, num_classes=2)
        with pytest.raises(ValueError):
            train_readout(filled, empty, adam=AdamConfig(), batch_size=2, num_classes=2)

    def test_batch_size_outside_the_cache_rejected(self):
        train, test = separable_caches(samples_per_class=4)
        for batch_size in (0, 9):
            with pytest.raises(ValueError, match="batch_size"):
                train_readout(train, test, adam=AdamConfig(), batch_size=batch_size,
                              num_classes=2)
        _, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=8,
                                   num_classes=2)
        assert [m.iteration for m in metrics] == [1]

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_label_outside_num_classes_rejected(self, split):
        train, test = separable_caches(samples_per_class=16)
        bad = train if split == "train" else test
        bad.labels[3] = 2
        with pytest.raises(ValueError, match="outside"):
            train_readout(train, test, adam=AdamConfig(), batch_size=8, num_classes=2)
        bad.labels[3] = 1
        train_readout(train, test, adam=AdamConfig(), batch_size=8, num_classes=2)

    def test_deterministic_bit_for_bit(self):
        train, test = separable_caches(samples_per_class=128)
        model_a, metrics_a = train_readout(train, test, adam=AdamConfig(), batch_size=32,
                                           num_classes=2)
        model_b, metrics_b = train_readout(train, test, adam=AdamConfig(), batch_size=32,
                                           num_classes=2)
        assert np.array_equal(model_a.weights, model_b.weights)
        assert np.array_equal(model_a.bias, model_b.bias)
        for ma, mb in zip(metrics_a, metrics_b):
            assert ma.loss == mb.loss
            assert ma.train_accuracy == mb.train_accuracy
            assert ma.test_accuracy == mb.test_accuracy

    def test_metrics_recorded_every_iteration(self):
        train, test = separable_caches(samples_per_class=64)
        _, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=32,
                                   num_classes=2)
        assert [m.iteration for m in metrics] == list(range(1, 5))
        elapsed = [m.elapsed for m in metrics]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))


class TestEvaluate:
    def test_constant_predictor_on_matching_labels(self):
        weights = np.zeros((3, 4))
        weights[0, :] = 1.0
        model = ReadoutModel(weights=weights, bias=np.zeros(3))
        cache = counts_cache(np.ones((20, 4)) * 5, np.zeros(20))
        assert evaluate(model, cache) == 1.0

    def test_random_model_on_uniform_labels_is_near_chance(self):
        classes, width, n = 10, 30, 6400
        rng = Rng(21, 0)
        cache = counts_cache(rng.uniform(0, 25, n * width).reshape(n, width),
                             rng.uniform(0, classes, n).astype(np.int64))
        model = random_model(classes, width, seed=77)
        acc = evaluate(model, cache)
        band = 3.0 * np.sqrt(0.1 * 0.9 / n)
        assert abs(acc - 0.1) <= band

    def test_empty_cache_rejected(self):
        model = random_model(3, 4)
        with pytest.raises(ValueError):
            evaluate(model, counts_cache(np.zeros((0, 4)), np.zeros(0)))

    @pytest.mark.parametrize("scale", [2, 4, 8])
    def test_argmax_invariant_under_reciprocal_scaling(self, scale):
        # Integer counts and power-of-two scales keep (W / s) * (s * f)
        # bit-identical to W * f, so predictions cannot move.
        rng = Rng(41, 0)
        feats = rng.uniform(0, 25, 500 * 12).reshape(500, 12).astype(np.uint16)
        labels = rng.uniform(0, 6, 500).astype(np.int64)
        model = random_model(6, 12, seed=8)
        scaled_model = ReadoutModel(weights=model.weights / scale, bias=model.bias)
        base = counts_cache(feats, labels)
        scaled = counts_cache(feats * scale, labels)
        assert evaluate(model, base) == evaluate(scaled_model, scaled)

    def test_argmax_invariant_under_non_dyadic_scaling(self):
        rng = Rng(43, 0)
        feats = rng.uniform(0, 25, 200 * 9).reshape(200, 9)
        model = random_model(5, 9, seed=13)
        scaled_model = ReadoutModel(weights=model.weights / 3.0, bias=model.bias)
        labels = np.zeros(len(feats), dtype=np.int64)
        _, probs, _ = readout_loss_grad(model, feats, labels)
        _, scaled_probs, _ = readout_loss_grad(scaled_model, feats * 3.0, labels)
        assert np.array_equal(probs.argmax(axis=1), scaled_probs.argmax(axis=1))


def spike_counts(rng, n, width, density=0.3, time_steps=25):
    """(n, width) u16 counts in [0, time_steps], each nonzero with the given
    probability."""
    counts = rng.integers(0, time_steps + 1, size=(n, width))
    return (counts * (rng.random((n, width)) < density)).astype(np.uint16)


def reference_accuracy(x, labels, weights, bias):
    """The per-snapshot product's accuracy, ties to the lowest class."""
    return float(((x @ weights.T + bias).argmax(axis=1) == labels).mean())


def train_with_snapshots(monkeypatch, train, test, num_classes, batch_size):
    """train_readout's (model, metrics), plus a copy of theta after each
    Adam step."""
    thetas = []

    def recording_step(theta, grad, state):
        adam_step(theta, grad, state)
        thetas.append(theta.copy())

    monkeypatch.setattr(readout, "adam_step", recording_step)
    model, metrics = train_readout(train, test, adam=AdamConfig(), batch_size=batch_size,
                                   num_classes=num_classes)
    n_w = num_classes * train.num_features
    return model, metrics, [(t[:n_w].reshape(num_classes, -1), t[n_w:]) for t in thetas]


def spy_certified(monkeypatch):
    """Every mask _certified returns, in call order. The spy also sets every
    prediction of a snapshot it did not certify to -1, which only the
    rescoring can undo."""
    masks = []

    def spy(logits, preds, *args):
        masks.append(certified(logits, preds, *args))
        preds[~masks[-1].all(axis=1)] = -1
        return masks[-1]

    certified = readout._certified
    monkeypatch.setattr(readout, "_certified", spy)
    return masks


class TestGroupedScoring:
    G = EVAL_GROUP

    @pytest.mark.parametrize("total_iters", [1, G - 1, G, G + 1, 2 * G + 3])
    @pytest.mark.parametrize("n_test", [1, 2, 7, 33, 384])
    @pytest.mark.parametrize("classes", [1, 2, 10, 62])
    @pytest.mark.parametrize("width", [1, 40, 2000])
    def test_curve_equals_the_per_step_product(self, monkeypatch, total_iters, n_test,
                                               classes, width):
        rng = np.random.default_rng([total_iters, n_test, classes, width])
        batch = 4
        train = counts_cache(spike_counts(rng, total_iters * batch, width),
                             rng.integers(0, classes, total_iters * batch))
        test = counts_cache(spike_counts(rng, n_test, width), rng.integers(0, classes, n_test))
        model, metrics, snapshots = train_with_snapshots(monkeypatch, train, test, classes,
                                                         batch)
        x = test.features.astype(np.float64)
        assert [m.iteration for m in metrics] == list(range(1, total_iters + 1))
        assert [m.test_accuracy for m in metrics] == [
            reference_accuracy(x, test.labels, w, b) for w, b in snapshots]
        assert evaluate(model, test) == metrics[-1].test_accuracy

    @pytest.mark.parametrize("n_test, classes, width, m",
                             [(1, 2, 40, 3), (33, 10, 2000, 16), (384, 62, 784, 6),
                              (128, 2, 2000, 16)])
    def test_grouped_logits_lie_within_twice_the_bound(self, n_test, classes, width, m):
        # The certificate's premise: a grouped GEMM, in either orientation,
        # and each snapshot's own product are all within e of the exact
        # logits.
        rng = np.random.default_rng([n_test, classes, width, m])
        counts = spike_counts(rng, n_test, width)
        x = counts.astype(np.float64)
        weights = rng.normal(0, 0.05, (m, classes, width))
        bias = rng.normal(0, 0.05, (m, classes))
        stacked = weights.reshape(m * classes, width)
        u = 2.0 ** -53
        e = ((width * u / (1 - width * u) + 2 * u)
             * (np.multiply.outer(readout._row_sums(counts), np.abs(weights).max(axis=(1, 2)))
                + np.abs(bias).max(axis=1)))
        for grouped in ((x @ stacked.T).reshape(n_test, m, classes) + bias,
                        (stacked @ x.T).T.reshape(n_test, m, classes) + bias):
            for j in range(m):
                alone = x @ weights[j].T + bias[j]
                assert (np.abs(grouped[:, j] - alone) <= 2 * e[:, j, None]).all()

    def test_identical_weight_rows_fall_back_to_the_lowest_class(self, monkeypatch):
        rng = np.random.default_rng(5)
        counts = spike_counts(rng, 50, 40)
        counts[:, 0] = 1  # no all-zero row, whose logits would tie in every snapshot
        x = counts.astype(np.float64)
        weights = rng.normal(0, 0.05, (3, 4, 40))
        bias = np.zeros((3, 4))
        weights[1, 1] = weights[1, 2] = 1.0  # classes 1 and 2 tie and lead every row
        labels = np.full(50, 1)
        masks = spy_certified(monkeypatch)
        accs = readout._test_accuracies(x, readout._row_sums(counts), labels, weights, bias)
        assert not masks[0][1].any() and masks[0][[0, 2]].all()
        assert accs == [reference_accuracy(x, labels, w, b) for w, b in zip(weights, bias)]
        assert accs[1] == 1.0
        model = ReadoutModel(weights=weights[1].copy(), bias=bias[1].copy())
        assert evaluate(model, counts_cache(counts, labels)) == 1.0

    def test_all_zero_test_row_at_step_one_falls_back(self, monkeypatch):
        # At step 1 the zero row's logits are the bias. Classes 1 and 2 are
        # one row each of the first batch, so their bias gradients, and
        # biases, are equal and the largest.
        rng = np.random.default_rng(8)
        train = counts_cache(spike_counts(rng, 2 * 5, 12), [1, 2] + [0, 1, 2, 0] * 2)
        test_counts = spike_counts(rng, 9, 12)
        test_counts[4] = 0
        test = counts_cache(test_counts, rng.integers(0, 3, 9))
        masks = spy_certified(monkeypatch)
        _, metrics, snapshots = train_with_snapshots(monkeypatch, train, test, 3, 2)
        w1, b1 = snapshots[0]
        assert b1[1] == b1[2] > b1[0]
        assert not masks[0][0, 4]
        x = test.features.astype(np.float64)
        assert (x @ w1.T + b1).argmax(axis=1)[4] == 1
        assert [m.test_accuracy for m in metrics] == [
            reference_accuracy(x, test.labels, w, b) for w, b in snapshots]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_logit_is_never_certified(self, monkeypatch, bad):
        rng = np.random.default_rng(13)
        counts = spike_counts(rng, 20, 30, density=0.5)
        counts[:, 0] = 3
        x = counts.astype(np.float64)
        weights = rng.normal(0, 0.05, (2, 5, 30))
        bias = rng.normal(0, 0.05, (2, 5))
        weights[1, 3, 0] = bad
        labels = rng.integers(0, 5, 20)
        masks = spy_certified(monkeypatch)
        accs = readout._test_accuracies(x, readout._row_sums(counts), labels, weights, bias)
        assert not masks[0][1].any()
        with np.errstate(invalid="ignore"):
            expected = [reference_accuracy(x, labels, w, b) for w, b in zip(weights, bias)]
        assert accs == expected

    def test_overflowed_logit_is_never_certified(self):
        # A logit can overflow while the bound stays finite; the lead of an
        # infinite top logit, or over an infinite bottom one, proves nothing.
        weights, bias = np.zeros((1, 3, 1)), np.zeros((1, 3))
        for column in ([np.inf, 1.0, 0.0], [5.0, 1.0, -np.inf]):
            logits = np.array(column).reshape(1, 3, 1)
            preds = logits.argmax(axis=1)
            assert not readout._certified(logits, preds, np.ones(1), weights, bias).any()

    def test_lead_must_exceed_four_times_the_bound(self):
        # e for one row summing to 40 under weights of max |w| 0.25 and a
        # bias of max |b| 0.5, at K = 8 features.
        weights = np.full((1, 2, 8), 0.25)
        bias = np.array([[0.5, 0.0]])
        u = 2.0 ** -53
        e = (8 * u / (1 - 8 * u) + 2 * u) * (40 * 0.25 + 0.5)
        for lead, sure in ((4 * e, False), (6 * e, True)):
            logits = np.array([lead, 0.0]).reshape(1, 2, 1)
            preds = logits.argmax(axis=1)
            assert readout._certified(logits, preds, np.array([40.0]), weights, bias)[0, 0] == sure
