"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-7 measure accuracy bands and the training-time ratio on the real
MNIST-family benchmark files and skip with instructions when those IDX files
are not present (set RANSNN_DATA_DIR; see README for the expected layout).
Criteria 8-11 are property-based and always run.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The full data-backed suite is compute-heavy (the baseline trains a
whole spiking network by BPTT); expect on the order of an hour on a desktop
CPU.
"""

import math

import numpy as np
import pytest

from conftest import blob_dataset, drive_layer, extract, idx_tensor_bytes, write_dataset_idx
from oracles import (central_difference_grad, cross_entropy, leak_decay_sequence,
                     linear_filter_membrane, poisson_encode, relative_error,
                     sg_forward_mode_grads)
from ransnn.cli import main as cli_main
from ransnn.harness import (ExperimentConfig, SweepSpec, compare_methods,
                            config_from_dict, resolve_dataset_paths,
                            run_experiment, run_sweep, summarize_sweep)
from ransnn.idx import load_dataset, parse_idx
from ransnn.network import LifParams, Uniform, init_weights, simulate, simulate_forward
from ransnn.numerics import Rng, softmax
from ransnn.readout import ReadoutModel, readout_loss_grad
from ransnn.sg import _record_tape, bptt_backward, init_sg_model

ACCEPT_SEED = 1234


def report(num: str, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


def dataset_or_skip(name: str):
    try:
        return resolve_dataset_paths(ExperimentConfig(dataset=name, seed=0))
    except FileNotFoundError as exc:
        pytest.skip(f"benchmark dataset files unavailable: {exc}")


def default_config(dataset: str = "mnist", **overrides) -> ExperimentConfig:
    return config_from_dict({"dataset": dataset, "seed": ACCEPT_SEED, **overrides})


@pytest.fixture(scope="module")
def mnist_comparison():
    """Both methods at the full benchmark configuration, shared by
    criteria 1 (accuracy), 2 (baseline accuracy), and 3 (timing ratio)."""
    dataset_or_skip("mnist")
    return compare_methods(default_config())


class TestCriterion01MnistHeadline:
    def test_ransnn_default_config_accuracy(self, mnist_comparison):
        rec = mnist_comparison.ransnn
        ok = rec.final_accuracy >= 0.89
        report("1", "MNIST headline (RanSNN >= 89%)", ok,
               f"accuracy={rec.final_accuracy:.4f}, "
               f"features={rec.feature_extraction_seconds:.1f}s, "
               f"train={rec.training_seconds:.2f}s, total={rec.total_seconds:.1f}s")
        assert ok


class TestCriterion02SgBaseline:
    def test_sg_full_scale_accuracy(self, mnist_comparison):
        rec = mnist_comparison.sg
        ok = rec.final_accuracy >= 0.88
        report("2a", "SG baseline full scale (>= 88%)", ok,
               f"accuracy={rec.final_accuracy:.4f}, train={rec.training_seconds:.1f}s")
        assert ok

    def test_sg_reduced_ci_config(self):
        dataset_or_skip("mnist")
        cfg = default_config(method="sg", hidden_sizes=[500], train_batches=100)
        rec = run_experiment(cfg)
        ok = rec.final_accuracy >= 0.85 and rec.total_seconds <= 600
        report("2b", "SG reduced CI config (>= 85% in <= 10 min)", ok,
               f"accuracy={rec.final_accuracy:.4f}, total={rec.total_seconds:.1f}s")
        assert ok


class TestCriterion03EfficiencyRatio:
    def test_readout_training_at_least_ten_times_faster(self, mnist_comparison):
        t_readout = mnist_comparison.ransnn.training_seconds
        t_sg = mnist_comparison.sg.training_seconds
        ok = t_readout <= t_sg / 10.0
        report("3", "training-time ratio >= 10x", ok,
               f"readout={t_readout:.2f}s, sg={t_sg:.1f}s, "
               f"ratio={t_sg / t_readout:.1f}x")
        assert ok


class TestCriterion04CrossDataset:
    BANDS = {"fmnist": (0.78, 0.8512), "kmnist": (0.64, 0.7077),
             "emnist": (0.62, 0.7016)}

    @pytest.mark.parametrize("dataset", ["fmnist", "kmnist", "emnist"])
    def test_accuracy_band(self, dataset):
        dataset_or_skip(dataset)
        floor, paper = self.BANDS[dataset]
        rec = run_experiment(default_config(dataset))
        ok = rec.final_accuracy >= floor and abs(rec.final_accuracy - paper) <= 0.08
        report("4", f"{dataset} accuracy (>= {floor:.0%}, within 8pt of {paper:.2%})",
               ok, f"accuracy={rec.final_accuracy:.4f}")
        assert ok


class TestCriterion05HiddenWidthTrend:
    def test_wider_hidden_layer_wins(self):
        dataset_or_skip("mnist")
        sweep = SweepSpec(parameter="hidden_size", values=(200, 2000), repeats=3)
        summary = summarize_sweep(run_sweep(default_config(), sweep), sweep)
        narrow, wide = summary[0]["mean_accuracy"], summary[1]["mean_accuracy"]
        ok = wide - narrow >= 0.03
        report("5", "hidden width 2000 beats 200 by >= 3pt", ok,
               f"2000: {wide:.4f}, 200: {narrow:.4f}")
        assert ok


class TestCriterion06BetaTrend:
    def test_large_beta_wins(self):
        dataset_or_skip("mnist")
        sweep = SweepSpec(parameter="beta", values=(0.5, 0.95), repeats=3)
        summary = summarize_sweep(run_sweep(default_config(), sweep), sweep)
        low, high = summary[0]["mean_accuracy"], summary[1]["mean_accuracy"]
        ok = high - low >= 0.03
        report("6", "beta 0.95 beats 0.5 by >= 3pt", ok,
               f"0.95: {high:.4f}, 0.5: {low:.4f}")
        assert ok


class TestCriterion07DistributionSensitivity:
    def _accuracy(self, dist: str) -> float:
        return run_experiment(default_config(dist=dist)).final_accuracy

    def test_biased_uniform_collapses(self):
        dataset_or_skip("mnist")
        centered = self._accuracy("U(-0.05,0.05)")
        biased = self._accuracy("U(0.05,0.15)")
        ok = centered - biased >= 0.15
        report("7a", "centered uniform beats biased by >= 15pt", ok,
               f"centered={centered:.4f}, biased={biased:.4f}")
        assert ok

    def test_off_center_normal_collapses(self):
        dataset_or_skip("mnist")
        centered = self._accuracy("N(0,0.05)")
        off_center = self._accuracy("N(0.5,1)")
        ok = centered - off_center >= 0.10
        report("7b", "centered normal beats off-center by >= 10pt", ok,
               f"centered={centered:.4f}, off-center={off_center:.4f}")
        assert ok


class TestCriterion08GradientCorrectness:
    def test_readout_gradient_vs_finite_differences(self):
        num_classes, num_features = 4, 6
        worst = 0.0
        for trial in range(100):
            rng = Rng(trial, 3)
            w = Rng(trial + 2000, 0).normal(0, 0.05, num_classes * num_features)
            model = ReadoutModel(weights=w.reshape(num_classes, num_features),
                                 bias=Rng(trial + 2000, 1).normal(0, 0.05, num_classes))
            features = rng.uniform(0.0, 25.0, num_features)
            label = int(rng.uniform(0, num_classes, 1)[0])
            y = np.zeros(num_classes)
            y[label] = 1.0
            _, _, analytic = readout_loss_grad(model, features[None], np.array([label]))

            def loss_fn(theta):
                w = theta[:num_classes * num_features].reshape(num_classes, num_features)
                b = theta[num_classes * num_features:]
                return cross_entropy(y, softmax(w @ features + b))

            theta0 = np.concatenate([model.weights.ravel(), model.bias])
            numeric = central_difference_grad(loss_fn, theta0, step=1e-5)
            worst = max(worst, relative_error(analytic, numeric))
        ok = worst < 1e-6
        report("8a", "readout analytic grad vs central differences", ok,
               f"worst relative error {worst:.2e} over 100 instances")
        assert ok

    def test_bptt_vs_forward_mode_oracle(self):
        lif = LifParams(beta=0.9, u_thr=1.0)
        worst = 0.0
        for trial in range(50):
            model = init_sg_model(4, 6, 3, seed=trial, lif=lif,
                                  dist=Uniform(-0.9, 0.9))
            train = poisson_encode(np.full(4, 0.6), 5, Rng(5000 + trial, 5))
            y = np.zeros(3)
            y[trial % 3] = 1.0
            tape = _record_tape(model, train[None], {})
            d_wh, d_wo = bptt_backward(model, tape, y[None])  # B = 1: the mean is the sum
            ref_wh, ref_wo = sg_forward_mode_grads(model.w_hidden, model.w_out,
                                                   lif.beta, lif.u_thr,
                                                   train, y)
            worst = max(worst, relative_error(d_wh, ref_wh),
                        relative_error(d_wo, ref_wo))
        ok = worst < 1e-10
        report("8b", "BPTT reverse grad vs forward-mode oracle", ok,
               f"worst relative error {worst:.2e} over 50 trials")
        assert ok


class TestCriterion09DynamicsInvariants:
    def test_spike_counts_bounded(self):
        ok = True
        for seed in range(20):
            rng = Rng(seed, 0)
            steps = 5 + seed
            net = init_weights([12, 9], Uniform(-1.0, 1.0), seed=seed)
            train = poisson_encode(rng.uniform(0, 1, 12), steps, Rng(seed, 1))
            counts = simulate_forward(net, train[None])[0].sum(axis=0)
            ok &= bool(np.all(counts >= 0) and np.all(counts <= steps))
        report("9a", "spike counts within [0, T]", ok)
        assert ok

    def test_reset_by_subtraction_bounds_post_state(self):
        # Drive bounded by u_thr per step keeps u_pre <= 2*u_thr, so one
        # subtraction always lands at or below threshold; firing neurons
        # shed exactly u_thr. Step t's post-reset state shows in step t+1.
        params = LifParams(beta=0.95, u_thr=1.0)
        rng = Rng(7, 0)
        currents = np.vstack([rng.uniform(-2.0, params.u_thr, 200 * 32).reshape(200, 32),
                              np.zeros(32)])
        spikes, u_pre = drive_layer(currents, params)
        ok = True
        for t in range(200):
            fired = spikes[t] == 1
            u_post = np.where(fired, u_pre[t] - params.u_thr, u_pre[t])
            ok &= bool(np.all(u_post <= params.u_thr))
            ok &= bool(np.array_equal(u_pre[t + 1], params.beta * u_post + currents[t + 1]))
        report("9b", "reset-by-subtraction post-state <= u_thr", ok)
        assert ok

    def test_pure_leak_decay_exact(self):
        params = LifParams(beta=0.95, u_thr=1.0)
        u0 = Rng(11, 0).uniform(0.0, 0.9, 16)
        expected = leak_decay_sequence(u0, params.beta, steps=60)
        _, u_pre = drive_layer(np.vstack([u0, np.zeros((60, 16))]), params)
        ok = True
        for k in range(60):
            ok &= bool(np.array_equal(u_pre[k + 1], expected[k]))
        report("9c", "pure leak decay u(k) = beta^k u(0) exact", ok)
        assert ok

    def test_subthreshold_linearity_vs_convolution_oracle(self):
        worst = 0.0
        for seed in range(10):
            lif = LifParams(beta=0.9, u_thr=1e9)
            net = init_weights([6, 8], Uniform(-0.05, 0.05), seed=seed, lif=lif)
            train = poisson_encode(Rng(seed, 2).uniform(0, 1, 6), 12, Rng(seed, 3))
            expected = linear_filter_membrane(net.weights[0], lif.beta, train)
            [(u_pre, spikes)] = simulate(train[None], net.weights, net.lif)
            assert not spikes.any()
            worst = max(worst, float(np.max(np.abs(u_pre[0] - expected))))
        ok = worst <= 1e-12
        report("9d", "sub-threshold linearity vs convolution oracle", ok,
               f"worst deviation {worst:.2e}")
        assert ok

    def test_full_run_determinism(self, tmp_path, monkeypatch):
        # Identical seeds must reproduce every metric bit-for-bit, and a
        # sample's features must not depend on how extraction is grouped or
        # ordered (the scheduling-independence contract).
        root = tmp_path / "data" / "mnist"
        root.mkdir(parents=True)
        train = blob_dataset(num_classes=3, samples_per_class=48, side=12, seed=5)
        test = blob_dataset(num_classes=3, samples_per_class=24, side=12, seed=6)
        write_dataset_idx(train, 12, root, "train")
        write_dataset_idx(test, 12, root, "t10k")
        monkeypatch.setenv("RANSNN_DATA_DIR", str(tmp_path / "data"))
        cfg = config_from_dict({"dataset": "mnist", "hidden_sizes": [24],
                                "time_steps": 6, "train_batches": 5,
                                "test_batches": 2, "batch_size": 16,
                                "seed": ACCEPT_SEED})
        rec_a = run_experiment(cfg)
        rec_b = run_experiment(cfg)
        same_metrics = all(
            (ma.iteration, ma.train_accuracy, ma.test_accuracy, ma.loss)
            == (mb.iteration, mb.train_accuracy, mb.test_accuracy, mb.loss)
            for ma, mb in zip(rec_a.metrics, rec_b.metrics))
        ok = (rec_a.final_accuracy == rec_b.final_accuracy and same_metrics
              and len(rec_a.metrics) == len(rec_b.metrics))

        net = init_weights([144, 24], Uniform(-0.2, 0.2), seed=3)
        whole = extract(net, 6, train, master_seed=9)
        parts = [extract(net, 6, train, master_seed=9, indices=np.arange(i, len(train), 3))
                 for i in range(3)]
        for i, part in enumerate(parts):
            ok &= bool(np.array_equal(part.features,
                                      whole.features[np.arange(i, len(train), 3)]))
        report("9e", "full-run determinism and grouping independence", ok)
        assert ok


class TestCriterion10EncoderStatistics:
    def test_rates_within_binomial_bounds(self):
        steps = 10_000
        ok = True
        details = []
        for p in (0.1, 0.5, 0.9):
            train = poisson_encode(np.full(500, p), steps, Rng(29, int(p * 10)))
            rates = train.mean(axis=0)
            band = 3.0 * math.sqrt(p * (1 - p) / steps)
            frac = float(np.mean(np.abs(rates - p) <= band))
            details.append(f"p={p}: {frac:.3f} in band")
            ok &= frac >= 0.99
        zeros = poisson_encode(np.zeros(100), steps, Rng(30, 0))
        ones = poisson_encode(np.ones(100), steps, Rng(31, 0))
        ok &= bool(zeros.sum() == 0)
        ok &= bool(np.all(ones == 1))
        report("10", "encoder rate statistics", ok, "; ".join(details))
        assert ok


class TestCriterion11ParserCorrectness:
    def test_round_trip_bit_exact(self):
        ok = True
        for seed in range(30):
            gen = np.random.default_rng(seed)
            ndim = int(gen.integers(1, 4))
            dims = tuple(int(d) for d in gen.integers(0, 7, ndim))
            payload = gen.integers(0, 256, int(np.prod(dims)), dtype=np.uint8)
            import struct
            raw = struct.pack(">BBBB", 0, 0, 0x08, ndim)
            raw += b"".join(struct.pack(">I", d) for d in dims)
            raw += payload.tobytes()
            ok &= idx_tensor_bytes(parse_idx(raw)) == raw
        report("11a", "IDX round-trip bit-exact", ok)
        assert ok

    def test_malformed_header_exits_2(self, tmp_path):
        bad = tmp_path / "bad-idx"
        bad.write_bytes(b"\x01\x00\x08\x01\x00\x00\x00\x01\x00")
        code = cli_main(["inspect-idx", str(bad)])
        truncated = tmp_path / "short-idx"
        truncated.write_bytes(b"\x00\x00\x08\x02\x00\x00\x00\x05")
        code2 = cli_main(["inspect-idx", str(truncated)])
        ok = code == 2 and code2 == 2
        report("11b", "malformed IDX rejected with exit code 2", ok)
        assert ok

    EXPECTED = {
        "mnist": (60_000, 10_000, 10),
        "fmnist": (60_000, 10_000, 10),
        "kmnist": (60_000, 10_000, 10),
        "emnist": (697_932, 116_323, 62),
    }

    @pytest.mark.parametrize("dataset", ["mnist", "fmnist", "kmnist", "emnist"])
    def test_real_datasets_load_with_correct_counts(self, dataset):
        paths = dataset_or_skip(dataset)
        n_train, n_test, classes = self.EXPECTED[dataset]
        ds_train = load_dataset(paths["train_images"], paths["train_labels"], classes)
        ds_test = load_dataset(paths["test_images"], paths["test_labels"], classes)
        ok = (len(ds_train) == n_train and len(ds_test) == n_test
              and ds_train.images.shape[1] == 784
              and int(ds_train.labels.min()) >= 0
              and int(ds_train.labels.max()) == classes - 1)
        report("11c", f"{dataset} loads with correct counts/labels", ok,
               f"train={len(ds_train)}, test={len(ds_test)}")
        assert ok
