import dataclasses
import math
import tracemalloc

import numpy as np
import pytest


from oracles import (cross_entropy, reference_bptt_backward, reference_lif_stack,
                     relative_error, sg_forward_mode_grads)
from ransnn.encoding import encode_sample, poisson_encode
from ransnn.network import LifParams, Uniform, fan_in_uniform, init_weights, simulate_forward
from ransnn.numerics import ENCODE_TEST_STREAM, AdamConfig, Rng, softmax
from ransnn import sg
from ransnn.sg import (SgModel, _batch_loss, _record_tape, bptt_backward, evaluate_sg,
                       init_sg_model, surrogate_grad, train_sg)


class TestSurrogateGrad:
    def test_peaks_at_one_on_threshold(self):
        assert surrogate_grad(0.0) == 1.0

    def test_closed_form_point(self):
        assert surrogate_grad(1.0 / math.pi) == pytest.approx(0.5, rel=1e-15)

    def test_even_with_vanishing_tails(self):
        xs = np.linspace(-50, 50, 101)
        vals = surrogate_grad(xs)
        assert np.allclose(vals, vals[::-1], rtol=1e-15)
        assert surrogate_grad(1e6) < 1e-10
        assert surrogate_grad(-1e6) < 1e-10


def small_model(seed=0, n_in=4, n_hidden=6, num_classes=3,
                lif=LifParams(beta=0.9, u_thr=1.0)) -> SgModel:
    return init_sg_model(n_in, n_hidden, num_classes, seed=seed, lif=lif,
                         dist=Uniform(-0.9, 0.9))


def random_train(seed, steps, neurons, rate=0.5) -> np.ndarray:
    return poisson_encode(np.full(neurons, rate), steps, Rng(seed, 5))


def one_sample_tape(model, bits):
    """The tape of one sample's (T, n_in) forward: _record_tape at B = 1."""
    return _record_tape(model, bits[None])


def one_hot(label, num_classes):
    """The (1, num_classes) target row of one sample."""
    return np.eye(num_classes)[[label]]


class TestSgForward:
    def test_zero_input_gives_zero_trace(self):
        model = small_model()
        tape = one_sample_tape(model, np.zeros((8, 4), dtype=np.uint8))
        assert np.array_equal(tape.output_u_pre, np.zeros((1, 8, 3)))
        assert tape.hidden_bits.sum() == 0 and tape.output_bits.sum() == 0

    def test_hidden_spikes_match_fixed_network_simulator_bitwise(self):
        lif = LifParams(beta=0.95, u_thr=1.0)
        net = init_weights([4, 6], Uniform(-0.9, 0.9), seed=3, lif=lif)
        model = init_sg_model(4, 6, 3, seed=3, lif=lif, dist=Uniform(-0.9, 0.9))
        assert np.array_equal(model.w_hidden, net.weights[0])
        train = random_train(9, steps=20, neurons=4, rate=0.7)
        tape = one_sample_tape(model, train)
        reference = simulate_forward(net, train[None])
        assert np.array_equal(tape.hidden_bits, reference)

    def test_deterministic(self):
        model = small_model(seed=2)
        train = random_train(4, 12, 4)
        tape_a = one_sample_tape(model, train)
        tape_b = one_sample_tape(model, train)
        assert np.array_equal(tape_a.output_u_pre, tape_b.output_u_pre)
        assert np.array_equal(tape_a.output_bits, tape_b.output_bits)

    def test_replaying_the_tape_reproduces_it(self):
        model = small_model(seed=6)
        train = random_train(8, 10, 4)
        tape = one_sample_tape(model, train)
        again = _record_tape(model, tape.input_bits)
        assert np.array_equal(again.hidden_u_pre, tape.hidden_u_pre)
        assert np.array_equal(again.output_u_pre, tape.output_u_pre)
        assert np.array_equal(again.output_bits, tape.output_bits)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            one_sample_tape(small_model(), np.zeros((5, 7), dtype=np.uint8))

    def test_tape_matches_the_pre_kernel_forward_bitwise(self):
        model = small_model(seed=11, n_in=20, n_hidden=30, num_classes=5)
        bits = np.stack([random_train(40 + k, 12, 20) for k in range(6)])
        tape = _record_tape(model, bits)
        (hidden_bits, hidden_u_pre), (output_bits, output_u_pre) = reference_lif_stack(
            (model.w_hidden, model.w_out), model.lif, bits)
        assert hidden_bits.any() and output_bits.any()
        assert np.array_equal(tape.hidden_u_pre, hidden_u_pre)
        assert np.array_equal(tape.hidden_bits, hidden_bits)
        assert np.array_equal(tape.output_u_pre, output_u_pre)
        assert np.array_equal(tape.output_bits, output_bits)


class TestSgLoss:
    """The training loss of one sample: _batch_loss at B = 1, which sums the
    per-step cross-entropy over the steps."""

    def test_zero_trace_uniform_softmax(self):
        steps, classes = 25, 10
        total = _batch_loss(np.zeros((1, steps, classes)), np.array([4]))
        assert total == pytest.approx(steps * math.log(classes), rel=1e-12)
        assert total / steps == pytest.approx(math.log(classes), rel=1e-12)

    def test_confident_correct_potential_drives_loss_to_zero(self):
        trace = np.zeros((1, 6, 4))
        trace[0, :, 2] = 100.0
        assert _batch_loss(trace, np.array([2])) <= 1e-12

    def test_single_step_reduces_to_cross_entropy(self):
        rng = Rng(5, 0)
        trace = rng.normal(0, 2, 5).reshape(1, 1, 5)
        expected = cross_entropy(one_hot(3, 5)[0], softmax(trace[0, 0]))
        assert _batch_loss(trace, np.array([3])) == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            _batch_loss(np.zeros((1, 4, 3)), np.array([0, 1]))


class TestBpttBackward:
    def test_matches_forward_mode_oracle(self):
        # The decisive check: reverse-mode BPTT and an independent
        # forward-mode differentiator compute the same surrogate-substituted
        # chain-rule product, so they must agree to near machine precision.
        # At B = 1 the batch mean divides by 1, exactly.
        lif = LifParams(beta=0.9, u_thr=1.0)
        for trial in range(50):
            model = small_model(seed=trial, lif=lif)
            train = random_train(1000 + trial, steps=5, neurons=4, rate=0.6)
            y = one_hot(trial % 3, 3)
            tape = one_sample_tape(model, train)
            d_wh, d_wo = bptt_backward(model, tape, y)
            ref_wh, ref_wo = sg_forward_mode_grads(
                model.w_hidden, model.w_out, lif.beta, lif.u_thr, train, y[0])
            assert relative_error(d_wh, ref_wh) < 1e-10
            assert relative_error(d_wo, ref_wo) < 1e-10

    def test_zero_input_gives_zero_weight_gradients(self):
        model = small_model(seed=1)
        tape = one_sample_tape(model, np.zeros((6, 4), dtype=np.uint8))
        d_wh, d_wo = bptt_backward(model, tape, one_hot(0, 3))
        assert np.array_equal(d_wh, np.zeros_like(model.w_hidden))
        assert np.array_equal(d_wo, np.zeros_like(model.w_out))

    def test_summing_the_loss_twice_doubles_every_gradient(self):
        # The gradient of the summed loss is B times the batch mean's, which
        # for B = 2 is exact.
        model = small_model(seed=4)
        train = random_train(77, steps=6, neurons=4, rate=0.7)
        y = one_hot(1, 3)
        tape_single = one_sample_tape(model, train)
        d_wh_1, d_wo_1 = bptt_backward(model, tape_single, y)
        doubled = np.repeat(train[None], 2, axis=0)
        tape_double = _record_tape(model, doubled)
        summed = [2.0 * d for d in bptt_backward(model, tape_double, np.vstack([y, y]))]
        assert np.allclose(summed[0], 2.0 * d_wh_1, rtol=1e-12, atol=0)
        assert np.allclose(summed[1], 2.0 * d_wo_1, rtol=1e-12, atol=0)

    def test_mean_reduction_divides_by_batch(self):
        model = small_model(seed=4)
        train = random_train(78, steps=6, neurons=4, rate=0.7)
        y = one_hot(2, 3)
        doubled = np.repeat(train[None], 2, axis=0)
        tape = _record_tape(model, doubled)
        targets = np.vstack([y, y])
        d_sum = reference_bptt_backward(model, tape, targets, reduction="sum")
        d_mean = bptt_backward(model, tape, targets)
        assert np.allclose(d_mean[0], d_sum[0] / 2.0, rtol=1e-15)
        assert np.allclose(d_mean[1], d_sum[1] / 2.0, rtol=1e-15)

    def test_stale_tape_rejected(self):
        model = small_model(seed=5)
        tape = one_sample_tape(model, random_train(3, 5, 4))
        model.version += 1
        with pytest.raises(ValueError, match="stale"):
            bptt_backward(model, tape, one_hot(0, 3))

    def test_target_shape_validated(self):
        model = small_model(seed=5)
        tape = one_sample_tape(model, random_train(3, 5, 4))
        with pytest.raises(ValueError):
            bptt_backward(model, tape, np.zeros((1, 4)))
        with pytest.raises(ValueError):
            bptt_backward(model, tape, np.zeros(3))

    @pytest.mark.parametrize("n_batch", [1, 6])
    # The ids name the one configuration bptt_backward runs: the loss is the
    # mean over the batch and the reset is not detached.
    @pytest.mark.parametrize("shared_scratch", [pytest.param(False, id="False-mean-False"),
                                                pytest.param(True, id="True-mean-False")])
    def test_equals_the_whole_array_backward_bitwise(self, n_batch, shared_scratch):
        # The streamed surrogate and the reused GEMM operands keep every
        # operation of the whole-array pass, so the bits must not move. A
        # shared scratch that first held a larger batch gives the tape
        # prefix views of its work arrays.
        model = small_model(seed=21, n_in=20, n_hidden=30, num_classes=5,
                            lif=LifParams(beta=0.9, u_thr=1.3))
        bits = np.stack([random_train(60 + k, 12, 20, rate=0.6)
                         for k in range(n_batch)])
        scratch = None
        if shared_scratch:
            scratch = {}
            _record_tape(model, np.ones((n_batch + 3, 12, 20), dtype=np.uint8), scratch)
        tape = _record_tape(model, bits, scratch)
        assert tape.hidden_bits.any() and tape.output_bits.any()
        y = np.eye(5)[np.arange(n_batch) % 5]
        # The backward spends the tape: it writes the hidden adjoint over
        # flat_hidden and leaves the other six arrays as they were.
        arrays = ("input_bits", "hidden_u_pre", "hidden_bits", "output_u_pre", "output_bits",
                  "flat_input", "flat_hidden")
        before = dataclasses.replace(tape, **{name: getattr(tape, name).copy() for name in arrays})
        # Training passes a reused gradient vector; it must be fully written.
        out = np.full(model.w_hidden.size + model.w_out.size, np.nan) if shared_scratch else None
        d_wh, d_wo = bptt_backward(model, tape, y, out=out)
        if out is not None:
            assert np.shares_memory(d_wh, out) and np.shares_memory(d_wo, out)
        for name in arrays[:-1]:
            assert np.array_equal(getattr(tape, name), getattr(before, name)), name
        with pytest.raises(ValueError, match="spent"):
            bptt_backward(model, tape, y)
        ref_wh, ref_wo = reference_bptt_backward(model, before, y)
        assert np.array_equal(d_wh, ref_wh)
        assert np.array_equal(d_wo, ref_wo)

    def test_gradient_vector_size_validated(self):
        model = small_model(seed=5)
        tape = one_sample_tape(model, random_train(3, 5, 4))
        with pytest.raises(ValueError):
            bptt_backward(model, tape, one_hot(0, 3),
                          out=np.empty(model.w_hidden.size + model.w_out.size + 1))

    def test_backward_adds_no_hidden_sized_array(self):
        # Above the gradients it returns, the reverse pass may hold only
        # (B, n) work arrays and small (B, T, C) ones: the hidden adjoint
        # goes into the tape's flat_hidden. A fresh (B, T, n_hidden) float64
        # array, whole surrogate arrays or copies of the tape's bits would
        # exceed the budget.
        n_batch, steps, n_in, n_hidden, n_cls = 8, 10, 784, 500, 10
        model = init_sg_model(n_in, n_hidden, n_cls, seed=0, dist=fan_in_uniform(n_in))
        bits = (Rng(3, 0).uniform(0, 1, n_batch * steps * n_in) < 0.2).astype(np.uint8)
        bits = bits.reshape(n_batch, steps, n_in)
        y = np.eye(n_cls)[np.arange(n_batch)]
        # A first backward starts the worker threads outside the trace.
        bptt_backward(model, _record_tape(model, bits), y)
        tape = _record_tape(model, bits)
        budget = (model.w_hidden.nbytes + model.w_out.nbytes + 4 * n_batch * n_hidden * 8
                  + 8 * n_batch * steps * n_cls * 8)
        assert budget < n_batch * steps * n_hidden * 8 + model.w_hidden.nbytes
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            grads = bptt_backward(model, tape, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grads[0].shape == model.w_hidden.shape
        assert peak - entry < budget, (peak - entry, budget)


def _separable(samples_per_class, pixels, seed):
    """Two classes, disjoint bright pixel banks: strong input rates."""
    from ransnn.idx import LabeledDataset

    rng = Rng(seed, 0)
    half = pixels // 2
    images, labels = [], []
    for c in range(2):
        for _ in range(samples_per_class):
            img = rng.uniform(0, 25, pixels)
            lo = 0 if c == 0 else half
            img[lo:lo + half] = rng.uniform(200, 255, half)
            images.append(img.astype(np.uint8))
            labels.append(c)
    order = Rng(seed, 1).permutation(2 * samples_per_class)
    return LabeledDataset(images=np.stack(images)[order],
                          labels=np.asarray(labels, dtype=np.int64)[order],
                          num_classes=2)


def train_whole(model, ds, test_ds, time_steps, master_seed, *, batch_size, lr=0.001):
    """train_sg over every sample of both datasets."""
    return train_sg(model, ds, test_ds, time_steps, master_seed, adam=AdamConfig(lr=lr),
                    batch_size=batch_size, train_indices=np.arange(len(ds)),
                    test_indices=np.arange(len(test_ds)))


class TestTrainSg:
    def test_separable_task_converges(self, monkeypatch):
        ds = _separable(samples_per_class=3200, pixels=24, seed=12)  # 200 batches
        test_ds = _separable(samples_per_class=64, pixels=24, seed=13)
        model = init_sg_model(24, 40, 2, seed=0, dist=fan_in_uniform(24),
                              lif=LifParams(beta=0.95, u_thr=1.0))
        monkeypatch.setattr(sg, "EVAL_EVERY", 8)
        model, metrics = train_whole(model, ds, test_ds, 10, master_seed=99, batch_size=32,
                                     lr=0.01)
        early = [m for m in metrics if m.iteration <= 200]
        assert max(m.train_accuracy for m in early) >= 0.95

    def test_deterministic_metric_traces(self, monkeypatch):
        ds = _separable(samples_per_class=64, pixels=16, seed=3)
        test_ds = _separable(samples_per_class=16, pixels=16, seed=4)
        monkeypatch.setattr(sg, "EVAL_EVERY", 1)
        run = lambda: train_whole(init_sg_model(16, 12, 2, seed=7, dist=fan_in_uniform(16)),
                                  ds, test_ds, 8, master_seed=5, batch_size=16, lr=0.01)
        model_a, metrics_a = run()
        model_b, metrics_b = run()
        assert np.array_equal(model_a.w_hidden, model_b.w_hidden)
        assert np.array_equal(model_a.w_out, model_b.w_out)
        assert [(m.loss, m.train_accuracy, m.test_accuracy) for m in metrics_a] == \
               [(m.loss, m.train_accuracy, m.test_accuracy) for m in metrics_b]

    def test_batch_size_larger_than_selection_rejected(self):
        # Zero is outside the selection's range too.
        ds = _separable(samples_per_class=4, pixels=16, seed=3)
        for batch_size in (0, 512):
            with pytest.raises(ValueError, match="batch_size"):
                train_whole(init_sg_model(16, 8, 2, seed=0, dist=fan_in_uniform(16)), ds, ds,
                            5, master_seed=0, batch_size=batch_size)

    def test_eval_every_strides_and_includes_final(self, monkeypatch):
        ds = _separable(samples_per_class=96, pixels=16, seed=3)  # 12 iterations
        test_ds = _separable(samples_per_class=8, pixels=16, seed=4)
        monkeypatch.setattr(sg, "EVAL_EVERY", 5)
        _, metrics = train_whole(init_sg_model(16, 8, 2, seed=0, dist=fan_in_uniform(16)),
                                 ds, test_ds, 5, master_seed=0, batch_size=16)
        assert [m.iteration for m in metrics] == [5, 10, 12]

    def test_loss_reported_per_step(self, monkeypatch):
        # With an untouched zero-ish output drive the first recorded loss
        # sits near ln(num_classes), the per-step uniform value.
        ds = _separable(samples_per_class=32, pixels=16, seed=6)
        model = init_sg_model(16, 12, 2, seed=1,
                              dist=Uniform(-1e-6, 1e-6))
        monkeypatch.setattr(sg, "EVAL_EVERY", 1)
        _, metrics = train_whole(model, ds, ds, 6, master_seed=2, batch_size=16, lr=1e-4)
        assert metrics[0].iteration == 1
        assert metrics[0].loss == pytest.approx(math.log(2), rel=1e-6)


class TestEvaluateSg:
    def test_empty_selection_rejected(self):
        ds = _separable(samples_per_class=4, pixels=16, seed=3)
        with pytest.raises(ValueError):
            evaluate_sg(small_model(n_in=16, n_hidden=8, num_classes=2), ds, 5, 0,
                        np.array([], dtype=np.int64), ENCODE_TEST_STREAM)

    def test_prediction_counts_tie_goes_to_lowest_class(self):
        # Zero weights: no output neuron ever fires, every count ties at 0,
        # so every prediction is class 0.
        ds = _separable(samples_per_class=8, pixels=16, seed=3)
        model = SgModel(w_hidden=np.zeros((8, 16)), w_out=np.zeros((2, 8)),
                        lif=LifParams())
        acc = evaluate_sg(model, ds, 5, 0, np.arange(len(ds)), ENCODE_TEST_STREAM)
        assert acc == float((ds.labels == 0).mean())

    def test_accuracy_independent_of_chunk_and_scratch(self, monkeypatch):
        ds = _separable(samples_per_class=20, pixels=16, seed=8)
        model = init_sg_model(16, 12, 2, seed=4, lif=LifParams(beta=0.9, u_thr=1.0),
                              dist=Uniform(-1.0, 1.0))
        indices = np.arange(3, 38)
        # Reference: per-sample encodings through the pre-kernel forward.
        bits = np.stack([encode_sample(ds.images[i], 6, Rng(9, ENCODE_TEST_STREAM + i))
                         for i in indices])
        (_, _), (out_bits, _) = reference_lif_stack((model.w_hidden, model.w_out),
                                                    model.lif, bits)
        preds = out_bits.sum(axis=1, dtype=np.int64).argmax(axis=1)
        expected = float((preds == ds.labels[indices]).mean())
        assert preds.min() != preds.max() and 0.5 < expected < 1.0
        for chunk in (1, 7, 128):
            monkeypatch.setattr("ransnn.sg.EVAL_CHUNK", chunk)
            assert evaluate_sg(model, ds, 6, 9, indices, ENCODE_TEST_STREAM) == expected
        # A scratch already holding a larger tape's buffers is used through
        # prefix views.
        scratch = {}
        _record_tape(model, np.ones((len(indices) + 5, 6, 16), dtype=np.uint8), scratch)
        for chunk in (1, 7, 128):
            monkeypatch.setattr("ransnn.sg.EVAL_CHUNK", chunk)
            assert evaluate_sg(model, ds, 6, 9, indices, ENCODE_TEST_STREAM,
                               scratch=scratch) == expected
