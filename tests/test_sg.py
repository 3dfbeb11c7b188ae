import dataclasses
import math
import tracemalloc

import numpy as np
import pytest


from oracles import (cross_entropy, poisson_encode, reference_bptt_backward,
                     reference_lif_stack, relative_error, sg_forward_mode_grads)
from test_parts import under_each_schedule
from ransnn.encoding import encode_sample
from ransnn.network import (LifParams, Normal, Uniform, fan_in_uniform, init_weights,
                            simulate_forward)
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
    return _record_tape(model, bits[None], {})


def one_hot(label, num_classes):
    """The (1, num_classes) target row of one sample."""
    return np.eye(num_classes)[[label]]


class TestSgForward:
    def test_zero_input_gives_zero_trace(self):
        model = small_model()
        tape = one_sample_tape(model, np.zeros((8, 4), dtype=np.uint8))
        assert np.array_equal(tape.output_u_pre, np.zeros((1, 8, 3)))
        assert tape.flat_hidden.sum() == 0 and tape.output_bits.sum() == 0

    def test_hidden_spikes_match_fixed_network_simulator_bitwise(self):
        lif = LifParams(beta=0.95, u_thr=1.0)
        net = init_weights([4, 6], Uniform(-0.9, 0.9), seed=3, lif=lif)
        model = init_sg_model(4, 6, 3, seed=3, lif=lif, dist=Uniform(-0.9, 0.9))
        assert np.array_equal(model.w_hidden, net.weights[0])
        train = random_train(9, steps=20, neurons=4, rate=0.7)
        tape = one_sample_tape(model, train)
        reference = simulate_forward(net, train[None])
        assert np.array_equal(tape.flat_hidden, reference.reshape(20, 6))

    # 7 x 9 = 63 weights, an odd count, and 8 x 9 = 72.
    @pytest.mark.parametrize("n_hidden", [7, 8])
    @pytest.mark.parametrize("dist", [Uniform(-0.4, 0.3), Normal(0.1, 0.6)])
    def test_hidden_matrix_equals_init_weights(self, n_hidden, dist):
        # Sampled into the parameter vector, the hidden matrix keeps the
        # bits of the fixed network's, and w_out those of its own stream.
        net = init_weights([9, n_hidden, 4], dist, seed=6)
        model = init_sg_model(9, n_hidden, 4, seed=6, dist=dist)
        assert np.array_equal(model.w_hidden, net.weights[0])
        w_out = init_weights([9, n_hidden, 4], fan_in_uniform(n_hidden), seed=6).weights[1]
        assert np.array_equal(model.w_out, w_out)
        assert np.array_equal(model.params, np.concatenate([net.weights[0].ravel(),
                                                            w_out.ravel()]))

    @pytest.mark.parametrize("shape", [(8 * 16 + 2 * 8 - 1,), (8 * 16 + 2 * 8 + 1,),
                                       (8 * 16 + 2 * 8, 1)])
    def test_params_of_the_wrong_size_rejected(self, shape):
        with pytest.raises(ValueError, match="16->8->2 model, which has 144 weights"):
            SgModel(np.zeros(shape), n_in=16, n_hidden=8, num_classes=2, lif=LifParams())

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
        again = _record_tape(model, tape.input_bits, {})
        assert np.array_equal(again.hidden_u_pre, tape.hidden_u_pre)
        assert np.array_equal(again.output_u_pre, tape.output_u_pre)
        assert np.array_equal(again.output_bits, tape.output_bits)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            one_sample_tape(small_model(), np.zeros((5, 7), dtype=np.uint8))

    def test_tape_matches_the_pre_kernel_forward_bitwise(self):
        model = small_model(seed=11, n_in=20, n_hidden=30, num_classes=5)
        bits = np.stack([random_train(40 + k, 12, 20) for k in range(6)])
        tape = _record_tape(model, bits, {})
        (hidden_bits, hidden_u_pre), (output_bits, output_u_pre) = reference_lif_stack(
            (model.w_hidden, model.w_out), model.lif, bits)
        assert hidden_bits.any() and output_bits.any()
        assert np.array_equal(tape.hidden_u_pre, hidden_u_pre)
        assert tape.flat_hidden.dtype == np.float64
        assert np.array_equal(tape.flat_hidden, hidden_bits.reshape(6 * 12, 30))
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
        tape_double = _record_tape(model, doubled, {})
        summed = [2.0 * d for d in bptt_backward(model, tape_double, np.vstack([y, y]))]
        assert np.allclose(summed[0], 2.0 * d_wh_1, rtol=1e-12, atol=0)
        assert np.allclose(summed[1], 2.0 * d_wo_1, rtol=1e-12, atol=0)

    def test_mean_reduction_divides_by_batch(self):
        model = small_model(seed=4)
        train = random_train(78, steps=6, neurons=4, rate=0.7)
        y = one_hot(2, 3)
        doubled = np.repeat(train[None], 2, axis=0)
        tape = _record_tape(model, doubled, {})
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
        scratch = {}
        if shared_scratch:
            _record_tape(model, np.ones((n_batch + 3, 12, 20), dtype=np.uint8), scratch)
        tape = _record_tape(model, bits, scratch)
        assert tape.flat_hidden.any() and tape.output_bits.any()
        y = np.eye(5)[np.arange(n_batch) % 5]
        # The backward spends the tape: it writes the hidden adjoint over
        # flat_hidden and the input rows over hidden_u_pre, and leaves the
        # other three arrays as they were.
        arrays = ("input_bits", "output_u_pre", "output_bits", "hidden_u_pre", "flat_hidden")
        before = dataclasses.replace(tape, **{name: getattr(tape, name).copy() for name in arrays})
        # Training reuses the gradient's work array from step to step; it
        # must be fully written. Here the gradient does not fit in the tape.
        if shared_scratch:
            stale = _record_tape(model, bits[:1], scratch)
            bptt_backward(model, stale, y[:1])
            stale.grad[:] = np.nan
            tape = _record_tape(model, bits, scratch)
            before = dataclasses.replace(
                tape, **{name: getattr(tape, name).copy() for name in arrays})
        d_wh, d_wo = bptt_backward(model, tape, y)
        assert tape.grad.shape == (model.w_hidden.size + model.w_out.size,)
        assert np.shares_memory(d_wh, tape.grad) and np.shares_memory(d_wo, tape.grad)
        if shared_scratch:
            assert np.shares_memory(tape.grad, stale.grad)
        for name in arrays[:3]:
            assert np.array_equal(getattr(tape, name), getattr(before, name)), name
        # The hidden gradient's GEMM operand, the input bits as float64 rows,
        # fits in hidden_u_pre at n_in <= n_hidden.
        rows = n_batch * 12
        operand = tape.hidden_u_pre.reshape(-1)[:rows * 20].reshape(rows, 20)
        assert np.array_equal(operand, bits.reshape(rows, 20))
        with pytest.raises(ValueError, match="spent"):
            bptt_backward(model, tape, y)
        ref_wh, ref_wo = reference_bptt_backward(model, before, y)
        assert np.array_equal(d_wh, ref_wh)
        assert np.array_equal(d_wo, ref_wo)

    # The input operand is rebuilt over hidden_u_pre at n_in <= n_hidden and
    # in a work array kept in the tape's scratch at n_in > n_hidden. At 200
    # hidden neurons the 66 samples run as 6 parts of 11, and the hidden
    # gradient is one GEMM, as in the reference.
    @pytest.mark.parametrize("n_in", [150, 784])
    @pytest.mark.parametrize("shared_scratch", [False, True])
    def test_equals_the_reference_wherever_the_input_operand_lives(self, n_in,
                                                                   shared_scratch):
        n_batch, steps, n_hidden, n_cls = 66, 12, 200, 5
        assert n_hidden <= sg.GRAD_ROWS
        model = init_sg_model(n_in, n_hidden, n_cls, seed=22, dist=fan_in_uniform(n_in),
                              lif=LifParams(beta=0.9, u_thr=1.0))
        bits = (Rng(23, 0).random((n_batch, steps, n_in)) < 0.3).astype(np.uint8)
        y = np.eye(n_cls)[np.arange(n_batch) % n_cls]
        arrays = ("input_bits", "hidden_u_pre", "flat_hidden", "output_u_pre", "output_bits")

        def compute():
            scratch = {}
            if shared_scratch:
                # A larger batch's step leaves every work array, the kept
                # input operand too, larger than this batch needs.
                big = np.ones((n_batch + 5, steps, n_in), dtype=np.uint8)
                bptt_backward(model, _record_tape(model, big, scratch),
                              np.eye(n_cls)[np.arange(n_batch + 5) % n_cls])
            tape = _record_tape(model, bits, scratch)
            before = dataclasses.replace(
                tape, **{name: getattr(tape, name).copy() for name in arrays})
            return before, [g.copy() for g in bptt_backward(model, tape, y)]

        (first, grads), *others = under_each_schedule(compute)
        assert first.flat_hidden.any() and not first.flat_hidden.all()
        assert first.output_bits.any()
        ref_wh, ref_wo = reference_bptt_backward(model, first, y)
        assert np.array_equal(grads[0], ref_wh)
        assert np.array_equal(grads[1], ref_wo)
        for before, (d_wh, d_wo) in others:
            for name in arrays:
                assert np.array_equal(getattr(before, name), getattr(first, name)), name
            assert np.array_equal(d_wh, ref_wh)
            assert np.array_equal(d_wo, ref_wo)

    # Above 256 hidden neurons the hidden gradient's GEMM runs in blocks of
    # GRAD_ROWS rows, as the reference does. At 200 -> 300 the gradient lies
    # in hidden_u_pre after the input rows: B*T*(n_hidden - n_in) = 79,200
    # entries hold its 61,500. At 784 -> 300 the input rows take a work
    # array, and the gradient's n_hidden * (n_in + C) entries lie in
    # hidden_u_pre where B*T >= n_in + C = 789: at T = 12 (792 rows), not at
    # T = 11 (726 rows), where they take a work array of the scratch.
    @pytest.mark.parametrize("n_in, in_tape, steps", [
        pytest.param(200, True, 12, id="200-True"),
        pytest.param(784, False, 11, id="784-False"),
        pytest.param(784, True, 12, id="784-True")])
    @pytest.mark.parametrize("shared_scratch", [False, True])
    def test_equals_the_blocked_reference_in_either_gradient_home(self, n_in, in_tape, steps,
                                                                  shared_scratch):
        n_batch, n_hidden, n_cls = 66, 300, 5
        assert n_hidden > sg.GRAD_ROWS
        model = init_sg_model(n_in, n_hidden, n_cls, seed=24, dist=fan_in_uniform(n_in),
                              lif=LifParams(beta=0.9, u_thr=1.0))
        bits = (Rng(25, 0).random((n_batch, steps, n_in)) < 0.3).astype(np.uint8)
        y = np.eye(n_cls)[np.arange(n_batch) % n_cls]
        arrays = ("input_bits", "hidden_u_pre", "flat_hidden", "output_u_pre", "output_bits")

        def compute():
            scratch = {}
            if shared_scratch:
                # A smaller batch's step leaves a gradient work array and
                # input rows that this batch's tape replaces or outgrows.
                small = np.ones((3, steps, n_in), dtype=np.uint8)
                bptt_backward(model, _record_tape(model, small, scratch),
                              np.eye(n_cls)[np.arange(3) % n_cls])
            tape = _record_tape(model, bits, scratch)
            before = dataclasses.replace(
                tape, **{name: getattr(tape, name).copy() for name in arrays})
            grads = bptt_backward(model, tape, y)
            assert np.shares_memory(tape.grad, tape.hidden_u_pre) == in_tape
            if not shared_scratch:
                assert ("grad" in scratch) != in_tape
            return before, [g.copy() for g in grads]

        (first, grads), *others = under_each_schedule(compute)
        assert first.flat_hidden.any() and not first.flat_hidden.all()
        ref_wh, ref_wo = reference_bptt_backward(model, first, y)
        for _, (d_wh, d_wo) in [(first, grads), *others]:
            assert np.array_equal(d_wh, ref_wh)
            assert np.array_equal(d_wo, ref_wo)

    def test_forward_keeps_no_input_copy_and_no_hidden_bits(self):
        # Above the tape's own arrays, recording may hold only (m, n) work
        # arrays of the running parts: the input's float64 copy lives in the
        # hidden spikes' rows until they overwrite it, and the hidden spikes
        # are written straight into the output layer's float64 input. A
        # (B, T, n_in) float64 copy or (B, T, n_hidden) uint8 spikes would
        # exceed the budget.
        n_batch, steps, n_in, n_hidden, n_cls = 8, 100, 300, 500, 10
        model = init_sg_model(n_in, n_hidden, n_cls, seed=0, dist=fan_in_uniform(n_in))
        bits = (Rng(4, 0).random((n_batch, steps, n_in)) < 0.2).astype(np.uint8)
        # A first forward starts the worker threads outside the trace.
        _record_tape(model, bits, {})
        tape_bytes = 2 * n_batch * steps * n_hidden * 8 + n_batch * steps * n_cls * (8 + 1)
        work = 8 * n_batch * n_hidden * 8
        assert work < min(n_batch * steps * n_in * 8, n_batch * steps * n_hidden)
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            tape = _record_tape(model, bits, {})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tape.flat_hidden.any()
        assert peak - entry < tape_bytes + work, (peak - entry, tape_bytes + work)

    def test_backward_adds_no_hidden_sized_array(self):
        # Above the gradients it returns, the reverse pass may hold only
        # (B, n) work arrays and small (B, T, C) ones: the hidden adjoint
        # goes into the tape's flat_hidden, and the input operand into
        # hidden_u_pre at n_in <= n_hidden, else into the work array an
        # earlier step kept in scratch. A fresh (B, T, n_hidden) or
        # (B, T, n_in) float64 array, whole surrogate arrays or copies of the
        # tape's bits would exceed the budget.
        n_batch, steps, n_hidden, n_cls = 8, 25, 500, 10
        for n_in in (784, 300):
            model = init_sg_model(n_in, n_hidden, n_cls, seed=0, dist=fan_in_uniform(n_in))
            bits = (Rng(3, 0).uniform(0, 1, n_batch * steps * n_in) < 0.2).astype(np.uint8)
            bits = bits.reshape(n_batch, steps, n_in)
            y = np.eye(n_cls)[np.arange(n_batch)]
            # A first step starts the worker threads outside the trace.
            scratch = {}
            bptt_backward(model, _record_tape(model, bits, scratch), y)
            tape = _record_tape(model, bits, scratch)
            work = 4 * n_batch * n_hidden * 8 + 8 * n_batch * steps * n_cls * 8
            assert work < min(n_batch * steps * n_hidden * 8, n_batch * steps * n_in * 8)
            budget = model.w_hidden.nbytes + model.w_out.nbytes + work
            tracemalloc.start()
            try:
                entry, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                grads = bptt_backward(model, tape, y)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert grads[0].shape == model.w_hidden.shape
            assert peak - entry < budget, (n_in, peak - entry, budget)

    def test_gradient_that_fits_in_the_tape_adds_no_weight_sized_vector(self):
        # At 100 -> 500 with B*T = 200 rows, hidden_u_pre holds the input
        # rows and, after them, the 55,000 gradient entries. At 784 -> 300
        # with B*T = 792 rows the input rows take a work array of the
        # scratch, and hidden_u_pre's 237,600 entries hold the 236,700 of
        # the gradient. Above its entry, with the work arrays an earlier step
        # kept in scratch, the backward may hold only (B, n) work arrays and
        # the small (B, T, C) ones.
        for n_batch, steps, n_in, n_hidden, n_cls in ((8, 25, 100, 500, 10),
                                                      (66, 12, 784, 300, 5)):
            model = init_sg_model(n_in, n_hidden, n_cls, seed=0, dist=fan_in_uniform(n_in))
            n_weights = model.w_hidden.size + model.w_out.size
            bits = (Rng(3, 0).random((n_batch, steps, n_in)) < 0.2).astype(np.uint8)
            y = np.eye(n_cls)[np.arange(n_batch) % n_cls]
            # A first step starts the worker threads outside the trace.
            scratch = {}
            bptt_backward(model, _record_tape(model, bits, scratch), y)
            tape = _record_tape(model, bits, scratch)
            budget = 4 * n_batch * n_hidden * 8 + 8 * n_batch * steps * n_cls * 8
            assert budget < n_weights * 8
            tracemalloc.start()
            try:
                entry, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                bptt_backward(model, tape, y)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.shares_memory(tape.grad, tape.hidden_u_pre) and "grad" not in scratch
            assert peak - entry < budget, (n_in, peak - entry, budget)


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

    def test_held_out_selection_checked_before_the_first_step(self, monkeypatch):
        ds = _separable(samples_per_class=4, pixels=16, seed=3)
        wide = _separable(samples_per_class=4, pixels=20, seed=4)

        def no_step(*_args):
            raise AssertionError("a step ran before the held-out selection was checked")

        monkeypatch.setattr(sg, "_record_tape", no_step)
        model = init_sg_model(16, 8, 2, seed=0, dist=fan_in_uniform(16))
        run = dict(adam=AdamConfig(), batch_size=4, train_indices=np.arange(len(ds)))
        with pytest.raises(ValueError, match="empty test selection"):
            train_sg(model, ds, ds, 5, 0, test_indices=np.array([], dtype=np.int64), **run)
        with pytest.raises(ValueError, match="test samples have 20 pixels"):
            train_sg(model, ds, wide, 5, 0, test_indices=np.arange(len(wide)), **run)
        with pytest.raises(ValueError, match="time_steps must be >= 1"):
            train_sg(model, ds, ds, -3, 0, test_indices=np.arange(len(ds)), **run)

    def test_held_out_pass_starts_without_the_steps_arrays(self, monkeypatch):
        # At 16 -> 400, one (B, T, n_hidden) float64 array of a step (the
        # tape's potentials or its hidden spikes) outweighs all that
        # train_sg keeps across steps: the weights, Adam's m and v.
        ds = _separable(samples_per_class=32, pixels=16, seed=3)  # 2 steps of 32
        model = init_sg_model(16, 400, 2, seed=0, dist=fan_in_uniform(16))
        monkeypatch.setattr(sg, "EVAL_EVERY", 1)
        hidden_bytes = 32 * 20 * 400 * 8
        live = []
        real_evaluate = sg.evaluate_sg

        def recording_evaluate(*args):
            live.append(tracemalloc.get_traced_memory()[0] - entry)
            return real_evaluate(*args)

        monkeypatch.setattr(sg, "evaluate_sg", recording_evaluate)
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            train_whole(model, ds, ds, 20, master_seed=0, batch_size=32)
        finally:
            tracemalloc.stop()
        assert len(live) == 2 and max(live) < hidden_bytes, (live, hidden_bytes)

    def test_eval_every_strides_and_includes_final(self, monkeypatch):
        ds = _separable(samples_per_class=96, pixels=16, seed=3)  # 12 iterations
        test_ds = _separable(samples_per_class=8, pixels=16, seed=4)
        monkeypatch.setattr(sg, "EVAL_EVERY", 5)
        _, metrics = train_whole(init_sg_model(16, 8, 2, seed=0, dist=fan_in_uniform(16)),
                                 ds, test_ds, 5, master_seed=0, batch_size=16)
        assert [m.iteration for m in metrics] == [5, 10, 12]

    def test_init_and_training_hold_the_weights_once(self, monkeypatch):
        # init_sg_model samples both matrices into the one parameter vector
        # that Adam updates, and train_sg adds Adam's m and v and the
        # gradient's work array (at 784 -> 1,000 it does not fit in the
        # tape): no second (n_hidden, n_in) float64 array, which the
        # budgets' half-matrix slack leaves no room for.
        n_in, n_hidden = 784, 1000
        ds = _separable(samples_per_class=4, pixels=n_in, seed=3)
        monkeypatch.setattr(sg, "EVAL_EVERY", 1)
        # A first run starts the worker threads outside the trace.
        train_whole(init_sg_model(n_in, n_hidden, 2, seed=0, dist=fan_in_uniform(n_in)),
                    ds, ds, 5, master_seed=0, batch_size=4)
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            model = init_sg_model(n_in, n_hidden, 2, seed=0, dist=fan_in_uniform(n_in))
            _, init_peak = tracemalloc.get_traced_memory()
            n_weights = model.params.size
            slack = model.w_hidden.nbytes // 2
            assert init_peak - entry < n_weights * 8 + slack, (init_peak - entry, slack)
            entry, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            train_whole(model, ds, ds, 5, master_seed=0, batch_size=4)
            _, train_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(model.w_hidden, model.params)
        assert np.shares_memory(model.w_out, model.params)
        assert train_peak - entry < 3 * n_weights * 8 + slack, (train_peak - entry, slack)

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
        model = SgModel(np.zeros(8 * 16 + 2 * 8), n_in=16, n_hidden=8, num_classes=2,
                        lif=LifParams())
        acc = evaluate_sg(model, ds, 5, 0, np.arange(len(ds)), ENCODE_TEST_STREAM)
        assert acc == float((ds.labels == 0).mean())

    @pytest.mark.parametrize("n", [1, 7, 9, 128])
    def test_equals_the_per_sample_oracle_under_each_schedule(self, n):
        ds = _separable(samples_per_class=70, pixels=16, seed=8)
        model = init_sg_model(16, 12, 2, seed=4, lif=LifParams(beta=0.9, u_thr=1.0),
                              dist=Uniform(-1.0, 1.0))
        indices = Rng(n, 0).permutation(len(ds))[:n]
        # Reference: each sample encoded and run alone through the
        # pre-kernel forward.
        preds = []
        for i in indices:
            bits = encode_sample(ds.images[i], 6, Rng(9, ENCODE_TEST_STREAM + i))
            (_, _), (out_bits, _) = reference_lif_stack((model.w_hidden, model.w_out),
                                                        model.lif, bits[None])
            preds.append(out_bits[0].sum(axis=0, dtype=np.int64).argmax())
        expected = float((np.array(preds) == ds.labels[indices]).mean())
        if n == 128:
            assert min(preds) != max(preds) and 0.5 < expected < 1.0
        for acc in under_each_schedule(
                lambda: evaluate_sg(model, ds, 6, 9, indices, ENCODE_TEST_STREAM)):
            assert acc == expected
