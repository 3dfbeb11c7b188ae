"""Surrogate-gradient baseline: a fully trainable two-layer LIF network
optimized by backpropagation through time.

Instead of counting spikes and training a readout, this method wires the
hidden layer straight into a LIF output layer and trains both weight
matrices. The loss sums, over every time step, the cross-entropy between the
softmax of the output layer's pre-reset membrane potentials and the target.
During the reverse pass the hard spike step function is replaced by an
arctan-shaped surrogate derivative wherever it appears, which makes the
unrolled recursion differentiable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Uncalled: encode_sample stays for the bench site sg.encode.
from .encoding import encode_batch, encode_sample  # noqa: F401
from .idx import LabeledDataset
from .network import (LifParams, WeightDistribution, _buffer, count_spikes, fan_in_uniform,
                      row_groups, run_parts, sample_weights, simulate)
from .numerics import (AdamConfig, AdamState, ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM,
                       PROB_FLOOR, Rng, WEIGHT_STREAM, adam_step, softmax)
from .readout import IterationMetrics

# Full held-out evaluation for the baseline means re-simulating the whole
# test selection, so train_sg samples its curve every EVAL_EVERY iterations
# (and at the last) rather than at every one.
EVAL_EVERY = 50
# Rows of the hidden weight gradient per part of its GEMM in bptt_backward.
GRAD_ROWS = 256


def surrogate_grad(x, out: np.ndarray | None = None):
    """Arctan surrogate derivative of the spike step at x = u_pre - u_thr:
    1 / (1 + (pi*x)^2), peaking at 1 when the pre-reset potential sits
    exactly at threshold. out, if given, receives every intermediate and
    the result (it may be x itself)."""
    z = np.multiply(np.pi, np.asarray(x, dtype=np.float64), out=out)
    z = np.multiply(z, z, out=out)
    z = np.add(1.0, z, out=out)
    return np.divide(1.0, z, out=out)


@dataclass
class SgModel:
    """Trainable weights of the baseline: input->hidden and hidden->output,
    both layers sharing the same LIF constants.

    params is one flat float64 vector holding w_hidden's entries row-major,
    then w_out's, which train_sg's Adam updates in place; w_hidden
    (n_hidden, n_in) and w_out (num_classes, n_hidden) are views of it. A
    params of any other size is a ValueError.

    version increments on every parameter update; tapes record the version
    they were produced under so a stale tape cannot be backpropagated.
    """

    params: np.ndarray
    n_in: int
    n_hidden: int
    num_classes: int
    lif: LifParams
    version: int = 0

    def __post_init__(self):
        n_wh = self.n_hidden * self.n_in
        n_weights = n_wh + self.num_classes * self.n_hidden
        if self.params.shape != (n_weights,):
            raise ValueError(f"params of shape {self.params.shape} for a {self.n_in}->"
                             f"{self.n_hidden}->{self.num_classes} model, which has "
                             f"{n_weights} weights")
        self.w_hidden = self.params[:n_wh].reshape(self.n_hidden, self.n_in)
        self.w_out = self.params[n_wh:].reshape(self.num_classes, self.n_hidden)


def init_sg_model(n_in: int, n_hidden: int, num_classes: int, seed: int,
                  dist: WeightDistribution, lif: LifParams = LifParams()) -> SgModel:
    """Initial weights for the baseline, sampled straight into the model's
    params.

    The hidden matrix draws from dist on the same stream as a fixed random
    network built from the same seed, so both methods start from
    bit-identical hidden weights; the output matrix uses the fan-in rule
    U(-sqrt(6/n_hidden), sqrt(6/n_hidden)) on the next stream.
    """
    n_wh = n_hidden * n_in
    params = np.empty(n_wh + num_classes * n_hidden)
    sample_weights(dist, Rng(seed, WEIGHT_STREAM + 0), n_hidden, n_in, out=params[:n_wh])
    sample_weights(fan_in_uniform(n_hidden), Rng(seed, WEIGHT_STREAM + 1), num_classes,
                   n_hidden, out=params[n_wh:])
    return SgModel(params, n_in, n_hidden, num_classes, lif)


@dataclass
class BpttTape:
    """Everything the reverse pass needs, recorded per step during forward.

    Arrays are batched (B, T, ...); pre-reset potentials are stored because
    both the surrogate derivative and the loss are functions of them.
    flat_hidden, the hidden spikes as 0.0/1.0 rows, is the output layer's
    own GEMM operand, which the w_out gradient reuses. A tape holds views of
    the work arrays of scratch, the dict it was recorded into, valid until
    the next simulate call with that dict. bptt_backward spends a tape: it
    writes the hidden adjoint over flat_hidden, and the hidden decay, then
    the input rows where they fit and then the gradient, grad, where it
    fits, over hidden_u_pre. Input rows that do not fit are read from the
    forward's own float64 input, scratch[("in", 0)], which it leaves as it
    was. It keeps output_u_pre, which train_sg reads for the loss.
    """

    input_bits: np.ndarray  # (B, T, n_in) uint8
    hidden_u_pre: np.ndarray  # (B, T, n_hidden) float64
    flat_hidden: np.ndarray  # (B*T, n_hidden) float64
    output_u_pre: np.ndarray  # (B, T, C) float64
    output_bits: np.ndarray  # (B, T, C) uint8
    model_version: int
    scratch: dict
    spent: bool = False
    grad: np.ndarray | None = None  # (n_weights,) float64, set by bptt_backward


def _record_tape(model: SgModel, input_bits: np.ndarray, scratch: dict) -> BpttTape:
    """Forward a (B, T, n_in) batch through both layers, keeping the tape;
    scratch as in simulate."""
    (hidden_u_pre, hidden_spikes), (output_u_pre, output_bits) = simulate(
        input_bits, (model.w_hidden, model.w_out), model.lif, scratch)
    return BpttTape(input_bits, hidden_u_pre, hidden_spikes.reshape(-1, model.n_hidden),
                    output_u_pre, output_bits, model.version, scratch)


def _adjoint(drive: np.ndarray, u_pre: np.ndarray, beta: float, thr: float,
             gate: bool = False) -> np.ndarray:
    """lam(t) = dL/du_pre(t) over (B, T, n), accumulated backward through
    leak and reset: lam(t) = drive(t) + beta * (1 - thr * g(t)) * lam(t+1),
    with g the surrogate at u_pre - thr, by which gate=True first multiplies
    drive. Overwrites drive with lam, and u_pre with the decay, computed once
    over the whole array, and then at each t with decay(t) * lam(t+1); every
    element keeps the operands and order of the expression, so the bits are
    those of a fresh array per operation. lam(T) is 0."""
    g = surrogate_grad(np.subtract(u_pre, thr, out=u_pre), out=u_pre)
    if gate:
        drive *= g
    decay = np.multiply(thr, g, out=u_pre)
    np.subtract(1.0, decay, out=decay)
    np.multiply(beta, decay, out=decay)
    carry = 0.0
    for t in reversed(range(drive.shape[1])):
        np.multiply(decay[:, t], carry, out=decay[:, t])
        carry = np.add(drive[:, t], decay[:, t], out=drive[:, t])
    return drive


def bptt_backward(model: SgModel, tape: BpttTape, y_true) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients of the batch mean of the summed per-step
    cross-entropy against the (B, C) one-hot targets y_true with respect to
    both weight matrices.

    Wherever a spike enters the recursion -- as the next layer's input and in
    the subtractive reset term -- its local derivative is the arctan
    surrogate evaluated at that step's pre-reset potential; the beta*u
    recurrence carries gradient across steps.

    The tape is spent, and a second backward on it raises ValueError. The
    output adjoint spends the softmax's array and a copy of output_u_pre.
    The w_out gradient is a product read from tape.flat_hidden first; then
    the hidden adjoint is computed in place over flat_hidden, and its decay
    over tape.hidden_u_pre, whose storage is then free. The hidden
    gradient's GEMM operand is the input bits as (B*T, n_in) float64 rows:
    where n_in <= n_hidden they are rebuilt from tape.input_bits in the
    first entries of that storage, and otherwise they are the forward's own
    input, tape.scratch[("in", 0)], read as it is. tape.grad takes the next
    entries of that storage where enough remain, and otherwise the work
    array tape.scratch["grad"]. The hidden adjoint and that rebuild run over
    the batch's row_groups(0, B, n_hidden), and the hidden gradient's GEMM
    over blocks of GRAD_ROWS hidden rows; run_parts only schedules these
    slices, which depend on the shapes alone, so the bits do not depend on
    the worker count.

    Both gradients are written into tape.grad, one flat float64 vector
    holding the hidden matrix's entries first, and returned as views of it,
    valid until the next step that uses the tape's scratch.
    """
    if tape.spent:
        raise ValueError("spent tape: a backward already overwrote its flat_hidden "
                         "and hidden_u_pre")
    if tape.model_version != model.version:
        raise ValueError(
            f"stale tape: recorded under model version {tape.model_version}, "
            f"model is now at {model.version}")
    n_batch, steps, n_cls = tape.output_u_pre.shape
    y = np.asarray(y_true, dtype=np.float64)
    if y.shape != (n_batch, n_cls):
        raise ValueError(f"target shape {y.shape} does not match tape batch "
                         f"({n_batch}, {n_cls})")

    beta, thr = model.lif.beta, model.lif.u_thr
    d_direct = softmax(tape.output_u_pre)
    d_direct -= y[:, None, :]
    d_direct /= n_batch
    lam_out = _adjoint(d_direct, tape.output_u_pre.copy(), beta, thr).reshape(-1, n_cls)

    d_w_out = lam_out.T @ tape.flat_hidden
    tape.spent = True
    lam_flat = np.matmul(lam_out, model.w_out, out=tape.flat_hidden)
    lam_hid = lam_flat.reshape(n_batch, steps, model.n_hidden)

    def adjoint_part(rows):
        _adjoint(lam_hid[rows], tape.hidden_u_pre[rows], beta, thr, gate=True)

    parts = row_groups(0, n_batch, model.n_hidden)
    run_parts(adjoint_part, parts)
    n_rows, n_wh = n_batch * steps, model.w_hidden.size
    free = tape.hidden_u_pre.reshape(-1)
    if model.n_in <= model.n_hidden:
        inputs = free[:n_rows * model.n_in].reshape(n_batch, steps, model.n_in)
        free = free[inputs.size:]

        def input_part(rows):
            inputs[rows] = tape.input_bits[rows]

        run_parts(input_part, parts)
    else:
        inputs = tape.scratch[("in", 0)][:n_rows * model.n_in]
    flat_input = inputs.reshape(n_rows, model.n_in)
    tape.grad = (free[:model.params.size] if free.size >= model.params.size
                 else _buffer(tape.scratch, "grad", model.params.size, np.float64))
    d_w_hidden = tape.grad[:n_wh].reshape(model.w_hidden.shape)

    def gradient_part(rows):
        np.matmul(lam_flat[:, rows].T, flat_input, out=d_w_hidden[rows])

    run_parts(gradient_part,
              [slice(row, row + GRAD_ROWS) for row in range(0, model.n_hidden, GRAD_ROWS)])
    tape.grad[n_wh:] = d_w_out.reshape(-1)
    return d_w_hidden, tape.grad[n_wh:].reshape(model.w_out.shape)


def _batch_loss(output_u_pre: np.ndarray, labels: np.ndarray) -> float:
    """Batch mean of the per-sample summed cross-entropy."""
    n_batch, steps, _ = output_u_pre.shape
    probs = softmax(output_u_pre)
    idx = np.broadcast_to(labels[:, None, None], (n_batch, steps, 1))
    picked = np.take_along_axis(probs, idx, axis=2)[..., 0]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).sum(axis=1).mean())


def evaluate_sg(model: SgModel, ds: LabeledDataset, time_steps: int,
                master_seed: int, indices, stream_base: int) -> float:
    """Accuracy on the selected samples, each encoded from stream
    stream_base + its index, with predictions by largest output spike count
    of network.count_spikes (ties to the lowest class index)."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise ValueError("cannot evaluate on an empty selection")
    counts = count_spikes((model.w_hidden, model.w_out), model.lif, ds.images, indices,
                          (time_steps,), master_seed, stream_base)[time_steps]
    return float((counts.argmax(axis=1) == ds.labels[indices]).mean())


def train_sg(model: SgModel, ds_train: LabeledDataset, ds_test: LabeledDataset,
             time_steps: int, master_seed: int, *, adam: AdamConfig, batch_size: int,
             train_indices, test_indices) -> tuple[SgModel, list[IterationMetrics]]:
    """Train both weight matrices by BPTT with the arctan surrogate.

    Every batch is encoded on the fly from the same per-sample streams of
    master_seed the readout path uses, so both methods see identical spike
    trains. One Adam step per consecutive batch of batch_size train_indices
    (any trailing partial batch dropped); metrics are recorded every
    EVAL_EVERY iterations and at the end, with held-out accuracy measured
    on the whole test selection. elapsed covers encoding, forward, backward,
    and the update, but not metrics.

    Every step runs in one set of work arrays, the input bits among them,
    which each step's batch encodes into over the parts of its
    row_groups(0, B, n_hidden). They are freed before each held-out pass,
    which counts in arrays of its own, and the next step makes them anew.
    The sizes, the labels and the held-out selection are checked before
    the first step.
    """
    for name, ds in (("train", ds_train), ("test", ds_test)):
        if ds.pixels != model.n_in:
            raise ValueError(f"{name} samples have {ds.pixels} pixels, model "
                             f"expects {model.n_in}")
    if len(test_indices) == 0:
        raise ValueError("cannot evaluate on an empty test selection")
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if not 1 <= batch_size <= len(train_indices):
        raise ValueError(f"batch_size must lie in [1, {len(train_indices)}] (the selection), "
                         f"got {batch_size}")
    for ds, sel in ((ds_train, train_indices), (ds_test, test_indices)):
        if not 0 <= ds.labels[sel].min() <= ds.labels[sel].max() < model.num_classes:
            raise ValueError(f"a selection holds a label outside [0, {model.num_classes})")
    images = ds_train.images
    total_iters = len(train_indices) // batch_size

    # Adam updates the model's params in place, and the weights are views of it.
    state = AdamState.zeros(model.params.size, adam)
    scratch: dict = {}

    metrics: list[IterationMetrics] = []
    elapsed = 0.0
    for iteration in range(1, total_iters + 1):
        sel = train_indices[(iteration - 1) * batch_size:iteration * batch_size]
        labels = ds_train.labels[sel]
        t0 = time.perf_counter()
        bits = _buffer(scratch, "bits", (len(sel), time_steps, model.n_in), np.uint8)

        def encode_part(rows):
            encode_batch(images, sel[rows], time_steps, master_seed, ENCODE_TRAIN_STREAM,
                         out=bits[rows])

        run_parts(encode_part, row_groups(0, len(sel), model.n_hidden))
        tape = _record_tape(model, bits, scratch)
        y = np.zeros((len(sel), model.num_classes))
        y[np.arange(len(sel)), labels] = 1.0
        bptt_backward(model, tape, y)
        adam_step(model.params, tape.grad, state)
        model.version += 1
        elapsed += time.perf_counter() - t0

        evaluating = iteration % EVAL_EVERY == 0 or iteration == total_iters
        if evaluating:
            loss = _batch_loss(tape.output_u_pre, labels) / time_steps
            counts = tape.output_bits.sum(axis=1, dtype=np.int64)
            batch_acc = float((counts.argmax(axis=1) == labels).mean())
        # The tape and bits are views of the step's work arrays. Without
        # them, emptying scratch frees those arrays, so the held-out pass's
        # own never sit on top of them; the next step makes them anew.
        del tape, bits
        if evaluating:
            scratch.clear()
            test_acc = evaluate_sg(model, ds_test, time_steps, master_seed, test_indices,
                                   ENCODE_TEST_STREAM)
            metrics.append(IterationMetrics(
                iteration=iteration, train_accuracy=batch_acc,
                test_accuracy=test_acc, loss=loss, elapsed=elapsed))
    return model, metrics
