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

from .encoding import encode_sample
from .idx import LabeledDataset
from .network import (LifParams, WeightDistribution, _buffer, fan_in_uniform,
                      part_size, run_parts, sample_weights, simulate)
from .numerics import (AdamConfig, AdamState, ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM,
                       PROB_FLOOR, Rng, WEIGHT_STREAM, adam_step, softmax)
from .readout import IterationMetrics


# Held-out samples per simulate call in evaluate_sg.
EVAL_CHUNK = 128
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

    version increments on every parameter update; tapes record the version
    they were produced under so a stale tape cannot be backpropagated.
    """

    w_hidden: np.ndarray  # (n_hidden, n_in)
    w_out: np.ndarray  # (num_classes, n_hidden)
    lif: LifParams
    version: int = 0

    @property
    def n_in(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def num_classes(self) -> int:
        return self.w_out.shape[0]


def init_sg_model(n_in: int, n_hidden: int, num_classes: int, seed: int,
                  dist: WeightDistribution, lif: LifParams = LifParams()) -> SgModel:
    """Initial weights for the baseline.

    The hidden matrix draws from dist on the same stream as a fixed random
    network built from the same seed, so both methods start from
    bit-identical hidden weights; the output matrix uses the fan-in rule
    U(-sqrt(6/n_hidden), sqrt(6/n_hidden)) on the next stream.
    """
    w_hidden = sample_weights(dist, Rng(seed, WEIGHT_STREAM + 0), n_hidden, n_in)
    w_out = sample_weights(fan_in_uniform(n_hidden), Rng(seed, WEIGHT_STREAM + 1),
                           num_classes, n_hidden)
    return SgModel(w_hidden=w_hidden, w_out=w_out, lif=lif)


@dataclass
class BpttTape:
    """Everything the reverse pass needs, recorded per step during forward.

    Arrays are batched (B, T, ...); pre-reset potentials are stored because
    both the surrogate derivative and the loss are functions of them. The
    flat float64 copies of the two layers' input bits are the forward's own
    GEMM operands, which the weight-gradient GEMMs reuse. A tape recorded
    into a shared scratch dict holds views of its work arrays, valid until
    the next simulate call with that dict. bptt_backward spends a tape: it
    writes the hidden adjoint over flat_hidden.
    """

    input_bits: np.ndarray  # (B, T, n_in) uint8
    hidden_u_pre: np.ndarray  # (B, T, n_hidden) float64
    hidden_bits: np.ndarray  # (B, T, n_hidden) uint8
    output_u_pre: np.ndarray  # (B, T, C) float64
    output_bits: np.ndarray  # (B, T, C) uint8
    flat_input: np.ndarray  # (B*T, n_in) float64
    flat_hidden: np.ndarray  # (B*T, n_hidden) float64
    model_version: int
    spent: bool = False


def _record_tape(model: SgModel, input_bits: np.ndarray,
                 scratch: dict | None = None) -> BpttTape:
    """Forward a (B, T, n_in) batch through both layers, keeping the tape;
    scratch as in simulate, and without one the tape owns its arrays."""
    scratch = {} if scratch is None else scratch
    (hidden_bits, hidden_u_pre), (output_bits, output_u_pre) = simulate(
        input_bits, (model.w_hidden, model.w_out), model.lif, record=True, scratch=scratch)
    rows = input_bits.shape[0] * input_bits.shape[1]
    return BpttTape(input_bits=input_bits, hidden_u_pre=hidden_u_pre,
                    hidden_bits=hidden_bits, output_u_pre=output_u_pre,
                    output_bits=output_bits,
                    flat_input=_buffer(scratch, ("in", 0), (rows, model.n_in), np.float64),
                    flat_hidden=_buffer(scratch, ("in", 1), (rows, model.n_hidden),
                                        np.float64),
                    model_version=model.version)


def _adjoint(drive: np.ndarray, u_pre: np.ndarray, beta: float, thr: float,
             gate: bool = False) -> np.ndarray:
    """lam(t) = dL/du_pre(t) over (B, T, n), accumulated backward through
    leak and reset: lam(t) = drive(t) + beta * (1 - thr * g(t)) * lam(t+1).
    g(t) is the surrogate at u_pre(t) - thr, computed one step at a time;
    gate=True first multiplies drive(t) by it. Overwrites drive.

    g and the decay live in two (B, n) work arrays for the whole call, and
    every operation keeps the operands and order of the expression above,
    so the bits are those of a fresh array per operation. lam(T) is 0."""
    g = np.empty_like(drive[:, 0])
    decay = np.empty_like(g)
    carry = 0.0
    for t in reversed(range(drive.shape[1])):
        surrogate_grad(np.subtract(u_pre[:, t], thr, out=g), out=g)
        if gate:
            drive[:, t] *= g
        np.multiply(thr, g, out=decay)
        np.subtract(1.0, decay, out=decay)
        np.multiply(beta, decay, out=decay)
        np.multiply(decay, carry, out=decay)
        carry = np.add(drive[:, t], decay, out=drive[:, t])
    return drive


def bptt_backward(model: SgModel, tape: BpttTape, y_true, *,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients of the batch mean of the summed per-step
    cross-entropy against the (B, C) one-hot targets y_true with respect to
    both weight matrices.

    Wherever a spike enters the recursion -- as the next layer's input and in
    the subtractive reset term -- its local derivative is the arctan
    surrogate evaluated at that step's pre-reset potential; the beta*u
    recurrence carries gradient across steps.

    The tape is spent: once the w_out gradient has read tape.flat_hidden,
    the hidden adjoint is computed in place over it, and a second backward
    on the tape raises ValueError. The hidden adjoint runs in parts of
    part_size(B, n_hidden) samples and the hidden gradient's GEMM in blocks
    of GRAD_ROWS rows, both through run_parts; the split depends only on
    the shapes, so the bits do not depend on the worker count.

    Both gradients are written into one flat float64 vector, the hidden
    matrix's entries first, and returned as views of it; out supplies that
    vector (a fresh one is allocated without it).
    """
    if tape.spent:
        raise ValueError("spent tape: a backward already overwrote its flat_hidden")
    if tape.model_version != model.version:
        raise ValueError(
            f"stale tape: recorded under model version {tape.model_version}, "
            f"model is now at {model.version}")
    n_batch, steps, n_cls = tape.output_u_pre.shape
    y = np.asarray(y_true, dtype=np.float64)
    if y.shape != (n_batch, n_cls):
        raise ValueError(f"target shape {y.shape} does not match tape batch "
                         f"({n_batch}, {n_cls})")
    n_wh = model.w_hidden.size
    n_weights = n_wh + model.w_out.size
    if out is not None and out.shape != (n_weights,):
        raise ValueError(f"gradient vector of shape {out.shape} does not hold "
                         f"{n_weights} weights")

    beta, thr = model.lif.beta, model.lif.u_thr
    probs = softmax(tape.output_u_pre)
    d_direct = probs - y[:, None, :]
    d_direct /= n_batch
    lam_out = _adjoint(d_direct, tape.output_u_pre, beta, thr)
    lam_out = lam_out.reshape(n_batch * steps, n_cls)

    out = np.empty(n_weights) if out is None else out
    d_w_out = np.matmul(lam_out.T, tape.flat_hidden,
                        out=out[n_wh:].reshape(model.w_out.shape))
    tape.spent = True
    lam_flat = np.matmul(lam_out, model.w_out, out=tape.flat_hidden)
    lam_hid = lam_flat.reshape(n_batch, steps, model.n_hidden)

    def adjoint_part(rows):
        _adjoint(lam_hid[rows], tape.hidden_u_pre[rows], beta, thr, gate=True)

    run_parts(adjoint_part, n_batch, part_size(n_batch, model.n_hidden))
    d_w_hidden = out[:n_wh].reshape(model.w_hidden.shape)

    def gradient_part(rows):
        np.matmul(lam_flat[:, rows].T, tape.flat_input, out=d_w_hidden[rows])

    run_parts(gradient_part, model.n_hidden, GRAD_ROWS)
    return d_w_hidden, d_w_out


def _encode_batch(ds: LabeledDataset, idxs, time_steps: int,
                  master_seed: int, stream_base: int) -> np.ndarray:
    """Stack per-sample encodings; streams are keyed by dataset index, so
    the realization of each sample never depends on its batch."""
    bits = np.empty((len(idxs), time_steps, ds.images.shape[1]), dtype=np.uint8)
    for k, i in enumerate(idxs):
        rng = Rng(master_seed, stream_base + int(i))
        bits[k] = encode_sample(ds.images[i], time_steps, rng)
    return bits


def _batch_loss(output_u_pre: np.ndarray, labels: np.ndarray) -> float:
    """Batch mean of the per-sample summed cross-entropy."""
    n_batch, steps, _ = output_u_pre.shape
    probs = softmax(output_u_pre)
    idx = np.broadcast_to(labels[:, None, None], (n_batch, steps, 1))
    picked = np.take_along_axis(probs, idx, axis=2)[..., 0]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).sum(axis=1).mean())


def evaluate_sg(model: SgModel, ds: LabeledDataset, time_steps: int,
                master_seed: int, indices, stream_base: int, *,
                scratch: dict | None = None) -> float:
    """Accuracy on the selected samples, each encoded from stream
    stream_base + its index, with predictions by largest output spike count
    (ties to the lowest class index). scratch is as in simulate."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        raise ValueError("cannot evaluate on an empty selection")
    scratch = {} if scratch is None else scratch
    hits = 0
    for start in range(0, len(indices), EVAL_CHUNK):
        sel = indices[start:start + EVAL_CHUNK]
        bits = _encode_batch(ds, sel, time_steps, master_seed, stream_base)
        spikes, _ = simulate(bits, (model.w_hidden, model.w_out), model.lif,
                             scratch=scratch)[-1]
        preds = spikes.sum(axis=1, dtype=np.int64).argmax(axis=1)
        hits += int((preds == ds.labels[sel]).sum())
    return hits / len(indices)


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
    Every forward and evaluation shares one set of work arrays.
    """
    if ds_train.images.shape[1] != model.n_in:
        raise ValueError(
            f"dataset samples have {ds_train.images.shape[1]} pixels, model "
            f"expects {model.n_in}")
    train_indices = np.asarray(train_indices, dtype=np.int64)
    if not 1 <= batch_size <= len(train_indices):
        raise ValueError(f"batch_size must lie in [1, {len(train_indices)}] (the selection), "
                         f"got {batch_size}")
    total_iters = len(train_indices) // batch_size

    # Adam updates theta in place, and the weights are views of it.
    theta = np.concatenate([model.w_hidden.ravel(), model.w_out.ravel()])
    state = AdamState.zeros(theta.size, adam)
    n_wh = model.w_hidden.size
    model.w_hidden = theta[:n_wh].reshape(model.w_hidden.shape)
    model.w_out = theta[n_wh:].reshape(model.w_out.shape)
    scratch: dict = {}
    grad = np.empty(theta.size)

    metrics: list[IterationMetrics] = []
    elapsed = 0.0
    for iteration in range(1, total_iters + 1):
        sel = train_indices[(iteration - 1) * batch_size:iteration * batch_size]
        labels = ds_train.labels[sel]
        t0 = time.perf_counter()
        bits = _encode_batch(ds_train, sel, time_steps, master_seed, ENCODE_TRAIN_STREAM)
        tape = _record_tape(model, bits, scratch)
        y = np.zeros((len(sel), model.num_classes))
        y[np.arange(len(sel)), labels] = 1.0
        bptt_backward(model, tape, y, out=grad)
        adam_step(theta, grad, state)
        model.version += 1
        elapsed += time.perf_counter() - t0

        evaluating = iteration % EVAL_EVERY == 0 or iteration == total_iters
        if evaluating:
            loss = _batch_loss(tape.output_u_pre, labels) / time_steps
            counts = tape.output_bits.sum(axis=1, dtype=np.int64)
            batch_acc = float((counts.argmax(axis=1) == labels).mean())
        # The tape is views of scratch, which the next forward and the
        # held-out evaluation overwrite.
        del tape, bits
        if evaluating:
            test_acc = evaluate_sg(model, ds_test, time_steps, master_seed, test_indices,
                                   ENCODE_TEST_STREAM, scratch=scratch)
            metrics.append(IterationMetrics(
                iteration=iteration, train_accuracy=batch_acc,
                test_accuracy=test_acc, loss=loss, elapsed=elapsed))
    return model, metrics
