"""Independent reference implementations used to check the library's fast
paths. These deliberately avoid the code under test: naive loops, numerical
differentiation, and a forward-mode (dual-number) differentiator for the
surrogate-gradient network."""

from __future__ import annotations

import numpy as np


def normalize_input(x) -> np.ndarray:
    """Map a nonnegative raw input vector into [0, 1] as x / max(x); an
    all-zero vector stays all-zero."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("normalize_input requires finite input")
    if x.size and x.min() < 0:
        raise ValueError("divide_by_max normalization requires nonnegative input")
    m = x.max() if x.size else 0.0
    return x / m if m > 0 else np.zeros_like(x)


def poisson_encode(p, time_steps: int, rng) -> np.ndarray:
    """Draw a (T, N) uint8 spike train with s[t, j] ~ Bernoulli(p[j]),
    independent across steps and neurons, from rng's float draws.

    p = 0 never fires and p = 1 fires every step, exactly. Draws come from
    the caller's Rng, so the realization is fixed by (seed, stream_id).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"intensities must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or (p.size and (p.min() < 0 or p.max() > 1)):
        raise ValueError("intensities must lie in [0, 1]")
    if time_steps < 1:
        raise ValueError(f"time_steps must be >= 1, got {time_steps}")
    u = rng.random((time_steps, p.size))
    return (u < p).astype(np.uint8)


def cross_entropy(y_true, output) -> float:
    """-sum(y_true * log(output)) for a one-hot y_true and a probability
    vector of the same length, with probabilities clamped to >= 1e-12."""
    y = np.asarray(y_true, dtype=np.float64)
    p = np.asarray(output, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"cross_entropy shape mismatch: {y.shape} vs {p.shape}")
    return float(-(y * np.log(np.maximum(p, 1e-12))).sum())


def central_difference_grad(loss_fn, theta: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + step
        f_plus = loss_fn(bumped)
        bumped[i] = theta[i] - step
        f_minus = loss_fn(bumped)
        grad[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def leak_decay_sequence(u0: np.ndarray, beta: float, steps: int) -> list[np.ndarray]:
    """Membrane values after 1..steps pure-decay updates, computed by the
    same repeated multiplication a simulator performs with zero input."""
    out = []
    u = u0.astype(np.float64).copy()
    for _ in range(steps):
        u = beta * u
        out.append(u.copy())
    return out


def linear_filter_membrane(weights: np.ndarray, beta: float,
                           input_bits: np.ndarray) -> np.ndarray:
    """Sub-threshold membrane trajectory as an explicit convolution:
    u(t) = sum_{tau <= t} beta^(t - tau) * (W s(tau))."""
    steps = input_bits.shape[0]
    currents = input_bits.astype(np.float64) @ weights.T
    out = np.zeros((steps, weights.shape[0]))
    for t in range(steps):
        acc = np.zeros(weights.shape[0])
        for tau in range(t + 1):
            acc += beta ** (t - tau) * currents[tau]
        out[t] = acc
    return out


def reference_lif_stack(weights, lif, input_bits: np.ndarray):
    """A (B, T, n_in) batch through a stack of LIF layers the way the
    simulator did it before it shared one kernel: a fresh float64 copy of the
    inputs, one (B*T, n_in) @ W.T product per layer, and a recursion that
    allocates new arrays at every step. Every layer has the LifParams lif.
    With B = 1 this is also the old per-sample path.

    Returns one (spike bits (B, T, n) uint8, pre-reset potentials (B, T, n))
    pair per layer.
    """
    n_batch, steps, _ = input_bits.shape
    s = input_bits.reshape(n_batch * steps, -1).astype(np.float64)
    out = []
    for w in weights:
        currents = (s @ w.T).reshape(n_batch, steps, -1)
        u = np.zeros((n_batch, currents.shape[2]))
        u_pre = np.empty_like(currents)
        bits = np.empty(currents.shape, dtype=np.uint8)
        for t in range(steps):
            u = lif.beta * u + currents[:, t]
            spikes = u > lif.u_thr
            u_pre[:, t] = u
            bits[:, t] = spikes
            u = u - lif.u_thr * spikes
        out.append((bits, u_pre))
        s = bits.reshape(n_batch * steps, -1).astype(np.float64)
    return out


def _stable_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def sg_forward_mode_grads(w_hidden: np.ndarray, w_out: np.ndarray, beta: float,
                          u_thr: float, input_bits: np.ndarray, y: np.ndarray,
                          slope: float = 1.0,
                          detach_reset: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Forward-mode differentiation of the summed per-step softmax
    cross-entropy of a two-LIF-layer network, for one sample.

    Tangents for every weight entry are propagated through an independent
    re-implementation of the forward recursion, substituting the arctan
    surrogate 1/(1+(slope*pi*x)^2) for the spike derivative both where the
    spike feeds the next layer and in the subtractive reset (unless
    detach_reset). Gradients use the sum over steps, matching a
    reduction="sum" reverse pass on a single sample.
    """
    steps, n_in = input_bits.shape
    n_hidden, n_cls = w_hidden.shape[0], w_out.shape[0]
    n_wh = n_hidden * n_in
    n_total = n_wh + n_cls * n_hidden

    def surr(x):
        z = slope * np.pi * x
        return 1.0 / (1.0 + z * z)

    s0 = input_bits.astype(np.float64)
    u_hid = np.zeros(n_hidden)
    du_hid = np.zeros((n_hidden, n_total))
    u_out = np.zeros(n_cls)
    du_out = np.zeros((n_cls, n_total))
    grad = np.zeros(n_total)

    for t in range(steps):
        c1 = w_hidden @ s0[t]
        dc1 = np.zeros((n_hidden, n_total))
        for j in range(n_hidden):
            dc1[j, j * n_in:(j + 1) * n_in] = s0[t]
        u1_pre = beta * u_hid + c1
        du1_pre = beta * du_hid + dc1
        s1 = (u1_pre > u_thr).astype(np.float64)
        ds1 = surr(u1_pre - u_thr)[:, None] * du1_pre
        u_hid = u1_pre - u_thr * s1
        du_hid = du1_pre if detach_reset else du1_pre - u_thr * ds1

        c2 = w_out @ s1
        dc2 = w_out @ ds1
        for j in range(n_cls):
            dc2[j, n_wh + j * n_hidden:n_wh + (j + 1) * n_hidden] += s1
        u2_pre = beta * u_out + c2
        du2_pre = beta * du_out + dc2
        s2 = (u2_pre > u_thr).astype(np.float64)
        ds2 = surr(u2_pre - u_thr)[:, None] * du2_pre
        u_out = u2_pre - u_thr * s2
        du_out = du2_pre if detach_reset else du2_pre - u_thr * ds2

        probs = _stable_softmax(u2_pre)
        grad += (probs - y) @ du2_pre

    return grad[:n_wh].reshape(n_hidden, n_in), grad[n_wh:].reshape(n_cls, n_hidden)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradient stacks."""
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)
    return float(num / den)


def _reference_adjoint(drive: np.ndarray, g: np.ndarray, beta: float, thr: float,
                       detach_reset: bool) -> np.ndarray:
    """lam(t) = dL/du_pre(t) over (B, T, n), accumulated backward through
    leak and reset: lam(t) = drive(t) + beta * (1 - thr * g(t)) * lam(t+1),
    without the reset factor when it is detached. Overwrites drive."""
    carry = np.zeros_like(drive[:, 0])
    for t in reversed(range(drive.shape[1])):
        decay = beta if detach_reset else beta * (1.0 - thr * g[:, t])
        carry = drive[:, t] = drive[:, t] + decay * carry
    return drive


def reference_bptt_backward(model, tape, y_true, *, reduction: str = "mean",
                            detach_reset: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The reverse pass as whole-array expressions, a fresh array per
    operation: each layer's surrogate as a (B, T, n) array, the adjoint's
    decay made anew at every step, and float64 copies of the tape's hidden
    spikes and input bits for the weight-gradient GEMMs. The hidden gradient
    is one product per block of sg.GRAD_ROWS hidden rows, as bptt_backward
    groups its GEMM rows; BLAS may round a row differently in another
    grouping. Every element goes through the arithmetic of bptt_backward, so
    the two must agree bit for bit. It leaves the tape as it was."""
    from ransnn.numerics import softmax
    from ransnn.sg import GRAD_ROWS, surrogate_grad

    n_batch, steps, n_cls = tape.output_u_pre.shape
    y = np.asarray(y_true, dtype=np.float64)
    if y.ndim == 1:
        y = y[None]

    beta, thr = model.lif.beta, model.lif.u_thr
    probs = softmax(tape.output_u_pre)
    d_direct = probs - y[:, None, :]
    if reduction == "mean":
        d_direct /= n_batch
    g_out = surrogate_grad(tape.output_u_pre - thr)
    g_hid = surrogate_grad(tape.hidden_u_pre - thr)

    lam_out = _reference_adjoint(d_direct, g_out, beta, thr, detach_reset)
    flat_hidden = np.array(tape.flat_hidden, dtype=np.float64)
    d_w_out = lam_out.reshape(n_batch * steps, n_cls).T @ flat_hidden

    d_spikes = (lam_out.reshape(n_batch * steps, n_cls) @ model.w_out)
    d_spikes = d_spikes.reshape(n_batch, steps, model.n_hidden)
    d_spikes *= g_hid
    lam_hid = _reference_adjoint(d_spikes, g_hid, beta, thr, detach_reset)

    flat_input = tape.input_bits.reshape(n_batch * steps, -1).astype(np.float64)
    lam_flat = lam_hid.reshape(n_batch * steps, -1)
    d_w_hidden = np.vstack([lam_flat[:, start:start + GRAD_ROWS].T @ flat_input
                            for start in range(0, model.n_hidden, GRAD_ROWS)])
    return d_w_hidden, d_w_out


def reference_uniform(seed, stream_id, low, high, n):
    """Rng.uniform as a fresh array per operation, the form before draws
    could be written into a given array."""
    from ransnn.numerics import philox

    out = low + np.random.Generator(philox(seed, stream_id)).random(n) * (high - low)
    np.minimum(out, np.nextafter(high, low), out=out)
    return out


def reference_normal(seed, stream_id, mean, std, n):
    """Rng.normal's Box-Muller transform as a fresh array per operation,
    the form before draws could be written into a given array."""
    from ransnn.numerics import philox

    gen = np.random.Generator(philox(seed, stream_id))
    pairs = (n + 1) // 2
    u1 = 1.0 - gen.random(pairs)
    u2 = gen.random(pairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return mean + std * z[:n]


def reference_adam_step(params, grads, state):
    """adam_step as whole-array expressions, one fresh array per operation:
    the textbook form whose bits the blocked update must reproduce."""
    import dataclasses

    cfg = state.config
    t = state.t + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grads
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * grads * grads
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    new_params = params - cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return new_params, dataclasses.replace(state, m=m, v=v, t=t)


def reference_cache_bytes(cache) -> bytes:
    """The bytes the feature-cache writer produced before it wrote through
    the buffer protocol: magic, the four little-endian u64 header fields,
    then u16 copies of the features and the labels."""
    import struct

    n, f = cache.features.shape
    return (b"RSNNFC01"
            + struct.pack("<QQQQ", n, f, cache.time_steps, cache.source_config_digest)
            + cache.features.astype("<u2").tobytes()
            + cache.labels.astype("<u2").tobytes())


def reference_chunked_counts(net, dataset, master_seed, time_steps, indices, stream_base):
    """Spike counts of the selected samples by the extraction loop that
    came before the extraction units: each sample encoded on its own
    stream, then one simulate_forward call per chunk of 8 samples."""
    from ransnn.encoding import encode_sample
    from ransnn.network import simulate_forward
    from ransnn.numerics import Rng

    counts = []
    for start in range(0, len(indices), 8):
        chunk = indices[start:start + 8]
        bits = np.stack([encode_sample(dataset.images[i], time_steps,
                                       Rng(master_seed, stream_base + int(i)))
                         for i in chunk])
        counts.append(simulate_forward(net, bits).sum(axis=1, dtype=np.uint16))
    return np.concatenate(counts)
