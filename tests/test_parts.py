"""No bit depends on the worker count or on the order of the parts.

simulate, count_spikes and the BPTT backward split their work by shape alone:
network.row_groups cuts a batch, or each chunk of EXTRACT_CHUNK samples in
count_spikes, into parts of samples, and the backward's gradient GEMM runs in
blocks of GRAD_ROWS hidden rows. Each caller hands its list of slices to
run_parts, which only decides which thread runs a part, on threads that live
for the call. On the OpenBLAS in use, splitting a GEMM by rows or columns
changes last bits at widths 30 and 300, so a split that followed the worker
count would fail here.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import extract, mnist_shaped
from oracles import reference_chunked_counts
from ransnn import network, sg
from ransnn.network import Uniform, fan_in_uniform, init_weights, sample_weights
from ransnn.numerics import ENCODE_TEST_STREAM, AdamConfig, Rng
from ransnn.sg import init_sg_model, train_sg


def run_reversed(fn, parts):
    """run_parts on the calling thread, last part first."""
    for rows in reversed(parts):
        fn(rows)


def under_each_schedule(compute) -> list:
    """compute() with 1, 2, 3 and 8 workers, then with the parts run one by
    one in reverse order."""
    results = []
    for schedule in (1, 2, 3, 8, "reversed"):
        with pytest.MonkeyPatch.context() as mp:
            if schedule == "reversed":
                for module in (network, sg):
                    mp.setattr(module, "run_parts", run_reversed)
            else:
                mp.setattr(network, "worker_count", lambda n=schedule: n)
            results.append(compute())
    return results


# Every layer of each net fires. 13 samples make chunks of 8 and 5: parts of
# 4, 4, 4 and 1 at 2,000 neurons, of 7, 1 and 5 at 300, one part per chunk
# at 30.
@pytest.mark.parametrize("sizes,dist", [((784, 2000), fan_in_uniform(784)),
                                        ((64, 30, 12), Uniform(-0.3, 0.5)),
                                        ((784, 300), fan_in_uniform(784))])
def test_extraction_counts_and_cache_bytes(sizes, dist, tmp_path):
    ds = mnist_shaped(13, pixels=sizes[0], seed=4)
    net = init_weights(sizes, dist, seed=8)

    def compute():
        cache = extract(net, 10, ds, 3)
        path = tmp_path / "cache.rsnnfc"
        cache.save(path)
        return cache.features, path.read_bytes()

    (features, blob), *others = under_each_schedule(compute)
    assert features.any() and not (features == 10).all()
    for other_features, other_blob in others:
        assert np.array_equal(other_features, features)
        assert other_blob == blob


# Chunks of 8 run as parts of 4 at 2,000 neurons and of 7 and 1 at 300; at
# 30 a chunk is one part. 9 and 131 samples end in a chunk of 1 or 3, one
# part at each width.
@pytest.mark.parametrize("n", [1, 9, 131])
@pytest.mark.parametrize("sizes,dist,chunk_parts", [
    ((784, 2000), fan_in_uniform(784), [4, 4]),
    ((64, 30, 12), Uniform(-0.3, 0.5), [8]),
    ((784, 300), fan_in_uniform(784), [7, 1])])
def test_multi_window_extraction_under_each_schedule(sizes, dist, chunk_parts, n, monkeypatch):
    ds = mnist_shaped(n + 5, pixels=sizes[0], seed=n)
    net = init_weights(sizes, dist, seed=3)
    indices = np.arange(n + 5)[::-1][:n]
    unit_rows = []
    real_stack = network.lif_stack

    def recording_stack(x, *args, **kwargs):
        unit_rows.append(len(x))
        return real_stack(x, *args, **kwargs)

    monkeypatch.setattr(network, "lif_stack", recording_stack)

    def compute():
        unit_rows.clear()
        counts = network.count_spikes(net.weights, net.lif, ds.images, indices, (10, 4), 6,
                                      ENCODE_TEST_STREAM)
        # The GEMM row groups, whatever the schedule.
        assert sorted(unit_rows) == sorted(chunk_parts * (n // 8) + [n % 8])
        return counts

    first, *others = under_each_schedule(compute)
    assert sorted(first) == [4, 10]
    reference = reference_chunked_counts(net, ds, 6, 10, indices, ENCODE_TEST_STREAM)
    assert np.array_equal(first[10], reference)
    assert first[10].any() and (first[4] <= first[10]).all()
    for other in others:
        for t, counts in first.items():
            assert other[t].dtype == counts.dtype == np.uint8
            assert np.array_equal(other[t], counts)


# At 2,000 and 300 hidden neurons, batches of 6 samples are parts of 4 and 2,
# and batches of 66 are 13 parts of 5 and one of 1; at 30, batches of 66 are
# parts of 35 and 31.
@pytest.mark.parametrize("batch_size", [6, 66])
@pytest.mark.parametrize("n_in,n_hidden,n_cls", [(784, 2000, 10), (64, 30, 12), (784, 300, 10)])
def test_sg_curve_and_trained_weights(n_in, n_hidden, n_cls, batch_size, monkeypatch):
    train = mnist_shaped(2 * batch_size, pixels=n_in, seed=5)
    test = mnist_shaped(7, pixels=n_in, seed=6)
    monkeypatch.setattr(sg, "EVAL_EVERY", 1)

    def compute():
        model = init_sg_model(n_in, n_hidden, n_cls, seed=2, dist=fan_in_uniform(n_in))
        model, metrics = train_sg(model, train, test, 8, 11, adam=AdamConfig(lr=0.01),
                                  batch_size=batch_size, train_indices=np.arange(len(train)),
                                  test_indices=np.arange(len(test)))
        curve = [(m.loss.hex(), m.train_accuracy, m.test_accuracy) for m in metrics]
        return curve, model.w_hidden.copy(), model.w_out.copy()

    (curve, w_hidden, w_out), *others = under_each_schedule(compute)
    assert len(curve) == 2
    for other_curve, other_hidden, other_out in others:
        assert other_curve == curve
        assert np.array_equal(other_hidden, w_hidden)
        assert np.array_equal(other_out, w_out)


def test_every_part_runs_once_with_more_workers_than_cores(monkeypatch):
    # Eight workers on however few cores, switching threads every
    # microsecond: a part lost or run twice by the pool shows in the
    # counts.
    monkeypatch.setattr(network, "worker_count", lambda: 8)
    hits = np.zeros(1000, dtype=np.int64)

    def count(rows):
        hits[rows] += 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parts = [slice(start, start + 3) for start in range(0, len(hits), 3)]
        runner = threading.Thread(target=lambda: [network.run_parts(count, parts)
                                                  for _ in range(20)])
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert (hits == 20).all()


def test_a_failing_part_raises_after_every_other_part_ran(monkeypatch):
    for workers in (1, 3):
        monkeypatch.setattr(network, "worker_count", lambda n=workers: n)
        done = np.zeros(40, dtype=bool)

        def part(rows):
            if rows.start == 8:
                raise RuntimeError("part failed")
            done[rows] = True

        with pytest.raises(RuntimeError, match="part failed"):
            network.run_parts(part, [slice(start, start + 4) for start in range(0, len(done), 4)])
        assert done[:8].all() and done[12:].all() and not done[8:12].any(), workers


def spy_work_arrays(monkeypatch) -> tuple[list, list]:
    """Patch network._buffer and network.lif_stack for two workers: the
    first list gets the thread of every work array that _buffer allocates,
    the second that of every lif_stack call."""
    monkeypatch.setattr(network, "worker_count", lambda: 2)
    made, ran = [], []
    real_buffer, real_stack = network._buffer, network.lif_stack

    def buffer(scratch, key, shape, dtype):
        if key not in scratch or scratch[key].size < np.prod(shape):
            made.append(threading.current_thread())
        return real_buffer(scratch, key, shape, dtype)

    def stack(x, *args, **kwargs):
        ran.append(threading.current_thread())
        return real_stack(x, *args, **kwargs)

    monkeypatch.setattr(network, "_buffer", buffer)
    monkeypatch.setattr(network, "lif_stack", stack)
    return made, ran


# At 300 neurons a chunk of 8 is units of 7 and 1: the work arrays are sized
# for the larger, and the smaller runs in their prefix.
@pytest.mark.parametrize("sizes", [(784, 2000), (64, 300, 30)])
def test_count_spikes_allocates_every_work_array_on_the_calling_thread(sizes, monkeypatch):
    ds = mnist_shaped(24, pixels=sizes[0], seed=2)
    net = init_weights(sizes, fan_in_uniform(sizes[0]), seed=5)
    reference = reference_chunked_counts(net, ds, 3, 10, np.arange(24), ENCODE_TEST_STREAM)
    made, ran = spy_work_arrays(monkeypatch)
    counts = network.count_spikes(net.weights, net.lif, ds.images, np.arange(24), (10,), 3,
                                  ENCODE_TEST_STREAM)[10]
    assert np.array_equal(counts, reference)
    # One set of work arrays per worker, each input, currents and spikes.
    assert len(made) == 2 * (1 + 2 * (len(sizes) - 1))
    assert set(made) == {threading.current_thread()}
    assert threading.current_thread() not in ran and len(ran) == 6


# 15 samples are parts of 7, 7 and 1 at 300 neurons and three parts of 5 at
# 500. Each layer has currents and spikes; the first layer's float64 input
# lies in the second layer's input rows at 100 -> 300, and takes one work
# array of its own at 784 -> 300 and in a one-layer net.
@pytest.mark.parametrize("sizes,arrays", [((100, 300, 10), 4), ((784, 300, 10), 5),
                                          ((100, 500), 3)], ids=["wide", "narrow", "one-layer"])
def test_simulate_allocates_every_work_array_on_the_calling_thread(sizes, arrays, monkeypatch):
    net = init_weights(sizes, fan_in_uniform(sizes[0]), seed=5)
    bits = (Rng(6, 0).random((15, 10, sizes[0])) < 0.3).astype(np.uint8)
    monkeypatch.setattr(network, "worker_count", lambda: 1)
    reference = [(u.copy(), s.copy()) for u, s in network.simulate(bits, net.weights, net.lif)]
    made, ran = spy_work_arrays(monkeypatch)
    layers = network.simulate(bits, net.weights, net.lif)
    for (u, s), (ref_u, ref_s) in zip(layers, reference, strict=True):
        assert s.any() and not s.all()
        assert np.array_equal(u, ref_u) and np.array_equal(s, ref_s)
    assert len(made) == arrays and set(made) == {threading.current_thread()}
    assert threading.current_thread() not in ran and len(ran) == 3


def test_a_failing_unit_leaves_every_other_unit_its_work_arrays(monkeypatch):
    # 40 samples at 2,000 neurons are 10 units of 4 on two workers, which
    # share two sets of work arrays. A set the failing unit kept would leave
    # a worker waiting for it forever, so the call runs in a thread that is
    # joined with a timeout.
    ds = mnist_shaped(40, seed=3)
    net = init_weights((784, 2000), fan_in_uniform(784), seed=5)
    made, ran = spy_work_arrays(monkeypatch)
    real_encode, encoded, raised = network.encode_batch, [], []

    def encode(images, indices, *args, **kwargs):
        if indices[0] in (8, 20):
            raise RuntimeError(f"unit {indices[0]} failed")
        encoded.extend(indices)
        return real_encode(images, indices, *args, **kwargs)

    def call():
        try:
            network.count_spikes(net.weights, net.lif, ds.images, np.arange(40), (10,), 3,
                                 ENCODE_TEST_STREAM)
        except RuntimeError as e:
            raised.append(e)

    monkeypatch.setattr(network, "encode_batch", encode)
    runner = threading.Thread(target=call)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert [str(e) for e in raised] == ["unit 8 failed"]
    assert sorted(encoded) == [i for i in range(40) if not 8 <= i < 12 and not 20 <= i < 24]
    assert len(ran) == 8 and set(made) == {runner}


def test_units_sharing_work_arrays_on_more_workers_than_cores(monkeypatch):
    # Eight workers pass eight sets of work arrays among the 34 units of 136
    # samples at 300 neurons, switching threads every microsecond: two units
    # in one set at once would mix their rows, and a set never put back would
    # leave a worker waiting.
    monkeypatch.setattr(network, "worker_count", lambda: 8)
    ds = mnist_shaped(136, pixels=64, seed=7)
    net = init_weights((64, 300), fan_in_uniform(64), seed=5)
    reference = reference_chunked_counts(net, ds, 3, 10, np.arange(136), ENCODE_TEST_STREAM)
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.extend(
            network.count_spikes(net.weights, net.lif, ds.images, np.arange(136), (10,), 3,
                                 ENCODE_TEST_STREAM)[10] for _ in range(5)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive() and len(results) == 5
    assert all(np.array_equal(counts, reference) for counts in results)


def test_no_part_thread_outlives_the_call(monkeypatch):
    # One worker runs its parts on a pool thread too, never on the caller's.
    for workers in (1, 2):
        monkeypatch.setattr(network, "worker_count", lambda n=workers: n)
        names = []
        network.run_parts(lambda rows: names.append(threading.current_thread().name),
                          [slice(0, 1), slice(1, 2), slice(2, 3)])
        assert len(names) == 3 and all(name.startswith("ransnn-part") for name in names)
        assert [t.name for t in threading.enumerate() if t.name.startswith("ransnn-part")] == []
    network.run_parts(names.append, [])
    assert len(names) == 3


_INTERRUPT_SCRIPT = """
import json, sys, threading, time
from ransnn import network
network.worker_count = lambda: int(sys.argv[1])
started = []

def part(rows):
    started.append(rows.start)
    if len(started) == 1:
        print("started", flush=True)
    time.sleep(0.05)

try:
    network.run_parts(part, [slice(i, i + 1) for i in range(200)])
except KeyboardInterrupt:
    at_raise = len(started)
    alive = [t.name for t in threading.enumerate() if t.name.startswith("ransnn-part")]
    time.sleep(0.2)
    print(json.dumps({"at_raise": at_raise, "later": len(started), "alive": alive}), flush=True)
"""


@pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
@pytest.mark.parametrize("workers", [1, 2])
def test_an_interrupt_starts_no_queued_part(workers):
    # SIGINT reaches the calling thread while it waits for the parts: the
    # queued ones never start, the running ones end, and the process exits
    # instead of running the 200 parts of 50 ms to the end. It is sent
    # 0.3 s after the first part started, once all 200 are queued.
    env = {**os.environ, "PYTHONPATH": str(Path(network.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-c", _INTERRUPT_SCRIPT, str(workers)], env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        try:
            assert child.stdout.readline() == "started\n"
            time.sleep(0.3)
            child.send_signal(signal.SIGINT)
            sent = time.monotonic()
            out, _ = child.communicate(timeout=30)
            waited = time.monotonic() - sent
        finally:
            child.kill()
    assert child.returncode == 0
    report = json.loads(out)
    assert report["alive"] == [] and report["later"] == report["at_raise"] < 200, report
    assert waited < 2.0, waited


def vm_rss_kb() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    raise AssertionError("no VmRSS line")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_repeated_calls_leave_the_resident_set_flat(monkeypatch):
    # Each call starts and joins its own threads, one of them at one worker,
    # whose GEMMs make OpenBLAS set up its buffers for them: a thread or
    # buffer kept per call grows the resident set.
    a = sample_weights(Uniform(-1, 1), Rng(1, 0), 64, 128)
    b = sample_weights(Uniform(-1, 1), Rng(2, 0), 128, 128)
    out = np.empty((64, 128))

    def gemm(rows):
        np.matmul(a[rows], b, out=out[rows])

    parts = [slice(0, 32), slice(32, 64)]
    for workers in (1, 2):
        monkeypatch.setattr(network, "worker_count", lambda n=workers: n)
        out.fill(0.0)
        with network.one_blas_thread():
            for _ in range(100):
                network.run_parts(gemm, parts)
            before = vm_rss_kb()
            for _ in range(2000):
                network.run_parts(gemm, parts)
            after = vm_rss_kb()
            assert np.array_equal(out, np.vstack([a[rows] @ b for rows in parts]))
        assert after - before < 4096, (workers, before, after)
