"""No bit depends on the worker count or on the order of the parts.

simulate and the BPTT backward split their work by shape alone (parts of
part_size(B, width) samples, blocks of GRAD_ROWS hidden rows); run_parts
only decides which thread runs a part. On the OpenBLAS in use, splitting a
GEMM by rows or columns changes last bits at widths 30 and 300, so a split
that followed the worker count would fail here.
"""

import sys
import threading

import numpy as np
import pytest

from conftest import extract, mnist_shaped
from ransnn import network, sg
from ransnn.network import Uniform, fan_in_uniform, init_weights
from ransnn.numerics import AdamConfig
from ransnn.sg import init_sg_model, train_sg


def run_reversed(fn, n, size):
    """run_parts on the calling thread, last part first."""
    for start in reversed(range(0, n, size)):
        fn(slice(start, start + size))


def under_each_schedule(compute) -> list:
    """compute() with 1, 2 and 3 workers, then with the parts run one by one
    in reverse order."""
    results = []
    for schedule in (1, 2, 3, "reversed"):
        with pytest.MonkeyPatch.context() as mp:
            if schedule == "reversed":
                mp.setattr(network, "run_parts", run_reversed)
                mp.setattr(sg, "run_parts", run_reversed)
            else:
                mp.setattr(network, "worker_count", lambda n=schedule: n)
            results.append(compute())
    return results


# Every layer of each net fires. 13 samples make chunks of 8 and 5: parts of
# 4, 4, 4 and 1 at 2,000 and 300 neurons, one part per chunk at 30.
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
    # microsecond: a part lost or run twice by the shared queue shows in
    # the counts.
    monkeypatch.setattr(network, "worker_count", lambda: 8)
    hits = np.zeros(1000, dtype=np.int64)

    def count(rows):
        hits[rows] += 1

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: [network.run_parts(count, len(hits), 3)
                                                  for _ in range(20)])
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert (hits == 20).all()


def test_a_failing_part_raises_after_every_other_part_ran(monkeypatch):
    monkeypatch.setattr(network, "worker_count", lambda: 3)
    done = np.zeros(40, dtype=bool)

    def part(rows):
        if rows.start == 8:
            raise RuntimeError("part failed")
        done[rows] = True

    with pytest.raises(RuntimeError, match="part failed"):
        network.run_parts(part, len(done), 4)
    assert done[:8].all() and done[12:].all() and not done[8:12].any()
