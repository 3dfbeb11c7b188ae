"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import datagen  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Site, Tracer  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        datagen.write_dataset(tmp_path / "a", 7, 60, 30)
        datagen.write_dataset(tmp_path / "b", 7, 60, 30)
        assert _files(tmp_path / "a") == _files(tmp_path / "b")

    def test_other_seed_other_images(self, tmp_path):
        datagen.write_dataset(tmp_path / "a", 7, 60, 30)
        datagen.write_dataset(tmp_path / "b", 8, 60, 30)
        a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
        assert a["train-images-idx3-ubyte.gz"] != b["train-images-idx3-ubyte.gz"]

    def test_mnist_shape_density_and_balance(self, tmp_path):
        out = datagen.write_dataset(tmp_path, 3, 200, 50)
        from ransnn.idx import load_dataset

        ds = load_dataset(out["paths"]["train_images"], out["paths"]["train_labels"], 10)
        assert ds.images.shape == (200, 784)
        assert 0.15 < out["traffic"]["nonzero_frac"] < 0.25
        assert 0.0 < out["traffic"]["input_spike_density"] < out["traffic"]["nonzero_frac"]
        assert np.bincount(ds.labels, minlength=10).tolist() == [20] * 10


class TestSelfTime:
    def test_nested_spans(self):
        t = Tracer()
        outer = t.open("workload", now=0.0)
        a = t.open("a", now=1.0)
        inner = t.open("inner", now=2.0)
        t.close(inner, now=3.0)
        t.close(a, now=4.0)
        b = t.open("b", now=5.0)
        t.close(b, now=6.5)
        t.close(outer, now=10.0)
        assert inner.self_time == pytest.approx(1.0)
        assert a.self_time == pytest.approx(2.0)  # 3 s minus its 1 s child
        assert outer.self_time == pytest.approx(5.5)  # 10 s minus 3 s and 1.5 s
        assert t.per_call(("a", "b"), lambda s: s.duration) == [pytest.approx(4.5)]

    def test_spans_group_by_call(self):
        t = Tracer()
        for call, length in enumerate((2.0, 4.0)):
            t.call = call
            w = t.open("workload", now=0.0)
            t.close(t.open("x", now=0.0), now=length)
            t.close(w, now=length)
        assert t.per_call(("x",), lambda s: s.duration) == [2.0, 4.0]

    def test_out_of_order_close_rejected(self):
        t = Tracer()
        first = t.open("a")
        t.open("b")
        with pytest.raises(RuntimeError):
            t.close(first)


class _Holder:
    @staticmethod
    def value(x):
        return x + 1


class TestSites:
    def test_missing_site_is_reported_not_raised(self):
        t = Tracer()
        sites = (Site("ransnn.readout", "no_such_function", "gone"),
                 Site("ransnn.no_such_module", "f", "gone_module"),
                 Site("test_bench", "_Holder.value", "held"))
        with t.installed(sites):
            assert _Holder.value(1) == 2
        assert t.missing == {"gone", "gone_module"}
        assert [s.name for s in t.spans] == ["held"]
        assert isinstance(_Holder.__dict__["value"], staticmethod)
        assert _Holder.value.__name__ == "value"


class TestPerLayerMetrics:
    def _prepared(self):
        w = wl.WORKLOADS["ransnn-cold"]
        return wl.Prepared(w, w.config({}), Path("."), None, {}, [])

    def test_every_metric_reported_and_missing_ones_left_out(self):
        t = Tracer(missing={"sg.backward"})
        w = t.open("workload", now=0.0)
        enc = t.open("encoding.encode", now=0.0)
        t.close(enc, now=0.25)
        t.close(w, now=1.0)
        out = layers.per_layer_metrics(t, self._prepared(), [1.0], [1.1])
        dropped = {name for name, spec in layers.METRICS.items() if "sg.backward" in spec[2]}
        assert dropped == {"sg.backward_s", "sg.backward.calls", "sg.backward.p50_ms",
                           "sg.backward.p99_ms"}
        assert set(out) == set(layers.METRICS) - dropped
        assert out["encoding.encode_s"] == 0.25
        assert out["encoding.encode.calls"] == 1
        assert out["trace_overhead_frac"] == pytest.approx(0.1)
        # 2 * T * n_in * n_out for the 784 -> 2000 GEMM at T = 25
        assert out["network.gemm_flops_computed"] == 2 * 25 * 784 * 2000


@dataclass
class _Point:
    iteration: int
    train_accuracy: float
    test_accuracy: float
    loss: float
    elapsed: float


@dataclass
class _Record:
    final_accuracy: float
    metrics: list


def _records():
    return [_Record(0.5, [_Point(1, 0.25, 0.4, 2.0, 0.01), _Point(2, 0.5, 0.5, 1.5, 0.02)])]


class TestOutputCheck:
    w = wl.WORKLOADS["ransnn-cold"]

    def test_identical_curve_passes(self):
        exp = wl.expectation(_records(), None, "reference")
        assert wl.check_records(self.w, _records(), exp) == []

    def test_elapsed_is_not_compared(self):
        exp = wl.expectation(_records(), None, "reference")
        recs = _records()
        recs[0].metrics[1] = replace(recs[0].metrics[1], elapsed=9.0)
        assert wl.check_records(self.w, recs, exp) == []

    def test_perturbed_loss_rejected(self):
        exp = wl.expectation(_records(), None, "reference")
        recs = _records()
        point = recs[0].metrics[0]
        recs[0].metrics[0] = replace(point, loss=float(np.nextafter(point.loss, 3.0)))
        assert wl.check_records(self.w, recs, exp)

    def test_perturbed_accuracy_rejected(self):
        exp = wl.expectation(_records(), None, "reference")
        recs = _records()
        recs[0].metrics[1] = replace(recs[0].metrics[1], test_accuracy=0.5078125)
        assert wl.check_records(self.w, recs, exp)

    def test_chance_accuracy_rejected_without_reference(self):
        recs = _records()
        recs[0].final_accuracy = 0.1
        assert wl.check_records(self.w, recs, None)

    def test_spike_digest_mismatch_rejected(self):
        exp = {"source": "reference", "spikes": wl.spikes_digest(["a", "b"])}
        assert wl.check_spikes(wl.spikes_digest(["b", "a"]), exp) == []
        assert wl.check_spikes(wl.spikes_digest(["a", "c"]), exp)
