import csv
import dataclasses
import gzip
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_dataset, write_dataset_idx
from ransnn import harness
from ransnn.cli import _split_values, main
from ransnn.harness import (ConfigError, DataPaths, ExperimentConfig, SweepSpec,
                            apply_sweep_value, compare_methods, config_digest,
                            config_from_dict, config_from_file, emit_metrics,
                            parse_dist, resolved_config_dict,
                            run_experiment, run_sweep, summarize_sweep)
from ransnn.idx import load_dataset, make_batches
from ransnn.network import (LifParams, Normal, Uniform, fan_in_uniform, init_weights,
                            openblas)
from ransnn.numerics import AdamConfig
from ransnn.readout import FeatureCache, extract_features
from ransnn.sg import init_sg_model

TINY = {
    "dataset": "mnist",
    "hidden_sizes": [30],
    "time_steps": 8,
    "train_batches": 6,
    "test_batches": 2,
    "batch_size": 16,
    "seed": 123,
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A data directory shaped like the real one, holding synthetic blobs."""
    root = tmp_path_factory.mktemp("data")
    mnist = root / "mnist"
    mnist.mkdir()
    train = blob_dataset(num_classes=3, samples_per_class=64, side=12, seed=1)
    test = blob_dataset(num_classes=3, samples_per_class=32, side=12, seed=2)
    write_dataset_idx(train, 12, mnist, "train", gz=True)
    write_dataset_idx(test, 12, mnist, "t10k")
    return root


@pytest.fixture()
def use_data_dir(data_dir, monkeypatch):
    monkeypatch.setenv("RANSNN_DATA_DIR", str(data_dir))
    return data_dir


def tiny_config(**overrides) -> ExperimentConfig:
    return config_from_dict({**TINY, **overrides})


class TestConfig:
    def test_defaults_match_benchmark_setup(self):
        cfg = ExperimentConfig()
        assert cfg.hidden_sizes == (2000,)
        assert cfg.beta == 0.95 and cfg.u_thr == 1.0 and cfg.time_steps == 25
        assert cfg.train_batches == 400 and cfg.test_batches == 50
        assert cfg.batch_size == 128
        assert cfg.adam.lr == 1e-3 and cfg.adam.beta1 == 0.9
        assert cfg.adam.beta2 == 0.999 and cfg.adam.eps == 1e-8

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dataset": "mnist", "widht": 3})

    def test_unknown_nested_fields_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"adam": {"lr": 0.1, "momentum": 0.9}})
        with pytest.raises(ConfigError):
            config_from_dict({"paths": {"train_imgs": "x"}})

    def test_seed_required_to_run(self):
        cfg = config_from_dict({"dataset": "mnist"})
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_sg_requires_single_hidden_layer(self):
        cfg = tiny_config(method="sg", hidden_sizes=[16, 16])
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("field,value,owner", [("beta", 1.0, LifParams),
                                                   ("u_thr", 0.0, LifParams)])
    def test_neuron_and_encoder_values_rejected_with_their_dataclass_message(
            self, field, value, owner):
        with pytest.raises(ValueError) as built:
            owner(**{field: value})
        with pytest.raises(ConfigError, match=re.escape(str(built.value))):
            tiny_config(**{field: value}).validate()

    @pytest.mark.parametrize("steps", [0, 65536])
    def test_time_steps_outside_the_u16_count_range_rejected(self, steps):
        with pytest.raises(ConfigError, match="time_steps"):
            tiny_config(time_steps=steps).validate()

    @pytest.mark.parametrize("sizes", ["12", 12])
    def test_hidden_sizes_must_be_a_list(self, sizes):
        # A string of digits would otherwise read as one layer per digit.
        with pytest.raises(ConfigError, match="list of integers"):
            config_from_dict({"hidden_sizes": sizes})

    @pytest.mark.parametrize("field,value", [("time_steps", "25"), ("beta", "0.9"),
                                             ("hidden_sizes", ("a",)),
                                             ("batch_size", None), ("dist", "U(-1,1)"),
                                             ("adam", {"lr": 0.1}),
                                             ("paths", {"train_images": "x"}),
                                             ("paths", DataPaths(train_images=5))])
    def test_mistyped_field_of_a_python_config_is_a_config_error(self, field, value):
        cfg = replace(ExperimentConfig(seed=1), **{field: value})
        with pytest.raises(ConfigError, match=field):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [("lr", -1.0), ("lr", float("nan")),
                                             ("beta1", 1.0), ("beta2", 1.5),
                                             ("eps", 0.0)])
    def test_adam_value_out_of_range_is_a_config_error(self, field, value):
        cfg = ExperimentConfig(seed=1, adam=AdamConfig(**{field: value}))
        with pytest.raises(ConfigError, match=f"adam.{field}"):
            cfg.validate()

    def test_numbers_are_coerced_to_their_field_types(self):
        cfg = tiny_config(time_steps=8.0, hidden_sizes=[30.0], beta=1, adam={"lr": 1})
        assert cfg == tiny_config(beta=1.0, adam={"lr": 1.0})
        assert type(cfg.time_steps) is int and type(cfg.hidden_sizes[0]) is int
        assert type(cfg.beta) is float and type(cfg.adam.lr) is float
        # A config built in Python takes the same rule: it validates to its
        # JSON twin, so both name one experiment with one run_id.
        twin = ExperimentConfig(hidden_sizes=(np.int64(30),), u_thr=1, time_steps=25.0,
                                train_batches=6, test_batches=2, batch_size=16,
                                seed=np.int64(123), adam=AdamConfig(lr=1),
                                dist=Uniform(-1, 1))
        typed = twin.validate()
        json_twin = tiny_config(u_thr=1, time_steps=25, adam={"lr": 1}, dist="U(-1,1)")
        assert typed == json_twin
        assert type(typed.seed) is int and type(typed.hidden_sizes[0]) is int
        assert type(typed.time_steps) is int
        assert type(typed.u_thr) is float and type(typed.adam.lr) is float
        assert type(typed.dist.low) is float
        run_id = config_digest(resolved_config_dict(typed, typed.dist))
        assert run_id == config_digest(resolved_config_dict(json_twin, json_twin.dist))

    def test_bad_enum_values(self):
        with pytest.raises(ConfigError):
            tiny_config(dataset="cifar").validate()
        with pytest.raises(ConfigError):
            tiny_config(method="backprop").validate()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "dist": {"kind": "normal",
                                                     "mean": 0.0, "std": 0.05}}))
        cfg = config_from_file(path)
        assert cfg.dist == Normal(0.0, 0.05)
        assert cfg.seed == 123


class TestParseDist:
    def test_literals(self):
        assert parse_dist("U(-0.05,0.05)") == Uniform(-0.05, 0.05)
        assert parse_dist("N(0, 0.05)") == Normal(0.0, 0.05)
        assert parse_dist("uniform(0.05, 0.15)") == Uniform(0.05, 0.15)
        assert parse_dist("normal(0.5, 1)") == Normal(0.5, 1.0)

    def test_objects_and_passthrough(self):
        assert parse_dist({"kind": "uniform", "low": -1, "high": 1}) == Uniform(-1, 1)
        assert parse_dist(None) is None
        d = Normal(0, 1)
        assert parse_dist(d) is d

    def test_rejects_garbage(self):
        for bad in ("U(1)", "poisson(2,3)", "U(5,5)", {"kind": "beta"}, 42,
                    "U(a,0.1)", "N(0,x)", "N(nan,1)", "U(0,inf)", "N(0,-inf)",
                    {"kind": "normal", "mean": float("nan"), "std": 1},
                    {"kind": "uniform", "low": 0, "high": float("inf")}):
            with pytest.raises(ConfigError):
                parse_dist(bad)


class TestConfigDigest:
    def _digest(self, cfg):
        dist = cfg.dist if cfg.dist is not None else fan_in_uniform(144)
        return config_digest(resolved_config_dict(cfg, dist))

    @pytest.mark.parametrize("method,run_id", [("ransnn", "0c37b989746a1b08"),
                                               ("sg", "90d9186318fc3a6a")])
    def test_default_run_ids_are_pinned(self, method, run_id):
        # The run_ids of the default MNIST config at seed 1234, recorded
        # before the config parser checked field types.
        cfg = config_from_dict({"seed": 1234, "method": method})
        assert config_digest(resolved_config_dict(cfg, fan_in_uniform(784))) == run_id

    def test_identical_configs_share_digest(self):
        assert self._digest(tiny_config()) == self._digest(tiny_config())

    def test_every_semantic_field_changes_digest(self):
        base = tiny_config()
        variants = [
            tiny_config(dataset="kmnist"),
            tiny_config(method="sg"),
            tiny_config(hidden_sizes=[31]),
            tiny_config(beta=0.5),
            tiny_config(u_thr=1.2),
            tiny_config(time_steps=9),
            tiny_config(dist="U(-0.1,0.1)"),
            tiny_config(train_batches=7),
            tiny_config(test_batches=3),
            tiny_config(batch_size=8),
            tiny_config(seed=124),
            tiny_config(adam={"lr": 2e-3}),
        ]
        digests = {self._digest(v) for v in variants}
        assert self._digest(base) not in digests
        assert len(digests) == len(variants)

    def test_paths_do_not_affect_digest(self):
        moved = tiny_config(paths={"train_images": "/elsewhere/img"})
        assert self._digest(tiny_config()) == self._digest(moved)


class TestRunExperiment:
    def test_ransnn_end_to_end(self, use_data_dir):
        rec = run_experiment(tiny_config())
        assert rec.dataset == "mnist" and rec.method == "ransnn"
        assert len(rec.metrics) == 6
        assert rec.final_accuracy > 0.5  # easy synthetic blobs
        assert rec.total_seconds >= rec.feature_extraction_seconds + rec.training_seconds
        assert rec.training_seconds > 0 and rec.feature_extraction_seconds > 0

    def test_deterministic_apart_from_wall_clock(self, use_data_dir):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.run_id == b.run_id
        assert a.final_accuracy == b.final_accuracy
        for ma, mb in zip(a.metrics, b.metrics):
            assert (ma.iteration, ma.train_accuracy, ma.test_accuracy, ma.loss) == \
                   (mb.iteration, mb.train_accuracy, mb.test_accuracy, mb.loss)

    def test_sg_end_to_end(self, use_data_dir):
        rec = run_experiment(tiny_config(method="sg"))
        assert rec.method == "sg"
        assert rec.feature_extraction_seconds == 0.0
        assert rec.training_seconds > 0
        assert rec.metrics[-1].iteration == 6
        assert 0.0 <= rec.final_accuracy <= 1.0

    def test_more_batches_than_a_split_holds_is_a_config_error(self, use_data_dir):
        # The synthetic train split holds 192 samples: 12 batches of 16.
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(train_batches=13))
        with pytest.raises(ConfigError):
            run_experiment(tiny_config(method="sg", test_batches=7))

    def test_missing_files_raise_file_not_found(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANSNN_DATA_DIR", str(tmp_path))
        with pytest.raises(FileNotFoundError):
            run_experiment(tiny_config())

    def test_feature_cache_reuse_is_bit_identical(self, use_data_dir, tmp_path):
        cache_dir = tmp_path / "caches"
        first = run_experiment(tiny_config(), cache_dir=cache_dir)
        assert any(cache_dir.iterdir())
        second = run_experiment(tiny_config(), cache_dir=cache_dir)
        assert first.final_accuracy == second.final_accuracy
        assert [m.loss for m in first.metrics] == [m.loss for m in second.metrics]


    def test_cache_keyed_by_selection(self, use_data_dir, tmp_path):
        # A 4-batch and then an 8-batch run share a cache_dir; each must
        # equal its cold run instead of reusing the other's train features.
        cache_dir = tmp_path / "caches"
        for batches in (4, 8):
            cfg = tiny_config(train_batches=batches)
            warm, cold = run_experiment(cfg, cache_dir=cache_dir), run_experiment(cfg)
            assert warm.metrics[-1].iteration == batches
            assert _curve(warm) == _curve(cold)

    def test_cache_hit_does_not_sample_weights(self, use_data_dir, tmp_path, monkeypatch):
        cache_dir = tmp_path / "caches"
        cold = run_experiment(tiny_config(), cache_dir=cache_dir)

        def no_weights(*_args, **_kwargs):
            raise AssertionError("weights sampled although every split hit the cache")

        monkeypatch.setattr("ransnn.harness.init_weights", no_weights)
        assert _curve(run_experiment(tiny_config(), cache_dir=cache_dir)) == _curve(cold)


def _curve(record):
    return record.final_accuracy, [(m.iteration, m.train_accuracy, m.test_accuracy, m.loss)
                                   for m in record.metrics]


def _write_mnist(root, train_seed, test_seed):
    """Files shaped like the data_dir fixture's under root/mnist, drawn from
    the two seeds; other seeds give other bytes of the same shape."""
    mnist = root / "mnist"
    mnist.mkdir(parents=True, exist_ok=True)
    write_dataset_idx(blob_dataset(3, 64, side=12, seed=train_seed), 12, mnist, "train",
                      gz=True)
    write_dataset_idx(blob_dataset(3, 32, side=12, seed=test_seed), 12, mnist, "t10k")
    return mnist


def _count_image_decodes(monkeypatch) -> list:
    """Patch idx.parse_idx to record the thread of every rank-3 (image)
    tensor it decodes; returns that list."""
    import ransnn.idx

    decodes, real = [], ransnn.idx.parse_idx

    def counting(data):
        tensor = real(data)
        if len(tensor.dims) == 3:
            decodes.append(threading.get_ident())
        return tensor

    monkeypatch.setattr(ransnn.idx, "parse_idx", counting)
    return decodes


class TestDatasetFingerprint:
    def test_replaced_files_are_not_served_from_stale_caches(self, tmp_path, monkeypatch):
        # The same paths and cache_dir, new bytes of the same shape: the
        # second run re-extracts and equals a fresh run on the new files.
        monkeypatch.setenv("RANSNN_DATA_DIR", str(tmp_path / "data"))
        cache_dir = tmp_path / "caches"
        _write_mnist(tmp_path / "data", 1, 2)
        before = run_experiment(tiny_config(), cache_dir=cache_dir)
        _write_mnist(tmp_path / "data", 5, 6)
        after = run_experiment(tiny_config(), cache_dir=cache_dir)
        assert _curve(after) == _curve(run_experiment(tiny_config()))
        assert _curve(after) != _curve(before)
        assert len(list(cache_dir.glob("*.rsnnfc"))) == 4

    def test_warm_run_decodes_no_image(self, use_data_dir, tmp_path, monkeypatch):
        monkeypatch.setattr("ransnn.network.worker_count", lambda: 2)
        decodes = _count_image_decodes(monkeypatch)
        cold = run_experiment(tiny_config(), cache_dir=tmp_path)
        # One decode per split, on the calling thread.
        assert decodes == [threading.get_ident()] * 2
        warm = run_experiment(tiny_config(), cache_dir=tmp_path)
        assert len(decodes) == 2
        assert _curve(warm) == _curve(cold)
        run_experiment(tiny_config(method="sg"))
        assert decodes == [threading.get_ident()] * 4

    def test_readout_trains_after_the_datasets_are_freed(self, use_data_dir, tmp_path,
                                                        monkeypatch):
        # Once the caches are extracted or read, nothing holds either split's
        # dataset, so its decoded images (or its stored bytes, on a warm
        # run) are freed before train_readout starts.
        import ransnn.idx

        decoded, datasets = [], []
        real_parse, real_load, real_train = (ransnn.idx.parse_idx, harness.load_dataset,
                                             harness.train_readout)

        def parse(data):
            tensor = real_parse(data)
            if len(tensor.dims) == 3:
                decoded.append(weakref.ref(tensor.data))
            return tensor

        def load(*args):
            dataset = real_load(*args)
            datasets.append(weakref.ref(dataset))
            return dataset

        def train(*args, **kwargs):
            assert datasets and all(ref() is None for ref in datasets + decoded)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(ransnn.idx, "parse_idx", parse)
        monkeypatch.setattr(harness, "load_dataset", load)
        monkeypatch.setattr(harness, "train_readout", train)
        cold = run_experiment(tiny_config(), cache_dir=tmp_path)
        assert len(decoded) == 2 and len(datasets) == 2
        warm = run_experiment(tiny_config(), cache_dir=tmp_path)
        assert len(decoded) == 2 and len(datasets) == 4
        assert _curve(warm) == _curve(cold)

    def test_fingerprint_covers_the_bytes_as_stored(self, tmp_path):
        ds = blob_dataset(3, 10, side=12, seed=1)
        raw = write_dataset_idx(ds, 12, tmp_path, "raw")
        zipped = write_dataset_idx(ds, 12, tmp_path, "zipped", gz=True)
        other = write_dataset_idx(blob_dataset(3, 10, side=12, seed=2), 12, tmp_path, "other")
        fingerprints = [load_dataset(*paths, num_classes=3).fingerprint
                        for paths in (raw, raw, zipped, other)]
        assert fingerprints[0] == fingerprints[1]
        assert len(set(fingerprints)) == 3
        # Labels count too.
        images, labels = raw
        relabelled = ds.labels.copy()
        relabelled[0] = (relabelled[0] + 1) % 3
        write_dataset_idx(replace(ds, labels=relabelled), 12, tmp_path, "relabelled")
        assert load_dataset(images, tmp_path / "relabelled-labels-idx1-ubyte",
                            num_classes=3).fingerprint != fingerprints[0]

    @pytest.mark.parametrize("name,damage", [
        ("train-images-idx3-ubyte.gz", "flip"), ("train-images-idx3-ubyte.gz", "wide"),
        ("t10k-images-idx3-ubyte", "wide")])
    def test_corrupt_image_file_exits_2_with_and_without_a_warm_cache(
            self, tmp_path, monkeypatch, capsys, name, damage):
        # "flip" flips a byte in the middle of the gzip stream; "wide" sets
        # the cols extent to 0x0C0C for 0x0C, which fails at load, before
        # the batches or any weights are made.
        monkeypatch.setenv("RANSNN_DATA_DIR", str(tmp_path / "data"))
        images = _write_mnist(tmp_path / "data", 1, 2) / name
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TINY))
        warm = ["run", "--config", str(cfg), "--cache-dir", str(tmp_path / "caches")]
        assert main(warm) == 0
        gz = name.endswith(".gz")
        damaged = bytearray(images.read_bytes())
        if damage == "flip":
            damaged[len(damaged) // 2] ^= 0xFF
        else:
            damaged = bytearray(gzip.decompress(damaged)) if gz else damaged
            damaged[14] = 0x0C
            damaged = gzip.compress(damaged) if gz else damaged
        images.write_bytes(bytes(damaged))
        batches = []
        monkeypatch.setattr(harness, "make_batches",
                            lambda *args: batches.append(args) or make_batches(*args))
        capsys.readouterr()
        for argv in (warm, warm[:3]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("parse error:")
        assert (batches == []) == (damage == "wide")


# One short SG training (every iteration on the curve) and one extraction
# into a cache_dir, printing the curves as hex floats and the cache bytes.
_THREADS_SCRIPT = """
import hashlib, sys
from pathlib import Path
from ransnn import sg
from ransnn.harness import config_from_dict, run_experiment
sg.EVAL_EVERY = 1
cfg = {"hidden_sizes": [2000], "time_steps": 10, "train_batches": 3, "test_batches": 1,
       "batch_size": 32, "seed": 5}
for method in ("sg", "ransnn"):
    rec = run_experiment(config_from_dict({**cfg, "method": method}), cache_dir=sys.argv[1])
    print([(m.loss.hex(), m.train_accuracy.hex(), m.test_accuracy.hex()) for m in rec.metrics])
for path in sorted(Path(sys.argv[1]).iterdir()):
    print(path.name, hashlib.sha256(path.read_bytes()).hexdigest())
"""


class TestBlasThreads:
    def test_record_names_numpy_blas_and_workers(self, use_data_dir):
        lib = openblas()
        threads_before = lib.scipy_openblas_get_num_threads64_() if lib else None
        rec = run_experiment(tiny_config())
        assert rec.numpy_version == np.__version__
        if lib is None:
            assert (rec.blas_threads, rec.workers) == ("unpinned", 1)
        else:
            assert (rec.blas_threads, rec.workers) == (1, len(os.sched_getaffinity(0)))
            assert rec.blas_config.startswith("OpenBLAS") and rec.blas_core
            assert lib.scipy_openblas_get_num_threads64_() == threads_before

    def test_missing_symbols_recorded_as_unpinned(self, use_data_dir, monkeypatch):
        # Without OpenBLAS's thread count, the parts keep to the calling
        # thread rather than compete with BLAS threads for the cores.
        monkeypatch.setattr(harness, "openblas", lambda: None)
        monkeypatch.setattr("ransnn.network.openblas", lambda: None)
        rec = run_experiment(tiny_config())
        assert (rec.blas_threads, rec.blas_config, rec.blas_core) == ("unpinned", None, None)
        assert rec.workers == 1

    def test_blas_thread_count_changes_no_bit(self, tmp_path):
        # Unpinned, two OpenBLAS threads give this training other last bits
        # on a host with two or more CPUs.
        mnist = tmp_path / "data" / "mnist"
        mnist.mkdir(parents=True)
        write_dataset_idx(blob_dataset(10, 40, side=28, seed=1), 28, mnist, "train")
        write_dataset_idx(blob_dataset(10, 4, side=28, seed=2), 28, mnist, "t10k")
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "RANSNN_DATA_DIR": str(tmp_path / "data"),
                   "PYTHONPATH": str(Path(harness.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT,
                                   str(tmp_path / f"caches-{threads}")],
                                  env=env, capture_output=True, text=True, check=True,
                                  timeout=300)
            outputs.append(done.stdout)
        assert outputs[0].count(".rsnnfc") == 2
        assert outputs[0] == outputs[1]

    def test_bench_sites_run_only_on_the_calling_thread(self, use_data_dir, monkeypatch):
        # The bench traces these names with one span stack, which a call
        # from a pool thread would corrupt. Extraction, the time_steps fill
        # and train_sg run with two workers, and the first simulations wait
        # so that the pool thread takes a part.
        import ransnn.network
        import ransnn.readout
        import ransnn.sg

        monkeypatch.setattr(ransnn.network, "worker_count", lambda: 2)
        callers, kernel_threads = set(), set()
        sites = [(ransnn.readout, "encode_sample"), (ransnn.readout, "simulate_forward"),
                 (ransnn.readout, "adam_step"), (ransnn.sg, "encode_sample"),
                 (ransnn.sg, "bptt_backward"), (ransnn.sg, "adam_step"),
                 (ransnn.sg, "evaluate_sg")]
        for module, name in sites:
            def recorder(*args, real=getattr(module, name), **kwargs):
                callers.add(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, recorder)
        real_stack = ransnn.network.lif_stack

        def slow_stack(*args, **kwargs):
            kernel_threads.add(threading.get_ident())
            if len(kernel_threads) < 2:
                time.sleep(0.02)
            return real_stack(*args, **kwargs)

        monkeypatch.setattr(ransnn.network, "lif_stack", slow_stack)
        run_experiment(tiny_config())
        run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=(4, 6), repeats=1))
        run_experiment(tiny_config(method="sg"))
        assert len(kernel_threads) >= 2
        assert callers == {threading.get_ident()}


class TestLibraryExample:
    def test_readme_composition_reproduces_the_run(self, use_data_dir, tmp_path,
                                                   monkeypatch):
        # The README's library example, at TINY's settings on the synthetic
        # data, builds the run's own caches: the test split is encoded from
        # the test streams, and each split is named by its files'
        # fingerprint, as in a run. The second case, 2,000 hidden neurons
        # at batch 64 on more samples, is a shape where OpenBLAS's default
        # thread count changes a bit of the curve, so without the example's
        # one_blas_thread it fails on a host with 2 or more CPUs. On one CPU
        # OpenBLAS runs one thread anyway, and that case cannot fail there.
        self._compose_and_run(use_data_dir, tiny_config(), tmp_path / "tiny")
        wide = tmp_path / "wide"
        mnist = wide / "mnist"
        mnist.mkdir(parents=True)
        write_dataset_idx(blob_dataset(3, 200, side=12, seed=1), 12, mnist, "train",
                          gz=True)
        write_dataset_idx(blob_dataset(3, 100, side=12, seed=2), 12, mnist, "t10k")
        monkeypatch.setenv("RANSNN_DATA_DIR", str(wide))
        self._compose_and_run(wide, tiny_config(hidden_sizes=[2000], batch_size=64,
                                                train_batches=8, test_batches=2),
                              tmp_path / "wide-caches")

    @staticmethod
    def _compose_and_run(data_root, cfg, cache_dir):
        from ransnn import (ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM, AdamConfig, LifParams,
                            evaluate, extract_features, fan_in_uniform, init_weights,
                            load_dataset, make_batches, one_blas_thread, train_readout)

        mnist = data_root / "mnist"
        train = load_dataset(mnist / "train-images-idx3-ubyte.gz",
                             mnist / "train-labels-idx1-ubyte.gz", num_classes=10)
        test = load_dataset(mnist / "t10k-images-idx3-ubyte",
                            mnist / "t10k-labels-idx1-ubyte", num_classes=10)
        with one_blas_thread():
            net = init_weights([144, *cfg.hidden_sizes], fan_in_uniform(144), seed=cfg.seed,
                               lif=LifParams(beta=0.95, u_thr=1.0))
            sel_train = make_batches(train, cfg.batch_size, cfg.train_batches, seed=cfg.seed)
            sel_test = make_batches(test, cfg.batch_size, cfg.test_batches, seed=cfg.seed)
            cache_train = extract_features(net, 8, train, cfg.seed, indices=sel_train,
                                           stream_base=ENCODE_TRAIN_STREAM,
                                           dataset_id=f"mnist/train:{train.fingerprint}")
            cache_test = extract_features(net, 8, test, cfg.seed, indices=sel_test,
                                          stream_base=ENCODE_TEST_STREAM,
                                          dataset_id=f"mnist/test:{test.fingerprint}")
            model, curve = train_readout(cache_train, cache_test, adam=AdamConfig(),
                                         batch_size=cfg.batch_size, num_classes=10)
            accuracy = evaluate(model, cache_test)

        record = run_experiment(cfg, cache_dir=cache_dir)
        for cache in (cache_train, cache_test):
            ran = FeatureCache.load(cache_dir / f"{cache.source_config_digest:016x}.rsnnfc")
            assert np.array_equal(ran.features, cache.features)
        assert (accuracy, [(m.iteration, m.train_accuracy, m.test_accuracy, m.loss)
                           for m in curve]) == _curve(record)


class TestCompareMethods:
    def test_shared_seed_gives_identical_hidden_weights(self):
        dist = fan_in_uniform(144)
        net = init_weights([144, 30], dist, seed=123)
        sgm = init_sg_model(144, 30, 10, seed=123, dist=dist)
        assert np.array_equal(net.weights[0], sgm.w_hidden)

    def test_comparison_runs_both_methods(self, use_data_dir):
        cmp = compare_methods(tiny_config())
        assert cmp.ransnn.method == "ransnn" and cmp.sg.method == "sg"
        assert cmp.speedup == pytest.approx(
            cmp.sg.training_seconds / cmp.ransnn.training_seconds)

    def test_end_to_end_speedup_counts_feature_extraction(self, use_data_dir):
        cmp = compare_methods(tiny_config())
        readout_seconds = (cmp.ransnn.feature_extraction_seconds
                           + cmp.ransnn.training_seconds)
        assert cmp.speedup_end_to_end == pytest.approx(
            cmp.sg.training_seconds / readout_seconds)
        assert cmp.speedup_end_to_end < cmp.speedup

    def test_both_configs_are_validated_before_the_first_run(self, use_data_dir,
                                                             monkeypatch):
        # Two hidden layers suit the readout but not the baseline.
        def no_run(*_args, **_kwargs):
            raise AssertionError("a run started before both configs were validated")

        for name in ("load_dataset", "extract_features", "count_spikes", "init_weights"):
            monkeypatch.setattr(f"ransnn.harness.{name}", no_run)
        with pytest.raises(ConfigError, match="one hidden layer"):
            compare_methods(tiny_config(hidden_sizes=[50, 50]))


class TestRunSweep:
    def test_sweep_varies_only_the_parameter_and_seed(self, use_data_dir):
        sweep = SweepSpec(parameter="hidden_size", values=(10, 20), repeats=2)
        records = run_sweep(tiny_config(), sweep)
        assert len(records) == 4
        assert len({r.run_id for r in records}) == 4
        for rec, expect_h in zip(records, (10, 10, 20, 20)):
            assert rec.config["hidden_sizes"] == [expect_h]
        base = records[0].config
        for rec, expect_seed in zip(records, (123, 124, 123, 124)):
            assert rec.config["seed"] == expect_seed
            changed = {k for k in base if rec.config[k] != base[k]}
            assert changed <= {"hidden_sizes", "seed", "dist"}

    def test_dist_param_sweep(self, use_data_dir):
        sweep = SweepSpec(parameter="dist_param",
                          values=("U(-0.2,0.2)", "N(0,0.2)"), repeats=1)
        records = run_sweep(tiny_config(), sweep)
        assert records[0].config["dist"] == {"kind": "uniform", "low": -0.2,
                                             "high": 0.2}
        assert records[1].config["dist"] == {"kind": "normal", "mean": 0.0,
                                             "std": 0.2}

    def test_summary_groups_by_value(self, use_data_dir):
        sweep = SweepSpec(parameter="time_steps", values=(4, 8), repeats=2)
        records = run_sweep(tiny_config(), sweep)
        summary = summarize_sweep(records, sweep)
        assert [row["value"] for row in summary] == ["4", "8"]
        for i, row in enumerate(summary):
            accs = [r.final_accuracy for r in records[2 * i:2 * i + 2]]
            assert row["mean_accuracy"] == pytest.approx(np.mean(accs))
            assert row["runs"] == 2

    def test_time_steps_sweep_equals_per_value_runs(self, use_data_dir):
        sweep = SweepSpec(parameter="time_steps", values=(4, 8), repeats=2)
        records = run_sweep(tiny_config(), sweep)
        expected = [run_experiment(replace(tiny_config(time_steps=t), seed=123 + r))
                    for t in (4, 8) for r in range(2)]
        assert [r.run_id for r in records] == [r.run_id for r in expected]
        assert [r.config for r in records] == [r.config for r in expected]
        assert [_curve(r) for r in records] == [_curve(r) for r in expected]

    @staticmethod
    def _count_simulations(monkeypatch):
        import ransnn.network

        # The window of every extraction unit's simulation, on any thread.
        steps = []
        real = ransnn.network.lif_stack

        def counting(x, *args, **kwargs):
            steps.append(x.shape[1])
            return real(x, *args, **kwargs)

        monkeypatch.setattr(ransnn.network, "lif_stack", counting)
        return steps

    def test_time_steps_sweep_simulates_once_per_seed(self, use_data_dir, monkeypatch):
        steps = self._count_simulations(monkeypatch)
        run_experiment(tiny_config())
        per_run = len(steps)
        steps.clear()
        run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=(4, 8, 6),
                                           repeats=2))
        assert steps == [8] * (2 * per_run)

    def test_warm_sweep_does_not_simulate(self, use_data_dir, tmp_path, monkeypatch):
        sweep = SweepSpec(parameter="time_steps", values=(4, 8), repeats=2)
        cold = run_sweep(tiny_config(), sweep, cache_dir=tmp_path / "caches")
        assert len(list((tmp_path / "caches").iterdir())) == 8
        steps = self._count_simulations(monkeypatch)

        def no_weights(*_args, **_kwargs):
            raise AssertionError("weights sampled although every cache was on disk")

        monkeypatch.setattr("ransnn.harness.init_weights", no_weights)
        warm = run_sweep(tiny_config(), sweep, cache_dir=tmp_path / "caches")
        assert steps == []
        assert [_curve(r) for r in warm] == [_curve(r) for r in cold]

    def test_fill_extracts_only_the_windows_not_on_disk(self, use_data_dir, tmp_path,
                                                         monkeypatch):
        run_experiment(tiny_config(time_steps=8), cache_dir=tmp_path)
        steps = self._count_simulations(monkeypatch)
        run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=(4, 8), repeats=1),
                  cache_dir=tmp_path)
        assert steps and set(steps) == {4}
        assert len(list(tmp_path.iterdir())) == 4

    def test_fill_writes_each_window_as_a_direct_extraction(self, use_data_dir, tmp_path):
        # One simulation per split at the longest window writes a cache per
        # split and window, named by the digest it carries and equal to
        # extract_features at its window in counts, labels and digest.
        cfg = tiny_config().validate()
        harness._fill_time_steps(cfg, (4, 8, 6), tmp_path)
        files = sorted(tmp_path.iterdir())
        assert len(files) == 6
        for path in files:
            cache = FeatureCache.load(path)
            assert path.name == f"{cache.source_config_digest:016x}.rsnnfc"
        run = harness._set_up(cfg)
        net = init_weights(run.sizes, run.dist, cfg.seed, lif=run.lif)
        for split in (run.train, run.test):
            for t in (4, 6, 8):
                direct = extract_features(net, t, split.dataset, cfg.seed,
                                          indices=split.indices, stream_base=split.stream_base,
                                          dataset_id=split.dataset_id)
                cache = FeatureCache.load(tmp_path / f"{direct.source_config_digest:016x}.rsnnfc",
                                          expected_digest=direct.source_config_digest)
                assert cache.time_steps == t
                assert direct.features.any()
                assert np.array_equal(cache.features, direct.features)
                assert np.array_equal(cache.labels, direct.labels)

    def test_sweep_without_cache_dir_leaves_no_files(self, use_data_dir, tmp_path,
                                                     monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=(4, 8), repeats=1))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("values", [(4, 8), (8, 4, 8)])
    def test_each_repeat_fills_a_temporary_directory_of_its_own(
            self, use_data_dir, monkeypatch, values):
        import ransnn.harness

        real_run, real_load = ransnn.harness.run_experiment, FeatureCache.load
        dirs, held, read = [], [], []

        def listing_run(cfg, cache_dir=None):
            dirs.append(cache_dir)
            held.append({path.name for path in Path(cache_dir).iterdir()})
            read.append(set())
            return real_run(cfg, cache_dir=cache_dir)

        def recording_load(path, **kwargs):
            read[-1].add(Path(path).name)
            return real_load(path, **kwargs)

        def no_extract(*_args, **_kwargs):
            raise AssertionError("a run found no cache of its own")

        monkeypatch.setattr(ransnn.harness, "run_experiment", listing_run)
        monkeypatch.setattr(FeatureCache, "load", recording_load)
        monkeypatch.setattr(ransnn.harness, "extract_features", no_extract)
        run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=values, repeats=2))
        # The runs go repeat by repeat, each reading its train and test cache.
        n = len(values)
        assert len(read) == 2 * n and all(len(now) == 2 for now in read)
        for r in range(2):
            runs = range(r * n, (r + 1) * n)
            repeat_reads = set().union(*(read[i] for i in runs))
            assert len({dirs[i] for i in runs}) == 1
            for i in runs:
                assert read[i] <= held[i] <= repeat_reads
                assert len(held[i]) <= 2 * len(set(values))
        assert dirs[0] != dirs[n]

    def test_fill_seconds_count_towards_the_first_record_of_each_seed(self, use_data_dir,
                                                                      monkeypatch):
        import ransnn.harness

        real = ransnn.harness._fill_time_steps

        def slow_fill(*args):
            time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(ransnn.harness, "_fill_time_steps", slow_fill)
        records = run_sweep(tiny_config(), SweepSpec(parameter="time_steps", values=(4, 8),
                                                     repeats=2))
        for first in records[:2]:
            assert first.feature_extraction_seconds >= 0.2
            assert first.total_seconds >= (first.feature_extraction_seconds
                                           + first.training_seconds)
        for later in records[2:]:
            assert later.feature_extraction_seconds < 0.2

    @pytest.mark.parametrize("parameter,values", [("time_steps", (8, 0)),
                                                  ("hidden_size", (10, 0)),
                                                  ("beta", (0.5, 1.5))])
    def test_every_swept_config_is_validated_before_the_first_run(
            self, use_data_dir, monkeypatch, parameter, values):
        def no_run(*_args, **_kwargs):
            raise AssertionError("a run started before every config was validated")

        for name in ("extract_features", "count_spikes", "init_weights", "load_dataset"):
            monkeypatch.setattr(f"ransnn.harness.{name}", no_run)
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(), SweepSpec(parameter=parameter, values=values,
                                               repeats=2))

    # A count must be an integer and no bool, as in a config file, and a
    # string must parse; each fails before any data is read.
    @pytest.mark.parametrize("parameter,value", [("hidden_size", 2.5), ("time_steps", 10.9),
                                                 ("time_steps", True), ("time_steps", "abc")])
    def test_mistyped_sweep_value_is_a_config_error_before_any_data_is_read(
            self, use_data_dir, monkeypatch, parameter, value):
        loads = []

        def counting_load(*args, **kwargs):
            loads.append(args)
            return load_dataset(*args, **kwargs)

        monkeypatch.setattr("ransnn.harness.load_dataset", counting_load)
        with pytest.raises(ConfigError):
            run_sweep(tiny_config(), SweepSpec(parameter=parameter, values=(8, value),
                                               repeats=1))
        assert loads == []

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SweepSpec(parameter="learning_rate", values=(1,))
        with pytest.raises(ConfigError):
            SweepSpec(parameter="beta", values=())
        with pytest.raises(ConfigError):
            SweepSpec(parameter="beta", values=(0.5,), repeats=0)
        for repeats in (2.5, True):
            with pytest.raises(ConfigError, match="repeats"):
                SweepSpec(parameter="beta", values=(0.5,), repeats=repeats)

    def test_hidden_size_sweep_needs_one_hidden_layer(self):
        cfg = tiny_config(hidden_sizes=[30, 20])
        with pytest.raises(ConfigError, match="one hidden layer"):
            apply_sweep_value(cfg, "hidden_size", 64)
        assert apply_sweep_value(cfg, "beta", 0.5).hidden_sizes == (30, 20)

    def test_apply_sweep_value(self):
        cfg = tiny_config()
        assert apply_sweep_value(cfg, "beta", 0.5).beta == 0.5
        assert apply_sweep_value(cfg, "hidden_size", 64).hidden_sizes == (64,)
        assert apply_sweep_value(cfg, "time_steps", 5).time_steps == 5
        assert apply_sweep_value(cfg, "dist_param", "N(0,1)").dist == Normal(0, 1)
        # The CLI's strings, and integral floats as a config file takes them.
        assert apply_sweep_value(cfg, "beta", "0.5").beta == 0.5
        assert apply_sweep_value(cfg, "hidden_size", "64").hidden_sizes == (64,)
        assert apply_sweep_value(cfg, "time_steps", "5").time_steps == 5
        assert type(apply_sweep_value(cfg, "time_steps", 5.0).time_steps) is int


class TestEmitMetrics:
    def _records(self, use_data_dir):
        return [run_experiment(tiny_config())]

    def test_csv_shape_and_header(self, use_data_dir, tmp_path):
        records = self._records(use_data_dir)
        out = tmp_path / "metrics.csv"
        emit_metrics(records, out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "dataset", "method", "iteration",
                           "train_acc", "test_acc", "loss", "elapsed_s"]
        assert len(rows) == 1 + sum(len(r.metrics) for r in records)
        assert rows[1][0] == records[0].run_id
        assert float(rows[1][6]) == records[0].metrics[0].loss

    def test_json_round_trip(self, use_data_dir, tmp_path):
        records = self._records(use_data_dir)
        out = tmp_path / "metrics.json"
        emit_metrics(records, out)
        with open(out) as fh:
            parsed = json.load(fh)
        assert parsed == [dataclasses.asdict(r) for r in records]

    def test_unwritable_path_raises_oserror(self, use_data_dir, tmp_path):
        with pytest.raises(OSError):
            emit_metrics(self._records(use_data_dir),
                         tmp_path / "missing" / "metrics.csv")


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, **overrides}))
        return str(path)

    def test_run_writes_metrics(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "m.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        assert "accuracy=" in capsys.readouterr().out

    def test_run_shows_extraction_progress_on_stderr(self, use_data_dir, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr("ransnn.network.PROGRESS_SECONDS", 0.0)
        assert main(["run", "--config", self._write_config(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "spike counts: " in captured.err and "spike counts" not in captured.out
        # The handler goes with the call.
        assert not logging.getLogger("ransnn").handlers

    def test_seed_flag_overrides_config(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path, seed=None)
        assert main(["run", "--config", cfg]) == 1  # no seed anywhere
        assert main(["run", "--config", cfg, "--seed", "7"]) == 0

    def test_config_error_exit_code(self, use_data_dir, tmp_path):
        cfg = self._write_config(tmp_path, dataset="imagenet")
        assert main(["run", "--config", cfg]) == 1
        cfg = self._write_config(tmp_path, adam={"eps": 0})
        assert main(["run", "--config", cfg]) == 1

    def test_integer_too_large_for_a_float_field_is_a_config_error(self, use_data_dir,
                                                                      tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(TINY)[:-1] + ', "beta": 1' + "0" * 400 + "}")
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: beta") and "Traceback" not in err

    def test_unknown_field_exit_code(self, use_data_dir, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**TINY, "nonsense": 1}))
        assert main(["run", "--config", str(path)]) == 1
        path.write_text(json.dumps({**TINY, "adam": {"lr": 0.01, "momentum": 0.9}}))
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("override", [{"hidden_sizes": "12"}, {"hidden_sizes": 12},
                                          {"time_steps": "25"}, {"beta": "0.9"},
                                          {"train_batches": 2.5}, {"seed": True},
                                          {"batch_size": None}, {"adam": {"lr": "0.01"}},
                                          {"dist": {"kind": "uniform", "low": "-0.1",
                                                    "high": True}},
                                          {"paths": {"train_images": 5}}])
    def test_mistyped_field_exit_code(self, use_data_dir, tmp_path, capsys, override):
        cfg = self._write_config(tmp_path, **override)
        assert main(["run", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_malformed_json_exit_code(self, use_data_dir, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_dataset_files_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANSNN_DATA_DIR", str(tmp_path / "nowhere"))
        cfg = self._write_config(tmp_path)
        assert main(["run", "--config", cfg]) == 2

    def test_sweep_cli(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", cfg, "--param", "hidden_size",
                     "--values", "10,20", "--repeats", "1", "--out", str(out)])
        assert code == 0
        assert "sweep over hidden_size" in capsys.readouterr().out
        assert len(json.loads(out.read_text())) == 2

    def test_hidden_size_sweep_of_a_deeper_net_exits_1_before_loading(
            self, use_data_dir, tmp_path, capsys, monkeypatch):
        def no_load(*_args, **_kwargs):
            raise AssertionError("data loaded for a sweep that cannot run")

        monkeypatch.setattr("ransnn.harness.load_dataset", no_load)
        cfg = self._write_config(tmp_path, hidden_sizes=[30, 20])
        assert main(["sweep", "--config", cfg, "--param", "hidden_size",
                     "--values", "10,20", "--repeats", "1"]) == 1
        assert "one hidden layer" in capsys.readouterr().err

    def test_compare_cli(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["compare", "--config", cfg]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_compare_cli_with_an_invalid_sg_half_exits_1_before_any_extraction(
            self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path, hidden_sizes=[50, 50])
        caches = tmp_path / "caches"
        assert main(["compare", "--config", cfg, "--cache-dir", str(caches)]) == 1
        assert "one hidden layer" in capsys.readouterr().err
        assert not list(caches.glob("*.rsnnfc"))

    def test_compare_cli_prints_both_speedups(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["compare", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "training speedup" in out and "end to end" in out

    def test_non_numeric_sweep_value_exit_code(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "hidden_size",
                     "--values", "10,wide", "--repeats", "1"]) == 1
        assert "config error:" in capsys.readouterr().err
        assert main(["sweep", "--config", cfg, "--param", "time_steps",
                     "--values", "25,abc", "--repeats", "1"]) == 1
        assert "config error:" in capsys.readouterr().err
        for values in ("10,,20", ",", "10,"):
            assert main(["sweep", "--config", cfg, "--param", "hidden_size",
                         "--values", values, "--repeats", "1"]) == 1
            assert "config error:" in capsys.readouterr().err

    # More batches than the 192-sample train split holds; more steps than a
    # u16 spike count holds.
    @pytest.mark.parametrize("override", [{"train_batches": 13}, {"time_steps": 70000}])
    def test_out_of_range_size_exit_code(self, use_data_dir, tmp_path, capsys, override):
        cfg = self._write_config(tmp_path, **override)
        assert main(["run", "--config", cfg]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_program_bug_is_not_reported_as_config_error(self, use_data_dir, tmp_path,
                                                         capsys, monkeypatch):
        def broken(*_args, **_kwargs):
            raise ValueError("a bug, not a configuration")

        monkeypatch.setattr("ransnn.cli.run_experiment", broken)
        cfg = self._write_config(tmp_path)
        with pytest.raises(ValueError):
            main(["run", "--config", cfg])
        assert "config error:" not in capsys.readouterr().err

    def test_program_bug_exits_3_with_its_traceback(self, tmp_path):
        # sitecustomize runs before `-m ransnn.cli` imports read_idx from
        # ransnn.idx, so the command calls the broken one.
        (tmp_path / "sitecustomize.py").write_text(
            "import ransnn.idx\n"
            "def broken(path):\n"
            "    raise RuntimeError('a bug, not a parse error')\n"
            "ransnn.idx.read_idx = broken\n")
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}
        done = subprocess.run([sys.executable, "-m", "ransnn.cli", "inspect-idx",
                               str(tmp_path / "missing.idx")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 3, done.stderr
        assert "Traceback" in done.stderr
        assert "RuntimeError: a bug, not a parse error" in done.stderr
        assert "error:" not in done.stderr.replace("RuntimeError:", "")

    @pytest.mark.parametrize("argv,dist", [
        (["sweep", "--param", "dist_param", "--values", "U(a,0.1)", "--repeats", "1"], None),
        (["run"], "N(0,x)"), (["run"], "N(nan,1)"), (["run"], "U(0,inf)")])
    def test_bad_distribution_exits_1_before_loading(self, use_data_dir, tmp_path, capsys,
                                                     monkeypatch, argv, dist):
        def no_load(*_args, **_kwargs):
            raise AssertionError("data loaded for a distribution that cannot be sampled")

        monkeypatch.setattr("ransnn.harness.load_dataset", no_load)
        cfg = self._write_config(tmp_path, **({} if dist is None else {"dist": dist}))
        assert main([*argv, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_invalid_sweep_value_exits_1_before_any_run(self, use_data_dir, tmp_path,
                                                        capsys, monkeypatch):
        def no_run(*_args, **_kwargs):
            raise AssertionError("a run started before every config was validated")

        monkeypatch.setattr("ransnn.harness.load_dataset", no_run)
        cfg = self._write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--param", "time_steps",
                     "--values", "25,0", "--repeats", "1"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_cache_dir_flag(self, use_data_dir, tmp_path, capsys, monkeypatch):
        cfg = self._write_config(tmp_path)
        caches = tmp_path / "caches"
        assert main(["run", "--config", cfg, "--cache-dir", str(caches)]) == 0
        assert len(list(caches.glob("*.rsnnfc"))) == 2
        capsys.readouterr()
        sweep = ["sweep", "--config", cfg, "--param", "time_steps", "--values", "4,8",
                 "--repeats", "1", "--cache-dir", str(caches)]
        assert main(sweep) == 0
        assert len(list(caches.glob("*.rsnnfc"))) == 4
        cold = capsys.readouterr().out

        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated although the caches were on disk")

        with monkeypatch.context() as mp:
            mp.setattr("ransnn.network.lif_stack", no_simulation)
            assert main(sweep) == 0
        warm = capsys.readouterr().out
        accuracies = [line.split()[2] for line in cold.splitlines() if "accuracy=" in line]
        assert accuracies == [line.split()[2] for line in warm.splitlines()
                              if "accuracy=" in line]
        # The SG half of compare counts its held-out spikes through network.
        assert main(["compare", "--config", cfg, "--cache-dir", str(caches)]) == 0

    def test_damaged_cache_exits_2(self, use_data_dir, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        caches = tmp_path / "caches"
        assert main(["run", "--config", cfg, "--cache-dir", str(caches)]) == 0
        damaged = sorted(caches.glob("*.rsnnfc"))[0]
        damaged.write_bytes(damaged.read_bytes()[:-10])
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--cache-dir", str(caches)]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    def test_inspect_idx(self, use_data_dir, capsys):
        path = use_data_dir / "mnist" / "train-images-idx3-ubyte.gz"
        assert main(["inspect-idx", str(path)]) == 0
        assert "dims=(192, 12, 12)" in capsys.readouterr().out

    def test_inspect_idx_malformed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad-idx"
        bad.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 16)
        assert main(["inspect-idx", str(bad)]) == 2
        assert main(["inspect-idx", str(tmp_path / "absent")]) == 2

    def test_split_values_respects_parens(self):
        assert _split_values("U(-0.05,0.05),N(0,0.05)") == ["U(-0.05,0.05)",
                                                            "N(0,0.05)"]
        assert _split_values("200,500,1000") == ["200", "500", "1000"]
        assert _split_values("10,,20") == ["10", "", "20"]
