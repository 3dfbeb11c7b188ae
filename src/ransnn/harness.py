"""Experiment harness: benchmark configuration, single runs, parameter
sweeps, method comparison, and metrics emission.

A run is fully determined by its configuration (including the seed), so
re-running one reproduces every number except wall-clock timings. Dataset
files are user-supplied IDX files, located either by explicit paths or under
the directory named by the RANSNN_DATA_DIR environment variable.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import numbers
import os
import re
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .idx import LabeledDataset, load_dataset, make_batches
from .network import (LifParams, Normal, Uniform, WeightDistribution, count_spikes,
                      fan_in_uniform, init_weights, one_blas_thread, openblas, worker_count)
from .numerics import AdamConfig, ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM
# Uncalled: evaluate stays for the bench site readout.evaluate
from .readout import (FeatureCache, IterationMetrics, evaluate,  # noqa: F401
                      extract_features, feature_digest, train_readout)
from .sg import init_sg_model, train_sg

METHODS = ("ransnn", "sg")
SWEEP_PARAMETERS = ("beta", "hidden_size", "time_steps", "dist_param")
DATA_DIR_ENV = "RANSNN_DATA_DIR"

_MNIST_STYLE_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
# Each dataset's class count and the standard names of its four IDX files.
_DATASETS = {
    "mnist": (10, _MNIST_STYLE_FILES),
    "fmnist": (10, _MNIST_STYLE_FILES),
    "kmnist": (10, _MNIST_STYLE_FILES),
    "emnist": (62, {
        "train_images": "emnist-byclass-train-images-idx3-ubyte",
        "train_labels": "emnist-byclass-train-labels-idx1-ubyte",
        "test_images": "emnist-byclass-test-images-idx3-ubyte",
        "test_labels": "emnist-byclass-test-labels-idx1-ubyte",
    }),
}
DATASETS = tuple(_DATASETS)


class ConfigError(ValueError):
    """A configuration that cannot describe a runnable experiment."""


@dataclass(frozen=True)
class DataPaths:
    """Explicit dataset file locations; unset roles fall back to the
    standard filenames under the data directory."""

    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run. Defaults reproduce the standard setup: one hidden
    layer of 2000 neurons, beta 0.95, threshold 1.0, 25 time steps, fan-in
    uniform weights, 400 train / 50 test batches of 128."""

    dataset: str = "mnist"
    method: str = "ransnn"
    hidden_sizes: tuple[int, ...] = (2000,)
    beta: float = 0.95
    u_thr: float = 1.0
    time_steps: int = 25
    dist: WeightDistribution | None = None  # None -> U(-sqrt(6/n_in), +sqrt(6/n_in))
    train_batches: int = 400
    test_batches: int = 50
    batch_size: int = 128
    seed: int | None = None
    adam: AdamConfig = AdamConfig()
    paths: DataPaths = DataPaths()

    def validate(self) -> ExperimentConfig:
        """Return this config with each number in its field's type (see
        _typed), so it runs and digests as its JSON twin does; raise
        ConfigError unless it describes a runnable experiment."""
        cfg = _typed(self)
        for name in ("lr", "eps"):
            if not 0 < getattr(cfg.adam, name) < np.inf:
                raise ConfigError(f"adam.{name} must be finite and > 0, "
                                  f"got {getattr(cfg.adam, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(cfg.adam, name) < 1:
                raise ConfigError(f"adam.{name} must lie in [0, 1), "
                                  f"got {getattr(cfg.adam, name)!r}")
        if cfg.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {cfg.dataset!r}, expected one of {DATASETS}")
        if cfg.method not in METHODS:
            raise ConfigError(f"unknown method {cfg.method!r}, expected one of {METHODS}")
        if not cfg.hidden_sizes or any(h < 1 for h in cfg.hidden_sizes):
            raise ConfigError(
                f"hidden_sizes must be nonempty positive ints, got {cfg.hidden_sizes}")
        if cfg.method == "sg" and len(cfg.hidden_sizes) != 1:
            raise ConfigError("the sg baseline supports exactly one hidden layer")
        try:
            LifParams(beta=cfg.beta, u_thr=cfg.u_thr)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 1 <= cfg.time_steps <= 0xFFFF:  # spike counts are stored as u16
            raise ConfigError(f"time_steps must lie in [1, 65535], got {cfg.time_steps}")
        if cfg.train_batches < 1 or cfg.test_batches < 1:
            raise ConfigError("train_batches and test_batches must be >= 1")
        if cfg.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {cfg.batch_size}")
        if cfg.seed is None:
            raise ConfigError("seed must be set (config file field or --seed)")
        return cfg


_DIST_LITERAL = re.compile(
    r"^\s*(U|N|uniform|normal)\s*\(\s*([^,()]+)\s*,\s*([^,()]+)\s*\)\s*$", re.IGNORECASE)


def parse_dist(value) -> WeightDistribution | None:
    """Accept a distribution as None, an instance, a literal like
    "U(-0.05,0.05)" / "N(0,0.05)", or a JSON object {"kind": ...}."""
    if value is None or isinstance(value, (Uniform, Normal)):
        return value
    if isinstance(value, str):
        m = _DIST_LITERAL.match(value)
        if not m:
            raise ConfigError(
                f"cannot parse distribution literal {value!r}; expected "
                "U(low,high) or N(mean,std)")
        try:
            a, b = float(m.group(2)), float(m.group(3))
            return Uniform(a, b) if m.group(1).lower()[0] == "u" else Normal(a, b)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(value, dict):
        kind = value.get("kind")
        try:
            if kind == "uniform":
                return Uniform(*(_number(f"dist.{k}", value[k], False) for k in ("low", "high")))
            if kind == "normal":
                return Normal(*(_number(f"dist.{k}", value[k], False) for k in ("mean", "std")))
        except KeyError as exc:
            raise ConfigError(f"distribution object missing field {exc}") from exc
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        raise ConfigError(f"distribution kind must be 'uniform' or 'normal', got {kind!r}")
    raise ConfigError(f"cannot interpret {value!r} as a weight distribution")


def dist_to_json(dist: WeightDistribution | None):
    if dist is None:
        return None
    if isinstance(dist, Uniform):
        return {"kind": "uniform", "low": dist.low, "high": dist.high}
    return {"kind": "normal", "mean": dist.mean, "std": dist.std}


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_INT_FIELDS = ("time_steps", "train_batches", "test_batches", "batch_size", "seed")
_FLOAT_FIELDS = ("beta", "u_thr")


def _number(name: str, value, integral: bool):
    """value as an int (which it must equal, if integral) or as a float;
    anything but a real number, booleans included, is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            integral and not isinstance(value, numbers.Integral)
            and not float(value).is_integer()):
        raise ConfigError(f"{name} must be {'an integer' if integral else 'a number'}, "
                          f"got {value!r}")
    try:
        return int(value) if integral else float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _floats(name: str, obj):
    """A dataclass of numbers, rebuilt with each field as a float."""
    return type(obj)(*(_number(f"{name}.{f.name}", getattr(obj, f.name), False)
                       for f in dataclasses.fields(obj)))


def _typed(cfg: ExperimentConfig) -> ExperimentConfig:
    """The one type rule of every config, however it was built: cfg with
    the counts and the seed as int (an integral float or a numpy integer is
    taken), beta, u_thr and the dist and adam values as float, and
    hidden_sizes as a tuple of ints. Any other value, booleans included, a
    dist, adam or paths of another class, and a path that is no string or
    None, is a ConfigError."""
    if not isinstance(cfg.hidden_sizes, (tuple, list)):
        raise ConfigError(f"hidden_sizes must be a list of integers, got {cfg.hidden_sizes!r}")
    for name, kinds, what in (
            ("dist", (Uniform, Normal, type(None)), "Uniform, Normal or None"),
            ("adam", AdamConfig, "an AdamConfig"), ("paths", DataPaths, "a DataPaths")):
        if not isinstance(getattr(cfg, name), kinds):
            raise ConfigError(f"{name} must be {what}, got {getattr(cfg, name)!r}")
    if not all(v is None or isinstance(v, str) for v in dataclasses.astuple(cfg.paths)):
        raise ConfigError(f"paths must be strings or None, got {cfg.paths!r}")
    typed = {name: _number(name, getattr(cfg, name), name in _INT_FIELDS)
             for name in _INT_FIELDS + _FLOAT_FIELDS if name != "seed" or cfg.seed is not None}
    return replace(cfg, **typed,
                   hidden_sizes=tuple(_number("hidden_sizes", h, True) for h in cfg.hidden_sizes),
                   dist=None if cfg.dist is None else _floats("dist", cfg.dist),
                   adam=_floats("adam", cfg.adam))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a flat mapping whose keys are exactly the
    ExperimentConfig field names, with adam and paths as mappings of their
    fields; unknown keys and mistyped values are rejected, and numbers take
    their field's type (see _typed). A null seed leaves it unset."""
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(data)
    if "dist" in kwargs:
        kwargs["dist"] = parse_dist(kwargs["dist"])
    for name, kind in (("adam", AdamConfig), ("paths", DataPaths)):
        if isinstance(kwargs.get(name), dict):
            bad = set(kwargs[name]) - {f.name for f in dataclasses.fields(kind)}
            if bad:
                raise ConfigError(f"unknown {name} fields: {sorted(bad)}")
            kwargs[name] = kind(**kwargs[name])
    return _typed(ExperimentConfig(**kwargs))


def config_from_file(path) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return config_from_dict(data)


def resolved_config_dict(cfg: ExperimentConfig, dist: WeightDistribution) -> dict:
    """The semantically meaningful fields, in field order, with the weight
    distribution made explicit; file locations are deliberately excluded so
    the same experiment digests identically on different machines."""
    resolved = dataclasses.asdict(cfg)
    del resolved["paths"]
    return {**resolved, "hidden_sizes": list(cfg.hidden_sizes), "dist": dist_to_json(dist)}


def config_digest(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()


def data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


def resolve_dataset_paths(cfg: ExperimentConfig) -> dict[str, Path]:
    """Locate the four IDX files for cfg.dataset.

    Explicit paths win; otherwise the standard filename (optionally .gz) is
    searched under <data_dir>/<dataset>/ and <data_dir>/.
    """
    base = data_dir()
    out: dict[str, Path] = {}
    for role, default_name in _DATASETS[cfg.dataset][1].items():
        explicit = getattr(cfg.paths, role)
        if explicit is not None:
            p = Path(explicit)
            if not p.exists():
                raise FileNotFoundError(f"{role} file not found: {p}")
            out[role] = p
            continue
        candidates = [base / cfg.dataset / default_name,
                      base / cfg.dataset / (default_name + ".gz"),
                      base / default_name,
                      base / (default_name + ".gz")]
        for cand in candidates:
            if cand.exists():
                out[role] = cand
                break
        else:
            raise FileNotFoundError(
                f"no {role} file for dataset {cfg.dataset!r}: looked for "
                f"{default_name}[.gz] under {base / cfg.dataset} and {base} "
                f"(set {DATA_DIR_ENV} or the paths config field)")
    return out


def _environment() -> dict:
    """The RunRecord fields that name what the bits of a run depend on
    besides its config: numpy, the OpenBLAS build and kernel, its thread
    count ("unpinned" where it cannot be set) and the worker count."""
    lib = openblas()
    return {"numpy_version": np.__version__,
            "blas_config": lib.scipy_openblas_get_config64_().decode() if lib else None,
            "blas_core": lib.scipy_openblas_get_corename64_().decode() if lib else None,
            "blas_threads": lib.scipy_openblas_get_num_threads64_() if lib else "unpinned",
            "workers": worker_count()}


@dataclass
class RunRecord:
    """Everything one run produced: identity, timings, the curve, and what
    its bits depend on besides the config (see _environment).

    training_seconds excludes feature extraction (reported separately) and
    metric evaluation; total_seconds is the whole run including data loading.
    """

    run_id: str
    dataset: str
    method: str
    final_accuracy: float
    feature_extraction_seconds: float
    training_seconds: float
    total_seconds: float
    metrics: list[IterationMetrics]
    config: dict
    numpy_version: str
    blas_config: str | None
    blas_core: str | None
    blas_threads: int | str
    workers: int


@dataclass
class _Split:
    """One dataset split as a run reads it: the selected indices and the
    encoder streams they are keyed from."""

    dataset: LabeledDataset
    indices: np.ndarray
    stream_base: int
    dataset_id: str


@dataclass
class _RunSetup:
    """What a run fixes before either method starts: the resolved network
    settings, and the train and test splits."""

    sizes: tuple[int, ...]
    dist: WeightDistribution
    lif: LifParams
    train: _Split
    test: _Split


def _set_up(cfg: ExperimentConfig) -> _RunSetup:
    """Load the data, resolve dist and LIF settings, and select each
    split's batches, for a validated cfg. The pixel width comes from the
    image header, and each split's dataset_id ends in the fingerprint of
    its files, so a run whose caches all hit decodes no image."""
    paths = resolve_dataset_paths(cfg)
    num_classes = _DATASETS[cfg.dataset][0]
    ds_train = load_dataset(paths["train_images"], paths["train_labels"], num_classes)
    ds_test = load_dataset(paths["test_images"], paths["test_labels"], num_classes)
    n_in = ds_train.pixels
    try:
        train_sel = make_batches(ds_train, cfg.batch_size, cfg.train_batches, cfg.seed)
        test_sel = make_batches(ds_test, cfg.batch_size, cfg.test_batches, cfg.seed)
    except ValueError as exc:  # more batches asked for than a split holds
        raise ConfigError(str(exc)) from exc
    return _RunSetup(
        sizes=(n_in, *cfg.hidden_sizes),
        dist=cfg.dist if cfg.dist is not None else fan_in_uniform(n_in),
        lif=LifParams(beta=cfg.beta, u_thr=cfg.u_thr),
        train=_Split(ds_train, train_sel, ENCODE_TRAIN_STREAM,
                     f"{cfg.dataset}/train:{ds_train.fingerprint}"),
        test=_Split(ds_test, test_sel, ENCODE_TEST_STREAM,
                    f"{cfg.dataset}/test:{ds_test.fingerprint}"))


def _split_digest(cfg: ExperimentConfig, run: _RunSetup, split: _Split,
                  time_steps: int) -> int:
    """The feature_digest of split's cache at time_steps."""
    return feature_digest(run.sizes, run.dist, cfg.seed, run.lif, time_steps,
                          split.dataset_id, cfg.seed, split.stream_base, split.indices)


def _cache_file(cache_dir, digest: int) -> Path:
    return Path(cache_dir) / f"{digest:016x}.rsnnfc"


def _extract_splits(cfg: ExperimentConfig, run: _RunSetup, cache_dir) -> list[FeatureCache]:
    """The train and test feature caches, each read from cache_dir if there.
    The weights are sampled only on a miss and are freed on return, before
    the readout trains."""
    net, caches = None, []
    for split in (run.train, run.test):
        digest = _split_digest(cfg, run, split, cfg.time_steps)
        path = None if cache_dir is None else _cache_file(cache_dir, digest)
        if path is not None and path.exists():
            cache = FeatureCache.load(path, expected_digest=digest)
        else:
            # The pixels are decoded here, before the weights are sampled for
            # the first miss, so the inflate's transient buffers are freed
            # before the weights are allocated.
            split.dataset.images
            net = net or init_weights(run.sizes, run.dist, cfg.seed, lif=run.lif)
            cache = extract_features(net, cfg.time_steps, split.dataset, cfg.seed,
                                     indices=split.indices, stream_base=split.stream_base,
                                     dataset_id=split.dataset_id)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                cache.save(path)
        caches.append(cache)
    return caches


def _fill_time_steps(cfg: ExperimentConfig, steps, cache_dir) -> None:
    """Write to cache_dir the feature caches of cfg's runs at every window
    length in steps, whatever cfg.time_steps is, from one simulation per
    split at max(steps). Caches already on disk are skipped, the weights are
    sampled only if one is missing, and each split's caches are saved and
    dropped before the next split is simulated."""
    run, net = _set_up(cfg), None
    for split in (run.train, run.test):
        digests = {t: _split_digest(cfg, run, split, t) for t in steps}
        missing = [t for t in steps if not _cache_file(cache_dir, digests[t]).exists()]
        if not missing:
            continue
        net = net or init_weights(run.sizes, run.dist, cfg.seed, lif=run.lif)
        counts = count_spikes(net.weights, net.lif, split.dataset.images, split.indices,
                              missing, cfg.seed, split.stream_base)
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        labels = split.dataset.labels[split.indices]
        for t in missing:
            cache = FeatureCache(features=counts[t], labels=labels, time_steps=t,
                                 source_config_digest=digests[t])
            cache.save(_cache_file(cache_dir, digests[t]))
        del counts, cache


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig, cache_dir=None) -> RunRecord:
    """Execute the full pipeline for cfg and collect its RunRecord, with
    OpenBLAS on one thread.

    Deterministic given cfg: identical configs reproduce every metric and
    the final accuracy bit-for-bit; only the wall-clock fields vary.
    """
    cfg = cfg.validate()
    t_start = time.perf_counter()
    run = _set_up(cfg)
    resolved = resolved_config_dict(cfg, run.dist)
    num_classes = run.train.dataset.num_classes
    if cfg.method == "ransnn":
        t0 = time.perf_counter()
        cache_train, cache_test = _extract_splits(cfg, run, cache_dir)
        feature_seconds = time.perf_counter() - t0
        # run holds the only references to both splits' datasets; dropping
        # it frees their decoded images (or stored bytes) before training.
        del run
        model, metrics = train_readout(cache_train, cache_test, adam=cfg.adam,
                                       batch_size=cfg.batch_size, num_classes=num_classes)
    else:
        sgm = init_sg_model(run.sizes[0], cfg.hidden_sizes[0], num_classes, cfg.seed,
                            run.dist, lif=run.lif)
        feature_seconds = 0.0
        model, metrics = train_sg(sgm, run.train.dataset, run.test.dataset,
                                  cfg.time_steps, cfg.seed, adam=cfg.adam,
                                  batch_size=cfg.batch_size,
                                  train_indices=run.train.indices,
                                  test_indices=run.test.indices)

    # Both trainers end with a point scored on the whole test selection.
    total_seconds = time.perf_counter() - t_start
    return RunRecord(run_id=config_digest(resolved), dataset=cfg.dataset, method=cfg.method,
                     final_accuracy=metrics[-1].test_accuracy,
                     feature_extraction_seconds=feature_seconds,
                     training_seconds=metrics[-1].elapsed,
                     total_seconds=total_seconds, metrics=metrics,
                     config=resolved, **_environment())


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, the values to try, and repeats per value (each
    repeat offsets the seed so error bars reflect RNG variability)."""

    parameter: str
    values: tuple
    repeats: int = 3

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise ConfigError(
                f"unknown sweep parameter {self.parameter!r}, expected one of {SWEEP_PARAMETERS}")
        if not self.values:
            raise ConfigError("sweep values must be nonempty")
        object.__setattr__(self, "repeats", _number("repeats", self.repeats, True))
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


def apply_sweep_value(cfg: ExperimentConfig, parameter: str, value) -> ExperimentConfig:
    """cfg with the swept parameter set to value. A string, as the CLI
    passes it, is parsed first (a distribution literal for dist_param, else
    a number); the value must then pass its field's type rule (see _typed),
    so 2.5 is no hidden size. A hidden_size replaces the width of cfg's one
    hidden layer, so cfg may have no other. Every failure is a ConfigError."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    if parameter == "dist_param":
        return replace(cfg, dist=parse_dist(value))
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError as exc:
            raise ConfigError(f"sweep value for {parameter}: {exc}") from exc
    if parameter == "hidden_size":
        if len(cfg.hidden_sizes) != 1:
            raise ConfigError(f"a hidden_size sweep needs one hidden layer, "
                              f"got hidden_sizes {list(cfg.hidden_sizes)}")
        return _typed(replace(cfg, hidden_sizes=(value,)))
    return _typed(replace(cfg, **{parameter: value}))


@one_blas_thread()
def run_sweep(base: ExperimentConfig, sweep: SweepSpec, cache_dir=None) -> list[RunRecord]:
    """One run per (value, repeat), varying only the swept parameter and the
    repeat's seed offset, with OpenBLAS on one thread. Records are ordered
    value-major, repeat-minor.

    Every run's config is validated before the first run starts. A
    time_steps sweep of the readout method runs repeat by repeat: it
    simulates each repeat's samples once, at the largest value, and fills
    the feature cache (cache_dir, or a temporary directory of the repeat's
    own, deleted when the repeat ends) with the counts at every value; the
    repeat's runs then read it. The fill's seconds count towards the
    feature extraction and total seconds of the first record of its
    repeat."""
    base = base.validate()
    cfgs = [replace(apply_sweep_value(base, sweep.parameter, value), seed=base.seed + r).validate()
            for value in sweep.values for r in range(sweep.repeats)]
    if sweep.parameter != "time_steps" or base.method != "ransnn":
        return [run_experiment(cfg, cache_dir=cache_dir) for cfg in cfgs]
    steps = sorted({cfg.time_steps for cfg in cfgs})
    records: list[RunRecord] = [None] * len(cfgs)
    for r in range(sweep.repeats):
        with (tempfile.TemporaryDirectory(prefix="ransnn-sweep-") if cache_dir is None
              else contextlib.nullcontext(cache_dir)) as fill_dir:
            t0 = time.perf_counter()
            _fill_time_steps(cfgs[r], steps, fill_dir)
            fill_seconds = time.perf_counter() - t0
            for i in range(r, len(cfgs), sweep.repeats):
                records[i] = run_experiment(cfgs[i], cache_dir=fill_dir)
        records[r].feature_extraction_seconds += fill_seconds
        records[r].total_seconds += fill_seconds
    return records


def summarize_sweep(records: list[RunRecord], sweep: SweepSpec) -> list[dict]:
    """Mean/std of final accuracy per swept value (population std)."""
    out = []
    for i, value in enumerate(sweep.values):
        accs = [r.final_accuracy
                for r in records[i * sweep.repeats:(i + 1) * sweep.repeats]]
        out.append({
            "parameter": sweep.parameter,
            "value": str(value),
            "mean_accuracy": float(np.mean(accs)),
            "std_accuracy": float(np.std(accs)),
            "runs": len(accs),
        })
    return out


@dataclass
class MethodComparison:
    """Both methods on the same seed/dataset/topology, plus the ratio of
    the baseline's training time to the readout's: speedup against the
    readout's training alone, speedup_end_to_end against its feature
    extraction plus training.

    The end-to-end ratio leans against the readout: its extraction covers
    the test split too, which is evaluation work, while the baseline's
    training time leaves out all of its held-out encoding and evaluation."""

    ransnn: RunRecord
    sg: RunRecord
    speedup: float
    speedup_end_to_end: float


def compare_methods(cfg_base: ExperimentConfig, cache_dir=None) -> MethodComparison:
    """Both methods on cfg_base, each config validated before either runs."""
    cfg_ransnn, cfg_sg = (replace(cfg_base, method=m).validate() for m in ("ransnn", "sg"))
    rec_ransnn = run_experiment(cfg_ransnn, cache_dir=cache_dir)
    rec_sg = run_experiment(cfg_sg, cache_dir=cache_dir)

    def ratio(denom: float) -> float:
        return rec_sg.training_seconds / denom if denom > 0 else float("inf")

    return MethodComparison(
        ransnn=rec_ransnn, sg=rec_sg, speedup=ratio(rec_ransnn.training_seconds),
        speedup_end_to_end=ratio(rec_ransnn.feature_extraction_seconds
                                 + rec_ransnn.training_seconds))


CSV_HEADER = ("run_id", "dataset", "method", "iteration", "train_acc",
              "test_acc", "loss", "elapsed_s")


def emit_metrics(records: list[RunRecord], path) -> None:
    """Mirror the records as JSON to a path ending in .json, else write the
    per-iteration curves as CSV rows."""
    if str(path).endswith(".json"):
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(r) for r in records], fh, indent=2)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            for m in rec.metrics:
                writer.writerow([rec.run_id, rec.dataset, rec.method,
                                 m.iteration, repr(m.train_accuracy),
                                 repr(m.test_accuracy), repr(m.loss),
                                 repr(m.elapsed)])
