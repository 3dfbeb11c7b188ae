"""Experiment harness: benchmark configuration, single runs, parameter
sweeps, method comparison, and metrics emission.

A run is fully determined by its configuration (including the seed), so
re-running one reproduces every number except wall-clock timings. Dataset
files are user-supplied IDX files, located either by explicit paths or under
the directory named by the RANSNN_DATA_DIR environment variable.
"""

from __future__ import annotations

import contextlib
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
from .network import (LifParams, Normal, Uniform, WeightDistribution,
                      fan_in_uniform, init_weights, openblas, worker_count)
from .numerics import AdamConfig, ENCODE_TEST_STREAM, ENCODE_TRAIN_STREAM
from .readout import (FeatureCache, IterationMetrics, evaluate, extract_features,
                      extract_features_at, feature_digest, train_readout)
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

    def validate(self) -> None:
        """Raise ConfigError unless the config describes a runnable
        experiment. Field types are checked first, so a config built in
        Python with a mistyped value fails here like a JSON one."""
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            value = getattr(self, name)
            if name != "seed" or value is not None:
                _check_number(name, value, name in _INT_FIELDS)
        if not isinstance(self.hidden_sizes, (tuple, list)):
            raise ConfigError(
                f"hidden_sizes must be a list of integers, got {self.hidden_sizes!r}")
        for h in self.hidden_sizes:
            _check_number("hidden_sizes", h, True)
        for name, kinds, what in (
                ("dist", (Uniform, Normal, type(None)), "Uniform, Normal or None"),
                ("adam", AdamConfig, "an AdamConfig"), ("paths", DataPaths, "a DataPaths")):
            if not isinstance(getattr(self, name), kinds):
                raise ConfigError(f"{name} must be {what}, got {getattr(self, name)!r}")
        for f in dataclasses.fields(AdamConfig):
            _check_number(f"adam.{f.name}", getattr(self.adam, f.name), False)
        for name in ("lr", "eps"):
            if not 0 < getattr(self.adam, name) < np.inf:
                raise ConfigError(f"adam.{name} must be finite and > 0, "
                                  f"got {getattr(self.adam, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self.adam, name) < 1:
                raise ConfigError(f"adam.{name} must lie in [0, 1), "
                                  f"got {getattr(self.adam, name)!r}")
        if self.dataset not in DATASETS:
            raise ConfigError(f"unknown dataset {self.dataset!r}, expected one of {DATASETS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be nonempty positive ints, got {self.hidden_sizes}")
        if self.method == "sg" and len(self.hidden_sizes) != 1:
            raise ConfigError("the sg baseline supports exactly one hidden layer")
        try:
            LifParams(beta=self.beta, u_thr=self.u_thr)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 1 <= self.time_steps <= 0xFFFF:  # spike counts are stored as u16
            raise ConfigError(f"time_steps must lie in [1, 65535], got {self.time_steps}")
        if self.train_batches < 1 or self.test_batches < 1:
            raise ConfigError("train_batches and test_batches must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed is None:
            raise ConfigError("seed must be set (config file field or --seed)")


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
        kind, a, b = m.group(1).lower()[0], float(m.group(2)), float(m.group(3))
        try:
            return Uniform(a, b) if kind == "u" else Normal(a, b)
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


def _check_number(name: str, value, integral: bool) -> None:
    """A ConfigError unless value is an integer (if integral) or a real
    number; booleans are neither."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integral else numbers.Real):
        raise ConfigError(f"{name} must be {'an integer' if integral else 'a number'}, "
                          f"got {value!r}")


def _number(name: str, value, integral: bool):
    """A JSON number as an int (which it must be equal to, if integral) or
    as a float; anything else, booleans included, is a ConfigError."""
    _check_number(name, value, False)
    if integral and not float(value).is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value) if integral else float(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a flat mapping whose keys are exactly the
    ExperimentConfig field names; unknown keys and mistyped values are
    rejected. A null seed leaves it unset."""
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs = dict(data)
    try:
        if "hidden_sizes" in kwargs:
            sizes = kwargs["hidden_sizes"]
            if not isinstance(sizes, (list, tuple)):
                raise ConfigError(f"hidden_sizes must be a list of integers, got {sizes!r}")
            kwargs["hidden_sizes"] = tuple(_number("hidden_sizes", h, True) for h in sizes)
        for name in _INT_FIELDS + _FLOAT_FIELDS:
            if name in kwargs and (name != "seed" or kwargs[name] is not None):
                kwargs[name] = _number(name, kwargs[name], name in _INT_FIELDS)
        if "dist" in kwargs:
            kwargs["dist"] = parse_dist(kwargs["dist"])
        if "adam" in kwargs and kwargs["adam"] is not None:
            adam = kwargs["adam"]
            bad = set(adam) - {f.name for f in dataclasses.fields(AdamConfig)}
            if bad:
                raise ConfigError(f"unknown adam fields: {sorted(bad)}")
            kwargs["adam"] = AdamConfig(**{k: _number(f"adam.{k}", v, False)
                                           for k, v in adam.items()})
        if "paths" in kwargs and kwargs["paths"] is not None:
            paths = kwargs["paths"]
            bad = set(paths) - {f.name for f in dataclasses.fields(DataPaths)}
            if bad:
                raise ConfigError(f"unknown paths fields: {sorted(bad)}")
            if not all(v is None or isinstance(v, str) for v in paths.values()):
                raise ConfigError(f"paths must be strings or null, got {paths!r}")
            kwargs["paths"] = DataPaths(**paths)
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config: {exc}") from exc


def config_from_file(path) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config root must be a JSON object")
    return config_from_dict(data)


def resolved_config_dict(cfg: ExperimentConfig, dist: WeightDistribution) -> dict:
    """The semantically meaningful fields with the weight distribution made
    explicit; file locations are deliberately excluded so the same experiment
    digests identically on different machines."""
    return {
        "dataset": cfg.dataset,
        "method": cfg.method,
        "hidden_sizes": list(cfg.hidden_sizes),
        "beta": cfg.beta,
        "u_thr": cfg.u_thr,
        "time_steps": cfg.time_steps,
        "dist": dist_to_json(dist),
        "train_batches": cfg.train_batches,
        "test_batches": cfg.test_batches,
        "batch_size": cfg.batch_size,
        "seed": cfg.seed,
        "adam": dataclasses.asdict(cfg.adam),
    }


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


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    thread count, so that no float result depends on OPENBLAS_NUM_THREADS.
    Where OpenBLAS's symbols are missing it does nothing, and run records
    say "unpinned"."""
    lib = openblas()
    if lib is None:
        yield
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


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


def _load_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    paths = resolve_dataset_paths(cfg)
    num_classes = _DATASETS[cfg.dataset][0]
    ds_train = load_dataset(paths["train_images"], paths["train_labels"], num_classes)
    ds_test = load_dataset(paths["test_images"], paths["test_labels"], num_classes)
    return ds_train, ds_test


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
    split's batches, for a validated cfg."""
    ds_train, ds_test = _load_datasets(cfg)
    n_in = ds_train.images.shape[1]
    try:
        train_sel = make_batches(ds_train, cfg.batch_size, cfg.train_batches, cfg.seed)
        test_sel = make_batches(ds_test, cfg.batch_size, cfg.test_batches, cfg.seed)
    except ValueError as exc:  # more batches asked for than a split holds
        raise ConfigError(str(exc)) from exc
    return _RunSetup(
        sizes=(n_in, *cfg.hidden_sizes),
        dist=cfg.dist if cfg.dist is not None else fan_in_uniform(n_in),
        lif=LifParams(beta=cfg.beta, u_thr=cfg.u_thr),
        train=_Split(ds_train, train_sel, ENCODE_TRAIN_STREAM, f"{cfg.dataset}/train"),
        test=_Split(ds_test, test_sel, ENCODE_TEST_STREAM, f"{cfg.dataset}/test"))


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
            net = net or init_weights(run.sizes, run.dist, cfg.seed, lif=run.lif)
            cache = extract_features(net, cfg.time_steps, split.dataset, cfg.seed,
                                     indices=split.indices, stream_base=split.stream_base,
                                     dataset_id=split.dataset_id)
            if path is not None:
                path.parent.mkdir(parents=True, exist_ok=True)
                cache.save(path)
        caches.append(cache)
    return caches


def _fill_time_steps(cfg: ExperimentConfig, steps, cache_dir) -> dict[int, list[Path]]:
    """Write to cache_dir the feature caches of cfg's runs at every window
    length in steps, whatever cfg.time_steps is, from one simulation per
    split at max(steps). Caches already on disk are skipped, the weights are
    sampled only if one is missing, and each split's caches are saved and
    dropped before the next split is simulated. Returns the train and test
    cache files of each window length."""
    run, net = _set_up(cfg), None
    files: dict[int, list[Path]] = {t: [] for t in steps}
    for split in (run.train, run.test):
        paths = {t: _cache_file(cache_dir, _split_digest(cfg, run, split, t)) for t in steps}
        for t, path in paths.items():
            files[t].append(path)
        missing = [t for t, path in paths.items() if not path.exists()]
        if not missing:
            continue
        net = net or init_weights(run.sizes, run.dist, cfg.seed, lif=run.lif)
        caches = extract_features_at(net, split.dataset, cfg.seed, missing,
                                     indices=split.indices, stream_base=split.stream_base,
                                     dataset_id=split.dataset_id)
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        for t in missing:
            caches[t].save(paths[t])
        del caches
    return files


@one_blas_thread()
def run_experiment(cfg: ExperimentConfig, cache_dir=None) -> RunRecord:
    """Execute the full pipeline for cfg and collect its RunRecord, with
    OpenBLAS on one thread.

    Deterministic given cfg: identical configs reproduce every metric and
    the final accuracy bit-for-bit; only the wall-clock fields vary.
    """
    cfg.validate()
    t_start = time.perf_counter()
    run = _set_up(cfg)
    resolved = resolved_config_dict(cfg, run.dist)
    num_classes = run.train.dataset.num_classes
    if cfg.method == "ransnn":
        t0 = time.perf_counter()
        cache_train, cache_test = _extract_splits(cfg, run, cache_dir)
        feature_seconds = time.perf_counter() - t0
        model, metrics = train_readout(cache_train, cache_test, adam=cfg.adam,
                                       batch_size=cfg.batch_size, num_classes=num_classes)
        final_accuracy = evaluate(model, cache_test)
    else:
        sgm = init_sg_model(run.sizes[0], cfg.hidden_sizes[0], num_classes, cfg.seed,
                            run.dist, lif=run.lif)
        feature_seconds = 0.0
        model, metrics = train_sg(sgm, run.train.dataset, run.test.dataset,
                                  cfg.time_steps, cfg.seed, adam=cfg.adam,
                                  batch_size=cfg.batch_size,
                                  train_indices=run.train.indices,
                                  test_indices=run.test.indices)
        final_accuracy = metrics[-1].test_accuracy

    training_seconds = metrics[-1].elapsed if metrics else 0.0
    total_seconds = time.perf_counter() - t_start
    return RunRecord(run_id=config_digest(resolved), dataset=cfg.dataset, method=cfg.method,
                     final_accuracy=final_accuracy,
                     feature_extraction_seconds=feature_seconds,
                     training_seconds=training_seconds,
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
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")


_SWEEP_TYPES = {"beta": float, "hidden_size": int, "time_steps": int}


def apply_sweep_value(cfg: ExperimentConfig, parameter: str, value) -> ExperimentConfig:
    """cfg with the swept parameter set to value. A string, as the CLI
    passes it, is parsed first (a distribution literal for dist_param); a
    number must then pass the config file's rule for its field, so 2.5 is
    no hidden size. Every failure is a ConfigError."""
    if parameter == "dist_param":
        return replace(cfg, dist=parse_dist(value))
    if parameter not in _SWEEP_TYPES:
        raise ConfigError(f"unknown sweep parameter {parameter!r}")
    kind = _SWEEP_TYPES[parameter]
    if isinstance(value, str):
        try:
            value = kind(value)
        except ValueError as exc:
            raise ConfigError(f"sweep value for {parameter}: {exc}") from exc
    value = _number(parameter, value, kind is int)
    if parameter == "beta":
        return replace(cfg, beta=value)
    if parameter == "hidden_size":
        return replace(cfg, hidden_sizes=(value,))
    return replace(cfg, time_steps=value)


@one_blas_thread()
def run_sweep(base: ExperimentConfig, sweep: SweepSpec, cache_dir=None) -> list[RunRecord]:
    """One run per (value, repeat), varying only the swept parameter and the
    repeat's seed offset, with OpenBLAS on one thread. Records are ordered
    value-major, repeat-minor.

    Every run's config is validated before the first run starts. A
    time_steps sweep of the readout method runs repeat by repeat: it
    simulates each repeat's samples once, at the largest value, and fills
    the feature cache (cache_dir, or a temporary directory for the sweep)
    with the counts at every value; the repeat's runs then read it. In a
    temporary directory a run's two cache files are deleted as soon as no
    later run reads them. The fill's seconds count towards the feature
    extraction and total seconds of the first record of its repeat."""
    base.validate()
    cfgs = [replace(apply_sweep_value(base, sweep.parameter, value), seed=base.seed + r)
            for value in sweep.values for r in range(sweep.repeats)]
    for cfg in cfgs:
        cfg.validate()
    if sweep.parameter != "time_steps" or base.method != "ransnn":
        return [run_experiment(cfg, cache_dir=cache_dir) for cfg in cfgs]
    steps = sorted({cfg.time_steps for cfg in cfgs})
    records: list[RunRecord] = [None] * len(cfgs)
    with (tempfile.TemporaryDirectory(prefix="ransnn-sweep-") if cache_dir is None
          else contextlib.nullcontext(cache_dir)) as fill_dir:
        for r in range(sweep.repeats):
            t0 = time.perf_counter()
            files = _fill_time_steps(cfgs[r], steps, fill_dir)
            fill_seconds = time.perf_counter() - t0
            mine = [cfgs[i].time_steps for i in range(r, len(cfgs), sweep.repeats)]
            for k, t in enumerate(mine):
                i = r + k * sweep.repeats
                records[i] = run_experiment(cfgs[i], cache_dir=fill_dir)
                if cache_dir is None and t not in mine[k + 1:]:
                    for path in files[t]:
                        path.unlink()
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
    rec_ransnn = run_experiment(replace(cfg_base, method="ransnn"), cache_dir=cache_dir)
    rec_sg = run_experiment(replace(cfg_base, method="sg"), cache_dir=cache_dir)

    def ratio(denom: float) -> float:
        return rec_sg.training_seconds / denom if denom > 0 else float("inf")

    return MethodComparison(
        ransnn=rec_ransnn, sg=rec_sg, speedup=ratio(rec_ransnn.training_seconds),
        speedup_end_to_end=ratio(rec_ransnn.feature_extraction_seconds
                                 + rec_ransnn.training_seconds))


CSV_HEADER = ("run_id", "dataset", "method", "iteration", "train_acc",
              "test_acc", "loss", "elapsed_s")


def emit_metrics(records: list[RunRecord], path, format: str = "csv") -> None:
    """Write per-iteration curves as CSV rows or mirror the records as JSON."""
    if format == "csv":
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                for m in rec.metrics:
                    writer.writerow([rec.run_id, rec.dataset, rec.method,
                                     m.iteration, repr(m.train_accuracy),
                                     repr(m.test_accuracy), repr(m.loss),
                                     repr(m.elapsed)])
    elif format == "json":
        with open(path, "w") as fh:
            json.dump([dataclasses.asdict(r) for r in records], fh, indent=2)
    else:
        raise ConfigError(f"unknown metrics format {format!r}, expected csv or json")
