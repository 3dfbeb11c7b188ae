"""The four benchmark workloads, their set-up, and the checks on their output.

Every workload drives the program only through its public harness API
(``run_experiment`` and ``run_sweep``) on generated MNIST-shaped IDX files.
The configuration keeps the program's defaults (2000 hidden neurons, beta
0.95, threshold 1.0, T=25, fan-in uniform weights, B=128, seed 1234) and
reduces only the batch counts; the workload seed shapes the data alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import datagen
from ransnn import harness
from ransnn.readout import FeatureCache

CONFIG_SEED = 1234
BATCH = 128
REFERENCES = Path(__file__).with_name("references.json")
# Every recorded seed lands above 0.27 after the workloads' few steps; chance
# is 0.1.
MIN_ACCURACY = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    train_batches: int
    test_batches: int
    cache: str  # "fresh": empty cache_dir per call; "filled": set-up fills it; "none"
    sweep_steps: tuple[int, ...] = ()

    def config(self, paths: dict) -> "harness.ExperimentConfig":
        return harness.ExperimentConfig(
            dataset="mnist", method=self.method, train_batches=self.train_batches,
            test_batches=self.test_batches, batch_size=BATCH, seed=CONFIG_SEED,
            paths=harness.DataPaths(**paths))


WORKLOADS = {w.name: w for w in (
    Workload("ransnn-cold",
             "empty cache_dir per call: extraction (per-sample encode + LIF "
             "simulate) is over 95% of the time and the cache is written; where "
             "a faster simulation kernel acts",
             "ransnn", train_batches=3, test_batches=1, cache="fresh"),
    Workload("readout-warm",
             "set-up fills the feature cache and calls read it: readout Adam "
             "steps with a held-out eval per step; encode and simulate do no "
             "work, so a kernel change should not move it",
             "ransnn", train_batches=6, test_batches=3, cache="filled"),
    Workload("sg-train",
             "surrogate-gradient baseline, 2 BPTT iterations plus its held-out "
             "eval: the same encoder and LIF recursion in batched form, so a "
             "shared-kernel change must not slow it",
             "sg", train_batches=2, test_batches=1, cache="none"),
    Workload("sweep-steps",
             "run_sweep over time_steps 10 and 25, one repeat, no cache: the "
             "sweep loop, where reusing one T_max simulation would act",
             "ransnn", train_batches=3, test_batches=1, cache="none",
             sweep_steps=(10, 25)),
)}


@dataclass
class Prepared:
    """One set-up's result: the config, its cache_dir and the records of
    the set-up's own cache fill (readout-warm only)."""

    workload: Workload
    cfg: "harness.ExperimentConfig"
    workdir: Path
    cache_dir: Path | None
    traffic: dict
    fill_records: list


def pool_size(batches: int) -> int:
    """Generated samples for a split: a quarter more than the selection, so
    the program's seeded batch selection makes a real choice."""
    return math.ceil(1.25 * batches * BATCH)


def setup(w: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate this workload's data in workdir, and fill the feature cache
    if the workload reads one."""
    data = datagen.write_dataset(workdir / "data", seed, pool_size(w.train_batches),
                                 pool_size(w.test_batches))
    cfg = w.config(data["paths"])
    cache_dir, fill = None, []
    if w.cache == "filled":
        cache_dir = workdir / "cache"
        fill = [harness.run_experiment(cfg, cache_dir=cache_dir)]
    return Prepared(w, cfg, workdir, cache_dir, data["traffic"], fill)


def call(p: Prepared) -> tuple[list, float, Path | None]:
    """Run the workload once: (records, wall seconds of the harness call,
    the cache_dir it used). A fresh cache_dir is created before the clock
    starts."""
    w = p.workload
    cache_dir = p.cache_dir
    if w.cache == "fresh":
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=p.workdir))
    t0 = time.perf_counter()
    if w.sweep_steps:
        spec = harness.SweepSpec("time_steps", w.sweep_steps, repeats=1)
        records = harness.run_sweep(p.cfg, spec, cache_dir=cache_dir)
    else:
        records = [harness.run_experiment(p.cfg, cache_dir=cache_dir)]
    return records, time.perf_counter() - t0, cache_dir


# ---- output digests -------------------------------------------------------

def curves(records) -> list:
    """Every record's final accuracy and its curve without elapsed: the
    part of a run that must not depend on timing."""
    return [[r.final_accuracy,
             [[m.iteration, m.train_accuracy, m.test_accuracy, m.loss]
              for m in r.metrics]] for r in records]


def curve_digest(records) -> str:
    blob = json.dumps(curves(records), separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def cache_digest(cache) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(cache.features, dtype="<u2").tobytes())
    h.update(np.ascontiguousarray(cache.labels, dtype="<i8").tobytes())
    return h.hexdigest()


def spikes_digest(digests) -> str | None:
    """Order-free digest of a set of spike-count matrices, given their
    cache_digest values (None if there are none)."""
    if not digests:
        return None
    joined = "".join(sorted(set(digests)))
    return hashlib.blake2b(joined.encode(), digest_size=16).hexdigest()


def disk_spikes(cache_dir: Path | None) -> str | None:
    """spikes_digest of the feature caches the program wrote to cache_dir."""
    if cache_dir is None:
        return None
    return spikes_digest([cache_digest(FeatureCache.load(f))
                          for f in sorted(cache_dir.glob("*.rsnnfc"))])


# ---- checks ---------------------------------------------------------------

def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def check_records(w: Workload, records, expected: dict | None) -> list[str]:
    """Problems with one call's records: shape, sanity, and agreement with
    the expected digest (from the run's first call or the recorded
    reference) when one is given."""
    problems = []
    want = max(1, len(w.sweep_steps))
    if len(records) != want:
        return [f"{len(records)} records, expected {want}"]
    for r in records:
        if not MIN_ACCURACY < r.final_accuracy < 1.0:
            problems.append(f"accuracy {r.final_accuracy} outside ({MIN_ACCURACY}, 1)")
        if not r.metrics or not all(math.isfinite(m.loss) for m in r.metrics):
            problems.append("empty curve or non-finite loss")
    if expected is not None:
        if curve_digest(records) != expected["curves"]:
            problems.append(
                f"curve differs from {expected['source']}: accuracy "
                f"{[r.final_accuracy for r in records]} vs {expected['accuracy']}")
    return problems


def check_spikes(digest: str | None, expected: dict | None) -> list[str]:
    if expected is None or expected.get("spikes") is None or digest is None:
        return []
    if digest != expected["spikes"]:
        return [f"spike counts differ from {expected['source']}"]
    return []


def expectation(records, spikes: str | None, source: str) -> dict:
    return {"source": source, "curves": curve_digest(records),
            "accuracy": [r.final_accuracy for r in records], "spikes": spikes}


def reference_for(workload: str, seed: int) -> dict | None:
    ref = load_references().get(workload, {}).get(str(seed))
    return None if ref is None else {**ref, "source": f"the reference for seed {seed}"}
