"""Benchmark entry point.

    python3 bench/run.py --workload ransnn-cold --seed 0 --seconds 20 --trace 0

Builds the workload's inputs from the seed, drives the program in ``src/``
through its public harness API for about --seconds seconds, checks every
call's output, and prints a human-readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off); with
--trace 1 they are the per-layer ones from a separate traced measurement.
--record writes the workload's reference digests for the seed instead.

BLAS is pinned to one thread before numpy loads, so timings are steady and
spike counts are bit-reproducible. All files go to a fresh directory under
.bench_work/ in the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1
# Read by the BLAS library when numpy loads, so set before the imports below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up repeats until it has run at least this often and this long.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MIN_CALLS = 3


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0))}


class Ledger:
    """Attempted and failed workload calls, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])
        return not problems


def checked_call(wl, p, ledger: Ledger, expected, *, tracer=None, layers=None):
    """One workload call with its output checks; (records, wall, spikes
    digest) on success, None if it raised or failed a check."""
    call_id = tracer.call if tracer is not None else None
    try:
        if tracer is None:
            records, wall, cache_dir = wl.call(p)
            spikes = None
            if p.workload.cache == "fresh":
                spikes = wl.disk_spikes(cache_dir)
        else:
            with tracer.installed(layers.SITES):
                span = tracer.open("workload")
                try:
                    records, wall, cache_dir = wl.call(p)
                finally:
                    tracer.close(span)
            spikes = wl.spikes_digest(layers.summarize_results(tracer, call_id))
        if p.workload.cache == "fresh":
            shutil.rmtree(cache_dir)
    except Exception:  # the run goes on; the call counts as failed
        traceback.print_exc(file=sys.stderr)
        problems = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        spikes = records = None
    else:
        problems = []
        for exp in expected:
            problems += wl.check_records(p.workload, records, exp)
            problems += wl.check_spikes(spikes, exp)
    if tracer is not None:
        if problems:
            tracer.drop(call_id)
        tracer.call += 1
    return (records, wall, spikes) if ledger.record(problems) else None


def first_expectation(wl, p, ledger, reference):
    """What every later call must reproduce: the set-up's cold fill on
    readout-warm, else a first untimed call (which also warms up)."""
    if p.fill_records:
        spikes = wl.disk_spikes(p.cache_dir)
        ok = ledger.record(wl.check_records(p.workload, p.fill_records, reference)
                           + wl.check_spikes(spikes, reference))
        exp = wl.expectation(p.fill_records, spikes, "the set-up's cold fill")
        out = checked_call(wl, p, ledger, [exp])  # warm-up read of the cache
        return exp if ok and out else None
    out = checked_call(wl, p, ledger, [reference] if reference else [])
    return wl.expectation(out[0], out[2], "the run's first call") if out else None


def step_seconds(records) -> list[float]:
    """Training seconds per optimizer step between consecutive curve points
    (every step for the readout; the baseline's sparser points are averaged
    over the steps they span)."""
    out = []
    for r in records:
        elapsed, iteration = 0.0, 0
        for m in r.metrics:
            out.append((m.elapsed - elapsed) / (m.iteration - iteration))
            elapsed, iteration = m.elapsed, m.iteration
    return out


def measure(wl, p, setup_times, ledger, seconds, reference) -> tuple[dict, list]:
    """End-to-end metrics with tracing off."""
    exp = first_expectation(wl, p, ledger, reference)
    if exp is None:
        return {}, []
    walls, steps, outs = [], [], []
    t_end = time.perf_counter() + seconds
    while (len(outs) < MIN_CALLS and ledger.failed < MIN_CALLS) or time.perf_counter() < t_end:
        out = checked_call(wl, p, ledger, [exp])
        if out:
            records, wall, _ = out
            walls.append(wall)
            steps += step_seconds(records)
            outs.append(out)
    if not walls:
        return {}, []
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": spans.median(setup_times), "wall_s": spans.median(walls),
            "train_step_s": spans.median(steps), "peak_rss_mb": rss_mb}, outs


def trace(wl, layers, p, ledger, seconds, reference) -> tuple[dict, set]:
    """Per-layer metrics and the spans whose wrapped function is gone.
    Untraced and traced calls alternate, so the trace overhead is measured
    under the same conditions."""
    exp = first_expectation(wl, p, ledger, reference)
    if exp is None:
        return {}, set()
    tracer = spans.Tracer()
    untraced, traced = [], []
    t_end = time.perf_counter() + seconds
    while (len(traced) < MIN_CALLS and ledger.failed < MIN_CALLS) or time.perf_counter() < t_end:
        out = checked_call(wl, p, ledger, [exp])
        if out:
            untraced.append(out[1])
        # The traced call must also reproduce the reference's spike counts,
        # which untraced calls of a workload without a cache cannot show.
        expected = [exp] + ([reference] if reference else [])
        out = checked_call(wl, p, ledger, expected, tracer=tracer, layers=layers)
        if out:
            traced.append(out[1])
            if exp["spikes"] is None:
                exp = {**exp, "spikes": out[2], "source": "the run's first traced call"}
    if not untraced or not traced:
        return {}, tracer.missing
    return layers.per_layer_metrics(tracer, p, untraced, traced), tracer.missing


def record_reference(wl, layers, p, seed: int) -> dict:
    """The reference digests for one seed, taken from one traced call (the
    traced call yields the spike counts of every workload that has any)."""
    ledger = Ledger()
    out = checked_call(wl, p, ledger, [], tracer=spans.Tracer(), layers=layers)
    if out is None:
        raise SystemExit(f"reference call failed: {ledger.problems}")
    ref = wl.expectation(out[0], out[2], "")
    del ref["source"]
    refs = wl.load_references()
    refs.setdefault(p.workload.name, {})[str(seed)] = ref
    wl.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return ref


def report(w, p, metrics: dict, outs: list, ledger: Ledger, units: dict) -> None:
    """Human-readable lines: every metric with its unit, and the
    workload-specific figures the gated metrics do not carry."""
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    if outs:
        recs = [o[0] for o in outs]
        samples = (p.cfg.train_batches + p.cfg.test_batches) * p.cfg.batch_size
        extract = [sum(r.feature_extraction_seconds for r in rs) for rs in recs]
        if w.method == "ransnn" and w.cache != "filled":
            print(f"  {'extract_samples_per_s':32s} "
                  f"{samples * len(recs[0]) / spans.median(extract):.6g} 1/s")
        if w.cache == "filled":
            print(f"  {'readout_train_s':32s} "
                  f"{spans.median([rs[0].training_seconds for rs in recs]):.6g} s")
        if w.method == "sg":
            print(f"  {'sg_iter_s':32s} "
                  f"{spans.median([rs[0].training_seconds for rs in recs]) / w.train_batches:.6g} s")
        print(f"  {'accuracy':32s} {[r.final_accuracy for r in recs[0]]}")
        print(f"  {'calls timed':32s} {len(outs)}")
    print(f"  {'failed_frac':32s} {ledger.failed / max(1, ledger.attempted):.6g} "
          f"({ledger.failed} of {ledger.attempted} calls)")
    for problem in ledger.problems[:10]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's reference digests and exit")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ransnn" / "__init__.py").is_file():
        print(f"error: the program's source is not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import layers
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    # SIGTERM unwinds like an exception, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    try:
        env = environment()
        once = bool(args.trace or args.record)
        setup_times, p = [], None
        while not setup_times or not once and (len(setup_times) < SETUP_REPEATS
                                               or sum(setup_times) < SETUP_SECONDS):
            if p is not None:
                shutil.rmtree(p.workdir)
            t0 = time.perf_counter()
            p = wl.setup(w, args.seed, workdir / f"setup{len(setup_times)}")
            setup_times.append(time.perf_counter() - t0)
        if args.record:
            print(json.dumps(record_reference(wl, layers, p, args.seed)))
            return 0
        reference = wl.reference_for(w.name, args.seed)
        ledger, missing = Ledger(), set()
        if args.trace:
            outs = []
            metrics, missing = trace(wl, layers, p, ledger, args.seconds, reference)
            units = {name: spec[0] for name, spec in layers.METRICS.items()}
        else:
            metrics, outs = measure(wl, p, setup_times, ledger, args.seconds, reference)
            units = {"setup_s": "s", "wall_s": "s", "train_step_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run is still using it
            pass

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print(f"  env {json.dumps(env)}")
    print(f"  traffic {json.dumps(p.traffic)}"
          + ("" if reference else "  (no recorded reference for this seed)"))
    if missing:
        print(f"  missing (wrapped function gone): {sorted(missing)}")
    report(w, p, metrics, outs, ledger, units)
    correct = bool(metrics) and ledger.failed == 0
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
