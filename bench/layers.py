"""Per-layer metrics from a traced run.

SITES lists the public functions wrapped, each at the name its caller looks
up. GROUPS maps each reported layer to the spans it sums; every group
reports its time per workload call (median over traced calls), its call
count per workload call, and per-call p50/p99. Self times, the readout
training split, cache and spike statistics, and the computed GEMM sizes
complete the set. METRICS is the full list with units; a metric whose
wrapped function no longer exists is left out and named as missing.
"""

from __future__ import annotations

import datagen
from spans import Site, Tracer, median, percentile
from workloads import Prepared, cache_digest

SITES = (
    Site("ransnn.harness", "run_experiment", "harness.run"),
    Site("ransnn.harness", "run_sweep", "harness.sweep"),
    Site("ransnn.harness", "load_dataset", "idx.load"),
    Site("ransnn.harness", "make_batches", "idx.make_batches"),
    Site("ransnn.harness", "init_weights", "network.init"),
    Site("ransnn.harness", "init_sg_model", "network.init_sg"),
    Site("ransnn.harness", "extract_features", "readout.extract", keep_result=True),
    Site("ransnn.readout", "encode_sample", "encoding.encode"),
    Site("ransnn.readout", "simulate_forward", "network.simulate"),
    Site("ransnn.readout", "FeatureCache.save", "readout.cache_save"),
    Site("ransnn.readout", "FeatureCache.load", "readout.cache_load", keep_result=True),
    Site("ransnn.harness", "train_readout", "readout.train", keep_result=True),
    Site("ransnn.harness", "evaluate", "readout.evaluate"),
    Site("ransnn.readout", "adam_step", "readout.adam"),
    Site("ransnn.harness", "train_sg", "sg.train"),
    Site("ransnn.sg", "encode_sample", "sg.encode"),
    Site("ransnn.sg", "bptt_backward", "sg.backward"),
    Site("ransnn.sg", "adam_step", "sg.adam"),
    Site("ransnn.sg", "evaluate_sg", "sg.eval"),
)

GROUPS = {
    "idx.load": ("idx.load",),
    "idx.make_batches": ("idx.make_batches",),
    "network.init": ("network.init", "network.init_sg"),
    "encoding.encode": ("encoding.encode",),
    "network.simulate": ("network.simulate",),
    "readout.extract": ("readout.extract",),
    "readout.cache_save": ("readout.cache_save",),
    "readout.cache_load": ("readout.cache_load",),
    "readout.train": ("readout.train",),
    "readout.evaluate": ("readout.evaluate",),
    "numerics.adam": ("readout.adam", "sg.adam"),
    "sg.train": ("sg.train",),
    "sg.encode": ("sg.encode",),
    "sg.backward": ("sg.backward",),
    "sg.adam": ("sg.adam",),
    "sg.eval": ("sg.eval",),
    "harness.run": ("harness.run",),
    "harness.sweep": ("harness.sweep",),
}

# Self time of a span: its duration minus its traced children.
SELF = {
    "readout.extract_self_s": "readout.extract",
    "sg.forward_self_s": "sg.train",
    "harness.run_self_s": "harness.run",
    "harness.sweep_self_s": "harness.sweep",
}

# name -> (unit, better, spans it needs)
METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {}
for _g, _spans in GROUPS.items():
    METRICS[f"{_g}_s"] = ("s", "lower", _spans)
    METRICS[f"{_g}.calls"] = ("count", "lower", _spans)
    METRICS[f"{_g}.p50_ms"] = ("ms", "lower", _spans)
    METRICS[f"{_g}.p99_ms"] = ("ms", "lower", _spans)
for _name, _span in SELF.items():
    METRICS[_name] = ("s", "lower", (_span,))
METRICS.update({
    "readout.train_compute_s": ("s", "lower", ("readout.train",)),
    "readout.eval_in_train_s": ("s", "lower", ("readout.train",)),
    "readout.train_steps": ("count", "lower", ("readout.train",)),
    "readout.evals_per_step": ("ratio", "lower", ("readout.train",)),
    "readout.cache_lookups": ("count", "lower", ("readout.extract", "readout.cache_load")),
    "readout.cache_hit_ratio": ("ratio", "higher", ("readout.extract", "readout.cache_load")),
    "network.gemm_flops_computed": ("flop/sample", "lower", ()),
    "network.gemm_bytes_computed": ("B/sample", "lower", ()),
    "spikes.mean_rate": ("1/step", "higher", ("readout.extract", "readout.cache_load")),
    "spikes.silent_frac": ("frac", "lower", ("readout.extract", "readout.cache_load")),
    "spikes.saturated_frac": ("frac", "lower", ("readout.extract", "readout.cache_load")),
    "trace_overhead_frac": ("frac", "lower", ()),
})


def cache_summary(cache) -> dict:
    """Digest and spike statistics of one returned spike-count matrix.

    A neuron is silent if it never fires on any row and saturated if it
    fires on every step of every row.
    """
    f = cache.features
    rows = len(f)
    return {"digest": cache_digest(cache), "rows": rows,
            "mean_rate": float(f.mean()) / cache.time_steps if rows else 0.0,
            "silent_frac": float((f.max(axis=0) == 0).mean()) if rows else 0.0,
            "saturated_frac": float((f.min(axis=0) == cache.time_steps).mean()) if rows else 0.0}


def summarize_results(tracer: Tracer, call: int) -> list[str]:
    """Replace the return values kept on one call's spans by small summaries
    (so caches are not held across calls) and return the call's cache
    digests."""
    digests = []
    for s in tracer.spans:
        if s.call != call or s.result is None:
            continue
        if s.name in ("readout.extract", "readout.cache_load"):
            s.result = cache_summary(s.result)
            digests.append(s.result["digest"])
        elif s.name == "readout.train":
            _model, curve = s.result
            s.result = {"compute_s": curve[-1].elapsed if curve else 0.0,
                        "evals": len(curve), "steps": curve[-1].iteration if curve else 0}
    return digests


def gemm_sizes(p: Prepared) -> tuple[float, float]:
    """Per-sample flops and bytes of the forward input-current GEMMs, computed
    from the layer shapes (float64 operands), averaged over the workload's
    runs."""
    n_in = datagen.SIDE * datagen.SIDE
    widths = [n_in, *p.cfg.hidden_sizes]
    if p.workload.method == "sg":
        widths.append(datagen.NUM_CLASSES)
    steps = p.workload.sweep_steps or (p.cfg.time_steps,)
    flops = bytes_ = 0.0
    for t in steps:
        for a, b in zip(widths, widths[1:]):
            flops += 2.0 * t * a * b
            bytes_ += 8.0 * (a * b + t * a + t * b)
    return flops / len(steps), bytes_ / len(steps)


def per_layer_metrics(tracer: Tracer, p: Prepared, untraced_walls, traced_walls) -> dict:
    """Every per-layer metric whose spans were all installed, name -> value."""
    out = {}
    n_calls = max(1, len(tracer.calls()))
    for g, spans in GROUPS.items():
        durations = tracer.durations(spans)
        out[f"{g}_s"] = median(tracer.per_call(spans, lambda s: s.duration))
        out[f"{g}.calls"] = len(durations) / n_calls
        out[f"{g}.p50_ms"] = percentile(durations, 50) * 1e3
        out[f"{g}.p99_ms"] = percentile(durations, 99) * 1e3
    for name, span in SELF.items():
        out[name] = median(tracer.per_call((span,), lambda s: s.self_time))

    trains = [s for s in tracer.spans
              if s.name == "readout.train" and isinstance(s.result, dict)]
    compute = sum(s.result["compute_s"] for s in trains)
    steps = sum(s.result["steps"] for s in trains)
    evals = sum(s.result["evals"] for s in trains)
    out["readout.train_compute_s"] = compute / n_calls
    out["readout.eval_in_train_s"] = (sum(s.duration for s in trains) - compute) / n_calls
    out["readout.train_steps"] = steps / n_calls
    out["readout.evals_per_step"] = evals / steps if steps else 0.0

    looked_up = [s for s in tracer.spans
                 if s.name in ("readout.extract", "readout.cache_load")
                 and isinstance(s.result, dict)]
    caches = [s.result for s in looked_up]
    hits = sum(1 for s in looked_up if s.name == "readout.cache_load")
    out["readout.cache_lookups"] = len(caches) / n_calls
    out["readout.cache_hit_ratio"] = hits / len(caches) if caches else 0.0
    rows = sum(c["rows"] for c in caches)
    for key in ("mean_rate", "silent_frac", "saturated_frac"):
        out[f"spikes.{key}"] = (sum(c[key] * c["rows"] for c in caches) / rows
                                if rows else 0.0)

    out["network.gemm_flops_computed"], out["network.gemm_bytes_computed"] = gemm_sizes(p)
    out["trace_overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    return {name: value for name, value in out.items()
            if not tracer.missing.intersection(METRICS[name][2])}
