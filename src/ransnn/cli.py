"""Command-line experiment runner.

Subcommands: run (single experiment), sweep (vary one parameter), compare
(both methods on one config), inspect-idx (dump an IDX header). Exit codes:
0 success, 1 configuration error, 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from .harness import (SWEEP_PARAMETERS, ConfigError, ExperimentConfig, SweepSpec,
                      compare_methods, config_from_file, emit_metrics,
                      run_experiment, run_sweep, summarize_sweep)
from .idx import DatasetError, IdxError, read_idx
from .readout import CacheFormatError


def _load_config(args) -> ExperimentConfig:
    cfg = config_from_file(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _emit(records, out_path) -> None:
    emit_metrics(records, out_path)
    print(f"wrote metrics to {out_path}")


def _print_record(rec) -> None:
    print(f"[{rec.run_id}] {rec.dataset}/{rec.method}: "
          f"accuracy={rec.final_accuracy:.4f} "
          f"train_s={rec.training_seconds:.3f} "
          f"features_s={rec.feature_extraction_seconds:.3f} "
          f"total_s={rec.total_seconds:.3f}")


def cmd_run(args) -> int:
    rec = run_experiment(_load_config(args), cache_dir=args.cache_dir)
    _print_record(rec)
    if args.out:
        _emit([rec], args.out)
    return 0


def _split_values(raw: str) -> list[str]:
    """Split a comma-separated value list, ignoring commas inside parens so
    distribution literals like U(-0.05,0.05) stay intact. Empty entries are
    kept, so that a malformed list can be reported."""
    parts, depth, cur = [], 0, []
    for ch in raw:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def cmd_sweep(args) -> int:
    values = _split_values(args.values)
    if not all(values):
        raise ConfigError(f"--values {args.values!r} has an empty entry")
    sweep = SweepSpec(parameter=args.param, values=tuple(values), repeats=args.repeats)
    records = run_sweep(_load_config(args), sweep, cache_dir=args.cache_dir)
    for rec in records:
        _print_record(rec)
    print(f"sweep over {sweep.parameter} (repeats={sweep.repeats}):")
    for row in summarize_sweep(records, sweep):
        print(f"  {row['value']}: accuracy {row['mean_accuracy']:.4f} "
              f"+/- {row['std_accuracy']:.4f} over {row['runs']} runs")
    if args.out:
        _emit(records, args.out)
    return 0


def cmd_compare(args) -> int:
    cmp = compare_methods(_load_config(args), cache_dir=args.cache_dir)
    print(f"{'method':<8} {'accuracy':>9} {'train_s':>10} {'features_s':>11}")
    for rec in (cmp.ransnn, cmp.sg):
        print(f"{rec.method:<8} {rec.final_accuracy:>9.4f} "
              f"{rec.training_seconds:>10.3f} {rec.feature_extraction_seconds:>11.3f}")
    print(f"training speedup: {cmp.speedup:.1f}x "
          f"(end to end, with feature extraction: {cmp.speedup_end_to_end:.1f}x)")
    if args.out:
        _emit([cmp.ransnn, cmp.sg], args.out)
    return 0


def cmd_inspect_idx(args) -> int:
    tensor = read_idx(args.path)
    size = tensor.data.size
    print(f"{args.path}: dtype=u8 (0x{tensor.dtype_code:02x}) dims={tensor.dims} "
          f"elements={size}")
    if size:
        print(f"value range: [{tensor.data.min()}, {tensor.data.max()}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ransnn",
        description="Benchmark runner for the random-hidden-layer spiking "
                    "classifier and its surrogate-gradient baseline.")
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags every experiment subcommand shares.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="metrics output path (.csv or .json)")
    common.add_argument("--cache-dir",
                        help="directory of feature caches (*.rsnnfc) to read and fill; "
                             "runs that share it skip simulating what is already there")

    run_p = sub.add_parser("run", parents=[common], help="run one experiment")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[common], help="vary one parameter")
    sweep_p.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values; dist_param takes "
                              "literals like U(-0.05,0.05) or N(0,0.05)")
    sweep_p.add_argument("--repeats", type=int, default=3)
    sweep_p.set_defaults(func=cmd_sweep)

    cmp_p = sub.add_parser("compare", parents=[common],
                           help="run both methods on one config")
    cmp_p.set_defaults(func=cmd_compare)

    idx_p = sub.add_parser("inspect-idx", help="dump an IDX file header")
    idx_p.add_argument("path")
    idx_p.set_defaults(func=cmd_inspect_idx)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    # The package's INFO lines, such as extraction progress, go to stderr.
    log = logging.getLogger("ransnn")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (IdxError, DatasetError, CacheFormatError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
