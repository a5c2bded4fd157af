"""Command-line entry point.

Subcommands: codebook, gen-data, inject, train, compare, report.
Exit codes: 0 success, 2 configuration/usage error, 3 numeric failure,
4 I/O error, one per family of package errors (``noisylab.errors``).
Every failure prints a single machine-parsable line to stderr:
``error[config|numeric|io]: <detail>``.

The environment variable NOISYLAB_OUT_DIR, when set, overrides the
config's out_dir for train and compare.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .codebook import default_code_bits, derive_codebook, save_codebook_csv
from .config import DatasetConfig, from_json, load_config
from .data import NOISE_KINDS, NoiseConfig, gen_blobs, inject_noise, load_csv, save_csv
from .errors import ConfigError, DataIOError, NumericError
from .experiment import compare_strategies, run_experiment
from .metrics import last10_mean, load_jsonl
from .numeric import rng_stream

OUT_DIR_ENV = "NOISYLAB_OUT_DIR"


def _cmd_codebook(args) -> int:
    bits = args.bits if args.bits is not None else default_code_bits(args.classes)
    cb = derive_codebook(bits, args.classes)
    save_codebook_csv(cb, args.out)
    print(f"codebook: {args.classes} classes x {bits} bits -> {args.out}")
    return 0


def _cmd_gen_data(args) -> int:
    train, test = gen_blobs(args.classes, args.dim, args.per_class, args.spread,
                            rng_stream(args.seed), args.center_scale)
    save_csv(train, args.train_out)
    save_csv(test, args.test_out)
    print(f"gen-data: train {train.n_samples} x {args.dim} -> {args.train_out}, "
          f"test {test.n_samples} -> {args.test_out}")
    return 0


def _cmd_inject(args) -> int:
    ds = load_csv(args.input, num_classes=args.classes)
    class_map = None
    if args.class_map:
        try:
            raw = json.loads(args.class_map)
        except json.JSONDecodeError:
            raise ConfigError(f"--class-map must be a JSON object of int->int, got {args.class_map!r}") from None
        class_map = from_json(raw, dict[int, int], "--class-map")
    noise = NoiseConfig(kind=args.kind, epsilon=args.epsilon, class_map=class_map)
    noisy = inject_noise(ds, noise, rng_stream(args.seed), rng_stream(args.seed, 1))
    save_csv(noisy, args.out)
    print(f"inject: {args.kind} eps={args.epsilon} flipped "
          f"{int((~noisy.clean_mask).sum())}/{noisy.n_samples} -> {args.out}")
    return 0


def _apply_out_dir(cfg, args):
    cfg.out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or cfg.out_dir
    return cfg


def _cmd_train(args) -> int:
    cfg = _apply_out_dir(load_config(args.config), args)
    if args.dump_selection:
        cfg.dump_selection = True
    results = run_experiment(cfg)
    for res in results:
        s = res.summary
        print(f"train: {s['strategy']} seed={s['seed']} "
              f"final_acc={s['final_acc']:.4f} last10={s['last10_mean_acc']:.4f} "
              f"sel_f1={s['mean_sel_f1']:.4f} -> {res.out_dir}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _apply_out_dir(load_config(args.config), args)
    rows = compare_strategies(cfg)
    for row in rows:
        t_iou = "-" if row["mean_temporal_iou"] is None else f"{row['mean_temporal_iou']:.3f}"
        c_iou = "-" if row["mean_cross_iou"] is None else f"{row['mean_cross_iou']:.3f}"
        print(f"compare: {row['label']:<24} last10 {row['mean_last10_acc']:.4f} "
              f"+/- {row['std_last10_acc']:.4f}  t-iou {t_iou}  c-iou {c_iou}  "
              f"epoch {row['mean_epoch_ms']:.1f} ms")
    return 0


def _cmd_report(args) -> int:
    root = Path(args.run_dir)
    if not root.exists():
        raise DataIOError(f"run directory {root} does not exist")
    found = sorted(root.rglob("epochs.jsonl"))
    if not found:
        raise DataIOError(f"no epochs.jsonl under {root}")
    for path in found:
        rows = load_jsonl(path)
        if not rows:
            print(f"report: {path.parent.name}: empty")
            continue
        try:
            accs = [r["test_acc"] for r in rows]
            label = f"{rows[-1]['strategy']} ({path.parent.name})"
            line = (f"report: {label:<40} epochs {len(rows)} "
                    f"final_acc {accs[-1]:.4f} last10 {last10_mean(accs):.4f}")
            summary_path = path.parent / "summary.json"
            if summary_path.exists():
                stored = json.loads(summary_path.read_text())
                if abs(stored["last10_mean_acc"] - last10_mean(accs)) > 1e-9:
                    line += "  [summary.json disagrees]"
        except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
            raise DataIOError(f"malformed run artifacts in {path.parent}: "
                              f"{type(exc).__name__}: {exc}") from None
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisylab",
        description="Desk-scale laboratory for sample-selection training under label noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="derive a codeword table and write it as CSV")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--bits", type=int, default=None,
                   help="codeword length (power of two; default: auto from class count)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("gen-data", help="generate a synthetic blob dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--spread", type=float, default=DatasetConfig.spread)
    p.add_argument("--center-scale", type=float, default=DatasetConfig.center_scale)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("inject", help="inject label noise into a dataset CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=NOISE_KINDS, default=NoiseConfig.kind)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--class-map", default=None,
                   help='JSON object, e.g. \'{"0": 1, "1": 0}\' (asymmetric only)')
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("train", help="run the configured strategy over all seeds")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dump-selection", action="store_true",
                   help="write per-epoch selection decision CSVs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("compare", help="run a strategy set or effect-rate sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="summarize existing run artifacts")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # NumericError reports non-finite results; numpy's RuntimeWarnings
        # would add extra stderr lines to the one-line error contract.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return 3
    except (DataIOError, OSError) as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
