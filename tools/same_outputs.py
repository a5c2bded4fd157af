#!/usr/bin/env python3
"""Fingerprint every artifact a set of fixed noisylab runs writes.

    python3 tools/same_outputs.py [--root CHECKOUT] > hashes.txt

Runs, as fresh ``noisylab`` processes with BLAS pinned to one thread:

* ``compare`` over all four strategies on a small blob config, with
  selection dumps, and again with neither ``strategies`` nor
  ``effect_rates`` (every strategy row, in table order);
* ``train`` on the same config;
* ``compare`` as effect-rate sweeps of ``jump_update``, ``self_update`` and
  ``cross_update`` on the same config, so batches with the gate off are
  covered (the last two without selection dumps, which no cell of theirs
  writes);
* ``compare`` over all four strategies with ``warmup_epochs: 0``;
* ``compare`` over every row with ``schedule.jump_step`` 3 and 4: the
  small config has 6 iterations per epoch, which 3 divides and 4 does not;
* ``compare`` over all four strategies with ``bce_weight: 0.5``, and with
  ``hidden_layers`` 1 and 3, so a detection weight other than 1 and trunk
  depths other than 2 (a one-layer trunk has only its input layer) are
  covered;
* ``compare`` over all four strategies with ``instance``, ``pairflip`` and
  ``asymmetric`` noise, so every noise model's label draws are covered;
* ``train`` on each of the three benchmark workload configs
  (``perfbench/run.py``), seed 1, with ``--dump-selection`` where the
  workload uses it;
* the standalone tools, in ``tools/``: ``codebook`` at the default and the
  widest width, ``gen-data`` at 4 classes in 5 dimensions and at 12 in 10,
  and an ``inject`` of each noise kind into the first generated train split.

It then prints ``sha256  relative/path`` for every file written, sorted by
path.  Wall-time and memory fields are dropped before hashing: the
``epoch_wall_ms`` and ``peak_mem_bytes`` columns and keys, and any key or
column ending in ``_ms``.  Everything else, including ``model.ckpt``, the
selection CSVs and the tools' CSVs, is hashed byte for byte.

``--root`` names the source checkout whose ``src/`` is run (default: the
checkout holding this script).  Running it on two commits and diffing the
outputs shows whether a change kept the outputs byte-identical.
"""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

SMALL = {
    "dataset": {"kind": "blobs", "classes": 4, "dim": 8, "per_class": 60},
    "noise": {"kind": "symmetric", "epsilon": 0.4},
    "train": {"epochs": 8, "warmup_epochs": 2, "hidden_width": 16, "batch_size": 32},
    "seeds": [3],
    "dump_selection": True,
}

# For plans with no variance-selecting cell, which refuse dump_selection.
SMALL_NO_DUMP = {key: value for key, value in SMALL.items() if key != "dump_selection"}

ALL_STRATEGIES = ["standard", "self_update", "cross_update", "jump_update"]


def _with_train(**knobs) -> dict:
    """SMALL over all four strategies, with some ``train`` fields changed."""
    return dict(SMALL, train=dict(SMALL["train"], **knobs), strategies=ALL_STRATEGIES)


def _with_noise(kind: str, **extra) -> dict:
    """SMALL over all four strategies under another noise model."""
    return dict(SMALL, noise=dict(SMALL["noise"], kind=kind, **extra),
                strategies=ALL_STRATEGIES)


RUNS = [
    ("strategies", "compare", dict(SMALL, strategies=ALL_STRATEGIES)),
    ("all_rows", "compare", SMALL),
    ("train", "train", SMALL),
    ("sweep", "compare",
     dict(SMALL, schedule={"strategy": "jump_update"}, effect_rates=[0.3, 0.7, 1.0])),
    ("sweep_self", "compare",
     dict(SMALL_NO_DUMP, schedule={"strategy": "self_update"}, effect_rates=[0.3, 0.7])),
    ("sweep_cross", "compare",
     dict(SMALL_NO_DUMP, schedule={"strategy": "cross_update"}, effect_rates=[0.3, 0.7])),
    ("no_warmup", "compare", _with_train(warmup_epochs=0)),
    ("jump_step3", "compare", dict(SMALL, schedule={"jump_step": 3})),
    ("jump_step4", "compare", dict(SMALL, schedule={"jump_step": 4})),
    ("bce_half", "compare", _with_train(bce_weight=0.5)),
    ("depth1", "compare", _with_train(hidden_layers=1)),
    ("depth3", "compare", _with_train(hidden_layers=3)),
    ("noise_instance", "compare", _with_noise("instance")),
    ("noise_pairflip", "compare", _with_noise("pairflip")),
    ("noise_asymmetric", "compare",
     _with_noise("asymmetric", class_map={"0": 2, "1": 3, "2": 0, "3": 1})),
]

ASYMMETRIC_MAP = '{"0": 2, "1": 3, "2": 0, "3": 1}'

# Standalone tool invocations, run in this order in <work>/tools/: every
# inject reads the train split the first gen-data writes.  The widest
# codebook, and 12 class centers truncated to 10 dimensions (neither a power
# of two), cover the Sylvester rows at the edges of their range.
TOOL_RUNS = [
    ["codebook", "--classes", "6", "--out", "codebook.csv"],
    ["codebook", "--classes", "3", "--bits", "4096", "--out", "codebook_wide.csv"],
    ["gen-data", "--classes", "4", "--dim", "5", "--per-class", "30", "--spread", "1.5",
     "--seed", "2", "--train-out", "train.csv", "--test-out", "test.csv"],
    ["gen-data", "--classes", "12", "--dim", "10", "--per-class", "5", "--spread", "0.5",
     "--center-scale", "2", "--seed", "3", "--train-out", "train_12x10.csv",
     "--test-out", "test_12x10.csv"],
] + [["inject", "--input", "train.csv", "--out", f"inject_{kind}.csv", "--kind", kind,
      "--epsilon", "0.3", "--seed", "4"]
     + (["--class-map", ASYMMETRIC_MAP] if kind == "asymmetric" else [])
     for kind in ("symmetric", "asymmetric", "pairflip", "instance")]


def volatile(name: str) -> bool:
    """Fields that hold wall time or memory and so differ between runs."""
    return name.endswith("_ms") or name == "peak_mem_bytes"


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if not volatile(k)}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def normalized_bytes(path: Path) -> bytes:
    if path.suffix == ".jsonl":
        rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        return "".join(json.dumps(_strip(r), sort_keys=True) + "\n" for r in rows).encode()
    if path.suffix == ".json":
        return json.dumps(_strip(json.loads(path.read_text())), sort_keys=True).encode()
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows and any(map(volatile, rows[0])):
            keep = [i for i, name in enumerate(rows[0]) if not volatile(name)]
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows([[r[i] for i in keep] for r in rows])
            return out.getvalue().encode()
    return path.read_bytes()


def workload_runs() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_run", REPO / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return [(name, "train", bench.make_config(name, bench.DEFAULT_SEED), dump)
            for name, (_, dump) in bench.WORKLOADS.items()]


def run_all(root: Path, work: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("NOISYLAB_OUT_DIR", None)

    def noisylab(name, args, cwd):
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", *args], env=env,
                              cwd=cwd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{name}: noisylab {args[0]} exited {proc.returncode}: "
                     f"{proc.stderr.strip()}")

    runs = [(name, cmd, cfg, False) for name, cmd, cfg in RUNS] + workload_runs()
    for name, cmd, cfg, dump in runs:
        cfg_path = work / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        noisylab(name, [cmd, "--config", str(cfg_path), "--out-dir", str(work / name)]
                 + (["--dump-selection"] if dump else []), work)
    tools = work / "tools"
    tools.mkdir()
    for args in TOOL_RUNS:
        noisylab("tools", args, tools)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="source checkout whose src/ is run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = Path(tmp)
        run_all(args.root.resolve(), work)
        files = sorted(p for p in work.rglob("*") if p.is_file()
                       and p.parent != work)  # the configs written above are inputs
        for path in files:
            digest = hashlib.sha256(normalized_bytes(path)).hexdigest()
            print(f"{digest}  {path.relative_to(work)}")
    print(f"{len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
