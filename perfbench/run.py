#!/usr/bin/env python3
"""noisylab benchmark: timed `noisylab train` processes on three workloads.

    python3 perfbench/run.py --workload jump_dump --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each measured run is a fresh
`noisylab train` process (perfbench/launch.py), started one at a time with
BLAS, OpenMP and MKL pinned to one thread.  Processes are repeated until
``--seconds`` is used up; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced processes.
``--trace 1`` alternates untraced and traced processes and reports the
per-layer metrics computed from the traced processes' spans.  See
perfbench/README.md for the workloads, the metrics and how to read a trace.
"""

import argparse
import copy
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before anything here imports numpy
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ".perfbench_runs"
DEFAULT_SEED = 1
PROCESS_TIMEOUT_S = 100.0  # a hung process is killed and counted as failed

# One dataset for every workload: the default blobs (10 classes, 32 dims,
# 4,000 training rows) at hard symmetric noise, so accuracy is not saturated.
BASE_CONFIG = {
    "dataset": {"kind": "blobs", "classes": 10, "dim": 32, "per_class": 500},
    "noise": {"kind": "symmetric", "epsilon": 0.8},
    "train": {"epochs": 60, "warmup_epochs": 9, "hidden_width": 64,
              "batch_size": 128, "hidden_layers": 2, "temperature": 2.0},
}

# name -> (config on top of BASE_CONFIG, whether `train` gets --dump-selection)
WORKLOADS = {
    # The paper's schedule with per-epoch selection dumps: per-call overhead
    # bound (small matmuls), plus ~12 MB of CSV written between epochs.
    "jump_dump": ({"schedule": {"strategy": "jump_update"}}, True),
    # Two co-taught networks: double the model work, small-loss ranking, no
    # jump table and no dumps (the bypass for jump-only and artifact changes).
    "cross_pair": ({"schedule": {"strategy": "cross_update"}}, False),
    # Jump schedule at width 256, batch 256: kernel bound, so cuts in
    # floating-point work move it and per-call savings barely do.  Half the
    # rows per class keep a process near 6 s, so a run holds enough of them
    # for steady medians; the per-iteration shapes, and so matmul's share of
    # the epoch, are those of the full dataset.
    "jump_wide": ({"schedule": {"strategy": "jump_update"},
                   "dataset": {"per_class": 250},
                   "train": {"hidden_width": 256, "batch_size": 256}}, False),
}


def deep_merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def make_config(workload: str, seed: int, overrides: dict | None = None) -> dict:
    """The noisylab config a workload runs; the program sees only this."""
    cfg = deep_merge(deep_merge(BASE_CONFIG, WORKLOADS[workload][0]), {"seeds": [seed]})
    return deep_merge(cfg, overrides or {})


def train_rows(cfg: dict) -> int:
    ds = cfg["dataset"]
    return ds["classes"] * (ds["per_class"] - int(round(0.2 * ds["per_class"])))


def expected_layout(cfg: dict) -> dict:
    classes = cfg["dataset"]["classes"]
    code_bits = 1 << (max(16, 2 * classes) - 1).bit_length()
    tr = cfg["train"]
    return {"input_dim": cfg["dataset"]["dim"], "num_classes": classes,
            "code_bits": code_bits, "hidden_width": tr["hidden_width"],
            "hidden_layers": tr["hidden_layers"], "temperature": tr["temperature"]}


def load_metric_specs(root: Path = ROOT) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


# ---------------------------------------------------------------- processes

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("NOISYLAB_OUT_DIR", None)
    return env


def _wait_with_timeout(proc: subprocess.Popen, timeout_s: float):
    """Block in wait4 (exact exit time, per-process rusage); a timer kills
    the child if it overruns."""
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_process(root: Path, pdir: Path, cfg: dict, dump: bool, traced: bool,
                timeout_s: float = PROCESS_TIMEOUT_S) -> dict:
    """Run one `noisylab train` process in ``pdir`` and check its outputs."""
    pdir.mkdir(parents=True)
    (pdir / "config.json").write_text(json.dumps(cfg, indent=1))
    report_path = pdir / "report.json"
    trace_path = pdir / "trace.npz"
    cmd = [sys.executable, str(HERE / "launch.py"), str(report_path),
           str(trace_path) if traced else "-", "--", "train",
           "--config", str(pdir / "config.json"), "--out-dir", str(pdir / "out")]
    if dump:
        cmd.append("--dump-selection")
    rec = {"traced": traced, "reasons": [], "dir": pdir}
    with open(pdir / "stdout.txt", "wb") as out, open(pdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd, env=child_env(root), cwd=pdir,
                                stdout=out, stderr=err)
        code, usage = _wait_with_timeout(proc, timeout_s)
        t_exit = time.monotonic_ns()
    rec["wall_s"] = (t_exit - t0) / 1e9
    rec["rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    if code != 0:
        tail = (pdir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        rec["reasons"].append(f"exit code {code}: {tail[-1] if tail else ''}")
        return rec
    try:
        report = json.loads(report_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        rec["reasons"].append(f"no launcher report: {exc}")
        return rec
    rec["report"] = report
    if not str(report["noisylab_file"]).startswith(str(root / "src")):
        rec["reasons"].append(f"noisylab imported from {report['noisylab_file']}, not {root / 'src'}")
    if report["first_epoch_monotonic_ns"] is None:
        rec["reasons"].append("run_epoch was never timed (hook target missing?)")
    else:
        rec["setup_s"] = (report["first_epoch_monotonic_ns"] - t0) / 1e9
    rec["reasons"] += check_outputs(pdir / "out", cfg, dump, rec)
    return rec


def check_outputs(out_root: Path, cfg: dict, dump: bool, rec: dict) -> list:
    """Failure reasons for one run's artifacts; fills rec with the summary."""
    from noisylab.model import load_checkpoint

    epochs = cfg["train"]["epochs"]
    cells = sorted(out_root.glob("*/*-seed*"))
    if len(cells) != 1:
        return [f"expected one run directory under {out_root}, found {len(cells)}"]
    cell = cells[0]
    rec["artifact_bytes"] = _dir_bytes(out_root)
    reasons = []
    try:
        rows = [json.loads(line) for line in (cell / "epochs.jsonl").read_text().splitlines()
                if line.strip()]
        accs = [float(r["test_acc"]) for r in rows]
        summary = json.loads((cell / "summary.json").read_text())
        rec["last10_acc"] = float(summary["last10_mean_acc"])
        rec["sel_f1"] = float(summary["mean_sel_f1"])
        with open(cell / "curves.csv", newline="") as fh:
            curves = list(csv.reader(fh))
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        return [f"report artifacts unreadable: {exc!r}"]
    if len(rows) != epochs or len(curves) != epochs + 1:
        reasons.append(f"epochs.jsonl has {len(rows)} rows and curves.csv "
                       f"{len(curves) - 1}, expected {epochs}")
    last10 = sum(accs[-10:]) / len(accs[-10:]) if accs else float("nan")
    if not abs(rec["last10_acc"] - last10) <= 1e-9:
        reasons.append(f"summary.json last10_mean_acc {rec['last10_acc']} "
                       f"!= {last10} from epochs.jsonl")
    chance = 1.0 / cfg["dataset"]["classes"]
    if not last10 >= 1.5 * chance:
        reasons.append(f"last10 accuracy {last10} is not above 1.5x chance: learning broke")
    try:
        net, _ = load_checkpoint(cell / "model.ckpt")
        if net.layout() != expected_layout(cfg):
            reasons.append(f"model.ckpt layout {net.layout()} != {expected_layout(cfg)}")
    except Exception as exc:  # any failure to load is a failed run, reported
        reasons.append(f"model.ckpt does not load: {exc!r}")
    if dump:
        names = sorted(p.name for p in (cell / "selection").glob("*.csv"))
        want = [f"epoch_{e:03d}.csv" for e in range(epochs)]
        if names != want:
            reasons.append(f"expected {epochs} selection CSVs, found {len(names)}")
        else:
            with open(cell / "selection" / want[-1], newline="") as fh:
                n_rows = sum(1 for _ in csv.reader(fh)) - 1
            if n_rows != train_rows(cfg):
                reasons.append(f"{want[-1]} has {n_rows} rows, expected {train_rows(cfg)}")
    return reasons


def check_determinism(records: list) -> None:
    """Same-seed processes of one commit must agree exactly on accuracy and
    selection F1; every process that disagrees with the first is failed."""
    ok = [r for r in records if not r["reasons"]]
    if not ok:
        return
    ref = (ok[0]["last10_acc"], ok[0]["sel_f1"])
    for r in ok[1:]:
        if (r["last10_acc"], r["sel_f1"]) != ref:
            r["reasons"].append(f"last10_acc/sel_f1 {(r['last10_acc'], r['sel_f1'])} "
                                f"differ from the same seed's {ref}")


# ------------------------------------------------------------------ metrics

def end_to_end(records: list, warmup: int) -> dict:
    epochs = [ms for r in records for e, ms in r["report"]["epochs"] if e >= warmup]
    percentiles = statistics.quantiles(epochs, n=100, method="inclusive")
    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "run_wall_s": statistics.median(r["wall_s"] for r in records),
        "epoch_ms_p50": statistics.median(epochs),
        "epoch_ms_p80": percentiles[79],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in records),
    }, len(epochs)


def load_spans(path: Path) -> dict:
    """A traced process's spans with durations and self times (ns)."""
    import numpy as np
    with np.load(path) as z:
        sp = {k: z[k] for k in z.files}
    names = [str(n) for n in sp["names"]]
    sp["names"] = names
    sp["dur"] = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    child = np.bincount(sp["parent"][has_parent], weights=sp["dur"][has_parent],
                        minlength=sp["dur"].size)
    sp["self"] = sp["dur"] - child.astype(np.int64)
    # in_epoch: the span is a run_epoch call or lies inside one.
    epoch_id = names.index("schedule.run_epoch") if "schedule.run_epoch" in names else -2
    is_epoch = sp["name_ix"] == epoch_id
    in_epoch = is_epoch.copy()
    anc = sp["parent"].copy()
    while (anc >= 0).any():
        live = anc >= 0
        in_epoch[live] |= is_epoch[anc[live]]
        anc[live] = sp["parent"][anc[live]]
    sp["in_epoch"] = in_epoch
    return sp


def _bookkeeping_ns(sp: dict) -> int:
    """Time between one run_epoch's end and the next run_epoch (for the last
    epoch: emit_report) starting, minus evaluate and dump spans inside it."""
    names = sp["names"]
    gap_start = None
    total = 0
    for i in [int(i) for i in (sp["parent"] < 0).nonzero()[0]]:
        name = names[sp["name_ix"][i]]
        if name in ("schedule.run_epoch", "metrics.emit_report"):
            if gap_start is not None:
                total += int(sp["start"][i]) - gap_start
            gap_start = int(sp["end"][i]) if name == "schedule.run_epoch" else None
        elif gap_start is not None and name in ("metrics.evaluate",
                                                "selection.dump_decisions_csv"):
            total -= int(sp["dur"][i])
    return total


def layer_metrics(sp: dict, wall_s: float, plain_wall_s: float, iters: int,
                  n_epochs: int, artifact_bytes: int, missing: list) -> dict:
    names = sp["names"]

    def sel(name, epoch_only=True):
        m = sp["name_ix"] == (names.index(name) if name in names else -1)
        return m & sp["in_epoch"] if epoch_only else m

    def ms(name, field="dur", epoch_only=True):
        return float(sp[field][sel(name, epoch_only)].sum()) / 1e6

    def total(name, epoch_only=True):
        return float(sp["value"][sel(name, epoch_only)].sum())

    backward_rows = total("model.backward")
    top = sp["parent"] < 0
    epoch_ms_total = ms("schedule.run_epoch")
    return {
        "numeric.matmul.calls_per_iter": int(sel("numeric.matmul").sum()) / iters,
        "numeric.matmul.mflop_per_iter": total("numeric.matmul") / 1e6 / iters,
        "numeric.matmul.ms_per_iter": ms("numeric.matmul") / iters,
        "numeric.matmul.epoch_share": ms("numeric.matmul") / epoch_ms_total if epoch_ms_total else 0.0,
        "model.forward.self_ms_per_iter": ms("model.forward", "self") / iters,
        "model.backward.self_ms_per_iter": ms("model.backward", "self") / iters,
        "model.loss.self_ms_per_iter": ms("model.loss", "self") / iters,
        "model.sgd_step.ms_per_iter": ms("model.sgd_step") / iters,
        "model.rows_useful_frac": total("model.loss") / backward_rows if backward_rows else 0.0,
        "selection.batch_flags.ms_per_iter": ms("selection.batch_flags") / iters,
        "schedule.small_loss.ms_per_iter": (ms("schedule.small_loss_select")
                                            + ms("schedule.per_sample_cross_entropy")) / iters,
        "schedule.table.write_ms_per_iter": ms("schedule.table.write") / iters,
        "schedule.table.commit_ms": ms("schedule.table.commit"),
        "schedule.table.commits": int(sel("schedule.table.commit").sum()),
        "schedule.loop.self_ms_per_iter": ms("schedule.run_epoch", "self") / iters,
        "metrics.evaluate.ms_per_epoch": ms("metrics.evaluate", epoch_only=False) / n_epochs,
        "experiment.bookkeeping.ms_per_epoch": _bookkeeping_ns(sp) / 1e6 / n_epochs,
        "selection.dump_decisions_csv.ms_per_epoch":
            ms("selection.dump_decisions_csv", epoch_only=False) / n_epochs,
        "selection.dump_decisions_csv.mb_per_epoch":
            total("selection.dump_decisions_csv", epoch_only=False) / 1e6 / n_epochs,
        "metrics.emit_report.ms": ms("metrics.emit_report", epoch_only=False),
        "model.save_checkpoint.ms": ms("model.save_checkpoint", epoch_only=False),
        "artifacts.mb": artifact_bytes / 1e6,
        "cli.import_ms": ms("cli.import", epoch_only=False),
        "experiment.build_dataset.ms": ms("experiment.build_dataset", epoch_only=False),
        "codebook.derive_codebook.ms": ms("codebook.derive_codebook", epoch_only=False),
        "model.create.ms": ms("model.create", epoch_only=False),
        "trace.overhead_pct": (wall_s / plain_wall_s - 1.0) * 100.0,
        "trace.unattributed_pct": (1.0 - float(sp["dur"][top].sum()) / 1e9 / wall_s) * 100.0,
        "trace.missing_hooks": len(missing),
    }


def span_table(sp: dict) -> list:
    """Aggregate spans by call path: (path, calls, total ms, self ms)."""
    names = sp["names"]
    paths = {}
    rows = {}
    for i in range(sp["dur"].size):
        p = int(sp["parent"][i])
        path = (paths[p] if p >= 0 else "") + "/" + names[sp["name_ix"][i]]
        paths[i] = path
        row = rows.setdefault(path, [0, 0, 0])
        row[0] += 1
        row[1] += int(sp["dur"][i])
        row[2] += int(sp["self"][i])
    return [(path, c, t / 1e6, s / 1e6) for path, (c, t, s) in sorted(rows.items())]


# ---------------------------------------------------------------- workloads

def environment(root: Path) -> dict:
    """Where and on what the numbers were taken; metadata, not metrics."""
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = None
    env["cpu"] = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        env["cpu"] = models[0] if models else env["cpu"]
    except OSError:
        pass
    env["git_sha"] = _git_sha(root)
    env["src_lines"] = sum(len(p.read_text().splitlines())
                           for p in sorted((root / "src").rglob("*.py")))
    return env


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 overrides: dict | None = None, work: Path | None = None) -> dict:
    """Repeat the workload's process until ``seconds`` are used; check and
    summarize.  With ``trace`` untraced and traced processes alternate."""
    cfg = make_config(name, seed, overrides)
    dump = WORKLOADS[name][1]
    work = work or root / WORK_DIR / f"{name}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile src/ to bytecode and warm the file cache before timing.
    subprocess.run([sys.executable, "-c", "import noisylab.cli"], env=child_env(root),
                   cwd=work, check=False, stdout=subprocess.DEVNULL)

    records = []
    last_wall = {}
    t_start = time.monotonic()
    deadline = t_start + seconds + PROCESS_TIMEOUT_S
    while time.monotonic() < deadline:
        traced = trace and len(records) % 2 == 1
        if len(records) >= 2:  # two processes: the least for a determinism check
            est = last_wall.get(traced, last_wall.get(False, 0.0) * 1.3)
            if time.monotonic() - t_start + est > seconds:
                break
        rec = run_process(root, work / f"p{len(records):02d}", cfg, dump, traced,
                          min(PROCESS_TIMEOUT_S, deadline - time.monotonic()))
        last_wall[traced] = rec["wall_s"]
        records.append(rec)
        if not rec["reasons"]:
            shutil.rmtree(rec["dir"] / "out", ignore_errors=True)
    check_determinism(records)

    ok_plain = [r for r in records if not r["reasons"] and not r["traced"]]
    ok_traced = [r for r in records if not r["reasons"] and r["traced"]]
    result = {"attempted": len(records),
              "failed": sum(1 for r in records if r["reasons"]),
              "failures": [f"{r['dir'].name}: {'; '.join(r['reasons'])}"
                           for r in records if r["reasons"]],
              "walls": [(r["wall_s"], r["traced"]) for r in records],
              "work_dir": str(work), "metrics": None}
    if not ok_plain or (trace and not ok_traced):
        return result
    if not trace:
        result["metrics"], result["epoch_samples"] = end_to_end(
            ok_plain, cfg["train"]["warmup_epochs"])
        return result

    iters = cfg["train"]["epochs"] * math.ceil(train_rows(cfg) / cfg["train"]["batch_size"])
    plain_wall = statistics.median(r["wall_s"] for r in ok_plain)
    per_proc = []
    for r in ok_traced:
        missing = r["report"]["missing_hooks"] + [
            f"{m} (measure)" for m in r["report"]["measure_failures"]]
        sp = load_spans(r["dir"] / "trace.npz")
        per_proc.append(layer_metrics(sp, r["wall_s"], plain_wall, iters,
                                      len(r["report"]["epochs"]),
                                      r["artifact_bytes"], missing))
        result["missing_hooks"] = missing
        result["span_table"] = span_table(sp)
    result["metrics"] = {k: statistics.median(m[k] for m in per_proc) for k in per_proc[0]}
    # Exact for a seed (checked across the run's processes), but they vary
    # too much from seed to seed to be gated end-to-end metrics.
    result["metrics"]["last10_acc"] = ok_traced[0]["last10_acc"]
    result["metrics"]["sel_f1"] = ok_traced[0]["sel_f1"]
    return result


def format_result(result: dict, units: dict) -> dict:
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = ROOT
    if not (root / "src" / "noisylab" / "cli.py").is_file():
        print(f"perfbench: no noisylab source at {root / 'src' / 'noisylab'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import noisylab
    if not noisylab.__file__.startswith(str(root / "src")):
        print(f"perfbench: noisylab resolved to {noisylab.__file__}", file=sys.stderr)
        return 2

    specs = load_metric_specs(root)["per_layer" if args.trace else "end_to_end"]
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print("env: " + json.dumps(environment(root), sort_keys=True))
    for line in result["failures"]:
        print(f"failed: {line}")
    if result.get("missing_hooks"):
        print("trace: missing hook targets: " + ", ".join(result["missing_hooks"]))
    for path, calls, total_ms, self_ms in result.get("span_table", []):
        print(f"span: {path:<70} calls {calls:>7}  total {total_ms:10.2f} ms  self {self_ms:10.2f} ms")
    if "epoch_samples" in result:
        print(f"epochs: {result['epoch_samples']} post-warm-up epochs pooled for epoch_ms_*")
    print(f"runs: {result['attempted']} attempted, {result['failed']} failed; "
          + ", ".join(f"{wall:.3f}s{' traced' if traced else ''}"
                      for wall, traced in result["walls"]))
    if result["metrics"] is None:
        print("perfbench: no successful run to measure", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(specs):
        print(f"perfbench: metric set differs from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(specs))}", file=sys.stderr)
        return 1
    for k, v in result["metrics"].items():
        print(f"metric: {k:<45} {v:.6g} {specs[k]['unit']} ({specs[k]['better']} is better)")
    units = {k: s["unit"] for k, s in specs.items()}
    print(json.dumps(format_result(result, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
