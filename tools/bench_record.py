#!/usr/bin/env python3
"""Record one point of the performance trajectory in a BENCH_<n>.json file.

    python3 tools/bench_record.py --out BENCH_7.json

Runs from the checkout holding this script, one process at a time, with
perfbench's own run length and seed:

* ``perfbench/run.py --trace 0`` on every workload BENCHMARK.json declares
  (the end-to-end metrics);
* ``perfbench/run.py --trace 1`` on ``jump_dump`` (the per-layer split);
* one in-process ``jump_wide`` run: ``experiment.CellRun(...).run()`` on
  perfbench's ``jump_wide`` config and seed in a fresh interpreter, BLAS
  pinned to one thread, storing the minor page faults taken during
  ``run()`` and the process's ``ru_maxrss`` (how steady the training step's
  heap is);
* a second, separate in-process ``jump_wide`` pass under ``tracemalloc``
  (so the faults and ``ru_maxrss`` above are not its): each training
  step's heap high-water above the heap held when its epoch's first batch
  starts, the largest over the steps of the last warm-up epoch and over
  those of the first epoch after the first commit, whose gated steps train
  on the active buffer's rows;
* the tier-1 test suite, timed.

It writes one JSON object: the last line of each benchmark run (its JSON
result) under ``"<workload>-trace<0|1>"``, the tier-1 wall time, exit code,
result line and failed test ids, and the context that makes two files
comparable: ``nproc``, the 1-minute load average before and after, the
``src/`` line count, the git tree ids of the ``src/``, ``tests/`` and
``perfbench/`` that ran, and the git sha of HEAD.  A tree id is taken from
the working tree, so it equals ``git rev-parse <commit>:src`` for the commit
that holds exactly those files, whether or not they were committed when the
file was recorded.  The sha is HEAD's only when HEAD holds those three
trees; recorded before the commit that holds them, it is null, and the tree
ids name what ran.  Compare two files only when they were taken on the same
machine.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACED_WORKLOAD = "jump_dump"
INPROCESS_WORKLOAD = "jump_wide"
# argv: perfbench/run.py, workload.  Prints one JSON line.  Loading
# perfbench/run.py pins the BLAS threads before noisylab imports numpy.
INPROCESS_PROBE = """
import importlib.util, json, resource, sys
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
from noisylab.config import parse_config
from noisylab.experiment import CellRun
cfg = parse_config(bench.make_config(sys.argv[2], bench.DEFAULT_SEED))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
CellRun(cfg, cfg.schedule.strategy, bench.DEFAULT_SEED).run()
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"minor_faults": usage.ru_minflt - before,
                  "ru_maxrss_mb": usage.ru_maxrss * 1024 / 1e6}))
"""
# argv as INPROCESS_PROBE.  Wraps schedule._batches, so every step runs
# between two of its yields.  Prints one JSON line.
STEP_HEAP_PROBE = """
import importlib.util, json, sys, tracemalloc
spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)
from noisylab import schedule
from noisylab.config import parse_config
from noisylab.experiment import CellRun
cfg = parse_config(bench.make_config(sys.argv[2], bench.DEFAULT_SEED))
cell = CellRun(cfg, cfg.schedule.strategy, bench.DEFAULT_SEED)
batches, steps = schedule._batches, []
def measured(cell):
    steady = None
    for idx in batches(cell):
        if steady is None:
            steady = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield idx
        steps.append(tracemalloc.get_traced_memory()[1] - steady)
schedule._batches = measured
warm = cfg.train.warmup_epochs
tracemalloc.start()
peaks = []
for epoch in range(warm + 2):  # the first commit ends epoch `warm`
    steps.clear()
    schedule.run_epoch(cell, epoch)
    peaks.append(max(steps) / 1e6)
print(json.dumps({"warmup_step_heap_mb": peaks[warm - 1],
                  "gated_step_heap_mb": peaks[warm + 1]}))
"""
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
TREES = ("src", "tests", "perfbench")


def _git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=REPO, env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


def worktree_trees() -> dict:
    """Git tree id of each of TREES as it stands in the working tree
    (tracked and untracked files, .gitignore applied), staged in a scratch
    index so the repository's own index is left alone."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("add", "--", *TREES, env=env)
        return {d: _git("write-tree", f"--prefix={d}/", env=env) for d in TREES}


def head_sha(trees: dict):
    """HEAD's sha when HEAD's trees are ``trees``, else None."""
    if all(_git("rev-parse", f"HEAD:{d}") == tree for d, tree in trees.items()):
        return _git("rev-parse", "HEAD")
    return None


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--trace", str(trace)],
                          cwd=REPO, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_record: {workload} --trace {trace} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))


def inprocess(workload: str, probe: str = INPROCESS_PROBE) -> dict:
    """Minor faults and peak RSS of one ``CellRun.run()`` of ``workload``, or
    what another ``probe`` prints."""
    proc = subprocess.run([sys.executable, "-c", probe,
                           str(REPO / "perfbench" / "run.py"), workload],
                          cwd=REPO, env=src_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_record: in-process {workload} exited {proc.returncode}: "
                 f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1() -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=REPO, env=src_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1[1:]),
            "wall_s": round(wall, 3), "returncode": proc.returncode,
            "result": lines[-1] if lines else "",
            "failed": [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    trees = worktree_trees()
    record = {
        "git_sha": head_sha(trees),
        "git_trees": trees,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_start": os.getloadavg()[0],
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((REPO / "src").rglob("*.py"))),
    }
    for workload, trace in [(w, 0) for w in workloads] + [(TRACED_WORKLOAD, 1)]:
        print(f"bench_record: {workload} --trace {trace}", file=sys.stderr)
        record[f"{workload}-trace{trace}"] = bench(workload, trace)
    print(f"bench_record: in-process {INPROCESS_WORKLOAD}", file=sys.stderr)
    record[f"{INPROCESS_WORKLOAD}-inprocess"] = inprocess(INPROCESS_WORKLOAD)
    print(f"bench_record: step heap {INPROCESS_WORKLOAD}", file=sys.stderr)
    record[f"{INPROCESS_WORKLOAD}-inprocess"].update(
        inprocess(INPROCESS_WORKLOAD, STEP_HEAP_PROBE))
    print("bench_record: tier-1", file=sys.stderr)
    record["tier1"] = tier1()
    record["loadavg_1min_end"] = os.getloadavg()[0]
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"bench_record: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
