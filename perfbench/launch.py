"""One measured `noisylab train` process, started by run.py.

Usage: python3 perfbench/launch.py REPORT.json TRACE.npz|- -- <noisylab CLI args>

The process imports ``noisylab.cli`` from ``src/`` (PYTHONPATH set by the
caller, BLAS threads pinned in the environment before numpy loads), hooks
the names the package looks up at call time, runs ``cli.main`` and writes
REPORT.json: where ``noisylab`` was imported from, when the first
``run_epoch`` call started, the wall time of every ``run_epoch`` call, and
which hook targets were missing.

When a trace path is given instead of ``-``, every hook in HOOKS records a
span (name, parent, start, end, one measured quantity) in flat arrays that
are written to that .npz file after ``cli.main`` returns; run.py turns them
into the per-layer metrics.  Without a trace only ``run_epoch`` is timed.
"""

import importlib
import json
import os
import sys
import time
from array import array

EPOCH_HOOK = ("schedule.run_epoch", "noisylab.experiment", "run_epoch")
IMPORT_SPAN = "cli.import"

# (span name, owner, attribute).  The owner is where the package looks the
# name up at call time: a module for names imported with ``from x import y``
# and a class for methods, so patching it catches every call.
HOOKS = (
    ("numeric.matmul", "noisylab.model", "matmul"),
    ("model.forward", "noisylab.model:DualHeadNet", "forward"),
    ("model.backward", "noisylab.model:DualHeadNet", "backward"),
    ("model.create", "noisylab.model:DualHeadNet", "create"),
    ("model.loss", "noisylab.schedule", "losses_and_grads_from_forward"),
    ("model.sgd_step", "noisylab.schedule", "sgd_step"),
    ("selection.batch_flags", "noisylab.schedule", "batch_flags"),
    ("schedule.small_loss_select", "noisylab.schedule", "small_loss_select"),
    ("schedule.per_sample_cross_entropy", "noisylab.schedule", "per_sample_cross_entropy"),
    ("schedule.table.write", "noisylab.schedule:IdentifierTable", "write"),
    ("schedule.table.commit", "noisylab.schedule:IdentifierTable", "commit"),
    EPOCH_HOOK,
    ("metrics.evaluate", "noisylab.experiment", "evaluate"),
    ("selection.dump_decisions_csv", "noisylab.experiment", "dump_decisions_csv"),
    ("metrics.emit_report", "noisylab.experiment", "emit_report"),
    ("model.save_checkpoint", "noisylab.experiment", "save_checkpoint"),
    ("experiment.build_dataset", "noisylab.experiment", "build_dataset"),
    ("codebook.derive_codebook", "noisylab.experiment", "derive_codebook"),
)


def _matmul_flops(args, kwargs, result):
    a, b = args[0], args[1]
    return 2.0 * a.shape[0] * a.shape[1] * b.shape[1]


def _backward_rows(args, kwargs, result):
    # DualHeadNet.backward(self, res, dlogits, d_det_pre): every row of the
    # batch goes through backward, masked or not.
    dlogits = args[2] if len(args) > 2 else kwargs["dlogits"]
    return float(dlogits.shape[0])


def _trained_rows(args, kwargs, result):
    # losses_and_grads_from_forward(net, res, labels, targets, bce_weight, mask)
    res = args[1] if len(args) > 1 else kwargs["res"]
    mask = args[5] if len(args) > 5 else kwargs.get("mask")
    return float(res.probs.shape[0] if mask is None else int(mask.sum()))


def _dump_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return float(os.path.getsize(path))


MEASURES = {
    "numeric.matmul": _matmul_flops,
    "model.backward": _backward_rows,
    "model.loss": _trained_rows,
    "selection.dump_decisions_csv": _dump_bytes,
}


class Tracer:
    """Spans kept in flat arrays; a span's parent is the innermost span open
    when it started (single-threaded program, so one stack suffices)."""

    def __init__(self):
        self.names = []          # span name table; spans store the index
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")  # per-span quantity from MEASURES, else 0
        self.current = [-1]  # index of the innermost open span
        self.measure_failures = set()

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        measure = MEASURES.get(name)
        clock = time.perf_counter_ns
        push_name, push_parent = self.name_ix.append, self.parent.append
        push_start, push_end, push_value = self.start.append, self.end.append, self.value.append
        parent, end, value, current = self.parent, self.end, self.value, self.current
        failures = self.measure_failures

        def traced(*args, **kwargs):
            idx = len(end)
            push_name(nid)
            push_parent(current[0])
            push_end(0)
            push_value(0.0)
            current[0] = idx
            push_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                current[0] = parent[idx]
            if measure is not None:
                try:
                    value[idx] = measure(args, kwargs, result)
                except Exception:  # a changed signature must not fail the run
                    failures.add(name)
            return result
        return traced

    def record(self, name: str, t_start: int, t_end: int) -> None:
        """A span measured outside a wrapper (the import of noisylab.cli)."""
        self.name_ix.append(self.name_id(name))
        self.parent.append(self.current[0])
        self.start.append(t_start)
        self.end.append(t_end)
        self.value.append(0.0)

    def save(self, path) -> None:
        import numpy as np
        np.savez(path, names=np.array(self.names),
                 name_ix=np.frombuffer(self.name_ix, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 value=np.frombuffer(self.value, dtype=np.float64))


def _resolve_owner(owner: str):
    """Module or class named by ``owner``; None when it no longer exists."""
    mod_name, _, cls_name = owner.partition(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(obj, cls_name, None) if cls_name else obj


def install(hooks, wrap) -> list:
    """Replace each hook target by ``wrap(name, original)``.

    Returns the names of targets that could not be found; they are reported,
    never fatal.
    """
    missing = []
    for name, owner, attr in hooks:
        target = _resolve_owner(owner)
        raw = None if target is None else (
            target.__dict__.get(attr) if isinstance(target, type) else getattr(target, attr, None))
        if raw is None:
            missing.append(name)
        elif isinstance(raw, classmethod):
            setattr(target, attr, classmethod(wrap(name, raw.__func__)))
        else:
            setattr(target, attr, wrap(name, raw))
    return missing


def main(argv) -> int:
    report_path, trace_path = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]
    tracer = Tracer() if trace_path != "-" else None
    t_import = time.perf_counter_ns()
    import noisylab.cli as cli
    t_imported = time.perf_counter_ns()
    if tracer is not None:
        tracer.record(IMPORT_SPAN, t_import, t_imported)

    epochs = []  # [epoch index, wall ms] per run_epoch call
    first_epoch = []  # CLOCK_MONOTONIC ns when run_epoch was first entered

    def time_epochs(name, fn):
        inner = tracer.wrap(name, fn) if tracer is not None else fn

        def timed(state, epoch, *args, **kwargs):
            t0 = time.perf_counter_ns()
            if not first_epoch:
                first_epoch.append(time.monotonic_ns())
            try:
                return inner(state, epoch, *args, **kwargs)
            finally:
                epochs.append([int(epoch), (time.perf_counter_ns() - t0) / 1e6])
        return timed

    missing = install([EPOCH_HOOK], time_epochs)
    if tracer is not None:
        missing += install([h for h in HOOKS if h != EPOCH_HOOK], tracer.wrap)

    code = cli.main(cli_args)
    if tracer is not None:
        tracer.save(trace_path)
    report = {
        "noisylab_file": cli.__file__,
        "first_epoch_monotonic_ns": first_epoch[0] if first_epoch else None,
        "epochs": epochs,
        "missing_hooks": missing,
        "measure_failures": sorted(tracer.measure_failures) if tracer else [],
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
