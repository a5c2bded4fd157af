"""Self-tests of the benchmark harness on tiny configs (a few seconds).

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import launch  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))

# 160 training rows, 5 epochs with 1 warm-up: each process takes well under
# a second, the jump table still commits, and at 20% noise the network
# learns enough to clear the accuracy floor.
TINY = {"dataset": {"per_class": 20}, "noise": {"epsilon": 0.2},
        "train": {"epochs": 5, "warmup_epochs": 1}}
SPECS = run.load_metric_specs()


def tiny_run(tmp_path, workload, trace, overrides=TINY):
    return run.run_workload(run.ROOT, workload, 3, 0, trace, overrides=overrides,
                            work=tmp_path / f"{workload}-{int(trace)}")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    return {w: tiny_run(base, w, True) for w in run.WORKLOADS}


def test_metric_specs_declare_unit_and_direction():
    for group in SPECS.values():
        for name, spec in group.items():
            assert spec["unit"] and spec["better"] in ("higher", "lower"), name


def test_end_to_end_run_emits_every_metric(tmp_path):
    result = tiny_run(tmp_path, "jump_dump", False)
    assert result["failures"] == []
    assert result["attempted"] == 2 and result["failed"] == 0
    out = run.format_result(result, {k: s["unit"] for k, s in SPECS["end_to_end"].items()})
    assert out["correct"] is True
    assert set(out["metrics"]) == set(SPECS["end_to_end"])
    for name, metric in out["metrics"].items():
        assert metric["unit"] == SPECS["end_to_end"][name]["unit"]
        assert metric["value"] > 0, name


def test_traced_run_emits_every_layer_metric(traced):
    for workload, result in traced.items():
        assert result["failed"] == 0, result["failures"]
        assert set(result["metrics"]) == set(SPECS["per_layer"]), workload
        assert result["metrics"]["trace.missing_hooks"] == 0
        assert result["metrics"]["numeric.matmul.calls_per_iter"] == 18 * (
            2 if workload == "cross_pair" else 1)


def test_layers_separate_by_workload(traced):
    jump, cross, wide = (traced[w]["metrics"] for w in ("jump_dump", "cross_pair", "jump_wide"))
    for name in ("selection.batch_flags.ms_per_iter", "schedule.table.write_ms_per_iter",
                 "schedule.table.commit_ms", "schedule.table.commits"):
        assert cross[name] == 0 and jump[name] > 0 and wide[name] > 0, name
    assert jump["schedule.small_loss.ms_per_iter"] == 0
    assert wide["schedule.small_loss.ms_per_iter"] == 0
    assert cross["schedule.small_loss.ms_per_iter"] > 0
    assert jump["selection.dump_decisions_csv.mb_per_epoch"] > 0
    assert cross["selection.dump_decisions_csv.mb_per_epoch"] == 0
    assert wide["selection.dump_decisions_csv.mb_per_epoch"] == 0
    assert wide["numeric.matmul.mflop_per_iter"] > jump["numeric.matmul.mflop_per_iter"]


def test_self_time_never_exceeds_parent_span(traced):
    for result in traced.values():
        pdir = Path(result["work_dir"]) / "p01"
        sp = run.load_spans(pdir / "trace.npz")
        par = sp["parent"]
        child = par >= 0
        assert (sp["self"] >= 0).all()
        assert (sp["self"][child] <= sp["dur"][par[child]]).all()
        assert (sp["start"][child] >= sp["start"][par[child]]).all()
        assert (sp["end"][child] <= sp["end"][par[child]]).all()
        assert result["metrics"]["trace.unattributed_pct"] > 0


@pytest.mark.parametrize("override, reason", [
    ({"train": {"epochs": 0}}, "exit code 2"),
    ({"noise": {"epsilon": 0.8}, "train": {"epochs": 3}}, "learning broke"),
])
def test_failed_process_is_counted(tmp_path, override, reason):
    result = tiny_run(tmp_path, "cross_pair", False,
                      overrides=run.deep_merge(TINY, override))
    assert result["attempted"] == 2 and result["failed"] == 2
    assert all(reason in f for f in result["failures"])
    assert result["metrics"] is None


def test_bad_artifacts_are_failures(tmp_path):
    cfg = run.make_config("jump_dump", 3, TINY)
    rec = run.run_process(run.ROOT, tmp_path / "p", cfg, True, False)
    assert rec["reasons"] == []
    cell = next((tmp_path / "p" / "out").glob("*/*-seed3"))
    summary = json.loads((cell / "summary.json").read_text())
    summary["last10_mean_acc"] += 0.01
    (cell / "summary.json").write_text(json.dumps(summary))
    (cell / "selection" / "epoch_001.csv").unlink()
    (cell / "model.ckpt").write_bytes(b"garbage")
    reasons = run.check_outputs(tmp_path / "p" / "out", cfg, True, {})
    assert any("last10_mean_acc" in r for r in reasons)
    assert any("selection CSVs" in r for r in reasons)
    assert any("model.ckpt" in r for r in reasons)


def test_nondeterministic_outputs_are_failures():
    recs = [{"reasons": [], "last10_acc": 0.5, "sel_f1": 0.7},
            {"reasons": [], "last10_acc": 0.5, "sel_f1": 0.7},
            {"reasons": [], "last10_acc": 0.5, "sel_f1": 0.71}]
    run.check_determinism(recs)
    assert [bool(r["reasons"]) for r in recs] == [False, False, True]


def test_missing_hook_target_is_reported_not_fatal():
    missing = launch.install([("gone.fn", "noisylab.model", "no_such_function"),
                              ("gone.cls", "noisylab.model:NoSuchClass", "forward"),
                              ("gone.mod", "noisylab.no_such_module", "f")],
                             lambda name, fn: fn)
    assert missing == ["gone.fn", "gone.cls", "gone.mod"]


def test_tracer_nests_spans_and_measures():
    tracer = launch.Tracer()

    def leaf(a, b):
        return a

    class M:
        shape = (4, 8)

    outer = tracer.wrap("outer", lambda: [inner(M, M) for _ in range(3)])
    inner = tracer.wrap("numeric.matmul", leaf)
    outer()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert list(tracer.value) == [0.0] + [2.0 * 4 * 8 * 8] * 3
    assert tracer.current == [-1]


def test_environment_is_recorded():
    env = run.environment(run.ROOT)
    for key in ("python", "numpy", "blas", "nproc", "cpu", "git_sha", "src_lines"):
        assert key in env
    assert env["src_lines"] > 0
    assert set(env["blas_threads"].values()) == {"1"}
