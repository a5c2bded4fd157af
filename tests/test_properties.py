"""Property tests: the model's one backward walk and ``batch_flags`` match
their oracles bit for bit on generated shapes, depths and masks,
``CellRun`` builds every run with the invariants the training loop
trusts without re-checking, a gated jump update reads only rows produced
in the window the latest commit closed, and ``train`` keeps the CLI's
exit-code and one-line contract on valid and broken configs.

Examples are derandomized and few, so every run checks the same cases and
tier-1 stays deterministic.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from noisylab import schedule
from noisylab.cli import main
from noisylab.codebook import default_code_bits, derive_codebook
from noisylab.config import parse_config
from noisylab.data import NOISE_KINDS
from noisylab.experiment import CellRun
from noisylab.model import Z_CLAMP, DualHeadNet, losses_and_grads_from_forward
from noisylab.numeric import rng_stream
from noisylab.schedule import STRATEGY_ROWS
from noisylab.selection import SelectionConfig, batch_flags
from oracles import (backward_per_layer, batch_variance_and_bce, select_rows,
                     targets_for, upstream_gradients)

FEW = settings(derandomize=True, max_examples=25, deadline=None, database=None)


@st.composite
def masked_batches(draw):
    """A network shape, a batch size and a mask (None, or keeping >= 1 row)."""
    rows = draw(st.integers(1, 40))
    mask = draw(st.none() | hnp.arrays(bool, rows).filter(np.any))
    return dict(depth=draw(st.integers(1, 4)), width=draw(st.integers(1, 24)),
                input_dim=draw(st.integers(1, 12)), classes=draw(st.integers(2, 12)),
                temperature=draw(st.sampled_from([0.5, 1.0, 2.0])),
                bce_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
                seed=draw(st.integers(0, 2**16)), rows=rows, mask=mask)


@FEW
@given(masked_batches())
def test_loss_gradients_are_bitwise_the_per_layer_oracle(case):
    classes, rows = case["classes"], case["rows"]
    bits = default_code_bits(classes)
    net = DualHeadNet.create(case["input_dim"], classes, bits, case["width"],
                             case["depth"], case["temperature"], rng_stream(case["seed"], 0))
    g = rng_stream(case["seed"], 1)
    labels = g.integers(0, classes, size=rows)
    targets = targets_for(derive_codebook(bits, classes), labels)
    res = net.forward(g.normal(size=(rows, case["input_dim"])))
    mask = case["mask"]
    losses_and_grads_from_forward(net, res, labels, targets, case["bce_weight"], mask)
    if mask is not None:  # a masked update trains on the selected rows only
        res, labels, targets = select_rows(res, mask), labels[mask], targets[mask]
    want = backward_per_layer(net, res.acts, *upstream_gradients(
        res, labels, targets, net.temperature, case["bce_weight"]))
    assert net.grad.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


@FEW
@given(st.integers(1, 48), st.integers(1, 80), st.integers(2, 10), st.data())
def test_batch_flags_are_bitwise_the_oracle(rows, bits, classes, data):
    z = data.draw(hnp.arrays(np.float64, (rows, bits),
                             elements=st.floats(Z_CLAMP, 1.0 - Z_CLAMP)))
    targets = data.draw(hnp.arrays(np.float64, (rows, bits),
                                   elements=st.sampled_from([0.0, 1.0])))
    g = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    probs = g.dirichlet(np.ones(classes), size=rows)
    labels = g.integers(0, classes, size=rows)
    cfg = SelectionConfig(tau=data.draw(st.sampled_from([1e-6, 1e-3, 0.05])))
    flags = batch_flags(z, targets, probs, labels, cfg)
    variance, bce = batch_variance_and_bce(z, targets)
    assert flags.variance.tobytes() == variance.tobytes()
    assert flags.bce.tobytes() == bce.tobytes()
    assert np.array_equal(flags.detection, variance <= cfg.tau)
    assert np.array_equal(flags.classifier, np.argmax(probs, axis=1) == labels)
    assert np.array_equal(flags.combined, flags.detection | flags.classifier)


@st.composite
def small_runs(draw):
    """A small blob config under any noise model, a strategy and a seed."""
    classes = draw(st.integers(2, 6))
    noise = {"kind": draw(st.sampled_from(NOISE_KINDS)),
             "epsilon": draw(st.sampled_from([0.0, 0.3, 0.7]))}
    if noise["kind"] == "asymmetric":
        noise["class_map"] = {str(c): (c + 1) % classes for c in range(classes)}
    cfg = parse_config({
        "dataset": {"classes": classes, "dim": draw(st.integers(2, 6)),
                    "per_class": draw(st.integers(3, 12))},
        "noise": noise,
        "train": {"epochs": 3, "warmup_epochs": 1, "batch_size": draw(st.integers(1, 16)),
                  "hidden_width": draw(st.integers(1, 8)),
                  "hidden_layers": draw(st.integers(1, 3))},
    })
    return cfg, draw(st.sampled_from(list(STRATEGY_ROWS))), draw(st.integers(0, 2**16))


@FEW
@given(small_runs())
def test_cell_run_builds_what_the_loop_trusts(run):
    cfg, strategy, seed = run
    cell = CellRun(cfg, strategy, seed)
    data, test, net = cell.train, cell.test, cell.nets[0]
    row = STRATEGY_ROWS[strategy]
    assert cell.row == row and len(cell.nets) == row.nets
    targets = cell.target_table[data.noisy_labels]  # what each training row trains on
    assert targets.shape == (data.n_samples, net.layout()["code_bits"])
    assert np.isin(targets, (0.0, 1.0)).all()
    for labels in (data.noisy_labels, data.true_labels, test.true_labels):
        assert 0 <= labels.min() and labels.max() < net.layout()["num_classes"]
    if row.selector == "small_loss":
        assert cell.cfg.selection.small_loss_keep_ratio is not None
    assert (cell.table is not None) == row.lagged
    assert np.array_equal(data.clean_mask, data.true_labels == data.noisy_labels)
    assert test.clean_mask.all()


@st.composite
def tiny_jump_runs(draw):
    """A tiny jump_update config at the default jump_step, and a seed."""
    epochs = draw(st.integers(3, 6))
    cfg = parse_config({
        "dataset": {"classes": draw(st.integers(2, 3)), "dim": 2,
                    "per_class": draw(st.integers(3, 10))},
        "noise": {"epsilon": draw(st.sampled_from([0.0, 0.4]))},
        "train": {"epochs": epochs, "warmup_epochs": draw(st.integers(0, epochs - 2)),
                  "batch_size": draw(st.integers(1, 8)), "hidden_width": 2,
                  "hidden_layers": 1},
        "schedule": {"strategy": "jump_update",
                     "effect_rate": draw(st.sampled_from([0.4, 1.0]))},
    })
    return cfg, draw(st.integers(0, 2**16))


@FEW
@given(tiny_jump_runs())
def test_gated_jump_reads_rows_of_the_window_the_latest_commit_closed(run):
    """The lag is one window: with the default jump_step, every row a gated
    jump update reads was last produced in the jump_step iterations that
    end at the latest commit (and never produced before the first one)."""
    cfg, seed = run
    cell = CellRun(cfg, "jump_update", seed)
    table, commits, train_batch = cell.table, [], schedule._train_batch

    def checked(cell, idx, lr, warm):
        if table.commit_count > len(commits):  # the previous batch committed
            commits.append(cell.global_iter - 1)
        read = table.active_produced_at[idx].copy()
        out = train_batch(cell, idx, lr, warm)
        if out[1] and commits:  # the gate was on
            assert (commits[-1] - cell.schedule.jump_step < read).all()
            assert (read <= commits[-1]).all()
        elif out[1]:
            assert (read == -1).all()
        return out

    with mock.patch.object(schedule, "_train_batch", checked):
        for epoch in range(cfg.train.epochs):
            schedule.run_epoch(cell, epoch)
    assert len(commits) + 1 >= table.commit_count > 0


# What a valid small `train` config sets, and the values that break each
# field: out of range, zero or negative sizes, a jump step the run cannot
# reach, and a CSV that is not there.  An lr0 of 1e300 is valid, and its
# first step overflows.
VALID_TRAIN = {"dataset": {"classes": 3, "dim": 4, "per_class": 6},
               "train": {"epochs": 2, "warmup_epochs": 1, "batch_size": 4,
                         "hidden_width": 4, "hidden_layers": 1}}
BREAKS = {
    ("dataset", "classes"): [-1, 0, 1], ("dataset", "dim"): [0, 1],
    ("dataset", "per_class"): [0, 2], ("dataset", "kind"): ["csv"],
    ("train", "epochs"): [0, -3], ("train", "warmup_epochs"): [2, -1],
    ("train", "batch_size"): [0, -1], ("train", "hidden_width"): [0, -4],
    ("train", "hidden_layers"): [0], ("train", "lr0"): [-1.0],
    ("train", "temperature"): [0.0, -2.0], ("schedule", "jump_step"): [1, 0, 10**6],
    ("noise", "epsilon"): [1.0, -0.5], ("selection", "tau"): [0.0],
}
TAGS = {2: "error[config]:", 3: "error[numeric]:", 4: "error[io]:"}


@st.composite
def train_configs(draw):
    """A small `train` config under any strategy and noise kind, with up to
    three fields broken."""
    cfg = {section: dict(values) for section, values in VALID_TRAIN.items()}
    kind = draw(st.sampled_from(NOISE_KINDS))
    cfg["noise"] = {"kind": kind, "epsilon": 0.4}
    if kind == "asymmetric":
        cfg["noise"]["class_map"] = {"0": 1, "1": 2, "2": 0}
    cfg["schedule"] = {"strategy": draw(st.sampled_from(list(STRATEGY_ROWS)))}
    cfg["train"]["lr0"] = draw(st.sampled_from([0.1, 1e300]))
    for section, key in draw(st.sets(st.sampled_from(sorted(BREAKS)), max_size=3)):
        cfg.setdefault(section, {})[key] = draw(st.sampled_from(BREAKS[section, key]))
    if cfg["dataset"].get("kind") == "csv":  # the test names two absent files
        cfg["dataset"] = {"kind": "csv", "classes": None}
    return cfg


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(train_configs())
def test_train_exits_with_a_contract_code_and_at_most_one_line(raw):
    """Exit 0 prints nothing to stderr; exit 2, 3 or 4 prints one line with
    its family's tag.  A Python warning counts as a line, since a real
    process would print it."""
    with tempfile.TemporaryDirectory() as tmp:
        if raw["dataset"].get("kind") == "csv":
            raw["dataset"].update(train_path=f"{tmp}/train.csv", test_path=f"{tmp}/test.csv")
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with (warnings.catch_warnings(record=True) as caught, redirect_stderr(err),
              redirect_stdout(io.StringIO())):
            warnings.simplefilter("always")
            code = main(["train", "--config", str(path), "--out-dir", tmp])
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, *TAGS), code
    if code:
        assert len(lines) == 1 and lines[0].startswith(TAGS[code]), lines
    else:
        assert lines == [], lines
