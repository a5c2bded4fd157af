"""Acceptance battery: ten end-to-end checks, one test per criterion, a
check that criterion 9's interleaved cells write what they write alone,
and one that a strategy's row, not its name, decides what a cell writes.

Each test prints a single "[criterion NN] PASS|FAIL ..." line with the
measured quantities before asserting, so a red run documents how far off
it was.  The heavy fixtures (full multi-seed training batteries) are
module-scoped and shared across criteria; the whole file runs in a couple
of minutes on a laptop.
"""

import json
import math

import numpy as np
import pytest

from noisylab import schedule
from noisylab.codebook import derive_codebook
from noisylab.config import parse_config
from noisylab.experiment import CellRun, build_dataset
from noisylab.model import DualHeadNet
from noisylab.numeric import rng_stream
from noisylab.schedule import IdentifierTable
from oracles import (combined_loss_and_grads, decompose_bce,
                     finite_difference_check, intra_loss_variance, pairwise_hamming,
                     targets_for)

SEEDS = (1, 2, 3)


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def last10(results, key):
    return [results[k].summary["last10_mean_acc"] for k in key]


@pytest.fixture(scope="module")
def eps04_battery():
    """Jump runs at the default 40% symmetric benchmark, 3 seeds."""
    cfg = parse_config({})
    return cfg, {seed: CellRun(cfg, "jump_update", seed, build_dataset(cfg, seed)).run()
                 for seed in SEEDS}


@pytest.fixture(scope="module")
def eps05_battery():
    """standard/jump/cross at 50% symmetric noise, 3 seeds.

    A seed's three cells are stepped round-robin, one epoch each, and the
    cell that goes first rotates every epoch, so the three timings of an
    epoch are taken back to back under near-identical machine conditions.
    """
    cfg = parse_config({"noise": {"epsilon": 0.5}})
    runs = {}
    for seed in SEEDS:
        split = build_dataset(cfg, seed)  # one split for the seed's cells, as compare builds it
        cells = [CellRun(cfg, s, seed, split) for s in ("standard", "jump_update", "cross_update")]
        for epoch in range(cfg.train.epochs):
            turn = epoch % len(cells)
            for c in cells[turn:] + cells[:turn]:
                c.step()
        runs.update({(c.schedule.strategy, seed): c.finish() for c in cells})
    return cfg, runs


@pytest.fixture(scope="module")
def eps08_battery():
    """Strategy spread and effect-rate sweep at 80% symmetric noise."""
    cfg = parse_config({"noise": {"epsilon": 0.8}})
    runs = {}
    for seed in SEEDS:
        split = build_dataset(cfg, seed)
        runs[("jump_update", seed)] = CellRun(cfg, "jump_update", seed, split).run()
        runs[("cross_update", seed)] = CellRun(cfg, "cross_update", seed, split).run()
        for rate in (1.0, 0.5, 0.3):
            runs[(f"self-r{rate:g}", seed)] = CellRun(
                cfg, "self_update", seed, split, effect_rate=rate).run()
    return cfg, runs


def test_criterion_01_codebook_hamming_exhaustive():
    import time
    t0 = time.perf_counter()
    worst = None
    for bits in (2, 4, 8, 16, 32, 64):
        for classes in range(2, bits + 1):
            cb = derive_codebook(bits, classes)
            ham = pairwise_hamming(cb.codewords)
            off = ham[~np.eye(classes, dtype=bool)]
            if off.size and (off.min() != bits // 2 or off.max() != bits // 2):
                worst = (bits, classes, int(off.min()), int(off.max()))
    elapsed = time.perf_counter() - t0
    ok = worst is None and elapsed < 1.0
    assert verdict(1, ok, f"all pairwise distances exactly K/2 for K in 2..64, "
                          f"{elapsed * 1000:.0f} ms (first offender: {worst})")


def test_criterion_02_gradients_match_finite_differences():
    import time
    t0 = time.perf_counter()
    cb = derive_codebook(8, 3)
    worst = 0.0
    for seed in range(10):
        net = DualHeadNet.create(5, 3, 8, 6, 2, 2.0, rng_stream(1000 + seed, 0))
        x = rng_stream(1000 + seed, 1).normal(0.0, 1.0, (6, 5))
        labels = rng_stream(1000 + seed, 2).integers(0, 3, 6)
        targets = targets_for(cb, labels)

        def loss_and_grad():
            total, _, _, grads, _ = combined_loss_and_grads(net, x, labels, targets)
            return total, grads

        err = finite_difference_check(loss_and_grad, net.parameters())
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    assert verdict(2, ok, f"max relative error {worst:.3e} over 10 seeded "
                          f"nets (< 1e-4), {elapsed:.1f} s")


def test_criterion_03_decomposition_and_variance_identities():
    n, k = 10_000, 32
    z = rng_stream(77, 0).uniform(0.01, 0.99, (n, k))
    t = (rng_stream(77, 1).uniform(0.0, 1.0, (n, k)) < 0.5).astype(np.float64)
    d = decompose_bce(z, t)

    # mean of the per-bit decomposition vs the plain BCE formula, summed
    # with math.fsum so the oracle carries no accumulation error of its own
    worst_mean = 0.0
    worst_var = 0.0
    for i in range(n):
        terms = [-(t[i, j] * math.log(z[i, j]) +
                   (1.0 - t[i, j]) * math.log(1.0 - z[i, j])) for j in range(k)]
        ref_loss = math.fsum(terms) / k
        worst_mean = max(worst_mean, abs(float(d[i].mean()) - ref_loss))

        mu = math.fsum(d[i].tolist()) / k
        ref_var = math.fsum((v - mu) ** 2 for v in d[i].tolist()) / k
        worst_var = max(worst_var, abs(intra_loss_variance(d[i]) - ref_var))

    ok = worst_mean <= 1e-12 and worst_var <= 1e-12
    assert verdict(3, ok, f"decomposition mean off by {worst_mean:.2e}, "
                          f"variance off by {worst_var:.2e} over 10^4 samples "
                          f"(both <= 1e-12)")


def test_criterion_04_jump_bookkeeping_replay(monkeypatch):
    """Replays the jump bookkeeping from the calls the loop makes: every
    table write, every mask handed to an update (skipped batches included)
    and every commit, in call order.  Each event takes its iteration and
    batch from the latest write, which opens every jump iteration."""
    events = []  # (kind, iteration, payload)
    latest = {}
    write, commit, update = IdentifierTable.write, IdentifierTable.commit, schedule._update

    def spy_write(table, indices, flags, iteration):
        latest.update(it=iteration, idx=np.array(indices))
        events.append(("write", iteration, (latest["idx"], np.array(flags, dtype=bool))))
        write(table, indices, flags, iteration)

    def spy_update(cell, which, res, labels, targets, mask, lr):
        latest["cell"] = cell
        if mask is not None:
            idx = latest["idx"]
            events.append(("apply", latest["it"], (cell.post_iter, idx, np.array(mask),
                                                   cell.table.active_produced_at[idx])))
        return update(cell, which, res, labels, targets, mask, lr)

    def spy_commit(table):
        commit(table)
        events.append(("commit", latest["it"], (latest["cell"].post_iter, table.active.copy(),
                                                table.active_produced_at.copy())))

    monkeypatch.setattr(IdentifierTable, "write", spy_write)
    monkeypatch.setattr(IdentifierTable, "commit", spy_commit)
    monkeypatch.setattr(schedule, "_update", spy_update)
    cfg = parse_config({})
    res = CellRun(cfg, "jump_update", 1, build_dataset(cfg, 1)).run()
    step = res.schedule.jump_step
    n = res.train.n_samples
    ipe = math.ceil(n / cfg.train.batch_size)

    pending = np.ones(n, dtype=bool)
    pending_prod = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    active_prod = np.full(n, -1, dtype=np.int64)
    commit_iters = []
    lag = {}  # epoch -> [lag sum, lag count], from the replayed provenance
    violations = 0
    counts = {"write": 0, "apply": 0, "commit": 0}

    for kind, it, payload in events:
        counts[kind] += 1
        if kind == "write":
            idx, flags = payload
            pending[idx] = flags
            pending_prod[idx] = it
        elif kind == "apply":
            _, idx, mask, prod = payload
            if not np.array_equal(mask, active[idx]):
                violations += 1
            if not np.array_equal(prod, active_prod[idx]):
                violations += 1
            # window index: number of commits strictly before an iteration
            w_applied = len(commit_iters)
            known = active_prod[idx] >= 0
            if known.any():
                w_prod = np.searchsorted(commit_iters, active_prod[idx][known], side="left")
                violations += int(np.sum(w_prod != w_applied - 1))
            if (~known).any() and w_applied > 0:
                violations += 1
            acc = lag.setdefault(it // ipe, [0, 0])
            acc[0] += int(np.count_nonzero(known)) * it - int(active_prod[idx][known].sum())
            acc[1] += int(np.count_nonzero(known))
        else:
            post_count, got_active, got_prod = payload
            if post_count % step != 0 or post_count != step * (len(commit_iters) + 1):
                violations += 1
            active = pending.copy()
            active_prod = pending_prod.copy()
            if not np.array_equal(got_active, active):
                violations += 1
            if not np.array_equal(got_prod, active_prod):
                violations += 1
            commit_iters.append(it)

    # per-epoch figures the run reported against the replay's
    for rec in res.records:
        total, count = lag.get(rec.epoch, (0, 0))
        if rec.mean_lag != (total / count if count else None):
            violations += 1
        if rec.commit_count != int(np.searchsorted(commit_iters, (rec.epoch + 1) * ipe)):
            violations += 1

    post_iters = res.post_iter
    ok = (violations == 0 and counts["commit"] == post_iters // step
          and counts["apply"] == post_iters and post_iters > 0)
    assert verdict(4, ok, f"{violations} violations replaying "
                          f"{counts['write']} writes, "
                          f"{counts['apply']} applications, "
                          f"{counts['commit']} commits and "
                          f"{len(res.records)} epochs (step {step})")


def test_criterion_05_variance_separates_noisy_from_clean(eps04_battery):
    cfg, runs = eps04_battery
    warm = cfg.train.warmup_epochs
    details = []
    ok = True
    for seed in SEEDS:
        recs = [r for r in runs[seed].records if r.epoch >= warm]
        split = [r.median_var_noisy is not None and r.median_var_clean is not None
                 and r.median_var_noisy > r.median_var_clean for r in recs]
        frac = float(np.mean(split))
        f1 = runs[seed].records[-1].sel_f1
        details.append(f"seed {seed}: separated {frac:.2%} of epochs, final F1 {f1:.3f}")
        ok = ok and frac >= 0.9 and f1 >= 0.85
    assert verdict(5, ok, "; ".join(details) + " (need >= 90% and F1 >= 0.85)")


def test_criterion_06_temporal_iou_below_cross_iou(eps05_battery):
    """Both IoU flavors come from the co-trained pair: one net's selection
    overlap across consecutive epochs vs the two nets' agreement at the
    same epoch."""
    _, runs = eps05_battery
    temporal = float(np.mean([runs[("cross_update", s)].summary["mean_temporal_iou"]
                              for s in SEEDS]))
    cross = float(np.mean([runs[("cross_update", s)].summary["mean_cross_iou"]
                           for s in SEEDS]))
    ok = temporal <= cross
    assert verdict(6, ok, f"mean temporal IoU {temporal:.3f} <= "
                          f"mean cross-network IoU {cross:.3f}")


def test_criterion_07_strategy_ordering_and_margin(eps05_battery, eps08_battery):
    _, runs5 = eps05_battery
    _, runs8 = eps08_battery
    tie = 0.005  # half an accuracy point

    jump8 = float(np.mean([runs8[("jump_update", s)].summary["last10_mean_acc"]
                           for s in SEEDS]))
    cross8 = float(np.mean([runs8[("cross_update", s)].summary["last10_mean_acc"]
                            for s in SEEDS]))
    self8 = float(np.mean([runs8[("self-r1", s)].summary["last10_mean_acc"]
                           for s in SEEDS]))
    ordering = jump8 >= cross8 - tie and cross8 >= self8 - tie

    jump5 = float(np.mean([runs5[("jump_update", s)].summary["last10_mean_acc"]
                           for s in SEEDS]))
    std5 = float(np.mean([runs5[("standard", s)].summary["last10_mean_acc"]
                          for s in SEEDS]))
    margin = jump5 - std5

    ok = ordering and margin >= 0.05
    assert verdict(7, ok, f"80% noise last-10 acc jump {jump8:.3f} >= "
                          f"cross {cross8:.3f} >= self {self8:.3f}; 50% noise "
                          f"jump-vs-standard margin {margin * 100:.1f} points "
                          f"(need >= 5)")


def test_criterion_08_moderate_effect_rate_wins(eps08_battery):
    _, runs = eps08_battery
    acc = {rate: float(np.mean([runs[(f"self-r{rate:g}", s)].summary["last10_mean_acc"]
                                for s in SEEDS]))
           for rate in (1.0, 0.5, 0.3)}
    ok = acc[0.5] >= acc[1.0] and acc[0.5] >= acc[0.3]
    assert verdict(8, ok, f"last-10 acc r=0.5 {acc[0.5]:.3f} vs "
                          f"r=1.0 {acc[1.0]:.3f} and r=0.3 {acc[0.3]:.3f}")


def test_criterion_09_epoch_wall_time_overhead(eps05_battery):
    """Per seed, the median over post-warm-up epochs of each epoch's wall
    time against standard training's same epoch, which ran next to it
    (see eps05_battery)."""
    cfg, runs = eps05_battery
    warm = cfg.train.warmup_epochs

    def paired_ratio(strategy, seed):
        pairs = zip(runs[(strategy, seed)].records, runs[("standard", seed)].records)
        ratios = [r.epoch_wall_ms / s.epoch_wall_ms for r, s in pairs if r.epoch >= warm]
        assert len(ratios) >= 20
        return float(np.median(ratios))

    details = []
    ok = True
    for seed in SEEDS:
        jump = paired_ratio("jump_update", seed)
        cross = paired_ratio("cross_update", seed)
        details.append(f"seed {seed}: jump {jump:.2f}x, cross {cross:.2f}x")
        ok = ok and jump <= 1.15 and cross >= 1.6
    assert verdict(9, ok, "; ".join(details) + " (need jump <= 1.15x, cross >= 1.6x)")


def timeless_artifacts(d) -> dict:
    """The bytes of every file a cell wrote under ``d``, without the
    fields that time the run or measure its memory: epoch_wall_ms in
    epochs.jsonl and curves.csv, mean_epoch_ms in summary.json and
    peak_mem_bytes in curves.csv."""
    files = {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}
    files["epochs.jsonl"] = [{k: v for k, v in json.loads(line).items() if k != "epoch_wall_ms"}
                             for line in files["epochs.jsonl"].splitlines()]
    files["summary.json"] = {k: v for k, v in json.loads(files["summary.json"]).items()
                             if k != "mean_epoch_ms"}
    lines = files["curves.csv"].decode().splitlines()
    header = lines[0].split(",")
    drop = {header.index("epoch_wall_ms"), header.index("peak_mem_bytes")}
    files["curves.csv"] = [[v for i, v in enumerate(line.split(",")) if i not in drop]
                           for line in lines]
    return files


# A tiny config whose effect rate below 1 makes every gate draw matter.
GATED_TINY = {"dataset": {"classes": 4, "dim": 8, "per_class": 60},
              "train": {"epochs": 8, "warmup_epochs": 2, "hidden_width": 16, "batch_size": 32},
              "schedule": {"effect_rate": 0.5}, "dump_selection": True}


def test_stepped_cells_write_what_cells_run_alone_write(tmp_path):
    """eps05_battery steps one seed's cells interleaved on one shared split;
    each cell draws only from its own streams and never writes the split, so
    that must not change what it writes alone, on a split of its own."""
    cfg = parse_config(GATED_TINY)
    strategies = ("jump_update", "cross_update")
    alone = [CellRun(cfg, s, 3, build_dataset(cfg, 3), out_dir=tmp_path / "alone" / s).run()
             for s in strategies]
    split = build_dataset(cfg, 3)
    stepped = [CellRun(cfg, s, 3, split, out_dir=tmp_path / "stepped" / s) for s in strategies]
    for _ in range(cfg.train.epochs):
        for c in stepped:
            c.step()
    for a, c in zip(alone, stepped):
        c.finish()
        assert timeless_artifacts(c.out_dir) == timeless_artifacts(a.out_dir), c.schedule.strategy


def test_a_strategy_is_its_row(tmp_path, monkeypatch):
    """Every per-strategy decision reads the strategy's row, never its name:
    a row registered under a second name writes what it writes under the
    first, but for the name."""
    cfg = parse_config(GATED_TINY)

    def without_name(files):
        for rec in files["epochs.jsonl"]:
            rec.pop("strategy")
        files["summary.json"].pop("strategy")
        column = files["curves.csv"][0].index("strategy")
        files["curves.csv"] = [row[:column] + row[column + 1:] for row in files["curves.csv"]]
        return files

    for name in ("jump_update", "cross_update"):
        copy = f"{name}_copy"
        monkeypatch.setitem(schedule.STRATEGY_ROWS, copy, schedule.STRATEGY_ROWS[name])
        original, copied = (CellRun(cfg, s, 3, build_dataset(cfg, 3), out_dir=tmp_path / s).run()
                            for s in (name, copy))
        assert copied.summary["strategy"] == copy
        assert len(copied.nets) == len(original.nets)
        assert (without_name(timeless_artifacts(copied.out_dir))
                == without_name(timeless_artifacts(original.out_dir))), name


def test_criterion_10_double_run_determinism(tmp_path):
    cfg = parse_config({})
    a, b = (timeless_artifacts(CellRun(cfg, "jump_update", 1, build_dataset(cfg, 1),
                                       out_dir=tmp_path / d).run().out_dir)
            for d in "ab")
    mismatches = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    ok = not mismatches
    assert verdict(10, ok, "identical config+seed reproduced byte-identical "
                           "outputs after dropping wall-time and memory fields"
                           + (f"; mismatches: {mismatches}" if mismatches else ""))
