"""Training-schedule tests: identifier-table semantics, commit replay,
the effect-rate gate, warm-up behavior, reduction cases that collapse each
strategy onto standard training, and the jump schedule's skip/commit
bookkeeping."""

import math
import re

import numpy as np
import pytest

from noisylab import schedule
from noisylab.codebook import derive_codebook
from noisylab.config import parse_config
from noisylab.errors import ConfigError, NumericError
from noisylab.experiment import CellRun, build_dataset
from noisylab.model import DualHeadNet
from noisylab.numeric import rng_stream
from noisylab.schedule import (STRATEGY_ROWS, IdentifierTable, ScheduleConfig,
                               _step_failure, run_epoch)
from oracles import parameter_names, targets_for


def make_cell(strategy, epochs=6, warmup=2, jump_step=None, effect_rate=1.0,
              tau=0.001, keep=0.5, seed=5):
    """72-sample, 5-iterations-per-epoch run for fast schedule checks,
    as a ``CellRun``: (the cell, its noisy train split)."""
    cfg = parse_config({
        "dataset": {"classes": 3, "dim": 4, "per_class": 30},
        "noise": {"kind": "symmetric", "epsilon": 0.3},
        "train": {"epochs": epochs, "warmup_epochs": warmup, "batch_size": 16,
                  "hidden_width": 8},
        "selection": {"tau": tau, "small_loss_keep_ratio": keep},
        "schedule": {"jump_step": jump_step},
    })
    cell = CellRun(cfg, strategy, seed, build_dataset(cfg, seed), effect_rate)
    return cell, cell.train


def iters_per_epoch(cell) -> int:
    return math.ceil(cell.train.n_samples / cell.cfg.train.batch_size)


def snapshot(net):
    return [p.copy() for p in net.parameters()]


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestScheduleConfig:
    def test_strategy_names(self):
        assert tuple(STRATEGY_ROWS) == ("standard", "self_update", "cross_update",
                                        "jump_update")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(strategy="teleport")

    def test_rejects_bad_effect_rate(self):
        for r in (0.0, 1.5, -0.1):
            with pytest.raises(ConfigError):
                ScheduleConfig(effect_rate=r)

    def test_rejects_small_jump_step(self):
        with pytest.raises(ConfigError):
            ScheduleConfig(jump_step=1)


class TestIdentifierTable:
    def test_initial_state(self):
        t = IdentifierTable(5)
        assert t.active.all() and t.pending.all()
        assert np.all(t.produced_at == -1)
        assert np.all(t.active_produced_at == -1)
        assert t.commit_count == 0

    def test_write_touches_pending_only(self):
        t = IdentifierTable(4)
        t.write(np.array([0, 2]), np.array([False, False]), iteration=3)
        assert t.active.all()
        assert np.array_equal(t.pending, [False, True, False, True])
        assert np.array_equal(t.produced_at, [3, -1, 3, -1])

    def test_commit_copies_pending(self):
        t = IdentifierTable(3)
        t.write(np.arange(3), np.zeros(3, dtype=bool), iteration=1)
        t.commit()
        assert not t.active.any()
        assert np.all(t.active_produced_at == 1)
        assert t.commit_count == 1
        # later writes do not leak into active until the next commit
        t.write(np.array([1]), np.array([True]), iteration=2)
        assert not t.active[1]
        t.commit()
        assert t.active[1]

    def test_commit_without_writes_idempotent(self):
        t = IdentifierTable(3)
        t.write(np.arange(3), np.array([True, False, True]), iteration=0)
        t.commit()
        first = t.active.copy()
        t.commit()
        assert np.array_equal(t.active, first)
        assert t.commit_count == 2

    def test_interleaved_ops_match_replay_oracle(self):
        """Random write/commit sequences: active always equals the last
        committed pending snapshot."""
        rng = np.random.default_rng(0)
        t = IdentifierTable(20)
        mirror_pending = np.ones(20, dtype=bool)
        mirror_active = np.ones(20, dtype=bool)
        for step in range(500):
            if rng.uniform() < 0.8:
                idx = rng.choice(20, size=rng.integers(1, 8), replace=False)
                flags = rng.uniform(size=idx.size) < 0.5
                t.write(idx, flags, iteration=step)
                mirror_pending[idx] = flags
            else:
                t.commit()
                mirror_active = mirror_pending.copy()
            assert np.array_equal(t.active, mirror_active)
            assert np.array_equal(t.pending, mirror_pending)


def gate_counts(cell) -> list:
    """Each post-warm-up epoch's ``gate_on``, over the whole run."""
    warmup = cell.cfg.train.warmup_epochs
    return [run_epoch(cell, epoch).gate_on
            for epoch in range(cell.cfg.train.epochs)][warmup:]


class RecordingRng:
    """Stands in for a run's gate stream and keeps every value it draws."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def random(self):
        self.draws.append(self.rng.random())
        return self.draws[-1]


class TestGate:
    def test_rate_one_always_on(self):
        cell, _ = make_cell("self_update", effect_rate=1.0, epochs=42)
        assert gate_counts(cell) == [iters_per_epoch(cell)] * 40

    def test_empirical_rate_half(self):
        """Over 2,000 post-warm-up iterations the gate fires, epoch by epoch,
        exactly when a fresh gate stream's uniform draw is below 0.5."""
        cell, _ = make_cell("self_update", effect_rate=0.5, epochs=402)
        oracle = rng_stream(5, 5)
        want = [sum(oracle.uniform() < 0.5 for _ in range(iters_per_epoch(cell)))
                for _ in range(400)]
        assert gate_counts(cell) == want

    def test_seeded_gate_sequence_reproducible(self):
        """Two runs with one seed draw the same 50 gate values, in order."""
        runs = []
        for _ in range(2):
            cell, _ = make_cell("self_update", effect_rate=0.3, seed=9, epochs=12)
            cell.gate_rng = RecordingRng(cell.gate_rng)
            gate_counts(cell)
            runs.append(cell.gate_rng.draws)
        assert len(runs[0]) == 50
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("strategy", ["self_update", "cross_update", "jump_update"])
    def test_one_draw_per_post_warmup_iteration(self, strategy):
        """Each post-warm-up epoch's gate_on equals the hits of a fresh gate
        stream drawn once per iteration (one draw covers both cross nets);
        warm-up draws nothing, so the two streams end at the same position."""
        cell, _ = make_cell(strategy, effect_rate=0.5, seed=5)
        oracle = rng_stream(5, 5)
        for epoch in range(cell.cfg.train.epochs):
            stats = run_epoch(cell, epoch)
            expected = 0 if epoch < cell.cfg.train.warmup_epochs else sum(
                oracle.uniform() < 0.5 for _ in range(iters_per_epoch(cell)))
            assert stats.gate_on == expected
        assert cell.gate_rng.bit_generator.state == oracle.bit_generator.state

    def test_standard_never_draws(self):
        cell, _ = make_cell("standard", effect_rate=0.5, seed=5)
        for epoch in range(cell.cfg.train.epochs):
            assert run_epoch(cell, epoch).gate_on == 0
        assert cell.gate_rng.bit_generator.state == rng_stream(5, 5).bit_generator.state


class TestStartRun:
    def test_default_jump_step_is_iterations_per_epoch(self):
        cell, _ = make_cell("jump_update")
        assert iters_per_epoch(cell) == 5
        assert cell.schedule.jump_step == 5

    def test_jump_step_bounds_checked(self):
        # 4 post-warmup epochs x 5 iterations: 21 is out of range, 20 is not
        with pytest.raises(ConfigError, match=r"^jump_step 21 exceeds this run's "
                                              r"post-warm-up iteration count, 20$"):
            make_cell("jump_update", jump_step=21)
        cell, _ = make_cell("jump_update", jump_step=20)
        assert cell.schedule.jump_step == 20

    @pytest.mark.parametrize("strategy", list(STRATEGY_ROWS))
    def test_batch_targets_are_the_per_row_targets(self, strategy, monkeypatch):
        """Each batch's rows of the per-class table are bit for bit the rows
        of the per-row target array, ``targets_for(noisy_labels)[idx]``."""
        cell, data = make_cell(strategy)
        cb = derive_codebook(cell.nets[0].layout()["code_bits"], data.num_classes)
        per_row = targets_for(cb, data.noisy_labels)
        batches, seen = [], []
        real_batches, real_update = schedule._batches, schedule._update

        def recording_batches(st):
            epoch_batches = real_batches(st)
            batches.extend(epoch_batches)
            return epoch_batches

        def recording_update(st, which, res, labels, targets, *rest):
            seen.append(targets)  # one call per net and batch, in batch order
            return real_update(st, which, res, labels, targets, *rest)

        monkeypatch.setattr(schedule, "_batches", recording_batches)
        monkeypatch.setattr(schedule, "_update", recording_update)
        for epoch in range(3):  # warm-up and gated epochs
            run_epoch(cell, epoch)
        nets = len(cell.nets)
        assert len(seen) == len(batches) * nets
        for i, targets in enumerate(seen):
            assert targets.tobytes() == per_row[batches[i // nets]].tobytes()


class TestWarmup:
    @pytest.mark.parametrize("strategy", list(STRATEGY_ROWS))
    def test_trains_everything_and_never_commits(self, strategy):
        cell, noisy = make_cell(strategy)
        stats = run_epoch(cell, 0)
        assert stats.phase == "warmup"
        assert iters_per_epoch(cell) == 5
        assert stats.trained_samples == noisy.n_samples
        assert stats.skipped_batches == 0
        assert stats.gate_on == 0
        assert stats.commit_count == 0
        if strategy == "jump_update":
            assert cell.table.active.all()  # untouched until first commit
            assert stats.selected_count == int(cell.selected[0].sum())

    def test_zero_warmup_starts_training_immediately(self):
        cell, _ = make_cell("standard", epochs=4, warmup=0)
        assert run_epoch(cell, 0).phase == "train"

    def test_cross_warmup_trains_both_nets(self):
        cell, _ = make_cell("cross_update")
        before = [snapshot(net) for net in cell.nets]
        run_epoch(cell, 0)
        for net, prev in zip(cell.nets, before):
            assert not params_equal(snapshot(net), prev)


class TestStandard:
    def test_selects_everything(self):
        cell, noisy = make_cell("standard")
        for epoch in range(cell.cfg.train.epochs):
            stats = run_epoch(cell, epoch)
            assert stats.selected_count == noisy.n_samples
            assert stats.skipped_batches == 0


class TestReductions:
    def test_self_update_with_full_keep_matches_standard(self):
        """keep_ratio 1.0 selects every batch row, so the parameter
        trajectory is bit-identical to standard training."""
        std, _ = make_cell("standard", keep=1.0)
        slf, _ = make_cell("self_update", keep=1.0)
        for epoch in range(std.cfg.train.epochs):
            run_epoch(std, epoch)
            run_epoch(slf, epoch)
        assert params_equal(snapshot(std.nets[0]), snapshot(slf.nets[0]))

    def test_jump_update_with_huge_tau_matches_standard(self):
        """tau beyond any reachable variance flags everything clean; the
        jump machinery then trains on full batches like standard."""
        std, _ = make_cell("standard")
        jump, _ = make_cell("jump_update", tau=1e9)
        for epoch in range(std.cfg.train.epochs):
            run_epoch(std, epoch)
            run_epoch(jump, epoch)
        assert params_equal(snapshot(std.nets[0]), snapshot(jump.nets[0]))


class TestSelfUpdate:
    def test_gate_off_iterations_train_full_batches(self):
        cell, noisy = make_cell("self_update", effect_rate=0.01, epochs=4,
                                  warmup=1)
        for epoch in range(1, 4):
            stats = run_epoch(cell, epoch)
            if stats.gate_on == 0:
                assert stats.trained_samples == noisy.n_samples

    def test_gated_iterations_train_selected_rows_only(self):
        cell, noisy = make_cell("self_update", effect_rate=1.0, keep=0.5)
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        stats = run_epoch(cell, 2)
        assert stats.gate_on == iters_per_epoch(cell)
        assert stats.trained_samples < noisy.n_samples
        # ceil(0.5 * batch) per batch: 8+8+8+8+4 of the 72 samples
        assert stats.trained_samples == 36


class TestCrossUpdate:
    def test_produces_both_selections(self):
        cell, _ = make_cell("cross_update")
        for epoch in range(3):
            stats = run_epoch(cell, epoch)
        assert len(cell.selected) == 2
        assert cell.selected[0].any() and cell.selected[1].any()

    def test_trains_both_nets_post_warmup(self):
        cell, _ = make_cell("cross_update")
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        before = [snapshot(net) for net in cell.nets]
        run_epoch(cell, 2)
        for net, prev in zip(cell.nets, before):
            assert not params_equal(snapshot(net), prev)

    @pytest.mark.parametrize("strategy", ["self_update", "jump_update", "cross_update",
                                          "cross_copy"])
    def test_masked_backward_height(self, strategy, monkeypatch):
        """Over gated epochs, self and jump backpropagate only the rows their
        mask keeps; cross, the dual-network baseline, backpropagates every row
        of the batch with the rows outside the peer's pick zeroed, as
        Co-teaching's index-select loss does under autograd.  ``cross_copy``
        is cross's row under another name: the row decides the height."""
        monkeypatch.setitem(schedule.STRATEGY_ROWS, "cross_copy",
                            schedule.STRATEGY_ROWS["cross_update"])
        cell, _ = make_cell(strategy, keep=0.5)
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        batches, calls = [], []
        real_batches, real_update = schedule._batches, schedule._update
        real_backward = DualHeadNet.backward

        def recording_batches(st):
            epoch_batches = real_batches(st)
            batches.extend(epoch_batches)
            return epoch_batches

        def recording_update(st, which, res, labels, targets, mask, lr):
            calls.append([which, mask, None])
            return real_update(st, which, res, labels, targets, mask, lr)

        def recording_backward(net, acts, dlogits, d_det_pre):
            calls[-1][2] = dlogits.copy()
            return real_backward(net, acts, dlogits, d_det_pre)

        monkeypatch.setattr(schedule, "_batches", recording_batches)
        monkeypatch.setattr(schedule, "_update", recording_update)
        monkeypatch.setattr(DualHeadNet, "backward", recording_backward)
        nets, dropped = len(cell.nets), 0
        for epoch in range(2, cell.cfg.train.epochs):
            active = cell.table.active.copy() if cell.table is not None else None
            start = len(calls)
            assert run_epoch(cell, epoch).gate_on == iters_per_epoch(cell)
            for i, (which, mask, dlogits) in enumerate(calls[start:]):
                idx = batches[start // nets + i // nets]
                # the committed flags, or the net's own pick, or its peer's
                want = active if active is not None else cell.selected[nets - 1 - which]
                assert np.array_equal(mask, want[idx])
                dropped += not mask.all()
                if not mask.any():
                    assert dlogits is None  # the batch is skipped
                elif nets == 2:
                    assert dlogits.shape[0] == idx.size
                    assert np.array_equal(dlogits.any(axis=1), mask)
                else:
                    assert dlogits.shape[0] == np.count_nonzero(mask)
                    assert dlogits.any(axis=1).all()
        assert dropped  # some mask dropped rows, so the heights differ


class TestJumpUpdate:
    def test_commit_cadence_one_per_epoch_at_default_step(self):
        cell, _ = make_cell("jump_update")
        counts = []
        for epoch in range(cell.cfg.train.epochs):
            counts.append(run_epoch(cell, epoch).commit_count)
        assert counts == [0, 0, 1, 2, 3, 4]

    def test_first_post_warmup_epoch_has_no_lag_yet(self):
        """Until the first commit, the active table still holds the initial
        all-True flags with sentinel provenance, so no lag is measurable."""
        cell, _ = make_cell("jump_update")
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        first = run_epoch(cell, 2)
        assert first.mean_lag is None
        second = run_epoch(cell, 3)
        assert second.mean_lag is not None
        # flags applied in epoch 4 were produced in epoch 3: one epoch of lag
        assert iters_per_epoch(cell) <= second.mean_lag <= 2 * iters_per_epoch(cell)

    def test_all_false_active_table_skips_every_batch(self):
        cell, _ = make_cell("jump_update", jump_step=20)
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        cell.table.active[:] = False
        before = snapshot(cell.nets[0])
        stats = run_epoch(cell, 2)  # jump_step 20 defers any commit
        assert stats.skipped_batches == iters_per_epoch(cell) == 5
        assert stats.trained_samples == 0
        assert params_equal(snapshot(cell.nets[0]), before)

    @pytest.mark.parametrize("epoch", [0, 2])
    def test_epoch_flags_cover_every_sample(self, epoch):
        """Warm-up or not, and without any dump asked for, the epoch's
        BatchFlags hold a decision for every sample."""
        cell, noisy = make_cell("jump_update")
        for e in range(epoch + 1):
            rec = run_epoch(cell, e)
        flags = cell.flags
        assert np.isfinite(flags.variance).all() and np.isfinite(flags.bce).all()
        assert np.array_equal(flags.combined, cell.selected[0])
        assert np.array_equal(flags.combined, flags.detection | flags.classifier)
        assert rec.selected_count == int(flags.combined.sum())
        assert all(len(v) == noisy.n_samples for v in vars(flags).values())

    def test_selection_shrinks_under_noise(self):
        cell, noisy = make_cell("jump_update")
        stats = None
        for epoch in range(cell.cfg.train.epochs):
            stats = run_epoch(cell, epoch)
        assert stats.selected_count < noisy.n_samples


class TestFinitenessChecks:
    """A non-finite weight is caught within the iteration that meets it and
    named in the error, both on an update step and on a skipped batch, and
    a refused step leaves parameters and velocities untouched."""

    PARAMS = ["trunk[0].w", "trunk[1].b", "classifier.w", "classifier.b",
              "detection[0].w", "detection[2].b"]

    @staticmethod
    def plant_nan(net, name):
        param = net.parameters()[parameter_names(net).index(name)]
        param.reshape(-1)[0] = np.nan

    @staticmethod
    def assert_untouched(cell, params, velocity, global_iter):
        assert cell.global_iter == global_iter  # raised inside the first iteration
        for p, q in zip(cell.nets[0].parameters(), params):
            assert np.array_equal(p, q, equal_nan=True)
        assert np.array_equal(cell.velocities[0], velocity)

    @pytest.mark.parametrize("name", PARAMS)
    def test_nan_weight_refuses_the_update_step(self, name):
        cell, _ = make_cell("jump_update")
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        self.plant_nan(cell.nets[0], name)
        params = snapshot(cell.nets[0])
        velocity = cell.velocities[0].copy()
        start = cell.global_iter
        with pytest.raises(NumericError, match=rf"parameter {re.escape(name)} is non-finite; step refused"):
            run_epoch(cell, 2)
        self.assert_untouched(cell, params, velocity, start)

    @pytest.mark.parametrize("name", PARAMS)
    def test_nan_weight_caught_on_a_skipped_batch(self, name):
        cell, _ = make_cell("jump_update", jump_step=20)
        run_epoch(cell, 0)
        run_epoch(cell, 1)
        cell.table.active[:] = False
        self.plant_nan(cell.nets[0], name)
        params = snapshot(cell.nets[0])
        velocity = cell.velocities[0].copy()
        start = cell.global_iter
        with pytest.raises(NumericError, match=rf"skipped batch; parameter {re.escape(name)} is non-finite"):
            run_epoch(cell, 2)
        self.assert_untouched(cell, params, velocity, start)

    def test_overflowing_forward_pass_refuses_the_step(self):
        """Finite parameters whose logits overflow: the batch is refused
        before a loss or a gradient is computed from them."""
        cell, _ = make_cell("standard")
        net = cell.nets[0]
        net.classifier.b[0] = 1.79e308
        net.classifier.w[:, 0] = 1e308
        params = snapshot(net)
        velocity = cell.velocities[0].copy()
        with pytest.raises(NumericError, match=r"non-finite forward outputs on a training "
                                               r"batch; the forward pass overflowed; step refused"), \
                np.errstate(over="ignore", invalid="ignore"):
            run_epoch(cell, 0)
        self.assert_untouched(cell, params, velocity, 0)

    def test_nonfinite_gradient_is_named(self):
        cell, _ = make_cell("standard")
        net = cell.nets[0]
        net.gradients()[parameter_names(net).index("detection[1].w")][2, 3] = np.inf
        assert _step_failure(net) == "gradient of detection[1].w is non-finite; step refused"

    def test_overflowing_step_names_the_parameter(self):
        """Finite gradients, but the step itself overflows one entry."""
        cell, _ = make_cell("standard")
        net = cell.nets[0]
        k = parameter_names(net).index("classifier.b")
        at = sum(p.size for p in net.parameters()[:k])
        net.flat[at] = 1.79e308
        cell.velocities[0][at] = -1e308
        with pytest.raises(NumericError,
                           match=r"parameter classifier\.b became non-finite after the step"), \
                np.errstate(over="ignore"):
            run_epoch(cell, 0)
