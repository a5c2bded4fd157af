"""Metrics and reporting tests: IoU, selection quality against a
confusion-matrix oracle, accuracy evaluation, last-10 averaging, and the
epochs.jsonl / summary.json / curves.csv report emitters."""

import csv
import json

import numpy as np
import pytest

from noisylab.data import gen_blobs
from noisylab.errors import DataIOError
from noisylab.metrics import (CURVE_COLUMNS, EpochRecord, emit_report,
                              evaluate, iou, last10_mean, load_jsonl,
                              peak_memory_bytes, selection_quality,
                              summarize_records)
from noisylab.model import DualHeadNet
from noisylab.numeric import rng_stream


def make_record(epoch, **overrides):
    base = dict(epoch=epoch, strategy="jump_update", phase="train", lr=0.05,
                selected_count=120, trained_samples=118, skipped_batches=0,
                gate_on=5, commit_count=epoch, mean_lag=5.0, test_acc=0.9,
                sel_precision=0.8, sel_recall=0.7, sel_f1=0.746,
                temporal_iou=0.88, cross_iou=0.97, median_var_clean=1e-5,
                median_var_noisy=0.02, ce_loss=0.4, bce_loss=0.1,
                epoch_wall_ms=25.0, peak_mem_bytes=1 << 20)
    base.update(overrides)
    return EpochRecord(**base)


class TestIou:
    def test_identical_masks(self):
        m = np.array([True, False, True, True])
        assert iou(m, m) == 1.0

    def test_disjoint_masks(self):
        assert iou(np.array([True, False]), np.array([False, True])) == 0.0

    def test_mask_overlap_hand_counted(self):
        a = np.array([True, True, False, False, True])
        b = np.array([True, False, True, False, True])
        # intersection {0, 4}, union {0, 1, 2, 4}
        assert iou(a, b) == 0.5

    def test_both_empty_is_one(self):
        assert iou(np.zeros(4, dtype=bool), np.zeros(4, dtype=bool)) == 1.0
        assert iou(np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(size=30) < 0.4
            b = rng.uniform(size=30) < 0.4
            assert iou(a, b) == iou(b, a)

    def test_mask_length_mismatch(self):
        with pytest.raises(ValueError):  # numpy refuses to broadcast them
            iou(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))


class TestSelectionQuality:
    def test_perfect_selection(self):
        clean = np.array([True, False, True, True, False])
        assert selection_quality(clean, clean) == (1.0, 1.0, 1.0)

    def test_select_all_with_sixty_percent_clean(self):
        clean = np.zeros(100, dtype=bool)
        clean[:60] = True
        p, r, f1 = selection_quality(np.ones(100, dtype=bool), clean)
        assert p == pytest.approx(0.6)
        assert r == 1.0
        assert f1 == pytest.approx(2 * 0.6 / 1.6)

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(11)
        sel = rng.uniform(size=1000) < 0.55
        clean = rng.uniform(size=1000) < 0.6
        tp = int(np.sum(sel & clean))
        fp = int(np.sum(sel & ~clean))
        fn = int(np.sum(~sel & clean))
        p, r, f1 = selection_quality(sel, clean)
        assert p == pytest.approx(tp / (tp + fp))
        assert r == pytest.approx(tp / (tp + fn))
        assert f1 == pytest.approx(2 * tp / (2 * tp + fp + fn))

    def test_degenerate_cases_are_zero(self):
        none = np.zeros(5, dtype=bool)
        some = np.array([True, False, True, False, False])
        assert selection_quality(none, some) == (0.0, 0.0, 0.0)
        assert selection_quality(some, none) == (0.0, 0.0, 0.0)
        assert selection_quality(none, none) == (0.0, 0.0, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):  # numpy refuses to broadcast them
            selection_quality(np.zeros(3, dtype=bool), np.zeros(5, dtype=bool))


class TestEvaluate:
    def test_zero_weight_net_scores_chance(self):
        """An untrained constant net predicts class 0 everywhere, so
        accuracy equals the class-0 share of a balanced test split."""
        _, test = gen_blobs(4, 6, 50, 1.0, rng_stream(2, 0), 1.0)
        net = DualHeadNet.create(6, 4, 16, 8, 2, 2.0, rng_stream(2, 1))
        for p in net.parameters():
            p[:] = 0.0
        acc = evaluate(net, test)
        class0 = float(np.mean(test.true_labels == 0))
        assert acc == pytest.approx(class0)

    def test_batched_equals_single_pass(self):
        _, test = gen_blobs(3, 5, 40, 1.0, rng_stream(4, 0), 1.0)
        net = DualHeadNet.create(5, 3, 16, 8, 2, 2.0, rng_stream(4, 1))
        assert evaluate(net, test, batch_size=7) == evaluate(net, test, batch_size=512)


class TestLast10Mean:
    def test_constant_series(self):
        assert last10_mean([0.5] * 30) == 0.5

    def test_linear_series_uses_last_ten(self):
        vals = [0.01 * e for e in range(1, 201)]
        assert last10_mean(vals) == pytest.approx(np.mean(vals[-10:]))
        assert last10_mean(vals) == pytest.approx(1.955)

    def test_short_series_uses_everything(self):
        assert last10_mean([1.0, 2.0, 3.0]) == 2.0


def test_peak_memory_positive_on_linux():
    peak = peak_memory_bytes()
    assert peak is not None and peak > 0


class TestEpochRecord:
    def test_jsonl_dict_has_exactly_the_contract_fields(self):
        rec = make_record(3)
        assert set(rec.jsonl_dict()) == {
            "epoch", "strategy", "selected_count", "skipped_batches",
            "commit_count", "mean_lag", "test_acc", "sel_precision",
            "sel_recall", "sel_f1", "epoch_wall_ms"}

    def test_curve_columns_cover_every_field(self):
        rec = make_record(0)
        assert set(CURVE_COLUMNS) == set(vars(rec))

    def test_curves_header_is_pinned(self, tmp_path):
        """The column order is read by plotting scripts; it comes from the
        field order of EpochRecord, so moving a field must fail here."""
        emit_report([make_record(0)], tmp_path, {})
        with open(tmp_path / "curves.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "epoch", "strategy", "phase", "lr", "selected_count",
            "trained_samples", "skipped_batches", "gate_on", "commit_count",
            "mean_lag", "test_acc", "sel_precision", "sel_recall", "sel_f1",
            "temporal_iou", "cross_iou", "median_var_clean", "median_var_noisy",
            "ce_loss", "bce_loss", "epoch_wall_ms", "peak_mem_bytes"]


class TestSummarize:
    def make_run(self):
        records = [make_record(e, phase="warmup" if e < 2 else "train",
                               test_acc=0.5 + 0.01 * e,
                               epoch_wall_ms=10.0 + e,
                               temporal_iou=None if e < 3 else 0.8,
                               cross_iou=None)
                   for e in range(12)]
        return records

    def test_post_warmup_means(self):
        records = self.make_run()
        s = summarize_records(records, "abc123", 7, "jump_update")
        assert s["config_hash"] == "abc123"
        assert s["seed"] == 7
        assert s["strategy"] == "jump_update"
        assert s["final_acc"] == pytest.approx(0.61)
        assert s["last10_mean_acc"] == pytest.approx(np.mean([0.5 + 0.01 * e for e in range(2, 12)]))
        assert s["mean_epoch_ms"] == pytest.approx(np.mean([10.0 + e for e in range(2, 12)]))
        assert s["mean_temporal_iou"] == pytest.approx(0.8)
        assert s["mean_cross_iou"] is None


class TestEmitReport:
    def test_files_written_and_parse_back(self, tmp_path):
        records = [make_record(e, mean_lag=None if e == 0 else 5.0)
                   for e in range(4)]
        summary = summarize_records(records, "deadbeef", 1, "jump_update")
        run = tmp_path / "run"
        emit_report(records, run, summary)
        assert sorted(p.name for p in run.iterdir()) == [
            "curves.csv", "epochs.jsonl", "summary.json"]

        lines = load_jsonl(run / "epochs.jsonl")
        assert len(lines) == 4
        assert lines[0]["mean_lag"] is None
        assert lines[2] == records[2].jsonl_dict()

        with open(run / "summary.json") as fh:
            assert json.load(fh) == summary

    def test_curves_csv_floats_round_trip_exactly(self, tmp_path):
        records = [make_record(0, lr=0.1 + 1e-17, test_acc=1 / 3)]
        emit_report(records, tmp_path, {"seed": 1})
        with open(tmp_path / "curves.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == CURVE_COLUMNS
        assert float(rows[0]["lr"]) == records[0].lr
        assert float(rows[0]["test_acc"]) == records[0].test_acc

    def test_numpy_floats_are_written_as_numbers(self, tmp_path):
        """A numpy float64 is a float, but its repr is ``np.float64(0.1)``."""
        emit_report([make_record(0, test_acc=np.float64(0.1))], tmp_path, {})
        with open(tmp_path / "curves.csv", newline="") as fh:
            assert list(csv.DictReader(fh))[0]["test_acc"] == "0.1"

    def test_none_cells_are_empty_strings(self, tmp_path):
        records = [make_record(0, mean_lag=None, temporal_iou=None,
                               peak_mem_bytes=None)]
        emit_report(records, tmp_path, {})
        with open(tmp_path / "curves.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["mean_lag"] == ""
        assert row["temporal_iou"] == ""
        assert row["peak_mem_bytes"] == ""

    def test_unwritable_target(self, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("file, not a directory\n")
        with pytest.raises(DataIOError):
            emit_report([make_record(0)], blocker / "sub", {})

    def test_load_jsonl_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load_jsonl(tmp_path / "absent.jsonl")
