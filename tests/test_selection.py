"""Selection criterion tests: per-bit variance, both identifiers, their
combination, the batch fast path against the scalar helpers, the
small-loss baseline ranking, and the decision dump format."""

import builtins
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (batch_variance_and_bce, classifier_identifier,
                     combine_identifiers, decompose_bce, detection_identifier,
                     dump_decisions_rows, intra_loss_variance, targets_for)
from noisylab import decision_dump
from noisylab.codebook import derive_codebook
from noisylab.config import parse_config
from noisylab.errors import ConfigError, NumericError
from noisylab.experiment import CellRun, build_dataset
from noisylab.model import Z_CLAMP
from noisylab.selection import (BatchFlags, SelectionConfig, auto_keep_ratio, batch_flags,
                                dump_decisions_csv, small_loss_select)


def two_pass_variance(d):
    """Reference: exact mean via math.fsum, then mean squared deviation."""
    m = math.fsum(d) / len(d)
    return math.fsum((v - m) ** 2 for v in d) / len(d)


class TestIntraLossVariance:
    def test_constant_vector_zero(self):
        assert intra_loss_variance(np.full(8, 0.37)) == 0.0

    def test_hand_arithmetic(self):
        d = np.array([-np.log(0.9), -np.log(0.1)])  # [0.10536, 2.30259]
        assert abs(intra_loss_variance(d) - 1.20694) < 1e-5

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = rng.uniform(0, 5, size=16)
            assert abs(intra_loss_variance(d) - two_pass_variance(d)) < 1e-12

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(0, 3, size=32)
        assert intra_loss_variance(d + 7.0) == pytest.approx(
            intra_loss_variance(d), abs=1e-12)

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(0, 3, size=32)
        assert abs(intra_loss_variance(2.5 * d)
                   - 6.25 * intra_loss_variance(d)) < 1e-12

    def test_population_normalization(self):
        """1/K normalization, no Bessel correction."""
        d = np.array([0.0, 1.0])
        assert intra_loss_variance(d) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            intra_loss_variance(np.array([]))


class TestDetectionIdentifier:
    def test_zero_variance_clean(self):
        assert detection_identifier(0.0, SelectionConfig()) is True

    def test_boundary_inclusive(self):
        cfg = SelectionConfig(tau=0.001)
        assert detection_identifier(0.001, cfg) is True
        assert detection_identifier(0.0011, cfg) is False


class TestClassifierIdentifier:
    def test_peak_at_label(self):
        probs = np.array([0.1, 0.7, 0.2])
        assert classifier_identifier(probs, 1) is True
        assert classifier_identifier(probs, 0) is False

    def test_uniform_ties_break_to_zero(self):
        probs = np.full(10, 0.1)
        assert classifier_identifier(probs, 3) is False
        assert classifier_identifier(probs, 0) is True

    def test_two_class(self):
        assert classifier_identifier(np.array([0.4, 0.6]), 1) is True

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            classifier_identifier(np.array([0.5, 0.5]), 2)


class TestCombineIdentifiers:
    @pytest.mark.parametrize("det,cls,want", [
        (False, False, False), (True, False, True),
        (False, True, True), (True, True, True),
    ])
    def test_or_table(self, det, cls, want):
        assert combine_identifiers(det, cls) is want


class TestBatchFlags:
    def _batch(self, n=40, bits=16, classes=5, seed=3):
        rng = np.random.default_rng(seed)
        z = rng.uniform(1e-6, 1 - 1e-6, size=(n, bits))
        cb = derive_codebook(bits, classes)
        labels = rng.integers(0, classes, size=n)
        targets = targets_for(cb, labels)
        probs = rng.dirichlet(np.ones(classes), size=n)
        return z, targets, probs, labels

    def test_rows_agree_with_scalar_helpers(self):
        z, targets, probs, labels = self._batch()
        cfg = SelectionConfig(tau=0.05)
        flags = batch_flags(z, targets, probs, labels, cfg)
        for i in range(z.shape[0]):
            d = decompose_bce(z[i], targets[i])
            var = intra_loss_variance(d)
            det = detection_identifier(var, cfg)
            cls = classifier_identifier(probs[i], int(labels[i]))
            assert abs(flags.variance[i] - var) < 1e-12
            assert abs(flags.bce[i] - d.mean()) < 1e-12
            assert bool(flags.detection[i]) == det
            assert bool(flags.classifier[i]) == cls
            assert bool(flags.combined[i]) == combine_identifiers(det, cls)

    @pytest.mark.parametrize("bits", [2, 7, 16, 33, 128])
    def test_variance_and_bce_bitwise_equal_oracle(self, bits):
        rng = np.random.default_rng(bits)
        n, classes = 64, 5
        z = rng.uniform(Z_CLAMP, 1.0 - Z_CLAMP, size=(n, bits))
        # Constant rows at both clamp boundaries and at 1/2, and a row
        # alternating between the boundaries.
        z[0] = Z_CLAMP
        z[1] = 1.0 - Z_CLAMP
        z[2] = 0.5
        z[3, ::2] = Z_CLAMP
        z[3, 1::2] = 1.0 - Z_CLAMP
        targets = rng.integers(0, 2, size=(n, bits)).astype(np.float64)
        probs = rng.dirichlet(np.ones(classes), size=n)
        labels = rng.integers(0, classes, size=n)
        flags = batch_flags(z, targets, probs, labels, SelectionConfig())
        variance, bce = batch_variance_and_bce(z, targets)
        assert flags.variance.tobytes() == variance.tobytes()
        assert flags.bce.tobytes() == bce.tobytes()

    def test_combined_is_elementwise_or(self):
        z, targets, probs, labels = self._batch(seed=4)
        flags = batch_flags(z, targets, probs, labels, SelectionConfig(tau=0.05))
        assert np.array_equal(flags.combined, flags.detection | flags.classifier)


class TestSmallLossSelect:
    def test_hand_case(self):
        mask = small_loss_select(np.array([0.1, 0.5, 0.2, 0.9]), 0.5)
        assert np.array_equal(mask, [True, False, True, False])

    def test_keep_everything(self):
        mask = small_loss_select(np.array([3.0, 1.0, 2.0]), 1.0)
        assert mask.all()

    def test_against_full_sort_oracle(self):
        rng = np.random.default_rng(5)
        losses = rng.uniform(size=128)
        mask = small_loss_select(losses, 0.7)
        want = set(np.argsort(losses)[:90].tolist())
        assert set(np.flatnonzero(mask).tolist()) == want

    def test_cardinality_exact_for_all_sizes(self):
        """|selected| == ceil(ratio * n) for every n in [1, 4096]."""
        rng = np.random.default_rng(6)
        ratio = 0.7
        for n in range(1, 4097):
            mask = small_loss_select(rng.uniform(size=n), ratio)
            assert int(mask.sum()) == math.ceil(ratio * n)

    def test_ties_break_to_lower_index(self):
        mask = small_loss_select(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert np.array_equal(mask, [True, True, False, False])

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            small_loss_select(np.array([0.1, float("inf")]), 0.5)

    def test_bad_ratio(self):
        """The ranking trusts its ratio; the config states the range once."""
        with pytest.raises(ConfigError):
            SelectionConfig(small_loss_keep_ratio=0.0)


class TestConfigAndDefaults:
    def test_tau_default(self):
        assert SelectionConfig().tau == 0.001

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SelectionConfig(tau=0.0)
        with pytest.raises(ConfigError):
            SelectionConfig(small_loss_keep_ratio=1.5)

    def test_auto_keep_ratio(self):
        assert auto_keep_ratio(0.4) == pytest.approx(0.6)
        assert auto_keep_ratio(0.0) == 1.0
        assert auto_keep_ratio(0.99) == 0.05  # clamped floor


def test_dump_decisions_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    n = 12
    flags = BatchFlags(detection=rng.uniform(size=n) < 0.5,
                       classifier=rng.uniform(size=n) < 0.5,
                       combined=np.zeros(n, dtype=bool),
                       variance=rng.uniform(size=n),
                       bce=rng.uniform(size=n))
    flags.combined = flags.detection | flags.classifier
    clean = rng.uniform(size=n) < 0.6
    path = tmp_path / "decisions.csv"
    dump_decisions_csv(path, flags, clean)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sample_index", "variance", "bce_loss", "det_flag",
                       "cls_flag", "combined_flag", "is_truly_clean"]
    assert len(rows) == n + 1
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == i
        assert float(row[1]) == flags.variance[i]  # repr round-trips exactly
        assert float(row[2]) == flags.bce[i]
        assert [int(row[3]), int(row[4]), int(row[5])] == [
            int(flags.detection[i]), int(flags.classifier[i]),
            int(flags.combined[i])]
        assert int(row[6]) == int(clean[i])


# Floats whose repr takes every form: nan, infinities, signed zeros,
# subnormals, and each side of repr's switches to exponent notation.
REPR_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e-310,
              np.nextafter(2.0 ** -1022, 0.0), 1e-5, np.nextafter(1e-5, 0.0),
              np.nextafter(1e-5, 1.0), 1e-4, 1e16, np.nextafter(1e16, 0.0),
              np.nextafter(1e16, np.inf), 1e15, -1e16]


@pytest.mark.parametrize("n", [0, 1, 40, 1061])
def test_dump_decisions_csv_bytes_match_row_writer(tmp_path, n):
    """Every one of the 16 flag combinations (combined set apart from the
    OR, which the dump does not assume), REPR_EDGES in both float columns,
    and an empty, a one-row and two longer files."""
    rng = np.random.default_rng(8)
    code = np.arange(n) % 16
    flags = BatchFlags(detection=code >> 3 & 1 == 1, classifier=code >> 2 & 1 == 1,
                       combined=code >> 1 & 1 == 1,
                       variance=rng.uniform(size=n) * 10.0 ** rng.integers(-12, 3, n),
                       bce=rng.uniform(size=n))
    clean = code & 1 == 1
    edges = min(n, len(REPR_EDGES))
    flags.variance[:edges] = REPR_EDGES[:edges]
    flags.bce[:edges] = REPR_EDGES[::-1][:edges]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dump_decisions_csv(got, flags, clean)
    dump_decisions_rows(want, flags, clean)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("n", [9, 10, 11, 100, 101, decision_dump._BLOCK - 1, decision_dump._BLOCK,
                               decision_dump._BLOCK + 1, 2 * decision_dump._BLOCK + 1, 10_001])
def test_dump_rows_across_blocks_and_index_widths(tmp_path, n):
    """Row counts of one block, one block either side, and where the index
    column gains a digit (10, 100 and 10,000 rows), against the row writer."""
    rng = np.random.default_rng(n)
    code = rng.integers(0, 16, n)
    flags = BatchFlags(detection=code >> 3 & 1 == 1, classifier=code >> 2 & 1 == 1,
                       combined=code >> 1 & 1 == 1,
                       variance=rng.uniform(size=n) * 10.0 ** rng.integers(-9, 3, n),
                       bce=rng.uniform(size=n))
    clean = code & 1 == 1
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    dump_decisions_csv(got, flags, clean)
    dump_decisions_rows(want, flags, clean)
    assert got.read_bytes() == want.read_bytes()


def test_dump_of_a_stepped_cell_matches_the_row_writer(tmp_path):
    """A jump cell stepped with a dump asked for writes, for a warm-up epoch
    and an epoch after its first commit, the bytes the row writer writes
    from that epoch's flags."""
    cfg = parse_config({"dataset": {"classes": 3, "dim": 4, "per_class": 30},
                        "noise": {"kind": "symmetric", "epsilon": 0.3},
                        "train": {"epochs": 5, "warmup_epochs": 2, "batch_size": 16,
                                  "hidden_width": 8},
                        "dump_selection": True})
    cell = CellRun(cfg, "jump_update", 5, build_dataset(cfg, 5), out_dir=tmp_path / "cell")
    for epoch in range(4):  # the first commit ends epoch 2
        cell.step()
        if epoch in (0, 3):
            want = tmp_path / f"want_{epoch}.csv"
            dump_decisions_rows(want, cell.flags, cell.train.clean_mask)
            got = tmp_path / "cell" / "selection" / f"epoch_{epoch:03d}.csv"
            assert got.read_bytes() == want.read_bytes()
    assert cell.records[2].commit_count == 1  # epoch 3 trains on committed flags


def rendered(values) -> list:
    """The dump's text for each float, as the renderer writes it."""
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros((x.size, decision_dump._FIELD), np.uint8)
    decision_dump._render_floats(x, out)
    return out.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def assert_renders_as_repr(values):
    got, want = rendered(values), [repr(float(v)) for v in values]
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


class TestFloatRenderer:
    """The dump's floats are repr's text, byte for byte, for every float64."""

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_float_renders_as_repr(self, values):
        assert_renders_as_repr(values)

    def test_random_bit_patterns_in_the_fast_range(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(np.float64(1e-7).view(np.int64), np.float64(1e15).view(np.int64),
                            100_000, dtype=np.int64)
        assert_renders_as_repr(bits.view(np.float64))

    def test_short_decimals(self):
        rng = np.random.default_rng(12)
        digits = rng.integers(1, 10 ** rng.integers(1, 18, 100_000), dtype=np.int64)
        exps = rng.integers(-26, 16, 100_000)
        assert_renders_as_repr([float(f"{d}e{e}") for d, e in zip(digits.tolist(),
                                                                   exps.tolist())])

    def test_integers(self):
        rng = np.random.default_rng(13)
        ints = rng.integers(1, 10 ** rng.integers(1, 17, 100_000), dtype=np.int64)
        assert_renders_as_repr(ints.astype(np.float64))

    def test_edges(self):
        """Both sides of each fast-path limit and of repr's switch to exponent
        notation, powers of two and of ten with their neighbours, values that
        round up to a power of ten, and shortest forms of 1, 15, 16 and 17
        digits at every scale."""
        def around(x):
            return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]

        values = [v for x in (1e-7, 1e-4, 1e15, 1e16) for v in around(x)]
        values += [v for j in range(-26, 52) for v in around(2.0 ** j)]
        values += [v for j in range(-9, 17) for v in around(float(f"1e{j}"))]
        values += [9.999999999999999e-05, 0.09999999999999999, 999999999999999.9,
                   9.999999999999999e-08, 99999999999999.98]
        values += [float(f"{m}e{e}") for m in ("1", "0.123456789012345", "0.1234567890123456",
                                               "0.12345678901234568", "9.999999999999998")
                   for e in range(-7, 16)]
        assert_renders_as_repr(values)

    def test_repr_reached_only_off_the_fast_path(self, monkeypatch):
        """NaN, the infinities, the zeros, values outside [1e-7, 1e15),
        power-of-two mantissas and exact ties go through repr; nothing else."""
        called = []
        monkeypatch.setattr(decision_dump, "repr", lambda v: called.append(v) or builtins.repr(v),
                            raising=False)
        proven = [1e-7, np.nextafter(1e15, 0.0), 0.1, 2.0 / 3.0, 9.999999999999999e-05,
                  np.nextafter(1.0, 2.0), np.nextafter(0.5, 0.0), 123456.789, 1e14]
        unproven = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5, np.nextafter(1e-7, 0.0),
                    1e15, 1e300, 0.5, 1.0, 2.0 ** -20, 2.0 ** 40,
                    1779674308265.7188]  # ...265.71875, as near ...7187 as ...7188
        assert rendered(proven + unproven) == [repr(float(v)) for v in proven + unproven]
        assert [repr(v) for v in called] == [repr(float(v)) for v in unproven]
