"""Selection criterion tests: per-bit variance, both identifiers, their
combination, the batch fast path against the scalar helpers, the
small-loss baseline ranking, and the decision dump format."""

import csv
import math

import numpy as np
import pytest

from oracles import (batch_variance_and_bce, classifier_identifier,
                     combine_identifiers, decompose_bce, detection_identifier,
                     dump_decisions_rows, intra_loss_variance, targets_for)
from noisylab.codebook import derive_codebook
from noisylab.errors import ConfigError, NumericError
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
