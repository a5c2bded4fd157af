"""Dataset generation and noise injection tests: blob geometry, the
stratified split, every noise model, and CSV round-trips."""

import numpy as np
import pytest

from noisylab import experiment
from noisylab.codebook import next_pow2
from noisylab.config import parse_config
from noisylab.data import (NoiseConfig, NoisyDataset, class_centers, gen_blobs,
                           inject_noise, load_csv, save_csv)
from noisylab.errors import ConfigError, DataIOError, ParseError
from noisylab.numeric import rng_stream
from oracles import gen_blobs_per_class, sylvester

# The instance-noise projection stream, which the other noise kinds leave unused.
NO_IDN = rng_stream(0)


class TestClassCenters:
    def test_hadamard_rows_when_they_fit(self):
        centers = class_centers(4, 8, scale=2.0)
        assert centers.shape == (4, 8)
        assert set(np.unique(centers)) == {-2.0, 2.0}
        # pairwise distinct
        assert len({tuple(r) for r in centers}) == 4

    @pytest.mark.parametrize("classes,dim", [(2, 2), (3, 5), (4, 8), (5, 6), (7, 12),
                                             (16, 16), (9, 33), (2, 100)])
    def test_hadamard_block_is_the_truncated_sylvester_matrix(self, classes, dim):
        p = next_pow2(max(classes, dim))
        want = -1.5 * sylvester(p)[:classes, :dim].astype(np.float64)
        assert class_centers(classes, dim, scale=-1.5).tobytes() == want.tobytes()

    def test_integer_scale_gives_float_centers(self):
        """An integer scale (a JSON ``2`` is kept as an int) still yields the
        float64 centers of the same float scale, in both geometries."""
        for classes, dim in ((10, 32), (10, 4)):
            centers = class_centers(classes, dim, 2)
            assert centers.dtype == np.float64
            assert centers.tobytes() == class_centers(classes, dim, 2.0).tobytes()

    def test_wide_feature_space_takes_classes_by_dim_memory(self):
        # The full Sylvester matrix of order 32,768 would take 8 GiB.
        centers = class_centers(2, 20000, 1.0)
        assert centers.shape == (2, 20000)
        assert np.array_equal(centers[0], np.ones(20000))
        assert np.array_equal(centers[1, :4], [1.0, -1.0, 1.0, -1.0])

    def test_lattice_fallback_for_many_classes(self):
        centers = class_centers(10, 4, 1.0)
        assert centers.shape == (10, 4)
        assert len({tuple(r) for r in centers}) == 10


class TestGenBlobs:
    @pytest.mark.parametrize("classes,dim,per_class,spread,scale,seed", [
        (3, 4, 20, 1.0, 1.0, 5), (4, 6, 50, 0.3, 2.5, 1),
        (10, 4, 7, 2.0, -1.0, 9),  # more classes than the Hadamard block: the lattice
        (2, 33, 3, 1e-6, 0.0, 4)])
    def test_draws_are_bitwise_the_per_class_formula(self, classes, dim, per_class,
                                                     spread, scale, seed):
        train, test = gen_blobs(classes, dim, per_class, spread, rng_stream(seed), scale)
        want = gen_blobs_per_class(classes, dim, per_class, spread, rng_stream(seed), scale)
        got = (train.features, train.true_labels, test.features, test.true_labels)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_deterministic(self):
        a_train, a_test = gen_blobs(3, 4, 20, 1.0, rng_stream(5), 1.0)
        b_train, b_test = gen_blobs(3, 4, 20, 1.0, rng_stream(5), 1.0)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_train.true_labels, b_train.true_labels)

    def test_stratified_80_20_split(self):
        train, test = gen_blobs(4, 6, 50, 1.0, rng_stream(1), 1.0)
        assert train.n_samples == 160 and test.n_samples == 40
        for c in range(4):
            assert int((train.true_labels == c).sum()) == 40
            assert int((test.true_labels == c).sum()) == 10
        assert train.split == "train" and test.split == "test"

    def test_clean_on_arrival(self):
        train, test = gen_blobs(3, 4, 10, 1.0, rng_stream(2), 1.0)
        for ds in (train, test):
            assert ds.clean_mask.all()
            assert np.array_equal(ds.true_labels, ds.noisy_labels)

    def test_tiny_spread_is_separable(self):
        """Near-zero spread: nearest-center classification is perfect."""
        train, test = gen_blobs(2, 4, 25, 1e-6, rng_stream(3), 1.0)
        centers = class_centers(2, 4, 1.0)
        for ds in (train, test):
            d = np.linalg.norm(ds.features[:, None, :] - centers[None], axis=2)
            assert np.array_equal(np.argmin(d, axis=1), ds.true_labels)

    @pytest.mark.parametrize("kwargs", [
        {"classes": 1}, {"dim": 1}, {"n_per_class": 1}, {"spread": 0.0},
        {"n_per_class": 2},
    ])
    def test_rejects_degenerate_inputs(self, kwargs):
        base = {"classes": 3, "dim": 4, "n_per_class": 10, "spread": 1.0}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            gen_blobs(base["classes"], base["dim"], base["n_per_class"],
                      base["spread"], rng_stream(0), 1.0)

    @pytest.mark.parametrize("field,value", [("classes", 1), ("dim", 1), ("per_class", 2),
                                             ("spread", 0.0), ("spread", -1.0)])
    def test_config_and_gen_blobs_refuse_alike(self, field, value):
        """One rule guards both entry points, so both say the same thing."""
        geometry = {"classes": 3, "dim": 4, "per_class": 10, "spread": 1.0, field: value}
        with pytest.raises(ConfigError) as parsed:
            parse_config({"dataset": geometry})
        with pytest.raises(ConfigError) as generated:
            gen_blobs(geometry["classes"], geometry["dim"], geometry["per_class"],
                      geometry["spread"], rng_stream(0), 1.0)
        assert str(parsed.value) == str(generated.value)
        assert f"blob {field} must be" in str(parsed.value)


class TestNoiseConfig:
    def test_validates_kind_and_epsilon(self):
        with pytest.raises(ConfigError):
            NoiseConfig(kind="gaussian", epsilon=0.1)
        with pytest.raises(ConfigError):
            NoiseConfig(kind="symmetric", epsilon=1.0)

    def test_asymmetric_requires_map(self):
        with pytest.raises(ConfigError):
            NoiseConfig(kind="asymmetric", epsilon=0.2)


class TestInjectNoise:
    def test_epsilon_zero_is_identity(self):
        train, _ = gen_blobs(3, 4, 30, 1.0, rng_stream(4), 1.0)
        noisy = inject_noise(train, NoiseConfig("symmetric", 0.0), rng_stream(1), NO_IDN)
        assert noisy.clean_mask.all()
        assert np.array_equal(noisy.noisy_labels, train.true_labels)

    def test_symmetric_rate_within_binomial_bound(self):
        """epsilon=0.5 over 10k samples: realized rate within +/-0.015."""
        train, _ = gen_blobs(5, 4, 2500, 1.0, rng_stream(6), 1.0)
        assert train.n_samples == 10000
        noisy = inject_noise(train, NoiseConfig("symmetric", 0.5), rng_stream(2), NO_IDN)
        assert abs((~noisy.clean_mask).mean() - 0.5) < 0.015

    def test_symmetric_never_flips_to_true_class(self):
        train, _ = gen_blobs(4, 4, 500, 1.0, rng_stream(7), 1.0)
        noisy = inject_noise(train, NoiseConfig("symmetric", 0.8), rng_stream(3), NO_IDN)
        flipped = ~noisy.clean_mask
        assert flipped.any()
        assert np.all(noisy.noisy_labels[flipped] != noisy.true_labels[flipped])

    def test_pairflip_full_rate_is_cyclic_shift(self):
        train, _ = gen_blobs(10, 4, 20, 1.0, rng_stream(8), 1.0)
        noisy = inject_noise(train, NoiseConfig("pairflip", 0.99), rng_stream(4), NO_IDN)
        flipped = ~noisy.clean_mask
        want = (noisy.true_labels + 1) % 10
        assert np.array_equal(noisy.noisy_labels[flipped], want[flipped])

    def test_asymmetric_follows_class_map(self):
        train, _ = gen_blobs(3, 4, 200, 1.0, rng_stream(9), 1.0)
        cmap = {0: 1, 1: 0, 2: 2}
        noisy = inject_noise(train, NoiseConfig("asymmetric", 0.5, class_map=cmap),
                             rng_stream(5), NO_IDN)
        flipped = ~noisy.clean_mask
        for src, dst in cmap.items():
            rows = flipped & (noisy.true_labels == src)
            assert np.all(noisy.noisy_labels[rows] == dst)
        # class 2 maps to itself, so its samples never count as noisy
        assert not (flipped & (noisy.true_labels == 2)).any()

    def test_asymmetric_incomplete_map_rejected(self):
        train, _ = gen_blobs(3, 4, 10, 1.0, rng_stream(10), 1.0)
        with pytest.raises(ConfigError):
            inject_noise(train, NoiseConfig("asymmetric", 0.2, class_map={0: 1}),
                         rng_stream(6), NO_IDN)

    @pytest.mark.parametrize("extra", [3, -1, 99])
    def test_asymmetric_source_outside_the_classes_rejected(self, extra):
        """A source no label can carry is a map no draw reads."""
        train, _ = gen_blobs(3, 4, 10, 1.0, rng_stream(10), 1.0)
        cmap = {0: 1, 1: 2, 2: 0, extra: 0}
        with pytest.raises(ConfigError, match=rf"class_map sources outside \[0, 3\): \[{extra}\]"):
            inject_noise(train, NoiseConfig("asymmetric", 0.2, class_map=cmap),
                         rng_stream(6), NO_IDN)

    def test_blobs_map_refused_before_the_draw(self, monkeypatch):
        """A blobs run's class count is in its config, so a bad map is
        refused before any feature is drawn."""
        def no_draw(*args):
            raise AssertionError("gen_blobs ran before the class map was checked")
        monkeypatch.setattr(experiment, "gen_blobs", no_draw)
        cfg = parse_config({"dataset": {"classes": 3, "dim": 4, "per_class": 20},
                            "noise": {"kind": "asymmetric", "epsilon": 0.0,
                                      "class_map": {"0": 1, "1": 2, "2": 0, "5": 1}}})
        with pytest.raises(ConfigError, match=r"class_map sources outside \[0, 3\): \[5\]"):
            experiment.build_dataset(cfg, 0)

    @pytest.mark.parametrize("kind", ["symmetric", "pairflip", "instance"])
    def test_class_map_refused_off_asymmetric(self, kind):
        with pytest.raises(ConfigError, match="asymmetric' only"):
            NoiseConfig(kind, 0.2, class_map={0: 1, 1: 0})
        assert NoiseConfig(kind, 0.2, class_map={}).class_map == {}

    def test_instance_noise_calibrated_to_epsilon(self):
        train, _ = gen_blobs(5, 8, 400, 1.0, rng_stream(11), 1.0)
        noisy = inject_noise(train, NoiseConfig("instance", 0.3), rng_stream(7),
                             rng_stream(11, 6))
        assert abs((~noisy.clean_mask).mean() - 0.3) < 0.01 + 3 * 0.5 / np.sqrt(1600)

    def test_refuses_test_split(self):
        _, test = gen_blobs(3, 4, 30, 1.0, rng_stream(12), 1.0)
        with pytest.raises(ConfigError):
            inject_noise(test, NoiseConfig("symmetric", 0.2), rng_stream(8), NO_IDN)

    def test_refuses_double_injection(self):
        train, _ = gen_blobs(3, 4, 200, 1.0, rng_stream(13), 1.0)
        once = inject_noise(train, NoiseConfig("symmetric", 0.5), rng_stream(9), NO_IDN)
        with pytest.raises(ConfigError):
            inject_noise(once, NoiseConfig("symmetric", 0.5), rng_stream(10), NO_IDN)

    def test_clean_mask_is_label_equality(self):
        train, _ = gen_blobs(4, 4, 100, 1.0, rng_stream(14), 1.0)
        noisy = inject_noise(train, NoiseConfig("symmetric", 0.4), rng_stream(11), NO_IDN)
        assert np.array_equal(noisy.clean_mask,
                              noisy.true_labels == noisy.noisy_labels)

    def test_original_dataset_untouched(self):
        train, _ = gen_blobs(3, 4, 100, 1.0, rng_stream(15), 1.0)
        before = train.noisy_labels.copy()
        inject_noise(train, NoiseConfig("symmetric", 0.5), rng_stream(12), NO_IDN)
        assert np.array_equal(train.noisy_labels, before)


class TestNoisyDatasetValidation:
    def test_noisy_test_split_rejected(self):
        with pytest.raises(ConfigError):
            NoisyDataset(features=np.zeros((2, 3)),
                         true_labels=np.array([0, 1]),
                         noisy_labels=np.array([0, 0]),
                         num_classes=2, split="test")

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataIOError):
            NoisyDataset(features=np.zeros((1, 3)),
                         true_labels=np.array([5]),
                         noisy_labels=np.array([5]),
                         num_classes=2)

    @pytest.mark.parametrize("features,true_labels", [
        (np.zeros(3), np.array([0, 1, 0])),
        (np.zeros((3, 2)), np.array([0, 1])),
        (np.zeros((3, 2)), np.zeros((3, 1), dtype=np.int64)),
    ], ids=["1-d-features", "short-labels", "2-d-labels"])
    def test_bad_shapes_rejected(self, features, true_labels):
        with pytest.raises(DataIOError):
            NoisyDataset(features=features, true_labels=true_labels,
                         noisy_labels=true_labels, num_classes=2)


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        train, _ = gen_blobs(3, 5, 40, 1.3, rng_stream(16), 1.0)
        noisy = inject_noise(train, NoiseConfig("symmetric", 0.3), rng_stream(13), NO_IDN)
        path = tmp_path / "data.csv"
        save_csv(noisy, path)
        loaded = load_csv(path, num_classes=3)
        assert np.array_equal(loaded.features, noisy.features)  # repr exact
        assert np.array_equal(loaded.true_labels, noisy.true_labels)
        assert np.array_equal(loaded.noisy_labels, noisy.noisy_labels)
        assert np.array_equal(loaded.clean_mask, noisy.clean_mask)

    def test_empty_dataset_header_only(self, tmp_path):
        ds = NoisyDataset(features=np.zeros((0, 3)),
                          true_labels=np.zeros(0, dtype=np.int64),
                          noisy_labels=np.zeros(0, dtype=np.int64), num_classes=2)
        path = tmp_path / "empty.csv"
        save_csv(ds, path)
        assert path.read_text() == "f0,f1,f2,label_true,label_noisy\n"
        loaded = load_csv(path, num_classes=2)
        assert loaded.n_samples == 0

    def test_lf_line_endings(self, tmp_path):
        train, _ = gen_blobs(2, 4, 5, 1.0, rng_stream(17), 1.0)
        path = tmp_path / "lf.csv"
        save_csv(train, path)
        assert b"\r" not in path.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,label_true,label_noisy\n1,2,0,0\n")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("f0,f1,label_true,label_noisy\n"
                        "1.0,2.0,0,0\n"
                        "1.0,2.0,0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert "line 3" in str(exc.value)

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "range.csv"
        path.write_text("f0,f1,label_true,label_noisy\n1.0,2.0,0,5\n")
        with pytest.raises(ParseError):
            load_csv(path, num_classes=3)

    def test_unparsable_float_names_line(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("f0,f1,label_true,label_noisy\n1.0,oops,0,0\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label_true,label_noisy\n1.0,2.0,0,0\n1.0,{value},0,0\n")
        with pytest.raises(ParseError, match="line 3: non-finite feature"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "void.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path)

    def test_num_classes_inferred(self, tmp_path):
        path = tmp_path / "infer.csv"
        path.write_text("f0,f1,label_true,label_noisy\n1.0,2.0,0,4\n")
        assert load_csv(path).num_classes == 5
