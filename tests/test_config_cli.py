"""Config schema and CLI tests: defaults, strict key checking, the
canonical hash, and every subcommand exercised in-process through main()
including exit-code mapping."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisylab
from noisylab import errors
from noisylab.cli import main
from noisylab.config import (CONFIG_VERSION, config_hash, load_config,
                             parse_config)
from noisylab.data import load_csv
from noisylab.errors import ConfigError, DataIOError, NumericError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# Values of the wrong type, each with the field path its error names; the
# last two are well typed but out of range for blobs (null classes, and 2
# per class, which leaves no test rows).
WRONG_TYPES = [
    ({"train": {"epochs": 3.0}}, "train.epochs"),
    ({"train": {"batch_size": 64.5}}, "train.batch_size"),
    ({"train": {"hidden_width": True}}, "train.hidden_width"),
    ({"schedule": {"jump_step": 5.5}}, "schedule.jump_step"),
    ({"seeds": [True]}, "seeds[0]"),
    ({"effect_rates": [True]}, "effect_rates[0]"),
    ({"selection": {"tau": float("nan")}}, "selection.tau"),
    ({"dataset": {"spread": float("inf")}}, "dataset.spread"),
    ({"noise": {"epsilon": "0.3"}}, "noise.epsilon"),
    ({"dataset": {"dim": None}}, "dataset.dim"),
    ({"dataset": {"classes": None}}, "blob classes"),
    ({"dataset": {"per_class": 2}}, "blob per_class"),
]


def only_error(capsys, kind: str) -> str:
    """The single stderr line of a failed command, checked to be error[kind]."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[{kind}]:"), lines
    return lines[0]


def write_csv(path, rows) -> str:
    """A two-feature dataset CSV with the given data rows."""
    path.write_text("".join(f"{r}\n" for r in ["f0,f1,label_true,label_noisy", *rows]))
    return str(path)


TWO_CLASS_ROWS = ["1.0,2.0,0,0", "1.5,2.5,1,1", "0.5,1.0,0,0", "0.7,1.9,1,1"]

# Dataset CSVs the reader refuses, each with what its one error line says
# about the file ({} is its name).
UNREADABLE_CSVS = {
    "not-utf8": (b"f0,f1,label_true,label_noisy\n1.0,2.0,0,0\n1.5,2\xff.5,1,1\n",
                 "{}: cannot decode"),
    "field-over-limit": (b"f0,f1,label_true,label_noisy\n1.0,2.0,0,0\n1.5,"
                         + b"1" * 140_000 + b",1,1\n",
                         "{} line 3: field larger than field limit"),
    "label-over-int64": (b"f0,f1,label_true,label_noisy\n1.0,2.0,0,0\n"
                         b"1.5,2.5,99999999999999999999999,1\n",
                         "{}: label outside the int64 range"),
}


def csv_train_payload(tmp_path, train_rows, test_rows, **extra):
    """A 3-epoch run on two hand-written CSV splits, classes read off the data."""
    return tiny_train_payload(tmp_path / "out", dataset={
        "kind": "csv", "classes": None,
        "train_path": write_csv(tmp_path / "train.csv", train_rows),
        "test_path": write_csv(tmp_path / "test.csv", test_rows)},
        train={"epochs": 3, "warmup_epochs": 1, "batch_size": 2, "hidden_width": 4},
        **extra)


def tiny_train_payload(out_dir=None, **extra):
    """3-class, 24-sample, 3-epoch run: finishes in well under a second."""
    payload = {
        "dataset": {"classes": 3, "dim": 4, "per_class": 10},
        "train": {"epochs": 3, "warmup_epochs": 1, "batch_size": 8,
                  "hidden_width": 8},
        "seeds": [7],
    }
    if out_dir is not None:
        payload["out_dir"] = str(out_dir)
    payload.update(extra)
    return payload


class TestParseConfig:
    def test_empty_config_takes_defaults(self):
        cfg = parse_config({})
        assert cfg.dataset.classes == 10
        assert cfg.dataset.dim == 32
        assert cfg.dataset.per_class == 500
        assert cfg.noise.kind == "symmetric" and cfg.noise.epsilon == 0.4
        assert cfg.train.epochs == 60 and cfg.train.warmup_epochs == 9
        assert cfg.train.batch_size == 128 and cfg.train.hidden_width == 64
        assert cfg.selection.tau == 0.001
        assert cfg.schedule.strategy == "jump_update"
        assert cfg.seeds == [1]
        assert cfg.out_dir == "runs"

    def test_keep_ratio_follows_noise_rate_when_unset(self):
        assert parse_config({}).selection.small_loss_keep_ratio == pytest.approx(0.6)
        cfg = parse_config({"noise": {"epsilon": 0.5}})
        assert cfg.selection.small_loss_keep_ratio == pytest.approx(0.5)

    def test_explicit_keep_ratio_wins(self):
        cfg = parse_config({"selection": {"small_loss_keep_ratio": 0.9}})
        assert cfg.selection.small_loss_keep_ratio == 0.9

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config({"experiment": "x"})

    def test_unknown_nested_key_reports_path(self):
        with pytest.raises(ConfigError, match="train.*learning_rate"):
            parse_config({"train": {"learning_rate": 0.1}})

    def test_version_mismatch(self):
        with pytest.raises(ConfigError, match="version"):
            parse_config({"version": CONFIG_VERSION + 1})

    def test_class_map_keys_coerced_to_int(self):
        cfg = parse_config({"noise": {"kind": "asymmetric", "epsilon": 0.3,
                                      "class_map": {"7": 1}}})
        assert cfg.noise.class_map == {7: 1}

    def test_class_map_rejects_non_integer_entries(self):
        with pytest.raises(ConfigError):
            parse_config({"noise": {"kind": "asymmetric", "epsilon": 0.3,
                                    "class_map": {"a": "b"}}})

    @pytest.mark.parametrize("class_map", [{"0": 1.7, "1": 0}, {"0": 1, "1": True},
                                           {"0": 1.7, "1": True}])
    def test_class_map_rejects_non_integer_values(self, class_map):
        with pytest.raises(ConfigError, match="class_map"):
            parse_config({"noise": {"kind": "asymmetric", "epsilon": 0.3,
                                    "class_map": class_map}})

    @pytest.mark.parametrize("raw,path", WRONG_TYPES)
    def test_rejects_wrong_type(self, raw, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            parse_config(raw)

    @pytest.mark.parametrize("seeds", [[], "1", [1, "2"]])
    def test_bad_seeds(self, seeds):
        with pytest.raises(ConfigError):
            parse_config({"seeds": seeds})

    @pytest.mark.parametrize("seeds", [[-1], [1, -1]])
    def test_negative_seeds(self, seeds):
        with pytest.raises(ConfigError, match=r"seeds entry -1 must be a non-negative"):
            parse_config({"seeds": seeds})

    def test_class_map_off_asymmetric_refused(self):
        with pytest.raises(ConfigError, match="read by kind 'asymmetric' only"):
            parse_config({"noise": {"kind": "symmetric", "class_map": {"0": 1, "1": 0}}})

    def test_class_map_keys_naming_the_same_class(self):
        with pytest.raises(ConfigError, match=r"keys '1' and '01' both mean 1"):
            parse_config({"noise": {"kind": "asymmetric", "epsilon": 0.3,
                                    "class_map": {"1": 2, "01": 3}}})

    def test_bad_strategies_entry(self):
        with pytest.raises(ConfigError):
            parse_config({"strategies": ["standard", "warp"]})

    def test_bad_effect_rate_entry(self):
        with pytest.raises(ConfigError):
            parse_config({"effect_rates": [0.5, 0.0]})


class TestConfigHash:
    def test_stable_and_short(self):
        a = config_hash(parse_config({}))
        b = config_hash(parse_config({}))
        assert a == b
        assert len(a) == 12 and int(a, 16) >= 0

    def test_ignores_output_location_fields(self):
        base = config_hash(parse_config({}))
        moved = parse_config({"out_dir": "elsewhere", "dump_selection": True})
        assert config_hash(moved) == base

    def test_sensitive_to_noise_rate(self):
        assert config_hash(parse_config({})) != config_hash(
            parse_config({"noise": {"epsilon": 0.2}}))

    def test_pinned_hashes(self):
        """Run directories are named by these hashes, so a change to
        defaults or to the canonical dict must not move them."""
        assert config_hash(parse_config({})) == "99fcb40c6406"
        csv_asym = {"dataset": {"kind": "csv", "train_path": "a.csv",
                                "test_path": "b.csv", "classes": None},
                    "noise": {"kind": "asymmetric", "epsilon": 0.2,
                              "class_map": {"1": 0, "0": 1}}}
        assert config_hash(parse_config(csv_asym)) == "eb4416babaeb"
        # An int in a float field is kept as an int, not coerced.
        assert config_hash(parse_config({"noise": {"epsilon": 0}})) == "cfeec820b314"
        # An empty class map hashes as no class map.
        assert config_hash(parse_config({"noise": {"class_map": {}}})) == "99fcb40c6406"
        # Keys 10 and 11 sort between 1 and 2 as strings, not after 9.
        asym12 = {"dataset": {"classes": 12},
                  "noise": {"kind": "asymmetric",
                            "class_map": {str(i): (i + 1) % 12 for i in range(12)}}}
        assert config_hash(parse_config(asym12)) == "d7f6971216f6"


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"seeds": [3, 4]})
        assert load_config(path).seeds == [3, 4]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataIOError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestCliCodebook:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "cb.csv"
        assert main(["codebook", "--classes", "10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        # default width for 10 classes: smallest power of two >= max(16, 20)
        assert all(len(line.split(",")) == 32 for line in lines)
        assert "10 classes x 32 bits" in capsys.readouterr().out

    def test_too_many_classes_exits_2(self, tmp_path, capsys):
        rc = main(["codebook", "--classes", "40", "--bits", "32",
                   "--out", str(tmp_path / "cb.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[config]")

    def test_width_over_the_cap_exits_2_before_building(self, tmp_path, capsys):
        """2049 classes take 8192 bits at the default width, past the cap."""
        out = tmp_path / "cb.csv"
        assert main(["codebook", "--classes", "2049", "--out", str(out)]) == 2
        assert "8192 bits (2049 classes) exceeds the 4096-bit limit" in only_error(
            capsys, "config")
        assert not out.exists()


class TestCliDataPipeline:
    def test_gen_then_inject(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        rc = main(["gen-data", "--classes", "3", "--dim", "4",
                   "--per-class", "30", "--seed", "5",
                   "--train-out", str(train), "--test-out", str(test)])
        assert rc == 0
        noisy = tmp_path / "noisy.csv"
        rc = main(["inject", "--input", str(train), "--out", str(noisy),
                   "--kind", "symmetric", "--epsilon", "0.4", "--seed", "5"])
        assert rc == 0
        ds = load_csv(noisy)
        assert ds.n_samples == 72
        assert 0.2 < (~ds.clean_mask).mean() < 0.6

    def test_inject_rejects_malformed_class_map(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10",
              "--train-out", str(train), "--test-out", str(tmp_path / "t.csv")])
        rc = main(["inject", "--input", str(train),
                   "--out", str(tmp_path / "n.csv"), "--kind", "asymmetric",
                   "--epsilon", "0.3", "--class-map", "not json"])
        assert rc == 2
        assert "error[config]" in capsys.readouterr().err

    # Complete 3-class maps: they used to be read as {0: 1, 1: 1, 2: 0}.
    @pytest.mark.parametrize("class_map", ['{"0": 1.7, "1": 2, "2": 0}',
                                           '{"0": 1, "1": true, "2": 0}',
                                           '{"0": 1.7, "1": true, "2": 0}', '["0"]'])
    def test_inject_rejects_non_integer_class_map(self, tmp_path, capsys, class_map):
        train = tmp_path / "train.csv"
        main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10",
              "--train-out", str(train), "--test-out", str(tmp_path / "t.csv")])
        capsys.readouterr()
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", str(train), "--out", str(noisy),
                   "--kind", "asymmetric", "--epsilon", "0.3",
                   "--class-map", class_map])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert not noisy.exists()


    def test_inject_rejects_class_map_keys_naming_the_same_class(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        main(["gen-data", "--classes", "4", "--dim", "4", "--per-class", "10",
              "--train-out", str(train), "--test-out", str(tmp_path / "t.csv")])
        capsys.readouterr()
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", str(train), "--out", str(noisy),
                   "--kind", "asymmetric", "--epsilon", "0.3",
                   "--class-map", '{"1": 2, "01": 3}'])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert "'1' and '01'" in lines[0]
        assert not noisy.exists()

    # A class map no draw reads: off asymmetric noise, or a source outside
    # the 3 classes.  Either would write the same labels as without it.
    @pytest.mark.parametrize("kind,class_map,detail", [
        ("symmetric", '{"0": 1}', "read by kind 'asymmetric' only, not 'symmetric'"),
        ("pairflip", '{"0": 1, "1": 2, "2": 0}', "only, not 'pairflip'"),
        ("instance", '{"0": 2}', "only, not 'instance'"),
        ("asymmetric", '{"0": 1, "1": 2, "2": 0, "3": 0}', "sources outside [0, 3): [3]"),
    ], ids=["symmetric", "pairflip", "instance", "asymmetric-source-3"])
    def test_inject_class_map_no_draw_reads_exits_2(self, tmp_path, capsys, kind, class_map,
                                                   detail):
        train = tmp_path / "train.csv"
        main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10",
              "--train-out", str(train), "--test-out", str(tmp_path / "t.csv")])
        capsys.readouterr()
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", str(train), "--out", str(noisy), "--kind", kind,
                   "--epsilon", "0.3", "--class-map", class_map])
        assert rc == 2
        assert detail in only_error(capsys, "config")
        assert not noisy.exists()

    def test_gen_data_negative_seed_exits_2(self, tmp_path, capsys):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        rc = main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10",
                   "--seed", "-1", "--train-out", str(train), "--test-out", str(test)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert not train.exists() and not test.exists()

    @pytest.mark.parametrize("arg", ["--spread=nan", "--spread=inf", "--center-scale=nan",
                                     "--center-scale=inf", "--center-scale=-inf",
                                     "--per-class=2", "--classes=4097",
                                     "--per-class=1000000000000"])
    def test_gen_data_non_finite_geometry_exits_2(self, tmp_path, capsys, arg):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        rc = main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10", arg,
                   "--train-out", str(train), "--test-out", str(test)])
        assert rc == 2
        assert arg[2:].split("=")[0].replace("-", "_") in only_error(capsys, "config")
        assert not train.exists() and not test.exists()

    @pytest.mark.parametrize("kind", ["symmetric", "instance"])
    @pytest.mark.parametrize("epsilon", ["0", "0.3"])
    def test_inject_single_class_exits_2(self, tmp_path, capsys, kind, epsilon):
        data = write_csv(tmp_path / "one.csv", ["1.0,2.0,0,0", "1.5,2.5,0,0"])
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", data, "--out", str(noisy), "--kind", kind,
                   "--epsilon", epsilon])
        assert rc == 2
        assert "needs at least 2 classes, got 1" in only_error(capsys, "config")
        assert not noisy.exists()

    # A label of 100,000,000 means 100,000,001 classes, read off the data or
    # configured with --classes; instance and pairflip noise take memory in
    # proportion to the class count.
    @pytest.mark.parametrize("kind", ["symmetric", "instance", "pairflip"])
    @pytest.mark.parametrize("configured", [False, True])
    def test_inject_class_count_over_the_cap_exits_2(self, tmp_path, capsys, kind, configured):
        rows = TWO_CLASS_ROWS if configured else [*TWO_CLASS_ROWS, "0.2,0.4,100000000,100000000"]
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", write_csv(tmp_path / "big.csv", rows),
                   "--out", str(noisy), "--kind", kind, "--epsilon", "0.3",
                   *(["--classes", "100000001"] if configured else [])])
        assert rc == 2
        assert "100000001 classes exceed the 4096-class limit" in only_error(capsys, "config")
        assert not noisy.exists()

    @pytest.mark.parametrize("classes", ["0", "-2"])
    def test_inject_class_count_below_one_exits_2(self, tmp_path, capsys, classes):
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", write_csv(tmp_path / "in.csv", TWO_CLASS_ROWS),
                   "--out", str(noisy), "--epsilon", "0.3", "--classes", classes])
        assert rc == 2
        assert f"needs classes >= 1, got {classes}" in only_error(capsys, "config")
        assert not noisy.exists()

    @pytest.mark.parametrize("case", UNREADABLE_CSVS)
    def test_inject_unreadable_csv_exits_4(self, tmp_path, capsys, case):
        data, detail = UNREADABLE_CSVS[case]
        (tmp_path / "in.csv").write_bytes(data)
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", str(tmp_path / "in.csv"), "--out", str(noisy),
                   "--epsilon", "0.3"])
        assert rc == 4
        assert detail.format("in.csv") in only_error(capsys, "io")
        assert not noisy.exists()

    def test_inject_negative_seed_exits_2(self, tmp_path, capsys):
        train = tmp_path / "train.csv"
        main(["gen-data", "--classes", "3", "--dim", "4", "--per-class", "10",
              "--train-out", str(train), "--test-out", str(tmp_path / "t.csv")])
        capsys.readouterr()
        noisy = tmp_path / "n.csv"
        rc = main(["inject", "--input", str(train), "--out", str(noisy),
                   "--epsilon", "0.3", "--seed", "-2"])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert not noisy.exists()


def run_dir_of(out_root):
    """out/<hash>/<label>-seed<N>: resolve the single cell directory."""
    hashes = [p for p in out_root.iterdir() if p.is_dir()]
    assert len(hashes) == 1
    cells = [p for p in hashes[0].iterdir() if p.is_dir()]
    return hashes[0], cells


class TestCliTrain:
    def test_artifact_layout(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(out))
        assert main(["train", "--config", cfg]) == 0
        assert "train: jump_update seed=7" in capsys.readouterr().out

        _, cells = run_dir_of(out)
        assert [c.name for c in cells] == ["jump_update-seed7"]
        cell = cells[0]
        names = sorted(p.name for p in cell.iterdir())
        assert names == ["curves.csv", "epochs.jsonl", "model.ckpt",
                         "model.ckpt.json", "summary.json"]

        rows = [json.loads(line) for line in
                (cell / "epochs.jsonl").read_text().splitlines()]
        assert len(rows) == 3
        assert set(rows[0]) == {"epoch", "strategy", "selected_count",
                                "skipped_batches", "commit_count", "mean_lag",
                                "test_acc", "sel_precision", "sel_recall",
                                "sel_f1", "epoch_wall_ms"}
        summary = json.loads((cell / "summary.json").read_text())
        assert summary["strategy"] == "jump_update" and summary["seed"] == 7
        assert (cell / "model.ckpt").read_bytes()[:8] == b"NLABCKP1"

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        out = tmp_path / "from-env"
        monkeypatch.setenv("NOISYLAB_OUT_DIR", str(out))
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload())
        assert main(["train", "--config", cfg]) == 0
        assert out.exists()

    def test_out_dir_flag_beats_env_var(self, tmp_path, monkeypatch):
        ignored = tmp_path / "ignored"
        used = tmp_path / "used"
        monkeypatch.setenv("NOISYLAB_OUT_DIR", str(ignored))
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload())
        assert main(["train", "--config", cfg, "--out-dir", str(used)]) == 0
        assert used.exists() and not ignored.exists()

    def test_dump_selection_writes_per_epoch_csvs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(out))
        assert main(["train", "--config", cfg, "--dump-selection"]) == 0
        _, cells = run_dir_of(out)
        dumps = sorted((cells[0] / "selection").glob("epoch_*.csv"))
        assert dumps
        header = dumps[0].read_text().splitlines()[0]
        assert header == ("sample_index,variance,bce_loss,det_flag,cls_flag,"
                          "combined_flag,is_truly_clean")

    def test_missing_config_exits_4(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "gone.json")]) == 4
        assert "error[io]" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["train", "--config", str(bad)]) == 2
        assert "error[config]" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [b'{"seeds": [7]\xff}', b"[" * 100_000 + b"]" * 100_000,
                                      b'{"a": ' * 100_000 + b"1" + b"}" * 100_000],
                             ids=["not-utf8", "array-too-deep", "object-too-deep"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["train", "--config", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
        assert "bad.json: invalid JSON" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", UNREADABLE_CSVS)
    def test_unreadable_csv_exits_4(self, tmp_path, capsys, case):
        data, detail = UNREADABLE_CSVS[case]
        cfg = write_json(tmp_path / "cfg.json", csv_train_payload(
            tmp_path, TWO_CLASS_ROWS, TWO_CLASS_ROWS))
        (tmp_path / "train.csv").write_bytes(data)
        assert main(["train", "--config", cfg]) == 4
        assert detail.format("train.csv") in only_error(capsys, "io")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw,path", WRONG_TYPES)
    def test_wrong_type_exits_2_with_one_stderr_line(self, tmp_path, capsys, raw, path):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", **raw))
        assert main(["train", "--config", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert path in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seeds", [[-1], [1, -1]])
    def test_negative_seed_exits_2_before_training(self, tmp_path, capsys, seeds):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", seeds=seeds))
        assert main(["train", "--config", cfg]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[config]:"), lines
        assert "seeds entry -1" in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("classes", [0, -2])
    def test_csv_class_count_below_one_exits_2(self, tmp_path, capsys, classes):
        payload = csv_train_payload(tmp_path, TWO_CLASS_ROWS, TWO_CLASS_ROWS)
        payload["dataset"]["classes"] = classes
        assert main(["train", "--config", write_json(tmp_path / "cfg.json", payload)]) == 2
        assert f"needs classes >= 1, got {classes}" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # A schedule field the strategy does not read would change only the
    # config hash, and with it the run directory.
    @pytest.mark.parametrize("schedule", [{"strategy": "standard", "effect_rate": 0.5},
                                          {"strategy": "self_update", "jump_step": 3}],
                             ids=["effect-rate-on-standard", "jump-step-on-self-update"])
    def test_schedule_field_no_cell_reads_exits_2(self, tmp_path, capsys, schedule):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out",
                                                                   schedule=schedule))
        assert main(["train", "--config", cfg]) == 2
        field = [k for k in schedule if k != "strategy"][0]
        assert f"no cell reads schedule.{field}" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # Only a variance-selecting cell has flags to dump, so the run would
    # write no selection/ directory.
    def test_dump_selection_no_cell_writes_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", schedule={"strategy": "cross_update"}))
        assert main(["train", "--config", cfg, "--dump-selection"]) == 2
        assert "no cell writes a selection dump" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # It would train the run without the map, under another config hash.
    @pytest.mark.parametrize("noise,detail", [
        ({"kind": "symmetric", "class_map": {"0": 1, "1": 0}},
         "noise.class_map is read by kind 'asymmetric' only, not 'symmetric'"),
        ({"kind": "asymmetric", "class_map": {"0": 1, "1": 2, "2": 0, "5": 1}},
         "class_map sources outside [0, 3): [5]"),
        ({"kind": "asymmetric", "epsilon": 0.0, "class_map": {"0": 1, "1": 2, "2": 0, "5": 1}},
         "class_map sources outside [0, 3): [5]"),
    ], ids=["symmetric", "asymmetric-source-5", "asymmetric-eps0-source-5"])
    def test_class_map_no_draw_reads_exits_2(self, tmp_path, capsys, noise, detail):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out",
                                                                   noise=noise))
        assert main(["train", "--config", cfg]) == 2
        assert detail in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # A train split that already carries noise gets no injection, yet its map
    # is checked against the class count the CSV gives.
    @pytest.mark.parametrize("class_map,detail", [
        ({"0": 1}, "class_map missing source classes [1]"),
        ({"0": 1, "1": 0, "2": 0}, "class_map sources outside [0, 2): [2]"),
        ({"0": 1, "1": 2}, "class_map targets outside [0, 2): [2]"),
    ], ids=["missing-source", "source-2", "target-2"])
    def test_class_map_on_noisy_csv_exits_2(self, tmp_path, capsys, class_map, detail):
        noisy_rows = ["1.0,2.0,0,0", "1.5,2.5,1,0", "0.5,1.0,0,0", "0.7,1.9,1,1"]
        payload = csv_train_payload(tmp_path, noisy_rows, TWO_CLASS_ROWS, noise={
            "kind": "asymmetric", "epsilon": 0.2, "class_map": class_map})
        assert main(["train", "--config", write_json(tmp_path / "cfg.json", payload)]) == 2
        assert detail in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    def test_single_class_csv_with_default_noise_exits_2(self, tmp_path, capsys):
        one_class = ["1.0,2.0,0,0", "1.5,2.5,0,0", "0.5,1.0,0,0"]
        cfg = write_json(tmp_path / "cfg.json", csv_train_payload(tmp_path, one_class, one_class))
        assert main(["train", "--config", cfg]) == 2
        assert "symmetric noise needs at least 2 classes" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # code_bits, csv_label: each run needs an 8192-bit codebook, twice the
    # cap, set outright or the default width of 2049 classes read off a CSV
    # label.  instance, pairflip: a CSV label of 100,000,000 means more
    # classes than any codebook holds, refused before noise injection takes
    # memory in proportion to the class count.  blobs: the class count is
    # configured; blobs_class_map: with a map, which is checked only after
    # the count, not walked over 5,000 classes.  hidden_width, hidden_layers,
    # per_class: the net arena or the features would take petabytes, refused
    # before anything that size (or a list of 10**12 layers) exists.
    @pytest.mark.parametrize("source", ["code_bits", "csv_label", "instance", "pairflip",
                                        "blobs", "blobs_class_map", "hidden_width",
                                        "hidden_layers", "per_class"])
    def test_codebook_over_the_cap_exits_2_before_training(self, tmp_path, capsys, source):
        message = "exceeds the 4096-bit limit"
        if source in ("hidden_width", "hidden_layers"):
            payload = tiny_train_payload(tmp_path / "out", train={
                "epochs": 3, "warmup_epochs": 1, "batch_size": 8, "hidden_width": 8,
                source: 10**8 if source == "hidden_width" else 10**12})
            message = "parameters exceeds the 67108864-element limit"
        elif source == "per_class":
            payload = tiny_train_payload(tmp_path / "out", dataset={
                "classes": 3, "dim": 4, "per_class": 10**12})
            message = "3x1000000000000x4 exceeds the 67108864-element limit"
        elif source == "code_bits":
            payload = tiny_train_payload(tmp_path / "out", train={
                "epochs": 3, "warmup_epochs": 1, "batch_size": 8, "hidden_width": 8,
                "code_bits": 8192})
        elif source == "csv_label":
            payload = csv_train_payload(tmp_path, [*TWO_CLASS_ROWS, "0.2,0.4,2048,2048"],
                                        TWO_CLASS_ROWS)
        elif source == "blobs":
            payload = tiny_train_payload(tmp_path / "out", dataset={"classes": 4097})
            message = "4097 classes exceed the 4096-class limit"
        elif source == "blobs_class_map":
            payload = tiny_train_payload(tmp_path / "out", dataset={"classes": 5000}, noise={
                "kind": "asymmetric", "class_map": {"0": 1, "1": 0}})
            message = "5000 classes exceed the 4096-class limit"
        else:
            payload = csv_train_payload(
                tmp_path, [*TWO_CLASS_ROWS, "0.2,0.4,100000000,100000000"], TWO_CLASS_ROWS,
                noise={"kind": source, "epsilon": 0.3})
            message = "100000001 classes exceed the 4096-class limit"
        assert main(["train", "--config", write_json(tmp_path / "cfg.json", payload)]) == 2
        assert message in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_feature_exits_4(self, tmp_path, capsys, value):
        rows = [*TWO_CLASS_ROWS[:2], f"0.5,{value},0,0", *TWO_CLASS_ROWS[3:]]
        cfg = write_json(tmp_path / "cfg.json", csv_train_payload(tmp_path, rows, TWO_CLASS_ROWS))
        assert main(["train", "--config", cfg]) == 4
        assert "train.csv line 4: non-finite feature" in only_error(capsys, "io")
        assert not (tmp_path / "out").exists()

    def test_test_split_feature_width_mismatch_exits_4(self, tmp_path, capsys):
        """Refused before training: no run directory, one error line
        naming both files."""
        cfg = write_json(tmp_path / "cfg.json", csv_train_payload(
            tmp_path, TWO_CLASS_ROWS, TWO_CLASS_ROWS))
        (tmp_path / "test.csv").write_text(
            "f0,f1,f2,label_true,label_noisy\n1.0,2.0,3.0,0,0\n1.5,2.5,3.5,1,1\n")
        assert main(["train", "--config", cfg]) == 4
        line = only_error(capsys, "io")
        assert "test.csv has 3 features" in line and "train.csv has 2" in line
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strategy", ["standard", "self_update", "cross_update",
                                          "jump_update"])
    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_csv_split_exits_4(self, tmp_path, capsys, strategy, empty):
        splits = {"train": TWO_CLASS_ROWS, "test": TWO_CLASS_ROWS, empty: []}
        cfg = write_json(tmp_path / "cfg.json", csv_train_payload(
            tmp_path, splits["train"], splits["test"], schedule={"strategy": strategy}))
        assert main(["train", "--config", cfg]) == 4
        assert f"{empty}.csv: the {empty} split has no data rows" in only_error(capsys, "io")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_exits_3(self, tmp_path, capsys):
        payload = {
            "dataset": {"classes": 3, "dim": 4, "per_class": 10},
            "train": {"epochs": 10, "warmup_epochs": 0, "batch_size": 4,
                      "lr0": 1e6, "lr_min": 1e6, "weight_decay": 1.0,
                      "hidden_width": 8},
            "schedule": {"strategy": "standard"},
            "seeds": [1],
            "out_dir": str(tmp_path / "out"),
        }
        cfg = write_json(tmp_path / "cfg.json", payload)
        assert main(["train", "--config", cfg]) == 3
        assert "error[numeric]" in capsys.readouterr().err


    def test_overflow_exits_3_with_one_stderr_line(self, tmp_path):
        """numpy's RuntimeWarnings must not add lines before the error.  Run
        as a real process, since pytest captures warnings in-process."""
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", train={"lr0": 1e300}))
        env = dict(os.environ, PYTHONPATH=str(Path(noisylab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "noisylab.cli", "train",
                               "--config", cfg], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[numeric]:"), proc.stderr


    # train runs schedule.strategy alone: a list only compare reads would
    # be ignored without a word.
    @pytest.mark.parametrize("extra", [{"strategies": ["standard", "self_update"]},
                                       {"effect_rates": [0.5]}],
                             ids=["strategies", "effect_rates"])
    def test_compare_only_field_exits_2_before_running(self, tmp_path, capsys, extra):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", **extra))
        assert main(["train", "--config", cfg]) == 2
        line = only_error(capsys, "config")
        assert next(iter(extra)) in line and "compare" in line
        assert not (tmp_path / "out").exists()


class TestCliCompare:
    def test_strategy_set_writes_comparison_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            out, strategies=["standard", "self_update"]))
        assert main(["compare", "--config", cfg]) == 0
        stdout = capsys.readouterr().out
        assert "compare: standard" in stdout and "compare: self_update" in stdout

        hash_dir, cells = run_dir_of(out)
        assert sorted(c.name for c in cells) == ["self_update-seed7",
                                                 "standard-seed7"]
        lines = (hash_dir / "comparison.csv").read_text().splitlines()
        assert lines[0].startswith("label,strategy,effect_rate,n_seeds")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "standard"

    def test_effect_rate_sweep_labels(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            out,
            schedule={"strategy": "self_update"},
            effect_rates=[1.0, 0.5]))
        assert main(["compare", "--config", cfg]) == 0
        _, cells = run_dir_of(out)
        assert sorted(c.name for c in cells) == ["self_update-r0.5-seed7",
                                                 "self_update-r1-seed7"]

    # A repeat runs one cell twice into one directory, and its rows then
    # read as seeds or cells that agree.  1 and 1.0 are one rate ("r1").
    @pytest.mark.parametrize("field,values,directory", [
        ("seeds", [7, 3, 7], "standard-seed7"),
        ("strategies", ["standard", "jump_update", "standard"], "standard-seed7"),
        ("effect_rates", [1, 0.5, 1.0], "jump_update-r1-seed7"),
    ], ids=["seeds", "strategies", "effect_rates"])
    def test_repeated_entry_exits_2_before_running(self, tmp_path, capsys, field, values,
                                                   directory):
        cfg = write_json(tmp_path / "cfg.json",
                         tiny_train_payload(tmp_path / "out", **{field: values}))
        assert main(["compare", "--config", cfg]) == 2
        assert only_error(capsys, "config").startswith(
            f"error[config]: two cells would write one directory, {directory!r}:")
        assert not (tmp_path / "out").exists()

    # Two distinct rates that print alike would write one cell directory
    # and two comparison rows with one label.
    def test_rates_sharing_a_label_exit_2_before_running(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", schedule={"strategy": "self_update"},
            effect_rates=[0.1234561, 0.1234562]))
        assert main(["compare", "--config", cfg]) == 2
        assert only_error(capsys, "config") == (
            "error[config]: two cells would write one directory, 'self_update-r0.123456-seed7': "
            "an entry repeats, or two rates print alike (a label gives a rate to 6 significant "
            "digits)")
        assert not (tmp_path / "out").exists()

    # Each sweep cell draws at its own rate, and only a lagged strategy
    # commits: each config sets a schedule field that no cell reads.
    @pytest.mark.parametrize("extra,field", [
        ({"schedule": {"strategy": "self_update", "effect_rate": 0.5},
          "effect_rates": [0.3, 1.0]}, "effect_rate"),
        ({"strategies": ["standard", "self_update"], "schedule": {"jump_step": 4}}, "jump_step"),
    ], ids=["effect-rate-under-a-sweep", "jump-step-without-a-lagged-cell"])
    def test_schedule_field_no_cell_reads_exits_2(self, tmp_path, capsys, extra, field):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", **extra))
        assert main(["compare", "--config", cfg]) == 2
        assert f"no cell reads schedule.{field}" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    def test_dump_selection_no_cell_writes_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", strategies=["standard", "cross_update"], dump_selection=True))
        assert main(["compare", "--config", cfg]) == 2
        assert "no cell writes a selection dump" in only_error(capsys, "config")
        assert not (tmp_path / "out").exists()

    # A jump step no lagged cell can reach, set or by default (one iteration
    # per epoch, one post-warm-up epoch): the plan refuses it on the first
    # seed's split, before any cell is built, so no cell directory is written.
    @pytest.mark.parametrize("command", ["compare", "train"])
    @pytest.mark.parametrize("extra,message", [
        ({"dataset": {"classes": 3, "dim": 4, "per_class": 30},
          "train": {"epochs": 4, "warmup_epochs": 2, "batch_size": 16, "hidden_width": 8},
          "schedule": {"jump_step": 1000}},
         "jump_step 1000 exceeds this run's post-warm-up iteration count, 10"),
        ({"train": {"epochs": 2, "warmup_epochs": 1, "batch_size": 64, "hidden_width": 8}},
         "jump_step 2 (default: iterations per epoch, at least 2) exceeds this run's "
         "post-warm-up iteration count, 1"),
    ], ids=["set", "default"])
    def test_unreachable_jump_step_exits_2_before_any_cell_trains(self, tmp_path, capsys,
                                                                  monkeypatch, extra, message,
                                                                  command):
        def no_cell(*args):
            raise AssertionError("a cell was built before the jump step was refused")

        monkeypatch.setattr("noisylab.experiment.CellRun", no_cell)
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", **extra))
        assert main([command, "--config", cfg]) == 2
        assert not list((tmp_path / "out").rglob("*-seed*"))
        assert only_error(capsys, "config") == f"error[config]: {message}"

    # Each seed's split is built once, before any cell, and every cell of the
    # seed trains on it; each cell is built only when its row runs it.
    @pytest.mark.parametrize("extra,labels", [
        ({}, ["standard", "self_update", "cross_update", "jump_update"]),
        ({"effect_rates": [0.5, 1.0]}, ["jump_update-r0.5", "jump_update-r1"]),
    ], ids=["strategies", "sweep"])
    def test_compare_builds_each_seed_split_once_and_each_cell_as_it_runs(
            self, tmp_path, monkeypatch, extra, labels):
        events, build_dataset = [], noisylab.experiment.build_dataset

        def counted_build(cfg, seed):
            events.append(("split", seed))
            return build_dataset(cfg, seed)

        class CountedCellRun(noisylab.experiment.CellRun):
            def __init__(self, cfg, strategy, seed, split, *rest):
                events.append(("built", Path(rest[-1]).name))
                super().__init__(cfg, strategy, seed, split, *rest)

            def run(self):
                events.append(("ran", self.out_dir.name))
                return super().run()

        monkeypatch.setattr("noisylab.experiment.build_dataset", counted_build)
        monkeypatch.setattr("noisylab.experiment.CellRun", CountedCellRun)
        cfg = write_json(tmp_path / "cfg.json",
                         tiny_train_payload(tmp_path / "out", seeds=[7, 8], **extra))
        assert main(["compare", "--config", cfg]) == 0
        assert events == [("split", 7), ("split", 8)] + [
            (event, f"{label}-seed{seed}")
            for label in labels for seed in (7, 8) for event in ("built", "ran")]

    # Every cell of a seed reads the one split the plan built for it.
    def test_no_cell_writes_its_shared_split(self, tmp_path, monkeypatch):
        splits, build_dataset = [], noisylab.experiment.build_dataset

        def kept_build(cfg, seed):
            split = build_dataset(cfg, seed)
            splits.append((split, [[a.copy() for a in (ds.features, ds.true_labels,
                                                       ds.noisy_labels)] for ds in split]))
            return split

        monkeypatch.setattr("noisylab.experiment.build_dataset", kept_build)
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", seeds=[7, 8], dump_selection=True,
            schedule={"effect_rate": 0.5}))
        assert main(["compare", "--config", cfg]) == 0
        assert len(splits) == 2
        for split, before in splits:
            for ds, arrays in zip(split, before):
                for now, then in zip((ds.features, ds.true_labels, ds.noisy_labels), arrays):
                    assert np.array_equal(now, then)

    def test_schedule_fields_one_cell_reads_are_accepted(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", strategies=["standard", "jump_update"],
            schedule={"effect_rate": 0.5, "jump_step": 4}))
        assert main(["compare", "--config", cfg]) == 0

    def test_single_strategy_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", strategies=["standard"]))
        assert main(["compare", "--config", cfg]) == 2
        assert "error[config]" in capsys.readouterr().err

    # A rate sweep runs schedule.strategy alone, and standard draws no gate:
    # each config would run cells other than the ones it names.
    @pytest.mark.parametrize("extra", [
        {"strategies": ["standard", "jump_update"], "effect_rates": [0.5]},
        {"schedule": {"strategy": "standard"}, "effect_rates": [0.5, 1.0]},
    ], ids=["strategies-with-effect-rates", "effect-rates-on-standard"])
    def test_sweep_that_would_be_ignored_exits_2_before_running(self, tmp_path, capsys,
                                                                extra):
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(tmp_path / "out", **extra))
        assert main(["compare", "--config", cfg]) == 2
        only_error(capsys, "config")
        assert not (tmp_path / "out").exists()


class TestCliReport:
    def test_reads_back_run_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_json(tmp_path / "cfg.json", tiny_train_payload(out))
        main(["train", "--config", cfg])
        capsys.readouterr()
        assert main(["report", "--run-dir", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "report: jump_update" in stdout
        assert "[summary.json disagrees]" not in stdout

    # A NaN compares false with everything, so the check asks for agreement.
    def test_nan_summary_disagrees(self, tmp_path, capsys):
        cell = tmp_path / "out" / "abc" / "standard-seed1"
        cell.mkdir(parents=True)
        (cell / "epochs.jsonl").write_text('{"strategy": "standard", "test_acc": 0.5}\n')
        (cell / "summary.json").write_text('{"last10_mean_acc": NaN}')
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 0
        assert "[summary.json disagrees]" in capsys.readouterr().out

    def test_missing_dir_exits_4(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path / "absent")]) == 4
        assert "error[io]" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs,summary", [
        ('{"strategy": "standard", "test_acc": 0.5}', "{not json"),
        ('{"strategy": "standard", "test_acc": 0.5}', '{"final_acc": 0.5}'),
        ('{"strategy": "standard", "sel_f1": 0.5}', '{"last10_mean_acc": 0.5}'),
        ('{"strategy": "standard", "test_acc": 0.5\udcff}', '{"last10_mean_acc": 0.5}'),
        ("[" * 100_000 + "]" * 100_000, '{"last10_mean_acc": 0.5}'),
        ('{"strategy": "standard", "test_acc": 0.5}', "[" * 100_000 + "]" * 100_000),
    ], ids=["summary-bad-json", "summary-no-last10", "row-no-test-acc",
            "epochs-not-utf8", "epochs-too-deep", "summary-too-deep"])
    def test_malformed_artifacts_exit_4(self, tmp_path, capsys, epochs, summary):
        cell = tmp_path / "out" / "abc" / "standard-seed1"
        cell.mkdir(parents=True)
        # surrogateescape writes the lone surrogate U+DCFF as the byte 0xff
        (cell / "epochs.jsonl").write_bytes((epochs + "\n").encode("utf-8", "surrogateescape"))
        (cell / "summary.json").write_text(summary)
        assert main(["report", "--run-dir", str(tmp_path / "out")]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[io]:"), lines


# Runs the CLI under a 4 KiB file-size limit, so the first write past it
# fails with EFBIG partway through a file, as a full disk would.
FSIZE_LIMITED_CLI = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
from noisylab.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestAtomicArtifacts:
    """An artifact is whole or absent: a write that fails partway leaves
    neither the target nor a temp file, and exits 4 with one line."""

    @pytest.mark.parametrize("argv,target", [
        (["gen-data", "--classes", "4", "--dim", "8", "--per-class", "60",
          "--train-out", "{}/train.csv", "--test-out", "{}/test.csv"], "train.csv"),
        (["codebook", "--classes", "40", "--out", "{}/codebook.csv"], "codebook.csv"),
        (["train", "--config", "{}/cfg.json", "--dump-selection"], "epoch_000.csv"),
    ], ids=["gen-data", "codebook", "train"])
    def test_write_failing_partway_leaves_no_file(self, tmp_path, argv, target):
        write_json(tmp_path / "cfg.json", tiny_train_payload(
            tmp_path / "out", dataset={"classes": 4, "dim": 8, "per_class": 60}))
        env = dict(os.environ, PYTHONPATH=str(Path(noisylab.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", FSIZE_LIMITED_CLI,
                               *(a.replace("{}", str(tmp_path)) for a in argv)],
                              env=env, capture_output=True, text=True, timeout=120)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 4 and len(lines) == 1, proc.stderr
        assert lines[0].startswith("error[io]:") and target in lines[0]
        assert not list(tmp_path.rglob(target))
        assert not list(tmp_path.rglob("*.tmp"))


# Each family of package errors, with its exit code and error tag.
FAMILIES = {ConfigError: (2, "config"), NumericError: (3, "numeric"), DataIOError: (4, "io")}
PACKAGE_ERRORS = [c for c in vars(errors).values() if isinstance(c, type)
                  and issubclass(c, errors.NoisyLabError) and c is not errors.NoisyLabError]


class TestErrorFamilies:
    """The error classes are the exit codes: every package error belongs to
    exactly one family, and ``main`` maps each family to its code."""

    @pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda c: c.__name__)
    def test_every_error_belongs_to_exactly_one_family(self, cls):
        assert sum(issubclass(cls, f) for f in FAMILIES) == 1

    @pytest.mark.parametrize("cls", PACKAGE_ERRORS, ids=lambda c: c.__name__)
    def test_main_maps_each_error_to_its_family_code(self, tmp_path, capsys, monkeypatch,
                                                     cls):
        def fail(*args):
            raise cls("injected")

        monkeypatch.setattr("noisylab.cli.derive_codebook", fail)
        (code, tag), = [FAMILIES[f] for f in FAMILIES if issubclass(cls, f)]
        assert main(["codebook", "--classes", "3", "--out", str(tmp_path / "c.csv")]) == code
        assert only_error(capsys, tag) == f"error[{tag}]: injected"
