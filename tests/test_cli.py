import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from c2bnvae.checkpoint import load_checkpoint
from c2bnvae.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, EXIT_USAGE, main

import corpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    return corpus.write_corpus(tmp_path_factory.mktemp("cli_corpus"))


@pytest.fixture(scope="module")
def preprocessed(corpus_files, tmp_path_factory):
    train, test = corpus_files
    out = tmp_path_factory.mktemp("cli_exp")
    rc = main(["preprocess", "--train", str(train), "--test", str(test),
               "--out-dir", str(out), "--seed", "3"])
    assert rc == EXIT_OK
    return out


FAST_FLAGS = ["--epochs", "2", "--lr", "0.001", "--batch-size", "64"]


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["preprocess", "--train"]) == EXIT_USAGE

    def test_unknown_command_is_one(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_file_is_two(self, tmp_path):
        rc = main(["preprocess", "--train", "/nope/a.txt", "--test", "/nope/b.txt",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA

    def test_run_all_without_preprocess_is_two(self, tmp_path):
        assert main(["run-all", "--out-dir", str(tmp_path)]) == EXIT_DATA

    def test_missing_taxonomy_is_two(self, corpus_files, tmp_path):
        train, test = corpus_files
        rc = main(["preprocess", "--train", str(train), "--test", str(test),
                   "--out-dir", str(tmp_path), "--taxonomy", "/nope/tax.csv"])
        assert rc == EXIT_DATA

    def test_non_finite_raw_field_is_two(self, corpus_files, tmp_path, capsys):
        train, test = corpus_files
        lines = train.read_text().splitlines()
        fields = lines[1].split(",")
        fields[4] = "nan"  # src_bytes
        lines[1] = ",".join(fields)
        bad_train = tmp_path / "train_nan.txt"
        bad_train.write_text("\n".join(lines) + "\n")
        rc = main(["preprocess", "--train", str(bad_train), "--test", str(test),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_nan_training_is_three(self, preprocessed, tmp_path, monkeypatch):
        # poison one encoded feature so the first loss is non-finite; the
        # loader rejects such a file (features lie in [0, 1]), so the
        # poisoned split reaches training in memory
        from c2bnvae import cli
        from c2bnvae.nslkdd import load_dataset

        train_set = load_dataset(preprocessed / "encoded" / "train.c2ds")
        train_set.features[0, 0] = 1e300
        test_set = load_dataset(preprocessed / "encoded" / "test.c2ds")
        monkeypatch.setattr(cli, "load_encoded", lambda config: (train_set, test_set))
        out = tmp_path / "poisoned"
        rc = main(["train-gen", "--out-dir", str(out), "--seed", "3"] + FAST_FLAGS)
        assert rc == EXIT_TRAINING

    def test_missing_config_file_is_two(self, tmp_path):
        assert main(["count", "--config", str(tmp_path / "missing.json")]) == EXIT_DATA

    def test_non_utf8_config_file_is_two(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"out_dir": "caf\xe9"}')
        assert main(["count", "--config", str(path)]) == EXIT_DATA

    @pytest.mark.parametrize("payload", [
        [1, 2],  # not an object
        {"sed": 1},  # unknown key
        {"seed": "x"},  # ill-typed int
        {"seed": True},
        {"lr": "fast"},  # ill-typed float
        {"emit_svg": 1},  # ill-typed bool
        {"hidden_widths": "60,60"},  # ill-typed tuple
        {"pad_to": "123"},  # ill-typed int | None
        {"taxonomy_path": 3},  # ill-typed str | None
    ], ids=["array", "unknown-key", "str-seed", "bool-seed", "str-lr", "int-flag",
            "str-widths", "str-pad", "int-taxonomy"])
    def test_bad_config_is_two(self, tmp_path, payload, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        assert main(["count", "--config", str(path)]) == EXIT_DATA
        assert "experiment config" in capsys.readouterr().err

    def test_config_with_nulls_and_integer_floats_is_zero(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"pad_to": None, "taxonomy_path": None,
                                    "max_depth": None, "lr": 1, "hidden_widths": [8]}))
        assert main(["count", "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_label_past_the_classes_is_two(self, corpus_files, tmp_path, split, fmt,
                                           capsys):
        from c2bnvae.nslkdd import load_dataset, save_dataset

        train, test = corpus_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(tmp_path), "dataset_format": fmt}))
        assert main(["preprocess", "--config", str(config)]) == EXIT_OK
        path = tmp_path / "encoded" / f"{split}.{'c2ds' if fmt == 'binary' else 'csv'}"
        dataset = load_dataset(path)
        dataset.labels[0] = 7
        save_dataset(dataset, path, fmt=fmt)
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert "labels must be below 5" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_feature_outside_unit_interval_is_two(self, corpus_files, tmp_path, fmt,
                                                  capsys):
        from c2bnvae.nslkdd import load_dataset, save_dataset

        train, test = corpus_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(tmp_path), "dataset_format": fmt}))
        assert main(["preprocess", "--config", str(config)]) == EXIT_OK
        path = tmp_path / "encoded" / f"train.{'c2ds' if fmt == 'binary' else 'csv'}"
        dataset = load_dataset(path)
        dataset.features[0, 0] = 1.25
        save_dataset(dataset, path, fmt=fmt)
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert "features must lie in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "train-gen"])
    @pytest.mark.parametrize("widths", ["8,x", "", "8,,8", "6.5"])
    def test_bad_hidden_widths_is_one(self, command, widths, capsys):
        # the widths are parsed with the flags, before any file is read
        rc = main([command, "--hidden", widths])
        assert rc == EXIT_USAGE
        assert "--hidden" in capsys.readouterr().err

    def test_help_is_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "preprocess" in capsys.readouterr().out


class TestPreprocessCommand:
    def test_prints_counts_summary(self, corpus_files, tmp_path, capsys):
        train, test = corpus_files
        rc = main(["preprocess", "--train", str(train), "--test", str(test),
                   "--out-dir", str(tmp_path), "--seed", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Normal 640" in out
        assert "Total 1210" in out

    def test_pad_to_zero_disables_padding(self, corpus_files, tmp_path, capsys):
        train, test = corpus_files
        rc = main(["preprocess", "--train", str(train), "--test", str(test),
                   "--out-dir", str(tmp_path), "--pad-to", "0"])
        assert rc == EXIT_OK
        assert "123-wide" not in capsys.readouterr().out

    def test_subsample_deterministic_outputs(self, corpus_files, tmp_path):
        train, test = corpus_files
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["preprocess", "--train", str(train), "--test", str(test),
                       "--out-dir", str(out), "--seed", "9", "--subsample", "0.5"])
            assert rc == EXIT_OK
            blobs.append((out / "encoded" / "train.c2ds").read_bytes())
        assert blobs[0] == blobs[1]


class TestTrainGenCommand:
    def test_writes_checkpoint_and_trace(self, preprocessed, capsys):
        rc = main(["train-gen", "--out-dir", str(preprocessed), "--seed", "3"]
                  + FAST_FLAGS)
        assert rc == EXIT_OK
        ckpt_path = preprocessed / "models" / "c2bnvae.ckpt"
        trace_path = preprocessed / "models" / "c2bnvae_trace.csv"
        assert ckpt_path.exists() and trace_path.exists()
        trace_lines = trace_path.read_text().splitlines()
        assert len(trace_lines) == 2 + 2  # manifest + header + one row per epoch
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.config.epochs == 2
        assert ckpt.config.use_cbn

    def test_no_cbn_flag_trains_plain_variant(self, preprocessed):
        rc = main(["train-gen", "--out-dir", str(preprocessed), "--seed", "3",
                   "--no-cbn"] + FAST_FLAGS)
        assert rc == EXIT_OK
        ckpt = load_checkpoint(preprocessed / "models" / "cvae.ckpt")
        assert not ckpt.config.use_cbn
        # plain BN holds a single affine pair per layer
        assert ckpt.params["dec.norm.gamma"].shape[0] == 1

    def test_rerun_reuses_checkpoint(self, preprocessed, capsys):
        rc = main(["train-gen", "--out-dir", str(preprocessed), "--seed", "3"]
                  + FAST_FLAGS)
        assert rc == EXIT_OK
        assert "reused existing checkpoint" in capsys.readouterr().out

    def test_single_epoch_trace(self, preprocessed, tmp_path):
        out = tmp_path / "one"
        out.mkdir()
        import shutil

        shutil.copytree(preprocessed / "encoded", out / "encoded")
        rc = main(["train-gen", "--out-dir", str(out), "--seed", "3",
                   "--epochs", "1", "--lr", "0.001"])
        assert rc == EXIT_OK
        lines = (out / "models" / "c2bnvae_trace.csv").read_text().splitlines()
        assert len(lines) == 3  # manifest + header + one epoch


class TestRunAllCommand:
    def test_prints_table_and_writes_artifacts(self, preprocessed, capsys):
        rc = main(["run-all", "--out-dir", str(preprocessed), "--seed", "3"]
                  + FAST_FLAGS)
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Algorithms" in out
        assert "C2BNVAE" in out
        assert (preprocessed / "results" / "chart_data.csv").exists()

    def test_checkpoint_digest_stable_across_reruns(self, preprocessed):
        import hashlib

        first = hashlib.sha256(
            (preprocessed / "models" / "c2bnvae.ckpt").read_bytes()).hexdigest()
        rc = main(["run-all", "--out-dir", str(preprocessed), "--seed", "3"]
                  + FAST_FLAGS)
        assert rc == EXIT_OK
        second = hashlib.sha256(
            (preprocessed / "models" / "c2bnvae.ckpt").read_bytes()).hexdigest()
        assert first == second


    @pytest.mark.parametrize("header", [
        ["not", "an", "object"],
        {"schema_fingerprint": "x", "params": [], "stats": []},  # no config
        {"config": {"feature_dim": 123, "num_classes": 5, "bogus": 1},
         "schema_fingerprint": "x", "params": [], "stats": []},
    ])
    def test_retrains_over_malformed_checkpoint_header(self, preprocessed, tmp_path,
                                                       header):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        (out / "models").mkdir()
        head = json.dumps(header).encode()
        bad = b"C2BN" + struct.pack("<I", 1) + struct.pack("<Q", len(head)) + head
        (out / "models" / "c2bnvae.ckpt").write_bytes(bad)
        rc = main(["run-all", "--out-dir", str(out), "--seed", "3"] + FAST_FLAGS)
        assert rc == EXIT_OK
        assert load_checkpoint(out / "models" / "c2bnvae.ckpt").config.epochs == 2


class TestCountCommand:
    def test_published_numbers(self, capsys):
        rc = main(["count"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        for number in ("22744", "22560", "20883", "20640", "43627", "43200"):
            assert number in out

    def test_unpadded_width_documented_difference(self, capsys):
        rc = main(["count", "--feature-dim", "122"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "43627" not in out
        assert "22684" in out  # encoder loses 60 weights

    def test_toy_architecture(self, capsys):
        rc = main(["count", "--feature-dim", "6", "--latent-dim", "2",
                   "--hidden", "4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        # encoder: 11->4 linear (48p/44f), width-4 norm (8p/16f), twin 4->2
        # heads (20p/16f); decoder: 7->4, norm, 4->6 out
        assert "76" in out
        assert "70" in out

    def test_hidden_widths_reach_the_table(self, capsys):
        assert main(["count", "--hidden", "8,16"]) == EXIT_OK
        assert "hidden=[8, 16]" in capsys.readouterr().out


class TestReportCommand:
    def test_reprints_table_from_artifacts(self, preprocessed, capsys):
        rc = main(["report", "--results-dir", str(preprocessed / "results")])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "Algorithms" in out
        assert "Original imbalanced Data" in out

    def test_empty_dir_is_data_error(self, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path)]) == EXIT_DATA

    @pytest.mark.parametrize("edit", [
        lambda text: text[:len(text) // 2],  # truncated
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "algorithm"}),
        lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                                 if k != "confusion_matrix"}),
        lambda text: json.dumps({**json.loads(text), "confusion_matrix": [[1, 2], [3]]}),
        lambda text: json.dumps({**json.loads(text), "confusion_matrix": [[1, -2], [3, 4]]}),
        lambda text: "[]",
    ])
    def test_malformed_report_is_data_error(self, preprocessed, tmp_path, edit):
        if not (preprocessed / "results").is_dir():  # run alone, without TestRunAllCommand
            assert main(["run-all", "--out-dir", str(preprocessed), "--seed", "3"]
                        + FAST_FLAGS) == EXIT_OK
        results = tmp_path / "results"
        shutil.copytree(preprocessed / "results", results)
        report = results / "smote.json"
        report.write_text(edit(report.read_text()))
        assert main(["report", "--results-dir", str(results)]) == EXIT_DATA


def test_config_file_drives_commands(corpus_files, tmp_path, capsys):
    train, test = corpus_files
    config = {"train_path": str(train), "test_path": str(test),
              "out_dir": str(tmp_path / "exp"), "seed": 11, "epochs": 1,
              "lr": 0.001, "batch_size": 64, "subsample": 0.8}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["preprocess", "--config", str(path)]) == EXIT_OK
    # flag overrides the file
    assert main(["run-all", "--config", str(path), "--epochs", "2"]) == EXIT_OK
    ckpt = load_checkpoint(tmp_path / "exp" / "models" / "c2bnvae.ckpt")
    assert ckpt.config.epochs == 2
