import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from c2bnvae.checkpoint import CHECKPOINT_FORMAT_VERSION, load_checkpoint
from c2bnvae.cli import EXIT_DATA, EXIT_OK, EXIT_TRAINING, EXIT_USAGE, main

import corpus
from helpers import version_1_checkpoint


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
FAST_CONFIG = {"epochs": 2, "lr": 0.001, "batch_size": 64}


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert main(["preprocess", "--train"]) == EXIT_USAGE

    def test_unknown_command_is_one(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_file_is_two(self, tmp_path, capsys):
        rc = main(["preprocess", "--train", "/nope/a.txt", "--test", "/nope/b.txt",
                   "--out-dir", str(tmp_path)])
        assert rc == EXIT_DATA
        assert "input file not found: '/nope/a.txt'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train", "--test", "--taxonomy"])
    def test_directory_as_input_is_two(self, corpus_files, tmp_path, flag, capsys):
        # reading a directory raised a bare IsADirectoryError, exit 1
        train, test = corpus_files
        inputs = {"--train": str(train), "--test": str(test), flag: str(tmp_path)}
        rc = main(["preprocess", *(a for pair in inputs.items() for a in pair),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        what = "taxonomy file " if flag == "--taxonomy" else ""
        assert f"cannot read {what}{tmp_path}: Is a directory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, blocker, make", [
        ("preprocess", "encoded", "file"),
        ("train-gen", "models", "file"),
        ("train-gen", "models/c2bnvae.ckpt", "dir"),
        ("run-all", "results", "file"),
    ])
    def test_unusable_output_path_is_two(self, corpus_files, preprocessed, tmp_path,
                                         capsys, command, blocker, make):
        out = tmp_path / "out"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        blocked = out / blocker
        if make == "file":
            shutil.rmtree(blocked, ignore_errors=True)
            blocked.write_text("not a directory\n")
        else:
            blocked.mkdir(parents=True)
        train, test = corpus_files
        inputs = (["--train", str(train), "--test", str(test), "--seed", "3"]
                  if command == "preprocess" else FAST_FLAGS)
        assert main([command, "--out-dir", str(out), *inputs]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(blocked) in err and "Traceback" not in err

    def test_run_all_without_preprocess_is_two(self, tmp_path):
        assert main(["run-all", "--out-dir", str(tmp_path)]) == EXIT_DATA

    def test_missing_taxonomy_is_two(self, corpus_files, tmp_path):
        train, test = corpus_files
        rc = main(["preprocess", "--train", str(train), "--test", str(test),
                   "--out-dir", str(tmp_path), "--taxonomy", "/nope/tax.csv"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("subsample", ["1.0", "0.5"])
    def test_empty_test_split_is_subsampled_to_nothing(self, corpus_files, tmp_path,
                                                       subsample):
        train, _ = corpus_files
        empty = tmp_path / "test.txt"
        empty.write_text("\n")
        rc = main(["preprocess", "--train", str(train), "--test", str(empty),
                   "--out-dir", str(tmp_path / "out"), "--subsample", subsample])
        assert rc == EXIT_OK

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
        from c2bnvae.nslkdd import EncodedDataset, load_dataset

        loaded = load_dataset(preprocessed / "encoded" / "train.c2ds")
        features = loaded.features.copy()
        features[0, 0] = 1e300
        train_set = EncodedDataset(features, loaded.labels, loaded.schema)
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

    @pytest.mark.parametrize("setting", [
        {"latent_dim": 0}, {"batch_size": 0}, {"hidden_widths": []},
        {"cbn_placement": "nowhere"}, {"kl_weight": -1}, {"epochs": -1},
        {"max_depth": -1}, {"min_samples_split": 1}, {"min_gain": -0.5},
    ], ids=["latent-0", "batch-0", "no-widths", "placement", "negative-kl",
            "negative-epochs", "negative-depth", "split-1", "negative-gain"])
    def test_bad_generator_or_tree_setting_is_two(self, preprocessed, tmp_path,
                                                  setting, capsys):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(out), "seed": 3, "epochs": 2,
                                      "lr": 0.001, "batch_size": 64, **setting}))
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "experiment config" in err and next(iter(setting)) in err
        assert not (out / "results").exists()

    @pytest.mark.parametrize("setting", [
        {"smote_k": 0}, {"borderline_m": 0}, {"kmeans_clusters": 0},
        {"kmeans_threshold": float("nan")}, {"svm_penalty": 0}, {"svm_penalty": -1},
        {"svm_penalty": float("nan")},
    ], ids=["smote-k-0", "borderline-m-0", "clusters-0", "nan-threshold", "penalty-0",
            "negative-penalty", "nan-penalty"])
    def test_bad_balancer_setting_is_two(self, preprocessed, tmp_path, setting, capsys):
        # before, each of these ran: the rows that read the setting FAILED (or,
        # for NaN, quietly fell back to plain SMOTE) and run-all exited 0
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(out), "seed": 3, "epochs": 2,
                                      "lr": 0.001, "batch_size": 64, **setting}))
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "experiment config" in err and next(iter(setting)) in err
        assert not (out / "results").exists()

    @pytest.mark.parametrize("flag,value", [("--smote-k", "0"), ("--svm-penalty", "nan"),
                                            ("--kmeans-threshold", "nan")])
    def test_bad_balancer_flag_is_two(self, preprocessed, tmp_path, flag, value, capsys):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        rc = main(["run-all", "--out-dir", str(out), "--seed", "3", "--epochs", "2",
                   flag, value])
        assert rc == EXIT_DATA
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (out / "results").exists()

    @pytest.mark.parametrize("lr", ["-1", "0", "nan"])
    def test_bad_learning_rate_flag_is_two(self, preprocessed, tmp_path, lr, capsys):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        rc = main(["run-all", "--out-dir", str(out), "--seed", "3", "--epochs", "2",
                   "--lr", lr])
        assert rc == EXIT_DATA
        assert "lr must be positive" in capsys.readouterr().err
        assert not (out / "results").exists()

    @pytest.mark.parametrize("command,setting", [
        ("run-all", {"seed": -1}),
        ("preprocess", {"seed": -1, "subsample": 0.5}),
        ("preprocess", {"dataset_format": "xml"}),
        ("run-all", {"dataset_format": "xml"}),
    ], ids=["run-all-seed", "preprocess-seed", "preprocess-format", "run-all-format"])
    def test_bad_seed_or_format_is_two(self, corpus_files, preprocessed, tmp_path,
                                       command, setting, capsys):
        # before, a negative seed failed every run-all row (exit 3) or crashed
        # the subsample (exit 1), and an unknown format was caught only when
        # the first dataset was written
        train, test = corpus_files
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(out), **FAST_CONFIG, **setting}))
        assert main([command, "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "experiment config" in err and next(iter(setting)) in err
        assert not (out / "results").exists()
        assert sorted(p.name for p in (out / "encoded").iterdir()) == sorted(
            p.name for p in (preprocessed / "encoded").iterdir())

    def test_negative_seed_flag_is_two(self, preprocessed, tmp_path, capsys):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        rc = main(["run-all", "--out-dir", str(out), "--seed", "-1"] + FAST_FLAGS)
        assert rc == EXIT_DATA
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (out / "results").exists()

    def test_raw_input_that_is_not_utf8_is_two(self, corpus_files, tmp_path, capsys):
        train, test = corpus_files
        raw = train.read_bytes()
        bad_train = tmp_path / "train_latin1.txt"
        cut = raw.index(b"\n") + 1
        bad_train.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
        rc = main(["preprocess", "--train", str(bad_train), "--test", str(test),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad_train) in err and "not UTF-8" in err

    def test_deeply_nested_config_is_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"out_dir": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["count", "--config", str(path)]) == EXIT_DATA
        assert "experiment config" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_label_past_the_classes_is_two(self, corpus_files, tmp_path, split, fmt,
                                           capsys):
        train, test = corpus_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(tmp_path), "dataset_format": fmt}))
        assert main(["preprocess", "--config", str(config)]) == EXIT_OK
        path = tmp_path / "encoded" / f"{split}.{'c2ds' if fmt == 'binary' else 'csv'}"
        # no dataset holds a label of 7, so the file's bytes are edited
        raw = path.read_bytes()
        if fmt == "binary":
            (head_len,) = struct.unpack_from("<Q", raw, 8)
            at = 16 + head_len + 8  # the first label, past its block's length field
            path.write_bytes(raw[:at] + struct.pack("<q", 7) + raw[at + 8:])
        else:
            comment, columns, first, rest = raw.split(b"\n", 3)
            first = b"7" + first[first.index(b","):]
            path.write_bytes(b"\n".join([comment, columns, first, rest]))
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert "labels must be below 5" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_feature_outside_unit_interval_is_two(self, corpus_files, tmp_path, fmt,
                                                  capsys):
        from c2bnvae.nslkdd import EncodedDataset, load_dataset, save_dataset

        train, test = corpus_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(tmp_path), "dataset_format": fmt}))
        assert main(["preprocess", "--config", str(config)]) == EXIT_OK
        path = tmp_path / "encoded" / f"train.{'c2ds' if fmt == 'binary' else 'csv'}"
        dataset = load_dataset(path)
        features = dataset.features.copy()
        features[0, 0] = 1.25  # the loader checks feature values, the dataset does not
        save_dataset(EncodedDataset(features, dataset.labels, dataset.schema), path, fmt=fmt)
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert "features must lie in [0, 1]" in capsys.readouterr().err

    def test_labels_block_seven_bytes_short_is_two(self, corpus_files, tmp_path, capsys):
        train, test = corpus_files
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train_path": str(train), "test_path": str(test),
                                      "out_dir": str(tmp_path)}))
        assert main(["preprocess", "--config", str(config)]) == EXIT_OK
        path = tmp_path / "encoded" / "train.c2ds"
        raw = path.read_bytes()
        (head_len,) = struct.unpack_from("<Q", raw, 8)
        at = 16 + head_len  # the labels block's length field
        (nbytes,) = struct.unpack_from("<Q", raw, at)
        path.write_bytes(raw[:at] + struct.pack("<Q", nbytes - 7)
                         + raw[at + 8:at + 8 + nbytes - 7] + raw[at + 8 + nbytes:])
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert "not whole 8-byte values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "train-gen"])
    @pytest.mark.parametrize("widths", ["8,x", "", "8,,8", "6.5"])
    def test_bad_hidden_widths_is_one(self, command, widths, capsys):
        # the widths are parsed with the flags, before any file is read
        rc = main([command, "--hidden", widths])
        assert rc == EXIT_USAGE
        assert "--hidden" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["count", "train-gen"])
    @pytest.mark.parametrize("widths, message", [
        (["--latent-dim", str(10 ** 20)], "more than one array can hold"),
        # 60 x 10**15 weights: 480 PB, past any process's address space
        (["--hidden", f"60,{10 ** 15}"], "cannot allocate"),
    ])
    def test_unbuildable_generator_is_two(self, preprocessed, tmp_path, capsys, command,
                                          widths, message):
        out = tmp_path / "exp"
        shutil.copytree(preprocessed / "encoded", out / "encoded")
        args = ["--out-dir", str(out)] if command == "train-gen" else []
        assert main([command] + args + widths) == EXIT_DATA
        assert message in capsys.readouterr().err

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

    def test_retrains_over_checkpoint_header_length_past_the_file(self, preprocessed,
                                                                  tmp_path):
        clean, out = tmp_path / "clean", tmp_path / "exp"
        for directory in (clean, out):
            shutil.copytree(preprocessed / "encoded", directory / "encoded")
        assert main(["run-all", "--out-dir", str(clean), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        trained = (clean / "models" / "c2bnvae.ckpt").read_bytes()
        (out / "models").mkdir()
        (out / "models" / "c2bnvae.ckpt").write_bytes(
            trained[:8] + struct.pack("<Q", 2 ** 64 - 1) + trained[16:])
        assert main(["run-all", "--out-dir", str(out), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        assert (out / "models" / "c2bnvae.ckpt").read_bytes() == trained
        for report in (clean / "results").glob("*.json"):
            assert (out / "results" / report.name).read_bytes() == report.read_bytes()
        assert len(list((out / "results").glob("*_balance_manifest.json"))) == 7
        assert ((out / "results" / "results_table.txt").read_text()
                == (clean / "results" / "results_table.txt").read_text())


    def test_retrains_over_checkpoint_arrays_that_do_not_fit_the_config(
            self, preprocessed, tmp_path):
        clean, out = tmp_path / "clean", tmp_path / "exp"
        for directory in (clean, out):
            shutil.copytree(preprocessed / "encoded", directory / "encoded")
        assert main(["run-all", "--out-dir", str(clean), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        trained = (clean / "models" / "c2bnvae.ckpt").read_bytes()
        # store enc.lin0.W as [60, 128]: the same size, so the file still loads
        (head_len,) = struct.unpack_from("<Q", trained, 8)
        header = json.loads(trained[16:16 + head_len])
        entry = next(e for e in header["params"] if e["name"] == "enc.lin0.W")
        assert entry["shape"] == [128, 60]
        entry["shape"] = [60, 128]
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        (out / "models").mkdir()
        path = out / "models" / "c2bnvae.ckpt"
        path.write_bytes(trained[:8] + struct.pack("<Q", len(head)) + head
                         + trained[16 + head_len:])
        assert load_checkpoint(path).params["enc.lin0.W"].shape == (60, 128)
        assert main(["run-all", "--out-dir", str(out), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        assert path.read_bytes() == trained
        table = (out / "results" / "results_table.txt").read_text()
        assert "FAILED" not in table
        assert table == (clean / "results" / "results_table.txt").read_text()
        assert len(list((out / "results").glob("*.json"))) == 8 + 7  # reports, sidecars

    def test_retrains_over_version_1_checkpoints(self, preprocessed, tmp_path, capsys):
        clean, out = tmp_path / "clean", tmp_path / "exp"
        for directory in (clean, out):
            shutil.copytree(preprocessed / "encoded", directory / "encoded")
        assert main(["run-all", "--out-dir", str(clean), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        (out / "models").mkdir()
        trained = {}
        for name in ("c2bnvae.ckpt", "cvae.ckpt"):
            trained[name] = (clean / "models" / name).read_bytes()
            # the same model, config and schema, so only the version refuses it
            (out / "models" / name).write_bytes(version_1_checkpoint(trained[name]))
        capsys.readouterr()
        assert main(["run-all", "--out-dir", str(out), "--seed", "3"]
                    + FAST_FLAGS) == EXIT_OK
        assert "FAILED" not in capsys.readouterr().out
        for name, raw in trained.items():
            assert (out / "models" / name).read_bytes() == raw
        for report in (clean / "results").iterdir():
            assert (out / "results" / report.name).read_bytes() == report.read_bytes()
        assert len(list((out / "results").glob("*.json"))) == 8 + 7  # reports, sidecars

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
        bad = (b"C2BN" + struct.pack("<I", CHECKPOINT_FORMAT_VERSION)
               + struct.pack("<Q", len(head)) + head)
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
        lambda text: "[" * 100_000 + "]" * 100_000,  # past the parser's recursion limit
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
