import json
import logging
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from c2bnvae.cli import EXIT_DATA, main
from c2bnvae.errors import DataError
from c2bnvae.experiment import (ROWS, ExperimentConfig, count_report,
                                load_encoded, load_reports, manifest_for,
                                manifest_line, preprocess, run_all, stage_seed,
                                stratified_subsample, write_trace_csv)
from c2bnvae.metrics import EvalReport
from c2bnvae.model import ModelConfig, TraceRow
from c2bnvae.nslkdd import (CATEGORY_NAMES, DATASET_FORMATS, class_counts, load_dataset,
                            save_dataset)

import corpus
from helpers import JSON_TOKENS, file_mutations

FAST = dict(epochs=4, lr=1e-3, batch_size=64, latent_dim=8,
            hidden_widths=(16, 16), smote_k=3, borderline_m=5,
            kmeans_clusters=3)


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    return corpus.write_corpus(tmp_path_factory.mktemp("corpus"))


def make_config(corpus_files, out_dir, **overrides) -> ExperimentConfig:
    train, test = corpus_files
    base = dict(train_path=str(train), test_path=str(test), out_dir=str(out_dir),
                seed=5, **FAST)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestStageSeeds:
    def test_deterministic_and_distinct(self):
        assert stage_seed(5, "train.cvae") == stage_seed(5, "train.cvae")
        assert stage_seed(5, "train.cvae") != stage_seed(5, "train.c2bnvae")
        assert stage_seed(5, "train.cvae") != stage_seed(6, "train.cvae")

    def test_config_digest_ignores_paths(self, corpus_files, tmp_path):
        a = make_config(corpus_files, tmp_path / "a")
        b = make_config(corpus_files, tmp_path / "b")
        assert a.config_digest == b.config_digest
        c = make_config(corpus_files, tmp_path / "a", seed=6)
        assert a.config_digest != c.config_digest


class TestSubsample:
    def test_stratified_counts(self):
        labels = np.array([0] * 100 + [1] * 10 + [2] * 3)
        idx = stratified_subsample(labels, 0.1, np.random.default_rng(0))
        sub = labels[idx]
        assert np.sum(sub == 0) == 10
        assert np.sum(sub == 1) == 1
        assert np.sum(sub == 2) == 1  # never drops a class entirely
        assert np.all(np.diff(idx) > 0)  # original order preserved

    def test_subsample_fraction_validated(self, corpus_files, tmp_path):
        with pytest.raises(DataError):
            make_config(corpus_files, tmp_path, subsample=0.0)


class TestPreprocess:
    def test_artifacts_and_counts(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path / "exp")
        artifacts = preprocess(config)
        assert artifacts["feature_dim"] == 123  # padded default
        assert artifacts["counts"].tolist() == [corpus.TRAIN_MIX[c] for c in ("Normal", "DoS", "Probe", "R2L", "U2R")]
        for key in ("train", "test"):
            assert Path(artifacts[key]).exists()
        # each dataset's header carries the schema; no file of its own
        assert sorted(p.name for p in config.encoded_dir().iterdir()) == [
            "counts.txt", "test.c2ds", "train.c2ds"]
        counts_text = (config.encoded_dir() / "counts.txt").read_text()
        assert counts_text.startswith("# manifest ")
        assert "Normal 640" in counts_text

    def test_missing_input_is_data_error(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path, train_path="/nope/missing.txt")
        with pytest.raises(DataError, match="missing.txt"):
            preprocess(config)

    def test_subsample_deterministic(self, corpus_files, tmp_path):
        a = make_config(corpus_files, tmp_path / "a", subsample=0.5)
        b = make_config(corpus_files, tmp_path / "b", subsample=0.5)
        preprocess(a)
        preprocess(b)
        train_a, _ = load_encoded(a)
        train_b, _ = load_encoded(b)
        assert np.array_equal(train_a.features, train_b.features)
        # roughly half of every class, never zero
        counts = class_counts(train_a)
        expected = [int(round(0.5 * corpus.TRAIN_MIX[c]))
                    for c in ("Normal", "DoS", "Probe", "R2L", "U2R")]
        assert counts.tolist() == expected

    def test_unpadded_width(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path / "exp", pad_to=None)
        artifacts = preprocess(config)
        # 38 numerics + data-driven vocabularies
        assert artifacts["feature_dim"] < 123

    def test_dataset_format_changes_no_byte_the_pipeline_reads(self, corpus_files, tmp_path):
        # the manifest leaves dataset_format out, so csv only adds the export
        written = {}
        for fmt in DATASET_FORMATS:
            config = make_config(corpus_files, tmp_path / fmt, dataset_format=fmt)
            preprocess(config)
            written[fmt] = {p.name: p.read_bytes() for p in config.encoded_dir().iterdir()}
        assert sorted(written["csv"]) == sorted([*written["binary"], "train.csv", "test.csv"])
        for name, raw in written["binary"].items():
            assert written["csv"][name] == raw, name
        # each export is the CSV writer's bytes for the binary set it sits beside
        for split in ("train", "test"):
            path = tmp_path / f"{split}.csv"
            save_dataset(load_dataset(config.encoded_dir() / f"{split}.c2ds"), path,
                         fmt="csv", manifest=manifest_for(config, "preprocess"))
            assert written["csv"][f"{split}.csv"] == path.read_bytes()

    def test_binary_run_removes_an_earlier_csv_export(self, corpus_files, tmp_path):
        # an export of other data would sit beside the .c2ds files as theirs
        config = make_config(corpus_files, tmp_path, dataset_format="csv")
        preprocess(config)
        exports = [config.encoded_dir() / f"{split}.csv" for split in ("train", "test")]
        assert all(path.exists() for path in exports)
        config.dataset_format, config.subsample = "binary", 0.5
        preprocess(config)
        assert sorted(path.name for path in config.encoded_dir().iterdir()) == [
            "counts.txt", "test.c2ds", "train.c2ds"]

    @pytest.mark.parametrize("fmt", DATASET_FORMATS)
    def test_stage_times_are_logged(self, corpus_files, tmp_path, caplog, fmt):
        config = make_config(corpus_files, tmp_path, dataset_format=fmt, subsample=0.5)
        with caplog.at_level(logging.INFO, logger="c2bnvae.experiment"):
            preprocess(config)
        [line] = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        # the records read, before the subsample
        counts = sum(corpus.TRAIN_MIX.values()), sum(corpus.TEST_MIX.values())
        assert re.fullmatch(
            rf"preprocess: read {counts[0]} \+ {counts[1]} records in \d+\.\d{{3}} s, "
            r"encoded in \d+\.\d{3} s, wrote binary in \d+\.\d{3} s, "
            r"exported CSV in \d+\.\d{3} s", line)

    def test_run_all_requires_preprocess(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path / "fresh")
        with pytest.raises(DataError, match="preprocess"):
            load_encoded(config)


class TestRunAll:
    @pytest.fixture(scope="class")
    @staticmethod
    def completed(corpus_files, tmp_path_factory):
        config = make_config(corpus_files, tmp_path_factory.mktemp("run"),
                             save_balanced=True)
        preprocess(config)
        rows = run_all(config)
        return config, rows

    def test_all_rows_present_in_published_order(self, completed):
        _, rows = completed
        assert tuple(name for name, _ in rows) == tuple(ROWS) == (
            "Original imbalanced Data", "Random oversampling", "SMOTE",
            "Borderline SMOTE", "KMeans SMOTE", "SVM SMOTE", "CVAE", "C2BNVAE")

    def test_all_rows_succeed_on_corpus(self, completed):
        _, rows = completed
        for name, outcome in rows:
            assert isinstance(outcome, EvalReport), f"{name}: {outcome}"

    def test_artifacts_written(self, completed):
        config, rows = completed
        results = config.results_dir()
        assert (results / "results_table.txt").exists()
        assert (results / "chart_data.csv").exists()
        assert (results / "original_imbalanced_data.json").exists()
        assert (results / "c2bnvae.json").exists()
        assert (results / "smote_balance_manifest.json").exists()
        sidecar = json.loads((results / "smote_balance_manifest.json").read_text())
        assert sidecar["method"] == "SMOTE"
        assert sum(sidecar["synthetic_per_class"]) > 0
        assert "seed" in sidecar and "parameters" in sidecar

    def test_sidecars_record_only_the_parameters_their_method_used(self, completed):
        config, _ = completed
        results = config.results_dir()
        expected = {"random_oversampling": {}, "smote": {"smote_k": 3},
                    "borderline_smote": {"smote_k": 3, "borderline_m": 5},
                    "kmeans_smote": {"smote_k": 3, "kmeans_clusters": 3,
                                     "kmeans_threshold": 0.5},
                    "svm_smote": {"smote_k": 3, "svm_penalty": 1.0},
                    "cvae": {}, "c2bnvae": {}}
        for slug, parameters in expected.items():
            sidecar = json.loads((results / f"{slug}_balance_manifest.json").read_text())
            assert sidecar["parameters"] == parameters, slug
        assert not (results / "original_imbalanced_data_balance_manifest.json").exists()

    def test_saved_balanced_sets_extend_the_training_rows(self, completed):
        config, _ = completed
        train_set, _ = load_encoded(config)
        n, train_counts = len(train_set), class_counts(train_set)
        results = config.results_dir()
        assert not (results / "balanced_original_imbalanced_data.c2ds").exists()
        for slug in ("random_oversampling", "smote", "borderline_smote", "kmeans_smote",
                     "svm_smote", "cvae", "c2bnvae"):
            balanced = load_dataset(results / f"balanced_{slug}.c2ds")
            assert balanced.schema == train_set.schema
            assert np.array_equal(balanced.features[:n], train_set.features), slug
            assert np.array_equal(balanced.labels[:n], train_set.labels), slug
            sidecar = json.loads((results / f"{slug}_balance_manifest.json").read_text())
            counts = class_counts(balanced)
            assert counts.tolist() == (train_counts
                                       + sidecar["synthetic_per_class"]).tolist(), slug
            assert counts.min() >= train_counts.max(), slug

    def test_generator_rows_hold_the_training_constant_columns(self, completed):
        config, _ = completed
        train_set, _ = load_encoded(config)
        real = train_set.features
        constant = real.max(axis=0) == real.min(axis=0)
        assert constant.sum() == 84  # 72 padding columns and 12 constant numerics
        for slug in ("cvae", "c2bnvae"):
            balanced = load_dataset(config.results_dir() / f"balanced_{slug}.c2ds")
            features = balanced.features
            held = features.max(axis=0) == features.min(axis=0)
            assert np.array_equal(held, constant), slug
            assert np.all(features[:, constant] == real[0, constant]), slug

    def test_chart_csv_long_format(self, completed):
        config, rows = completed
        lines = (config.results_dir() / "chart_data.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "algorithm,metric,value"
        data = [l.split(",") for l in lines[2:]]
        assert len(data) == 4 * len([r for _, r in rows if isinstance(r, EvalReport)])
        assert {row[1] for row in data} == {"Acc", "Pre_w", "Recall_w", "F1_w"}

    def test_reports_reload_identically(self, completed):
        config, rows = completed
        reloaded = dict(load_reports(config.results_dir()))
        for name, outcome in rows:
            assert reloaded[name].headline() == pytest.approx(outcome.headline())

    def test_svg_emitted_on_request(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path / "svg", emit_svg=True,
                             epochs=1)
        preprocess(config)
        run_all(config)
        svg = (config.results_dir() / "chart.svg").read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<rect") > 8

    def test_failed_row_recorded_and_others_proceed(self, corpus_files, tmp_path):
        # a max-count class with a single sample breaks SMOTE's k-NN but not
        # random oversampling: force it by stripping R2L down to one row
        config = make_config(corpus_files, tmp_path / "partial")
        preprocess(config)
        train_set, test_set = load_encoded(config)
        keep = np.flatnonzero(train_set.labels != 3)
        keep = np.append(keep, np.flatnonzero(train_set.labels == 3)[:1])
        from c2bnvae.nslkdd import EncodedDataset

        crippled = EncodedDataset(features=train_set.features[np.sort(keep)],
                                  labels=train_set.labels[np.sort(keep)],
                                  schema=train_set.schema)
        save_dataset(crippled, config.encoded_dir() / "train.c2ds", fmt="binary")
        rows = dict(run_all(config))
        assert isinstance(rows["SMOTE"], str)  # failure reason recorded
        assert isinstance(rows["Random oversampling"], EvalReport)


@pytest.mark.parametrize("verbose", [False, True])
def test_failed_row_traceback_is_logged_only_when_verbose(corpus_files, tmp_path,
                                                          monkeypatch, caplog, verbose):
    from c2bnvae import experiment

    def fail(request, config):
        raise ValueError("balancer broke")

    monkeypatch.setattr(experiment, "ROWS", {"SMOTE": (fail, ())})
    config = make_config(corpus_files, tmp_path)
    preprocess(config)
    caplog.set_level(logging.INFO if verbose else logging.WARNING,
                     logger="c2bnvae.experiment")
    assert run_all(config) == [("SMOTE", "balancer broke")]
    [record] = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert record.getMessage() == "algorithm SMOTE failed: balancer broke"
    assert bool(record.exc_info) == verbose
    if verbose:
        assert "in fail" in caplog.text and "ValueError: balancer broke" in caplog.text


def test_every_generator_setting_comes_from_the_experiment_config():
    # a ModelConfig field that no ExperimentConfig field fills is a setting no
    # run can change; the rest come from the data width, the class count, the
    # row's variant and the stage seed
    filled_elsewhere = {"feature_dim", "num_classes", "use_cbn", "seed"}
    settings = dict(latent_dim=3, hidden_widths=(5, 7), lr=0.5, epochs=2, batch_size=9,
                    kl_weight=0.25, cbn_placement="decoder_only")
    assert set(settings) == {f.name for f in fields(ModelConfig)} - filled_elsewhere
    defaults = ModelConfig(feature_dim=1, num_classes=1)
    built = ExperimentConfig(**settings).model_config(feature_dim=7, use_cbn=False, seed=3)
    for name, value in settings.items():
        assert value != getattr(defaults, name), name
        assert getattr(built, name) == value, name


@pytest.mark.parametrize("absent", ["R2L", "U2R"])
def test_a_class_absent_from_training_is_skipped_by_every_row(tmp_path, absent):
    # R2L sits between other labels and U2R is the top one; both end alike
    train_mix = {name: count for name, count in corpus.TRAIN_MIX.items() if name != absent}
    corpus_files = corpus.write_corpus(tmp_path, train_mix=train_mix)
    config = make_config(corpus_files, tmp_path / "exp", epochs=1)
    preprocess(config)
    rows = dict(run_all(config))
    missing = CATEGORY_NAMES.index(absent)
    for slug, name in (("random_oversampling", "Random oversampling"),
                       ("smote", "SMOTE"), ("borderline_smote", "Borderline SMOTE"),
                       ("kmeans_smote", "KMeans SMOTE"), ("svm_smote", "SVM SMOTE"),
                       ("cvae", "CVAE"), ("c2bnvae", "C2BNVAE")):
        assert isinstance(rows[name], EvalReport), f"{name}: {rows[name]}"
        sidecar = json.loads((config.results_dir() / f"{slug}_balance_manifest.json")
                             .read_text())
        synthetic = sidecar["synthetic_per_class"]
        assert synthetic[missing] == 0, slug
        assert all(count > 0 for i, count in enumerate(synthetic)
                   if i not in (0, missing)), slug


class RecordingConfig:
    """An ExperimentConfig proxy that records every field read through it."""

    def __init__(self, config):
        self._config, self.read = config, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._config, name)


def test_row_table_fields_are_the_config_fields_each_balancer_reads(monkeypatch):
    from c2bnvae import balancers, experiment

    # stand-ins for the generator trainer and every balancer: each row's own
    # lambda is then the only reader of the config
    monkeypatch.setattr(experiment, "train_generator",
                        lambda cfg, dataset, use_cbn: (None, [], None))
    for method in ("random_oversample", "smote", "borderline_smote", "kmeans_smote",
                   "svm_smote", "generative_balance"):
        monkeypatch.setattr(balancers, method, lambda request, *a, **k: request.dataset)
    request = balancers.BalanceRequest(dataset=None)
    for name, entry in ROWS.items():
        if entry is None:
            continue
        balance, fields = entry
        config = RecordingConfig(ExperimentConfig())
        balance(request, config)
        assert config.read == set(fields), name


def test_failed_row_leaves_no_report(corpus_files, tmp_path, monkeypatch):
    # a row whose files fail to write, on a fresh output directory and over
    # a report an earlier run left: either way ``load_reports`` must not
    # read the row as a success
    from c2bnvae import experiment

    real_save = experiment.save_dataset

    def save_dataset(dataset, path, **kwargs):
        if Path(path).name == "balanced_smote.c2ds":
            raise OSError("disk full")
        real_save(dataset, path, **kwargs)

    config = make_config(corpus_files, tmp_path, seed=1, save_balanced=True)
    preprocess(config)
    report = config.results_dir() / "smote.json"
    with monkeypatch.context() as m:
        m.setattr(experiment, "save_dataset", save_dataset)
        assert dict(run_all(config))["SMOTE"] == "disk full"
    assert not report.exists()
    assert isinstance(dict(run_all(config))["SMOTE"], EvalReport)
    assert report.exists()
    monkeypatch.setattr(experiment, "save_dataset", save_dataset)
    rows = run_all(config)
    assert dict(rows)["SMOTE"] == "disk full"
    assert not report.exists()
    table = (config.results_dir() / "results_table.txt").read_text()
    assert re.search(r"^SMOTE +FAILED: disk full$", table, re.M)
    assert [name for name, _ in load_reports(config.results_dir())] == [
        name for name, outcome in rows if isinstance(outcome, EvalReport)]


def test_failed_row_removes_the_files_an_earlier_run_left(corpus_files, tmp_path,
                                                         monkeypatch):
    # a balanced set and sidecar beside a table that says the row failed
    # would describe a run that did not happen
    from c2bnvae import balancers, experiment

    monkeypatch.setattr(experiment, "ROWS", {"SMOTE": ROWS["SMOTE"]})
    config = make_config(corpus_files, tmp_path, seed=1, save_balanced=True)
    preprocess(config)
    assert isinstance(dict(run_all(config))["SMOTE"], EvalReport)
    files = [config.results_dir() / name for name in
             ("balanced_smote.c2ds", "smote_balance_manifest.json", "smote.json")]
    assert all(path.exists() for path in files)

    def fail(request, **settings):
        raise ValueError("smote broke")

    monkeypatch.setattr(balancers, "smote", fail)
    assert run_all(config) == [("SMOTE", "smote broke")]
    assert [path.name for path in files if path.exists()] == []


def test_unsaved_balanced_set_removes_an_earlier_runs(corpus_files, tmp_path, monkeypatch):
    # a balanced set an earlier run saved would sit beside a sidecar and a
    # report of another set, here one balanced with other settings
    from c2bnvae import experiment

    monkeypatch.setattr(experiment, "ROWS", {"SMOTE": ROWS["SMOTE"]})
    config = make_config(corpus_files, tmp_path, seed=1, save_balanced=True)
    preprocess(config)
    run_all(config)
    assert (config.results_dir() / "balanced_smote.c2ds").exists()
    config.save_balanced, config.smote_k = False, 2
    assert isinstance(dict(run_all(config))["SMOTE"], EvalReport)
    assert sorted(path.name for path in config.results_dir().iterdir()) == [
        "chart_data.csv", "results_table.txt", "smote.json", "smote_balance_manifest.json"]


def test_non_finite_checkpoint_is_retrained(corpus_files, tmp_path):
    from c2bnvae.checkpoint import load_checkpoint, save_checkpoint

    config = make_config(corpus_files, tmp_path, epochs=2)
    preprocess(config)
    run_all(config)
    path = config.models_dir() / "c2bnvae.ckpt"
    trained = path.read_bytes()
    ckpt = load_checkpoint(path)
    ckpt.params["dec.out.W"][0, 0] = np.nan
    save_checkpoint(ckpt, path)
    rows = dict(run_all(config))
    assert isinstance(rows["C2BNVAE"], EvalReport), rows["C2BNVAE"]
    assert path.read_bytes() == trained


class TestDeterminism:
    def test_byte_identical_artifacts(self, corpus_files, tmp_path):
        outputs = []
        for sub in ("x", "y"):
            config = make_config(corpus_files, tmp_path / sub, epochs=2)
            preprocess(config)
            run_all(config)
            results = config.results_dir()
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(results.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs"

    def test_different_seed_changes_results(self, corpus_files, tmp_path):
        tables = []
        for sub, seed in (("a", 5), ("b", 17)):
            config = make_config(corpus_files, tmp_path / sub, epochs=2, seed=seed)
            preprocess(config)
            run_all(config)
            tables.append((config.results_dir() / "chart_data.csv").read_text())
        assert tables[0] != tables[1]


class TestCountReport:
    def test_published_totals(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path, latent_dim=32,
                             hidden_widths=(60, 60, 60, 60))
        text = count_report(config, feature_dim=123)
        assert "22744" in text and "22560" in text
        assert "20883" in text and "20640" in text
        assert "43627" in text and "43200" in text

    def test_trainable_convention_differs(self, corpus_files, tmp_path):
        config = make_config(corpus_files, tmp_path, latent_dim=32,
                             hidden_widths=(60, 60, 60, 60))
        text = count_report(config, feature_dim=123)
        assert "23224" in text  # encoder with full conditional banks
        assert "21363" in text  # decoder with full conditional banks


class TestTraceCsv:
    def test_layout(self, tmp_path):
        trace = [TraceRow(0, 1.5, 0.25, 1.75), TraceRow(1, 1.0, 0.5, 1.5)]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path, {"seed": 1})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# manifest ")
        assert lines[1] == "epoch,recon,regu,total"
        assert lines[2].split(",")[0] == "0"
        assert len(lines) == 4


def test_config_json_round_trip(tmp_path, corpus_files):
    config = make_config(corpus_files, tmp_path, kl_weight=0.5, subsample=0.25)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = ExperimentConfig.from_json_file(path)
    assert loaded == config
    assert manifest_line({"a": 1}) == '# manifest {"a":1}'


class TestReportAndConfigFuzz:
    """Every mutation of a report file or a config file either loads or ends
    as a DataError, and the command that reads it then exits 2."""

    def test_reports_load_or_are_data_error(self, tmp_path_factory):
        results = tmp_path_factory.mktemp("report_fuzz")
        cm = np.array([[5, 1, 0, 0, 0], [0, 4, 1, 0, 0], [1, 0, 3, 0, 0],
                       [0, 0, 0, 2, 1], [0, 0, 0, 0, 1]])
        report = EvalReport.from_confusion("SMOTE", cm)
        path = results / "smote.json"
        raw = report.to_json(manifest={"seed": 7}).encode()

        @settings(max_examples=300, deadline=None)
        @given(file_mutations(raw, JSON_TOKENS))
        @example(b"[" * 100_000 + b"]" * 100_000)  # past the parser's recursion limit
        def check(mutated):
            path.write_bytes(mutated)
            try:
                load_reports(results)
            except DataError:
                assert main(["report", "--results-dir", str(results)]) == EXIT_DATA

        check()

    def test_config_loads_or_is_data_error(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("config_fuzz") / "config.json"
        config = {"train_path": "train.txt", "test_path": "test.txt", "out_dir": "out",
                  "taxonomy_path": None, "seed": 3, "subsample": 0.5, "pad_to": 123,
                  "dataset_format": "csv", "hidden_widths": [8, 8], "lr": 0.001,
                  "kmeans_threshold": 0.5, "max_depth": None, "emit_svg": False}
        raw = json.dumps(config, indent=2).encode()

        @settings(max_examples=300, deadline=None)
        @given(file_mutations(raw, JSON_TOKENS))
        @example(b'{"out_dir": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
        def check(mutated):
            path.write_bytes(mutated)
            try:
                ExperimentConfig.from_json_file(path)
            except DataError:
                assert main(["count", "--config", str(path)]) == EXIT_DATA

        check()
