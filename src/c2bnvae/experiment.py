"""Experiment orchestration: preprocess, generator training, the full
balancer-vs-classifier sweep, and every file artifact.

Determinism contract: the master seed fans out to one child seed per stage
through SeedSequence([master, crc32(stage name)]), so each stage is
individually reproducible and two runs with the same config and seed write
byte-identical reports, tables and chart data. Output files carry a
manifest holding the artifact version, the digest of the semantic config
(paths excluded) and the master seed; nothing time- or path-dependent is
ever written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import shutil
import signal
import sys
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import balancers as bal
from . import dtree
from . import model as model_mod
from .atomic import write_atomic
from .checkpoint import load_checkpoint, save_checkpoint
from .costing import count_params_flops
from .errors import DataError, ShapeError
from .metrics import TABLE_COLUMNS, EvalReport, confusion, results_table
from .model import Checkpoint, ModelConfig, TraceRow
from .nslkdd import (CATEGORY_NAMES, DATASET_FORMATS, NUM_CATEGORIES, EncodedDataset,
                     attack_labels, class_counts, default_taxonomy, fit_schema,
                     load_dataset, load_taxonomy, read_records, save_dataset,
                     transform)

logger = logging.getLogger(__name__)

# result rows in the published order: row name -> (``balance(request,
# config)``, the config fields that balancer reads), or None to keep the
# training set as it is. The fields are what the row's sidecar records; a
# generator row records none, because its checkpoint header holds its
# settings. A generator row trains (or reuses) its generator when it runs.
# Each entry looks its balancer and the generator trainer up on their
# modules when it runs, never at import, so that a wrapper put on
# ``balancers.<name>`` later (the benchmark's timing spans) sees the call.
ROWS: dict[str, tuple[Callable, tuple[str, ...]] | None] = {
    "Original imbalanced Data": None,
    "Random oversampling": (lambda req, cfg: bal.random_oversample(req), ()),
    "SMOTE": (lambda req, cfg: bal.smote(req, k=cfg.smote_k), ("smote_k",)),
    "Borderline SMOTE": (lambda req, cfg: bal.borderline_smote(
        req, k=cfg.smote_k, m=cfg.borderline_m), ("smote_k", "borderline_m")),
    "KMeans SMOTE": (lambda req, cfg: bal.kmeans_smote(
        req, k=cfg.smote_k, n_clusters=cfg.kmeans_clusters,
        imbalance_threshold=cfg.kmeans_threshold),
        ("smote_k", "kmeans_clusters", "kmeans_threshold")),
    "SVM SMOTE": (lambda req, cfg: bal.svm_smote(
        req, k=cfg.smote_k, penalty=cfg.svm_penalty), ("smote_k", "svm_penalty")),
    "CVAE": (lambda req, cfg: bal.generative_balance(
        req, train_generator(cfg, req.dataset, use_cbn=False)[0]), ()),
    "C2BNVAE": (lambda req, cfg: bal.generative_balance(
        req, train_generator(cfg, req.dataset, use_cbn=True)[0]), ()),
}


@dataclass
class ExperimentConfig:
    train_path: str = ""
    test_path: str = ""
    out_dir: str = "out"
    taxonomy_path: str | None = None
    seed: int = 0
    subsample: float = 1.0
    pad_to: int | None = 123
    dataset_format: str = "binary"
    # generator settings; feature_dim is data-driven and filled at run time
    latent_dim: int = 32
    hidden_widths: tuple[int, ...] = (60, 60, 60, 60)
    lr: float = 1e-4
    epochs: int = 120
    batch_size: int = 128
    kl_weight: float = 1.0
    cbn_placement: str = "encoder_and_decoder"
    # balancer parameters
    smote_k: int = 5
    borderline_m: int = 10
    kmeans_clusters: int = 8
    kmeans_threshold: float = 0.5
    svm_penalty: float = 1.0
    # classifier parameters
    max_depth: int | None = None
    min_samples_split: int = 2
    min_gain: float = 0.0
    emit_svg: bool = False
    save_balanced: bool = False

    def __post_init__(self):
        self.hidden_widths = tuple(self.hidden_widths)
        if not 0.0 < self.subsample <= 1.0:
            raise DataError(f"subsample must lie in (0, 1], got {self.subsample}")
        if self.dataset_format not in DATASET_FORMATS:
            raise DataError(f"bad experiment config: dataset_format must be one of "
                            f"{DATASET_FORMATS}, got {self.dataset_format!r}")
        # the generator and tree settings are checked where they are defined,
        # once, at load; feature_dim comes from the data, so any valid width,
        # and the master seed stands in for the stage seeds derived from it
        try:
            self.model_config(feature_dim=1, use_cbn=True, seed=self.seed)
            self.tree_params()
        except ShapeError as exc:
            raise DataError(f"bad experiment config: {exc}") from None
        # the balancers trust their settings, so they are checked here alone;
        # a NaN threshold or penalty would not fail a row but quietly fall
        # back to plain SMOTE, since no cluster or margin compares true
        for field, value in (("smote_k", self.smote_k), ("borderline_m", self.borderline_m),
                             ("kmeans_clusters", self.kmeans_clusters)):
            if value < 1:
                raise DataError(f"bad experiment config: {field} must be >= 1, got {value}")
        if math.isnan(self.kmeans_threshold):
            raise DataError("bad experiment config: kmeans_threshold must be a number, "
                            "got nan")
        if not self.svm_penalty > 0:  # also rejects NaN
            raise DataError(f"bad experiment config: svm_penalty must be positive, "
                            f"got {self.svm_penalty}")

    # paths and storage options do not identify the experiment
    _NON_SEMANTIC = ("train_path", "test_path", "out_dir", "taxonomy_path",
                     "dataset_format", "emit_svg", "save_balanced")

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items()}
        d["hidden_widths"] = list(self.hidden_widths)
        return d

    def semantic_dict(self) -> dict:
        return {k: v for k, v in self.to_dict().items() if k not in self._NON_SEMANTIC}

    @property
    def config_digest(self) -> str:
        canon = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Inverse of ``to_dict``; raises DataError for a key that is unknown
        or ill-typed."""
        model_mod.check_config_fields(cls, d, "experiment config")
        return cls(**d)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
            raise DataError(f"bad experiment config {path}: {exc}") from exc
        return cls.from_dict(payload)

    def model_config(self, feature_dim: int, use_cbn: bool, seed: int) -> ModelConfig:
        return ModelConfig(feature_dim=feature_dim, num_classes=NUM_CATEGORIES,
                           latent_dim=self.latent_dim, hidden_widths=self.hidden_widths,
                           lr=self.lr, epochs=self.epochs, batch_size=self.batch_size,
                           kl_weight=self.kl_weight, cbn_placement=self.cbn_placement,
                           use_cbn=use_cbn, seed=seed)

    def tree_params(self) -> dtree.TreeParams:
        return dtree.TreeParams(max_depth=self.max_depth,
                                min_samples_split=self.min_samples_split,
                                min_gain=self.min_gain)

    def encoded_dir(self) -> Path:
        return Path(self.out_dir) / "encoded"

    def encoded_paths(self) -> tuple[Path, Path]:
        """The encoded train and test files the pipeline reads, in either
        dataset format."""
        return self.encoded_dir() / "train.c2ds", self.encoded_dir() / "test.c2ds"

    def models_dir(self) -> Path:
        return Path(self.out_dir) / "models"

    def results_dir(self) -> Path:
        return Path(self.out_dir) / "results"


def stage_seed(master: int, stage: str) -> int:
    """Deterministic per-stage child seed: SeedSequence([master, crc32(stage)])."""
    ss = np.random.SeedSequence([master, zlib.crc32(stage.encode())])
    return int(ss.generate_state(1, np.uint64)[0])


def manifest_for(config: ExperimentConfig, stage: str) -> dict:
    return {"artifact_version": __version__, "config_digest": config.config_digest,
            "seed": config.seed, "stage": stage}


def manifest_line(manifest: dict) -> str:
    return "# manifest " + json.dumps(manifest, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# preprocessing
# ----------------------------------------------------------------------

def stratified_subsample(labels: np.ndarray, fraction: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Per-class sample without replacement; indices return in original order."""
    keep: list[np.ndarray] = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        take = max(1, int(round(fraction * idx.size)))
        keep.append(rng.choice(idx, size=take, replace=False))
    return np.sort(np.concatenate(keep)) if keep else np.zeros(0, dtype=np.int64)


def preprocess(config: ExperimentConfig) -> dict:
    """Parse, subsample, fit the schema, encode both splits and write artifacts."""
    for path in (config.train_path, config.test_path):
        if not path or not Path(path).exists():
            raise DataError(f"input file not found: {path!r}")
    if config.taxonomy_path:
        if not Path(config.taxonomy_path).exists():
            raise DataError(f"taxonomy file not found: {config.taxonomy_path!r}")
        taxonomy = load_taxonomy(config.taxonomy_path)
    else:
        taxonomy = default_taxonomy()
    train_records = read_records(config.train_path)
    test_records = read_records(config.test_path)
    if config.subsample < 1.0:
        subsampled = []
        for name, records in (("train", train_records), ("test", test_records)):
            rng = np.random.default_rng(stage_seed(config.seed, f"subsample.{name}"))
            idx = stratified_subsample(attack_labels(records, taxonomy),
                                       config.subsample, rng)
            subsampled.append(records[idx])
        train_records, test_records = subsampled
    schema = fit_schema(train_records, extra_vocab_records=test_records,
                        pad_to=config.pad_to)
    encoded_train = transform(train_records, schema, taxonomy)
    encoded_test = transform(test_records, schema, taxonomy)

    out = config.encoded_dir()
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest_for(config, "preprocess")
    train_file, test_file = config.encoded_paths()
    for dataset, path in ((encoded_train, train_file), (encoded_test, test_file)):
        save_dataset(dataset, path, fmt="binary", manifest=manifest)
        if config.dataset_format == "csv":  # an export that no step reads back
            save_dataset(dataset, path.with_suffix(".csv"), fmt="csv", manifest=manifest)

    counts = class_counts(encoded_train)
    lines = [manifest_line(manifest)]
    lines += [f"{name} {count}" for name, count in zip(CATEGORY_NAMES, counts)]
    lines.append(f"Total {counts.sum()}")
    write_atomic(out / "counts.txt", "\n".join(lines) + "\n")
    return {"train": train_file, "test": test_file, "counts": counts,
            "feature_dim": schema.feature_dim}


def load_encoded(config: ExperimentConfig) -> tuple[EncodedDataset, EncodedDataset]:
    train_file, test_file = config.encoded_paths()
    if not train_file.exists() or not test_file.exists():
        raise DataError(f"encoded datasets not found under {config.encoded_dir()}; "
                        f"run preprocess first")
    return load_dataset(train_file), load_dataset(test_file)


# ----------------------------------------------------------------------
# generator training
# ----------------------------------------------------------------------

def write_trace_csv(trace: list[TraceRow], path, manifest: dict) -> None:
    buf = io.StringIO()
    buf.write(manifest_line(manifest) + "\n")
    writer = csv.writer(buf)
    writer.writerow(["epoch", "recon", "regu", "total"])
    for row in trace:
        writer.writerow([row.epoch, repr(row.recon), repr(row.regu), repr(row.total)])
    write_atomic(path, buf.getvalue())


def generator_name(use_cbn: bool) -> str:
    """The stem of a generator's checkpoint and trace files under ``models/``."""
    return "c2bnvae" if use_cbn else "cvae"


def train_generator(config: ExperimentConfig, train_set: EncodedDataset,
                    use_cbn: bool) -> tuple[Checkpoint, list[TraceRow], Path]:
    """Train (or reuse) one generative model; writes its trace, then its
    checkpoint, so a checkpoint on disk always has its full trace beside it."""
    name = generator_name(use_cbn)
    model_config = config.model_config(train_set.schema.feature_dim, use_cbn,
                                       seed=stage_seed(config.seed, f"train.{name}"))
    models = config.models_dir()
    models.mkdir(parents=True, exist_ok=True)
    ckpt_path = models / f"{name}.ckpt"
    if ckpt_path.exists():
        try:
            existing = load_checkpoint(ckpt_path)
            if (existing.config == model_config
                    and existing.schema_fingerprint == train_set.schema.fingerprint):
                model_mod.C2BNVAE.from_checkpoint(existing)  # arrays must fit the config
                logger.info("reusing checkpoint %s", ckpt_path)
                return existing, [], ckpt_path
        except DataError:
            pass  # unreadable, stale or ill-shaped: retrain below
    ckpt, trace = model_mod.train(train_set, model_config)
    manifest = manifest_for(config, f"train.{name}")
    write_trace_csv(trace, models / f"{name}_trace.csv", manifest)
    save_checkpoint(ckpt, ckpt_path, manifest=manifest)
    return ckpt, trace, ckpt_path


# ----------------------------------------------------------------------
# the full sweep
# ----------------------------------------------------------------------

def _slug(name: str) -> str:
    return name.lower().replace(" ", "_")


# the rows a forked helper process runs end to end while the parent runs
# the others; after them the helper runs the HANDED_OFF_ROW's evaluation
# stage (tree, predict, report) on the balanced set the parent hands it.
# The tracer rule: a tracer records only in the parent, so work may leave
# the parent only if the parent still makes every call that work makes.
# These two rows keep it (the CVAE row trains, generates and calls
# generative_balance in the parent, and every row fits and predicts a
# tree); an oversampler row here would hide its span.
HELPER_ROWS = ("Original imbalanced Data", "C2BNVAE")
# the row whose balance stage the parent runs first, before the oversampler
# rows, and whose evaluation stage it hands to the helper through a file in
# a private temporary directory. Its tree keeps the tracer rule because the
# parent still fits and predicts the five oversampler rows' trees.
HANDED_OFF_ROW = "CVAE"


class _RowResult(NamedTuple):
    """A row that ran: what ``_write_row`` needs to write its files."""
    report: EvalReport
    synthetic_per_class: list[int] | None  # None for the original data
    balanced: EncodedDataset | None  # kept only when the config saves it


def _balance(name: str, config: ExperimentConfig,
             train_set: EncodedDataset) -> tuple[EncodedDataset, list[int] | None]:
    """The balance stage: the training set as row ``name`` balances it (or
    not), and the synthetic rows it added per class (None for the original
    data)."""
    entry = ROWS[name]
    if entry is None:
        return train_set, None
    balanced = entry[0](bal.BalanceRequest(
        train_set, seed=stage_seed(config.seed, f"balance.{name}")), config)
    return balanced, (class_counts(balanced) - class_counts(train_set)).tolist()


def _evaluate(name: str, config: ExperimentConfig, balanced: EncodedDataset,
              synthetic: list[int] | None, test_set: EncodedDataset) -> _RowResult:
    """The evaluation stage: fit the tree on row ``name``'s balanced set,
    predict the test split and evaluate; writes nothing under ``results/``."""
    tree = dtree.fit(balanced.features, balanced.labels, config.tree_params())
    cm = confusion(test_set.labels, dtree.predict(tree, test_set.features),
                   NUM_CATEGORIES)
    return _RowResult(EvalReport.from_confusion(name, cm), synthetic,
                      balanced if synthetic is not None and config.save_balanced else None)


def _row_files(name: str, config: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Row ``name``'s files under ``results/``: its balanced set, its sidecar
    and its report."""
    results_dir, slug = config.results_dir(), _slug(name)
    return (results_dir / f"balanced_{slug}.c2ds",
            results_dir / f"{slug}_balance_manifest.json", results_dir / f"{slug}.json")


def _write_row(name: str, row: _RowResult, config: ExperimentConfig) -> None:
    """Write, for a balancing row, its balanced set (when the config saves
    it) and its sidecar, and then the row's report. The report comes last,
    so a row whose files fail to write leaves no report for
    ``load_reports`` to find."""
    balanced_path, sidecar_path, report_path = _row_files(name, config)
    manifest = manifest_for(config, "run-all")
    if row.synthetic_per_class is not None:
        if row.balanced is not None:
            save_dataset(row.balanced, balanced_path, fmt="binary", manifest=manifest)
        sidecar = {
            "manifest": manifest,
            "method": name,
            "seed": stage_seed(config.seed, f"balance.{name}"),
            "parameters": {field: getattr(config, field) for field in ROWS[name][1]},
            "synthetic_per_class": row.synthetic_per_class,
        }
        write_atomic(sidecar_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    write_atomic(report_path, row.report.to_json(manifest=manifest))


def _rows_in_helper(names: tuple[str, ...], config: ExperimentConfig,
                    train_set: EncodedDataset, test_set: EncodedDataset,
                    conn, handoff: tuple, scratch: str, parent: int) -> None:
    """The helper process: run ``names``, then evaluate the ``HANDED_OFF_ROW``
    if the parent hands its balanced set over, and send the ``_RowResult``s.

    ``handoff`` is the hand-off pipe's two ends, as the fork left them. Its
    reading end yields one message, ``(path, synthetic_per_class)`` with the
    path inside the directory ``scratch``, or ends without one when the
    parent has nothing to hand over. The helper sends
    only when every row succeeded; any failure, a row's own included, ends
    it quietly with exit code 1, and the parent runs the rows itself and
    reports the failure. SIGTERM raises here, so that an artifact write it
    interrupts removes its temporary file. The kernel sends that SIGTERM
    when the parent ends, however it ends (Linux ``PR_SET_PDEATHSIG``), so a
    killed run leaves no helper running; and since the helper removes
    ``scratch`` as it ends, none of the hand-off either.
    """
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    handoff_reader, handoff_writer = handoff
    handoff_writer.close()  # the parent's end: open here, it would keep the pipe from ending
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # 1: PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent ended before the request
            sys.exit(1)
        rows = {name: _evaluate(name, config, *_balance(name, config, train_set), test_set)
                for name in names}
        try:
            path, synthetic = handoff_reader.recv()
        except EOFError:  # the parent handed nothing over
            pass
        else:
            rows[HANDED_OFF_ROW] = _evaluate(HANDED_OFF_ROW, config, load_dataset(path),
                                             synthetic, test_set)
        conn.send(rows)
    except BaseException:
        sys.exit(1)
    finally:
        # the parent removes it too, unless it was killed outright; a
        # hand-off the parent writes once it has gone fails, and the parent
        # then fits the tree itself
        shutil.rmtree(scratch, ignore_errors=True)


@contextlib.contextmanager
def _row_helper(config: ExperimentConfig, train_set: EncodedDataset,
                test_set: EncodedDataset):
    """Run the ``HELPER_ROWS`` in a forked process while the block runs.

    Yields ``(names, hand_off, join)``: the rows the helper runs; a function
    ``hand_off(balanced, synthetic_per_class)`` that writes the
    ``HANDED_OFF_ROW``'s balanced set into a private temporary directory
    and sends the helper its path, and returns False when it could not (the
    helper has ended, or the write failed), so that the caller evaluates
    the row itself; and a function that waits for the helper and returns
    the ``_RowResult``s by name, or ``{}`` when the helper failed or was
    killed. A checkpoint a failed helper left is complete, since
    ``train_generator`` writes it after its trace, so the parent's rerun may
    reuse it. Leaving the block without ``join`` terminates the helper and
    reaps it; the temporary directory goes once the helper is reaped, and
    the helper removes it too as it ends, for a parent killed outright. With
    one usable CPU, or without those rows, nothing is forked: ``names`` is
    empty, ``hand_off`` is None and ``join`` returns ``{}``.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    names = tuple(name for name in HELPER_ROWS if name in ROWS)
    if not names or cpus < 2:
        yield (), None, lambda: {}
        return
    import multiprocessing  # here, so that importing the CLI does not pay for it

    # fork, not spawn: the helper starts from the loaded splits and from any
    # wrapper put on a module since import, and pickles only its results.
    # OpenBLAS shuts its threads down around a fork, so the helper inherits none.
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)  # helper -> parent: the rows
    handoff_reader, handoff_writer = context.Pipe(duplex=False)  # parent -> helper
    scratch = tempfile.mkdtemp(prefix="c2bnvae-handoff-")
    helper = context.Process(target=_rows_in_helper,
                             args=(names, config, train_set, test_set, writer,
                                   (handoff_reader, handoff_writer), scratch, os.getpid()))
    helper.start()
    # close the ends this process does not use, so that reading ends once
    # the other side has closed its end or ended
    writer.close()
    handoff_reader.close()

    def hand_off(balanced: EncodedDataset, synthetic: list[int] | None) -> bool:
        path = Path(scratch) / "balanced.c2ds"
        # OSError: a full disk, or a helper that has ended (BrokenPipeError,
        # or FileNotFoundError once it removed the directory)
        try:
            save_dataset(balanced, path, fmt="binary")
            handoff_writer.send((str(path), synthetic))
        except OSError:
            return False
        return True

    def join() -> dict[str, _RowResult]:
        handoff_writer.close()  # a helper still waiting for a set gets none
        try:
            rows = reader.recv()  # read before joining: a large send blocks until read
        except (EOFError, OSError):  # the helper ended without sending, or mid-send
            rows = {}
        helper.join()
        return rows if helper.exitcode == 0 else {}

    try:
        yield names, hand_off, join
    finally:
        reader.close()
        handoff_writer.close()
        if helper.exitcode is None:
            helper.terminate()
            helper.join()
        shutil.rmtree(scratch, ignore_errors=True)


def _outcome(name: str, config: ExperimentConfig, train_set: EncodedDataset,
             test_set: EncodedDataset,
             hand_off: Callable[[EncodedDataset, list[int] | None], bool] | None = None,
             ) -> _RowResult | Exception | None:
    """Row ``name``'s ``_RowResult``, or the exception it raised; None when
    ``hand_off`` took its balanced set for the helper to evaluate."""
    try:
        balanced, synthetic = _balance(name, config, train_set)
        if hand_off is not None and hand_off(balanced, synthetic):
            return None
        return _evaluate(name, config, balanced, synthetic, test_set)
    except Exception as exc:
        return exc


def run_all(config: ExperimentConfig) -> list[tuple[str, EvalReport | str]]:
    """Balance with every method, train the tree, evaluate, write artifacts.

    A failing row (its balancer, its generator's training, its tree or its
    files) contributes the exception text instead of a report, and one
    warning, and leaves none of its files, stale ones included; the other rows
    still run. With two usable CPUs the ``HELPER_ROWS`` run in a forked
    helper while the parent runs the others (``_row_helper``). The parent
    then balances the ``HANDED_OFF_ROW`` first and hands its set to the
    helper, which fits that row's tree after its own rows; when the hand-off
    fails, the parent fits it itself. When the helper fails, the parent
    reruns every row it held, reusing the checkpoints finished by then.
    Every file under ``results/`` is written afterwards, in ``ROWS`` order,
    by the parent alone.
    """
    train_set, test_set = load_encoded(config)
    config.results_dir().mkdir(parents=True, exist_ok=True)
    with _row_helper(config, train_set, test_set) as (moved, hand_off, join_helper):
        parent_rows = [name for name in ROWS if name not in moved]
        if hand_off is not None:  # balance the handed-off row first
            parent_rows.sort(key=lambda name: name != HANDED_OFF_ROW)
        outcomes = {name: _outcome(name, config, train_set, test_set,
                                   hand_off if name == HANDED_OFF_ROW else None)
                    for name in parent_rows}
        outcomes.update(join_helper())
    for name in ROWS:
        if outcomes.get(name) is None:  # the helper failed: the parent runs its rows
            outcomes[name] = _outcome(name, config, train_set, test_set)

    rows: list[tuple[str, EvalReport | str]] = []
    for name in ROWS:
        outcome = outcomes[name]
        if isinstance(outcome, _RowResult):
            try:
                _write_row(name, outcome, config)
                outcome = outcome.report
            except Exception as exc:
                outcome = exc
        if isinstance(outcome, Exception):
            # files an earlier run left would read as this row's success
            for path in _row_files(name, config):
                path.unlink(missing_ok=True)
            # the traceback only at -v, where the log level is INFO
            logger.warning("algorithm %s failed: %s", name, outcome,
                           exc_info=outcome if logger.isEnabledFor(logging.INFO) else None)
            outcome = str(outcome)
        rows.append((name, outcome))
    write_results(rows, config)
    return rows


def write_results(rows: list[tuple[str, EvalReport | str]],
                  config: ExperimentConfig) -> None:
    results_dir = config.results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    manifest = manifest_for(config, "run-all")

    table = manifest_line(manifest) + "\n" + results_table(rows)
    write_atomic(results_dir / "results_table.txt", table)

    buf = io.StringIO()
    buf.write(manifest_line(manifest) + "\n")
    writer = csv.writer(buf)
    writer.writerow(["algorithm", "metric", "value"])
    for name, outcome in rows:
        if isinstance(outcome, EvalReport):
            for metric, value in zip(TABLE_COLUMNS, outcome.headline()):
                writer.writerow([name, metric, repr(value)])
    write_atomic(results_dir / "chart_data.csv", buf.getvalue())

    if config.emit_svg:
        write_atomic(results_dir / "chart.svg", render_svg_chart(rows, manifest))


def render_svg_chart(rows: list[tuple[str, EvalReport | str]],
                     manifest: dict) -> str:
    """Static grouped bar chart of the four headline metrics per algorithm."""
    ok = [(name, r) for name, r in rows if isinstance(r, EvalReport)]
    colors = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f")
    left, bottom, top = 60, 330, 30
    group_w = 88
    width = left + group_w * len(ok) + 140
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="400">',
             f"<!-- {manifest_line(manifest)[2:]} -->",
             '<style>text{font-family:sans-serif;font-size:11px}</style>']
    for level in range(0, 101, 20):
        y = bottom - 3.0 * level
        parts.append(f'<line x1="{left}" y1="{y}" x2="{width - 130}" y2="{y}" '
                     f'stroke="#ddd"/>')
        parts.append(f'<text x="{left - 30}" y="{y + 4}">{level}</text>')
    for i, (name, report) in enumerate(ok):
        for j, value in enumerate(report.headline()):
            h = 3.0 * value
            x = left + group_w * i + 18 * j
            parts.append(f'<rect x="{x}" y="{bottom - h:.2f}" width="15" '
                         f'height="{h:.2f}" fill="{colors[j]}"/>')
        parts.append(f'<text x="{left + group_w * i}" y="{bottom + 14}" '
                     f'transform="rotate(20 {left + group_w * i} {bottom + 14})">'
                     f'{name}</text>')
    for j, metric in enumerate(TABLE_COLUMNS):
        y = top + 16 * j
        parts.append(f'<rect x="{width - 120}" y="{y}" width="12" height="12" '
                     f'fill="{colors[j]}"/>')
        parts.append(f'<text x="{width - 104}" y="{y + 10}">{metric}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def count_report(config: ExperimentConfig, feature_dim: int = 123) -> str:
    """Two-convention cost table of the generator the config builds."""
    model = model_mod.C2BNVAE(config.model_config(feature_dim, use_cbn=True, seed=0))
    published = count_params_flops(model, convention="published")
    trainable = count_params_flops(model, convention="trainable")
    lines = [manifest_line(manifest_for(config, "count")),
             f"architecture: feature_dim={feature_dim} classes={NUM_CATEGORIES} "
             f"latent={config.latent_dim} hidden={list(config.hidden_widths)}",
             "",
             f"{'component':<10} {'params(published)':>14} {'flops(published)':>13} "
             f"{'params(trainable)':>18} {'flops(trainable)':>17}"]
    for component in ("encoder", "decoder"):
        p_p, f_p = published.components[component]
        p_t, f_t = trainable.components[component]
        lines.append(f"{component:<10} {p_p:>14} {f_p:>13} {p_t:>18} {f_t:>17}")
    lines.append(f"{'total':<10} {published.total[0]:>14} {published.total[1]:>13} "
                 f"{trainable.total[0]:>18} {trainable.total[1]:>17}")
    return "\n".join(lines) + "\n"


def load_reports(results_dir) -> list[tuple[str, EvalReport | str]]:
    """Rebuild result rows from the per-algorithm JSON files."""
    results_dir = Path(results_dir)
    rows: list[tuple[str, EvalReport | str]] = []
    for name in ROWS:
        path = results_dir / f"{_slug(name)}.json"
        if not path.exists():
            continue
        try:
            payload = json.loads(path.read_text())
            algorithm, cm = payload["algorithm"], np.array(payload["confusion_matrix"])
        # ValueError: bad JSON or UTF-8; RecursionError: nested too deep to parse
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise DataError(f"malformed report {path}: {type(exc).__name__}: {exc}") from None
        if not isinstance(algorithm, str):
            raise DataError(f"report {path}: algorithm must be a string")
        if (cm.ndim != 2 or cm.shape[0] != cm.shape[1] or cm.size == 0
                or not np.issubdtype(cm.dtype, np.integer) or np.any(cm < 0)):
            raise DataError(f"report {path}: confusion_matrix must be a square matrix "
                            f"of nonnegative integers")
        rows.append((name, EvalReport.from_confusion(algorithm, cm)))
    if not rows:
        raise DataError(f"no report files found under {results_dir}")
    return rows
