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
import time
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
    started = time.perf_counter()
    train_records = read_records(config.train_path)
    test_records = read_records(config.test_path)
    read_s = time.perf_counter() - started
    read_counts = len(train_records), len(test_records)
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
    encode_s = time.perf_counter() - started - read_s

    out = config.encoded_dir()
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest_for(config, "preprocess")
    train_file, test_file = config.encoded_paths()
    binary_s = export_s = 0.0
    for dataset, path in ((encoded_train, train_file), (encoded_test, test_file)):
        lap = time.perf_counter()
        save_dataset(dataset, path, fmt="binary", manifest=manifest)
        binary_s += time.perf_counter() - lap
        lap = time.perf_counter()
        if config.dataset_format == "csv":  # an export that no step reads back
            save_dataset(dataset, path.with_suffix(".csv"), fmt="csv", manifest=manifest)
        else:  # an earlier run's export would no longer match the .c2ds files
            path.with_suffix(".csv").unlink(missing_ok=True)
        export_s += time.perf_counter() - lap
    logger.info("preprocess: read %d + %d records in %.3f s, encoded in %.3f s, "
                "wrote binary in %.3f s, exported CSV in %.3f s",
                *read_counts, read_s, encode_s, binary_s, export_s)

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
    train_set, test_set = load_dataset(train_file), load_dataset(test_file)
    # a preprocess that stopped between its two writes leaves a new train
    # split beside an older test split, each encoded by its own schema
    if train_set.schema.fingerprint != test_set.schema.fingerprint:
        raise DataError(f"{train_file} and {test_file} were encoded with different "
                        f"schemas, by two preprocess runs; rerun preprocess")
    return train_set, test_set


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


# the rows a forked helper process runs end to end, in this order, while
# the parent runs the others; after them the helper claims evaluation
# stages (tree, predict, report) from the sets the parent offers. The
# C2BNVAE row goes first, so that the Original tree, on the fewest rows,
# not the generated one, is the helper's last own stage before it claims.
# The tracer rule: a tracer records only in the parent, so work may leave
# the parent only if the parent still makes every call that work makes.
# These two rows keep it: the CVAE row trains, generates and calls
# generative_balance in the parent, every balancer runs there, and the
# parent evaluates the last row it balances itself, so it fits and
# predicts at least that tree. An oversampler row here would hide its span.
HELPER_ROWS = ("C2BNVAE", "Original imbalanced Data")


class _Balanced(NamedTuple):
    """A balance stage's output: row ``name``'s training set as its row
    balances it (or not), the synthetic rows it added per class (None for
    the original data) and the stage's wall time."""
    name: str
    dataset: EncodedDataset | None  # None in an offer, whose set is a file
    synthetic_per_class: list[int] | None
    seconds: float


class _RowResult(NamedTuple):
    """A row that ran: what ``_write_row`` needs to write its files, and the
    wall times, process and tree size that ``run-all -v`` logs."""
    report: EvalReport
    synthetic_per_class: list[int] | None  # None for the original data
    balanced: EncodedDataset | None  # kept only when the config saves it
    balance_s: float
    evaluate_s: float
    tree_nodes: int  # the tree as grown for the test split
    tree_depth: int
    evaluated_in: str = "parent"  # or "helper"


def _balance(name: str, config: ExperimentConfig, train_set: EncodedDataset) -> _Balanced:
    """Row ``name``'s balance stage."""
    start = time.perf_counter()
    entry = ROWS[name]
    if entry is None:
        return _Balanced(name, train_set, None, time.perf_counter() - start)
    balanced = entry[0](bal.BalanceRequest(
        train_set, seed=stage_seed(config.seed, f"balance.{name}")), config)
    return _Balanced(name, balanced, (class_counts(balanced) - class_counts(train_set)).tolist(),
                     time.perf_counter() - start)


def _evaluate(stage: _Balanced, config: ExperimentConfig,
              test_set: EncodedDataset) -> _RowResult:
    """The evaluation stage: fit the tree on a balance stage's set, predict
    the test split and evaluate; writes nothing under ``results/``. The
    tree grows only the nodes that test rows reach, which predict the test
    split as the full tree does."""
    start = time.perf_counter()
    tree = dtree.fit(stage.dataset.features, stage.dataset.labels, config.tree_params(),
                     test_set.features)
    cm = confusion(test_set.labels, dtree.predict(tree, test_set.features),
                   NUM_CATEGORIES)
    keep = stage.synthetic_per_class is not None and config.save_balanced
    return _RowResult(EvalReport.from_confusion(stage.name, cm), stage.synthetic_per_class,
                      stage.dataset if keep else None, stage.seconds,
                      time.perf_counter() - start, tree.node_count(), tree.depth())


def _claim(path: str, stage: _Balanced, claimant: str) -> _Balanced | None:
    """The offered set at ``path`` as ``stage``'s dataset, or None when the
    other process claimed it first. The claim is the rename: of two
    processes that rename one file, exactly one succeeds."""
    claimed = f"{path}.{claimant}"
    try:
        os.rename(path, claimed)
    except FileNotFoundError:
        return None
    try:
        return stage._replace(dataset=load_dataset(claimed))
    finally:
        os.unlink(claimed)


def _row_files(name: str, config: ExperimentConfig) -> tuple[Path, Path, Path]:
    """Row ``name``'s files under ``results/``: its balanced set, its sidecar
    and its report."""
    results_dir, slug = config.results_dir(), _slug(name)
    return (results_dir / f"balanced_{slug}.c2ds",
            results_dir / f"{slug}_balance_manifest.json", results_dir / f"{slug}.json")


def _write_row(name: str, row: _RowResult, config: ExperimentConfig) -> None:
    """Write, for a balancing row, its balanced set (when the config saves
    it, and otherwise remove one an earlier run saved) and its sidecar, and
    then the row's report. The report comes last, so a row whose files fail
    to write leaves no report for ``load_reports`` to find."""
    balanced_path, sidecar_path, report_path = _row_files(name, config)
    manifest = manifest_for(config, "run-all")
    if row.synthetic_per_class is not None:
        if row.balanced is not None:
            save_dataset(row.balanced, balanced_path, fmt="binary", manifest=manifest)
        else:
            balanced_path.unlink(missing_ok=True)
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
                    conn, offers: tuple, scratch: str, parent: int) -> None:
    """The helper process: run ``names``, then claim and evaluate offered
    sets one at a time until the parent closes the offer pipe, and send the
    ``_RowResult``s.

    ``offers`` is the offer pipe's two ends, as the fork left them. Each
    message is ``(path, stage)``: an offered set's file, inside the
    directory ``scratch``, and its ``_Balanced`` without the set. The helper
    sends only when every row it ran succeeded; any failure, a row's own
    included, ends it quietly with exit code 1, and the parent runs those
    rows itself and reports the failure. SIGTERM raises here, so that an
    artifact write it interrupts removes its temporary file. The kernel
    sends that SIGTERM when the parent ends, however it ends (Linux
    ``PR_SET_PDEATHSIG``), so a killed run leaves no helper running; and
    since the helper removes ``scratch`` as it ends, no offered set either.
    """
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    offer_reader, offer_writer = offers
    offer_writer.close()  # the parent's end: open here, it would keep the pipe from ending
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # 1: PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent ended before the request
            sys.exit(1)
        rows = {name: _evaluate(_balance(name, config, train_set), config, test_set)
                for name in names}
        while True:
            try:
                path, stage = offer_reader.recv()
            except EOFError:  # the parent closed the pipe: nothing is left to claim
                break
            stage = _claim(path, stage, "helper")
            if stage is not None:
                rows[stage.name] = _evaluate(stage, config, test_set)
        conn.send({name: row._replace(evaluated_in="helper") for name, row in rows.items()})
    except BaseException:
        sys.exit(1)
    finally:
        # the parent may still claim the sets a failed helper left, so the
        # directory goes only once the parent has closed the pipe, which
        # happens at once when it was killed. The parent removes it too,
        # unless it was killed outright.
        with contextlib.suppress(BaseException):
            while True:
                offer_reader.recv()
        shutil.rmtree(scratch, ignore_errors=True)


@contextlib.contextmanager
def _row_helper(config: ExperimentConfig, train_set: EncodedDataset,
                test_set: EncodedDataset):
    """Run the ``HELPER_ROWS`` in a forked process while the block runs,
    with a queue of evaluation stages that both processes claim from.

    Yields ``(names, offer, claim, join)``:
    - the rows the helper runs;
    - ``offer(stage)``, which writes a ``_Balanced``'s set into a private
      temporary directory and sends the helper its path, and returns False
      when it could not (the helper has ended, or the write failed), so
      that the caller evaluates the row itself;
    - ``claim()``, which returns the next offered stage that the helper has
      not claimed first, its set read back, or None when none is left;
    - ``join()``, which closes the offer pipe and returns the helper's
      ``_RowResult``s by name, or ``{}`` when it failed or was killed. Call
      it only after ``claim`` has returned None: the helper removes the
      directory once the pipe is closed.
    A row that neither process got back (the helper failed, or a claimed
    set could not be read) is for the caller to rerun. A checkpoint a failed
    helper left is complete, since ``train_generator`` writes it after its
    trace, so that rerun may reuse it. After ``join`` the helper ends on its
    own, and the block's end reaps it, so that its exit overlaps the
    caller's writes; leaving the block before ``join`` returns terminates
    it first. The temporary directory goes once the helper is reaped, and
    the helper removes it too as it ends, for a parent killed outright.
    With one usable CPU, or without those rows, nothing is forked: ``names``
    is empty, ``offer`` is None, ``claim`` returns None and ``join``
    returns ``{}``.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    names = tuple(name for name in HELPER_ROWS if name in ROWS)
    if not names or cpus < 2:
        yield (), None, lambda: None, lambda: {}
        return
    import multiprocessing  # here, so that importing the CLI does not pay for it

    # fork, not spawn: the helper starts from the loaded splits and from any
    # wrapper put on a module since import, and pickles only its results.
    # OpenBLAS shuts its threads down around a fork, so the helper inherits none.
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)  # helper -> parent: the rows
    offer_reader, offer_writer = context.Pipe(duplex=False)  # parent -> helper
    scratch = tempfile.mkdtemp(prefix="c2bnvae-handoff-")
    helper = context.Process(target=_rows_in_helper,
                             args=(names, config, train_set, test_set, writer,
                                   (offer_reader, offer_writer), scratch, os.getpid()))
    helper.start()
    # close the ends this process does not use, so that reading ends once
    # the other side has closed its end or ended
    writer.close()
    offer_reader.close()
    offered: list[tuple[str, _Balanced]] = []  # in offer order, until claimed
    joined = False

    def offer(stage: _Balanced) -> bool:
        path = Path(scratch) / f"{_slug(stage.name)}.c2ds"
        message = (str(path), stage._replace(dataset=None))
        # OSError: a full disk, or a helper that has ended (BrokenPipeError)
        try:
            save_dataset(stage.dataset, path, fmt="binary")
            offer_writer.send(message)
        except OSError:
            path.unlink(missing_ok=True)
            return False
        offered.append(message)
        return True

    def claim() -> _Balanced | None:
        while offered:
            try:
                stage = _claim(*offered.pop(0), "parent")
            except (OSError, DataError):  # read by neither: the row is rerun
                continue
            if stage is not None:
                return stage
        return None

    def join() -> dict[str, _RowResult]:
        nonlocal joined
        offer_writer.close()  # the helper claims no more, and may remove the directory
        try:
            # complete rows come only from a helper whose every row succeeded
            rows = reader.recv()
        except (EOFError, OSError):  # the helper ended without sending, or mid-send
            rows = {}
        joined = True
        return rows

    try:
        yield names, offer, claim, join
    finally:
        reader.close()
        offer_writer.close()
        if not joined:  # the helper may still be working: stop it
            helper.terminate()
        helper.join()
        shutil.rmtree(scratch, ignore_errors=True)


def _outcome(stage_fn: Callable[..., _RowResult | None], *args) -> _RowResult | Exception | None:
    """``stage_fn(*args)``, or the exception it raised."""
    try:
        return stage_fn(*args)
    except Exception as exc:
        return exc


def _run_row(name: str, config: ExperimentConfig, train_set: EncodedDataset,
             test_set: EncodedDataset,
             offer: Callable[[_Balanced], bool] | None = None) -> _RowResult | None:
    """Row ``name``'s balance and evaluation stages; None when ``offer``
    took its balanced set for either process to claim."""
    stage = _balance(name, config, train_set)
    if offer is not None and offer(stage):
        return None
    return _evaluate(stage, config, test_set)


def _write_row_outcome(name: str, outcome: _RowResult | Exception,
                       config: ExperimentConfig) -> EvalReport | str:
    """Row ``name``'s files written, and its report; or, when the row or its
    files failed, its failure text, its files (stale ones included) removed
    and its one warning logged."""
    if isinstance(outcome, _RowResult):
        logger.info("%s: balanced in %.3f s, evaluated in the %s in %.3f s "
                    "(tree: %d nodes, depth %d)", name, outcome.balance_s,
                    outcome.evaluated_in, outcome.evaluate_s, outcome.tree_nodes,
                    outcome.tree_depth)
        try:
            _write_row(name, outcome, config)
            return outcome.report
        except Exception as exc:
            outcome = exc
    # files an earlier run left would read as this row's success
    for path in _row_files(name, config):
        path.unlink(missing_ok=True)
    # the traceback only at -v, where the log level is INFO
    logger.warning("algorithm %s failed: %s", name, outcome,
                   exc_info=outcome if logger.isEnabledFor(logging.INFO) else None)
    return str(outcome)


def run_all(config: ExperimentConfig) -> list[tuple[str, EvalReport | str]]:
    """Balance with every method, train the tree, evaluate, write artifacts.

    A failing row (its balancer, its generator's training, its tree or its
    files) contributes the exception text instead of a report, and one
    warning, and leaves none of its files, stale ones included; the other rows
    still run. With two usable CPUs the ``HELPER_ROWS`` run in a forked
    helper while the parent balances the others in ``ROWS`` order
    (``_row_helper``). The parent offers each balanced set but its last
    for either process to evaluate, evaluates the last itself, and then
    claims offered sets one at a time, as the helper does after its own
    rows; a set whose offer fails the parent evaluates at once. When the
    helper fails, the parent reruns every row it did not get back, reusing
    the checkpoints finished by then. Every file under ``results/`` is
    written afterwards, in ``ROWS`` order, by the parent alone; at -v, one
    INFO line per row gives its stages' wall times, the process that
    evaluated it and the size of its tree.
    """
    train_set, test_set = load_encoded(config)
    config.results_dir().mkdir(parents=True, exist_ok=True)
    with _row_helper(config, train_set, test_set) as (moved, offer, claim, join_helper):
        parent_rows = [name for name in ROWS if name not in moved]
        outcomes = {name: _outcome(_run_row, name, config, train_set, test_set,
                                   offer if name != parent_rows[-1] else None)
                    for name in parent_rows}
        while (stage := claim()) is not None:
            outcomes[stage.name] = _outcome(_evaluate, stage, config, test_set)
        outcomes.update(join_helper())
        for name in ROWS:
            if outcomes.get(name) is None:  # the helper failed: the parent runs the row
                outcomes[name] = _outcome(_run_row, name, config, train_set, test_set)
        rows = [(name, _write_row_outcome(name, outcomes[name], config)) for name in ROWS]
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
