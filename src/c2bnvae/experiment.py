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

import csv
import hashlib
import io
import json
import logging
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import balancers as bal
from . import dtree
from . import model as model_mod
from .atomic import write_atomic
from .checkpoint import load_checkpoint, save_checkpoint
from .costing import count_params_flops
from .errors import DataError
from .metrics import EvalReport, confusion, results_table
from .model import Checkpoint, ModelConfig, TraceRow
from .nslkdd import (CATEGORY_NAMES, NUM_CATEGORIES, EncodedDataset,
                     class_counts, default_taxonomy, fit_schema, load_dataset,
                     load_taxonomy, map_attack, read_records, save_dataset,
                     save_schema, transform)

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
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
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
        """The encoded train and test files, named by the dataset format."""
        ext = "c2ds" if self.dataset_format == "binary" else "csv"
        return self.encoded_dir() / f"train.{ext}", self.encoded_dir() / f"test.{ext}"

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
    return np.sort(np.concatenate(keep))


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
            labels = np.array([map_attack(r.attack_name, taxonomy) for r in records])
            rng = np.random.default_rng(stage_seed(config.seed, f"subsample.{name}"))
            idx = stratified_subsample(labels, config.subsample, rng)
            subsampled.append([records[i] for i in idx])
        train_records, test_records = subsampled
    schema = fit_schema(train_records, extra_vocab_records=test_records,
                        pad_to=config.pad_to)
    encoded_train = transform(train_records, schema, taxonomy)
    encoded_test = transform(test_records, schema, taxonomy)

    out = config.encoded_dir()
    out.mkdir(parents=True, exist_ok=True)
    manifest = manifest_for(config, "preprocess")
    train_file, test_file = config.encoded_paths()
    save_dataset(encoded_train, train_file, fmt=config.dataset_format, manifest=manifest)
    save_dataset(encoded_test, test_file, fmt=config.dataset_format, manifest=manifest)
    save_schema(schema, out / "schema.json", manifest=manifest)

    counts = class_counts(encoded_train)
    lines = [manifest_line(manifest)]
    lines += [f"{name} {count}" for name, count in zip(CATEGORY_NAMES, counts)]
    lines.append(f"Total {counts.sum()}")
    write_atomic(out / "counts.txt", "\n".join(lines) + "\n")
    return {"train": train_file, "test": test_file,
            "schema": out / "schema.json", "counts": counts,
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


def train_generator(config: ExperimentConfig, train_set: EncodedDataset,
                    use_cbn: bool) -> tuple[Checkpoint, list[TraceRow], Path]:
    """Train (or reuse) one generative model; writes checkpoint and trace."""
    name = "c2bnvae" if use_cbn else "cvae"
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
                logger.info("reusing checkpoint %s", ckpt_path)
                return existing, [], ckpt_path
        except DataError:
            pass  # unreadable or stale: retrain below
    ckpt, trace = model_mod.train(train_set, model_config)
    save_checkpoint(ckpt, ckpt_path, manifest=manifest_for(config, f"train.{name}"))
    write_trace_csv(trace, models / f"{name}_trace.csv",
                    manifest_for(config, f"train.{name}"))
    return ckpt, trace, ckpt_path


# ----------------------------------------------------------------------
# the full sweep
# ----------------------------------------------------------------------

def _slug(name: str) -> str:
    return name.lower().replace(" ", "_")


def run_all(config: ExperimentConfig) -> list[tuple[str, EvalReport | str]]:
    """Balance with every method, train the tree, evaluate, write artifacts.

    A failing row (its balancer, its generator's training or its tree)
    contributes the exception text instead of a report; the other rows
    still run.
    """
    train_set, test_set = load_encoded(config)
    results_dir = config.results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)

    rows: list[tuple[str, EvalReport | str]] = []
    params = config.tree_params()
    for name, entry in ROWS.items():
        try:
            seed = stage_seed(config.seed, f"balance.{name}")
            balanced = train_set
            if entry is not None:
                balance, fields = entry
                balanced = balance(bal.BalanceRequest(train_set, seed=seed), config)
            tree = dtree.fit(balanced.features, balanced.labels, params)
            predictions = dtree.predict(tree, test_set.features)
            cm = confusion(test_set.labels, predictions, NUM_CATEGORIES)
            report = EvalReport.from_confusion(name, cm)
            rows.append((name, report))
            path = results_dir / f"{_slug(name)}.json"
            write_atomic(path, report.to_json(manifest=manifest_for(config, "run-all")))
            if entry is None:
                continue
            if config.save_balanced:
                save_dataset(balanced, results_dir / f"balanced_{_slug(name)}.c2ds",
                             fmt="binary", manifest=manifest_for(config, "run-all"))
            sidecar = {
                "manifest": manifest_for(config, "run-all"),
                "method": name,
                "seed": seed,
                "parameters": {field: getattr(config, field) for field in fields},
                "synthetic_per_class": (class_counts(balanced)
                                        - class_counts(train_set)).tolist(),
            }
            write_atomic(results_dir / f"{_slug(name)}_balance_manifest.json",
                         json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        except Exception as exc:
            logger.warning("algorithm %s failed: %s", name, exc)
            rows.append((name, str(exc)))
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
            for metric, value in zip(("Acc", "Pre_w", "Recall_w", "F1_w"),
                                     outcome.headline()):
                writer.writerow([name, metric, repr(value)])
    write_atomic(results_dir / "chart_data.csv", buf.getvalue())

    if config.emit_svg:
        write_atomic(results_dir / "chart.svg", render_svg_chart(rows, manifest))


def render_svg_chart(rows: list[tuple[str, EvalReport | str]],
                     manifest: dict) -> str:
    """Static grouped bar chart of the four headline metrics per algorithm."""
    ok = [(name, r) for name, r in rows if isinstance(r, EvalReport)]
    colors = ("#4878d0", "#ee854a", "#6acc64", "#d65f5f")
    metrics = ("Acc", "Pre_w", "Recall_w", "F1_w")
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
    for j, metric in enumerate(metrics):
        y = top + 16 * j
        parts.append(f'<rect x="{width - 120}" y="{y}" width="12" height="12" '
                     f'fill="{colors[j]}"/>')
        parts.append(f'<text x="{width - 104}" y="{y + 10}">{metric}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def count_report(config: ExperimentConfig, feature_dim: int = 123) -> str:
    """Two-convention cost table for the configured architecture."""
    model_config = config.model_config(feature_dim, use_cbn=True, seed=0)
    arch = model_config.architecture()
    published = count_params_flops(arch, convention="published")
    trainable = count_params_flops(arch, convention="trainable")
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
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: bad JSON or UTF-8
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
