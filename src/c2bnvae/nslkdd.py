"""NSL-KDD ingestion: parsing, attack taxonomy, encoding and its inverse.

Records are the 43-field CSV lines of KDDTrain+/KDDTest+: 41 features
(protocol_type, service and flag categorical, the rest numeric), the attack
name, and a difficulty score that is parsed and discarded.

Encoding keeps the original column order, expanding each categorical column
in place into a one-hot block (vocabulary sorted lexicographically) and
min-max scaling each numeric column with statistics from the fitting split
only; out-of-range values clip. Widths are data-driven (122 on the standard
files); ``pad_to`` appends constant-zero columns so the published 123-wide
layout can be reproduced exactly.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import container
from .atomic import atomic_write, write_atomic
from .errors import DataError, LabelError

Array = np.ndarray

DATASET_FORMAT_VERSION = 1
DATASET_MAGIC = b"C2DS"
DATASET_FORMATS = ("binary", "csv")

FEATURE_NAMES = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files", "num_outbound_cmds",
    "is_host_login", "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count",
    "dst_host_srv_count", "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)

CATEGORICAL_INDICES = (1, 2, 3)  # protocol_type, service, flag
NUM_FIELDS = len(FEATURE_NAMES) + 2  # + attack name + difficulty

CATEGORY_NAMES = ("Normal", "DoS", "Probe", "R2L", "U2R")
NUM_CATEGORIES = len(CATEGORY_NAMES)


@dataclass(frozen=True)
class RawRecord:
    """One traffic record: 41 features (str for categoricals, float otherwise)."""
    features: tuple
    attack_name: str
    difficulty: int


@dataclass(frozen=True)
class ClassTaxonomy:
    category_names: tuple[str, ...]
    mapping: dict[str, int]  # attack name -> category index

    def __post_init__(self):
        if len(self.category_names) != NUM_CATEGORIES:
            raise DataError(f"taxonomy must define exactly {NUM_CATEGORIES} categories")
        bad = [c for c in self.mapping.values() if not 0 <= c < len(self.category_names)]
        if bad:
            raise DataError(f"taxonomy maps to unknown category indices {sorted(set(bad))}")
        if self.mapping.get("normal") != self.category_names.index("Normal"):
            raise DataError('taxonomy must map "normal" to the Normal category')


def load_taxonomy(source) -> ClassTaxonomy:
    """Read a two-column CSV (attack_name, category) with a header line."""
    if isinstance(source, (str, Path)):
        text = Path(source).read_text()
    else:
        text = source.read()
    index_of = {name: i for i, name in enumerate(CATEGORY_NAMES)}
    mapping: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["attack_name", "category"]:
        raise DataError("taxonomy file must start with header 'attack_name,category'")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"taxonomy line {lineno}: expected 2 fields, got {len(row)}")
        name, category = row[0].strip(), row[1].strip()
        if category not in index_of:
            raise DataError(f"taxonomy line {lineno}: unknown category {category!r}")
        if name in mapping:
            raise DataError(f"taxonomy line {lineno}: duplicate attack name {name!r}")
        mapping[name] = index_of[category]
    return ClassTaxonomy(category_names=CATEGORY_NAMES, mapping=mapping)


def default_taxonomy() -> ClassTaxonomy:
    with resources.files("c2bnvae.data").joinpath("nslkdd_taxonomy.csv").open() as fh:
        return load_taxonomy(fh)


def map_attack(name: str, taxonomy: ClassTaxonomy) -> int:
    try:
        return taxonomy.mapping[name]
    except KeyError:
        raise LabelError(f"unknown attack name {name!r}; extend the taxonomy file") from None


def parse_records(stream: Iterable[str]) -> Iterator[RawRecord]:
    """Parse CSV lines into records, enforcing field count and numeric fields."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    categorical = set(CATEGORICAL_INDICES)
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != NUM_FIELDS:
            raise DataError(f"line {lineno}: expected {NUM_FIELDS} comma-separated "
                            f"fields, got {len(fields)}")
        values = []
        for i in range(len(FEATURE_NAMES)):
            if i in categorical:
                values.append(fields[i])
                continue
            try:
                value = float(fields[i])
            except ValueError:
                raise DataError(f"line {lineno}: field {FEATURE_NAMES[i]!r} "
                                f"is not numeric: {fields[i]!r}") from None
            if not math.isfinite(value):  # float() accepts nan, inf and 1e999
                raise DataError(f"line {lineno}: field {FEATURE_NAMES[i]!r} "
                                f"is not finite: {fields[i]!r}")
            values.append(value)
        try:
            difficulty = int(fields[-1])
        except ValueError:
            raise DataError(f"line {lineno}: difficulty is not an integer: "
                            f"{fields[-1]!r}") from None
        yield RawRecord(features=tuple(values), attack_name=fields[-2],
                        difficulty=difficulty)


def read_records(path) -> list[RawRecord]:
    try:
        with open(path, encoding="utf-8") as fh:
            return list(parse_records(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None


@dataclass(frozen=True)
class EncodingSchema:
    """Column layout of the encoded space plus the statistics that built it."""
    vocabularies: dict[str, tuple[str, ...]]  # categorical name -> sorted values
    numeric_min: dict[str, float]
    numeric_max: dict[str, float]
    pad_to: int | None = None

    def __post_init__(self):
        for name in self.numeric_min:
            if self.numeric_min[name] > self.numeric_max[name]:
                raise DataError(f"numeric feature {name!r} has min > max")
        base = len(self.numeric_min) + sum(len(v) for v in self.vocabularies.values())
        if self.pad_to is not None and self.pad_to < base:
            raise DataError(f"pad_to={self.pad_to} is below the encoded width {base}")

    @property
    def base_dim(self) -> int:
        return len(self.numeric_min) + sum(len(v) for v in self.vocabularies.values())

    @property
    def feature_dim(self) -> int:
        return self.pad_to if self.pad_to is not None else self.base_dim

    @property
    def constant_numerics(self) -> tuple[str, ...]:
        return tuple(n for n in self.numeric_min
                     if self.numeric_min[n] == self.numeric_max[n])

    def column_blocks(self) -> list[tuple[str, int, int]]:
        """(feature name, start, stop) per original feature, in column order."""
        if any(name not in self.numeric_min
               for i, name in enumerate(FEATURE_NAMES)
               if i not in CATEGORICAL_INDICES):
            raise DataError("schema does not carry the NSL-KDD column layout "
                            "(synthetic schemas cannot be inverse-transformed)")
        blocks = []
        offset = 0
        for i, name in enumerate(FEATURE_NAMES):
            width = len(self.vocabularies[name]) if i in CATEGORICAL_INDICES else 1
            blocks.append((name, offset, offset + width))
            offset += width
        return blocks

    def to_dict(self) -> dict:
        return {
            "vocabularies": {k: list(v) for k, v in self.vocabularies.items()},
            "numeric_min": dict(self.numeric_min),
            "numeric_max": dict(self.numeric_max),
            "pad_to": self.pad_to,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EncodingSchema":
        try:
            return cls(vocabularies={k: tuple(v) for k, v in d["vocabularies"].items()},
                       numeric_min=dict(d["numeric_min"]),
                       numeric_max=dict(d["numeric_max"]),
                       pad_to=d.get("pad_to"))
        except DataError:
            raise
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise DataError(f"malformed encoding schema: "
                            f"{type(exc).__name__}: {exc}") from None

    @property
    def fingerprint(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class EncodedDataset:
    features: Array  # [n x feature_dim], entries in [0, 1]
    labels: Array  # [n] category indices
    schema: EncodingSchema

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise DataError(f"features {self.features.shape} and labels "
                            f"{self.labels.shape} are inconsistent")
        if self.features.shape[1] != self.schema.feature_dim:
            raise DataError(f"features are {self.features.shape[1]}-wide but the "
                            f"schema defines {self.schema.feature_dim} columns")

    def __len__(self) -> int:
        return self.features.shape[0]


def fit_schema(train_records: Sequence[RawRecord],
               extra_vocab_records: Sequence[RawRecord] = (),
               pad_to: int | None = None) -> EncodingSchema:
    """Vocabularies from train plus extra records; min/max from train only."""
    if not train_records:
        raise DataError("cannot fit an encoding schema on an empty record set")
    vocabularies: dict[str, set[str]] = {FEATURE_NAMES[i]: set()
                                         for i in CATEGORICAL_INDICES}
    for record in train_records:
        for i in CATEGORICAL_INDICES:
            vocabularies[FEATURE_NAMES[i]].add(record.features[i])
    for record in extra_vocab_records:
        for i in CATEGORICAL_INDICES:
            vocabularies[FEATURE_NAMES[i]].add(record.features[i])
    numeric_idx = [i for i in range(len(FEATURE_NAMES)) if i not in CATEGORICAL_INDICES]
    values = np.array([[r.features[i] for i in numeric_idx] for r in train_records])
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    return EncodingSchema(
        vocabularies={name: tuple(sorted(vals)) for name, vals in vocabularies.items()},
        numeric_min={FEATURE_NAMES[i]: float(m) for i, m in zip(numeric_idx, mins)},
        numeric_max={FEATURE_NAMES[i]: float(m) for i, m in zip(numeric_idx, maxs)},
        pad_to=pad_to,
    )


def transform(records: Sequence[RawRecord], schema: EncodingSchema,
              taxonomy: ClassTaxonomy) -> EncodedDataset:
    """Min-max scale numerics (clipped), one-hot categoricals, map labels."""
    n = len(records)
    features = np.zeros((n, schema.feature_dim))
    labels = np.array([map_attack(r.attack_name, taxonomy) for r in records],
                      dtype=np.int64)
    rows = np.arange(n)
    for i, (name, start, stop) in enumerate(schema.column_blocks()):
        if i in CATEGORICAL_INDICES:
            offset_of = {v: k for k, v in enumerate(schema.vocabularies[name])}
            try:
                offsets = np.array([offset_of[r.features[i]] for r in records],
                                   dtype=np.int64)
            except KeyError as exc:
                raise DataError(f"value {exc.args[0]!r} of {name!r} is absent "
                                f"from the schema vocabulary") from None
            if n:
                features[rows, start + offsets] = 1.0
        else:
            lo, hi = schema.numeric_min[name], schema.numeric_max[name]
            col = np.fromiter((r.features[i] for r in records), dtype=np.float64,
                              count=n)
            if hi > lo:
                features[:, start] = np.clip((col - lo) / (hi - lo), 0.0, 1.0)
            # constant column maps to 0
    return EncodedDataset(features=features, labels=labels, schema=schema)


def inverse_transform(row: Array, schema: EncodingSchema) -> tuple:
    """Encoded row -> the 41 feature values (no label/difficulty).

    One-hot blocks resolve by argmax with ties going to the lowest column
    index; numerics rescale to their original ranges.
    """
    row = np.asarray(row, dtype=np.float64)
    if row.shape != (schema.feature_dim,):
        raise DataError(f"row has shape {row.shape}, expected ({schema.feature_dim},)")
    values = []
    for i, (name, start, stop) in enumerate(schema.column_blocks()):
        if i in CATEGORICAL_INDICES:
            vocab = schema.vocabularies[name]
            values.append(vocab[int(np.argmax(row[start:stop]))])
        else:
            lo, hi = schema.numeric_min[name], schema.numeric_max[name]
            values.append(lo + row[start] * (hi - lo))
    return tuple(values)


def class_counts(dataset: EncodedDataset, num_classes: int = NUM_CATEGORIES) -> Array:
    return np.bincount(dataset.labels, minlength=num_classes)


# ----------------------------------------------------------------------
# dataset file formats: versioned binary, and CSV for interoperability
# ----------------------------------------------------------------------

def save_dataset(dataset: EncodedDataset, path, fmt: str = "binary",
                 manifest: dict | None = None) -> None:
    if fmt == "binary":
        header = {
            "format_version": DATASET_FORMAT_VERSION,
            "n": len(dataset),
            "feature_dim": dataset.schema.feature_dim,
            "schema": dataset.schema.to_dict(),
            "manifest": manifest or {},
        }
        with atomic_write(path, "wb") as fh:
            container.write(fh, DATASET_MAGIC, DATASET_FORMAT_VERSION, header,
                            (np.ascontiguousarray(block, dtype=dtype) for block, dtype in
                             ((dataset.labels, "<i8"), (dataset.features, "<f8"))))
    elif fmt == "csv":
        with atomic_write(path, "w", newline="") as fh:
            meta = {"format_version": DATASET_FORMAT_VERSION,
                    "schema": dataset.schema.to_dict(), "manifest": manifest or {}}
            fh.write("# " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["label"] + [f"f{i}" for i in range(dataset.schema.feature_dim)])
            for label, row in zip(dataset.labels, dataset.features):
                # one row at a time: a whole-array tolist() would hold every
                # value as a Python float at once
                writer.writerow([int(label), *map(repr, row.tolist())])
    else:
        raise DataError(f"unknown dataset format {fmt!r}; use one of {DATASET_FORMATS}")


def _header_schema(header, what: str) -> EncodingSchema:
    if not isinstance(header, dict) or "schema" not in header:
        raise DataError(f"{what} is not a JSON object with a 'schema' key")
    return EncodingSchema.from_dict(header["schema"])


def _checked(features: Array, labels: Array, schema: EncodingSchema,
             path: Path) -> EncodedDataset:
    if labels.size and labels.min() < 0:
        raise DataError(f"{path}: labels must be nonnegative, got {int(labels.min())}")
    if labels.size and labels.max() >= NUM_CATEGORIES:
        raise DataError(f"{path}: labels must be below {NUM_CATEGORIES}, "
                        f"got {int(labels.max())}")
    if not np.all(np.isfinite(features)):
        raise DataError(f"{path}: features must be finite (no NaN or infinity)")
    if features.size and (features.min() < 0.0 or features.max() > 1.0):
        raise DataError(f"{path}: features must lie in [0, 1], got values in "
                        f"[{features.min()!r}, {features.max()!r}]")
    return EncodedDataset(features=features, labels=labels, schema=schema)


def load_dataset(path) -> EncodedDataset:
    path = Path(path)
    with open(path, "rb", buffering=0) as fh:  # unbuffered: one read of the whole file
        if fh.read(len(DATASET_MAGIC)) == DATASET_MAGIC:
            fh.seek(0)
            return _load_binary(fh.read(), path)
    # fall back to CSV
    try:
        with open(path) as fh:
            return _load_csv(fh, path)
    except UnicodeDecodeError:
        raise DataError(f"{path} is neither a binary dataset nor a text CSV") from None


def _load_binary(data: bytes, path: Path) -> EncodedDataset:
    header, blocks = container.read(data, DATASET_MAGIC, DATASET_FORMAT_VERSION,
                                    f"{path}: dataset file")
    schema = _header_schema(header, f"{path}: dataset header")
    n, d = header.get("n"), header.get("feature_dim")
    for key, value in (("n", n), ("feature_dim", d)):
        if type(value) is not int or value < 0:
            raise DataError(f"{path}: dataset header needs a nonnegative "
                            f"integer {key!r}, got {value!r}")
    if len(blocks) != 2:
        raise DataError(f"{path}: dataset file holds {len(blocks)} blocks, expected 2")
    labels = np.frombuffer(blocks[0], dtype="<i8")
    feats = np.frombuffer(blocks[1], dtype="<f8")
    if labels.size != n or feats.size != n * d or d != schema.feature_dim:
        raise DataError(f"{path}: the dataset header's n={n} and feature_dim={d} do "
                        f"not match its blocks and its schema")
    return _checked(feats.reshape(n, d).copy(), labels.astype(np.int64), schema, path)


def _load_csv(fh, path: Path) -> EncodedDataset:
    first = fh.readline()
    if not first.startswith("# "):
        raise DataError(f"{path} is neither a binary dataset nor a commented CSV")
    try:
        meta = json.loads(first[2:])
    except (ValueError, RecursionError) as exc:  # not JSON, too deep
        raise DataError(f"{path}: CSV comment header is not valid JSON: {exc}") from None
    schema = _header_schema(meta, f"{path}: CSV comment header")
    reader = csv.reader(fh)
    width = schema.feature_dim + 1
    labels_list, rows = [], []
    try:
        if next(reader, None) is None:
            raise DataError(f"{path}: CSV has no column header line")
        for lineno, row in enumerate(reader, start=3):
            if len(row) != width:
                raise DataError(f"{path} line {lineno}: expected {width} fields, "
                                f"got {len(row)}")
            try:
                labels_list.append(int(row[0]))
                rows.append(list(map(float, row[1:])))
            except ValueError:
                raise DataError(f"{path} line {lineno}: the label or a feature is "
                                f"not a number") from None
        labels = np.array(labels_list, dtype=np.int64)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise DataError(f"{path} line {reader.line_num + 1}: {exc}") from None
    except OverflowError:
        raise DataError(f"{path}: a label does not fit in 64 bits") from None
    features = (np.array(rows) if rows
                else np.zeros((0, schema.feature_dim)))
    return _checked(features, labels, schema, path)


def save_schema(schema: EncodingSchema, path, manifest: dict | None = None) -> None:
    payload = {"format_version": DATASET_FORMAT_VERSION,
               "fingerprint": schema.fingerprint, "manifest": manifest or {},
               **schema.to_dict()}
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_schema(path) -> EncodingSchema:
    try:
        payload = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
        raise DataError(f"malformed schema file {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise DataError(f"schema file {path} does not hold a JSON object")
    schema = EncodingSchema.from_dict(payload)
    stored = payload.get("fingerprint")
    if stored and stored != schema.fingerprint:
        raise DataError(f"schema file {path} fails its own fingerprint check")
    return schema


def synthetic_schema(feature_dim: int) -> EncodingSchema:
    """Minimal schema for toy feature matrices that never saw raw records."""
    return EncodingSchema(
        vocabularies={FEATURE_NAMES[i]: () for i in CATEGORICAL_INDICES},
        numeric_min={f"x{i}": 0.0 for i in range(feature_dim)},
        numeric_max={f"x{i}": 1.0 for i in range(feature_dim)},
    )
