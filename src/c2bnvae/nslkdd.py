"""NSL-KDD ingestion: parsing, attack taxonomy and encoding.

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

import collections
import csv
import hashlib
import io
import itertools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import container
from .atomic import atomic_write
from .errors import DataError, LabelError

Array = np.ndarray

DATASET_FORMAT_VERSION = 1
DATASET_MAGIC = b"C2DS"
DATASET_FORMATS = ("binary", "csv")
CSV_BLOCK = 1024  # rows the CSV writer formats together
_ZERO_BITS, _ONE_BITS = np.array([0.0, 1.0]).view(np.uint64)  # -0.0 has its own

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
NUMERIC_INDICES = tuple(i for i in range(len(FEATURE_NAMES)) if i not in CATEGORICAL_INDICES)
NUM_FIELDS = len(FEATURE_NAMES) + 2  # + attack name + difficulty
# the fields a RecordTable keeps as codes: the categoricals, then the attack name
CODED_INDICES = CATEGORICAL_INDICES + (len(FEATURE_NAMES),)
ATTACK_COLUMN = len(CATEGORICAL_INDICES)  # the attack name's column of the codes

PARSE_BLOCK = 2048  # lines split and converted together

CATEGORY_NAMES = ("Normal", "DoS", "Probe", "R2L", "U2R")
NUM_CATEGORIES = len(CATEGORY_NAMES)


@dataclass(frozen=True)
class ClassTaxonomy:
    mapping: dict[str, int]  # attack name -> index into CATEGORY_NAMES

    def __post_init__(self):
        if self.mapping.get("normal") != CATEGORY_NAMES.index("Normal"):
            raise DataError('taxonomy must map "normal" to the Normal category')


def load_taxonomy(source) -> ClassTaxonomy:
    """Read a two-column UTF-8 CSV (attack_name, category) with a header line."""
    if isinstance(source, (str, Path)):
        where = source
        try:
            text = Path(source).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"taxonomy file {where} is not UTF-8 text ({exc.reason})") from None
        except OSError as exc:  # a directory, no permission, a failed read
            raise DataError(f"cannot read taxonomy file {where}: {exc.strerror or exc}") from None
    else:
        where = getattr(source, "name", "<stream>")
        text = source.read()
    index_of = {name: i for i, name in enumerate(CATEGORY_NAMES)}
    mapping: dict[str, int] = {}
    reader = csv.reader(io.StringIO(text))
    try:
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
    except csv.Error as exc:  # e.g. a field past the csv module's size limit
        raise DataError(f"taxonomy file {where} line {reader.line_num}: {exc}") from None
    return ClassTaxonomy(mapping=mapping)


def default_taxonomy() -> ClassTaxonomy:
    taxonomy = resources.files("c2bnvae.data").joinpath("nslkdd_taxonomy.csv")
    with taxonomy.open(encoding="utf-8") as fh:
        return load_taxonomy(fh)


def map_attack(name: str, taxonomy: ClassTaxonomy) -> int:
    try:
        return taxonomy.mapping[name]
    except KeyError:
        raise LabelError(f"unknown attack name {name!r}; extend the taxonomy file") from None


@dataclass(frozen=True)
class RecordTable:
    """Parsed records, held as columns.

    ``numeric`` holds the 38 numeric features, in ``NUMERIC_INDICES`` order,
    one row per record. ``codes`` holds each record's protocol_type, service,
    flag and attack name (``CODED_INDICES``) as indices into ``values``: the
    distinct strings of each of those fields, in order of first appearance
    in the parsed file. A selection of rows keeps the file's ``values``, so
    some of them may belong to no record.
    """
    numeric: Array  # [n x 38] float64
    codes: Array  # [n x 4] int64
    values: tuple[tuple[str, ...], ...]

    def __len__(self) -> int:
        return self.numeric.shape[0]

    def __getitem__(self, rows) -> "RecordTable":
        """The records at ``rows`` (a slice or an index array), in that order."""
        return RecordTable(self.numeric[rows], self.codes[rows], self.values)

    def present(self, column: int) -> list[str]:
        """The values of coded ``column`` that some record holds."""
        held = np.bincount(self.codes[:, column], minlength=len(self.values[column]))
        return [self.values[column][c] for c in np.flatnonzero(held).tolist()]


def parse_records(stream: Iterable[str]) -> RecordTable:
    """Parse CSV lines into a record table.

    Blank lines are skipped. A malformed line raises DataError: the first one
    in the stream, for the first check it fails, in this order: the field
    count, each numeric field in turn (``float()`` must accept it and give a
    finite value), then the difficulty (``int()`` must accept it; the value
    is then dropped).
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    lines = iter(stream)
    seen: list[dict[str, int]] = [{} for _ in CODED_INDICES]  # value -> code
    numeric: list[Array] = []
    codes: list[Array] = []
    first_lineno = 1
    while True:
        block: list[str] = []
        try:
            block.extend(itertools.islice(lines, PARSE_BLOCK))
        except UnicodeDecodeError:
            # the lines decoded before the bad bytes are checked first, as a
            # reader that takes one line at a time would check them
            _parse_lines(block, first_lineno, seen)
            raise
        if not block:
            break
        block_numeric, block_codes = _parse_lines(block, first_lineno, seen)
        numeric.append(block_numeric)
        codes.append(block_codes)
        first_lineno += len(block)
    return RecordTable(
        numeric=np.concatenate(numeric) if numeric else np.empty((0, len(NUMERIC_INDICES))),
        codes=(np.concatenate(codes) if codes
               else np.empty((0, len(CODED_INDICES)), dtype=np.int64)),
        values=tuple(tuple(code_of) for code_of in seen))


def _parse_lines(block: list[str], first_lineno: int,
                 seen: list[dict[str, int]]) -> tuple[Array, Array]:
    """The numeric matrix and the codes of the records in ``block``, whose
    first line is line ``first_lineno``; new coded values join ``seen``."""
    stripped = list(map(str.strip, block))
    try:
        numeric, columns = _split_and_check(list(filter(None, stripped)))
    except _BadLine as bad:  # the how-manieth nonblank line, so count the blank ones
        lineno = first_lineno + [i for i, line in enumerate(stripped) if line][bad.index]
        raise DataError(f"line {lineno}: {bad.reason}") from None
    codes = np.empty((len(numeric), len(CODED_INDICES)), dtype=np.int64)
    for k, i in enumerate(CODED_INDICES):
        code_of = seen[k]
        for value in dict.fromkeys(columns[i]):
            code_of.setdefault(value, len(code_of))
        codes[:, k] = np.fromiter(map(code_of.__getitem__, columns[i]),
                                  dtype=np.int64, count=len(numeric))
    return numeric, codes


class _BadLine(Exception):
    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason


def _accepts(convert, text: str) -> bool:
    """Whether ``convert`` (``float`` or ``int``) accepts ``text``."""
    try:
        convert(text)
    except ValueError:
        return False
    return True


def _split_and_check(lines: list[str]) -> tuple[Array, list[list[str]]]:
    """The numeric fields of nonblank ``lines`` as a [len(lines) x 38] matrix,
    and the lines' fields as columns, after every check ``parse_records``
    names; raises _BadLine for the first line that fails one."""
    n = len(lines)
    commas = np.fromiter(map(str.count, lines, itertools.repeat(",")),
                         dtype=np.int64, count=n)
    wrong = np.flatnonzero(commas != NUM_FIELDS - 1)
    good = int(wrong[0]) if wrong.size else n  # lines before the first miscounted one
    # every good line has NUM_FIELDS fields, so field i of line r sits at
    # r * NUM_FIELDS + i of their joined split
    fields = ",".join(lines[:good]).split(",") if good else []
    columns = [fields[i::NUM_FIELDS] for i in range(NUM_FIELDS)]
    numeric = np.empty((good, len(NUMERIC_INDICES)))
    for k, i in enumerate(NUMERIC_INDICES):
        try:
            numeric[:, k] = np.fromiter(map(float, columns[i]), dtype=np.float64, count=good)
        except ValueError:  # float() refuses a field: NaN marks it as bad below
            numeric[:, k] = [float(text) if _accepts(float, text) else math.nan
                             for text in columns[i]]
    bad = ~np.isfinite(numeric).all(axis=1)  # float() accepts nan, inf and 1e999
    try:
        collections.deque(map(int, columns[-1]), maxlen=0)
    except ValueError:
        bad |= np.array([not _accepts(int, text) for text in columns[-1]], dtype=bool)
    failed = np.flatnonzero(bad)
    if failed.size:
        row = int(failed[0])
        for k, i in enumerate(NUMERIC_INDICES):
            if not math.isfinite(numeric[row, k]):
                text = columns[i][row]
                kind = "finite" if _accepts(float, text) else "numeric"
                raise _BadLine(row, f"field {FEATURE_NAMES[i]!r} is not {kind}: {text!r}")
        raise _BadLine(row, f"difficulty is not an integer: {columns[-1][row]!r}")
    if good < n:
        raise _BadLine(good, f"expected {NUM_FIELDS} comma-separated fields, "
                             f"got {int(commas[good]) + 1}")
    return numeric, columns


def read_records(path) -> RecordTable:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_records(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:  # a directory, no permission, a failed read
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None


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
        if self.pad_to is not None and self.pad_to < self.base_dim:
            raise DataError(f"pad_to={self.pad_to} is below the encoded width "
                            f"{self.base_dim}")

    @property
    def base_dim(self) -> int:
        return len(self.numeric_min) + sum(len(v) for v in self.vocabularies.values())

    @property
    def feature_dim(self) -> int:
        return self.pad_to if self.pad_to is not None else self.base_dim

    def column_blocks(self) -> list[tuple[str, int, int]]:
        """(feature name, start, stop) per original feature, in column order."""
        if any(name not in self.numeric_min
               for i, name in enumerate(FEATURE_NAMES)
               if i not in CATEGORICAL_INDICES):
            raise DataError("schema does not carry the NSL-KDD column layout")
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


@dataclass(frozen=True)
class EncodedDataset:
    """An encoded split, checked once and then unchangeable.

    The constructor owns every check on the two arrays' structure: a 2-D
    float64 feature matrix as wide as the schema, a 1-D int64 label vector
    with as many rows, and labels in [0, NUM_CATEGORIES). It keeps read-only
    views of the arrays, so a write through the dataset raises. The
    caller's own arrays stay writeable, and a write through them would
    reach the dataset: no code in the package writes into an array it has
    built a dataset from. Feature values (finite, in [0, 1]) are the
    loader's to check: only files bring unchecked floats.
    """
    features: Array  # [n x feature_dim], entries in [0, 1]
    labels: Array  # [n] category indices
    schema: EncodingSchema

    def __post_init__(self):
        features = _read_only(np.asarray(self.features, dtype=np.float64))
        labels = _read_only(np.asarray(self.labels, dtype=np.int64))
        if features.ndim != 2 or labels.ndim != 1 or features.shape[0] != labels.shape[0]:
            raise DataError(f"features {features.shape} and labels "
                            f"{labels.shape} are inconsistent")
        if features.shape[1] != self.schema.feature_dim:
            raise DataError(f"features are {features.shape[1]}-wide but the "
                            f"schema defines {self.schema.feature_dim} columns")
        if labels.size and labels.min() < 0:
            raise DataError(f"labels must be nonnegative, got {int(labels.min())}")
        if labels.size and labels.max() >= NUM_CATEGORIES:
            raise DataError(f"labels must be below {NUM_CATEGORIES}, "
                            f"got {int(labels.max())}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]


def _read_only(array: Array) -> Array:
    view = array.view()
    view.flags.writeable = False
    return view


def fit_schema(train_records: RecordTable,
               extra_vocab_records: RecordTable | None = None,
               pad_to: int | None = None) -> EncodingSchema:
    """Vocabularies from train plus extra records; min/max from train only."""
    if not train_records:
        raise DataError("cannot fit an encoding schema on an empty record set")
    tables = [train_records] + ([extra_vocab_records] if extra_vocab_records else [])
    vocabularies = {FEATURE_NAMES[i]: tuple(sorted({value for table in tables
                                                   for value in table.present(k)}))
                    for k, i in enumerate(CATEGORICAL_INDICES)}
    mins = train_records.numeric.min(axis=0)
    maxs = train_records.numeric.max(axis=0)
    return EncodingSchema(
        vocabularies=vocabularies,
        numeric_min={FEATURE_NAMES[i]: float(m) for i, m in zip(NUMERIC_INDICES, mins)},
        numeric_max={FEATURE_NAMES[i]: float(m) for i, m in zip(NUMERIC_INDICES, maxs)},
        pad_to=pad_to,
    )


def _lookup(records: RecordTable, column: int, table: dict[str, int]) -> Array:
    """``table``'s entry for each record's value of coded ``column``, -1 where
    the value has none."""
    entries = np.array([table.get(value, -1) for value in records.values[column]],
                       dtype=np.int64)
    return entries[records.codes[:, column]]


def attack_labels(records: RecordTable, taxonomy: ClassTaxonomy) -> Array:
    """Each record's category index; LabelError names the first record's
    attack name that the taxonomy lacks."""
    labels = _lookup(records, ATTACK_COLUMN, taxonomy.mapping)
    unknown = np.flatnonzero(labels < 0)
    if unknown.size:
        code = records.codes[unknown[0], ATTACK_COLUMN]
        map_attack(records.values[ATTACK_COLUMN][code], taxonomy)  # raises
    return labels


def transform(records: RecordTable, schema: EncodingSchema,
              taxonomy: ClassTaxonomy) -> EncodedDataset:
    """Min-max scale numerics (clipped), one-hot categoricals, map labels."""
    n = len(records)
    features = np.zeros((n, schema.feature_dim))
    labels = attack_labels(records, taxonomy)
    rows = np.arange(n)
    for i, (name, start, stop) in enumerate(schema.column_blocks()):
        if i in CATEGORICAL_INDICES:
            k = CATEGORICAL_INDICES.index(i)
            offset_of = {v: j for j, v in enumerate(schema.vocabularies[name])}
            offsets = _lookup(records, k, offset_of)
            missing = np.flatnonzero(offsets < 0)
            if missing.size:
                value = records.values[k][records.codes[missing[0], k]]
                raise DataError(f"value {value!r} of {name!r} is absent "
                                f"from the schema vocabulary")
            features[rows, start + offsets] = 1.0
        else:
            lo, hi = schema.numeric_min[name], schema.numeric_max[name]
            if hi > lo:
                col = records.numeric[:, NUMERIC_INDICES.index(i)]
                features[:, start] = np.clip((col - lo) / (hi - lo), 0.0, 1.0)
            # constant column maps to 0
    return EncodedDataset(features=features, labels=labels, schema=schema)


def class_counts(dataset: EncodedDataset) -> Array:
    """Rows per category, ``NUM_CATEGORIES`` entries long."""
    return np.bincount(dataset.labels, minlength=NUM_CATEGORIES)


# ----------------------------------------------------------------------
# dataset file formats: versioned binary, and a CSV export for other tools
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
            # the rows as csv.writer's default dialect writes them: ',' between
            # fields, '\r\n' after each row, and no quoting, which neither an
            # int nor the repr of a float ever needs
            fh.write(_csv_column_names(dataset.schema.feature_dim) + "\r\n")
            for start in range(0, len(dataset), CSV_BLOCK):
                # a block at a time: formatting the whole array at once would
                # hold every value as a Python string at once
                stop = start + CSV_BLOCK
                fh.write(_csv_rows(dataset.labels[start:stop], dataset.features[start:stop]))
    else:
        raise DataError(f"unknown dataset format {fmt!r}; use one of {DATASET_FORMATS}")


def _csv_column_names(feature_dim: int) -> str:
    """The column header line of a CSV dataset, without its line end."""
    return ",".join(["label"] + [f"f{i}" for i in range(feature_dim)])


def _csv_rows(labels: Array, features: Array) -> str:
    """CSV lines of a block of rows, with each float written as its repr.

    A cell's text follows its 64-bit pattern, not its value, so that -0.0
    keeps its own text apart from 0.0. The patterns of 0.0 and 1.0, which
    most encoded cells hold, take fixed texts; only the other patterns are
    sorted by ``np.unique``, and each distinct one is formatted once. Each
    text carries the separator that follows it, so the block is one join.
    """
    n, d = features.shape
    bits = np.ascontiguousarray(features, dtype=np.float64).view(np.uint64)
    is_one = bits == _ONE_BITS
    rest = ~is_one & (bits != _ZERO_BITS)
    patterns, inverse = np.unique(bits[rest], return_inverse=True)
    codes = is_one.astype(np.intp)  # 0 for 0.0, 1 for 1.0, then the rest's patterns
    codes[rest] = inverse + 2
    texts = ["0.0", "1.0"] + [repr(v) for v in patterns.view(np.float64).tolist()]
    cells = np.empty((n, d + 1), dtype=object)
    label_end = "," if d else "\r\n"
    cells[:, 0] = [f"{label}{label_end}" for label in labels.tolist()]
    if d:
        cells[:, 1:d] = np.array([t + "," for t in texts], dtype=object)[codes[:, :-1]]
        cells[:, d] = np.array([t + "\r\n" for t in texts], dtype=object)[codes[:, -1]]
    return "".join(cells.ravel().tolist())


def _header_schema(header, what: str) -> EncodingSchema:
    if not isinstance(header, dict) or "schema" not in header:
        raise DataError(f"{what} is not a JSON object with a 'schema' key")
    return EncodingSchema.from_dict(header["schema"])


def _checked(features: Array, labels: Array, schema: EncodingSchema,
             path: Path) -> EncodedDataset:
    """The dataset of a file's arrays: the constructor's checks, then the
    feature values', each error naming ``path``."""
    try:
        dataset = EncodedDataset(features=features, labels=labels, schema=schema)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(features)):
        raise DataError(f"{path}: features must be finite (no NaN or infinity)")
    if features.size and (features.min() < 0.0 or features.max() > 1.0):
        raise DataError(f"{path}: features must lie in [0, 1], got values in "
                        f"[{features.min()!r}, {features.max()!r}]")
    return dataset


def load_dataset(path) -> EncodedDataset:
    """A dataset as ``save_dataset(fmt="binary")`` writes it. Any other file,
    a CSV export included, is a DataError: the pipeline reads binary only."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(16)  # the magic, the version and the header's length
        if head[:len(DATASET_MAGIC)] != DATASET_MAGIC:
            raise DataError(f"{path} is not a binary dataset; rerun preprocess to "
                            f"write the encoded .c2ds files")
        # one read of the whole file into a buffer shifted so that the blocks
        # start on 8-byte boundaries (each starts 24 bytes, plus the header,
        # plus whole 8-byte values in): the arrays are then views of it, and
        # a load holds one copy of the set, not two
        shift = -int.from_bytes(head[8:16], "little") % 8
        buf = memoryview(np.empty(os.fstat(fh.fileno()).st_size + shift, dtype=np.uint8))
        fh.seek(0)
        data = buf[shift:shift + fh.readinto(buf[shift:])]
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
    return _checked(feats.reshape(n, d), labels.astype(np.int64), schema, path)


def synthetic_schema(feature_dim: int) -> EncodingSchema:
    """Minimal schema for toy feature matrices that never saw raw records."""
    return EncodingSchema(
        vocabularies={FEATURE_NAMES[i]: () for i in CATEGORICAL_INDICES},
        numeric_min={f"x{i}": 0.0 for i in range(feature_dim)},
        numeric_max={f"x{i}": 1.0 for i in range(feature_dim)},
    )
