"""Reference NSL-KDD ingest: one record object per line, one field at a time.

This is the straightforward form of ``c2bnvae.nslkdd``'s parser and
encoder, kept only as a test oracle. ``parse_records`` checks each line in
turn and yields a ``RawRecord``; ``fit_schema`` and ``transform`` walk those
records field by field. ``c2bnvae.nslkdd`` parses and encodes whole columns
and must give the same table, schema, encoding and errors
(``assert_table_matches``). ``load_csv_dataset`` reads an encoded CSV
dataset one ``csv.reader`` row at a time; ``nslkdd.load_dataset`` converts
blocks of rows, may refuse a file this reader reads, and must give the
same arrays for any file it reads.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from c2bnvae.errors import DataError
from c2bnvae.nslkdd import (CATEGORICAL_INDICES, CODED_INDICES, FEATURE_NAMES,
                            NUM_FIELDS, NUMERIC_INDICES, ClassTaxonomy, EncodedDataset,
                            EncodingSchema, RecordTable, _checked, _header_schema,
                            map_attack)


@dataclass(frozen=True)
class RawRecord:
    """One traffic record: 41 features (str for categoricals, float otherwise)."""
    features: tuple
    attack_name: str
    difficulty: int


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


def fit_schema(train_records: Sequence[RawRecord],
               extra_vocab_records: Sequence[RawRecord] = (),
               pad_to: int | None = None) -> EncodingSchema:
    """Vocabularies from train plus extra records; min/max from train only."""
    if not train_records:
        raise DataError("cannot fit an encoding schema on an empty record set")
    vocabularies: dict[str, set[str]] = {FEATURE_NAMES[i]: set()
                                         for i in CATEGORICAL_INDICES}
    for record in list(train_records) + list(extra_vocab_records):
        for i in CATEGORICAL_INDICES:
            vocabularies[FEATURE_NAMES[i]].add(record.features[i])
    values = np.array([[r.features[i] for i in NUMERIC_INDICES] for r in train_records])
    mins = values.min(axis=0)
    maxs = values.max(axis=0)
    return EncodingSchema(
        vocabularies={name: tuple(sorted(vals)) for name, vals in vocabularies.items()},
        numeric_min={FEATURE_NAMES[i]: float(m) for i, m in zip(NUMERIC_INDICES, mins)},
        numeric_max={FEATURE_NAMES[i]: float(m) for i, m in zip(NUMERIC_INDICES, maxs)},
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
    return EncodedDataset(features=features, labels=labels, schema=schema)


def table_column(table: RecordTable, field: int) -> list[str]:
    """The strings of a coded field (an index into a line's fields) per record."""
    k = CODED_INDICES.index(field)
    return [table.values[k][code] for code in table.codes[:, k].tolist()]


def assert_table_matches(table: RecordTable, records: Sequence[RawRecord]) -> None:
    """The table holds ``records`` field by field: the numeric features bit for
    bit (so -0.0 stays apart from 0.0), the categoricals and the attack names."""
    assert len(table) == len(records)
    expected = np.array([[r.features[i] for i in NUMERIC_INDICES] for r in records],
                        dtype=np.float64).reshape(len(records), len(NUMERIC_INDICES))
    assert table.numeric.shape == expected.shape
    assert table.numeric.tobytes() == expected.tobytes()
    for i in CATEGORICAL_INDICES:
        assert table_column(table, i) == [r.features[i] for r in records]
    assert table_column(table, len(FEATURE_NAMES)) == [r.attack_name for r in records]


def load_csv_dataset(path) -> EncodedDataset:
    """An encoded CSV dataset, each row split by ``csv.reader`` and converted
    with ``int`` and ``float`` in file order."""
    try:
        return _load_csv(path)
    except UnicodeDecodeError:
        raise DataError(f"{path} is neither a binary dataset nor a text CSV") from None


def _load_csv(path) -> EncodedDataset:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("# "):
            raise DataError(f"{path} is neither a binary dataset nor a commented CSV")
        try:
            meta = json.loads(first[2:])
        except (ValueError, RecursionError) as exc:
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
        except csv.Error as exc:
            raise DataError(f"{path} line {reader.line_num + 1}: {exc}") from None
        except OverflowError:
            raise DataError(f"{path}: a label does not fit in 64 bits") from None
    features = np.array(rows) if rows else np.zeros((0, schema.feature_dim))
    return _checked(features, labels, schema, path)
