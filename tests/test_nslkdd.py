import json
import struct

import numpy as np
import pytest

from c2bnvae.errors import DataError, LabelError
from c2bnvae.nslkdd import (CATEGORY_NAMES, DATASET_FORMAT_VERSION, DATASET_MAGIC,
                            NUM_CATEGORIES, EncodedDataset, EncodingSchema,
                            class_counts, default_taxonomy, fit_schema,
                            inverse_transform, load_dataset, load_schema,
                            load_taxonomy, map_attack, parse_records,
                            read_records, save_dataset, save_schema, transform)

import corpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    return corpus.write_corpus(tmp_path_factory.mktemp("nslkdd"))


@pytest.fixture(scope="module")
def splits(corpus_files):
    train_path, test_path = corpus_files
    return read_records(train_path), read_records(test_path)


@pytest.fixture(scope="module")
def fitted(splits):
    train, test = splits
    schema = fit_schema(train, extra_vocab_records=test)
    taxonomy = default_taxonomy()
    return schema, taxonomy, transform(train, schema, taxonomy)


class TestParse:
    def test_parses_corpus_line(self, corpus_files):
        first = corpus_files[0].read_text().splitlines()[0]
        (record,) = parse_records(first)
        assert len(record.features) == 41
        assert isinstance(record.features[1], str)  # protocol_type stays text
        assert isinstance(record.features[0], float)

    def test_empty_stream(self):
        assert list(parse_records("")) == []

    def test_wrong_field_count_names_line(self):
        good = ",".join(["0"] * 43)
        bad = ",".join(["0"] * 42)
        with pytest.raises(DataError, match="line 2"):
            list(parse_records(f"{good}\n{bad}\n"))

    def test_non_numeric_numeric_field(self):
        fields = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "5"]
        fields[0] = "oops"
        with pytest.raises(DataError, match="duration"):
            list(parse_records(",".join(fields)))

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_numeric_field_names_line(self, text):
        good = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "5"]
        bad = list(good)
        bad[4] = text  # src_bytes
        with pytest.raises(DataError, match="line 2: field 'src_bytes' is not finite"):
            list(parse_records(",".join(good) + "\n" + ",".join(bad)))

    def test_huge_finite_fields_parse(self):
        fields = ["0", "tcp", "http", "SF"] + ["1e308"] * 37 + ["normal", "5"]
        (record,) = parse_records(",".join(fields))
        assert record.features[4] == 1e308

    def test_difficulty_must_be_integer(self):
        fields = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "x"]
        with pytest.raises(DataError, match="difficulty"):
            list(parse_records(",".join(fields)))


class TestTaxonomy:
    def test_default_covers_both_splits(self, splits):
        taxonomy = default_taxonomy()
        for record in splits[0] + splits[1]:
            map_attack(record.attack_name, taxonomy)

    def test_known_assignments(self):
        taxonomy = default_taxonomy()
        assert map_attack("normal", taxonomy) == CATEGORY_NAMES.index("Normal")
        assert map_attack("neptune", taxonomy) == CATEGORY_NAMES.index("DoS")
        assert map_attack("nmap", taxonomy) == CATEGORY_NAMES.index("Probe")
        assert map_attack("guess_passwd", taxonomy) == CATEGORY_NAMES.index("R2L")
        assert map_attack("rootkit", taxonomy) == CATEGORY_NAMES.index("U2R")

    def test_unknown_attack_is_an_error(self):
        with pytest.raises(LabelError, match="not_an_attack"):
            map_attack("not_an_attack", default_taxonomy())

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("name,cat\nnormal,Normal\n")
        with pytest.raises(DataError, match="header"):
            load_taxonomy(path)

    def test_load_rejects_unknown_category(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("attack_name,category\nnormal,Normal\nfoo,Weird\n")
        with pytest.raises(DataError, match="Weird"):
            load_taxonomy(path)


class TestSchema:
    def test_protocol_vocabulary_size(self, fitted):
        schema, _, _ = fitted
        assert len(schema.vocabularies["protocol_type"]) == 3

    def test_feature_dim_is_data_driven(self, fitted):
        schema, _, _ = fitted
        expected = 38 + sum(len(v) for v in schema.vocabularies.values())
        assert schema.feature_dim == expected

    def test_fingerprint_stable_and_sensitive(self, splits):
        train, test = splits
        a = fit_schema(train, extra_vocab_records=test)
        b = fit_schema(train, extra_vocab_records=test)
        assert a.fingerprint == b.fingerprint
        padded = fit_schema(train, extra_vocab_records=test, pad_to=123)
        assert padded.fingerprint != a.fingerprint

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            fit_schema([])

    def test_pad_below_width_rejected(self, splits):
        with pytest.raises(DataError, match="pad_to"):
            fit_schema(splits[0], pad_to=10)

    def test_constant_column_flagged_and_maps_to_zero(self, splits, fitted):
        schema, taxonomy, encoded = fitted
        # the corpus keeps several columns constant at zero
        assert "num_outbound_cmds" in schema.constant_numerics
        (block,) = [b for b in schema.column_blocks() if b[0] == "num_outbound_cmds"]
        assert np.all(encoded.features[:, block[1]] == 0.0)

    def test_schema_file_round_trip(self, fitted, tmp_path):
        schema, _, _ = fitted
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        loaded = load_schema(path)
        assert loaded == schema
        assert loaded.fingerprint == schema.fingerprint

    @pytest.mark.parametrize("text", [None, "[1, 2]", "\udcff"])
    def test_malformed_schema_file_is_data_error(self, fitted, tmp_path, text):
        schema, _, _ = fitted
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        if text is None:  # truncated
            path.write_text(path.read_text()[:40])
        elif text == "\udcff":  # not UTF-8
            path.write_bytes(b"\xff\xfe{}")
        else:
            path.write_text(text)
        with pytest.raises(DataError):
            load_schema(path)


class TestTransform:
    def test_entries_in_unit_interval(self, fitted):
        _, _, encoded = fitted
        assert np.all(encoded.features >= 0.0)
        assert np.all(encoded.features <= 1.0)

    def test_one_hot_blocks_sum_to_one(self, fitted):
        schema, _, encoded = fitted
        for name, start, stop in schema.column_blocks():
            if stop - start > 1:
                np.testing.assert_array_equal(
                    encoded.features[:, start:stop].sum(axis=1), 1.0)

    def test_numeric_extremes_hit_bounds(self, fitted):
        schema, _, encoded = fitted
        (block,) = [b for b in schema.column_blocks() if b[0] == "src_bytes"]
        col = encoded.features[:, block[1]]
        assert col.min() == 0.0
        assert col.max() == 1.0

    def test_out_of_range_test_values_clip(self, splits):
        train, test = splits
        schema = fit_schema(train, extra_vocab_records=test)
        encoded_test = transform(test, schema, default_taxonomy())
        assert np.all(encoded_test.features <= 1.0)
        assert np.all(encoded_test.features >= 0.0)

    def test_unknown_categorical_value_rejected(self, splits):
        train, _ = splits
        schema = fit_schema(train[:50])
        victim = train[0]
        hacked = type(victim)(features=(0.0, "weird_proto") + victim.features[2:],
                              attack_name=victim.attack_name, difficulty=0)
        with pytest.raises(DataError, match="weird_proto"):
            transform([hacked], schema, default_taxonomy())

    def test_padding_appends_zero_columns(self, splits):
        train, test = splits
        schema = fit_schema(train, extra_vocab_records=test, pad_to=123)
        encoded = transform(train[:20], schema, default_taxonomy())
        assert encoded.features.shape[1] == 123
        pad_cols = encoded.features[:, schema.base_dim:]
        assert np.all(pad_cols == 0.0)


class TestInverse:
    def test_round_trip(self, splits, fitted):
        schema, taxonomy, encoded = fitted
        train, _ = splits
        for idx in (0, 7, 100):
            values = inverse_transform(encoded.features[idx], schema)
            original = train[idx].features
            for i, (a, b) in enumerate(zip(values, original)):
                if isinstance(b, str):
                    assert a == b
                else:
                    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    def test_uniform_block_resolves_to_first_entry(self, fitted):
        schema, _, _ = fitted
        row = np.zeros(schema.feature_dim)
        values = inverse_transform(row, schema)
        assert values[1] == schema.vocabularies["protocol_type"][0]

    def test_argmax_resolution(self, fitted):
        schema, _, _ = fitted
        row = np.zeros(schema.feature_dim)
        (block,) = [b for b in schema.column_blocks() if b[0] == "protocol_type"]
        row[block[1]:block[1] + 3] = [0.2, 0.7, 0.1]
        values = inverse_transform(row, schema)
        assert values[1] == schema.vocabularies["protocol_type"][1]

    def test_row_width_validated(self, fitted):
        schema, _, _ = fitted
        with pytest.raises(DataError):
            inverse_transform(np.zeros(schema.feature_dim + 1), schema)


class TestCounts:
    def test_counts_match_mix(self, fitted):
        _, _, encoded = fitted
        counts = class_counts(encoded)
        assert counts.tolist() == [corpus.TRAIN_MIX[c] for c in CATEGORY_NAMES]
        assert counts.sum() == len(encoded)

    def test_empty_dataset_all_zeros(self, fitted):
        schema, _, _ = fitted
        empty = EncodedDataset(features=np.zeros((0, schema.feature_dim)),
                               labels=np.zeros(0, dtype=int), schema=schema)
        assert class_counts(empty).tolist() == [0] * 5


class TestDatasetIO:
    def test_binary_round_trip(self, fitted, tmp_path):
        _, _, encoded = fitted
        path = tmp_path / "train.c2ds"
        save_dataset(encoded, path, fmt="binary", manifest={"seed": 1})
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, encoded.features)
        assert np.array_equal(loaded.labels, encoded.labels)
        assert loaded.schema == encoded.schema

    def test_csv_round_trip(self, fitted, tmp_path):
        _, _, encoded = fitted
        path = tmp_path / "train.csv"
        save_dataset(encoded, path, fmt="csv")
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, encoded.features)
        assert np.array_equal(loaded.labels, encoded.labels)

    def test_truncated_binary_rejected(self, fitted, tmp_path):
        _, _, encoded = fitted
        path = tmp_path / "train.c2ds"
        save_dataset(encoded, path, fmt="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])
        with pytest.raises(DataError, match="truncated"):
            load_dataset(path)

    def test_unknown_format_rejected(self, fitted, tmp_path):
        _, _, encoded = fitted
        with pytest.raises(DataError):
            save_dataset(encoded, tmp_path / "x", fmt="parquet")


def write_binary(path, header, labels, features):
    """A binary dataset file laid out as save_dataset writes one."""
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    labels_raw = np.asarray(labels, dtype="<i8").tobytes()
    feats_raw = np.asarray(features, dtype="<f8").tobytes()
    path.write_bytes(DATASET_MAGIC + struct.pack("<I", DATASET_FORMAT_VERSION)
                     + struct.pack("<Q", len(head)) + head
                     + struct.pack("<Q", len(labels_raw)) + labels_raw
                     + struct.pack("<Q", len(feats_raw)) + feats_raw)


class TestMalformedDatasets:
    """Every malformed dataset file ends as a DataError, never a raw error."""

    @pytest.fixture
    def small(self, fitted):
        _, _, encoded = fitted
        return EncodedDataset(features=encoded.features[:4],
                              labels=encoded.labels[:4], schema=encoded.schema)

    @pytest.fixture
    def csv_lines(self, small, tmp_path):
        path = tmp_path / "small.csv"
        save_dataset(small, path, fmt="csv")
        return path, path.read_text().splitlines()

    def rewrite(self, path, lines):
        path.write_text("\n".join(lines) + "\n")
        return path

    def binary(self, small, tmp_path, header_edit=None, labels=None, features=None):
        header = {"format_version": DATASET_FORMAT_VERSION, "n": len(small),
                  "feature_dim": small.schema.feature_dim,
                  "schema": small.schema.to_dict(), "manifest": {}}
        if header_edit is not None:
            header = header_edit(header)
        path = tmp_path / "small.c2ds"
        write_binary(path, header,
                     small.labels if labels is None else labels,
                     small.features if features is None else features)
        return path

    def test_helper_writes_a_loadable_file(self, small, tmp_path):
        loaded = load_dataset(self.binary(small, tmp_path))
        assert np.array_equal(loaded.features, small.features)
        assert np.array_equal(loaded.labels, small.labels)

    def test_csv_bad_label(self, csv_lines):
        path, lines = csv_lines
        lines[3] = "x" + lines[3][lines[3].index(","):]
        with pytest.raises(DataError, match="line 4"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_bad_value(self, csv_lines):
        path, lines = csv_lines
        lines[2] = lines[2] + "oops"  # glued onto the last value
        with pytest.raises(DataError, match="line 3"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_wrong_field_count(self, csv_lines):
        path, lines = csv_lines
        lines[2] = lines[2] + ",0.5"
        with pytest.raises(DataError, match="line 3: expected"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_negative_label(self, csv_lines):
        path, lines = csv_lines
        lines[2] = "-1" + lines[2][lines[2].index(","):]
        with pytest.raises(DataError, match="nonnegative"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_label_past_the_classes(self, csv_lines):
        path, lines = csv_lines
        lines[2] = f"{NUM_CATEGORIES}" + lines[2][lines[2].index(","):]
        with pytest.raises(DataError, match=f"below {NUM_CATEGORIES}"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_non_finite_feature(self, csv_lines):
        path, lines = csv_lines
        lines[2] = lines[2][:lines[2].rindex(",")] + ",nan"
        with pytest.raises(DataError, match="finite"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_bad_json_header(self, csv_lines):
        path, lines = csv_lines
        lines[0] = '# {"schema": '
        with pytest.raises(DataError, match="not valid JSON"):
            load_dataset(self.rewrite(path, lines))

    @pytest.mark.parametrize("header", ['# {"schema": {}}', "# {}", "# [1, 2]",
                                        '# {"schema": {"vocabularies": [],'
                                        ' "numeric_min": {}, "numeric_max": {}}}'])
    def test_csv_header_lacking_schema_keys(self, csv_lines, header):
        path, lines = csv_lines
        lines[0] = header
        with pytest.raises(DataError, match="schema|JSON object"):
            load_dataset(self.rewrite(path, lines))

    def test_csv_without_column_header(self, csv_lines):
        path, lines = csv_lines
        with pytest.raises(DataError, match="column header"):
            load_dataset(self.rewrite(path, lines[:1]))

    def test_not_utf8_text(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_bytes(b"# \xff\xfe{}\n")
        with pytest.raises(DataError):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["n", "feature_dim"])
    def test_binary_header_missing_dimension(self, small, tmp_path, key):
        def drop(header):
            del header[key]
            return header
        with pytest.raises(DataError, match=key):
            load_dataset(self.binary(small, tmp_path, header_edit=drop))

    def test_binary_header_non_integer_dimension(self, small, tmp_path):
        def stringify(header):
            header["n"] = "4"
            return header
        with pytest.raises(DataError, match="'n'"):
            load_dataset(self.binary(small, tmp_path, header_edit=stringify))

    def test_binary_bad_json_header(self, small, tmp_path):
        path = tmp_path / "small.c2ds"
        write_binary(path, b'{"n": 4,', small.labels, small.features)
        with pytest.raises(DataError, match="not valid JSON"):
            load_dataset(path)

    def test_binary_header_lacking_schema_keys(self, small, tmp_path):
        def gut(header):
            header["schema"] = {}
            return header
        with pytest.raises(DataError, match="schema"):
            load_dataset(self.binary(small, tmp_path, header_edit=gut))

    def test_binary_negative_label(self, small, tmp_path):
        labels = small.labels.copy()
        labels[1] = -3
        with pytest.raises(DataError, match="nonnegative"):
            load_dataset(self.binary(small, tmp_path, labels=labels))

    def test_binary_label_past_the_classes(self, small, tmp_path):
        labels = small.labels.copy()
        labels[1] = 7
        with pytest.raises(DataError, match=f"below {NUM_CATEGORIES}"):
            load_dataset(self.binary(small, tmp_path, labels=labels))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_binary_non_finite_feature(self, small, tmp_path, bad):
        features = small.features.copy()
        features[2, 5] = bad
        with pytest.raises(DataError, match="finite"):
            load_dataset(self.binary(small, tmp_path, features=features))

    @pytest.mark.parametrize("bad", [-1e-9, 1.5])
    def test_binary_feature_outside_unit_interval(self, small, tmp_path, bad):
        features = small.features.copy()
        features[2, 5] = bad
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            load_dataset(self.binary(small, tmp_path, features=features))

    @pytest.mark.parametrize("bad", ["-0.25", "1.0000001"])
    def test_csv_feature_outside_unit_interval(self, csv_lines, bad):
        path, lines = csv_lines
        lines[2] = lines[2][:lines[2].rindex(",")] + "," + bad
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            load_dataset(self.rewrite(path, lines))


class TestAtomicWrites:
    """A write that fails midway leaves the old file and no temporary file."""

    class FailsMidway:
        """Feature rows that raise once the writer has written part of the
        file: the binary writer after the header and labels, the CSV writer
        after the header lines and the first row."""

        def __init__(self, rows):
            self.rows, self.shape = rows, rows.shape

        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

        def __iter__(self):
            yield self.rows[0]
            raise OSError("disk full")

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_failed_dataset_write_keeps_the_old_file(self, fitted, tmp_path, fmt):
        _, _, encoded = fitted
        path = tmp_path / "train.data"
        save_dataset(encoded, path, fmt=fmt)
        before = path.read_bytes()
        failing = EncodedDataset(features=encoded.features[:3], labels=encoded.labels[:3],
                                 schema=encoded.schema)
        failing.features = self.FailsMidway(failing.features)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(failing, path, fmt=fmt)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["train.data"]

    def test_failed_write_leaves_no_file_where_there_was_none(self, tmp_path):
        from c2bnvae.atomic import atomic_write

        path = tmp_path / "report.json"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("{partial")
                raise RuntimeError("killed")
        assert list(tmp_path.iterdir()) == []
