import csv
import dataclasses
import io
import json
import struct
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from c2bnvae import nslkdd
from c2bnvae.cli import EXIT_DATA, main
from c2bnvae.errors import DataError, LabelError
from c2bnvae.nslkdd import (CATEGORY_NAMES, CODED_INDICES, DATASET_FORMAT_VERSION,
                            DATASET_FORMATS, DATASET_MAGIC, FEATURE_NAMES, NUM_CATEGORIES,
                            NUMERIC_INDICES, EncodedDataset, EncodingSchema,
                            attack_labels, class_counts, default_taxonomy,
                            fit_schema, load_dataset, load_taxonomy, map_attack,
                            parse_records, read_records, save_dataset,
                            synthetic_schema, transform)

import corpus
import records_reference as reference
from helpers import CSV_TOKENS, JSON_TOKENS, TAXONOMY_TOKENS, file_mutations
from records_reference import assert_table_matches, table_column


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
        table = parse_records(first)
        assert len(table) == 1
        assert table.numeric.shape == (1, len(NUMERIC_INDICES))
        assert table.numeric.dtype == np.float64
        assert table_column(table, 1) == [first.split(",")[1]]  # protocol_type stays text

    def test_empty_stream(self):
        table = parse_records("")
        assert len(table) == 0
        assert table.numeric.shape == (0, len(NUMERIC_INDICES))
        assert table.values == ((), (), (), ())

    def test_wrong_field_count_names_line(self):
        good = ",".join(["0"] * 43)
        bad = ",".join(["0"] * 42)
        with pytest.raises(DataError, match="line 2"):
            parse_records(f"{good}\n{bad}\n")

    def test_non_numeric_numeric_field(self):
        fields = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "5"]
        fields[0] = "oops"
        with pytest.raises(DataError, match="duration"):
            parse_records(",".join(fields))

    @pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_numeric_field_names_line(self, text):
        good = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "5"]
        bad = list(good)
        bad[4] = text  # src_bytes
        with pytest.raises(DataError, match="line 2: field 'src_bytes' is not finite"):
            parse_records(",".join(good) + "\n" + ",".join(bad))

    def test_huge_finite_fields_parse(self):
        fields = ["0", "tcp", "http", "SF"] + ["1e308"] * 37 + ["normal", "5"]
        table = parse_records(",".join(fields))
        assert table.numeric[0, NUMERIC_INDICES.index(4)] == 1e308

    def test_difficulty_must_be_integer(self):
        fields = ["0", "tcp", "http", "SF"] + ["0"] * 37 + ["normal", "x"]
        with pytest.raises(DataError, match="difficulty"):
            parse_records(",".join(fields))

    def test_corpus_matches_reference(self, corpus_files):
        for path in corpus_files:
            assert_table_matches(read_records(path), reference.read_records(path))

    def test_values_in_order_of_first_appearance(self, corpus_files):
        table = read_records(corpus_files[0])
        for field in CODED_INDICES:
            column = table_column(table, field)
            assert table.values[CODED_INDICES.index(field)] == tuple(dict.fromkeys(column))

    def test_rows_select_records(self, splits):
        train, _ = splits
        rows = np.array([5, 0, 17, 5])
        picked = train[rows]
        assert picked.values == train.values
        assert np.array_equal(picked.numeric, train.numeric[rows])
        assert table_column(picked, 2) == [table_column(train, 2)[r] for r in rows]
        assert len(train[:20]) == 20

    @pytest.mark.parametrize("edit, message", [
        (lambda f: f[:-1], "line 5: expected 43"),
        (lambda f: f[:4] + ["x"] + f[5:], "line 5: field 'src_bytes' is not numeric: 'x'"),
        (lambda f: f[:6] + ["inf"] + f[7:-1] + ["x"], "line 5: field 'land' is not finite"),
        (lambda f: f[:-1] + ["1.5"], "line 5: difficulty is not an integer: '1.5'"),
    ])
    def test_first_bad_line_across_blocks(self, corpus_files, monkeypatch, edit, message):
        # blocks of 3 lines put the bad line in the second block, after a
        # blank line, and a worse line after it in the same block
        monkeypatch.setattr(nslkdd, "PARSE_BLOCK", 3)
        lines = corpus_files[0].read_text().splitlines()[:8]
        lines.insert(2, "   ")
        lines[4] = ",".join(edit(lines[4].split(",")))
        lines[5] = "0,tcp"
        text = "\n".join(lines) + "\n"
        with pytest.raises(DataError) as caught:
            parse_records(text)
        with pytest.raises(DataError) as expected:
            list(reference.parse_records(text))
        assert str(caught.value) == str(expected.value)
        assert str(caught.value).startswith(message)

    def test_blocks_join_into_one_table(self, corpus_files, monkeypatch):
        text = corpus_files[0].read_text()
        whole = parse_records(text)
        monkeypatch.setattr(nslkdd, "PARSE_BLOCK", 7)
        blocked = parse_records(text)
        assert blocked.values == whole.values
        assert np.array_equal(blocked.codes, whole.codes)
        assert blocked.numeric.tobytes() == whole.numeric.tobytes()


class TestTaxonomy:
    def test_default_covers_both_splits(self, splits):
        taxonomy = default_taxonomy()
        for table in splits:
            labels = attack_labels(table, taxonomy)
            assert labels.tolist() == [map_attack(name, taxonomy) for name in
                                       table_column(table, len(FEATURE_NAMES))]

    def test_first_unknown_attack_in_record_order(self, corpus_files):
        lines = corpus_files[0].read_text().splitlines()[:6]
        for i, name in ((2, "zeta_attack"), (4, "alpha_attack")):
            fields = lines[i].split(",")
            fields[-2] = name
            lines[i] = ",".join(fields)
        with pytest.raises(LabelError, match="zeta_attack"):
            attack_labels(parse_records("\n".join(lines)), default_taxonomy())

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

    @pytest.mark.parametrize("raw", [
        b"attack_name,category\nnormal,Normal\n\xff\n",  # not UTF-8
        b'attack_name,category\nnormal,Normal\n"' + b"x" * 131_073 + b'",DoS\n',
    ])
    def test_unreadable_file_names_it(self, tmp_path, raw):
        path = tmp_path / "tax.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="tax.csv"):
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
            fit_schema(parse_records(""))

    def test_matches_reference(self, corpus_files, splits):
        records = [reference.read_records(path) for path in corpus_files]
        rows = np.arange(0, len(splits[0]), 3)
        assert (fit_schema(splits[0], extra_vocab_records=splits[1], pad_to=123)
                == reference.fit_schema(records[0], records[1], pad_to=123))
        # a selection of rows keeps the file's values, but only the values
        # its records hold enter the vocabularies
        assert (fit_schema(splits[0][rows])
                == reference.fit_schema([records[0][r] for r in rows]))

    def test_pad_below_width_rejected(self, splits):
        with pytest.raises(DataError, match="pad_to"):
            fit_schema(splits[0], pad_to=10)

    def test_constant_column_flagged_and_maps_to_zero(self, splits, fitted):
        schema, taxonomy, encoded = fitted
        # the corpus keeps several columns constant at zero
        assert schema.numeric_min["num_outbound_cmds"] == schema.numeric_max["num_outbound_cmds"]
        (block,) = [b for b in schema.column_blocks() if b[0] == "num_outbound_cmds"]
        assert np.all(encoded.features[:, block[1]] == 0.0)


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

    def test_unknown_categorical_value_rejected(self, corpus_files, splits):
        train, _ = splits
        schema = fit_schema(train[:50])
        lines = corpus_files[0].read_text().splitlines()[:3]
        for i, (field, value) in enumerate([(3, "WEIRD_FLAG"), (1, "weird_proto"),
                                            (1, "other_proto")]):
            fields = lines[i].split(",")
            fields[field] = value
            lines[i] = ",".join(fields)
        hacked = parse_records("\n".join(lines))
        # the first block in column order, then the first record in it
        with pytest.raises(DataError, match="'weird_proto' of 'protocol_type'"):
            transform(hacked, schema, default_taxonomy())

    def test_matches_reference(self, corpus_files, splits):
        train, test = splits
        records = [reference.read_records(path) for path in corpus_files]
        schema = fit_schema(train, extra_vocab_records=test, pad_to=123)
        taxonomy = default_taxonomy()
        rows = np.arange(len(test))[::-2]
        for table, expected in ((train, records[0]), (test, records[1]),
                                (test[rows], [records[1][r] for r in rows])):
            encoded = transform(table, schema, taxonomy)
            want = reference.transform(expected, schema, taxonomy)
            assert encoded.features.tobytes() == want.features.tobytes()
            assert encoded.labels.tobytes() == want.labels.tobytes()

    def test_padding_appends_zero_columns(self, splits):
        train, test = splits
        schema = fit_schema(train, extra_vocab_records=test, pad_to=123)
        encoded = transform(train[:20], schema, default_taxonomy())
        assert encoded.features.shape[1] == 123
        pad_cols = encoded.features[:, schema.base_dim:]
        assert np.all(pad_cols == 0.0)


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


def assert_read_only(dataset: EncodedDataset) -> None:
    """Every write through ``dataset`` raises."""
    with pytest.raises(ValueError, match="read-only"):
        dataset.features[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        dataset.labels[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dataset.labels = dataset.labels[:1]


class TestDatasetInvariants:
    """The constructor owns the structural checks, and no write through a
    dataset can undo them."""

    def test_transform_output_is_read_only(self, fitted):
        assert_read_only(fitted[2])

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_loaded_dataset_is_read_only(self, fitted, tmp_path, fmt):
        path = tmp_path / "train.data"
        save_dataset(fitted[2], path, fmt=fmt)
        assert_read_only(load_dataset(path))

    def test_callers_arrays_stay_writeable(self):
        features, labels = np.zeros((2, 3)), np.array([0, 4])
        dataset = EncodedDataset(features, labels, synthetic_schema(3))
        assert_read_only(dataset)
        assert features.flags.writeable and labels.flags.writeable

    def test_two_d_labels_refused(self):
        with pytest.raises(DataError, match=r"labels \(2, 1\) are inconsistent"):
            EncodedDataset(np.zeros((2, 3)), np.zeros((2, 1), dtype=int), synthetic_schema(3))

    @pytest.mark.parametrize("label, message", [(NUM_CATEGORIES, "below 5, got 5"),
                                                (-1, "nonnegative, got -1")])
    def test_label_outside_the_categories_refused(self, label, message):
        with pytest.raises(DataError, match=f"labels must be {message}"):
            EncodedDataset(np.zeros((2, 3)), np.array([0, label]), synthetic_schema(3))


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

    @pytest.mark.parametrize("fmt", DATASET_FORMATS)
    def test_round_trip_keeps_every_bit(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(nslkdd, "CSV_BLOCK", 2)  # rows cross block boundaries
        path = tmp_path / "train.data"
        edges = [0.0, -0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0]
        values = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0))

        @st.composite
        def datasets(draw):
            n, d = draw(st.integers(0, 5)), draw(st.integers(0, 4))
            return (draw(arrays(np.float64, (n, d), elements=values)),
                    draw(arrays(np.int64, n, elements=st.integers(0, NUM_CATEGORIES - 1))))

        @settings(max_examples=100, deadline=None)
        @given(datasets())
        @example((np.zeros((0, 3)), np.zeros(0, dtype=np.int64)))
        @example((np.array([edges]), np.array([4])))
        @example((np.array([edges[::-1]] * 3), np.array([0, 2, 1])))
        def check(drawn):
            features, labels = drawn
            dataset = EncodedDataset(features, labels, synthetic_schema(features.shape[1]))
            save_dataset(dataset, path, fmt=fmt)
            loaded = load_dataset(path)
            assert loaded.labels.tolist() == labels.tolist()
            assert loaded.features.shape == features.shape
            assert (loaded.features.view(np.uint64).tolist()
                    == features.view(np.uint64).tolist())

        check()

    def test_csv_bytes_are_csv_writers(self, fitted, tmp_path, monkeypatch):
        _, _, encoded = fitted
        features = encoded.features[:7].copy()
        features[0, :4] = [-0.0, 0.0, 1e-300, 0.1 + 0.2]
        features[5, -1] = -0.0
        dataset = EncodedDataset(features=features, labels=encoded.labels[:7],
                                 schema=encoded.schema)
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["label"] + [f"f{i}" for i in range(features.shape[1])])
        for label, row in zip(dataset.labels, features):
            writer.writerow([int(label), *map(repr, row.tolist())])
        monkeypatch.setattr(nslkdd, "CSV_BLOCK", 3)  # three blocks, the last short
        path = tmp_path / "train.csv"
        save_dataset(dataset, path, fmt="csv")
        head, body = path.read_bytes().split(b"\n", 1)
        assert head.startswith(b"# {")
        assert body == buf.getvalue().encode()

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
        after the header lines."""

        def __init__(self, rows):
            self.rows, self.shape = rows, rows.shape

        def __array__(self, *args, **kwargs):
            raise OSError("disk full")

        def __getitem__(self, rows):
            raise OSError("disk full")

    class FailingDataset:
        """A stand-in for a dataset whose features are ``FailsMidway``; a
        real ``EncodedDataset`` reads its arrays when it is built."""

        def __init__(self, dataset, rows):
            self.features = TestAtomicWrites.FailsMidway(dataset.features[:rows])
            self.labels, self.schema = dataset.labels[:rows], dataset.schema

        def __len__(self):
            return len(self.labels)

    @pytest.mark.parametrize("fmt", ["binary", "csv"])
    def test_failed_dataset_write_keeps_the_old_file(self, fitted, tmp_path, fmt):
        _, _, encoded = fitted
        path = tmp_path / "train.data"
        save_dataset(encoded, path, fmt=fmt)
        before = path.read_bytes()
        failing = self.FailingDataset(encoded, 3)
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


class TestCsvFuzz:
    """Every mutation of a valid CSV dataset either loads or ends as a
    DataError, and ``run-all`` over such a file exits 2."""

    def test_csv_loads_or_is_data_error(self, tmp_path_factory):
        rng = np.random.default_rng(5)
        tiny = EncodedDataset(features=rng.random((5, 3)), labels=np.array([0, 4, 1, 0, 2]),
                              schema=synthetic_schema(3))
        root = tmp_path_factory.mktemp("csv_fuzz")
        (root / "encoded").mkdir()
        path = root / "encoded" / "train.csv"
        save_dataset(tiny, path, fmt="csv", manifest={"seed": 7})
        raw = path.read_bytes()
        save_dataset(tiny, root / "encoded" / "test.csv", fmt="csv")
        config = root / "config.json"
        config.write_text(json.dumps({"out_dir": str(root), "dataset_format": "csv"}))

        lines = raw.split(b"\n")  # the comment, the column names, five rows

        def first_row(text: bytes) -> bytes:
            return b"\n".join(lines[:2] + [text] + lines[3:])

        @settings(max_examples=400, deadline=None)
        @given(file_mutations(raw, CSV_TOKENS))
        @example(first_row(b"9" * 25 + lines[2][1:]))  # a label past 64 bits
        @example(first_row(b"0," + b"1" * 200_000 + b",0,0"))  # an overlong field
        @example(first_row(lines[2].replace(b",", b"\x00,", 1)))
        def check(mutated):
            path.write_bytes(mutated)
            try:
                load_dataset(path)
            except DataError:
                assert main(["run-all", "--config", str(config)]) == EXIT_DATA

        check()


class TestCsvBlocks:
    """``load_dataset`` reads a CSV dataset in blocks of rows, one
    ``np.loadtxt`` call each, and refuses every line that is not a row as
    ``save_dataset`` writes one. Whatever it loads, reading the file one
    ``csv.reader`` row at a time (``records_reference.load_csv_dataset``)
    loads the same; whatever that reader refuses, it refuses."""

    @pytest.fixture
    def csv_run(self, tmp_path, monkeypatch):
        """A seven-row CSV training split read in four blocks, the last
        short, its file lines split at the row ends, and a ``run-all``
        config over it."""
        rng = np.random.default_rng(11)
        features = rng.random((7, 3))
        features[2, 1], features[4, 0] = -0.0, 1e-300
        tiny = EncodedDataset(features=features, labels=np.array([0, 4, 1, 0, 2, 3, 1]),
                              schema=synthetic_schema(3))
        (tmp_path / "encoded").mkdir()
        path = tmp_path / "encoded" / "train.csv"
        save_dataset(tiny, path, fmt="csv", manifest={"seed": 7})
        save_dataset(tiny, tmp_path / "encoded" / "test.csv", fmt="csv")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path), "dataset_format": "csv"}))
        monkeypatch.setattr(nslkdd, "CSV_BLOCK", 2)
        # the comment ends in \n, the column names and each row in \r\n
        comment, rest = path.read_bytes().split(b"\n", 1)
        return path, [comment] + rest.split(b"\r\n"), config

    @staticmethod
    def edited(lines: list[bytes], *edits: tuple[int, bytes]) -> bytes:
        """The file of ``lines`` with file line ``k`` replaced by ``text``
        for each ``(k, text)`` of ``edits``."""
        edited = list(lines)
        for k, text in edits:
            edited[k - 1] = text
        return edited[0] + b"\n" + b"\r\n".join(edited[1:])

    def test_loads_only_what_row_by_row_loads(self, csv_run):
        path, lines, _ = csv_run
        raw = self.edited(lines)

        @settings(max_examples=300, deadline=None)
        @given(file_mutations(raw, CSV_TOKENS))
        @example(raw)
        @example(self.edited(lines, (8, b"1,0.5,0.5,0.5\x1c")))  # np.loadtxt's whitespace
        @example(self.edited(lines, (9, b"0,nan,0.5,0.5")))
        @example(self.edited(lines, (9, b"0,0.5,0.5")) + b"\r\n0,0.5,0.5,0.5,0.5")
        @example(raw.replace(b",", b",\xff", 3))  # not UTF-8
        def check(mutated):
            path.write_bytes(mutated)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a malformed file raises, and says nothing else
                try:
                    loaded = load_dataset(path)
                except DataError:
                    return
            expected = reference.load_csv_dataset(path)
            assert loaded.labels.tolist() == expected.labels.tolist()
            assert (loaded.features.view(np.uint64).tolist()
                    == expected.features.view(np.uint64).tolist())

        check()

    NOT_A_NUMBER = "the label or a feature is not a number"

    @pytest.mark.parametrize("edits, refusal", [
        ([(7, b'1,"0.5",0.25,0')], f"line 7: {NOT_A_NUMBER}"),
        ([(7, b'1,"0.5\n",0.25,0')], "line 7: expected 4 fields, got 2"),  # over two lines
        ([(8, b'1,"0.5\n",0.25,0')], "line 8: expected 4 fields, got 2"),  # and two blocks
        ([(2, b'"label\nx",f0,f1,f2')],  # the column names over two lines
         "line 2: the column header is not label,f0,f1,f2"),
        ([(8, b" 1 ,0.5 ,\t0.5,0.5")], f"line 8: {NOT_A_NUMBER}"),  # int and float read it
        ([(8, b"1,0.5,0.5,0.5\x1c")], f"line 8: {NOT_A_NUMBER}"),  # only np.loadtxt reads it
        ([(6, b"1_0,0.5,0.5,0.5")], f"line 6: {NOT_A_NUMBER}"),  # only int reads this label
        ([(6, b"0,0.5_0,0.5,0.5")], f"line 6: {NOT_A_NUMBER}"),  # only float reads this
        ([(6, "\u0663,0.5,0.5,0.5".encode())], f"line 6: {NOT_A_NUMBER}"),  # Arabic-Indic
        ([(6, "0,0.5,\u0663,0.5".encode())], f"line 6: {NOT_A_NUMBER}"),
        ([(6, b"")], "line 6: expected 4 fields, got 1"),  # a blank line
        ([(5, b""), (6, b"")], "line 5: expected 4 fields, got 1"),  # a block of them
        ([(5, b"0,0.5,0.5,0.5\x00")], f"line 5: {NOT_A_NUMBER}"),
        ([(8, b"0,0.5,0.5,0." + b"1" * 200_000)],  # past csv.field_size_limit() too
         "line 8: longer than 24 characters a field"),
        ([(8, b"9" * 25 + b",0.5,0.5,0.5")], f"line 8: {NOT_A_NUMBER}"),  # past 64 bits
        ([(3, b"0,x,0.5,0.5"), (6, b"")], f"line 3: {NOT_A_NUMBER}"),  # the first is named
    ])
    def test_refused_line_is_named(self, csv_run, capsys, edits, refusal):
        path, lines, config = csv_run
        path.write_bytes(self.edited(lines, *edits))
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == f"{path} {refusal}"
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert f"{path} {refusal}" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")  # the default filters hide it
    @pytest.mark.parametrize("truncating", [False, True])
    @pytest.mark.parametrize("label", [b"1.5", b"1.9", b"4e0", b"1.0"])
    def test_label_that_is_not_an_integer_is_named(self, csv_run, capsys, monkeypatch,
                                                   label, truncating):
        path, lines, config = csv_run
        if truncating:
            # as numpy's int64 parser was before its deprecation expired: a
            # label such as 1.5 read as a float and truncated, with a warning
            loadtxt = np.loadtxt

            def truncating_loadtxt(rows, **kwargs):
                split = [row.partition(",") for row in rows]
                if any(not head.lstrip("+-").isdigit() for head, _, _ in split):
                    warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                                  DeprecationWarning)
                    rows = [str(int(float(head))) + sep + tail for head, sep, tail in split]
                return loadtxt(rows, **kwargs)

            monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path.write_bytes(self.edited(lines, (6, label + b",0.5,0.5,0.5")))
        refusal = f"{path} line 6: {self.NOT_A_NUMBER}"
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == refusal
        assert main(["run-all", "--config", str(config)]) == EXIT_DATA
        assert refusal in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", [None, 290])
    def test_bytes_past_utf8_raise_where_row_by_row_meets_them(self, tmp_path, bad_row):
        # 300 rows are past the 8 KiB a text file decodes at a time, and
        # inside one block of rows; a bad row after the bytes is never reached
        dataset = EncodedDataset(features=np.random.default_rng(3).random((300, 3)),
                                 labels=np.arange(300) % 5, schema=synthetic_schema(3))
        path = tmp_path / "train.csv"
        save_dataset(dataset, path, fmt="csv")
        lines = path.read_bytes().split(b"\r\n")
        if bad_row is not None:
            lines[bad_row + 1] = b"0,x,0.5,0.5"
        path.write_bytes(b"\r\n".join(lines[:200] + [b"\xe2"] + lines[200:]))
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == f"{path} is neither a binary dataset nor a text CSV"
        with pytest.raises(DataError) as oracle:
            reference.load_csv_dataset(path)
        assert str(oracle.value) == str(caught.value)


class TestRecordAndSchemaFuzz:
    """Every mutation of a raw record file or a taxonomy file either loads or
    ends as a DataError, and ``preprocess`` over any of them exits 0 or 2; a
    record file parses as the reference parser parses it. Every mutation of
    a schema file loads or ends as a DataError."""

    def test_raw_records_parse_or_are_data_error(self, corpus_files, tmp_path_factory):
        train, test = corpus_files
        root = tmp_path_factory.mktemp("record_fuzz")
        raw = b"".join(train.read_bytes().splitlines(keepends=True)[:6])
        small_test = root / "test.txt"
        small_test.write_bytes(b"".join(test.read_bytes().splitlines(keepends=True)[:6]))
        path = root / "train.txt"
        config = root / "config.json"
        config.write_text(json.dumps({"train_path": str(path), "test_path": str(small_test),
                                      "out_dir": str(root / "out")}))

        first = raw.split(b"\n", 1)[0]

        def first_line(edit) -> bytes:
            fields = first.split(b",")
            edit(fields)
            return raw.replace(first, b",".join(fields), 1)

        # the same table as the reference parser's records, or the same error;
        # preprocess exits 2 on any error
        @settings(max_examples=300, deadline=None)
        @given(file_mutations(raw, CSV_TOKENS))
        @example(raw.replace(b",", b",\xff", 1))  # not UTF-8
        @example(raw.replace(b"\n", b"\r", 1))  # an old Mac line end
        @example(first_line(lambda f: f.__setitem__(-1, str(2 ** 64).encode())))  # 65 bits
        @example(first_line(lambda f: f.__setitem__(0, b"1_000")))
        @example(raw.replace(b",", b"\x0b,", 1))  # a line break to str.splitlines()
        @example(b"")
        # a bad line decodes before the bytes that are not UTF-8: its error wins
        @example(first_line(lambda f: f.__setitem__(0, b"=")) + b"\xe2")
        def check(mutated):
            path.write_bytes(mutated)
            try:
                expected = reference.read_records(path)
            except DataError as exc:
                with pytest.raises(DataError) as caught:
                    read_records(path)
                assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
                assert main(["preprocess", "--config", str(config)]) == EXIT_DATA
            else:
                assert_table_matches(read_records(path), expected)
                assert main(["preprocess", "--config", str(config)]) in (0, EXIT_DATA)

        check()

    def test_taxonomy_loads_or_is_data_error(self, corpus_files, tmp_path_factory):
        train, test = corpus_files
        root = tmp_path_factory.mktemp("taxonomy_fuzz")
        for source, name in ((train, "train.txt"), (test, "test.txt")):
            (root / name).write_bytes(
                b"".join(source.read_bytes().splitlines(keepends=True)[:6]))
        path = root / "taxonomy.csv"
        raw = (resources.files("c2bnvae.data") / "nslkdd_taxonomy.csv").read_bytes()
        config = root / "config.json"
        config.write_text(json.dumps({"train_path": str(root / "train.txt"),
                                      "test_path": str(root / "test.txt"),
                                      "taxonomy_path": str(path),
                                      "out_dir": str(root / "out")}))

        @settings(max_examples=300, deadline=None)
        @given(file_mutations(raw, TAXONOMY_TOKENS))
        @example(raw + b"\xff\n")  # not UTF-8
        @example(raw + b'"' + b"x" * 131_073 + b'",DoS\n')  # past the csv field limit
        def check(mutated):
            path.write_bytes(mutated)
            try:
                load_taxonomy(path)
            except DataError:
                assert main(["preprocess", "--config", str(config)]) == EXIT_DATA
            else:
                assert main(["preprocess", "--config", str(config)]) in (0, EXIT_DATA)

        check()

    def test_schema_loads_or_is_data_error(self, fitted, tmp_path_factory):
        # a schema enters only through a dataset header: mutate the JSON of
        # a binary dataset's header, which holds the schema, over empty arrays
        schema, _, _ = fitted
        path = tmp_path_factory.mktemp("schema_fuzz") / "empty.c2ds"
        save_dataset(EncodedDataset(np.zeros((0, schema.feature_dim)),
                                    np.zeros(0, dtype=np.int64), schema),
                     path, manifest={"seed": 7})
        raw = path.read_bytes()
        (head_len,) = struct.unpack_from("<Q", raw, 8)
        head, blocks = raw[16:16 + head_len], raw[16 + head_len:]

        @settings(max_examples=300, deadline=None)
        @given(file_mutations(head, JSON_TOKENS))
        @example(b"[" * 100_000 + b"]" * 100_000)  # past the parser's recursion limit
        def check(mutated):
            path.write_bytes(raw[:8] + struct.pack("<Q", len(mutated)) + mutated + blocks)
            try:
                load_dataset(path)
            except DataError:
                pass

        check()
