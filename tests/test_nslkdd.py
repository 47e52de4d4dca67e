import csv
import dataclasses
import io
import json
import struct
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from c2bnvae import nslkdd
from c2bnvae.cli import EXIT_DATA, main
from c2bnvae.errors import DataError, LabelError
from c2bnvae.experiment import ExperimentConfig, load_encoded, preprocess
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

    @pytest.mark.parametrize("fmt", DATASET_FORMATS)
    def test_loaded_dataset_is_read_only(self, corpus_files, tmp_path, fmt):
        # either format's run reads the binary files back
        train, test = corpus_files
        config = ExperimentConfig(train_path=str(train), test_path=str(test),
                                  out_dir=str(tmp_path), dataset_format=fmt)
        preprocess(config)
        for dataset in load_encoded(config):
            assert_read_only(dataset)

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

    @pytest.mark.parametrize("fmt", DATASET_FORMATS)
    def test_round_trip_keeps_every_bit(self, tmp_path, monkeypatch, fmt):
        # the CSV export is read back by the row-by-row csv.reader oracle,
        # since no loader of the package reads it
        read = reference.load_csv_dataset if fmt == "csv" else load_dataset
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
            loaded = read(path)
            assert loaded.labels.tolist() == labels.tolist()
            assert loaded.features.shape == features.shape
            assert (loaded.features.view(np.uint64).tolist()
                    == features.view(np.uint64).tolist())

        check()

    def test_csv_bytes_are_csv_writers(self, fitted, tmp_path, monkeypatch):
        # every byte of the export is what csv.writer writes for the label
        # and each float's repr; a cell's text follows its bit pattern, so
        # -0.0 and NaN keep theirs
        _, _, encoded = fitted
        monkeypatch.setattr(nslkdd, "CSV_BLOCK", 3)  # rows cross block boundaries
        path = tmp_path / "train.csv"
        edges = [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324, np.nan, -np.nan]
        values = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0), st.floats())
        corpus_rows = encoded.features[:7].copy()
        corpus_rows[0, :4] = [-0.0, 0.0, 1e-300, 0.1 + 0.2]
        corpus_rows[5, -1] = -0.0

        @st.composite
        def datasets(draw):
            n, d = draw(st.integers(0, 8)), draw(st.integers(0, 5))
            return (draw(arrays(np.float64, (n, d), elements=values)),
                    draw(arrays(np.int64, n, elements=st.integers(0, NUM_CATEGORIES - 1))))

        @settings(max_examples=100, deadline=None)
        @given(datasets())
        @example((np.zeros((0, 3)), np.zeros(0, dtype=np.int64)))
        @example((np.zeros((4, 0)), np.array([0, 4, 2, 1])))
        @example((np.zeros((0, 0)), np.zeros(0, dtype=np.int64)))
        @example((np.array([edges] * 4), np.array([4, 0, 3, 1])))
        @example((corpus_rows, encoded.labels[:7]))
        def check(drawn):
            features, labels = drawn
            schema = (encoded.schema if features is corpus_rows
                      else synthetic_schema(features.shape[1]))
            save_dataset(EncodedDataset(features, labels, schema), path, fmt="csv",
                         manifest={"seed": 1})
            meta = {"format_version": DATASET_FORMAT_VERSION,
                    "schema": schema.to_dict(), "manifest": {"seed": 1}}
            buf = io.StringIO(newline="")
            buf.write("# " + json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
            writer = csv.writer(buf)
            writer.writerow(["label"] + [f"f{i}" for i in range(features.shape[1])])
            for label, row in zip(labels.tolist(), features.tolist()):
                writer.writerow([label, *map(repr, row)])
            assert path.read_bytes() == buf.getvalue().encode()

        check()

    def test_csv_export_reads_back_to_the_binary_bits(self, corpus_files, tmp_path):
        # the whole corpus, more rows than one block: the row-by-row
        # csv.reader oracle reads the export back to the .c2ds file's bits
        train, test = corpus_files
        config = ExperimentConfig(train_path=str(train), test_path=str(test),
                                  out_dir=str(tmp_path), dataset_format="csv")
        preprocess(config)
        binary = load_dataset(config.encoded_paths()[0])
        assert len(binary) > nslkdd.CSV_BLOCK
        exported = reference.load_csv_dataset(config.encoded_paths()[0].with_suffix(".csv"))
        assert exported.schema == binary.schema
        assert exported.labels.tolist() == binary.labels.tolist()
        assert exported.features.tobytes() == binary.features.tobytes()

    def test_csv_export_holds_one_block_at_a_time(self, fitted, tmp_path):
        # exporting eight blocks of rows peaks no higher than one block
        # does, give or take: formatting the whole set at once would hold
        # every value of it as a Python string
        _, _, encoded = fitted
        peaks = []
        for blocks in (1, 8):
            rows = np.resize(np.arange(len(encoded)), blocks * nslkdd.CSV_BLOCK)
            dataset = EncodedDataset(encoded.features[rows], encoded.labels[rows],
                                     encoded.schema)
            tracemalloc.start()
            try:
                save_dataset(dataset, tmp_path / f"{blocks}.csv", fmt="csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

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

    @pytest.mark.parametrize("raw", [None, b"# \xff\xfe{}\n", b""],
                             ids=["csv export", "not utf-8", "empty"])
    def test_file_without_the_magic_says_to_rerun_preprocess(self, small, tmp_path, raw):
        # None: the CSV export of the same rows, which no loader reads back
        path = tmp_path / "small.csv"
        if raw is None:
            save_dataset(small, path, fmt="csv")
        else:
            path.write_bytes(raw)
        with pytest.raises(DataError) as caught:
            load_dataset(path)
        assert str(caught.value) == (f"{path} is not a binary dataset; rerun preprocess "
                                     f"to write the encoded .c2ds files")

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
