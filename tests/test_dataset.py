import math
import os
import re
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclonids import dataset as dataset_mod
from cyclonids.dataset import (CATEGORICAL, LABEL, NUMERIC, CategoricalEncoder, Dataset,
                               DatasetSchema, class_distribution, encode_categoricals,
                               holdout_rows, kdd99_schema, load_csv, nslkdd_schema,
                               schema_by_name, split, synthetic_schema, ugransome_schema,
                               write_csv)
from cyclonids.errors import ConfigError, DataError
from cyclonids.synthgen import SynthConfig, gen_classification
from oracles import (decode_columns, raw_columns, raw_dataset, reference_load_csv,
                     reference_read_synthetic_schema)

UGRANSOME_ROW = "SS, WannaCry, 60.0, 400, 1, 1dice6yg, 4ePEyKtk, 5062, Bonet, 1819000, A, AF, TCP, 40"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _kdd_row(label="neptune.", n_fields=42):
    fields = ["0", "tcp", "http", "SF"] + ["1"] * 37 + [label]
    return ",".join(fields[:n_fields])


# ---------------------------------------------------------------- schemas

def test_schema_arities():
    assert kdd99_schema().arity == 42
    assert nslkdd_schema().arity == 43
    assert ugransome_schema().arity == 14


def test_ugransome_class_names():
    assert set(ugransome_schema().class_names) == {"Signature", "SyntheticSignature", "Anomaly"}


def test_schema_by_name_unknown():
    with pytest.raises(ConfigError):
        schema_by_name("mystery")


# ---------------------------------------------------------------- load_csv

def test_load_ugransome_example_row(tmp_path):
    path = _write(tmp_path, "ug.csv", UGRANSOME_ROW + "\n")
    raw = load_csv(path, ugransome_schema())
    assert raw.n == 1
    schema = ugransome_schema()
    assert schema.class_names[raw.labels[0]] == "SyntheticSignature"
    names = [c.name for c in schema.feature_columns()]
    row = {name: col[0] for name, col in zip(names, decode_columns(raw))}
    assert row["port"] == 5062.0
    assert row["protocol"] == "TCP"
    assert row["timestamp"] == 40.0
    assert row["btc"] == 60.0
    assert row["ransomware"] == "WannaCry"


def test_each_token_column_has_its_own_table_and_int32_codes(tmp_path):
    # protocol_type and service both hold "tcp"; padded spellings of a token share its code.
    pairs = [("udp", " tcp"), (" tcp", "http"), ("tcp ", "tcp"), ("tcp", "udp ")]
    rows = [",".join(["0", proto, service, "SF"] + ["1"] * 37 + ["neptune."]) for proto, service in pairs]
    raw = load_csv(_write(tmp_path, "kdd.csv", "\n".join(rows) + "\n"), kdd99_schema())
    assert raw.tokens == [["udp", "tcp"], ["tcp", "http", "udp"], ["SF"]]
    codes = [raw_columns(raw)[i] for i in (1, 2, 3)]
    assert [c.dtype for c in codes] == [np.dtype(np.int32)] * 3
    assert [c.tolist() for c in codes] == [[0, 1, 1, 1], [0, 1, 0, 2], [0, 0, 0, 0]]


def test_load_grouped_digits(tmp_path):
    grouped = UGRANSOME_ROW.replace("1819000", "1819 000")
    path = _write(tmp_path, "ug.csv", grouped + "\n")
    raw = load_csv(path, ugransome_schema())
    names = [c.name for c in ugransome_schema().feature_columns()]
    traffic = raw_columns(raw)[names.index("network_traffic")]
    assert traffic[0] == 1819000.0


def test_load_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(DataError, match="empty"):
        load_csv(path, ugransome_schema())


def test_load_missing_file(tmp_path):
    with pytest.raises(DataError, match="missing"):
        load_csv(str(tmp_path / "nope.csv"), ugransome_schema())


def test_load_arity_mismatch(tmp_path):
    path = _write(tmp_path, "kdd.csv", _kdd_row(n_fields=41) + "\n")
    with pytest.raises(DataError, match="expected 42.*got 41"):
        load_csv(path, kdd99_schema())


def test_load_unknown_label(tmp_path):
    path = _write(tmp_path, "kdd.csv", _kdd_row(label="warpdrive.") + "\n")
    with pytest.raises(DataError, match="warpdrive"):
        load_csv(path, kdd99_schema())


def test_kdd_label_trailing_period_maps_to_category(tmp_path):
    path = _write(tmp_path, "kdd.csv", _kdd_row(label="neptune.") + "\n" + _kdd_row(label="normal") + "\n")
    raw = load_csv(path, kdd99_schema())
    names = list(kdd99_schema().class_names)
    assert names[raw.labels[0]] == "DoS"
    assert names[raw.labels[1]] == "Normal"


def test_header_autodetect(tmp_path):
    schema = ugransome_schema()
    header = ",".join(c.name for c in sorted(schema.columns, key=lambda c: c.position))
    with_header = _write(tmp_path, "h.csv", header + "\n" + UGRANSOME_ROW + "\n")
    without = _write(tmp_path, "n.csv", UGRANSOME_ROW + "\n")
    a = load_csv(with_header, schema)
    b = load_csv(without, schema)
    assert a.n == b.n == 1
    assert a.labels.tolist() == b.labels.tolist()


@pytest.mark.parametrize("layout", ["kdd99", "ugransome"])
def test_first_row_with_one_malformed_number_is_rejected_not_taken_as_a_header(tmp_path, layout):
    # A first record is a header only when none of its numeric fields parses.
    if layout == "kdd99":
        rows = [_kdd_row(("neptune.", "normal.")[i % 2]) for i in range(5)]
        rows[0] = rows[0].replace("SF,1,", "SF,?,", 1)  # src_bytes, field 5
    else:
        rows = [UGRANSOME_ROW] * 5
        rows[0] = UGRANSOME_ROW.replace("5062", "not-a-port")
    path = _write(tmp_path, "first.csv", "\n".join(rows) + "\n")
    raw = load_csv(path, schema_by_name(layout))
    assert (raw.n, raw.rejected_rows) == (4, [1])
    _assert_same_load(raw, reference_load_csv(path, schema_by_name(layout)), path)


def test_bad_numeric_rows_rejected_with_line_numbers(tmp_path):
    bad = UGRANSOME_ROW.replace("5062", "not-a-port")
    path = _write(tmp_path, "ug.csv", UGRANSOME_ROW + "\n" + bad + "\n" + UGRANSOME_ROW + "\n")
    raw = load_csv(path, ugransome_schema())
    assert raw.n == 2
    assert raw.rejected_rows == [2]


def test_nan_inf_fields_rejected(tmp_path):
    rows = [UGRANSOME_ROW,
            UGRANSOME_ROW.replace("60.0", "nan"),
            UGRANSOME_ROW.replace("400", "1e999")]
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    raw = load_csv(path, ugransome_schema())
    assert raw.n == 1
    assert raw.rejected_rows == [2, 3]


def test_nslkdd_drops_difficulty(tmp_path):
    row = _kdd_row(label="smurf") + ",21"
    path = _write(tmp_path, "nsl.csv", row + "\n")
    raw = load_csv(path, nslkdd_schema())
    assert len(raw_columns(raw)) == 41  # difficulty gone, label separate


def test_synthetic_schema_is_inferred_from_the_header(tmp_path):
    path = _write(tmp_path, "s.csv", "f0,f1,label\n0.5,1.5,b\n0.25,-1.0, a \n1.0,2.0,b\n")
    raw = load_csv(path, None)
    assert raw.schema == synthetic_schema(["f0", "f1"], ["a", "b"])
    assert raw.labels.tolist() == [1, 0, 1]
    assert [col.tolist() for col in raw_columns(raw)] == [[0.5, 0.25, 1.0], [1.5, -1.0, 2.0]]


def test_synthetic_labels_ending_in_a_period_are_classes(tmp_path):
    path = _write(tmp_path, "s.csv", "f0,label\n0.5,x.\n1.5,y.\n2.5,x.\n")
    raw = load_csv(path, None)
    assert raw.schema.class_names == ("x.", "y.")
    assert raw.labels.tolist() == [0, 1, 0]


def test_synthetic_labels_differing_in_case_are_distinct_classes(tmp_path):
    path = _write(tmp_path, "s.csv", "f0,label\n0.5,Normal\n1.5,normal\n2.5,Attack\n3.5,Normal\n")
    raw = load_csv(path, None)
    assert raw.schema.class_names == ("Attack", "Normal", "normal")
    assert raw.labels.tolist() == [1, 2, 0, 1]


@pytest.mark.parametrize("labels", [["Normal", "normal", "Attack", "Normal"], ["x.", "y.", "x."]])
def test_reloading_with_the_inferred_schema_keeps_the_labels(tmp_path, labels):
    rows = "".join(f"{i}.5,{label}\n" for i, label in enumerate(labels))
    path = _write(tmp_path, "s.csv", "f0,label\n" + rows)
    inferred = load_csv(path, None)
    reloaded = load_csv(path, inferred.schema)
    assert reloaded.schema == inferred.schema
    assert reloaded.labels.tolist() == inferred.labels.tolist()


def test_synthetic_whitespace_line_adds_no_class(tmp_path):
    path = _write(tmp_path, "s.csv", "f0,label\n0.5,a\n   \n1.5,b\n")
    raw = load_csv(path, None)
    assert raw.schema.class_names == ("a", "b")
    assert raw.labels.tolist() == [0, 1]


@pytest.mark.parametrize("blank", ["", "   "])
def test_blank_synthetic_label_is_an_unknown_label(tmp_path, blank):
    path = _write(tmp_path, "s.csv", f"f0,f1,label\n1,2,a\n3,4,{blank}\n5,6,b\n7,8,a\n")
    with pytest.raises(DataError, match=r"^unknown label '' at row 3$"):
        load_csv(path, None)
    with pytest.raises(DataError, match=r"^unknown label '' at row 3$"):
        reference_load_csv(path, reference_read_synthetic_schema(path))


def test_synthetic_header_naming_a_column_twice_is_an_error(tmp_path):
    path = _write(tmp_path, "s.csv", "a,a,label\n0.5,1.5,x\n0.25,-1.0,y\n")
    with pytest.raises(DataError, match=r"line 1 names column 'a' twice"):
        load_csv(path, None)


def _write_with_bom(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    return str(path)


def test_byte_order_mark_does_not_make_the_first_kdd_row_a_header(tmp_path):
    rows = [_kdd_row(("neptune.", "normal.")[i % 2]) for i in range(50)]
    raw = load_csv(_write_with_bom(tmp_path, "kdd.csv", "\n".join(rows) + "\n"), kdd99_schema())
    assert raw.n == 50
    assert raw.rejected_rows == []
    assert raw_columns(raw)[0][0] == 0.0


def test_byte_order_mark_is_not_part_of_the_first_ugransome_label(tmp_path):
    rows = [UGRANSOME_ROW.replace("SS,", label + ",", 1) for label in ("S", "A", "SS")]
    raw = load_csv(_write_with_bom(tmp_path, "ug.csv", "\n".join(rows) + "\n"), ugransome_schema())
    assert [raw.class_names[code] for code in raw.labels] == ["Signature", "Anomaly", "SyntheticSignature"]


def test_byte_order_mark_is_not_part_of_the_first_synthetic_feature_name(tmp_path):
    raw = load_csv(_write_with_bom(tmp_path, "s.csv", "f0,f1,label\n0.5,1.5,a\n0.25,-1.0,b\n"), None)
    assert raw.schema == synthetic_schema(["f0", "f1"], ["a", "b"])


# ---------------------------------------------------------------- reference loader

_BAD_NUMERIC = ("nan", "NaN", "-inf", "inf", "1e999", "?", "", "-", "1.2.3", "0x1f", "n/a")
_TOKENS = ("tcp", "udp", "ICMP", " http ", "a b", '"x,y"', "SF")
_SYNTHETIC_CLASSES = ("c0", "c1", "c2", "attack", "Normal", "dos_1", "x y", "", "C-9")


def _numeric_token(rng) -> str:
    kind = rng.integers(8)
    if kind == 0:
        return f"{int(rng.integers(1000, 10**7)):,}".replace(",", " ")  # grouped digits
    if kind == 1:
        return f" {int(rng.integers(0, 600))} "
    if kind == 2:
        return str(int(rng.integers(-5, 5)))
    return repr(float(rng.normal(0.0, 10.0 ** int(rng.integers(0, 6)))))


def _random_label(rng, schema) -> str:
    if schema.id == "ugransome":
        label = str(rng.choice(sorted(schema.label_map)))
    else:
        label = str(rng.choice(sorted(schema.label_map))) + ("." if rng.random() < 0.7 else "")
    label = (label, label.upper(), label.title())[int(rng.integers(3))]
    return " " + label if rng.random() < 0.2 else label


def _random_csv(rng, layout: str) -> str:
    """Text of one CSV in the given layout with the quirks the loader handles."""
    n_rows = int(rng.integers(0, 40))
    if layout == "synthetic":
        # as `cyclonids gen` writes it; blank lines only after the header
        p = int(rng.integers(1, 6))
        classes = rng.choice(_SYNTHETIC_CLASSES, size=int(rng.integers(1, 4)), replace=False)
        lines = [",".join([f"f{i}" for i in range(p)] + ["label"])]
        for _ in range(n_rows):
            fields = [_numeric_token(rng) for _ in range(p)]
            if rng.random() < 0.15:
                fields[int(rng.integers(p))] = str(rng.choice(_BAD_NUMERIC))
            label = str(rng.choice(classes))
            lines.append(",".join(fields + [" " + label if rng.random() < 0.2 else label]))
            if rng.random() < 0.1:
                lines.append("")
    else:
        schema = schema_by_name(layout)
        cols = sorted(schema.columns, key=lambda c: c.position)
        lines = [",".join(c.name for c in cols)] if rng.random() < 0.5 else []
        numeric = [c.position for c in schema.feature_columns() if c.kind == NUMERIC]
        for _ in range(n_rows):
            fields = []
            for c in cols:
                if c.kind == LABEL:
                    fields.append(_random_label(rng, schema))
                elif c.kind == CATEGORICAL:
                    fields.append(str(rng.choice(_TOKENS)))
                elif c.position in schema.drop_columns:
                    fields.append(str(rng.choice(["21", "?", " 3 "])))
                else:
                    fields.append(_numeric_token(rng))
            if rng.random() < 0.15:
                fields[int(rng.choice(numeric))] = str(rng.choice(_BAD_NUMERIC))
            if rng.random() < 0.005:
                fields[schema.label_position] = "warpdrive."
            if rng.random() < 0.005:
                fields.pop()
            lines.append(",".join(fields))
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "   "])))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + (end if rng.random() < 0.8 else "")


def _load_or_error(load, *args):
    try:
        return load(*args)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("layout", ["kdd99", "nslkdd", "ugransome", "synthetic"])
def test_one_pass_loader_matches_the_reference_loader(tmp_path, layout):
    rng = np.random.default_rng(["kdd99", "nslkdd", "ugransome", "synthetic"].index(layout))
    schema = None if layout == "synthetic" else schema_by_name(layout)
    outcomes = set()
    for i in range(80):
        path = _write(tmp_path, f"{i}.csv", _random_csv(rng, layout))
        expected = _load_or_error(
            lambda: reference_load_csv(path, schema or reference_read_synthetic_schema(path)))
        got = _load_or_error(load_csv, path, schema)
        if isinstance(expected, str):
            assert got == expected, path
            outcomes.add("error")
            continue
        _assert_same_load(got, expected, path)
        outcomes.add("rejected" if got.rejected_rows else "clean")
    assert outcomes == {"error", "rejected", "clean"}


def _assert_same_load(got, expected, path):
    """Same schema, labels, rejected lines and column bytes as the reference loader."""
    assert got.schema == expected.schema, path
    assert got.labels.dtype == np.int64 and got.labels.tobytes() == expected.labels.tobytes()
    assert got.rejected_rows == expected.rejected_rows, path
    assert len(raw_columns(got)) == len(expected.columns)
    for mine, ref in zip(decode_columns(got), expected.columns):
        assert mine.dtype == ref.dtype, path
        if ref.dtype == object:
            assert mine.tolist() == ref.tolist(), path
        else:
            assert mine.tobytes() == ref.tobytes(), path


# Fields the float memo must treat as _parse_numeric does: rejected ('?',
# 'nan', '1e999'), signed zeros, grouped digits and padding.
_QUIRK_ROWS = (["?"], ["nan"], ["1e999"], ["-0", "0"], ["1 000"], [" 12 "])
_KDD_NUMERIC = 38  # numeric columns of the KDD99 layout: all but 3 token columns and the label


def _memo_csv(rng, regime: str) -> str:
    """KDD99 text of more than 256 rows in one regime of the float memo."""
    repetitive = lambda: [str(rng.choice(["0", "1", "2", "0.00", "0.50", "1.00", "255"]))
                          for _ in range(_KDD_NUMERIC)]
    distinct = lambda: [repr(float(v)) for v in rng.normal(0.0, 1e3, _KDD_NUMERIC)]
    if regime == "repetitive":
        rows = [repetitive() for _ in range(1000)]
    elif regime == "distinct":
        rows = [distinct() for _ in range(1000)]
    else:  # past the cap after a repetitive start, so the memo empties itself
        rows = [repetitive() for _ in range(256)]
        rows += [distinct() for _ in range(dataset_mod._MEMO_CAP // _KDD_NUMERIC + 50)]
    for at in (5, 256 + 20, len(rows) - 3):  # near the start, the middle and the end
        base = rows[at]
        for quirk in _QUIRK_ROWS:
            row, i = list(base), int(rng.integers(_KDD_NUMERIC - 1))
            row[i:i + len(quirk)] = quirk
            rows.insert(at, row)
    labels = rng.choice(["normal.", "smurf.", "neptune"], len(rows))
    return "".join(",".join([row[0], *rng.choice(_TOKENS, 3), *row[1:], label]) + "\n"
                   for row, label in zip(rows, labels))


@pytest.mark.parametrize("regime", ["repetitive", "distinct", "evicting"])
def test_float_memo_matches_the_reference_loader(tmp_path, monkeypatch, regime):
    misses = []

    class CountingMemo(dataset_mod._FloatMemo):
        def __missing__(self, token):
            misses.append(len(self))
            return super().__missing__(token)

    monkeypatch.setattr(dataset_mod, "_FloatMemo", CountingMemo)
    path = _write(tmp_path, f"{regime}.csv", _memo_csv(np.random.default_rng(7), regime))
    got = load_csv(path, kdd99_schema())
    _assert_same_load(got, reference_load_csv(path, kdd99_schema()), path)
    assert len(got.rejected_rows) == 9 and got.n > 256
    if regime == "repetitive":
        assert len(misses) < 50
    elif regime == "evicting":
        assert max(misses) == dataset_mod._MEMO_CAP  # filled up, then emptied


def test_a_grouped_digit_field_parses_no_other_field_of_its_row_again(tmp_path, monkeypatch):
    # each row reaches the row loop (np.loadtxt rejects '1 819 000') and misses the memo once
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(300):
        numbers = [str(v) for v in rng.choice([0, 1, 2, 255], _KDD_NUMERIC)]
        numbers[int(rng.integers(_KDD_NUMERIC))] = "1 819 000"
        rows.append(numbers)
    path = _write(tmp_path, "grouped.csv", "".join(
        ",".join([row[0], "tcp", "http", "SF", *row[1:], "normal."]) + "\n" for row in rows))
    calls = []
    parse = dataset_mod._parse_numeric
    monkeypatch.setattr(dataset_mod, "_parse_numeric", lambda token: calls.append(token) or parse(token))
    got = load_csv(path, kdd99_schema())
    assert got.n == len(rows)
    assert max(column.max() for column in raw_columns(got) if column.dtype == np.float64) == 1819000.0
    assert len(calls) <= len({v for row in rows for v in row}) + _KDD_NUMERIC


def test_schema_layout_is_read_a_constant_number_of_times(tmp_path, monkeypatch):
    reads = Counter()
    for name in ("arity", "label_position"):
        getter = getattr(DatasetSchema, name).fget
        monkeypatch.setattr(DatasetSchema, name, property(
            lambda self, getter=getter, name=name: reads.update([name]) or getter(self)))
    schema = kdd99_schema()
    per_file = []
    for n_rows in (5, 500):
        reads.clear()
        raw = load_csv(_write(tmp_path, f"{n_rows}.csv", f"{_kdd_row()}\n" * n_rows), schema)
        assert raw.n == n_rows
        per_file.append(dict(reads))
    assert per_file[0] == per_file[1]
    assert 1 <= per_file[1]["arity"] <= 2 and per_file[1]["label_position"] == 1


# ---------------------------------------------------------------- chunked loading

_CHUNK = dataset_mod._CHUNK_LINES
_LAYOUTS = ["kdd99", "nslkdd", "ugransome", "synthetic"]
_SYNTHETIC_HEADER = "f0,f1,f2,label"


def _clean_fields(rng, layout: str) -> list[str]:
    """The fields of one data line of the layout with no quirk: bare numbers, tokens and labels."""
    if layout == "synthetic":
        return [repr(float(v)) for v in rng.normal(0.0, 100.0, 3)] + [str(rng.choice(["c0", "c1", "attack"]))]
    schema = schema_by_name(layout)
    fields = []
    for c in sorted(schema.columns, key=lambda c: c.position):
        if c.kind == LABEL:
            fields.append(str(rng.choice(sorted(schema.label_map))))
        elif c.kind == CATEGORICAL:
            fields.append(f"s{int(rng.integers(500))}")  # some first seen in a chunk np.loadtxt parses
        else:
            fields.append(str(rng.choice(["0", "1", "0.25", repr(float(rng.normal()))])))
    return fields


def _line_quirks(layout: str) -> list:
    """Edits from a clean line's fields to the text of the quirky line(s) that replace it; the
    last one's quoted field holds a newline. A synthetic file's label stands in for a token."""
    if layout == "synthetic":
        numeric, token = [0, 1, 2], 3
    else:
        schema = schema_by_name(layout)
        numeric = [c.position for c in schema.feature_columns() if c.kind == NUMERIC]
        token = next(c.position for c in schema.columns if c.kind == CATEGORICAL)

    def put(at, value):
        return lambda f: ",".join(f[:at] + [value] + f[at + 1:]) + "\n"
    quirks = [put(numeric[i % len(numeric)], bad)
              for i, bad in enumerate(_BAD_NUMERIC + ("1 819 000", "1_000"))]
    quirks += [put(token, " tcp "), put(token, '"tcp"'), put(token, '"x,y"'), put(numeric[1], '" 12"'),
               put(token, "t" * 100),
               put(numeric[2], "\x1c12\x1f"),  # np.loadtxt strips these; float() does not, _parse_numeric does
               lambda f: ",".join(f) + "\r\n", lambda f: "\n", lambda f: "   \n"]
    return quirks + [put(token, '"line\nbreak"')]


def _chunked_csv(rng, layout: str, quirks: list) -> str:
    """A first chunk (with a header in two layouts), then for each quirk k a clean chunk and a
    chunk holding quirk k on its first line and quirk k + 1 on its last, then a clean chunk."""
    clean = lambda: ",".join(_clean_fields(rng, layout)) + "\n"
    lines = []
    if layout == "synthetic":
        lines.append(_SYNTHETIC_HEADER + "\n")
    elif layout == "ugransome":
        columns = sorted(ugransome_schema().columns, key=lambda c: c.position)
        lines.append(",".join(c.name for c in columns) + "\n")
    lines += [clean() for _ in range(_CHUNK - len(lines))]
    for k, quirk in enumerate(quirks):
        lines += [clean() for _ in range(_CHUNK)]
        after = quirks[(k + 1) % len(quirks)]
        lines += [quirk(_clean_fields(rng, layout))] + [clean() for _ in range(_CHUNK - 2)]
        lines.append(after(_clean_fields(rng, layout)))
    return "".join(lines + [clean() for _ in range(_CHUNK)])


def _load_both(path, layout):
    schema = None if layout == "synthetic" else schema_by_name(layout)
    expected = _load_or_error(
        lambda: reference_load_csv(path, schema or reference_read_synthetic_schema(path)))
    return _load_or_error(load_csv, path, schema), expected


def _loadtxt_lines(caplog) -> int:
    """Lines parsed by np.loadtxt in the last load, as its debug line gives them."""
    message = [r.getMessage() for r in caplog.records if "parsed by np.loadtxt" in r.getMessage()][-1]
    return int(re.search(r"(\d+) line\(s\) parsed by np.loadtxt", message).group(1))


@pytest.mark.parametrize("layout", _LAYOUTS)
def test_chunked_loader_matches_the_reference_loader_at_chunk_edges(tmp_path, caplog, layout):
    caplog.set_level("DEBUG", logger="cyclonids.dataset")
    quirks = _line_quirks(layout)
    path = _write(tmp_path, f"{layout}.csv", _chunked_csv(np.random.default_rng(11), layout, quirks))
    got, expected = _load_both(path, layout)
    _assert_same_load(got, expected, path)
    assert got.tokens == [list(dict.fromkeys(c.tolist())) for c in expected.columns if c.dtype == object]
    assert len(got.rejected_rows) == 2 * 11  # each _BAD_NUMERIC token, on a first and a last line
    # Every clean chunk but the last went through np.loadtxt; the quoted newline's second
    # line shifts the last one onto a quirky line.
    assert _loadtxt_lines(caplog) >= _CHUNK * len(quirks)


def _fatal_cases():
    for layout in _LAYOUTS:
        for error in ("unknown label", "arity") if layout != "synthetic" else ("arity",):
            for edge in ("first", "last"):
                yield layout, error, edge


@pytest.mark.parametrize("layout, error, edge", list(_fatal_cases()))
def test_chunked_loader_reports_errors_after_a_clean_chunk_as_the_reference_does(
        tmp_path, layout, error, edge):
    rng = np.random.default_rng(12)
    lines = [_SYNTHETIC_HEADER] if layout == "synthetic" else []
    lines += [",".join(_clean_fields(rng, layout)) for _ in range(3 * _CHUNK - len(lines))]
    fields = _clean_fields(rng, layout)
    if error == "arity":
        fields.pop()
    else:
        fields[schema_by_name(layout).label_position] = "warpdrive."
    at = 2 * _CHUNK if edge == "first" else 3 * _CHUNK - 1  # in the third chunk
    lines[at] = ",".join(fields)
    path = _write(tmp_path, "bad.csv", "\n".join(lines) + "\n")
    got, expected = _load_both(path, layout)
    assert isinstance(got, str) and got == expected
    assert f"at row {at + 1}" in got


def test_a_chunk_of_blank_lines_loads_without_a_warning(tmp_path):
    lines = [_kdd_row()] * _CHUNK + [""] * (2 * _CHUNK) + ["   "] * _CHUNK + [_kdd_row("normal.")] * _CHUNK
    path = _write(tmp_path, "kdd.csv", "\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_csv(path, kdd99_schema())
    _assert_same_load(got, reference_load_csv(path, kdd99_schema()), path)


# ---------------------------------------------------------------- integer columns

_SLAB = dataset_mod._SLAB_ROWS


def _held_as_int32(value: float) -> bool:
    """Whether int32 carries the float64 bits of value: an integer in range, and not -0.0."""
    negative_zero = value == 0 and math.copysign(1.0, value) < 0
    return -2**31 <= value < 2**31 and value == int(value) and not negative_zero


def _kdd_numbers_text(numbers: list[list[str]], quoted: bool = False, difficulty: bool = False) -> str:
    """KDD99 lines holding the given 38 numeric fields each; a quoted token sends every chunk
    to the row loop, and ``difficulty`` adds NSL-KDD's trailing column."""
    token = '"tcp"' if quoted else "tcp"
    return "".join(",".join([row[0], token, "http", "SF", *row[1:], "normal."] + ["21"] * difficulty) + "\n"
                   for row in numbers)


def _integer_fields(rng, n: int) -> list[list[str]]:
    fields = rng.integers(-5, 300, size=(n, _KDD_NUMERIC)).astype(str).tolist()
    for row in fields:
        row[24] = str(rng.choice(["0.25", "1", "0.5"]))  # a rate column, fractional from the start
    return fields


def _assert_narrowed_as_the_reference(got, path, schema, caplog=None, widened=0):
    """The load equals the reference bit for bit, as float64, and holds as int32 exactly the
    numeric columns whose every value int32 carries."""
    expected = reference_load_csv(path, schema)
    _assert_same_load(got, expected, path)
    numeric = [c for c, col in zip(expected.columns, schema.feature_columns()) if col.kind == NUMERIC]
    assert got.int_columns == tuple(j for j, c in enumerate(numeric) if all(map(_held_as_int32, c.tolist())))
    assert got.numbers.dtype == np.float64 and got.ints.dtype == np.int32
    if caplog is not None:
        message = [r.getMessage() for r in caplog.records if "held as int32" in r.getMessage()][-1]
        assert f"{len(got.int_columns)} of {_KDD_NUMERIC} numeric column(s) held as int32, " \
               f"{widened} widened to float64 mid-file" in message


@pytest.mark.parametrize("path_taken", ["loadtxt", "row loop"])
def test_a_column_that_turns_fractional_after_the_first_slab_widens(tmp_path, caplog, path_taken):
    caplog.set_level("DEBUG", logger="cyclonids.dataset")
    fields = _integer_fields(np.random.default_rng(21), 8000)
    for row in fields[6100::7]:
        row[5] = "2.5"  # column 5 is integer in the first slab
    quoted = path_taken == "row loop"
    path = _write(tmp_path, "late.csv", _kdd_numbers_text(fields, quoted=quoted))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema(), caplog, widened=1)
    assert 5 not in got.int_columns and len(got.int_columns) == _KDD_NUMERIC - 2
    assert (_loadtxt_lines(caplog) == 0) == quoted


def test_negative_zero_is_held_as_float64(tmp_path, caplog):
    caplog.set_level("DEBUG", logger="cyclonids.dataset")
    fields = _integer_fields(np.random.default_rng(22), 2 * _SLAB)
    fields[3][7] = "-0"  # in the first slab
    fields[_SLAB + 9][8] = "-0.0"  # in the second
    path = _write(tmp_path, "zero.csv", _kdd_numbers_text(fields))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema(), caplog, widened=1)
    assert 7 not in got.int_columns and 8 not in got.int_columns


def test_int32_range_edges(tmp_path):
    fields = _integer_fields(np.random.default_rng(23), 2 * _SLAB)
    for i, row in enumerate(fields):
        row[9] = ("2147483647", "-2147483648")[i % 2]  # the ends of int32's range
    fields[_SLAB + 1][10] = "2147483648"
    fields[_SLAB + 2][11] = "-2147483649"
    fields[5][12] = "4294967296"  # in the first slab
    path = _write(tmp_path, "range.csv", _kdd_numbers_text(fields))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema())
    assert 9 in got.int_columns and not {10, 11, 12} & set(got.int_columns)


def test_integral_values_in_other_spellings_are_held_as_int32(tmp_path):
    fields = _integer_fields(np.random.default_rng(24), 300)
    for i, row in enumerate(fields):
        row[13], row[14] = ("1.0", "-7.00", "+3")[i % 3], ("1e3", "2.5e1", "0e0")[i % 3]
    path = _write(tmp_path, "spellings.csv", _kdd_numbers_text(fields))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema())
    assert {13, 14} <= set(got.int_columns)


def test_nslkdd_integer_columns_skip_the_dropped_difficulty(tmp_path):
    fields = _integer_fields(np.random.default_rng(25), _SLAB + 100)
    path = _write(tmp_path, "nsl.csv", _kdd_numbers_text(fields, difficulty=True))
    got = load_csv(path, nslkdd_schema())
    _assert_narrowed_as_the_reference(got, path, nslkdd_schema())
    assert got.numbers.shape[1] + got.ints.shape[1] == _KDD_NUMERIC


def test_a_file_shorter_than_one_slab(tmp_path):
    fields = _integer_fields(np.random.default_rng(26), 10)
    fields[4][30] = "0.125"
    path = _write(tmp_path, "short.csv", _kdd_numbers_text(fields))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema())
    assert got.ints.shape == (10, _KDD_NUMERIC - 2)


def test_blocks_outgrow_the_rows_the_first_slab_foresaw(tmp_path, caplog):
    # Long first rows make the blocks too small for the short ones after them; a column
    # then widens in blocks that have moved once already.
    caplog.set_level("DEBUG", logger="cyclonids.dataset")
    rng = np.random.default_rng(30)
    fields = rng.integers(10**8, 10**9, size=(_SLAB, _KDD_NUMERIC)).astype(str).tolist()
    fields += rng.integers(0, 3, size=(6 * _SLAB, _KDD_NUMERIC)).astype(str).tolist()
    fields[-5][20] = "0.5"
    path = _write(tmp_path, "shrinking.csv", _kdd_numbers_text(fields))
    got = load_csv(path, kdd99_schema())
    _assert_narrowed_as_the_reference(got, path, kdd99_schema(), caplog, widened=1)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
def test_a_pipe_loads_as_its_file_does(tmp_path):
    # A pipe has no size to foresee the rows by, so the blocks grow as rows come.
    fields = _integer_fields(np.random.default_rng(31), 3 * _SLAB)
    fields[-1][6] = "1.5"
    text = _kdd_numbers_text(fields)
    path = _write(tmp_path, "file.csv", text)
    pipe = str(tmp_path / "pipe.csv")
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: open(pipe, "w").write(text), daemon=True)
    writer.start()
    got = load_csv(pipe, kdd99_schema())
    writer.join(timeout=10)
    _assert_narrowed_as_the_reference(got, path, kdd99_schema())


# ---------------------------------------------------------------- encoding

def _token_raw(tokens):
    """Single categorical column plus a constant numeric column."""
    schema = ugransome_schema()
    rows = [UGRANSOME_ROW.replace("TCP", tok) for tok in tokens]
    return schema, rows


def test_onehot_example(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "onehot").dataset()
    cols = [i for i, n in enumerate(d.feature_names) if n.startswith("protocol=")]
    block = d.features[:, cols]
    assert d.feature_names[cols[0]] == "protocol=TCP"
    assert d.feature_names[cols[1]] == "protocol=UDP"
    assert d.feature_names[cols[2]] == "protocol=__unknown__"
    assert block.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0]]


def test_ordinal_example(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "ordinal").dataset()
    col = d.feature_names.index("protocol")
    assert d.features[:, col].tolist() == [0.0, 1.0, 0.0]


def test_unseen_token_routes_to_unknown_bucket(tmp_path):
    schema, fit_rows = _token_raw(["TCP", "UDP"])
    fit_path = _write(tmp_path, "fit.csv", "\n".join(fit_rows) + "\n")
    new_path = _write(tmp_path, "new.csv", UGRANSOME_ROW.replace("TCP", "ICMP") + "\n")
    encoder = CategoricalEncoder("onehot", load_csv(fit_path, schema))
    d = encode_categoricals(load_csv(new_path, schema), encoder).dataset()
    cols = [i for i, n in enumerate(d.feature_names) if n.startswith("protocol=")]
    assert d.features[0, cols].tolist() == [0.0, 0.0, 1.0]


def test_ordinal_unseen_token_gets_reserved_code(tmp_path):
    schema, fit_rows = _token_raw(["TCP", "UDP"])
    fit_path = _write(tmp_path, "fit.csv", "\n".join(fit_rows) + "\n")
    new_path = _write(tmp_path, "new.csv", UGRANSOME_ROW.replace("TCP", "ICMP") + "\n")
    encoder = CategoricalEncoder("ordinal", load_csv(fit_path, schema))
    d = encode_categoricals(load_csv(new_path, schema), encoder).dataset()
    col = d.feature_names.index("protocol")
    assert d.features[0, col] == 2.0


def test_fit_rows_vocabulary_sends_other_tokens_to_unknown(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "ICMP"])
    raw = load_csv(_write(tmp_path, "ug.csv", "\n".join(rows) + "\n"), schema)
    fit_on = raw.take(np.array([0, 1]))

    encoder = CategoricalEncoder("onehot", fit_on)
    d = encode_categoricals(raw, encoder).dataset()
    cols = [i for i, n in enumerate(d.feature_names) if n.startswith("protocol=")]
    assert [d.feature_names[i] for i in cols] == [
        "protocol=TCP", "protocol=UDP", "protocol=__unknown__"]
    assert d.features[:, cols].tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert encoder.occurrences["protocol"] == {"TCP": 1, "UDP": 1}

    encoder = CategoricalEncoder("ordinal", fit_on)
    d = encode_categoricals(raw, encoder).dataset()
    assert d.features[:, d.feature_names.index("protocol")].tolist() == [0.0, 1.0, 2.0]
    assert len(encoder.occurrences["protocol"]) == 2  # the reserved unknown code


def test_encoding_totality(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "ICMP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    for strategy in ("onehot", "ordinal"):
        d = encode_categoricals(load_csv(path, schema), strategy).dataset()
        assert np.isfinite(d.features).all()


def test_encoder_records_encoding_map(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "onehot").dataset()
    assert [name for name in d.feature_names if name.startswith("protocol=")] == [
        "protocol=TCP", "protocol=UDP", "protocol=__unknown__"]


def test_bad_strategy(tmp_path):
    schema, rows = _token_raw(["TCP"])
    raw = load_csv(_write(tmp_path, "ug.csv", "\n".join(rows) + "\n"), schema)
    with pytest.raises(ConfigError):
        CategoricalEncoder("fourier", raw)


@pytest.mark.parametrize("strategy", ["onehot", "ordinal"])
def test_narrowed_blocks_encode_as_one_float64_block(tmp_path, strategy):
    rng = np.random.default_rng(27)
    fields = _integer_fields(rng, 3000)
    for row in fields:
        row[0], row[37] = repr(float(rng.normal())), str(rng.choice(["0.5", "3"]))  # wide at both ends
    vocabulary = np.array(["tcp", "udp", "icmp", "http", "smtp", "SF", "REJ"])
    tokens = vocabulary[rng.integers(len(vocabulary), size=(3000, 3))].tolist()
    path = _write(tmp_path, "mixed.csv", "".join(
        ",".join([row[0], *words, *row[1:], "normal."]) + "\n" for row, words in zip(fields, tokens)))
    narrowed = load_csv(path, kdd99_schema())
    assert narrowed.numbers.shape[1] == 3 and narrowed.ints.shape[1] == _KDD_NUMERIC - 3
    whole = raw_dataset(narrowed.schema, decode_columns(narrowed), narrowed.labels)
    assert whole.numbers.shape[1] == _KDD_NUMERIC and whole.int_columns == ()
    train, test = holdout_rows(3000, 0.5, 4)
    encoders = [CategoricalEncoder(strategy, raw.take(train)) for raw in (narrowed, whole)]
    picks = np.array([0, 3, 700, 1499])
    for rows in (train, test):
        views = [lambda raw: raw.take(rows), lambda raw: raw.take(rows).compact(),
                 lambda raw: raw.take(rows).take(picks)]  # a view of a view composes the indices
        for view in views:
            encoded = []
            for encoder, raw in zip(encoders, (narrowed, whole)):
                filled = encoder.rows(view(raw))
                encoded.append([filled.fill(lo, hi, np.empty((hi - lo, filled.p)))
                                for lo, hi in ((0, filled.n), (1, min(filled.n, 300)))])
            assert [m.tobytes() for m in encoded[0]] == [m.tobytes() for m in encoded[1]]


# ---------------------------------------------------------------- round trip

def test_csv_round_trip(tmp_path):
    d, _ = gen_classification(SynthConfig(60, 2, 3, 3, 2.5, seed=11))
    path = str(tmp_path / "rt.csv")
    write_csv(d, path)
    back = encode_categoricals(load_csv(path, synthetic_schema(d.feature_names, d.class_names))).dataset()
    assert np.array_equal(back.features, d.features)
    assert np.array_equal(back.labels, d.labels)
    assert back.feature_names == d.feature_names


# ---------------------------------------------------------------- split

def _tiny_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.standard_normal((n, 3)), labels=rng.integers(0, 2, n),
                   feature_names=["a", "b", "c"], class_names=["c0", "c1"])


def test_split_counts():
    pair = split(_tiny_dataset(10), 0.2, 7)
    assert pair.test.n == 2 and pair.train.n == 8


def test_split_large_round_half_up():
    d = Dataset(features=np.zeros((207534, 1)) + np.arange(207534)[:, None],
                labels=np.zeros(207534, dtype=int), feature_names=["x"], class_names=["c0", "c1"])
    pair = split(d, 0.2, 42)
    assert pair.test.n == 41507


def test_split_determinism_and_disjointness():
    d = _tiny_dataset(50)
    a = split(d, 0.2, 42)
    b = split(d, 0.2, 42)
    assert np.array_equal(a.test.features, b.test.features)
    assert np.array_equal(a.train.features, b.train.features)
    combined = np.vstack([a.train.features, a.test.features])
    assert combined.shape[0] == d.n
    # row multisets match: sort by first column and compare
    assert np.allclose(np.sort(combined[:, 0]), np.sort(d.features[:, 0]))


def test_split_errors():
    d = _tiny_dataset(10)
    with pytest.raises(ConfigError):
        split(d, 0.0, 1)
    with pytest.raises(ConfigError):
        split(d, 1.0, 1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 80), frac=st.floats(0.05, 0.95), seed=st.integers(0, 10_000))
def test_split_conservation_property(n, frac, seed):
    d = _tiny_dataset(n, seed=seed % 17)
    pair = split(d, frac, seed)
    assert pair.train.n + pair.test.n == d.n
    total = class_distribution(d)
    train = class_distribution(pair.train)
    test = class_distribution(pair.test)
    assert all(train[k] + test[k] == total[k] for k in total)


def test_split_of_parsed_rows_copies_none_of_them(tmp_path):
    rng = np.random.default_rng(8)
    numbers = rng.integers(0, 1000, size=(20000, 38)).astype(str)
    vocabulary = np.array(["tcp", "udp", "icmp", "http", "smtp", "SF", "REJ"])
    tokens = vocabulary[rng.integers(len(vocabulary), size=(20000, 3))]
    labels = np.array(["normal.", "smurf.", "satan."])[rng.integers(3, size=(20000, 1))]
    fields = np.hstack([numbers[:, :1], tokens, numbers[:, 1:], labels])
    raw = load_csv(_write(tmp_path, "kdd.csv", "".join(",".join(row) + "\n" for row in fields)),
                   kdd99_schema())
    tracemalloc.start()
    try:
        pair = split(raw, 0.5, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each half is a row index into the loaded blocks, so the split holds the
    # permutation, the indices and the labels: about 0.05 of the numeric
    # block, as float64. Copying each half's parsed columns read 1.09.
    block = raw.n * 38 * 8
    assert peak < 0.1 * block, f"peak {peak / block:.2f} x the numeric block"
    train_rows, test_rows = holdout_rows(raw.n, 0.5, 42)
    whole = raw_columns(raw)
    for part, rows in ((pair.train, train_rows), (pair.test, test_rows)):
        picks = np.array([3, 4, 4000, part.n - 1])  # a view of a view composes the indices
        for got, wanted in ((part, rows), (part.compact(), rows), (part.take(picks), rows[picks])):
            assert all(g.tobytes() == w[wanted].tobytes() for g, w in zip(raw_columns(got), whole))
            assert got.labels.tobytes() == raw.labels[wanted].tobytes()


# ---------------------------------------------------------------- distribution

def test_class_distribution_includes_zero_classes(tmp_path):
    rows = [UGRANSOME_ROW.replace("SS,", "A,", 1), UGRANSOME_ROW.replace("SS,", "A,", 1),
            UGRANSOME_ROW.replace("SS,", "S,", 1)]
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, ugransome_schema()), "ordinal").dataset()
    dist = class_distribution(d)
    assert dist == {"Signature": 1, "SyntheticSignature": 0, "Anomaly": 2}
    assert sum(dist.values()) == d.n


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError):
        Dataset(features=np.array([[1.0, np.nan]]), labels=np.array([0]),
                feature_names=["a", "b"], class_names=["c0"])


def test_load_peak_stays_near_its_numeric_block(tmp_path):
    # Rows holding nan/inf are never stored, and each token column is held as
    # int32 codes into one table of its distinct stripped tokens.
    rng = np.random.default_rng(5)
    values = np.array(["0", "1", "2", "0.00", "0.50", "1.00", "255", " 12 "], dtype=object)
    tokens = [("tcp", "udp", " icmp"), ("http", "smtp", "ftp_data", " private "), ("SF", "S0", "REJ")]
    fields = np.empty((40000, 42), dtype=object)
    picks = rng.integers(len(values), size=(40000, 38))
    fields[:, [0] + list(range(4, 41))] = values[picks]
    for j, group in enumerate(tokens, start=1):
        fields[:, j] = np.array(group, dtype=object)[rng.integers(len(group), size=40000)]
    fields[:, 41] = np.array(["normal.", "smurf.", "neptune."], dtype=object)[rng.integers(3, size=40000)]
    for i in range(7, 40000, 50):
        fields[i, 4 + i % 37] = ("nan", "inf", "-inf")[i % 3]
    path = _write(tmp_path, "kdd.csv", "".join(",".join(row) + "\n" for row in fields.tolist()))
    tracemalloc.start()
    try:
        raw = load_csv(path, kdd99_schema())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (raw.n, len(raw.rejected_rows)) == (39200, 800)
    kept = np.ones(40000, dtype=bool)
    kept[7::50] = False
    expected = np.array([float(v) for v in values])[picks[kept]]
    columns = decode_columns(raw)
    assert np.column_stack([c for c in columns if c.dtype != object]).tobytes() == expected.tobytes()
    assert {t for c in columns if c.dtype == object for t in c} == {
        t.strip() for group in tokens for t in group}
    block = raw.n * 38 * 8
    assert peak < 1.5 * block, f"peak {peak / block:.2f} x the numeric block"


def _all_integer_kdd(tmp_path, n: int, rng) -> str:
    fields = rng.integers(0, 10, size=(n, _KDD_NUMERIC)).astype(str).tolist()
    return _write(tmp_path, "integers.csv", _kdd_numbers_text(fields))


def _traced_load(path) -> tuple:
    tracemalloc.start()
    try:
        raw = load_csv(path, kdd99_schema())
        return raw, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_all_integer_file_loads_in_little_more_than_its_int32_block(tmp_path):
    # The numeric fields are held as int32, half their float64 block, with the labels,
    # the codes and a slab of float64 rows beside them: 0.63 of the float64 block. Held
    # as float64 they read 1.10.
    raw, peak = _traced_load(_all_integer_kdd(tmp_path, 200_000, np.random.default_rng(28)))
    assert raw.int_columns == tuple(range(_KDD_NUMERIC))
    block = raw.n * _KDD_NUMERIC * 8
    assert peak < 0.65 * block, f"peak {peak / block:.2f} x the float64 block"


def test_a_column_widened_in_the_last_slab_costs_no_more_than_float64_blocks(tmp_path):
    # The widened column gets a float64 block of its own and the int32 block drops it in
    # place: 0.75 of the float64 block, against 1.09 with every column held as float64.
    # Rebuilding both blocks at once would hold two int32 blocks, about 1.25.
    n = 50_000
    fields = np.random.default_rng(29).integers(0, 10, size=(n, _KDD_NUMERIC)).astype(str).tolist()
    for row in fields[-100:]:
        row[7] = "0.5"
    raw, peak = _traced_load(_write(tmp_path, "late.csv", _kdd_numbers_text(fields)))
    assert raw.int_columns == tuple(c for c in range(_KDD_NUMERIC) if c != 7)
    block = n * _KDD_NUMERIC * 8
    assert peak < 1.09 * block, f"peak {peak / block:.2f} x the float64 block"


def test_dataset_check_holds_no_matrix_sized_temporary():
    m = np.random.default_rng(3).standard_normal((20000, 50))
    labels = np.zeros(20000, dtype=np.int64)
    tracemalloc.start()
    try:
        Dataset(features=m, labels=labels, feature_names=[f"f{i}" for i in range(50)], class_names=["c0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # An n x p bool array would be m.size bytes.
    assert peak < m.size // 2, f"peak {peak / m.size:.2f} x an n x p bool array"
    m = m.copy()  # the Dataset marked m read-only
    m[12345, 7] = np.inf  # in the fourth block of rows
    with pytest.raises(DataError, match="NaN or infinite"):
        Dataset(features=m, labels=labels, feature_names=[f"f{i}" for i in range(50)], class_names=["c0"])


def test_dataset_is_read_only():
    d = _tiny_dataset(5)
    with pytest.raises(ValueError):
        d.features[0, 0] = 99.0


def test_unreadable_path_is_a_data_error(tmp_path, monkeypatch):
    message = f"cannot read {re.escape(str(tmp_path))}: Is a directory"
    with pytest.raises(DataError, match=message):
        load_csv(str(tmp_path), kdd99_schema())
    with pytest.raises(DataError, match=message):
        load_csv(str(tmp_path), None)

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    path = _write(tmp_path, "kdd.csv", _kdd_row() + "\n")
    monkeypatch.setattr(dataset_mod, "open", denied, raising=False)
    with pytest.raises(DataError, match="cannot read .*kdd.csv: Permission denied"):
        load_csv(path, kdd99_schema())
    with pytest.raises(DataError, match="cannot read .*kdd.csv: Permission denied"):
        load_csv(path, None)


def test_non_utf8_byte_names_its_line(tmp_path):
    # Far enough into the file that the decoder fails on a later read chunk.
    lines = [_kdd_row() for _ in range(600)]
    lines[456] = lines[456].replace("http", "ht\xe9tp")
    path = tmp_path / "kdd.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    with pytest.raises(DataError, match="line 457 is not valid UTF-8"):
        load_csv(str(path), kdd99_schema())
