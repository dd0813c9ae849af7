import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclonids.dataset import (CategoricalEncoder, Dataset, class_distribution,
                               encode_categoricals, kdd99_schema, load_csv, load_dataset,
                               nslkdd_schema, numeric_schema, schema_by_name, split,
                               ugransome_schema, write_csv)
from cyclonids.errors import ConfigError, DataError
from cyclonids.synthgen import SynthConfig, gen_classification

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
    row = {name: col[0] for name, col in zip(names, raw.columns)}
    assert row["port"] == 5062.0
    assert row["protocol"] == "TCP"
    assert row["timestamp"] == 40.0
    assert row["btc"] == 60.0
    assert row["ransomware"] == "WannaCry"


def test_load_grouped_digits(tmp_path):
    grouped = UGRANSOME_ROW.replace("1819000", "1819 000")
    path = _write(tmp_path, "ug.csv", grouped + "\n")
    raw = load_csv(path, ugransome_schema())
    names = [c.name for c in ugransome_schema().feature_columns()]
    traffic = raw.columns[names.index("network_traffic")]
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
    assert len(raw.columns) == 41  # difficulty gone, label separate


# ---------------------------------------------------------------- encoding

def _token_raw(tokens):
    """Single categorical column plus a constant numeric column."""
    schema = ugransome_schema()
    rows = [UGRANSOME_ROW.replace("TCP", tok) for tok in tokens]
    return schema, rows


def test_onehot_example(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "onehot")
    cols = [i for i, n in enumerate(d.feature_names) if n.startswith("protocol=")]
    block = d.features[:, cols]
    assert d.feature_names[cols[0]] == "protocol=TCP"
    assert d.feature_names[cols[1]] == "protocol=UDP"
    assert d.feature_names[cols[2]] == "protocol=__unknown__"
    assert block.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 0]]


def test_ordinal_example(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "ordinal")
    col = d.feature_names.index("protocol")
    assert d.features[:, col].tolist() == [0.0, 1.0, 0.0]


def test_unseen_token_routes_to_unknown_bucket(tmp_path):
    schema, fit_rows = _token_raw(["TCP", "UDP"])
    fit_path = _write(tmp_path, "fit.csv", "\n".join(fit_rows) + "\n")
    new_path = _write(tmp_path, "new.csv", UGRANSOME_ROW.replace("TCP", "ICMP") + "\n")
    encoder = CategoricalEncoder("onehot").fit(load_csv(fit_path, schema))
    d = encoder.transform(load_csv(new_path, schema))
    cols = [i for i, n in enumerate(d.feature_names) if n.startswith("protocol=")]
    assert d.features[0, cols].tolist() == [0.0, 0.0, 1.0]


def test_ordinal_unseen_token_gets_reserved_code(tmp_path):
    schema, fit_rows = _token_raw(["TCP", "UDP"])
    fit_path = _write(tmp_path, "fit.csv", "\n".join(fit_rows) + "\n")
    new_path = _write(tmp_path, "new.csv", UGRANSOME_ROW.replace("TCP", "ICMP") + "\n")
    encoder = CategoricalEncoder("ordinal").fit(load_csv(fit_path, schema))
    d = encoder.transform(load_csv(new_path, schema))
    col = d.feature_names.index("protocol")
    assert d.features[0, col] == 2.0


def test_encoding_totality(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP", "ICMP", "TCP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    for strategy in ("onehot", "ordinal"):
        d = encode_categoricals(load_csv(path, schema), strategy)
        assert np.isfinite(d.features).all()


def test_encoder_records_encoding_map(tmp_path):
    schema, rows = _token_raw(["TCP", "UDP"])
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, schema), "onehot")
    assert d.encoding_map["protocol"]["columns"]["TCP"] == "protocol=TCP"
    assert d.encoding_map["protocol"]["unknown_column"] == "protocol=__unknown__"


def test_bad_strategy():
    with pytest.raises(ConfigError):
        CategoricalEncoder("fourier")


# ---------------------------------------------------------------- round trip

def test_csv_round_trip(tmp_path):
    d, _ = gen_classification(SynthConfig(60, 2, 3, 3, 2.5, seed=11))
    path = str(tmp_path / "rt.csv")
    write_csv(d, path)
    back = load_dataset(path, numeric_schema(d))
    assert np.array_equal(back.features, d.features)
    assert np.array_equal(back.labels, d.labels)
    assert back.feature_names == d.feature_names


# ---------------------------------------------------------------- split

def _tiny_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(features=rng.standard_normal((n, 3)), labels=rng.integers(0, 2, n),
                   feature_names=["a", "b", "c"], schema_id="synthetic",
                   class_names=["c0", "c1"])


def test_split_counts():
    pair = split(_tiny_dataset(10), 0.2, 7)
    assert pair.test.n == 2 and pair.train.n == 8


def test_split_large_round_half_up():
    d = Dataset(features=np.zeros((207534, 1)) + np.arange(207534)[:, None],
                labels=np.zeros(207534, dtype=int), feature_names=["x"],
                schema_id="synthetic", class_names=["c0", "c1"])
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


# ---------------------------------------------------------------- distribution

def test_class_distribution_includes_zero_classes(tmp_path):
    rows = [UGRANSOME_ROW.replace("SS,", "A,", 1), UGRANSOME_ROW.replace("SS,", "A,", 1),
            UGRANSOME_ROW.replace("SS,", "S,", 1)]
    path = _write(tmp_path, "ug.csv", "\n".join(rows) + "\n")
    d = encode_categoricals(load_csv(path, ugransome_schema()), "ordinal")
    dist = class_distribution(d)
    assert dist == {"Signature": 1, "SyntheticSignature": 0, "Anomaly": 2}
    assert sum(dist.values()) == d.n


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError):
        Dataset(features=np.array([[1.0, np.nan]]), labels=np.array([0]),
                feature_names=["a", "b"], schema_id="synthetic", class_names=["c0"])


def test_dataset_is_read_only():
    d = _tiny_dataset(5)
    with pytest.raises(ValueError):
        d.features[0, 0] = 99.0


def test_non_utf8_byte_names_its_line(tmp_path):
    # Far enough into the file that the decoder fails on a later read chunk.
    lines = [_kdd_row() for _ in range(600)]
    lines[456] = lines[456].replace("http", "ht\xe9tp")
    path = tmp_path / "kdd.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    with pytest.raises(DataError, match="line 457 is not valid UTF-8"):
        load_csv(str(path), kdd99_schema())
