"""Dataset ingestion, categorical encoding, and train/test splitting.

Supports the KDD99 / NSL-KDD / UGRansome intrusion-detection corpora plus
purely numeric synthetic data. All loaders produce the same in-memory
representation so the rest of the pipeline never cares where rows came from.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

log = logging.getLogger(__name__)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
LABEL = "label"

UNKNOWN_TOKEN = "__unknown__"


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str  # numeric | categorical | label
    position: int


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout plus the raw-label -> class-name mapping for one corpus."""

    id: str
    columns: tuple[ColumnSchema, ...]
    class_names: tuple[str, ...]
    label_map: dict[str, str]  # normalized raw token -> class name
    drop_columns: tuple[int, ...] = ()  # positions ignored on load (NSL-KDD difficulty)

    def __post_init__(self) -> None:
        label_cols = [c for c in self.columns if c.kind == LABEL]
        if len(label_cols) != 1:
            raise ConfigError(f"schema '{self.id}' must have exactly one label column")
        positions = sorted(c.position for c in self.columns)
        if positions != list(range(len(self.columns))):
            raise ConfigError(f"schema '{self.id}' positions must be contiguous 0..{len(self.columns) - 1}")

    @property
    def arity(self) -> int:
        return len(self.columns)

    @property
    def label_position(self) -> int:
        return next(c.position for c in self.columns if c.kind == LABEL)

    def feature_columns(self) -> list[ColumnSchema]:
        return [c for c in sorted(self.columns, key=lambda c: c.position)
                if c.kind != LABEL and c.position not in self.drop_columns]


@dataclass
class RawDataset:
    """Parsed but not-yet-encoded rows: numeric columns as floats, categorical as tokens."""

    schema: DatasetSchema
    columns: list[np.ndarray]  # one array per feature column, schema order
    labels: np.ndarray  # class indices
    rejected_rows: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass
class Dataset:
    """Fully numeric dataset: the unit every pipeline stage consumes.

    Immutable by convention; the arrays are marked read-only so a shared
    instance cannot be corrupted by a downstream stage.
    """

    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int
    feature_names: list[str]
    schema_id: str
    class_names: list[str]
    encoding_map: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.validate()
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

    def validate(self) -> None:
        n, p = self.features.shape if self.features.ndim == 2 else (0, 0)
        if n == 0 or p == 0:
            raise DataError(f"dataset must be a non-empty 2-D matrix, got shape {self.features.shape}")
        if len(self.labels) != n:
            raise DataError(f"labels length {len(self.labels)} != row count {n}")
        if len(self.feature_names) != p:
            raise DataError(f"{len(self.feature_names)} feature names for {p} columns")
        if self.labels.min() < 0 or self.labels.max() >= len(self.class_names):
            raise DataError("label index outside class_names range")
        if not np.isfinite(self.features).all():
            raise DataError("feature matrix contains NaN or infinite entries")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """New Dataset holding the given rows (used by split)."""
        return Dataset(
            features=self.features[indices],
            labels=self.labels[indices],
            feature_names=list(self.feature_names),
            schema_id=self.schema_id,
            class_names=list(self.class_names),
            encoding_map=self.encoding_map,
        )


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    seed: int
    test_fraction: float


# --------------------------------------------------------------------------
# Built-in schemas
# --------------------------------------------------------------------------

_KDD_FEATURES = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files", "num_outbound_cmds",
    "is_host_login", "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]
_KDD_CATEGORICAL = {1, 2, 3}  # protocol_type, service, flag

_KDD_CLASSES = ("Normal", "DoS", "Probe", "U2R", "R2L")

# Canonical attack-name -> category mapping (KDD99 train set plus the extra
# attack names that appear only in the NSL-KDD test split).
_KDD_LABEL_MAP = {
    "normal": "Normal",
    # DoS
    "back": "DoS", "land": "DoS", "neptune": "DoS", "pod": "DoS",
    "smurf": "DoS", "teardrop": "DoS", "apache2": "DoS", "mailbomb": "DoS",
    "processtable": "DoS", "udpstorm": "DoS",
    # Probe
    "ipsweep": "Probe", "nmap": "Probe", "portsweep": "Probe", "satan": "Probe",
    "mscan": "Probe", "saint": "Probe",
    # U2R
    "buffer_overflow": "U2R", "loadmodule": "U2R", "perl": "U2R",
    "rootkit": "U2R", "httptunnel": "U2R", "ps": "U2R", "sqlattack": "U2R",
    "xterm": "U2R",
    # R2L
    "ftp_write": "R2L", "guess_passwd": "R2L", "imap": "R2L", "multihop": "R2L",
    "phf": "R2L", "spy": "R2L", "warezclient": "R2L", "warezmaster": "R2L",
    "named": "R2L", "sendmail": "R2L", "snmpgetattack": "R2L",
    "snmpguess": "R2L", "worm": "R2L", "xlock": "R2L", "xsnoop": "R2L",
}

_UGRANSOME_CLASSES = ("Signature", "SyntheticSignature", "Anomaly")

_UGRANSOME_LABEL_MAP = {
    "s": "Signature",
    "ss": "SyntheticSignature",
    "a": "Anomaly",
    "signature": "Signature",
    "synthetic signature": "SyntheticSignature",
    "syntheticsignature": "SyntheticSignature",
    "anomaly": "Anomaly",
}

# (name, kind) in file order; label first, 14 columns total.
_UGRANSOME_COLUMNS = [
    ("prediction", LABEL),
    ("ransomware", CATEGORICAL),
    ("btc", NUMERIC),
    ("usd", NUMERIC),
    ("cluster", NUMERIC),
    ("seed_address", CATEGORICAL),
    ("expended_address", CATEGORICAL),
    ("port", NUMERIC),
    ("malware", CATEGORICAL),
    ("network_traffic", NUMERIC),
    ("ip_class", CATEGORICAL),
    ("flag", CATEGORICAL),
    ("protocol", CATEGORICAL),
    ("timestamp", NUMERIC),
]


def _kdd_columns(with_difficulty: bool) -> tuple[ColumnSchema, ...]:
    cols = [
        ColumnSchema(name, CATEGORICAL if i in _KDD_CATEGORICAL else NUMERIC, i)
        for i, name in enumerate(_KDD_FEATURES)
    ]
    cols.append(ColumnSchema("attack", LABEL, 41))
    if with_difficulty:
        cols.append(ColumnSchema("difficulty", NUMERIC, 42))
    return tuple(cols)


def kdd99_schema() -> DatasetSchema:
    """42 columns: the 41 classic connection features plus the attack label."""
    return DatasetSchema("kdd99", _kdd_columns(False), _KDD_CLASSES, dict(_KDD_LABEL_MAP))


def nslkdd_schema() -> DatasetSchema:
    """43 columns: KDD99 layout plus a difficulty score that is dropped on load."""
    return DatasetSchema("nslkdd", _kdd_columns(True), _KDD_CLASSES,
                         dict(_KDD_LABEL_MAP), drop_columns=(42,))


def ugransome_schema() -> DatasetSchema:
    """14 columns in the documented attribute order; the prediction column is the label."""
    cols = tuple(ColumnSchema(name, kind, i) for i, (name, kind) in enumerate(_UGRANSOME_COLUMNS))
    return DatasetSchema("ugransome", cols, _UGRANSOME_CLASSES, dict(_UGRANSOME_LABEL_MAP))


def synthetic_schema(feature_names: list[str], class_names: list[str],
                     schema_id: str = "synthetic") -> DatasetSchema:
    """All-numeric schema with a trailing label column."""
    cols = [ColumnSchema(name, NUMERIC, i) for i, name in enumerate(feature_names)]
    cols.append(ColumnSchema("label", LABEL, len(feature_names)))
    label_map = {name.lower(): name for name in class_names}
    return DatasetSchema(schema_id, tuple(cols), tuple(class_names), label_map)


def read_synthetic_schema(path: str) -> DatasetSchema:
    """Schema of a CSV written by `cyclonids gen`: feature names from its
    header, class names (sorted) from its last column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            classes: dict[str, None] = {}
            for row in csv.reader(handle):
                if row:
                    classes.setdefault(row[-1].strip(), None)
    except FileNotFoundError:
        raise DataError(f"file missing: {path}") from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if len(header) < 2:
        raise DataError(f"cannot infer synthetic schema from {path}")
    return synthetic_schema(header[:-1], sorted(classes))


def schema_by_name(name: str) -> DatasetSchema:
    builders = {"kdd99": kdd99_schema, "nslkdd": nslkdd_schema, "ugransome": ugransome_schema}
    if name not in builders:
        raise ConfigError(f"unknown schema '{name}' (expected kdd99, nslkdd, ugransome, or synthetic)")
    return builders[name]()


# --------------------------------------------------------------------------
# CSV loading
# --------------------------------------------------------------------------

def _not_utf8(path: str) -> DataError:
    """The error for a file that fails to decode, naming its first bad line."""
    with open(path, "rb") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"{path}: line {lineno} is not valid UTF-8 "
                                 f"(byte {line[exc.start]:#04x} at offset {exc.start})")
    return DataError(f"{path}: not valid UTF-8")


def _parse_numeric(token: str) -> float | None:
    """Parse a numeric field; grouped digits ('1819 000') are accepted."""
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        try:
            value = float(token.replace(" ", ""))
        except ValueError:
            return None
    return value if math.isfinite(value) else None


def _normalize_label(token: str) -> str:
    # KDD99 rows terminate the label with a period.
    return token.strip().rstrip(".").lower()


def _looks_like_header(row: list[str], schema: DatasetSchema) -> bool:
    numeric_positions = [c.position for c in schema.columns
                         if c.kind == NUMERIC and c.position not in schema.drop_columns]
    if not numeric_positions:
        return False
    return any(_parse_numeric(row[pos]) is None for pos in numeric_positions)


def load_csv(path: str, schema: DatasetSchema) -> RawDataset:
    """Parse a CSV file against a schema.

    Numeric fields become floats, categorical fields stay as stripped tokens,
    and the label column is mapped to a class index. Rows whose numeric fields
    do not parse (or parse to NaN/inf) are dropped and their 1-based line
    numbers recorded in ``rejected_rows``. A wrong field count, an unmapped
    label or a byte that is not UTF-8 aborts the load.
    """
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise DataError(f"file missing: {path}") from None

    feature_cols = schema.feature_columns()
    values: list[list] = [[] for _ in feature_cols]
    labels: list[int] = []
    rejected: list[int] = []
    class_index = {name: i for i, name in enumerate(schema.class_names)}

    with handle:
        reader = csv.reader(handle)
        first = True
        try:
            for lineno, row in enumerate(reader, start=1):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != schema.arity:
                    raise DataError(
                        f"arity mismatch at row {lineno}: expected {schema.arity} fields, got {len(row)}")
                if first:
                    first = False
                    if _looks_like_header(row, schema):
                        continue

                raw_label = _normalize_label(row[schema.label_position])
                if raw_label not in schema.label_map:
                    raise DataError(f"unknown label '{row[schema.label_position].strip()}' at row {lineno}")

                parsed: list = []
                ok = True
                for col in feature_cols:
                    token = row[col.position]
                    if col.kind == NUMERIC:
                        value = _parse_numeric(token)
                        if value is None:
                            ok = False
                            break
                        parsed.append(value)
                    else:
                        parsed.append(token.strip())
                if not ok:
                    rejected.append(lineno)
                    continue

                for store, value in zip(values, parsed):
                    store.append(value)
                labels.append(class_index[schema.label_map[raw_label]])
        except UnicodeDecodeError:
            raise _not_utf8(path) from None

    if not labels and not rejected:
        raise DataError(f"empty file: {path}")
    if not labels:
        raise DataError(f"no usable rows in {path}: all {len(rejected)} rows had unparseable numeric fields")
    if rejected:
        log.warning("%s: rejected %d row(s) with unparseable numeric fields (first: row %d)",
                    path, len(rejected), rejected[0])

    columns = []
    for col, store in zip(feature_cols, values):
        if col.kind == NUMERIC:
            columns.append(np.asarray(store, dtype=np.float64))
        else:
            columns.append(np.asarray(store, dtype=object))
    return RawDataset(schema=schema, columns=columns, labels=np.asarray(labels, dtype=np.int64),
                      rejected_rows=rejected)


def write_csv(d: Dataset, path: str) -> None:
    """Write a numeric Dataset with a header row; floats use round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(d.feature_names) + ["label"])
        for row, label in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in row] + [d.class_names[label]])


def numeric_schema(d: Dataset) -> DatasetSchema:
    """Schema describing a Dataset as written by write_csv (all-numeric, label last)."""
    return synthetic_schema(list(d.feature_names), list(d.class_names), schema_id=d.schema_id)


# --------------------------------------------------------------------------
# Categorical encoding
# --------------------------------------------------------------------------

class CategoricalEncoder:
    """Token -> number encoder fitted on one RawDataset.

    ``onehot`` expands each categorical column into one indicator column per
    token seen at fit time plus a trailing unknown column; ``ordinal`` maps
    tokens to integers in first-seen order, with unseen tokens routed to the
    reserved index len(seen). Either way every output entry is finite.
    """

    def __init__(self, strategy: str = "onehot"):
        if strategy not in ("onehot", "ordinal"):
            raise ConfigError(f"unknown encoding strategy '{strategy}'")
        self.strategy = strategy
        self.token_order: dict[str, list[str]] = {}
        self._fitted = False

    def fit(self, raw: RawDataset) -> "CategoricalEncoder":
        for col, values in zip(raw.schema.feature_columns(), raw.columns):
            if col.kind != CATEGORICAL:
                continue
            seen: dict[str, None] = {}
            for token in values:
                if token not in seen:
                    seen[token] = None
            self.token_order[col.name] = list(seen)
        self._fitted = True
        return self

    def transform(self, raw: RawDataset) -> Dataset:
        if not self._fitted:
            raise ConfigError("encoder used before fit")
        blocks: list[np.ndarray] = []
        names: list[str] = []
        encoding_map: dict[str, dict] = {}

        for col, values in zip(raw.schema.feature_columns(), raw.columns):
            if col.kind == NUMERIC:
                blocks.append(values.astype(np.float64).reshape(-1, 1))
                names.append(col.name)
                continue

            tokens = self.token_order.get(col.name, [])
            index = {tok: i for i, tok in enumerate(tokens)}
            occurrences: dict[str, int] = {}
            for t in values:
                key = t if t in index else UNKNOWN_TOKEN
                occurrences[key] = occurrences.get(key, 0) + 1
            if self.strategy == "ordinal":
                unknown = len(tokens)
                codes = np.array([index.get(t, unknown) for t in values], dtype=np.float64)
                blocks.append(codes.reshape(-1, 1))
                names.append(col.name)
                encoding_map[col.name] = {"strategy": "ordinal",
                                          "codes": {t: i for t, i in index.items()},
                                          "unknown_code": unknown,
                                          "occurrences": occurrences}
            else:
                width = len(tokens) + 1  # + unknown bucket
                block = np.zeros((raw.n, width), dtype=np.float64)
                cols = np.array([index.get(t, len(tokens)) for t in values], dtype=np.intp)
                block[np.arange(raw.n), cols] = 1.0
                blocks.append(block)
                col_names = [f"{col.name}={tok}" for tok in tokens] + [f"{col.name}={UNKNOWN_TOKEN}"]
                names.extend(col_names)
                encoding_map[col.name] = {"strategy": "onehot",
                                          "columns": {tok: name for tok, name in zip(tokens, col_names)},
                                          "unknown_column": col_names[-1],
                                          "occurrences": occurrences}

        features = np.hstack(blocks) if blocks else np.zeros((raw.n, 0))
        return Dataset(features=features, labels=raw.labels.copy(), feature_names=names,
                       schema_id=raw.schema.id, class_names=list(raw.schema.class_names),
                       encoding_map=encoding_map)


def encode_categoricals(raw: RawDataset, strategy: str = "onehot") -> Dataset:
    """Fit an encoder on ``raw`` and return the numeric Dataset."""
    return CategoricalEncoder(strategy).fit(raw).transform(raw)


def load_dataset(path: str, schema: DatasetSchema, strategy: str = "onehot") -> Dataset:
    """load_csv followed by encode_categoricals."""
    return encode_categoricals(load_csv(path, schema), strategy)


# --------------------------------------------------------------------------
# Splitting and summaries
# --------------------------------------------------------------------------

def split(d: Dataset, test_fraction: float, seed: int) -> SplitPair:
    """Seeded random holdout split; test size = round-half-up(n * fraction).

    The rounded test size is clamped to [1, n-1] so both halves stay
    non-empty. Identical (dataset, fraction, seed) always reproduce the
    identical row partition.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if d.n < 2:
        raise DataError(f"need at least 2 rows to split, got {d.n}")

    n_test = int(math.floor(d.n * test_fraction + 0.5))
    n_test = min(max(n_test, 1), d.n - 1)
    perm = np.random.default_rng(seed).permutation(d.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return SplitPair(train=d.take(train_idx), test=d.take(test_idx),
                     seed=seed, test_fraction=test_fraction)


def class_distribution(d: Dataset) -> dict[str, int]:
    """Per-class row counts over all classes in the schema (zeros included)."""
    counts = np.bincount(d.labels, minlength=len(d.class_names))
    return {name: int(c) for name, c in zip(d.class_names, counts)}
