"""Dataset ingestion, categorical encoding, and train/test splitting.

Supports the KDD99 / NSL-KDD / UGRansome intrusion-detection corpora plus
purely numeric synthetic data. ``load_csv`` is the only code that reads an
input CSV and reads it once, inferring the schema of a synthetic file from
its header on the way; it produces the same in-memory representation as the
generated ``--synth`` rows, so the rest of the pipeline never cares where
rows came from. A run splits those parsed rows first and then encodes each
split with the vocabulary of the training split alone, so no feature matrix
of the whole file is ever built. ``encode_categoricals`` gives a split's
rows as ``Blocks``, encoded a block at a time from codes computed once per
split, which ``Blocks.dataset()`` fills into one matrix.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, unreadable
from .preprocess import _BLOCK_ROWS, Rows, all_finite

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

    @property
    def class_names(self) -> list[str]:
        return list(self.schema.class_names)

    def take(self, indices: np.ndarray) -> "RawDataset":
        """New RawDataset holding the given rows (used by split and k-fold)."""
        return RawDataset(self.schema, [c[indices] for c in self.columns], self.labels[indices])


def _finite_rows(m: np.ndarray) -> np.ndarray:
    """Whether each row of the 2-D ``m`` is all finite, tested ``_BLOCK_ROWS`` rows at a time
    so that no bool array the size of ``m`` is built."""
    finite = np.empty(len(m), dtype=bool)
    for start in range(0, len(m), _BLOCK_ROWS):
        np.isfinite(m[start:start + _BLOCK_ROWS]).all(axis=1, out=finite[start:start + _BLOCK_ROWS])
    return finite


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
        if not all_finite(self.features):
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
        )


class SplitPair(NamedTuple):
    train: Dataset | RawDataset
    test: Dataset | RawDataset


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


_MEMO_ROWS = 256  # kept rows read before load_csv decides whether to memoize float()
_MEMO_CAP = 1 << 16  # distinct strings a _FloatMemo holds before it empties itself


class _FloatMemo(dict):
    """``float`` of each numeric string, parsed once, emptied when ``_MEMO_CAP`` are held.

    KDD99 columns are mostly flags, small counts and two-decimal rates, so a
    few thousand distinct strings cover millions of fields. A string that
    ``float`` rejects raises its ValueError and is not stored.
    """

    def __missing__(self, token: str) -> float:
        if len(self) >= _MEMO_CAP:
            self.clear()
        value = self[token] = float(token)
        return value


class _Stripped(dict):
    """Each distinct raw token's stripped ``str``, made once.

    Kept rows hold these shared strings, so the csv reader's own strings
    for a row are freed with the row.
    """

    def __missing__(self, token: str) -> str:
        value = self[token] = token.strip()
        return value


def _fields(positions: list[int]):
    """Function from a row to the sequence of its fields at ``positions``."""
    return itemgetter(*positions) if len(positions) > 1 else lambda row: [row[p] for p in positions]


def load_csv(path: str, schema: DatasetSchema | None) -> RawDataset:
    """Parse a CSV file against a schema in one pass.

    ``schema=None`` reads a CSV as ``cyclonids gen`` writes it: the first
    non-empty record names the features, the last column is the label, and
    the classes are the sorted distinct stripped labels, matched verbatim.
    Otherwise a first record whose numeric fields do not all parse is a
    header. Numeric fields become floats, categorical fields stay as stripped
    tokens, and labels become class indices: a label equal to a class name
    is that class, and any other goes through the case-folded ``label_map``.
    Rows whose numeric fields do not parse (or parse to NaN/inf) are dropped
    and their 1-based line numbers recorded in ``rejected_rows``. A wrong
    field count, an unmapped label, an inferred header naming a column twice
    or a byte that is not UTF-8 aborts the load; a byte-order mark is skipped.

    Memory: the numeric fields of kept rows fill one float64 block, and the
    returned numeric columns are views of it. Rows with a NaN or inf field
    are compacted out of that block in place, ``_BLOCK_ROWS`` rows at a
    time, so it is never copied. Categorical fields are held as one shared
    stripped string per distinct raw token.
    """
    numbers, tokens = array("d"), []  # row-major numeric and categorical fields of kept rows
    labels, kept_lines, rejected = array("q"), array("q"), []
    codes: dict[str, int] = {}  # raw label token -> class index (first-seen index if inferred)
    classes: dict[str, int] = {}  # inferred class name -> first-seen index
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            records = ((lineno, row) for lineno, row in enumerate(csv.reader(handle), start=1)
                       if row and (len(row) > 1 or row[0].strip()))
            lineno, row = next(records, (0, []))
            infer = schema is None
            if infer and len(row) < 2:
                raise DataError(f"cannot infer synthetic schema from {path}")
            if infer:
                twice = next((name for name, seen in Counter(row[:-1]).items() if seen > 1), None)
                if twice is not None:
                    raise DataError(f"{path}: the header at line {lineno} names column '{twice}' twice")
                schema = synthetic_schema(row[:-1], [])
            feature_cols = schema.feature_columns()
            numeric_pos = [c.position for c in feature_cols if c.kind == NUMERIC]
            token_pos = [c.position for c in feature_cols if c.kind == CATEGORICAL]
            numeric, categorical = _fields(numeric_pos), _fields(token_pos)
            if not infer and row and (len(row) != schema.arity or all(
                    _parse_numeric(row[p]) is not None for p in numeric_pos)):
                # not a header: a data row, or one whose arity the loop reports
                records = itertools.chain([(lineno, row)], records)

            arity, label_at = schema.arity, schema.label_position
            memo = _FloatMemo()
            parse, strip = memo.__getitem__, _Stripped().__getitem__
            for lineno, row in records:
                if len(labels) == _MEMO_ROWS and 2 * len(memo) >= len(numbers):
                    parse = float  # mostly distinct strings (`gen` writes repr floats): memo only costs
                if len(row) != arity:
                    raise DataError(
                        f"arity mismatch at row {lineno}: expected {arity} fields, got {len(row)}")
                token = row[label_at]
                code = codes.get(token)
                if code is None:
                    if infer:
                        code = classes.setdefault(token.strip(), len(classes))
                    elif token.strip() in schema.class_names:  # before case folding
                        code = schema.class_names.index(token.strip())
                    elif _normalize_label(token) in schema.label_map:
                        code = schema.class_names.index(schema.label_map[_normalize_label(token)])
                    else:
                        raise DataError(f"unknown label '{token.strip()}' at row {lineno}")
                    codes[token] = code

                try:
                    values = list(map(parse, numeric(row)))
                except ValueError:
                    values = [_parse_numeric(t) for t in numeric(row)]
                    if None in values:
                        rejected.append(lineno)
                        continue
                numbers.fromlist(values)
                tokens.extend(map(strip, categorical(row)))
                labels.append(code)
                kept_lines.append(lineno)
    except OSError as exc:
        raise unreadable(path, exc) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None

    block = np.frombuffer(numbers).reshape(len(labels), len(numeric_pos))
    cats = np.fromiter(tokens, dtype=object, count=len(tokens)).reshape(len(labels), len(token_pos))
    del tokens  # cats holds the same strings
    labels = np.asarray(labels, dtype=np.int64)
    finite = _finite_rows(block)
    if not finite.all():  # float() takes nan and inf; _parse_numeric rejects them
        rejected = sorted(rejected + np.asarray(kept_lines)[~finite].tolist())
        kept = np.flatnonzero(finite)
        # Front to back, a kept row only moves towards the front, onto rows already read.
        for start in range(0, len(kept), _BLOCK_ROWS):
            rows = kept[start:start + _BLOCK_ROWS]
            block[start:start + len(rows)] = block[rows]
        block, cats, labels = block[:len(kept)], cats[kept], labels[kept]
    if not len(labels):
        raise DataError(f"no usable rows in {path}: all {len(rejected)} rows had unparseable "
                        "numeric fields" if rejected else f"empty file: {path}")
    if rejected:
        log.warning("%s: rejected %d row(s) with unparseable numeric fields (first: row %d)",
                    path, len(rejected), rejected[0])
    if infer:
        rank = {name: i for i, name in enumerate(sorted(classes))}
        labels = np.array([rank[name] for name in classes], dtype=np.int64)[labels]
        schema = synthetic_schema([c.name for c in feature_cols], list(rank))

    numeric_cols, token_cols = iter(block.T), iter(cats.T)
    columns = [next(numeric_cols) if c.kind == NUMERIC else next(token_cols) for c in feature_cols]
    return RawDataset(schema=schema, columns=columns, labels=labels, rejected_rows=rejected)


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
    """Token -> number encoder fitted, when it is made, on the rows of one RawDataset.

    ``onehot`` expands each categorical column into one indicator column per
    token seen in ``raw`` plus a trailing unknown column; ``ordinal`` maps
    tokens to integers in first-seen order, with unseen tokens routed to the
    reserved index len(seen). Either way every output entry is finite.
    """

    def __init__(self, strategy: str, raw: RawDataset):
        if strategy not in ("onehot", "ordinal"):
            raise ConfigError(f"unknown encoding strategy '{strategy}'")
        self.strategy = strategy
        # per categorical column: token -> count over the rows of raw, in first-seen order
        self.occurrences: dict[str, dict[str, int]] = {
            col.name: dict(Counter(values))
            for col, values in zip(raw.schema.feature_columns(), raw.columns)
            if col.kind == CATEGORICAL}

    def feature_names(self, schema: DatasetSchema) -> list[str]:
        """The names of the encoded columns, in order."""
        names: list[str] = []
        for col in schema.feature_columns():
            if col.kind == CATEGORICAL and self.strategy == "onehot":
                names.extend([f"{col.name}={tok}" for tok in self.occurrences.get(col.name, {})]
                             + [f"{col.name}={UNKNOWN_TOKEN}"])
            else:
                names.append(col.name)
        return names

    def rows(self, raw: RawDataset) -> Rows:
        """The encoded rows of ``raw``, which ``fill`` writes for any range of rows into a
        buffer. Each categorical column's codes are computed here, once; only they and the
        numeric columns are held, not the tokens."""
        parts = []  # (first output column, one-hot width or 0, numeric values or codes)
        at = 0
        for col, values in zip(raw.schema.feature_columns(), raw.columns):
            width = 0
            if col.kind == CATEGORICAL:
                index = {tok: i for i, tok in enumerate(self.occurrences.get(col.name, {}))}
                values = np.fromiter(map(index.get, values, itertools.repeat(len(index))),
                                     dtype=np.intp, count=len(values))
                width = len(index) + 1 if self.strategy == "onehot" else 0
            parts.append((at, width, values))
            at += width or 1

        def fill(start: int, stop: int, out: np.ndarray) -> np.ndarray:
            for at, width, values in parts:
                if width:
                    out[:, at:at + width] = 0.0
                    out[np.arange(stop - start), at + values[start:stop]] = 1.0
                else:
                    out[:, at] = values[start:stop]
            return out
        return Rows(raw.n, at, fill)


@dataclass(frozen=True)
class Blocks:
    """A split whose ``features`` are ``Rows``, read a block at a time: encoded, and after
    the runner's standardize stage standardized too. ``dataset()`` fills one Dataset."""

    features: Rows
    labels: np.ndarray
    feature_names: list[str]
    schema_id: str
    class_names: list[str]

    n = property(lambda self: self.features.n)
    p = property(lambda self: self.features.p)

    def dataset(self) -> Dataset:
        rows = self.features
        return Dataset(features=rows.fill(0, rows.n, np.empty((rows.n, rows.p))),
                       labels=self.labels.copy(), feature_names=list(self.feature_names),
                       schema_id=self.schema_id, class_names=list(self.class_names))


def encode_categoricals(raw: RawDataset, encoder: CategoricalEncoder | str = "onehot") -> Blocks:
    """The rows of ``raw`` encoded, a block at a time, with a fitted encoder, or with a new
    encoder of the named strategy fitted on ``raw`` itself.

    Tokens the encoder did not see at fit time go to the unknown column
    (onehot) or the reserved code (ordinal).
    """
    if isinstance(encoder, str):
        encoder = CategoricalEncoder(encoder, raw)
    return Blocks(encoder.rows(raw), raw.labels, encoder.feature_names(raw.schema),
                  raw.schema.id, raw.class_names)


# --------------------------------------------------------------------------
# Splitting and summaries
# --------------------------------------------------------------------------

def holdout_rows(n: int, test_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, test) row indices of a seeded random holdout of n rows.

    Test size = round-half-up(n * fraction), clamped to [1, n-1] so both
    halves stay non-empty; identical arguments give the identical partition.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if n < 2:
        raise DataError(f"need at least 2 rows to split, got {n}")

    n_test = int(math.floor(n * test_fraction + 0.5))
    n_test = min(max(n_test, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def split(d: Dataset | RawDataset, test_fraction: float, seed: int) -> SplitPair:
    """The rows of ``d``, encoded or only parsed, partitioned by ``holdout_rows``."""
    train_idx, test_idx = holdout_rows(d.n, test_fraction, seed)
    return SplitPair(train=d.take(train_idx), test=d.take(test_idx))


def class_distribution(d: Dataset | RawDataset) -> dict[str, int]:
    """Per-class row counts over all classes in the schema (zeros included)."""
    counts = np.bincount(d.labels, minlength=len(d.class_names))
    return {name: int(c) for name, c in zip(d.class_names, counts)}
