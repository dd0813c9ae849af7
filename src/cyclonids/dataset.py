"""Dataset ingestion, categorical encoding, and train/test splitting.

Supports the KDD99 / NSL-KDD / UGRansome intrusion-detection corpora plus
purely numeric synthetic data. ``load_csv`` is the only code that reads an
input CSV and reads it once, inferring the schema of a synthetic file from
its header on the way; numpy's C text reader parses the clean chunks of
lines and a Python row loop the rest. It produces the same in-memory
representation as the generated ``--synth`` rows, so the rest of the
pipeline never cares where rows came from. The parsed rows are three
row-major blocks: int32 for each numeric column whose values are all
integers in int32's range (counts, flags and byte totals), float64 for the
other numeric columns, and int32 codes of the categorical fields, each
column's codes pointing into its own table of stripped tokens (an Apache
Arrow dictionary array). int32 decodes to float64 exactly, a lightweight
encoding as in Abadi, Madden & Ferreira (SIGMOD 2006); the loader splits the
numeric columns as rows arrive, and a ``--synth`` dataset has no int32
column. A run splits those parsed rows first and then encodes each split
with the vocabulary of the training split alone, so no feature matrix of
the whole file is ever built. A split is a sorted row index into the loaded
blocks, a selection vector as in MonetDB/X100, and copies none of their
rows. ``encode_categoricals`` gives a split's rows as ``Blocks``, gathered
and encoded a block at a time, which ``Blocks.dataset()`` fills into one
matrix.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import os
from array import array
from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, unreadable
from .preprocess import Rows, all_finite

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
    """Parsed but not-yet-encoded rows, held as the loader's three row-major blocks: the
    numeric columns listed in ``int_columns`` (by default none) as int32 in ``ints``, the
    other numeric columns as float64 in ``numbers``, and the categorical fields as int32
    codes, code ``c`` of a column standing for token ``c`` of its table in ``tokens``.
    int32 -> float64 is exact, so either numeric block gives each value's float64 bits.
    With ``index`` set, the dataset is those rows of the blocks, in that order, and holds
    no copy of them."""

    schema: DatasetSchema
    numbers: np.ndarray  # (block rows, numeric columns not in int_columns) float64, schema order
    codes: np.ndarray  # (block rows, categorical feature columns) int32, schema order
    labels: np.ndarray  # class indices of this dataset's rows
    tokens: list[list[str]]  # per categorical column, schema order: distinct stripped tokens
    rejected_rows: list[int] = field(default_factory=list)
    index: np.ndarray | None = None  # block rows of this dataset, in order; None: every one
    ints: np.ndarray | None = None  # (block rows, len(int_columns)) int32; None: no column
    int_columns: tuple[int, ...] = ()  # ascending numeric-column indices held in ints

    def __post_init__(self) -> None:
        if self.ints is None:
            self.ints = np.empty((len(self.numbers), 0), np.int32)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def class_names(self) -> list[str]:
        return list(self.schema.class_names)

    def block_rows(self, start: int, stop: int) -> slice | np.ndarray:
        """Rows start..stop of this dataset as a slice or an index of its blocks' rows."""
        return slice(start, stop) if self.index is None else self.index[start:stop]

    def take(self, indices: np.ndarray) -> "RawDataset":
        """The given rows as an index into the same blocks: no block row is copied, and a
        view's index is composed. Split and k-fold give sorted rows, so a split reads its
        blocks front to back and meets each token first where the file does."""
        index = indices if self.index is None else self.index[indices]
        return replace(self, labels=self.labels[indices], rejected_rows=[], index=index)

    def compact(self) -> "RawDataset":
        """The same rows in blocks of their own, so that the blocks a view indexes can go."""
        if self.index is None:
            return self
        return replace(self, numbers=self.numbers[self.index], ints=self.ints[self.index],
                       codes=self.codes[self.index], index=None)

    @property
    def row_bytes(self) -> int:
        """The bytes one row takes in the blocks."""
        return sum(b.itemsize * b.shape[1] for b in (self.numbers, self.ints, self.codes))


@dataclass
class Dataset:
    """Fully numeric dataset: the unit every pipeline stage consumes.

    Immutable by convention; the arrays are marked read-only so a shared
    instance cannot be corrupted by a downstream stage.
    """

    features: np.ndarray  # (n, p) float64
    labels: np.ndarray  # (n,) int
    feature_names: list[str]
    class_names: list[str]

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
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
        self.features.setflags(write=False)
        self.labels.setflags(write=False)

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


def synthetic_schema(feature_names: list[str], class_names: list[str]) -> DatasetSchema:
    """All-numeric schema with a trailing label column."""
    cols = [ColumnSchema(name, NUMERIC, i) for i, name in enumerate(feature_names)]
    cols.append(ColumnSchema("label", LABEL, len(feature_names)))
    label_map = {name.lower(): name for name in class_names}
    return DatasetSchema("synthetic", tuple(cols), tuple(class_names), label_map)


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


_MEMO_CAP = 1 << 16  # distinct strings a _FloatMemo holds before it empties itself


class _FloatMemo(dict):
    """The value ``_parse_numeric`` gives each numeric string, parsed once per string and
    emptied when ``_MEMO_CAP`` are held; a string that is not a finite number raises
    ValueError and is not stored.

    KDD99 columns are mostly flags, small counts and two-decimal rates, so a
    few thousand distinct strings cover millions of fields. A file of mostly
    distinct numbers pays one miss per field.
    """

    def __missing__(self, token: str) -> float:
        if (value := _parse_numeric(token)) is None:
            raise ValueError(f"not a finite number: {token!r}")
        if len(self) >= _MEMO_CAP:
            self.clear()
        self[token] = value
        return value


class _Codes(dict):
    """One categorical column's code of each distinct raw token. A raw token is stripped
    once, when first seen; tokens equal once stripped share a code, and ``tokens`` is the
    column's table: the stripped tokens in first-seen order."""

    def __init__(self) -> None:
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        stripped = token.strip()
        code = self[token] = self.setdefault(stripped, len(self.tokens))
        if code == len(self.tokens):
            self.tokens.append(stripped)
        return code


class _Labels(dict):
    """Class index of each distinct raw label token, found once per token: a label equal to a
    class name is that class, any other goes through the case-folded ``label_map``, and one
    that maps to no class raises KeyError. ``classes`` is set when the classes are inferred:
    each stripped label is then a class, indexed in first-seen order, and a blank one raises
    KeyError."""

    def __init__(self, schema: DatasetSchema, infer: bool) -> None:
        super().__init__()
        self.schema = schema
        self.classes: dict[str, int] | None = {} if infer else None

    def __missing__(self, token: str) -> int:
        stripped, names = token.strip(), self.schema.class_names
        if self.classes is not None:
            if not stripped:
                raise KeyError(token)
            code = self.classes.setdefault(stripped, len(self.classes))
        elif stripped in names:  # before case folding
            code = names.index(stripped)
        else:
            code = names.index(self.schema.label_map[_normalize_label(token)])
        self[token] = code
        return code


_CHUNK_LINES = 64  # data lines handed to np.loadtxt at a time (a failed chunk costs its lines' row loop)
_CSV_ONLY = '"\0'  # a chunk holding either is read as CSV: a quote, or a NUL (Python 3.10's csv rejects it)
_SLAB_ROWS = 4096  # rows of numeric fields staged as float64 before they join the loaded blocks
_NEGATIVE_ZERO = np.float64(-0.0).view(np.int64)  # the one integral float64 whose bits int32 loses


def _fitting(narrow: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """Whether each int32 value of ``narrow``, cast from the float64 ``wide``, gives back its
    float64 bits: a value out of int32's range casts to some other value, and -0.0 to 0."""
    return (narrow == wide) & (wide.view(np.int64) != _NEGATIVE_ZERO)


class _Numbers:
    """The numeric fields of the kept rows, held as two row-major blocks that fill as rows
    arrive: int32 for the columns whose values all keep their float64 bits through int32
    (``narrow``), float64 for the rest (``wide``), each in schema order. Rows are staged as
    float64, ``_SLAB_ROWS`` at a time, and each slab is written into place in the blocks.
    The first slab fixes the split; a later slab holding a value that int32 cannot carry
    moves that column to a new float64 block, while the int32 block drops the column in
    place. The row loop's rows wait in ``pending`` until a chunk's rows come, or a slab's
    worth has.

    The blocks are made once, for as many rows as the file's bytes (``size``) hold at the
    rate of the bytes read so far (``position()``), plus a sixteenth; only a file whose
    later rows are shorter needs them made again, and larger. Room never filled is never
    touched, so it costs no resident memory. Blocks grown a little at a time would, once
    a process has freed a block of up to 32 MiB (its previous run's int32 block), be put
    in glibc's heap and leave a hole behind at each step: about 30 MB more at the peak of
    a second 250,000-row KDD99 load."""

    def __init__(self, width: int, size: int, position) -> None:
        self.width, self.size, self.position = width, size, position
        self.slab, self.pending = np.empty((_SLAB_ROWS, width)), array("d")
        self.staged = self.rows = self.capacity = self.widened = 0  # rows in the slab, in the blocks
        self.narrow: list[int] | None = None  # fixed by the first slab
        self.wide: list[int] = []
        self.ints, self.floats = np.empty(0, np.int32), np.empty(0)

    def append(self, values: list[float]) -> None:
        """Add one row of the row loop."""
        self.pending.fromlist(values)
        if len(self.pending) >= _SLAB_ROWS * self.width:
            self._drain()

    def extend(self, values: np.ndarray) -> None:
        """Add the rows of a chunk, after the rows pending."""
        self._drain()
        self._stage(values)

    def _drain(self) -> None:
        if self.pending:
            self._stage(np.frombuffer(self.pending).reshape(-1, self.width))
            del self.pending[:]  # once no view of it is left

    def _stage(self, values: np.ndarray) -> None:
        while len(values):
            take = min(len(values), _SLAB_ROWS - self.staged)
            self.slab[self.staged:self.staged + take] = values[:take]
            self.staged += take
            values = values[take:]
            if self.staged == _SLAB_ROWS:
                self._flush()

    def _reserve(self, rows: int) -> None:
        """Room for ``rows`` rows in both blocks."""
        if rows > self.capacity:
            read = self.position()
            self.capacity = max(rows + rows // 8, rows * self.size // read * 17 // 16 if read else 0)
            self.ints = self._moved(self.ints, len(self.narrow))
            self.floats = self._moved(self.floats, len(self.wide))

    def _moved(self, block: np.ndarray, width: int) -> np.ndarray:
        """A block of ``capacity`` rows of ``width`` columns holding the rows of ``block``."""
        moved = np.empty(self.capacity * width, block.dtype)
        moved[:self.rows * width] = block[:self.rows * width]
        return moved

    def _flush(self) -> None:
        """Write the staged rows into the blocks."""
        rows, self.staged = self.slab[:self.staged], 0
        if self.narrow is None:
            with np.errstate(invalid="ignore"):
                fits = _fitting(rows.astype(np.int32), rows).all(axis=0)
            self.narrow = [c for c in range(self.width) if fits[c]]
            self.wide = [c for c in range(self.width) if not fits[c]]
        self._reserve(self.rows + len(rows))
        start, stop = self.rows, self.rows + len(rows)
        while self.narrow:
            width = len(self.narrow)
            narrow = self.ints[start * width:stop * width].reshape(len(rows), width)
            wide = rows if width == self.width else rows.take(self.narrow, axis=1)
            with np.errstate(invalid="ignore"):
                np.copyto(narrow, wide, casting="unsafe")
            fitting = _fitting(narrow, wide)
            if fitting.all():
                break
            del narrow
            self._widen([c for c, ok in zip(self.narrow, fitting.all(axis=0)) if not ok])
        width = len(self.wide)
        wide = self.floats[start * width:stop * width].reshape(len(rows), width)
        if width == self.width:
            wide[...] = rows
        else:
            rows.take(self.wide, axis=1, out=wide, mode="clip")
        self.rows = stop

    def _widen(self, moved: list[int]) -> None:
        """Move the ``moved`` columns of the int32 block to a new float64 block."""
        self.widened += len(moved)
        wide, left = sorted(self.wide + moved), [j for j, c in enumerate(self.narrow) if c not in moved]
        ints = self.ints[:self.rows * len(self.narrow)].reshape(self.rows, len(self.narrow))
        floats = np.empty(self.capacity * len(wide))
        new = floats[:self.rows * len(wide)].reshape(self.rows, len(wide))
        new[:, [wide.index(c) for c in self.wide]] = self.floats[:self.rows * len(self.wide)].reshape(
            self.rows, len(self.wide))
        new[:, [wide.index(c) for c in moved]] = ints[:, [self.narrow.index(c) for c in moved]]
        # drop the moved columns front to back, so that no row is overwritten before it is read
        kept = self.ints[:self.rows * len(left)].reshape(self.rows, len(left))
        for lo in range(0, self.rows, _SLAB_ROWS):
            kept[lo:lo + _SLAB_ROWS] = ints[lo:lo + _SLAB_ROWS, left]
        self.floats, self.wide, self.narrow = floats, wide, [self.narrow[j] for j in left]

    def blocks(self, n: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """The float64 block, the int32 block and the numeric columns the int32 one holds."""
        self._drain()
        if self.staged:
            self._flush()
        narrow = self.narrow or []
        return (self.floats[:n * len(self.wide)].reshape(n, len(self.wide)),
                self.ints[:n * len(narrow)].reshape(n, len(narrow)), tuple(narrow))


class _Records:
    """The non-blank CSV records of an open handle as (record number, row), numbered from 1.

    Lines are read ``_CHUNK_LINES`` at a time. A chunk that ``take(lines)`` takes
    (one record per line, stored by ``take``) yields nothing; any other is read by
    ``csv.reader``, past its last line while a quoted field spans lines. Until
    ``take`` is set, every chunk is read as CSV. Once exhausted, ``lineno`` is the
    number of records and ``taken`` the number of them that ``take`` took.
    """

    def __init__(self, handle, path: str) -> None:
        self.handle, self.path, self.lineno, self.taken = handle, path, 0, 0
        self.take = lambda lines: False

    def __iter__(self):
        lineno = 0
        try:
            while lines := list(itertools.islice(self.handle, _CHUNK_LINES)):
                if self.take(lines):
                    lineno += len(lines)
                    self.taken += len(lines)
                    continue
                reader, end = csv.reader(itertools.chain(lines, self.handle)), len(lines)
                for lineno, row in enumerate(reader, start=lineno + 1):
                    if row and (len(row) > 1 or row[0].strip()):
                        yield lineno, row
                    if reader.line_num >= end:
                        break
        except csv.Error as exc:  # a field over csv.field_size_limit(), or a NUL before Python 3.11
            raise DataError(f"{self.path}: row {lineno + 1}: {exc}") from None
        self.lineno = lineno


def _fields(positions: list[int]):
    """Function from a row to the sequence of its fields at ``positions``."""
    return itemgetter(*positions) if len(positions) > 1 else lambda row: [row[p] for p in positions]


def _chunk_reader(arity: int, numeric_pos: list[int], token_pos: list[int], label_at: int,
                  limit: int, numbers: _Numbers, codes: array, labels: array, coders: list[_Codes],
                  label_codes: _Labels):
    """``take(lines)`` for ``_Records``: parse a chunk of data lines with ``np.loadtxt`` and,
    when each line is one record whose numeric fields are finite floats and whose label is
    known, append its rows to the buffers as the row loop would and return True. Any other
    chunk is left to the row loop, the only code that rejects a row or raises."""
    order = numeric_pos + [p for p in range(arity) if p not in numeric_pos]  # numeric fields first
    dtype = np.dtype({"names": [f"f{p}" for p in range(arity)],
                      "formats": ["f8" if p in numeric_pos else "O" for p in range(arity)],
                      "offsets": [8 * order.index(p) for p in range(arity)]})
    label, tokens = f"f{label_at}", [f"f{p}" for p in token_pos]

    def take(lines: list[str]) -> bool:
        text = "".join(lines)
        if (text.isspace() or any(c in text for c in _CSV_ONLY)  # loadtxt warns on no data
                or len(text) > limit and max(map(len, lines)) > limit):
            return False
        try:
            rec = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # a wrong field count, or a numeric field that is not a float
            return False
        # the numeric fields, first in each record, as one (rows, numeric fields) view
        values = np.ndarray((len(rec), len(numeric_pos)), np.float64, rec, 0, (dtype.itemsize, 8))
        if len(rec) < len(lines) or not np.isfinite(values).all():  # a blank line, or nan/inf
            return False
        try:
            found = list(map(label_codes.__getitem__, rec[label]))
        except KeyError:
            return False
        numbers.extend(values)
        block = np.empty((len(rec), len(coders)), np.int32)
        for j, (coder, name) in enumerate(zip(coders, tokens)):  # in row order, as the row loop
            block[:, j] = list(map(coder.__getitem__, rec[name].tolist()))
        codes.frombytes(block.tobytes())
        labels.extend(found)
        return True
    return take


def load_csv(path: str, schema: DatasetSchema | None) -> RawDataset:
    """Parse a CSV file against a schema in one pass.

    ``schema=None`` reads a CSV as ``cyclonids gen`` writes it: the first
    non-empty record names the features, the last column is the label, and
    the classes are the sorted distinct stripped labels, matched verbatim;
    a blank label is an unknown one. Otherwise the first record is a header
    when none of its numeric fields parses, so a first data row with one bad
    number is rejected like any other. Numeric fields become floats, each
    categorical column becomes int32 codes into its table of stripped tokens
    in first-seen order, and labels become class indices: a label equal to a
    class name is that class, and any other goes through the case-folded
    ``label_map``. A row whose numeric fields do not all parse to finite
    floats is dropped in the row loop and its 1-based line number recorded
    in ``rejected_rows``. A wrong field count, an unknown label, an inferred
    header naming a column twice, a field over ``csv.field_size_limit()`` or
    a byte that is not UTF-8 aborts the load; a byte-order mark is skipped.

    Speed: after the first record, lines are read ``_CHUNK_LINES`` at a time
    and a chunk that ``np.loadtxt`` parses clean (see ``_chunk_reader``) is
    stored as the row loop would store it; only the other chunks go through
    the row loop. Memory: the numeric fields of kept rows are staged as
    float64 a slab of ``_SLAB_ROWS`` rows at a time and written into two
    blocks (see ``_Numbers``): int32 for each column whose values all keep
    their float64 bits through int32, so not -0.0, a fraction or a value
    past 2**31, and float64 for the rest. Their codes fill one int32 block.
    The returned dataset holds the blocks as they are.
    """
    codes, labels, rejected = array("i"), array("q"), []  # row-major token codes of kept rows
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            source = _Records(handle, path)
            records = iter(source)
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
            if not infer and row and (len(row) != schema.arity or not numeric_pos or any(
                    _parse_numeric(row[p]) is not None for p in numeric_pos)):
                # not a header: a data row, or one whose arity the loop reports
                records = itertools.chain([(lineno, row)], records)

            arity, label_at = schema.arity, schema.label_position
            label_codes = _Labels(schema, infer)  # raw label token -> class index
            memo, coders = _FloatMemo(), [_Codes() for _ in token_pos]
            numbers = _Numbers(len(numeric_pos), os.fstat(handle.fileno()).st_size,
                               handle.buffer.tell if handle.seekable() else lambda: 0)
            source.take = _chunk_reader(arity, numeric_pos, token_pos, label_at, csv.field_size_limit(),
                                        numbers, codes, labels, coders, label_codes)
            for lineno, row in records:
                if len(row) != arity:
                    raise DataError(
                        f"arity mismatch at row {lineno}: expected {arity} fields, got {len(row)}")
                try:
                    code = label_codes[row[label_at]]
                except KeyError:
                    raise DataError(f"unknown label '{row[label_at].strip()}' at row {lineno}") from None

                try:
                    values = list(map(memo.__getitem__, numeric(row)))
                except ValueError:  # NaN, inf and any field that is not a number
                    rejected.append(lineno)
                    continue
                numbers.append(values)
                codes.extend(map(_Codes.__getitem__, coders, categorical(row)))
                labels.append(code)
            floats, ints, int_columns = numbers.blocks(len(labels))
    except OSError as exc:
        raise unreadable(path, exc) from None
    except UnicodeDecodeError:
        raise _not_utf8(path) from None

    log.debug("%s: %d line(s) parsed by np.loadtxt, %d by the row loop; %d of %d numeric "
              "column(s) held as int32, %d widened to float64 mid-file", path, source.taken,
              source.lineno - source.taken, len(int_columns), len(numeric_pos), numbers.widened)
    if not labels:
        raise DataError(f"no usable rows in {path}: all {len(rejected)} rows had unparseable "
                        "numeric fields" if rejected else f"empty file: {path}")
    if rejected:
        log.warning("%s: rejected %d row(s) with unparseable numeric fields (first: row %d)",
                    path, len(rejected), rejected[0])
    labels = np.asarray(labels, dtype=np.int64)
    if infer:
        rank = {name: i for i, name in enumerate(sorted(label_codes.classes))}
        labels = np.array([rank[name] for name in label_codes.classes], dtype=np.int64)[labels]
        schema = synthetic_schema([c.name for c in feature_cols], list(rank))

    codes = np.frombuffer(codes, dtype=np.int32).reshape(len(labels), len(token_pos))
    return RawDataset(schema, floats, codes, labels, [c.tokens for c in coders], rejected,
                      ints=ints, int_columns=int_columns)


def write_csv(d: Dataset, path: str) -> None:
    """Write a numeric Dataset with a header row; floats use round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(d.feature_names) + ["label"])
        for row, label in zip(d.features, d.labels):
            writer.writerow([repr(float(v)) for v in row] + [d.class_names[label]])


# --------------------------------------------------------------------------
# Categorical encoding
# --------------------------------------------------------------------------

# Rows of the numeric block CategoricalEncoder.rows copies out of a split's index at once:
# small, as the traced peak of an 8,000-row 50/50 PCA run grows with it (1.45 encoded
# matrices at 1,024 rows, against 1.38 at 256 and a bound of 1.4).
_GATHER_ROWS = 256


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
        names = [c.name for c in raw.schema.feature_columns() if c.kind == CATEGORICAL]
        self.occurrences: dict[str, dict[str, int]] = {}
        for j, (name, table) in enumerate(zip(names, raw.tokens)):
            codes, first, counts = np.unique(raw.codes[raw.block_rows(0, raw.n), j],
                                             return_index=True, return_counts=True)
            order = np.argsort(first)
            self.occurrences[name] = {table[c]: int(k) for c, k in zip(codes[order], counts[order])}

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
        buffer. Each categorical column's token table is mapped through the vocabulary here,
        once per distinct token, and ``fill`` gathers a block's codes from that lookup. It
        gathers the numeric fields of each numeric block ``_GATHER_ROWS`` rows at a time, so
        a split that indexes the loaded blocks needs no block-sized copy of them, and writes
        each run of numeric columns that stay adjacent, both once encoded and in their block,
        with one slice assignment."""
        tables = iter(raw.tokens)
        blocks, wide = (raw.numbers, raw.ints), itertools.count()
        narrow = {c: j for j, c in enumerate(raw.int_columns)}  # numeric column -> its column of ints
        runs = []  # [first output column, block, first column in the block, run length]
        parts = []  # (first output column, one-hot width or 0, categorical column, code lookup)
        at = numeric = 0
        for col in raw.schema.feature_columns():
            if col.kind == CATEGORICAL:
                index = {tok: i for i, tok in enumerate(self.occurrences.get(col.name, {}))}
                lookup = np.array([index.get(tok, len(index)) for tok in next(tables)], dtype=np.intp)
                width = len(index) + 1 if self.strategy == "onehot" else 0
                parts.append((at, width, len(parts), lookup))
                at += width or 1
                continue
            source = [1, narrow[numeric]] if numeric in narrow else [0, next(wide)]
            if runs and runs[-1][0] + runs[-1][3] == at and runs[-1][1] == source[0] \
                    and runs[-1][2] + runs[-1][3] == source[1]:  # the column before continues
                runs[-1][3] += 1
            else:
                runs.append([at, *source, 1])
            at, numeric = at + 1, numeric + 1
        used = sorted({k for _, k, _, _ in runs})

        def fill(start: int, stop: int, out: np.ndarray) -> np.ndarray:
            buffers = {k: np.empty((min(stop - start, _GATHER_ROWS), blocks[k].shape[1]), blocks[k].dtype)
                       for k in used}
            for lo in range(start, stop, _GATHER_ROWS):
                hi = min(lo + _GATHER_ROWS, stop)
                # mode "raise" would gather into a temporary first; the index is valid
                rows = {k: blocks[k][lo:hi] if raw.index is None else np.take(
                    blocks[k], raw.index[lo:hi], axis=0, out=buffer[:hi - lo], mode="clip")
                    for k, buffer in buffers.items()}
                for at, k, first, width in runs:  # int32 -> float64 is exact
                    out[lo - start:hi - start, at:at + width] = rows[k][:, first:first + width]
            picked = raw.block_rows(start, stop)
            for at, width, j, lookup in parts:
                values = lookup[raw.codes[picked, j]]
                if width:
                    out[:, at:at + width] = 0.0
                    out[np.arange(stop - start), at + values] = 1.0
                else:
                    out[:, at] = values
            return out
        return Rows(raw.n, at, fill)


@dataclass(frozen=True)
class Blocks:
    """A split whose ``features`` are ``Rows``, read a block at a time: encoded, and after
    the runner's standardize stage standardized too. ``dataset()`` fills one Dataset."""

    features: Rows
    labels: np.ndarray
    feature_names: list[str]
    class_names: list[str]

    n = property(lambda self: self.features.n)
    p = property(lambda self: self.features.p)

    def dataset(self) -> Dataset:
        rows = self.features
        return Dataset(features=rows.fill(0, rows.n, np.empty((rows.n, rows.p))),
                       labels=self.labels.copy(), feature_names=list(self.feature_names),
                       class_names=list(self.class_names))


def encode_categoricals(raw: RawDataset, encoder: CategoricalEncoder | str = "onehot") -> Blocks:
    """The rows of ``raw`` encoded, a block at a time, with a fitted encoder, or with a new
    encoder of the named strategy fitted on ``raw`` itself.

    Tokens the encoder did not see at fit time go to the unknown column
    (onehot) or the reserved code (ordinal).
    """
    if isinstance(encoder, str):
        encoder = CategoricalEncoder(encoder, raw)
    return Blocks(encoder.rows(raw), raw.labels, encoder.feature_names(raw.schema), raw.class_names)


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
    """The rows of ``d``, encoded or only parsed, partitioned by ``holdout_rows``. The halves
    of parsed rows are row indices into ``d``'s blocks; encoded ones are copies."""
    train_idx, test_idx = holdout_rows(d.n, test_fraction, seed)
    return SplitPair(train=d.take(train_idx), test=d.take(test_idx))


def class_distribution(d: Dataset | RawDataset) -> dict[str, int]:
    """Per-class row counts over all classes in the schema (zeros included)."""
    counts = np.bincount(d.labels, minlength=len(d.class_names))
    return {name: int(c) for name, c in zip(d.class_names, counts)}
