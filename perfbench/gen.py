"""Seeded input generators for the pipeline benchmark.

Both generators take the workload seed, write a CSV plus a JSON manifest
that records what was planted (informative columns, malformed lines), and
are byte-for-byte deterministic in the seed. They are run before any timing
starts; the program under test only ever sees the CSV.

- ``write_synthetic``: the ROADMAP baseline shape (8,000 rows, 5 informative
  + 35 noise columns, 3 classes, separation 2.0), written by the program's
  own ``synthgen`` and ``write_csv`` so it has the header the runner infers
  the synthetic schema from.
- ``write_kdd``: a KDD99-layout file (41 features, no header, labels are
  attack names ending in '.') whose numeric signal comes from ``synthgen``
  and whose token columns mostly hold a signature token of the row's
  traffic profile. Class shares follow the KDD99 10% training file, so U2R
  and R2L are rare, and a fixed share of rows carries one unparseable
  numeric field.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from cyclonids.dataset import CATEGORICAL, kdd99_schema, write_csv
from cyclonids.synthgen import SynthConfig, gen_classification

SYNTH_SHAPE = dict(n_samples=8000, n_informative=5, n_noise=35, n_classes=3,
                   class_separation=2.0)

KDD_ROWS = 250_000
KDD_MALFORMED_SHARE = 0.002
KDD_SIGNATURE_SHARE = 0.97
# Traffic profile behind each category's rows: synthgen class and signature
# tokens. U2R and R2L are content attacks whose connection records look like
# normal traffic in the real corpus, so they get the normal profile.
_PROFILE = {"Normal": 0, "DoS": 1, "Probe": 2, "U2R": 0, "R2L": 0}
# Tokens load_csv must reject: not a float, or a float that is not finite.
# The line break would end the record, so none of them contains one.
BAD_NUMERIC = ("?", "", "-", "1.2.3", "0x1f", "nan", "inf")

# Attack name -> share of rows, after the KDD99 10% training file.
KDD_ATTACKS = {
    "smurf": 0.5684, "neptune": 0.2169, "normal": 0.1969, "back": 0.0045,
    "satan": 0.0032, "ipsweep": 0.0025, "portsweep": 0.0021, "warezclient": 0.0021,
    "teardrop": 0.0020, "pod": 0.0005, "nmap": 0.0005, "guess_passwd": 0.00011,
    "buffer_overflow": 0.00006, "land": 0.00004, "warezmaster": 0.00004,
    "imap": 0.000024, "rootkit": 0.00002, "loadmodule": 0.000018,
    "ftp_write": 0.000016, "multihop": 0.000014, "phf": 0.000008, "perl": 0.000006,
    "spy": 0.000004,
}
PROTOCOLS = ("tcp", "udp", "icmp")
SERVICES = (
    "ecr_i", "private", "http", "smtp", "other", "domain_u", "ftp_data", "eco_i", "ftp",
    "finger", "urp_i", "telnet", "ntp_u", "auth", "pop_3", "time", "csnet_ns", "remote_job",
    "gopher", "imap4", "discard", "domain", "iso_tsap", "systat", "shell", "echo", "rje",
    "whois", "sql_net", "printer", "nntp", "courier", "sunrpc", "netbios_ssn", "mtp",
    "vmnet", "uucp_path", "uucp", "klogin", "bgp", "ssh", "supdup", "nnsp", "login",
    "hostnames", "efs", "daytime", "link", "netbios_ns", "pop_2", "ldap", "netbios_dgm",
    "exec", "http_443", "kshell", "name", "ctf", "netstat", "Z39_50", "IRC", "urh_i",
    "X11", "tim_i", "pm_dump", "tftp_u", "red_i", "http_8001", "aol", "http_2784", "harvest",
)
FLAGS = ("SF", "S0", "REJ", "RSTR", "RSTO", "SH", "S1", "S2", "RSTOS0", "S3", "OTH")

# Numeric columns that carry the synthgen columns, and how each is rendered.
_SIGNAL_COLUMNS = {
    "duration": "duration", "src_bytes": "bytes", "dst_bytes": "bytes",
    "count": "count", "srv_count": "count", "dst_host_count": "count",
    "dst_host_srv_count": "count", "serror_rate": "rate", "same_srv_rate": "rate",
    "diff_srv_rate": "rate", "dst_host_same_srv_rate": "rate", "dst_host_serror_rate": "rate",
}
_KDD_SYNTH_INFORMATIVE = 6


def _write_manifest(path: str, manifest: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")


def write_synthetic(csv_path: str, manifest_path: str, seed: int,
                    n_samples: int = SYNTH_SHAPE["n_samples"]) -> dict:
    """Baseline-shape synthetic CSV; the manifest names the planted informative columns."""
    shape = dict(SYNTH_SHAPE, n_samples=n_samples)
    d, informative = gen_classification(SynthConfig(seed=seed, **shape))
    write_csv(d, csv_path)
    manifest = {"layout": "synthetic", "seed": seed, "rows": d.n,
                "informative": sorted(d.feature_names[i] for i in informative),
                "columns": list(d.feature_names), "malformed_lines": []}
    _write_manifest(manifest_path, manifest)
    return manifest


def _class_counts(n: int, shares: list[float]) -> np.ndarray:
    """Largest-remainder apportionment of n rows; every class keeps at least one row."""
    raw = np.asarray(shares) / sum(shares) * n
    counts = np.maximum(np.floor(raw).astype(np.int64), 1)
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    i = 0
    while counts.sum() < n:
        counts[order[i % len(order)]] += 1
        i += 1
    while counts.sum() > n:
        counts[int(np.argmax(counts))] -= 1
    return counts


def _render(kind: str, z: np.ndarray) -> list[str]:
    if kind == "duration":
        values = np.maximum(np.rint(np.expm1(np.abs(z))), 0).astype(np.int64)
    elif kind == "bytes":
        values = np.rint(np.exp(5.0 + 1.2 * z)).astype(np.int64)
    elif kind == "count":
        values = np.clip(np.rint(255.0 + 80.0 * z), 0, 511).astype(np.int64)
    else:
        return np.round(1.0 / (1.0 + np.exp(-z)), 2).astype(str).tolist()
    return values.astype(str).tolist()


def _tokens(rng: np.random.Generator, vocab: tuple[str, ...], profile: np.ndarray) -> list[str]:
    """Mostly each profile's signature token, otherwise a Zipf-like draw over the vocabulary."""
    v = len(vocab)
    weights = 1.0 / np.arange(1, v + 1)
    draw = rng.choice(v, size=len(profile), p=weights / weights.sum())
    signature = (np.array([0, 1, 3]) % v)[profile]
    draw = np.where(rng.random(len(profile)) < KDD_SIGNATURE_SHARE, signature, draw)
    return np.asarray(vocab)[draw].tolist()


def write_kdd(csv_path: str, manifest_path: str, seed: int, n_rows: int = KDD_ROWS) -> dict:
    """KDD99-layout CSV of n_rows lines; the manifest lists the malformed line numbers."""
    schema = kdd99_schema()
    rng = np.random.default_rng([seed, 99])
    names = list(KDD_ATTACKS)
    counts = _class_counts(n_rows, [KDD_ATTACKS[a] for a in names])
    profiles = np.array([_PROFILE[schema.label_map[a]] for a in names])

    # synthgen balances its classes, so draw enough rows for the largest
    # profile and keep the first rows of each as that profile's signal.
    per_profile = np.bincount(profiles, weights=counts, minlength=3).astype(np.int64)
    synth, informative = gen_classification(SynthConfig(
        n_samples=3 * int(per_profile.max()), n_informative=_KDD_SYNTH_INFORMATIVE,
        n_noise=len(_SIGNAL_COLUMNS) - _KDD_SYNTH_INFORMATIVE, n_classes=3,
        class_separation=2.0, seed=int(rng.integers(2**31 - 1))))
    attack = np.repeat(np.arange(len(names)), counts)
    attack = attack[rng.permutation(n_rows)]
    profile = profiles[attack]
    signal = np.empty((n_rows, synth.p))
    for c in range(3):
        rows = np.nonzero(profile == c)[0]
        signal[rows] = synth.features[np.nonzero(synth.labels == c)[0][:len(rows)]]

    signal_names = list(_SIGNAL_COLUMNS)
    columns: list[list[str]] = []
    for col in schema.feature_columns():
        if col.name == "protocol_type":
            columns.append(_tokens(rng, PROTOCOLS, profile))
        elif col.name == "service":
            columns.append(_tokens(rng, SERVICES, profile))
        elif col.name == "flag":
            columns.append(_tokens(rng, FLAGS, profile))
        elif col.name in _SIGNAL_COLUMNS:
            j = signal_names.index(col.name)
            columns.append(_render(_SIGNAL_COLUMNS[col.name], signal[:, j]))
        elif col.name == "num_outbound_cmds":
            columns.append(["0"] * n_rows)  # constant in the real corpus too
        else:
            sparse = (rng.random(n_rows) < 0.01) * rng.integers(1, 4, size=n_rows)
            columns.append(sparse.astype(str).tolist())
    columns.append([names[a] + "." for a in attack.tolist()])

    # Line 1 stays clean: load_csv treats an unparseable first line as a header.
    n_bad = int(round(n_rows * KDD_MALFORMED_SHARE))
    bad_lines = np.sort(rng.choice(np.arange(2, n_rows + 1), size=n_bad, replace=False))
    numeric_positions = [c.position for c in schema.feature_columns() if c.kind != CATEGORICAL]
    bad_cols = rng.choice(numeric_positions, size=n_bad)
    bad_tokens = rng.choice(len(BAD_NUMERIC), size=n_bad)
    for line, col, tok in zip(bad_lines.tolist(), bad_cols.tolist(), bad_tokens.tolist()):
        columns[col][line - 1] = BAD_NUMERIC[tok]

    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(map(",".join, zip(*columns))))
        handle.write("\n")
    manifest = {"layout": "kdd99", "seed": seed, "rows": n_rows,
                # the token columns are drawn per profile, so they carry signal too
                "informative": sorted([signal_names[i] for i in informative]
                                      + ["protocol_type", "service", "flag"]),
                "columns": [c.name for c in schema.feature_columns()],
                "malformed_lines": bad_lines.tolist()}
    _write_manifest(manifest_path, manifest)
    return manifest


WRITERS = {"synthetic": write_synthetic, "kdd99": write_kdd}


if __name__ == "__main__":
    # python3 perfbench/gen.py LAYOUT SEED CSV_PATH MANIFEST_PATH
    layout, seed, csv_out, manifest_out = sys.argv[1:]
    WRITERS[layout](csv_out, manifest_out, int(seed))
