"""Tests of the benchmark's own parts: input generators, checks and metric names."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gen
import workload
from cyclonids.dataset import kdd99_schema, load_csv
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _read(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("writer,size", [(gen.write_synthetic, 300), (gen.write_kdd, 3000)])
def test_generators_are_byte_identical_per_seed(tmp_path, writer, size):
    outputs = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        csv_path, manifest_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        writer(str(csv_path), str(manifest_path), seed, size)
        outputs.append((_read(csv_path), _read(manifest_path)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] != outputs[2][0]


def test_kdd_generator_plants_the_malformed_rows_it_records(tmp_path):
    csv_path = str(tmp_path / "kdd.csv")
    manifest = gen.write_kdd(csv_path, str(tmp_path / "kdd.json"), seed=3, n_rows=5000)
    raw = load_csv(csv_path, kdd99_schema())
    assert len(manifest["malformed_lines"]) == 10
    assert raw.rejected_rows == manifest["malformed_lines"]
    assert raw.n == 5000 - 10
    with open(csv_path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert all(line.split(",")[-1].endswith(".") for line in lines)
    assert {line.split(",")[1] for line in lines} == set(gen.PROTOCOLS)
    assert set(manifest["informative"]) <= set(manifest["columns"])


def _small_input(tmp_path, layout: str) -> tuple[str, dict]:
    csv_path, manifest_path = str(tmp_path / "in.csv"), str(tmp_path / "in.json")
    if layout == "synthetic":
        manifest = gen.write_synthetic(csv_path, manifest_path, seed=5, n_samples=300)
    else:
        manifest = gen.write_kdd(csv_path, manifest_path, seed=5, n_rows=3000)
    return csv_path, manifest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_reports_every_declared_metric(tmp_path, name):
    spec = _benchmark_json()
    csv_path, manifest = _small_input(tmp_path, WORKLOADS[name]["layout"])

    plain = workload.measure(name, csv_path, manifest, 0.0, False, str(tmp_path / "plain"))
    assert plain["failed"] == 0, plain["errors"]
    # setup_s is timed by the parent process, around a fresh import.
    assert set(plain["metrics"]) | {"setup_s"} == {m["name"] for m in spec["end_to_end"]}

    traced = workload.measure(name, csv_path, manifest, 0.0, True, str(tmp_path / "traced"))
    assert traced["failed"] == 0, traced["errors"]
    assert traced["attempted"] == 2
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert traced["fingerprint"] == plain["fingerprint"]
    layers = traced["metrics"]
    assert layers["dataset.rows_rejected"] == len(manifest["malformed_lines"])
    if name == "boruta_rf":
        assert layers["boruta.iterations"] == WORKLOADS[name]["boruta_max_iterations"]
        assert layers["boruta.forest_cols"] == 6 * 80
    if name == "svm_ovr":
        assert layers["svm.epochs"] == 3 * WORKLOADS[name]["svm_max_epochs"]


def test_check_run_flags_a_changed_output(tmp_path):
    csv_path, manifest = _small_input(tmp_path, "synthetic")
    rec = workload.run_experiment(workload.make_config("svm_ovr", csv_path))
    reference = workload._fingerprint(rec)
    assert workload.check_run(rec, reference, manifest, None) == []
    reference["digests"]["classifier"] = "0" * 64
    assert workload.check_run(rec, reference, manifest, None)
    assert workload.check_run(rec, None, dict(manifest, rows=manifest["rows"] + 1), None)


def test_readme_maps_every_layer_metric():
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    missing = [m["name"] for m in _benchmark_json()["per_layer"] if f"`{m['name']}`" not in readme]
    assert not missing


def test_exits_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "svm_ovr",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert proc.stdout == ""
