import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cyclonids.cli import main, parse_synth_spec
from cyclonids.errors import ConfigError


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_import_loads_neither_scipy_stats_nor_scipy_special():
    # Each costs a large share of start-up; no runtime code needs them.
    probe = ("import sys, cyclonids.cli; "
             "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_import_adds_no_third_party_module_but_numpy():
    # scipy is a test reference only; the runtime's one dependency is numpy.
    probe = ("import sys; before = set(sys.modules); import cyclonids.cli; "
             "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
             "- set(sys.stdlib_module_names) - {'cyclonids'}))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['numpy']"


def test_import_loads_no_xml_http_email_or_ssl_module():
    # xml.sax.saxutils pulls in urllib.request, http.client, ssl and email.
    probe = ("import sys, cyclonids.runner; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('xml', 'http', 'email', 'ssl')))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_parse_synth_spec():
    cfg = parse_synth_spec("n=500,inf=3,noise=7,classes=2,sep=5,seed=1")
    assert (cfg.n_samples, cfg.n_informative, cfg.n_noise) == (500, 3, 7)
    assert cfg.class_separation == 5.0
    assert cfg.seed == 1


def test_parse_synth_spec_errors():
    with pytest.raises(ConfigError):
        parse_synth_spec("n=500,warp=9")
    with pytest.raises(ConfigError):
        parse_synth_spec("n500")
    with pytest.raises(ConfigError):
        parse_synth_spec("n=500")  # incomplete: missing required fields


def test_gen_then_run_roundtrip(tmp_path, capsys):
    data = str(tmp_path / "synth.csv")
    assert main(["gen", "--synth", "n=200,inf=2,noise=2,classes=2,sep=8,seed=2",
                 "--out", data]) == 0
    assert os.path.exists(data)

    out = str(tmp_path / "results")
    code = main(["run", "--schema", "synthetic", "--data", data, "--selector", "none",
                 "--classifier", "rf", "--seed", "42", "--out", out])
    assert code == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["accuracy"] >= 0.9
    assert report["seed"] == 42


def test_run_inline_synth(capsys):
    code = main(["run", "--schema", "synthetic",
                 "--synth", "n=200,inf=1,noise=1,classes=2,sep=10,seed=4"])
    assert code == 0
    assert "test accuracy" in capsys.readouterr().out


def test_run_missing_file_exits_3(capsys):
    code = main(["run", "--schema", "ugransome", "--data", "/nonexistent.csv"])
    assert code == 3


def test_run_without_data_exits_2(capsys):
    code = main(["run", "--schema", "kdd99"])
    assert code == 2


def test_bad_schema_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--schema", "marsnet"])
    assert err.value.code == 2


def test_compare_command(tmp_path, capsys):
    config = tmp_path / "experiments.txt"
    config.write_text(
        "# two synthetic runs\n"
        "--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=10,seed=5 "
        "--classifier rf --name easy\n"
        "--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=0,seed=5 "
        "--classifier rf --name hard\n")
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", str(config), "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "easy" in stdout and "hard" in stdout
    table = open(os.path.join(out, "comparison.csv")).read().splitlines()
    assert table[0].startswith("dataset,selector,classifier,accuracy")
    assert table[1].split(",")[0] == "easy"  # sorted by accuracy


def test_kfold_flag(tmp_path, capsys):
    out = str(tmp_path / "kf")
    code = main(["run", "--schema", "synthetic",
                 "--synth", "n=200,inf=2,noise=1,classes=2,sep=10,seed=6",
                 "--folds", "3", "--out", out])
    assert code == 0
    summary = json.load(open(os.path.join(out, "kfold.json")))
    assert summary["folds"] == 3


def test_svm_non_finite_c_exits_2(capsys):
    for value in ("nan", "inf"):
        code = main(["run", "--schema", "synthetic",
                     "--synth", "n=200,inf=2,noise=1,classes=2,sep=10,seed=7",
                     "--classifier", "svm", "--svm-c", value])
        assert code == 2
        assert "c must be finite" in capsys.readouterr().err


def test_svm_c_whose_regularization_overflows_exits_2(capsys):
    # 0.5 / c is inf below about 2.8e-309: a config error naming c, before the load
    code = main(["run", "--schema", "synthetic",
                 "--synth", "n=300,inf=3,noise=2,classes=3,sep=2,seed=1",
                 "--classifier", "svm", "--svm-c", "1e-309"])
    assert code == 2
    assert "0.5 / c is finite, got 1e-309" in capsys.readouterr().err


def test_svm_c_whose_objective_overflows_exits_4(tmp_path):
    # c * 240 training rows passes the largest double: a numeric error naming c, no report
    out = tmp_path / "out"
    argv = ["run", "--schema", "synthetic",
            "--synth", "n=300,inf=3,noise=2,classes=3,sep=2,seed=1",
            "--classifier", "svm", "--svm-c", "1e308", "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "cyclonids.cli", *argv],
                          env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True)
    assert proc.returncode == 4
    assert "c=1e+308" in proc.stderr and "Traceback" not in proc.stderr
    assert not (out / "report.json").exists()


def test_run_missing_synthetic_file_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code = main(["run", "--schema", "synthetic", "--data", missing])
    assert code == 3
    assert f"file missing: {missing}" in capsys.readouterr().err


def _kdd_line(label="neptune."):
    return ",".join(["0", "tcp", "http", "SF"] + ["1"] * 37 + [label])


@pytest.mark.parametrize("schema", ["kdd99", "synthetic"])
def test_run_non_utf8_file_exits_3_naming_the_line(tmp_path, capsys, schema):
    if schema == "kdd99":
        lines = [_kdd_line(), _kdd_line("normal."), _kdd_line(), _kdd_line("normal.")]
        lines[2] = lines[2].replace("SF", "S\xc3F")  # a lead byte with no continuation
    else:
        lines = ["f0,f1,label", "0.5,1.5,a", "0.25,-1.0,b", "1.0,2.0,a"]
        lines[2] = "0.25,-1.0,b\xff"
    path = tmp_path / "data.csv"
    path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
    code = main(["run", "--schema", schema, "--data", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 3 is not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("schema, quoted_at, at", [("kdd99", None, 2), ("kdd99", None, 150),
                                                    ("kdd99", 129, 150), ("synthetic", None, 3),
                                                    ("synthetic", 2, 3)])
def test_run_with_a_field_over_the_csv_field_limit_exits_3_naming_the_row(tmp_path, capsys, schema,
                                                                          quoted_at, at):
    # quoted_at: a row whose quoted field holds a newline, so rows after it
    # sit one line lower; row 129 crosses from one 64-line chunk to the next.
    if schema == "kdd99":
        lines = [_kdd_line(("neptune.", "normal.")[i % 2]) for i in range(200)]
        lines[at - 1] = lines[at - 1].replace("http", "h" * 200_000)
        if quoted_at:
            lines[quoted_at - 1] = lines[quoted_at - 1].replace("http", '"ht\ntp"')
    else:
        lines = ["f0,f1,label"] + [f"{0.1 * i!r},{i % 3!r},{'ab'[i % 2]}" for i in range(199)]
        lines[at - 1] = "0.5,1.5," + "a" * 200_000
        if quoted_at:
            lines[quoted_at - 1] = '0.5,1.5,"a\nb"'
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    code = main(["run", "--schema", schema, "--data", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"row {at}: field larger than field limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", ["n=abc,inf=2,noise=1,classes=2,sep=5,seed=1",
                                  "n=200,inf=2,noise=1,classes=2,sep=x,seed=1"])
def test_gen_non_numeric_synth_value_exits_2(tmp_path, capsys, spec):
    with pytest.raises(ConfigError, match="must be a number"):
        parse_synth_spec(spec)
    code = main(["gen", "--synth", spec, "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "must be a number" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("schema", ["kdd99", "synthetic"])
def test_run_data_directory_exits_3(tmp_path, capsys, schema):
    code = main(["run", "--schema", schema, "--data", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert f"cannot read {tmp_path}: Is a directory" in err
    assert "Traceback" not in err


def test_compare_config_directory_exits_3(tmp_path, capsys):
    code = main(["compare", "--config", str(tmp_path)])
    assert code == 3
    assert f"cannot read {tmp_path}: Is a directory" in capsys.readouterr().err


def test_compare_non_utf8_config_exits_3_naming_the_line(tmp_path, capsys):
    config = tmp_path / "experiments.txt"
    config.write_bytes(b"# runs\n--schema synthetic --name caf\xe9\n")
    code = main(["compare", "--config", str(config)])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 2 is not valid UTF-8" in err
    assert "Traceback" not in err


def test_compare_config_with_a_byte_order_mark_runs(tmp_path, capsys):
    config = tmp_path / "experiments.txt"
    config.write_bytes(b"\xef\xbb\xbf--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=10,seed=5 "
                       b"--classifier rf --name marked\n")
    code = main(["compare", "--config", str(config)])
    assert code == 0, capsys.readouterr().err
    assert "marked" in capsys.readouterr().out


def test_run_synthetic_header_naming_a_column_twice_exits_3(tmp_path, capsys):
    rows = [f"{0.1 * i!r},{i % 2 + 0.05 * i!r},{'xy'[i % 2]}" for i in range(40)]
    path = tmp_path / "twice.csv"
    path.write_text("a,a,label\n" + "\n".join(rows) + "\n")
    code = main(["run", "--schema", "synthetic", "--data", str(path), "--selector", "boruta"])
    assert code == 3
    err = capsys.readouterr().err
    assert "line 1 names column 'a' twice" in err
    assert "Traceback" not in err


def test_compare_line_with_an_unclosed_quote_exits_2(tmp_path, capsys):
    line = '--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=10,seed=5 --name "open'
    config = tmp_path / "experiments.txt"
    config.write_text(line + "\n")
    code = main(["compare", "--config", str(config)])
    assert code == 2
    assert f"bad experiment line: {line}" in capsys.readouterr().err


def test_run_unreadable_data_file_exits_3(tmp_path, capsys, monkeypatch):
    from cyclonids import dataset

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    path = tmp_path / "data.csv"
    path.write_text(_kdd_line() + "\n")
    monkeypatch.setattr(dataset, "open", denied, raising=False)
    code = main(["run", "--schema", "kdd99", "--data", str(path)])
    assert code == 3
    assert f"cannot read {path}: Permission denied" in capsys.readouterr().err


def test_gen_out_directory_exits_2(tmp_path, capsys):
    code = main(["gen", "--synth", "n=200,inf=2,noise=1,classes=2,sep=5,seed=1",
                 "--out", str(tmp_path)])
    assert code == 2
    assert f"cannot write --out {tmp_path}: Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("folds", [None, "3"])
def test_run_out_existing_file_exits_2(tmp_path, capsys, folds):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    argv = ["run", "--schema", "synthetic",
            "--synth", "n=200,inf=2,noise=1,classes=2,sep=10,seed=6", "--out", str(out)]
    code = main(argv + (["--folds", folds] if folds else []))
    assert code == 2
    assert f"cannot write --out {out}: File exists" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("sep", ["nan", "inf"])
def test_gen_non_finite_separation_exits_2(tmp_path, capsys, sep):
    code = main(["gen", "--synth", f"n=200,inf=2,noise=1,classes=2,sep={sep},seed=1",
                 "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "class_separation must be finite" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_run_more_folds_than_rows_exits_2(capsys):
    code = main(["run", "--schema", "synthetic",
                 "--synth", "n=200,inf=2,noise=1,classes=2,sep=10,seed=6", "--folds", "500"])
    assert code == 2
    assert "500 folds need at least 500 rows, the data has 200" in capsys.readouterr().err


@pytest.mark.parametrize("rows,flags,message", [
    (2, [], "the training split holds 1 of 2 rows"),
    (2, ["--test-fraction", "0.5"], "the training split holds 1 of 2 rows"),
    (2, ["--folds", "2"], "a training fold holds 1 of 2 rows"),
    (3, ["--folds", "2"], "a training fold holds 1 of 3 rows"),
])
def test_run_with_one_training_row_exits_3_naming_the_split(tmp_path, capsys, rows, flags, message):
    path = tmp_path / "tiny.csv"
    path.write_text("f0,f1,label\n" + "".join(f"{i}.5,{i}.25,{'ab'[i % 2]}\n" for i in range(rows)))
    code = main(["run", "--schema", "synthetic", "--data", str(path)] + flags)
    assert code == 3
    err = capsys.readouterr().err
    assert message in err and "fitting needs at least 2" in err
    assert ("--folds" if "--folds" in flags else "--test-fraction") in err


def test_compare_rejects_folds_line(tmp_path, capsys):
    line = "--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=10,seed=5 --folds 3"
    config = tmp_path / "experiments.txt"
    config.write_text(line + "\n")
    code = main(["compare", "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--folds is not allowed" in err and line in err


def test_run_synthetic_labels_ending_in_a_period(tmp_path, capsys):
    rows = [f"{0.1 * i!r},{i % 2 + 0.05 * i!r},{'xy'[i % 2]}." for i in range(40)]
    path = tmp_path / "dot.csv"
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    out = tmp_path / "res"
    code = main(["run", "--schema", "synthetic", "--data", str(path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    report = json.load(open(out / "report.json"))
    assert report["dataset"]["class_distribution"] == {"x.": 20, "y.": 20}


def test_run_synthetic_blank_label_exits_3(tmp_path, capsys):
    path = tmp_path / "blank.csv"
    path.write_text("f0,f1,label\n1,2,a\n3,4,\n5,6,b\n7,8,a\n")
    code = main(["run", "--schema", "synthetic", "--data", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "unknown label '' at row 3" in err
    assert "Traceback" not in err


def _rf_seed_report(out, *flags):
    code = main(["run", "--schema", "synthetic", "--synth", "n=400,inf=3,noise=5,classes=2,sep=2,seed=1",
                 "--rf-trees", "10", "--seed", "42", "--out", str(out), *flags])
    assert code == 0
    return json.load(open(out / "report.json"))


def test_rf_seed_reseeds_the_forest_alone(tmp_path, capsys):
    default = _rf_seed_report(tmp_path / "default")
    other = _rf_seed_report(tmp_path / "seven", "--rf-seed", "7")
    assert other["config"]["forest"]["seed"] == 7
    assert other["dataset"]["n_train"] == default["dataset"]["n_train"]
    assert other["component_digests"]["standardizer"] == default["component_digests"]["standardizer"]
    assert other["component_digests"]["classifier"] != default["component_digests"]["classifier"]
    same = _rf_seed_report(tmp_path / "same", "--rf-seed", "42")
    assert same["component_digests"] == default["component_digests"]


@pytest.mark.parametrize("folds", [None, "3"])
def test_run_out_existing_file_fails_before_loading(tmp_path, capsys, folds):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    argv = ["run", "--schema", "synthetic", "--data", str(tmp_path / "missing.csv"),
            "--out", str(out)]
    code = main(argv + (["--folds", folds] if folds else []))
    assert code == 2
    assert f"cannot write --out {out}: File exists" in capsys.readouterr().err


def test_compare_out_existing_file_fails_before_loading(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    config = tmp_path / "experiments.txt"
    config.write_text(f"--schema synthetic --data {tmp_path / 'missing.csv'}\n")
    code = main(["compare", "--config", str(config), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"cannot write --out {out}: File exists" in captured.err
    assert captured.out == ""


def test_compare_rejects_out_line(tmp_path, capsys):
    target = tmp_path / "line-out"
    line = ("--schema synthetic --synth n=200,inf=2,noise=1,classes=2,sep=10,seed=5 "
            f"--out {target}")
    config = tmp_path / "experiments.txt"
    config.write_text(line + "\n")
    code = main(["compare", "--config", str(config)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--out is not allowed" in err and line in err
    assert not target.exists()


@pytest.mark.parametrize("flags,message", [
    (["--seed", "-1"], "seed must be non-negative, got -1"),
    (["--seed", "-1", "--folds", "2"], "seed must be non-negative, got -1"),
    (["--test-fraction", "0"], "test_fraction must be in (0, 1), got 0.0"),
    (["--test-fraction", "1.5"], "test_fraction must be in (0, 1), got 1.5"),
    (["--test-fraction", "nan"], "test_fraction must be in (0, 1), got nan"),
])
def test_run_bad_seed_or_test_fraction_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                              flags, message):
    from cyclonids import runner

    path = tmp_path / "data.csv"
    path.write_text("".join(_kdd_line(label) + "\n" for label in ["neptune.", "normal."] * 4))
    load, loads = runner.load_csv, []

    def counting_load(*args):
        loads.append(args)
        return load(*args)

    monkeypatch.setattr(runner, "load_csv", counting_load)
    code = main(["run", "--schema", "kdd99", "--data", str(path)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert loads == []


_BAD_SUB_CONFIGS = [
    (["--selector", "pca", "--pca-threshold", "0"], "threshold must be in (0, 1], got 0.0"),
    (["--rf-trees", "0"], "n_trees must be >= 1"),
    (["--rf-max-depth", "0"], "max_depth must be >= 1 or None"),
    (["--classifier", "svm", "--svm-c", "-1"], "c must be finite and > 0, got -1.0"),
    (["--selector", "boruta", "--boruta-alpha", "0.9"], "alpha must be in (0, 0.5], got 0.9"),
]


def _no_load(*args):
    raise AssertionError("the input was loaded")


@pytest.mark.parametrize("flags,message", _BAD_SUB_CONFIGS)
def test_run_bad_sub_config_setting_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                           flags, message):
    from cyclonids import runner

    monkeypatch.setattr(runner, "load_csv", _no_load)
    code = main(["run", "--schema", "kdd99", "--data", str(tmp_path / "data.csv")] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("schema", ["synthetic", "kdd99"])
def test_run_synth_with_a_data_file_exits_2_before_loading(tmp_path, capsys, monkeypatch, schema):
    from cyclonids import runner

    monkeypatch.setattr(runner, "load_csv", _no_load)
    monkeypatch.setattr(runner, "gen_classification", _no_load)
    code = main(["run", "--schema", schema, "--data", str(tmp_path / "data.csv"),
                 "--synth", "n=200,inf=2,noise=1,classes=2,sep=10,seed=5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: --synth generates the rows: it needs --schema synthetic and no data file" in err
    assert "Traceback" not in err


def test_compare_checks_every_config_before_the_first_load(tmp_path, capsys, monkeypatch):
    from cyclonids import runner

    monkeypatch.setattr(runner, "load_csv", _no_load)
    data = str(tmp_path / "data.csv")
    config = tmp_path / "experiments.txt"
    flags, message = _BAD_SUB_CONFIGS[-1]
    config.write_text(f"--schema kdd99 --data {data}\n"
                      f"--schema kdd99 --data {data} {' '.join(flags)}\n")
    assert main(["compare", "--config", str(config)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "gen"])
def test_negative_synth_seed_exits_2(tmp_path, capsys, command):
    spec = "n=200,inf=2,noise=1,classes=2,sep=10,seed=-1"
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        parse_synth_spec(spec)
    out = tmp_path / "s.csv"
    argv = ["run", "--schema", "synthetic"] if command == "run" else ["gen", "--out", str(out)]
    assert main(argv + ["--synth", spec]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_run_whose_training_column_sum_overflows_exits_3(tmp_path, capsys):
    # Every value is finite, but the training split's f0 column sums past the
    # largest double: the standardized matrix holds NaN, and the run must say so.
    rows = [f"{(1e308, 1e308, -1e308)[i % 3]!r},{0.5 * i!r},{'ab'[i % 2]}" for i in range(40)]
    path = tmp_path / "huge.csv"
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    with np.errstate(all="ignore"):
        code = main(["run", "--schema", "synthetic", "--data", str(path), "--selector", "pca"])
    assert code == 3
    err = capsys.readouterr().err
    assert "feature matrix contains NaN or infinite entries" in err and "Traceback" not in err


def _run_on_rows(tmp_path, rows, *args):
    path = tmp_path / "huge.csv"
    path.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
    return main(["run", "--schema", "synthetic", "--data", str(path), *args])


@pytest.mark.parametrize("selector", ["pca", "none"])
def test_overflowing_column_sum_is_reported_without_numpy_warnings(tmp_path, capsys, selector):
    # The file of the test above; any RuntimeWarning numpy would print becomes an error here.
    rows = [f"{(1e308, 1e308, -1e308)[i % 3]!r},{0.5 * i!r},{'ab'[i % 2]}" for i in range(40)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run_on_rows(tmp_path, rows, "--selector", selector)
    assert code == 3
    assert "feature matrix contains NaN or infinite entries" in capsys.readouterr().err


def test_column_whose_std_overflows_exits_3(tmp_path, capsys):
    # f0 sums to a finite value, but its squared deviations pass the largest
    # double: an infinite std must not standardize the column to zeros.
    rows = [f"{(1e200, -1e200)[i % 2]!r},{0.5 * i!r},{'ab'[i % 2]}" for i in range(40)]
    code = _run_on_rows(tmp_path, rows)
    assert code == 3
    assert "feature matrix contains NaN or infinite entries" in capsys.readouterr().err
