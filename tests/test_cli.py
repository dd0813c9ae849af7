import json
import os

import pytest

from cyclonids.cli import main, parse_synth_spec
from cyclonids.errors import ConfigError


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


@pytest.mark.parametrize("spec", ["n=abc,inf=2,noise=1,classes=2,sep=5,seed=1",
                                  "n=200,inf=2,noise=1,classes=2,sep=x,seed=1"])
def test_gen_non_numeric_synth_value_exits_2(tmp_path, capsys, spec):
    with pytest.raises(ConfigError, match="must be a number"):
        parse_synth_spec(spec)
    code = main(["gen", "--synth", spec, "--out", str(tmp_path / "s.csv")])
    assert code == 2
    assert "must be a number" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
