import importlib.util
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SECONDS = {"name": "experiment_s", "better": "lower", "bound": 0.2}
ACCURACY = {"name": "accuracy", "better": "higher", "bound": 0.05}


def _pairs(name, base, head):
    return [{"base": {"metrics": {name: b}}, "head": {"metrics": {name: h}}}
            for b, h in zip(base, head)]


def _flags(metric, base, head):
    entry = bench_pairs._summary(_pairs(metric["name"], base, head), [metric])[metric["name"]]
    return entry["head_wins"], entry["gain"], entry["worse_than_bound"]


BASE = [5.0, 5.2, 5.4, 5.6, 5.8, 6.0, 5.1, 5.3, 5.5, 5.7]  # median 5.45, IQR 0.45


@pytest.mark.parametrize("head, expected", [
    ([4.0] * 10, (10, True, False)),  # every pair won, medians 1.45 apart
    ([4.0] * 9 + [6.5], (9, True, False)),  # 9 of 10 is enough
    ([4.0] * 8 + [6.5] * 2, (8, False, False)),  # 8 of 10 is not
    ([x - 0.1 for x in BASE], (10, False, False)),  # every pair won, by less than the IQR
    ([x + 0.5 for x in BASE], (0, False, False)),  # slower, within 20% of 5.45
    ([7.0] * 10, (0, False, True)),  # 28% slower
])
def test_gain_and_bound_flags_for_a_lower_is_better_metric(head, expected):
    assert _flags(SECONDS, BASE, head) == expected


def test_flags_follow_a_higher_is_better_metric():
    base = [0.90, 0.91, 0.92, 0.93, 0.94, 0.90, 0.91, 0.92, 0.93, 0.94]
    assert _flags(ACCURACY, base, [0.99] * 10) == (10, True, False)
    assert _flags(ACCURACY, base, [0.88] * 10) == (0, False, False)  # 4.3% below 0.92
    assert _flags(ACCURACY, base, [0.85] * 10) == (0, False, True)


def test_ties_win_nothing_and_a_zero_base_takes_no_worsening():
    assert _flags(SECONDS, [0.0] * 10, [0.0] * 10) == (0, False, False)
    assert _flags(SECONDS, [0.0] * 10, [0.01] * 10) == (0, False, True)


def test_metrics_missing_on_a_side_are_left_out():
    pairs = [{"base": {"metrics": {"accuracy": 0.9}}, "head": {"metrics": {}}}]
    assert bench_pairs._summary(pairs, [ACCURACY]) == {}


def _digest_pair(base, head):
    return {"base": {"digests": base}, "head": {"digests": head}}


def test_report_and_component_digests_are_counted_apart():
    model = {"classifier": "c1", "selector": "s1"}
    pairs = [
        _digest_pair({**model, bench_pairs.REPORT: "r1"}, {**model, bench_pairs.REPORT: "r1"}),
        _digest_pair({**model, bench_pairs.REPORT: "r1"}, {**model, bench_pairs.REPORT: "r2"}),
        _digest_pair({**model, bench_pairs.REPORT: "r1"}, dict(model)),  # head printed no report
        _digest_pair({}, {}),  # a failed run on both sides
    ]
    assert bench_pairs._equal_digests(pairs, bench_pairs._report) == 1
    assert bench_pairs._equal_digests(pairs, bench_pairs._components) == 3
    assert bench_pairs._equal_digests([_digest_pair({}, {bench_pairs.REPORT: "r1"})],
                                      bench_pairs._report) == 0


def test_equal_digests_are_counted_per_name():
    base = {"standardizer": "z1", "selector": "s1", "classifier": "c1", bench_pairs.REPORT: "r1"}
    pairs = [
        _digest_pair(base, dict(base)),
        _digest_pair(base, {**base, "selector": "s2", "classifier": "c2", bench_pairs.REPORT: "r2"}),
        _digest_pair(base, {"standardizer": "z1"}),  # head printed only one digest
        _digest_pair({}, {}),  # a failed run on both sides
    ]
    assert bench_pairs._equal_by_name(pairs) == {"classifier": 1, "selector": 1, "standardizer": 3,
                                                  bench_pairs.REPORT: 1}
    assert bench_pairs._equal_by_name([]) == {}


def test_working_tree_copy_holds_what_git_would_commit(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("old\n")
    (repo / "gone.py").write_text("tracked, then deleted\n")
    (repo / ".gitignore").write_text("__pycache__/\n")
    git = lambda *a: subprocess.run(["git", "-C", str(repo), *a], check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("modified\n")
    (repo / "pkg" / "new.py").write_text("untracked\n")
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "mod.pyc").write_text("ignored\n")
    (repo / "gone.py").unlink()
    bench_pairs.copy_working_tree(str(repo), str(dest))
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/mod.py", "pkg/new.py"]
    assert (dest / "pkg" / "mod.py").read_text() == "modified\n"
