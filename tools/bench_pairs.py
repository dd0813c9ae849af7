"""Paired benchmark runs of a base commit and the working tree.

    python3 tools/bench_pairs.py --base HEAD --label svm --workloads svm_ovr --seeds 301 302 303

For each workload and seed, ``perfbench/run.py`` runs once on an export of
the base commit (``git archive``) and once on a copy of the working tree
(the files ``git ls-files --cached --others --exclude-standard`` lists),
each in its own temporary directory, so that neither side carries
``__pycache__`` or ``.perfbench/`` state; which side runs first alternates.
``BENCH_<label>.json`` at the repository root gets every run's metrics and
digests, and per metric each side's median and quartiles, the number of
pairs the working tree won and the ``gain`` and ``worse_than_bound`` flags
(see ``_summary``), plus the machine: CPU count, Python and numpy
versions. Per workload it
also counts the pairs whose component digests (every digest but the
report's) are equal on both sides, the pairs whose "report (no timings)"
digests are equal, the same count for each digest name on its own (so a
change that moves one component on purpose shows which), and each side's
failed and attempted runs.

``runner.strip_timings`` zeroes timing values but keeps their keys, so a
stage that is newly timed on its own moves the report digest even when
nothing else in the report changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its last stdout line (the JSON result) plus the printed digests."""
    proc = subprocess.run([sys.executable, os.path.join(checkout, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # A run that printed nothing counts as one failed attempt.
    result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 1, "failed": 1,
                                                  "metrics": {}}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["digests"] = dict(line[9:].rsplit(None, 1) for line in lines if line.startswith("  digest "))
    return result


def copy_working_tree(root: str, dest: str) -> None:
    """Copy into ``dest`` the files of ``root``'s working tree that git would commit: tracked
    ones as they are now, and untracked ones that are not ignored. Deleted files are skipped."""
    listed = subprocess.run(["git", "-C", root, "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, os.fsdecode(listed).split("\0")):
        source = os.path.join(root, name)
        if os.path.lexists(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name), follow_symlinks=False)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (float(v) for v in np.percentile(values, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric of BENCHMARK.json: both sides' spreads, the head's wins and two flags.

    ``gain``: the head won at least 9 in 10 pairs (ties count for neither
    side) and its median is better than the base's by more than the base's
    IQR. ``worse_than_bound``: the head's median is worse than the base's by
    more than the metric's ``bound``, a fraction of the base's median.
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["base"]["metrics"][name], p["head"]["metrics"][name]) for p in pairs
                if name in p["base"]["metrics"] and name in p["head"]["metrics"]]
        if not both:
            continue
        wins = sum((h < b) if lower else (h > b) for b, h in both)
        base, head = _spread([b for b, _ in both]), _spread([h for _, h in both])
        better_by = (base["median"] - head["median"]) * (1 if lower else -1)
        out[name] = {"base": base, "head": head, "head_wins": wins, "pairs": len(both),
                     "gain": 10 * wins >= 9 * len(both) and better_by > base["iqr"],
                     "worse_than_bound": -better_by > metric["bound"] * abs(base["median"])}
    return out


REPORT = "report (no timings)"


def _components(run: dict) -> dict:
    return {k: v for k, v in run["digests"].items() if k != REPORT}


def _report(run: dict) -> str | None:
    return run["digests"].get(REPORT)


def _equal_digests(pairs: list[dict], pick) -> int:
    """Pairs whose picked digests are present and equal on both sides."""
    return sum(bool(pick(p["base"])) and pick(p["base"]) == pick(p["head"]) for p in pairs)


def _equal_by_name(pairs: list[dict]) -> dict[str, int]:
    """Per digest name printed by either side, the pairs whose digests of that name are equal."""
    names = sorted({name for p in pairs for side in ("base", "head") for name in p[side]["digests"]})
    return {name: _equal_digests(pairs, lambda run: run["digests"].get(name)) for name in names}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args(argv)
    git = lambda *a: subprocess.run(["git", "-C", ROOT, *a], check=True, capture_output=True).stdout
    base_sha = git("rev-parse", args.base).decode().strip()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    report = {"label": args.label, "base": base_sha, "head": "working tree on "
              + git("rev-parse", "HEAD").decode().strip(), "seconds": benchmark["run_seconds"],
              "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__}, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as checkout, \
            tempfile.TemporaryDirectory(prefix="bench-head-") as head:
        with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", base_sha))) as tar:
            tar.extractall(checkout, filter="data")
        copy_working_tree(ROOT, head)
        for workload in args.workloads:
            pairs = []
            for k, seed in enumerate(args.seeds):
                order = ["base", "head"] if k % 2 == 0 else ["head", "base"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(checkout if side == "base" else head, workload, seed,
                                      report["seconds"])
                    print(f"{workload} seed={seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
                pairs.append(pair)
            runs = {side: {key: sum(p[side][key] for p in pairs) for key in ("attempted", "failed")}
                    for side in ("base", "head")}
            report["workloads"][workload] = {"summary": _summary(pairs, benchmark["end_to_end"]),
                                             "runs": runs,
                                             "component_digests_equal":
                                                 _equal_digests(pairs, _components),
                                             "report_digests_equal":
                                                 _equal_digests(pairs, _report),
                                             "digests_equal_by_name": _equal_by_name(pairs),
                                             "pairs": pairs}
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
