"""Pipeline benchmark: one workload, one seed, one measured stretch of time.

    python3 perfbench/run.py --workload boruta_rf --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's ``src/`` and
writes only under ``.perfbench/`` at the checkout root. It

1. generates the workload's input from ``--seed`` in a separate process;
2. starts fresh interpreters that only import ``cyclonids.runner``, to time
   set-up;
3. starts the workload process, which times its own import, runs the
   pipeline back to back for ``--seconds`` and checks every run's output;
4. prints each metric with its unit, the error rate and the output digests,
   and as the last line one JSON object: ``correct``, ``attempted``,
   ``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
   of BENCHMARK.json, ``--trace 1`` its per-layer metrics, and writes the
   spans to ``.perfbench/spans/``.

Every process it starts is waited for; the whole run ends within
``TIME_LIMIT_S``. Without the program's sources it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4  # extra fresh imports; with the workload process's own, setup_s is a median of 5
TIME_LIMIT_S = 170.0
PROBE = "import time; t0 = time.perf_counter(); import cyclonids.runner; print(time.perf_counter() - t0)"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by the parent when it starts the workload process.
    parser.add_argument("--child", nargs=4, metavar=("CSV", "MANIFEST", "WORKDIR", "RESULT"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    """The workload process: time the program's import first, then run the loop."""
    csv_path, manifest_path, work_dir, result_path = args.child
    t0 = time.perf_counter()
    import cyclonids.runner  # noqa: F401  (timed: this is set-up)
    setup_s = time.perf_counter() - t0
    import workload

    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(STATE, "spans"), exist_ok=True)
        spans_path = os.path.join(STATE, "spans", f"{args.workload}-seed{args.seed}.jsonl")
    result = workload.measure(args.workload, csv_path, manifest, args.seconds, bool(args.trace),
                              work_dir, spans_path)
    result["setup_s"] = setup_s
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _spawn(argv: list[str], deadline: float, capture: bool = False) -> subprocess.CompletedProcess:
    """Run a Python subprocess against the checkout's sources; its output goes to stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr,
                          timeout=max(deadline - time.monotonic(), 1.0))


def _declared_metrics(trace: int) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def _report(args, result: dict, setup: list[float], child_ok: bool) -> int:
    attempted = max(result.get("attempted", 0), 1)
    failed = result.get("failed", 0) if child_ok else attempted
    values = dict(result.get("metrics", {}))
    if not args.trace:
        values["setup_s"] = statistics.median(setup)
    declared = _declared_metrics(args.trace)
    metrics = {}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {attempted} run(s), {failed} failed")
    for m in declared:
        if m["name"] not in values:
            print(f"  {m['name']:<26} missing")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<26} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<26} {failed / attempted:>14.6g} ratio ({failed} of {attempted} runs failed)")
    if result.get("runs_s"):
        print("  untraced runs (s):", " ".join(f"{s:.4f}" for s in result["runs_s"]))
    print("  setup samples (s):", " ".join(f"{s:.4f}" for s in setup))
    if "stress" in result:
        share = result["stress"]
        print(f"  {' + '.join(share['layers'])} = {share['share']:.3f} of traced experiment time")
    for name, digest in sorted(result.get("fingerprint", {}).get("digests", {}).items()):
        print(f"  digest {name:<19} {digest}")
    if "fingerprint" in result:
        print(f"  digest {'report (no timings)':<19} {result['fingerprint']['report_sha256']}")
    for error in result.get("errors", [])[:5]:
        print("  FAILED " + error.rstrip().replace("\n", "\n    "), file=sys.stderr)
    correct = child_ok and failed == 0 and len(metrics) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.child:
        return _child(args)
    if not os.path.isfile(os.path.join(SRC, "cyclonids", "runner.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    # A fixed path relative to the checkout, because the report records it:
    # the same seed then gives the same report in every checkout.
    work = os.path.join(".perfbench", "work", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, work))
    try:
        csv_path, manifest_path = os.path.join(work, "input.csv"), os.path.join(work, "manifest.json")
        layout = WORKLOADS[args.workload]["layout"]
        gen = _spawn([os.path.join(HERE, "gen.py"), layout, str(args.seed), csv_path, manifest_path],
                     deadline)
        if gen.returncode != 0:
            print(f"perfbench: input generation failed with code {gen.returncode}", file=sys.stderr)
            return 1
        setup = []
        for _ in range(SETUP_PROBES):
            probe = _spawn(["-c", PROBE], deadline, capture=True)
            if probe.returncode != 0:
                print("perfbench: cyclonids.runner does not import", file=sys.stderr)
                return 1
            setup.append(float(probe.stdout.strip().splitlines()[-1]))
        result_path = os.path.join(work, "result.json")
        child = [os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--child", csv_path, manifest_path, work, result_path]
        try:
            code = _spawn(child, deadline).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: workload process killed at the time limit", file=sys.stderr)
            code = None
        result = {}
        if code == 0:
            with open(os.path.join(ROOT, result_path), encoding="utf-8") as handle:
                result = json.load(handle)
            setup.insert(0, result["setup_s"])
        return _report(args, result, setup, code == 0)
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
