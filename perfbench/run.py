"""Entry point of the spdpeg benchmark.

    python3 perfbench/run.py --workload paper-flr --seed 0 --seconds 15 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. ``--workload all`` runs every workload, each in its own process, one
after the other. The library is imported from ``src/`` of the checkout that
holds this directory; without it the command fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

# pinned before numpy is imported, so the BLAS and OpenMP pools start with
# one thread; the child processes of --workload all inherit them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("paper-flr", "large-n-flr", "sc-graph-b16")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", required=True, type=int,
                   help="workload seed; picks the solvers' sampling seeds")
    p.add_argument("--seconds", type=float, default=15.0,
                   help="length of the interleaved timing loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(ROOT, ".perfbench_out"),
                   help="directory for the result file and the spans")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    """The final JSON line; a metric without a finite value marks the run
    incorrect and is written as null."""
    out = {}
    for name, (value, unit, _) in metrics.items():
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        correct = correct and finite
        out[name] = {"value": value if finite else None, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out}, allow_nan=False)


def run_all(args) -> int:
    combined, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = (entry["value"], entry["unit"], 1)
    print(result_line(correct, attempted, failed, combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spdpeg", "__init__.py")):
        print(f"no spdpeg library under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness
    wl = harness.WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{wl.name}_seed{args.seed}_trace{args.trace}")
    env = harness.environment(ROOT, args.seed)
    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    if args.trace:
        report, ledger = harness.run_traced(wl, args.seed, args.seconds,
                                            stem + "_spans.csv.gz")
        expected = [name for name, _ in harness.per_layer_metrics()]
    else:
        report, ledger = harness.run_untraced(wl, args.seed, args.seconds)
        expected = [name for name, _ in harness.END_TO_END]
    metrics = report["metrics"]
    if sorted(metrics) != sorted(expected):
        print(f"metric set mismatch: {sorted(set(metrics) ^ set(expected))}",
              file=sys.stderr)
        return 3
    width = max(len(name) for name in metrics)
    for name in expected:
        value, unit, samples = metrics[name]
        print(f"  {name:<{width}} = {value:.6g} {unit} (n={samples})")
    print("# details " + json.dumps(report["details"], sort_keys=True))
    for failure in ledger.failures:
        print(f"# failed: {failure}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": wl.name, "trace": args.trace,
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()},
                   "details": report["details"],
                   "failures": ledger.failures}, fh, indent=1, sort_keys=True)
    print(result_line(ledger.failed == 0, ledger.attempted, ledger.failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
