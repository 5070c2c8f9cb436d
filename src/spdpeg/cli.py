"""Command-line benchmark harness.

Subcommands: ``run`` executes solvers and writes trace CSVs plus a JSON
run manifest, and exits 1 when a run diverged; ``verify-rates`` fits
empirical convergence-rate slopes for the step-size regimes;
``check-lemma1`` audits the per-step inequality on instrumented runs;
``plotdata`` merges traces into tidy CSVs for figures.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from . import bench
from .data import ParseError
from .solver import DivergenceError
from .sparse import PowerIterationError

SYNTH_SPEC_HELP = "KIND:d=D,N=N[,noise=X] with KIND in {fused-signal, graph-logistic}"


def parse_synthetic_spec(spec: str, seed: int) -> dict:
    kind, _, rest = spec.partition(":")
    fields = {"noise": 0.1}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if key not in ("d", "N", "n", "noise"):
                raise ValueError(f"unknown synthetic field {key!r} "
                                 f"(expected {SYNTH_SPEC_HELP})")
            number = float(value)
            if key != "noise" and not number.is_integer():
                raise ValueError(f"synthetic {key} must be a finite integer, "
                                 f"got {value!r}")
            fields["n" if key == "N" else key] = number
    if "d" not in fields or "n" not in fields:
        raise ValueError(f"synthetic spec needs d and N: {SYNTH_SPEC_HELP}")
    return {"kind": kind, "d": int(fields["d"]), "n": int(fields["n"]),
            "noise": float(fields["noise"]), "seed": seed}


def _build_core(args) -> dict:
    if args.data is None and args.synthetic is None:
        default_kind = "fused-signal" if args.task == "flr" else "graph-logistic"
        args.synthetic = f"{default_kind}:d=20,N=200"
    if args.data is not None:
        data = {"path": args.data, "sha256": bench._sha256_file(args.data),
                "normalize": bool(args.normalize), "split": True,
                "train_fraction": args.train_fraction,
                "split_seed": args.data_seed + 1}
    else:
        data = {"synthetic": parse_synthetic_spec(args.synthetic, args.data_seed),
                "split": True, "train_fraction": args.train_fraction,
                "split_seed": args.data_seed + 1}
    if args.penalty_file:
        penalty = {"source": "file", "path": args.penalty_file,
                   "sha256": bench._sha256_file(args.penalty_file)}
    elif args.task == "flr":
        penalty = {"source": "fused"}
    elif args.data is None and data["synthetic"]["kind"] == "graph-logistic":
        penalty = {"source": "synthetic-graph"}
    else:
        penalty = {"source": "precision", "ridge": args.precision_ridge,
                   "threshold": args.precision_threshold}
    lambda_default, gamma_default = bench.TASK_DEFAULTS[args.task]
    problem = {"task": args.task,
               "lambda_reg": (lambda_default if args.lambda_reg is None
                              else args.lambda_reg),
               "gamma_reg": (gamma_default if args.gamma_reg is None
                             else args.gamma_reg)}
    if args.feasible_radius is not None:
        problem["feasible_radius"] = args.feasible_radius
    regime = args.regime
    if regime is None:
        regime = "convex" if args.task == "flr" else "sc-nonuniform"
    config = {"gamma": args.gamma, "regime": regime, "iters": args.iters,
              "batch_size": args.batch_size, "eval_every": args.eval_every}
    return {"data": data, "penalty": penalty, "problem": problem,
            "config": config}


def cmd_run(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.from_manifest:
        written = bench.replay_manifest(args.from_manifest, args.out)
        for path in written:
            print(f"replayed {path}")
        return 0
    core = _build_core(args)
    solvers = bench.SOLVERS if args.solver == "all" else (args.solver,)
    seeds = [args.seed + i for i in range(args.seeds)]
    manifest = bench.run_suite(core, solvers, seeds, args.out)
    path = bench.write_manifest(manifest, args.out)
    print(f"wrote {path}")
    diverged = [e for e in manifest["runs"] if "diverged_at" in e]
    for entry in manifest["runs"]:
        if "trace_file" in entry:
            print(f"  {entry['trace_file']}: final objective "
                  f"{entry['final_objective']:.6g}, max ||lambda|| "
                  f"{entry['max_dual_norm']:.4g}")
    d = manifest["derived"]
    print(f"  constants: L_hat={d['lipschitz_data']:.6g} "
          f"L={d['lipschitz_L']:.6g} sigma_max={d['sigma_max_FtF']:.6g} "
          f"L_tilde={d['L_tilde']:.6g}")
    for entry in diverged:
        print(f"error: {entry['solver']} seed {entry['seed']}: "
              f"{entry['error']}", file=sys.stderr)
    return 1 if diverged else 0


def cmd_verify_rates(args) -> int:
    regimes = (("convex", "sc-uniform", "sc-nonuniform")
               if args.regime == "all" else (args.regime,))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    report = bench.verify_rates(regimes=regimes, iters=args.iters,
                                seeds=args.seeds, base_seed=args.seed,
                                d=args.d, n=args.n, eval_every=args.eval_every,
                                gamma=args.gamma)
    if args.out:
        path = os.path.join(args.out, "rates.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote {path}")
    for regime in ("convex", "sc-nonuniform"):
        if regime in report:
            r = report[regime]
            print(f"{regime}: slope={r['slope']:.3f} r2={r['r_squared']:.3f} "
                  f"window={r['window']} reference gap<="
                  f"{r['reference_certified_gap']:.2g} "
                  f"({r['window_points_below_10x_certificate']} window points "
                  f"below 10x)")
            if "feasibility_slope" in r:
                print(f"{regime}: feasibility slope={r['feasibility_slope']:.3f} "
                      f"r2={r['feasibility_r_squared']:.3f}")
    if "ordering" in report:
        o = report["ordering"]
        print(f"ordering at t={o['iteration']}: uniform median gap "
              f"{o['gap_uniform_median']:.3g} vs nonuniform "
              f"{o['gap_nonuniform_median']:.3g}")
    return 0


def cmd_check_lemma1(args) -> int:
    worst = 0.0
    reports = []
    modes = (("deterministic", "stochastic") if args.mode == "both"
             else (args.mode,))
    for mode in modes:
        rep = bench.step_inequality_sweep(d=args.d, n=args.n, steps=args.steps,
                                          n_references=args.references,
                                          mode=mode, seed=args.seed,
                                          gamma=args.gamma,
                                          step_scale=args.step_scale)
        reports.append(rep)
        worst = min(worst, rep["min_relative_slack"])
        print(f"{mode}: min relative slack {rep['min_relative_slack']:.3e} "
              f"over {rep['steps']} steps x {rep['references']} references; "
              f"{rep['coefficient_negative_steps']} steps with a negative "
              f"bracket coefficient")
        if rep["diverged_at"] is not None:
            print(f"{mode}: the run diverged at iteration "
                  f"{rep['diverged_at']}; only the {rep['steps']} completed "
                  f"steps before it were audited")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
        print(f"wrote {args.out}")
    if worst < -1e-8:
        print(f"FAIL: minimum relative slack {worst:.3e} < -1e-8", file=sys.stderr)
        return 1
    print("PASS: per-step inequality holds within tolerance")
    return 0


def cmd_plotdata(args) -> int:
    paths = sorted(glob.glob(args.inputs))
    if not paths:
        print(f"no trace files match {args.inputs!r}", file=sys.stderr)
        return 1
    long_path, agg_path = bench.write_plotdata(paths, args.out)
    print(f"wrote {long_path} and {agg_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdpeg",
        description="Benchmark harness for the stochastic primal-dual "
                    "proximal extra-gradient solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run solvers and write traces + manifest")
    p_run.add_argument("--task", choices=bench.TASKS, default="flr")
    p_run.add_argument("--data", help="LIBSVM-format text file")
    p_run.add_argument("--synthetic", help=SYNTH_SPEC_HELP)
    p_run.add_argument("--solver", choices=bench.SOLVERS + ("all",),
                       default="spdpeg")
    p_run.add_argument("--regime",
                       choices=("convex", "sc-uniform", "sc-nonuniform"))
    p_run.add_argument("--iters", type=int, default=10_000)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seeds", type=int, default=5,
                       help="number of consecutive seeds to run")
    p_run.add_argument("--gamma", type=float, default=0.1,
                       help="augmented-Lagrangian penalty")
    p_run.add_argument("--lambda-reg", type=float, default=None,
                       help="weight of the composed l1 term (task default)")
    p_run.add_argument("--gamma-reg", type=float, default=None,
                       help="weight of the plain regularizer (task default)")
    p_run.add_argument("--batch-size", type=int, default=1)
    p_run.add_argument("--eval-every", type=int, default=100)
    p_run.add_argument("--penalty-file", help="penalty matrix text file")
    p_run.add_argument("--normalize", action="store_true",
                       help="scale each feature to max-abs 1")
    p_run.add_argument("--train-fraction", type=float, default=0.8)
    p_run.add_argument("--data-seed", type=int, default=12345)
    p_run.add_argument("--precision-ridge", type=float, default=1e-2)
    p_run.add_argument("--precision-threshold", type=float, default=1e-3)
    p_run.add_argument("--feasible-radius", type=float, default=None)
    p_run.add_argument("--from-manifest",
                       help="replay a previous run manifest byte-for-byte")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=cmd_run)

    p_rates = sub.add_parser("verify-rates",
                             help="fit convergence-rate slopes per regime")
    p_rates.add_argument("--regime",
                         choices=("convex", "sc-uniform", "sc-nonuniform", "all"),
                         default="all")
    p_rates.add_argument("--iters", type=int, default=100_000)
    p_rates.add_argument("--seeds", type=int, default=5)
    p_rates.add_argument("--seed", type=int, default=0)
    p_rates.add_argument("--d", type=int, default=20)
    p_rates.add_argument("--n", type=int, default=200)
    p_rates.add_argument("--eval-every", type=int, default=100)
    p_rates.add_argument("--gamma", type=float, default=None)
    p_rates.add_argument("--out")
    p_rates.set_defaults(fn=cmd_verify_rates)

    p_lem = sub.add_parser("check-lemma1",
                           help="audit the per-step inequality on an "
                                "instrumented run")
    p_lem.add_argument("--d", type=int, default=20)
    p_lem.add_argument("--n", type=int, default=100)
    p_lem.add_argument("--steps", type=int, default=1000)
    p_lem.add_argument("--references", type=int, default=10)
    p_lem.add_argument("--mode", choices=("deterministic", "stochastic", "both"),
                       default="both")
    p_lem.add_argument("--seed", type=int, default=0)
    p_lem.add_argument("--gamma", type=float, default=0.1)
    p_lem.add_argument("--step-scale", type=float, default=1.0,
                       help="multiply scheduled steps (diagnostics)")
    p_lem.add_argument("--out", help="write the JSON report here")
    p_lem.set_defaults(fn=cmd_check_lemma1)

    p_plot = sub.add_parser("plotdata",
                            help="merge traces into tidy long/aggregate CSVs")
    p_plot.add_argument("--in", dest="inputs", required=True,
                        help="glob of trace CSV files")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ParseError, DivergenceError, PowerIterationError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
