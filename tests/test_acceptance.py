"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The rate criteria run the full-scale instances and
take a few minutes total; everything is deterministic given the seeds
fixed here.
"""

import math
import time
from io import StringIO

import numpy as np
import pytest

from spdpeg import bench
from spdpeg.data import ParseError, parse_libsvm, serialize_libsvm
from spdpeg.model import Dataset, Problem
from spdpeg.oracles import full_gradient, loss_value
from spdpeg.prox import ProxSpec, apply_prox, prox_l1, reg_value
from spdpeg.solver import (average_weight, make_schedule,
                           schedule_bracket_coefficients, run)
from spdpeg.sparse import SparseMatrix


def gate(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] criterion {num:02d} ({name}): " \
           f"{'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# -------------------------------------------------------------- criterion 1


def test_criterion_01_prox_oracle_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240703)
    kinds = ("none", "l1", "squared-l2")
    worst = math.inf
    for _ in range(10_000):
        dim = int(rng.integers(1, 9))
        spec = ProxSpec(kinds[int(rng.integers(0, 3))], float(rng.uniform(0, 4)))
        step = float(rng.uniform(1e-2, 5.0))
        v = rng.standard_normal(dim) * float(rng.choice([0.1, 1.0, 10.0]))
        y = apply_prox(spec, v, step)
        base = step * reg_value(spec, y) + 0.5 * float(np.sum((y - v) ** 2))
        perturbed = y + rng.standard_normal((1000, dim)) \
            * rng.choice([1e-3, 1e-1, 1.0], size=(1000, 1))
        if spec.kind == "l1":
            regs = spec.weight * np.abs(perturbed).sum(axis=1)
        elif spec.kind == "squared-l2":
            regs = 0.5 * spec.weight * (perturbed ** 2).sum(axis=1)
        else:
            regs = np.zeros(perturbed.shape[0])
        vals = step * regs + 0.5 * ((perturbed - v) ** 2).sum(axis=1)
        worst = min(worst, float(vals.min() - base))
    # unit-threshold soft shrinkage must match the closed form bit-for-bit
    v = np.concatenate([[2.5, 0.5, -1.0, 1.0, -3.75, 0.0],
                        rng.standard_normal(1000) * 3])
    expected = np.where(np.abs(v) > 1.0, np.sign(v) * (np.abs(v) - 1.0), 0.0)
    exact = bool(np.array_equal(prox_l1(v, 1.0), expected))
    elapsed = time.perf_counter() - t0
    gate(1, "prox oracle suite",
         worst >= -1e-12 and exact and elapsed < 10.0,
         f"worst margin {worst:.2e} over 1e4 triples x 1e3 perturbations, "
         f"unit soft-threshold exact={exact}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2


def _random_instance(loss, rng, n=60, d=10, ridge=0.0):
    feats = rng.standard_normal((n, d)) / math.sqrt(d)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    dataset = Dataset.from_dense_rows(feats, labels)
    problem = Problem(loss, ProxSpec("none"), ProxSpec("l1", 0.0),
                      SparseMatrix.from_dense(np.eye(d)), ridge=ridge,
                      strong_convexity_mu=ridge)
    return problem, dataset, feats, labels


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    eps = 1e-5
    fd_ok = True
    for loss in ("logistic", "least-squares"):
        problem, dataset, feats, labels = _random_instance(loss, rng)
        for _ in range(1000):
            x = rng.standard_normal(10)
            u = rng.standard_normal(10)
            fd = (loss_value(problem, dataset, x + eps * u)
                  - loss_value(problem, dataset, x - eps * u)) / (2 * eps)
            an = float(full_gradient(problem, dataset, x) @ u)
            fd_ok = fd_ok and abs(fd - an) <= max(1e-6, 1e-4 * abs(an))
    unbias_worst = 0.0
    for loss in ("logistic", "least-squares"):
        problem, dataset, feats, labels = _random_instance(loss, rng, n=100)
        for _ in range(3):
            x = rng.standard_normal(10)
            acc = np.zeros(10)
            for i in range(100):
                m = feats[i] @ x
                coef = (-labels[i] / (1.0 + math.exp(labels[i] * m))
                        if loss == "logistic" else m - labels[i])
                acc += coef * feats[i]
            diff = np.max(np.abs(acc / 100 - full_gradient(problem, dataset, x)))
            unbias_worst = max(unbias_worst, float(diff))
    elapsed = time.perf_counter() - t0
    gate(2, "gradient correctness",
         fd_ok and unbias_worst <= 1e-14 and elapsed < 10.0,
         f"finite differences ok={fd_ok}, unbiasedness residual "
         f"{unbias_worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3


def test_criterion_03_per_step_inequality():
    t0 = time.perf_counter()
    reports = [bench.step_inequality_sweep(d=20, n=100, steps=1000,
                                           n_references=10, mode=mode, seed=0)
               for mode in ("deterministic", "stochastic")]
    worst = min(r["min_relative_slack"] for r in reports)
    elapsed = time.perf_counter() - t0
    gate(3, "per-step inequality",
         worst >= -1e-8 and elapsed < 120.0,
         f"min relative slack {worst:.2e} over 2 x 1000 steps x 10 references, "
         f"{elapsed:.1f}s")


# ----------------------------------------------------- criteria 4, 5, and 6


@pytest.fixture(scope="module")
def convex_rate_report(tmp_path_factory):
    cache = tmp_path_factory.mktemp("refs") / "cache.json"
    t0 = time.perf_counter()
    report = bench.verify_rates(regimes=("convex",), iters=100_000, seeds=5,
                                base_seed=0, d=20, n=200, eval_every=100,
                                cache_path=cache)
    report["elapsed"] = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def sc_rate_report(tmp_path_factory):
    cache = tmp_path_factory.mktemp("refs_sc") / "cache.json"
    t0 = time.perf_counter()
    report = bench.verify_rates(regimes=("sc-uniform", "sc-nonuniform"),
                                iters=100_000, seeds=5, base_seed=0, d=20,
                                n=200, eval_every=100,
                                ordering_iteration=10_000, cache_path=cache)
    report["elapsed"] = time.perf_counter() - t0
    return report


def test_criterion_04_convex_rate(convex_rate_report):
    r = convex_rate_report["convex"]
    ok = (r["slope"] <= -0.35 and r["r_squared"] >= 0.9
          and tuple(r["window"]) == (100, 100_000)
          and convex_rate_report["elapsed"] < 300.0)
    gate(4, "convex-regime rate",
         ok, f"slope {r['slope']:.3f} (need <= -0.35), r2 {r['r_squared']:.3f} "
             f"(need >= 0.9), window {r['window']}, "
             f"{convex_rate_report['elapsed']:.0f}s")


def test_criterion_05_accelerated_rate(sc_rate_report):
    r = sc_rate_report["sc-nonuniform"]
    ok = (r["slope"] <= -0.8 and r["r_squared"] >= 0.9
          and r["feasibility_slope"] <= -0.8
          and r["feasibility_r_squared"] >= 0.9
          and sc_rate_report["elapsed"] < 300.0)
    gate(5, "accelerated strongly convex rate",
         ok, f"objective slope {r['slope']:.3f}, r2 {r['r_squared']:.3f}; "
             f"feasibility slope {r['feasibility_slope']:.3f}, r2 "
             f"{r['feasibility_r_squared']:.3f} (all need <= -0.8 / >= 0.9), "
             f"{sc_rate_report['elapsed']:.0f}s")


def test_criterion_06_regime_ordering(sc_rate_report):
    o = sc_rate_report["ordering"]
    ok = o["gap_uniform_median"] >= o["gap_nonuniform_median"]
    gate(6, "uniform vs nonuniform ordering",
         ok, f"at t={o['iteration']}: uniform median gap "
             f"{o['gap_uniform_median']:.3e} >= nonuniform "
             f"{o['gap_nonuniform_median']:.3e} (means "
             f"{o['gap_uniform_mean']:.3e} / {o['gap_nonuniform_mean']:.3e})")


# -------------------------------------------------------------- criterion 7


def test_criterion_07_comparative_benchmark():
    comp = bench.comparative_benchmark(d=50, n=1000, iters=10_000, seeds=5,
                                       base_seed=0)
    timing = bench.timing_scaling(ns=(1000, 100_000), d=50)
    obj_ok = comp["spdpeg_mean"] <= comp["slinadmm_mean"]
    scale_ok = (timing["eg_full_ratio"] >= 5.0
                and timing["spdpeg_ratio"] <= 3.0
                and timing["spdpeg_ratio"] <= timing["eg_full_ratio"] / 5.0)
    gate(7, "comparative benchmark",
         obj_ok and scale_ok,
         f"final mean objective spdpeg {comp['spdpeg_mean']:.6f} <= slinadmm "
         f"{comp['slinadmm_mean']:.6f}; per-iteration cost ratio over n "
         f"1e3->1e5: eg-full {timing['eg_full_ratio']:.1f}x (need >= 5), "
         f"spdpeg {timing['spdpeg_ratio']:.2f}x (stays flat)")


# -------------------------------------------------------------- criterion 8


def test_criterion_08_manifest_replay(tmp_path):
    core = bench.rate_core("convex", d=10, n=60, iters=2000, eval_every=200)
    out = tmp_path / "out"
    manifest = bench.run_suite(core, bench.SOLVERS, [0, 1], out)
    mpath = bench.write_manifest(manifest, out)
    replay = tmp_path / "replay"
    bench.replay_manifest(mpath, replay)
    identical = all((out / e["trace_file"]).read_bytes()
                    == (replay / e["trace_file"]).read_bytes()
                    for e in manifest["runs"])
    gate(8, "manifest replay",
         identical and len(manifest["runs"]) == 6,
         f"{len(manifest['runs'])} trace files byte-identical after replay")


# -------------------------------------------------------------- criterion 9


def test_criterion_09_structural_invariants():
    worst_dual = 0.0
    brackets_ok = True
    weight_sums_ok = True
    for family in ("convex", "sc"):
        core = bench.rate_core(family, d=12, n=80, iters=300, eval_every=300)
        train, test, problem, derived = bench.build_all(core)
        config = bench.make_config(core, derived, seed=1)
        from dataclasses import replace
        config = replace(config, capture_steps=True)
        result = run(problem, train, config, test)
        for cap in result.captures:
            resid = (cap.lam_bar - cap.lam_next
                     - config.gamma * problem.penalty.matvec(cap.x_bar
                                                             - cap.x_prev))
            worst_dual = max(worst_dual, float(np.max(np.abs(resid)))
                             if resid.size else 0.0)
        schedule = make_schedule(problem, config)
        for k in (0, 1, 10, 1000, 100_000):
            b_lam, b_x = schedule_bracket_coefficients(config, schedule, k)
            brackets_ok = brackets_ok and b_lam >= 0.0 and b_x >= 0.0
        t = config.max_iters - 1
        total = sum(average_weight(schedule, k, t) for k in range(t + 1))
        weight_sums_ok = weight_sums_ok and abs(total - 1.0) <= 1e-14
        if family == "sc":
            weight_sums_ok = weight_sums_ok and result.state.raw_weight_sum \
                == (t + 1) * (t + 6) // 2
    for t in (0, 1, 7, 99, 12_345):
        from spdpeg.solver import Schedule
        sched = Schedule("sc-nonuniform", 1.0, 1.0)
        total = sum(average_weight(sched, k, t) for k in range(t + 1))
        weight_sums_ok = weight_sums_ok and abs(total - 1.0) <= 1e-14
    gate(9, "structural invariants",
         worst_dual <= 1e-12 and brackets_ok and weight_sums_ok,
         f"dual-update identity residual {worst_dual:.2e} (need <= 1e-12), "
         f"brackets nonnegative={brackets_ok}, weight sums within 1e-14="
         f"{weight_sums_ok}")


# ------------------------------------------------------------- criterion 10


def _ok(n_samples, dimension, rows):
    return ("ok", n_samples, dimension, rows)


PARSER_CORPUS = [
    # --- valid cases ---
    ("plain", "+1 1:0.5 3:2.0\n", _ok(1, 3, [(1.0, [(0, 0.5), (2, 2.0)])])),
    ("zero label", "0 1:1\n", _ok(1, 1, [(-1.0, [(0, 1.0)])])),
    ("bare positive", "1 2:3.5\n", _ok(1, 2, [(1.0, [(1, 3.5)])])),
    ("negative label", "-1 1:2\n", _ok(1, 1, [(-1.0, [(0, 2.0)])])),
    ("fractional label", "2.5 1:1\n", _ok(1, 1, [(1.0, [(0, 1.0)])])),
    ("negative fractional label", "-0.5 1:1\n", _ok(1, 1, [(-1.0, [(0, 1.0)])])),
    ("no features", "+1\n", _ok(1, 0, [(1.0, [])])),
    ("two samples", "+1 1:1\n-1 2:2\n", _ok(2, 2, [(1.0, [(0, 1.0)]),
                                                   (-1.0, [(1, 2.0)])])),
    ("blank lines skipped", "\n+1 1:1\n\n-1 1:2\n\n",
     _ok(2, 1, [(1.0, [(0, 1.0)]), (-1.0, [(0, 2.0)])])),
    ("crlf", "+1 1:1\r\n-1 2:1\r\n", _ok(2, 2, [(1.0, [(0, 1.0)]),
                                                (-1.0, [(1, 1.0)])])),
    ("tabs", "+1\t1:1\t2:2\n", _ok(1, 2, [(1.0, [(0, 1.0), (1, 2.0)])])),
    ("multiple spaces", "+1  1:1   3:3\n", _ok(1, 3, [(1.0, [(0, 1.0),
                                                             (2, 3.0)])])),
    ("trailing spaces", "+1 1:1   \n", _ok(1, 1, [(1.0, [(0, 1.0)])])),
    ("leading spaces", "   +1 1:1\n", _ok(1, 1, [(1.0, [(0, 1.0)])])),
    ("no trailing newline", "+1 1:1", _ok(1, 1, [(1.0, [(0, 1.0)])])),
    ("scientific notation", "+1 1:1e-3 2:-2.5E2\n",
     _ok(1, 2, [(1.0, [(0, 1e-3), (1, -250.0)])])),
    ("explicit zero value", "+1 1:0.0 2:1\n", _ok(1, 2, [(1.0, [(0, 0.0),
                                                                (1, 1.0)])])),
    ("negative values", "-1 1:-1.5 2:-2\n", _ok(1, 2, [(-1.0, [(0, -1.5),
                                                               (1, -2.0)])])),
    ("sparse large index", "+1 1000:1\n", _ok(1, 1000, [(1.0, [(999, 1.0)])])),
    ("mixed dimensions", "+1 1:1\n-1 5:2\n", _ok(2, 5, [(1.0, [(0, 1.0)]),
                                                        (-1.0, [(4, 2.0)])])),
    ("dense row", "+1 1:1 2:2 3:3 4:4\n",
     _ok(1, 4, [(1.0, [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)])])),
    ("repeat labels", "1 1:1\n1 1:1\n1 1:1\n",
     _ok(3, 1, [(1.0, [(0, 1.0)])] * 3)),
    ("integer values", "+1 1:3 2:7\n", _ok(1, 2, [(1.0, [(0, 3.0), (1, 7.0)])])),
    ("plus-signed value", "+1 1:+2.5\n", _ok(1, 1, [(1.0, [(0, 2.5)])])),
    ("tiny value", "+1 1:5e-324\n", _ok(1, 1, [(1.0, [(0, 5e-324)])])),
    ("huge value", "+1 1:1e308\n", _ok(1, 1, [(1.0, [(0, 1e308)])])),
    ("featureless among featureful", "+1 1:1\n-1\n+1 2:2\n",
     _ok(3, 2, [(1.0, [(0, 1.0)]), (-1.0, []), (1.0, [(1, 2.0)])])),
    ("label only zero line", "0\n", _ok(1, 0, [(-1.0, [])])),
    ("ordered gap indices", "+1 2:1 9:2\n", _ok(1, 9, [(1.0, [(1, 1.0),
                                                              (8, 2.0)])])),
    ("many rows", "".join(f"{'+1' if i % 2 else '-1'} {i + 1}:{i}\n"
                          for i in range(1, 11)),
     _ok(10, 11, [((1.0 if i % 2 else -1.0), [(i, float(i))])
                  for i in range(1, 11)])),
    # --- malformed cases: expected 1-based error line ---
    ("bad value token", "1 3:x\n", ("error", 1)),
    ("bad value later line", "1 1:1\n\n1 3:x\n", ("error", 3)),
    ("bad label", "abc 1:1\n", ("error", 1)),
    ("empty label token", ": 1:1\n", ("error", 1)),
    ("index zero", "1 0:1\n", ("error", 1)),
    ("negative index", "1 -2:1\n", ("error", 1)),
    ("fractional index", "1 2.5:1\n", ("error", 1)),
    ("alpha index", "1 a:1\n", ("error", 1)),
    ("missing colon", "1 11\n", ("error", 1)),
    ("missing value", "1 3:\n", ("error", 1)),
    ("missing index", "1 :4\n", ("error", 1)),
    ("duplicate index", "1 1:1 1:2\n", ("error", 1)),
    ("decreasing index", "1 3:1 2:1\n", ("error", 1)),
    ("double colon", "1 1:2:3\n", ("error", 1)),
    ("nan value", "1 1:nan\n", ("error", 1)),
    ("inf value", "1 1:inf\n", ("error", 1)),
    ("error on second line", "+1 1:1\n+1 0:1\n", ("error", 2)),
    ("error after blanks", "\n\n\n1 1:1 0:2\n", ("error", 4)),
    ("empty input", "", ("error", 1)),
    ("whitespace only", "   \n\t\n", ("error", 1)),
]


def test_criterion_10_parser_corpus():
    assert len(PARSER_CORPUS) == 50
    failures = []
    for name, text, expected in PARSER_CORPUS:
        try:
            ds = parse_libsvm(StringIO(text))
        except ParseError as exc:
            if expected[0] != "error" or exc.line_no != expected[1]:
                failures.append(f"{name}: got error at line {exc.line_no}, "
                                f"expected {expected}")
            continue
        if expected[0] == "error":
            failures.append(f"{name}: parsed but expected error at line "
                            f"{expected[1]}")
            continue
        _, n_samples, dimension, rows = expected
        if ds.n_samples != n_samples or ds.dimension != dimension:
            failures.append(f"{name}: shape ({ds.n_samples}, {ds.dimension}) "
                            f"!= ({n_samples}, {dimension})")
            continue
        for i, (label, feats) in enumerate(rows):
            s = ds.sample(i)
            got = list(zip((int(j) for j in s.indices),
                           (float(v) for v in s.values)))
            if s.label != label or got != feats:
                failures.append(f"{name}: row {i} mismatch: "
                                f"({s.label}, {got}) != ({label}, {feats})")
        # round-trip property on every valid case
        again = parse_libsvm(StringIO(serialize_libsvm(ds)))
        if not (np.array_equal(again.indptr, ds.indptr)
                and np.array_equal(again.indices, ds.indices)
                and np.array_equal(again.data, ds.data)
                and np.array_equal(again.labels, ds.labels)
                and again.dimension == ds.dimension):
            failures.append(f"{name}: round-trip differs")
    gate(10, "parser corpus",
         not failures,
         f"50 cases, {len(failures)} failures" +
         (f": {failures[:3]}" if failures else ""))
