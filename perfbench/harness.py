"""Closed-loop benchmark of the spdpeg solvers.

One process runs one workload. It sends every call only after the previous
one has returned, so it is a closed loop with a single client. The harness
only calls the library's public functions: ``bench.build_all``,
``solver.run``, ``baselines.run_eg_full``, ``baselines.run_stoch_linadmm``,
``bench.reference_optimum`` and ``bench.objective_value``.

The untraced run measures the end-to-end metrics. The traced run wraps the
public functions of each module from outside (see ``tracer.py``) and
reports per-layer counts and self times, plus the tracing overhead as the
difference from untraced calls made in the same process.

The workload seed picks the solvers' sampling seeds. The data instances are
fixed, because the reference optimum and the iteration counts to the gap are
defined on them; README.md gives the reasons.
"""

from __future__ import annotations

import bisect
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

import spdpeg
from spdpeg import baselines, bench, cli, solver
from tracer import Tracer

SOLVERS = ("spdpeg", "eg-full", "slinadmm")
# kept out of every tuning run of this benchmark; a later claim is checked on it
HELD_OUT_SEED = 7919
BLOCK_CALLS = 3      # consecutive timed calls per solver in one round
MIN_ROUNDS = 5
REFERENCE_CHECK_EVERY = 2000  # the library's default


def _entry(name: str):
    # looked up at call time so that the tracer's wrappers are the ones called
    if name == "spdpeg":
        return solver.run
    if name == "eg-full":
        return baselines.run_eg_full
    return baselines.run_stoch_linadmm


@dataclass(frozen=True)
class Workload:
    name: str
    core: dict
    calibrator: str                # a key of CALIBRATORS
    epsilon: float                 # objective gap that counts as reached
    call_iters: dict               # iterations of one timed call, per solver
    eval_every: dict               # trace cadence, per solver
    gap_horizon: dict              # iterations of the gap-search call
    gap_seeds: int = 5             # sampling seeds averaged for the gap metrics
    reference_max_iters: int | None = None         # None runs to convergence
    reference_repeats: int = 1
    traced_reference_max_iters: int | None = None  # None: as reference_max_iters
    setup_repeats: int = 9

    @property
    def traced_reference_cap(self) -> int | None:
        if self.traced_reference_max_iters is None:
            return self.reference_max_iters
        return self.traced_reference_max_iters


def _large_n_core() -> dict:
    # what `spdpeg run --synthetic fused-signal:d=50,N=100000` builds
    lambda_reg, gamma_reg = bench.TASK_DEFAULTS["flr"]
    data_seed = 12345
    return {"data": {"synthetic": cli.parse_synthetic_spec(
                         "fused-signal:d=50,N=100000", data_seed),
                     "split": True, "train_fraction": 0.8,
                     "split_seed": data_seed + 1},
            "penalty": {"source": "fused"},
            "problem": {"task": "flr", "lambda_reg": lambda_reg,
                        "gamma_reg": gamma_reg},
            "config": {"gamma": 0.1, "regime": "convex", "iters": 1,
                       "batch_size": 1, "eval_every": 100}}


def _per_solver(spdpeg_v, eg_full_v, slinadmm_v) -> dict:
    return dict(zip(SOLVERS, (spdpeg_v, eg_full_v, slinadmm_v)))


WORKLOADS = {
    "paper-flr": Workload(
        name="paper-flr", core=bench.rate_core("convex"),
        calibrator="mixed", epsilon=0.2,
        call_iters=_per_solver(300, 200, 300),
        eval_every=_per_solver(100, 100, 100),
        gap_horizon=_per_solver(4500, 4500, 4500), reference_repeats=2,
        traced_reference_max_iters=4000),
    "large-n-flr": Workload(
        name="large-n-flr", core=_large_n_core(), calibrator="memory",
        epsilon=0.0,
        call_iters=_per_solver(200, 1, 200),
        eval_every=_per_solver(100, 1, 100),
        gap_horizon=_per_solver(200, 20, 200), gap_seeds=3,
        reference_max_iters=5, reference_repeats=3, setup_repeats=5),
    "sc-graph-b16": Workload(
        name="sc-graph-b16", core=bench.rate_core("sc", batch_size=16),
        calibrator="mixed", epsilon=1e-3,
        call_iters=_per_solver(100, 300, 200),
        eval_every=_per_solver(100, 100, 100),
        gap_horizon=_per_solver(1200, 1200, 2800), gap_seeds=8,
        reference_repeats=5),
}

END_TO_END = (
    ("setup_s", "s"), ("reference_s", "s"),
    *((f"{s}.iter_us", "us") for s in SOLVERS),
    *((f"{s}.iters_to_gap", "count") for s in SOLVERS),
    *((f"{s}.time_to_gap_s", "s") for s in SOLVERS),
    ("ok_frac", "ratio"), ("peak_rss_mb", "MB"),
)

# (module path, function, stats) timed under each solver's scope
_COMMON_SOLVER_LAYERS = (
    ("oracles", "stochastic_gradient", ("calls_per_iter", "self_us_p50", "self_share")),
    ("oracles", "margins", ("calls_per_iter", "self_us_p50", "self_share")),
    ("oracles", "loss_value", ("self_share",)),
    ("oracles", "data_loss", ("self_share",)),
    ("sparse", "SparseMatrix.matvec", ("calls_per_iter", "self_us_p50", "self_share")),
    ("sparse", "SparseMatrix.rmatvec", ("calls_per_iter", "self_us_p50", "self_share")),
    ("prox", "apply_prox", ("calls_per_iter", "self_us_p50", "self_share")),
    ("prox", "reg_value", ("self_share",)),
    ("solver", "evaluate_trace_record", ("calls_per_iter", "self_us_p50", "self_share")),
)
_EXTRAGRADIENT_LAYERS = (
    ("solver", "update_z", ("calls_per_iter", "self_share")),
    ("solver", "update_extragradient", ("calls_per_iter", "self_us_p50", "self_share")),
    ("solver", "run", ("self_share",)),
)
SOLVER_LAYERS = {
    "spdpeg": _COMMON_SOLVER_LAYERS + _EXTRAGRADIENT_LAYERS,
    "eg-full": _COMMON_SOLVER_LAYERS + _EXTRAGRADIENT_LAYERS,
    "slinadmm": _COMMON_SOLVER_LAYERS
    + (("baselines", "run_stoch_linadmm", ("self_share",)),),
}
# The split and the penalty builders run on some workloads only; they are
# timed through the bench functions that call them on every workload.
SETUP_LAYERS = (
    ("bench", "build_all"), ("bench", "build_data"), ("data", "synthesize"),
    ("model", "Dataset.__init__"), ("model", "estimate_lipschitz"),
    ("bench", "build_penalty"), ("sparse", "power_iteration_sigma_max"),
    ("sparse", "SparseMatrix.matvec"), ("sparse", "SparseMatrix.rmatvec"),
)
REFERENCE_LAYERS = (
    ("bench", "reference_optimum"), ("bench", "objective_value"),
    ("oracles", "full_gradient"), ("oracles", "margins"),
    ("sparse", "SparseMatrix.matvec"), ("sparse", "SparseMatrix.rmatvec"),
    ("prox", "apply_prox"),
)
STAT_UNITS = {"calls_per_iter": "count", "self_us_p50": "us",
              "self_share": "ratio"}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for s in SOLVERS:
        for module, fn, stats in SOLVER_LAYERS[s]:
            out.extend((f"{s}.{module}.{fn}.{st}", STAT_UNITS[st]) for st in stats)
        out += [(f"{s}.oracles.stochastic_gradient.rows_per_call", "count"),
                (f"{s}.solver.evaluate_trace_record.margins_calls_per_eval", "count"),
                (f"{s}.oracles.margins.bytes_computed_per_eval", "B"),
                (f"{s}.tracing_overhead_us", "us")]
    out.extend((f"setup.{m}.{fn}.self_share", "ratio") for m, fn in SETUP_LAYERS)
    out.extend((f"reference.{m}.{fn}.self_share", "ratio")
               for m, fn in REFERENCE_LAYERS)
    out += [("reference.oracles.full_gradient.calls_per_iter", "count"),
            ("reference.bench.reference_optimum.iterations", "count")]
    return out


# ---------------------------------------------------------------------------
# run bookkeeping


class Ledger:
    """Attempted and failed calls; a failure is logged and the run goes on.

    A failed check counts against the call made last before it.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._failed_calls: set[int] = set()

    def call(self, what: str, fn, *args, **kwargs):
        """Run one call; return its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failing call must not end the workload
            traceback.print_exc(file=sys.stderr)
            self.check(False, f"{what}: raised")
            return None

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
            self._failed_calls.add(self.attempted)
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    @property
    def failed(self) -> int:
        return len(self._failed_calls)


def _median(values):
    return statistics.median(values) if values else math.nan


def _per_iter_us(timer, samples) -> float:
    """Median calibrated µs per iteration of (Timed, iterations) samples."""
    return _median([timer.seconds(t) / iters * 1e6 for t, iters in samples])


class Instance:
    """A built workload: the problem, its reference, and solver configs."""

    def __init__(self, wl: Workload, built):
        self.wl = wl
        self.train, self.test, self.problem, self.derived = built
        self.gamma = wl.core["config"]["gamma"]
        self.f_zero = bench.objective_value(self.problem, self.train,
                                            np.zeros(self.train.dimension))

    def config(self, name: str, seed: int, iters: int):
        return replace(bench.make_config(self.wl.core, self.derived, seed),
                       max_iters=iters, eval_every=self.wl.eval_every[name])

    def solve(self, name: str, seed: int, iters: int):
        return _entry(name)(self.problem, self.train,
                            self.config(name, seed, iters), self.test)

    def reference(self, max_iters: int | None):
        """The reference optimum, capped at ``max_iters`` unless it is None."""
        if max_iters is None:
            return bench.reference_optimum(self.problem, self.train, self.gamma)
        return bench.reference_optimum(
            self.problem, self.train, self.gamma, max_iters=max_iters,
            check_every=min(REFERENCE_CHECK_EVERY, max_iters))


def check_result(ledger: Ledger, inst: Instance, name: str, result) -> None:
    final = result.trace[-1].objective
    ledger.check(math.isfinite(final) and final < inst.f_zero,
                 f"{name}: final objective {final!r} is not finite and below "
                 f"f(0) = {inst.f_zero!r}")


class Determinism:
    """Calls with the same (solver, seed, iterations) must agree bit for bit."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.seen: dict[tuple, bytes] = {}

    def check(self, key: tuple, result, what: str) -> None:
        digest = result.x_avg.tobytes()
        first = self.seen.setdefault(key, digest)
        self.ledger.check(first == digest, f"{what}: x_avg differs between "
                                           f"calls with the same seed")


# On a shared host the same code runs up to 1.8x slower for minutes at a
# time. Calibration loops, run right before and after every timed call,
# measure that slowdown, and a timed call is divided by it: reported times are
# those of a host on which the loops take their nominal times. Interpreter-
# bound and memory-bound code slow down differently, so each workload weighs
# the two loops' slowdowns (as exponents) to match its work. README.md has the
# measurements.
CALIBRATORS = {"memory": (0.0, 1.0), "mixed": (0.5, 0.5)}
CALIBRATION_NOMINAL_S = (1.25e-3, 5.5e-3)
CAL_WINDOW_S = 0.5
_CAL_VECTOR = np.linspace(-1.0, 1.0, 20)
_CAL_ROWS = 20_000
_CAL_WIDTH = 50


def _interpreter_loop() -> None:
    # many small numpy calls, as in one iteration at d=20
    v = _CAL_VECTOR
    for _ in range(400):
        v = np.sign(v) * np.maximum(np.abs(v) - 1e-4, 0.0)
        float(v @ v)


class _MemoryLoop:
    # one CSR-style gather and bincount over 1e6 stored values, as in margins
    def __init__(self):
        rng = np.random.default_rng(0)
        self.values = rng.standard_normal(_CAL_ROWS * _CAL_WIDTH)
        self.cols = rng.integers(0, _CAL_WIDTH, _CAL_ROWS * _CAL_WIDTH)
        self.rows = np.repeat(np.arange(_CAL_ROWS), _CAL_WIDTH)
        self.x = rng.standard_normal(_CAL_WIDTH)

    def __call__(self) -> None:
        np.bincount(self.rows, weights=self.values * self.x[self.cols],
                    minlength=_CAL_ROWS)


@dataclass(frozen=True)
class Timed:
    start: float
    end: float


class Timer:
    """Times calls against the host slowdown measured around them.

    The calibration loops run right before and after every call. A call's
    slowdown is the median of the samples taken from ``CAL_WINDOW_S`` (or
    one call duration, if longer) before it to as long after it; its
    calibrated time is its wall time divided by that slowdown.
    """

    def __init__(self, ledger: Ledger, calibrator: str):
        self.ledger = ledger
        loops = (_interpreter_loop, _MemoryLoop())
        self.loops = [(loop, weight, nominal) for loop, weight, nominal
                      in zip(loops, CALIBRATORS[calibrator], CALIBRATION_NOMINAL_S)
                      if weight]
        self.sample_times: list[float] = []
        self.slowdowns: list[float] = []

    def _calibrate(self) -> None:
        slowdown = 1.0
        for loop, weight, nominal in self.loops:
            t0 = time.perf_counter()
            loop()
            slowdown *= ((time.perf_counter() - t0) / nominal) ** weight
        self.sample_times.append(time.perf_counter())
        self.slowdowns.append(slowdown)

    def __call__(self, what: str, fn, *args):
        """(Timed, result) of one call; result is None when it raised."""
        self._calibrate()
        t0 = time.perf_counter()
        result = self.ledger.call(what, fn, *args)
        t1 = time.perf_counter()
        self._calibrate()
        return Timed(t0, t1), result

    def seconds(self, timed: Timed) -> float:
        """Calibrated seconds of a call timed by this timer."""
        width = max(CAL_WINDOW_S, timed.end - timed.start)
        lo = bisect.bisect_left(self.sample_times, timed.start - width)
        hi = bisect.bisect_right(self.sample_times, timed.end + width)
        return (timed.end - timed.start) / statistics.median(self.slowdowns[lo:hi])


def build_instance(wl: Workload, timer: Timer) -> tuple[Instance, list[Timed]]:
    """Build the workload several times; return the last build and the times."""
    times = []
    built = None
    for i in range(wl.setup_repeats):
        built = None  # let the previous copy go before the next build
        timed, built = timer(f"build_all #{i}", bench.build_all, wl.core)
        if built is None:
            raise RuntimeError("the workload could not be built")
        times.append(timed)
    return Instance(wl, built), times


def check_reference(ledger: Ledger, inst: Instance, ref) -> None:
    ledger.check(math.isfinite(ref.objective) and ref.objective < inst.f_zero,
                 f"reference objective {ref.objective!r} is not below f(0)")
    if inst.wl.reference_max_iters is None:
        ledger.check(ref.converged, "reference optimum did not converge")


def gap_seed_list(wl: Workload, seed: int) -> list[int]:
    """Sampling seeds of the gap metrics; disjoint for distinct workload seeds."""
    return [seed * wl.gap_seeds + i for i in range(wl.gap_seeds)]


@dataclass(frozen=True)
class Crossing:
    seed: int
    iteration: int                 # first trace iteration at or below target
    objective: float | None        # None when the target was never reached


def find_crossing(timer: Timer, inst: Instance, name: str, seed: int,
                  target: float) -> Crossing:
    """Search the trace for the first record at or below ``target``; a
    search that ends short of it is repeated once at twice the horizon."""
    ledger = timer.ledger
    horizon = inst.wl.gap_horizon[name]
    for iters in (horizon, 2 * horizon):
        # timed only for the calibration samples it leaves
        _, result = timer(f"{name} gap search seed {seed}", inst.solve, name,
                          seed, iters)
        if result is None:
            break
        check_result(ledger, inst, name, result)
        hit = next((r for r in result.trace if r.objective <= target), None)
        if hit is not None:
            return Crossing(seed, hit.iteration, hit.objective)
    ledger.check(False, f"{name} seed {seed} did not reach the gap within "
                        f"{2 * horizon} iterations")
    return Crossing(seed, 2 * horizon, None)


def run_untraced(wl: Workload, seed: int, seconds: float) -> tuple[dict, Ledger]:
    ledger = Ledger()
    timer = Timer(ledger, wl.calibrator)
    determinism = Determinism(ledger)
    inst, setup_times = build_instance(wl, timer)

    # the first reference call also fixes the gap target
    ref_timed, ref = timer("reference_optimum", inst.reference,
                           wl.reference_max_iters)
    if ref is None:
        raise RuntimeError("the reference optimum failed")
    ref_times = [ref_timed]
    check_reference(ledger, inst, ref)
    target = ref.objective + wl.epsilon

    seeds = gap_seed_list(wl, seed)
    crossings = {}
    for name in SOLVERS:
        # eg-full draws no samples, so one search serves every seed
        searched = [find_crossing(timer, inst, name, s, target)
                    for s in (seeds[:1] if name == "eg-full" else seeds)]
        crossings[name] = [replace(searched[0], seed=s) for s in seeds] \
            if name == "eg-full" else searched

    for name in SOLVERS:
        ledger.call(f"{name} warm-up", inst.solve, name, seed,
                    wl.call_iters[name])
    # every time-to-gap call and repeated reference call, interleaved with
    # the per-iteration timing so that host drift reaches all of them alike
    extras = [("gap", name, crossings[name][i]) for i in range(wl.gap_seeds)
              for name in SOLVERS]
    extras += [("reference", None, None)] * (wl.reference_repeats - 1)
    iter_samples = {name: [] for name in SOLVERS}
    gap_samples = {name: [] for name in SOLVERS}

    def run_extra(kind, name, crossing):
        if kind == "reference":
            t, again = timer("reference_optimum", inst.reference,
                             wl.reference_max_iters)
            if again is not None:
                ledger.check(again.objective == ref.objective,
                             "reference objective differs between calls")
                ref_times.append(t)
            return
        t, result = timer(f"{name} time-to-gap call", inst.solve, name,
                          crossing.seed, crossing.iteration)
        if result is None:
            return
        check_result(ledger, inst, name, result)
        ledger.check(crossing.objective is None
                     or result.trace[-1].objective == crossing.objective,
                     f"{name}: the time-to-gap call did not reproduce the "
                     "search trace bit for bit")
        gap_samples[name].append(t)

    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        order = SOLVERS[rounds % 3:] + SOLVERS[:rounds % 3]
        for name in order:
            iters = wl.call_iters[name]
            for _ in range(BLOCK_CALLS):
                t, result = timer(f"{name} timed call", inst.solve, name, seed,
                                  iters)
                if result is not None:
                    check_result(ledger, inst, name, result)
                    determinism.check((name, seed, iters), result, name)
                    iter_samples[name].append((t, iters))
        if extras:
            run_extra(*extras.pop(0))
        rounds += 1
    for extra in extras:
        run_extra(*extra)

    metrics = {
        "setup_s": (_median([timer.seconds(t) for t in setup_times]), "s",
                    len(setup_times)),
        "reference_s": (_median([timer.seconds(t) for t in ref_times]), "s",
                        len(ref_times))}
    for name in SOLVERS:
        metrics[f"{name}.iter_us"] = (_per_iter_us(timer, iter_samples[name]),
                                      "us", len(iter_samples[name]))
    for name in SOLVERS:
        counts = [c.iteration for c in crossings[name]]
        metrics[f"{name}.iters_to_gap"] = (statistics.mean(counts), "count",
                                           len(counts))
    for name in SOLVERS:
        samples = [timer.seconds(t) for t in gap_samples[name]]
        metrics[f"{name}.time_to_gap_s"] = (
            statistics.mean(samples) if samples else math.nan, "s", len(samples))
    ok = (ledger.attempted - ledger.failed) / ledger.attempted
    metrics["ok_frac"] = (ok, "ratio", ledger.attempted)
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
    details = {"reference_objective": ref.objective,
               "reference_iterations": ref.iterations,
               "reference_converged": ref.converged,
               "gap_target": target, "f_zero": inst.f_zero,
               "crossings": {n: [c.iteration for c in crossings[n]]
                             for n in SOLVERS},
               "rounds": rounds, "calibrator": wl.calibrator,
               "host_slowdown_p50": _median(timer.slowdowns)}
    return {"metrics": metrics, "details": details}, ledger


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# traced run


def _trace_targets():
    """(owner, attribute, span name) of every function the traced run times."""
    pairs = [*SETUP_LAYERS, *REFERENCE_LAYERS,
             *((m, fn) for s in SOLVERS for m, fn, _ in SOLVER_LAYERS[s]),
             ("baselines", "run_eg_full")]
    targets = []
    for module_name, fn in dict.fromkeys(pairs):
        owner = importlib.import_module(f"spdpeg.{module_name}")
        *classes, attr = fn.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        targets.append((owner, attr, f"{module_name}.{fn}"))
    return targets


def _namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if name == "spdpeg" or name.startswith("spdpeg.")]


def _rows_per_call(problem, dataset, x, rng, batch_size, enumerate_all=False):
    return dataset.n_samples if enumerate_all else batch_size


def _margin_bytes(dataset, x):
    # computed, not measured: data, column indices, row ids and the gathered
    # x entry per stored value, plus one output per row
    return 32 * dataset.indices.size + 8 * dataset.n_samples


COUNTERS = {"oracles.stochastic_gradient": _rows_per_call,
            "oracles.margins": _margin_bytes}


def run_traced(wl: Workload, seed: int, seconds: float,
               spans_path: str | None) -> tuple[dict, Ledger]:
    ledger = Ledger()
    timer = Timer(ledger, wl.calibrator)
    determinism = Determinism(ledger)
    inst, _ = build_instance(wl, timer)
    ref = ledger.call("reference_optimum", inst.reference,
                      wl.reference_max_iters)
    if ref is not None:
        check_reference(ledger, inst, ref)
    tracer = Tracer()
    for name in SOLVERS:
        ledger.call(f"{name} warm-up", inst.solve, name, seed,
                    wl.call_iters[name])

    targets, namespaces = _trace_targets(), _namespaces()

    def traced_call(scope: str, what: str, fn, *args):
        def call():
            with tracer.installed(targets, namespaces, COUNTERS), \
                    tracer.span(scope):
                return fn(*args)
        return timer(what, call)

    # looked up inside the call, so that the wrapper is the one called
    traced_call("setup", "traced build_all", lambda: bench.build_all(wl.core))
    _, traced_ref = traced_call("reference", "traced reference_optimum",
                                inst.reference, wl.traced_reference_cap)
    untraced = {name: [] for name in SOLVERS}
    traced = {name: [] for name in SOLVERS}
    traced_calls = {name: 0 for name in SOLVERS}
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < seconds:
        order = SOLVERS[rounds % 3:] + SOLVERS[:rounds % 3]
        for name in order:
            iters = wl.call_iters[name]
            for _ in range(BLOCK_CALLS):
                t, result = timer(f"{name} untraced call", inst.solve, name,
                                  seed, iters)
                if result is not None:
                    check_result(ledger, inst, name, result)
                    determinism.check((name, seed, iters), result, name)
                    untraced[name].append((t, iters))
                t, result = traced_call(name, f"{name} traced call", inst.solve,
                                        name, seed, iters)
                traced_calls[name] += 1
                if result is not None:
                    # same key as the untraced calls: tracing must not
                    # change a single bit of the output
                    determinism.check((name, seed, iters), result,
                                      f"{name} traced")
                    traced[name].append((t, iters))
        rounds += 1
    if spans_path:
        tracer.write(spans_path)

    summary = tracer.summarize()
    metrics = {}
    for name in SOLVERS:
        total, _, stats = summary.get(name, (0.0, 0, {}))
        iters = traced_calls[name] * wl.call_iters[name]
        for module, fn, stat_names in SOLVER_LAYERS[name]:
            st = stats.get(f"{module}.{fn}")
            for stat in stat_names:
                metrics[f"{name}.{module}.{fn}.{stat}"] = (
                    _layer_stat(stat, st, iters, total), STAT_UNITS[stat], iters)
        sg = stats.get("oracles.stochastic_gradient")
        metrics[f"{name}.oracles.stochastic_gradient.rows_per_call"] = (
            tracer.count_total(name, "oracles.stochastic_gradient") / sg.calls
            if sg else 0.0, "count", sg.calls if sg else 0)
        evals, margins_calls, margin_bytes = tracer.calls_within(
            name, "solver.evaluate_trace_record", "oracles.margins")
        metrics[f"{name}.solver.evaluate_trace_record.margins_calls_per_eval"] = (
            margins_calls / evals if evals else 0.0, "count", evals)
        metrics[f"{name}.oracles.margins.bytes_computed_per_eval"] = (
            margin_bytes / evals if evals else 0.0, "B", evals)
        metrics[f"{name}.tracing_overhead_us"] = (
            _per_iter_us(timer, traced[name]) - _per_iter_us(timer, untraced[name]),
            "us", len(traced[name]))
    for scope, layers in (("setup", SETUP_LAYERS), ("reference", REFERENCE_LAYERS)):
        total, _, stats = summary.get(scope, (0.0, 0, {}))
        for module, fn in layers:
            st = stats.get(f"{module}.{fn}")
            metrics[f"{scope}.{module}.{fn}.self_share"] = (
                _layer_stat("self_share", st, 1, total), "ratio",
                st.calls if st else 0)
    ref_iters = traced_ref.iterations if traced_ref is not None else 0
    full = summary.get("reference", (0.0, 0, {}))[2].get("oracles.full_gradient")
    metrics["reference.oracles.full_gradient.calls_per_iter"] = (
        full.calls / ref_iters if full and ref_iters else 0.0, "count", ref_iters)
    metrics["reference.bench.reference_optimum.iterations"] = (
        ref.iterations if ref is not None else 0, "count", 1)

    share_sums = {}
    for name in SOLVERS:
        share_sums[name] = sum(v for k, (v, _, _) in metrics.items()
                               if k.startswith(f"{name}.") and k.endswith(".self_share"))
        ledger.check(share_sums[name] <= 1.0 + 1e-9,
                     f"{name}: self shares sum to {share_sums[name]} > 1")
    details = {"rounds": rounds, "spans": len(tracer.spans),
               "self_share_sums": share_sums,
               "untraced_iter_us": {n: _per_iter_us(timer, untraced[n])
                                    for n in SOLVERS},
               "traced_iter_us": {n: _per_iter_us(timer, traced[n])
                                  for n in SOLVERS},
               "traced_reference_iterations": ref_iters,
               "host_slowdown_p50": _median(timer.slowdowns)}
    return {"metrics": metrics, "details": details}, ledger


def _layer_stat(stat: str, st, iters: int, total: float) -> float:
    if st is None:
        return 0.0
    if stat == "calls_per_iter":
        return st.calls / iters if iters else 0.0
    if stat == "self_us_p50":
        return st.self_p50_seconds * 1e6
    return st.self_seconds / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# environment


def _git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "spdpeg": spdpeg.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "git_commit": _git_commit(root),
            "workload_seed": seed, "held_out_seed": HELD_OUT_SEED,
            "threads": {k: os.environ.get(k) for k in sorted(os.environ)
                        if k.endswith("_NUM_THREADS")}}
