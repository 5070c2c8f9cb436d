"""Self-tests of the benchmark harness.

They exercise the tracer on stand-in functions, not on the library's call
counts, so a change to how many times the solvers call a kernel does not
break them. Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    """Advances by one unit on every read, so span arithmetic is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _stand_in_modules():
    lib = types.ModuleType("lib")
    user = types.ModuleType("user")

    def leaf(x):
        return x + 1

    def middle(x):
        return lib.leaf(x) + user.leaf_alias(x)

    def top(x):
        return lib.middle(x) * 2

    def boom():
        raise ValueError("boom")

    lib.leaf, lib.middle, lib.top, lib.boom = leaf, middle, top, boom
    user.leaf_alias = leaf  # what `from lib import leaf as leaf_alias` leaves
    return lib, user


def _targets(lib):
    return [(lib, "leaf", "lib.leaf"), (lib, "middle", "lib.middle"),
            (lib, "top", "lib.top"), (lib, "boom", "lib.boom")]


def test_spans_nest_and_aliases_are_wrapped():
    lib, user = _stand_in_modules()
    tracer = Tracer(clock=FakeClock())
    with tracer.installed(_targets(lib), [user]):
        with tracer.span("scope"):
            assert lib.top(1) == 8
    names = [tracer.names[nid] for nid, _, _, _ in tracer.spans]
    assert names == ["scope", "lib.top", "lib.middle", "lib.leaf", "lib.leaf"]
    parents = [p for _, _, _, p in tracer.spans]
    assert parents == [-1, 0, 1, 2, 2]
    for nid, start, end, parent in tracer.spans:
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans[parent]
            assert p_start < start < end < p_end


def test_self_time_is_duration_minus_children():
    lib, user = _stand_in_modules()
    tracer = Tracer(clock=FakeClock())
    with tracer.installed(_targets(lib), [user]):
        with tracer.span("scope"):
            lib.top(1)
    # clock reads: scope 1..10, top 2..9, middle 3..8, leaf 4..5, leaf 6..7
    assert [(s, e) for _, s, e, _ in tracer.spans] == [
        (1, 10), (2, 9), (3, 8), (4, 5), (6, 7)]
    assert tracer.self_times() == [2.0, 2.0, 3.0, 1.0, 1.0]
    total, roots, stats = tracer.summarize()["scope"]
    assert (total, roots) == (9.0, 1)
    assert sum(st.self_seconds for st in stats.values()) == total
    assert stats["lib.leaf"].calls == 2
    assert stats["lib.leaf"].self_p50_seconds == 1.0


def test_originals_restored_even_when_the_block_raises():
    lib, user = _stand_in_modules()
    originals = (lib.leaf, lib.middle, lib.top, lib.boom, user.leaf_alias)
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(_targets(lib), [user]):
            assert user.leaf_alias is not originals[4]
            lib.boom()
    assert (lib.leaf, lib.middle, lib.top, lib.boom, user.leaf_alias) == originals
    # the raising call still closed its span
    assert tracer.closed_spans()[0][0] == tracer.names.index("lib.boom")


def test_class_methods_are_wrapped_and_restored():
    class Matrix:
        def matvec(self, v):
            return 2 * v

    original = Matrix.__dict__["matvec"]
    tracer = Tracer(clock=FakeClock())
    with tracer.installed([(Matrix, "matvec", "Matrix.matvec")]):
        assert Matrix().matvec(3) == 6
    assert Matrix.__dict__["matvec"] is original
    assert tracer.names[tracer.spans[0][0]] == "Matrix.matvec"


def test_counts_and_calls_within_an_outer_span():
    lib, user = _stand_in_modules()
    tracer = Tracer(clock=FakeClock())
    with tracer.installed(_targets(lib), [user], {"lib.leaf": lambda x: 10 * x}):
        with tracer.span("scope"):
            lib.top(2)
            lib.leaf(5)  # outside lib.middle
    assert tracer.count_total("scope", "lib.leaf") == 20 + 20 + 50
    assert tracer.calls_within("scope", "lib.middle", "lib.leaf") == (1, 2, 40.0)


def test_tracing_changes_no_result():
    lib, user = _stand_in_modules()
    plain = lib.top(3)
    with Tracer().installed(_targets(lib), [user]):
        assert lib.top(3) == plain


def test_seed_argument_is_required_and_checked():
    args = run.parse_args(["--workload", "paper-flr", "--seed", "4"])
    assert (args.seed, args.trace) == (4, 0)
    for bad in (["--workload", "paper-flr"],
                ["--workload", "paper-flr", "--seed", "x"],
                ["--workload", "paper-flr", "--seed", "-1"],
                ["--workload", "nope", "--seed", "1"]):
        with pytest.raises(SystemExit):
            run.parse_args(bad)


def test_seed_picks_distinct_reproducible_sampling_seeds():
    import harness

    wl = harness.WORKLOADS["sc-graph-b16"]
    seen = set()
    for seed in range(10):
        seeds = harness.gap_seed_list(wl, seed)
        assert seeds == harness.gap_seed_list(wl, seed)
        assert len(seeds) == wl.gap_seeds and not seen & set(seeds)
        seen |= set(seeds)
    assert harness.HELD_OUT_SEED * wl.gap_seeds > max(seen)


def test_benchmark_json_matches_the_harness():
    import harness

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        harness.per_layer_metrics()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", m["unit"])
               for key in ("end_to_end", "per_layer") for m in spec[key])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert len(spec["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_result_line_schema():
    line = run.result_line(True, 3, 0, {"a_s": (1.5, "s", 3), "b": (2, "count", 1)})
    out = json.loads(line)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["metrics"] == {"a_s": {"value": 1.5, "unit": "s"},
                              "b": {"value": 2, "unit": "count"}}
    bad = json.loads(run.result_line(True, 1, 0, {"a_s": (math.nan, "s", 0)}))
    assert bad["correct"] is False and bad["metrics"]["a_s"]["value"] is None


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-flr",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
