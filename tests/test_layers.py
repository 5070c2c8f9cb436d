"""The modules of ``src/spdpeg`` import one another in one order.

Each ``from .x import`` edge must point to a lower layer: the kernels
(``sparse``, ``prox``, ``trace``), then ``model``, then the penalties and
the oracles (with the objective and its certificate), then the data
readers, the solver, the baselines, the benchmark harness and the command
line, each a layer of its own. The package root re-exports names from
several layers and lies outside the order.

Facts with one source are checked here too: ``solver.make_schedule`` is the
one place that derives L_tilde, ``solver.check_step_inequality`` binds the
full pass that audits a step and nothing in the package calls the checked
``oracles.full_gradient`` (a captured step records only what it computed,
and reads no ``full_batch``), the command line names no
synthetic kind and no regime (``bench.TASK_INSTANCES`` gives each task's),
``solver.trace_grid`` alone states the trace grid, and the logistic loss's
derivative and value are each stated once (``oracles._logistic``,
``oracles._softplus``).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

from spdpeg.data import SYNTHETIC_KINDS
from spdpeg.model import REGIMES

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spdpeg"
LAYERS = (("sparse", "prox", "trace"), ("model",), ("penalties", "oracles"),
          ("data",), ("solver",), ("baselines",), ("bench",), ("cli",))
RANK = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def import_edges(module: str) -> set[str]:
    """The package modules that ``module`` imports with a relative import."""
    edges = set()
    for node in ast.walk(parse(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is not None:
                edges.add(node.module.split(".")[0])
            else:  # from . import x: x is a module, or a name of the root
                edges.update(a.name for a in node.names if a.name in RANK)
    return edges


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_every_import_points_down():
    upward = [f"{module} imports {target}" for module in RANK
              for target in sorted(import_edges(module))
              if RANK[target] >= RANK[module]]
    assert upward == []


def callers_of(name: str) -> list[str]:
    """``module.owner`` of each call of ``name`` in the package, the owner
    being the top-level function or class that holds the call, or
    ``<module>``."""
    callers = []
    for module in sorted(RANK):
        for top in parse(module).body:
            callers += [f"{module}.{getattr(top, 'name', '<module>')}"
                        for node in ast.walk(top) if isinstance(node, ast.Call)
                        and name in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))]
    return callers


def test_L_tilde_has_one_source():
    # the schedule maps a regime to mu and derives L_tilde; the manifest
    # records the L_tilde of a schedule, so the harness never derives one
    assert callers_of("compute_L_tilde") == ["solver.make_schedule"]
    names = {getattr(node, "id", None) or getattr(node, "attr", None)
             for node in ast.walk(parse("bench"))}
    names |= {alias.name for node in ast.walk(parse("bench"))
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "compute_L_tilde" not in names


def test_the_step_computes_no_audit_gradient():
    # the audit binds the full pass that measures a captured step's noise;
    # the step only records what it drew, and no function of the package
    # takes the checked entry
    assert "solver.check_step_inequality" in callers_of("full_kernel")
    assert callers_of("full_gradient") == []
    [run] = [top for top in parse("solver").body
             if isinstance(top, ast.FunctionDef) and top.name == "run"]
    assert [node.lineno for node in ast.walk(run)
            if isinstance(node, ast.Attribute) and node.attr == "full_batch"] == []


def test_the_logistic_derivative_has_one_statement():
    # every coefficient and sigmoid of the logistic loss comes from
    # oracles._logistic and every loss value from oracles._softplus: no
    # other function of the package takes an exp
    assert set(callers_of("exp")) == {"oracles._logistic", "oracles._softplus"}


def test_seeds_run_through_one_loop():
    # the rate families and the comparison read their seeds' curves from
    # one helper; a manifest's runs are the suite's and the replay's
    assert sorted(callers_of("run_jobs")) == ["bench._seed_curves",
                                              "bench.replay_manifest",
                                              "bench.run_suite"]


def test_the_certificate_needs_no_benchmark_harness():
    code = ("import sys, spdpeg.oracles as o; "
            "assert callable(o.duality_gap) and callable(o.objective_and_gap); "
            "assert 'spdpeg.bench' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_command_line_names_no_synthetic_kind_or_regime():
    # it reads each task's from bench.TASK_INSTANCES and lists the kinds
    # and regimes from their tuples
    named = sorted({node.value for node in ast.walk(parse("cli"))
                    if isinstance(node, ast.Constant)
                    and node.value in (*SYNTHETIC_KINDS, *REGIMES)})
    assert named == []


def test_the_trace_grid_has_one_statement():
    # a remainder by eval_every restates solver.trace_grid's rule, and
    # misses its last point, the run's own end
    restated = [f"{module}:{node.lineno}" for module in sorted(RANK)
                for node in ast.walk(parse(module))
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                and "eval_every" in (getattr(node.right, "id", None),
                                     getattr(node.right, "attr", None))]
    assert restated == []
