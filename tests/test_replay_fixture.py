"""Committed run manifests replay byte for byte.

``tests/data/replay/<task>/`` holds the manifest and trace CSVs of one
``spdpeg run`` per task (``flr`` and ``ggrlr``): d=10, N=60, all three
solvers, two seeds. Replaying each through ``spdpeg run --from-manifest``
must rewrite every trace file byte for byte, so the manifest format, the
derived constants and the solvers' bits are pinned across changes.

Regenerate with ``PYTHONPATH=src python tests/test_replay_fixture.py`` only
on a commit whose traces are known to be right, and say so in the change
that does it.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from spdpeg import bench
from spdpeg.cli import main
from spdpeg.model import compute_L_tilde
from spdpeg.penalties import build_fused_matrix
from spdpeg.sparse import power_iteration_sigma_max

FIXTURE = Path(__file__).resolve().parent / "data" / "replay"
RUN_ARGV = {
    "flr": ["--task", "flr", "--synthetic", "fused-signal:d=10,N=60"],
    "ggrlr": ["--task", "ggrlr", "--synthetic", "graph-logistic:d=10,N=60"],
}
COMMON_ARGV = ["--solver", "all", "--seeds", "2", "--iters", "200",
               "--eval-every", "50"]


@pytest.mark.parametrize("task", list(RUN_ARGV))
def test_committed_manifest_replays_byte_for_byte(task, tmp_path, monkeypatch):
    # in this process and on two workers alike
    recorded = FIXTURE / task
    traces = sorted(p.name for p in recorded.glob("trace_*.csv"))
    assert len(traces) == 6
    for threads in ("1", "2"):
        monkeypatch.setenv("SPDPEG_THREADS", threads)
        out = tmp_path / threads
        rc = main(["run", "--from-manifest", str(recorded / "manifest.json"),
                   "--out", str(out)])
        assert rc == 0
        assert sorted(p.name for p in out.glob("trace_*.csv")) == traces
        for name in traces:
            assert (out / name).read_bytes() == (recorded / name).read_bytes(), name


def drifted_copy(tmp_path):
    """A copy of the ``flr`` fixture in which one digit of an intermediate
    objective of one trace file differs; the manifest is untouched."""
    copy = tmp_path / "flr"
    shutil.copytree(FIXTURE / "flr", copy)
    path = copy / "trace_slinadmm_seed1.csv"
    header, first, *rest = path.read_text().splitlines(keepends=True)
    fields = first.split(",")
    digit = fields[3][-2]
    fields[3] = fields[3][:-2] + ("1" if digit != "1" else "2") + fields[3][-1]
    path.write_text(header + ",".join(fields) + "".join(rest))
    return copy


@pytest.mark.parametrize("in_place", [False, True])
def test_a_drifted_trace_file_fails_the_replay(tmp_path, capsys, in_place):
    # read before the rerun, so a replay into the manifest's own directory
    # compares the recorded bytes, not its own
    copy = drifted_copy(tmp_path)
    out = copy if in_place else tmp_path / "replay"
    rc = main(["run", "--from-manifest", str(copy / "manifest.json"),
               "--out", str(out)])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == ("error: replay of slinadmm seed 1 wrote "
                    "trace_slinadmm_seed1.csv, which differs from the "
                    "recorded file")


def test_a_manifest_without_its_traces_replays_on_its_entries(tmp_path):
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(FIXTURE / "flr" / "manifest.json", alone)
    rc = main(["run", "--from-manifest", str(alone / "manifest.json"),
               "--out", str(tmp_path / "replay")])
    assert rc == 0
    for path in (FIXTURE / "flr").glob("trace_*.csv"):
        assert (tmp_path / "replay" / path.name).read_bytes() == path.read_bytes()


def without(manifest: dict, *path) -> dict:
    """``manifest`` with the key at the end of ``path`` deleted."""
    *parents, key = path
    inner = manifest
    for step in parents:
        inner = inner[step]
    del inner[key]
    return manifest


@pytest.mark.parametrize("path", [
    ("core",), ("derived",), ("runs",), ("runs", 3, "solver"),
    ("runs", 0, "seed"), ("core", "data"), ("core", "penalty"),
    ("core", "problem"), ("core", "config"), ("core", "data", "split_seed"),
    ("core", "data", "synthetic", "kind"), ("core", "penalty", "source"),
    ("core", "problem", "lambda_reg"), ("core", "config", "regime"),
    ("core", "config", "iters")], ids=lambda path: ".".join(map(str, path)))
def test_a_manifest_that_lacks_a_key_is_one_error_line(tmp_path, capsys, path):
    manifest = json.loads((FIXTURE / "flr" / "manifest.json").read_text())
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(without(manifest, *path)))
    rc = main(["run", "--from-manifest", str(mpath),
               "--out", str(tmp_path / "replay")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"error: manifest lacks key {path[-1]!r}"
    assert not (tmp_path / "replay").exists()


def replaced(manifest: dict, path, value):
    """``manifest`` with the value at the end of ``path`` (the whole
    manifest for an empty path) replaced by ``value``."""
    if not path:
        return value
    *parents, key = path
    inner = manifest
    for step in parents:
        inner = inner[step]
    inner[key] = value
    return manifest


@pytest.mark.parametrize("path,value,message", [
    ((), [1, 2], "{mpath} is not a run manifest"),
    ((), "manifest", "{mpath} is not a run manifest"),
    (("runs",), [1], "manifest key 'runs' must be a list of objects"),
    (("runs",), {}, "manifest key 'runs' must be a list of objects"),
    (("core",), [], "manifest key 'core' must be an object"),
    (("core", "data"), 1, "manifest key 'data' must be an object"),
    (("core", "penalty"), "fused", "manifest key 'penalty' must be an object"),
    (("core", "problem"), None, "manifest key 'problem' must be an object"),
    (("core", "config"), [], "manifest key 'config' must be an object"),
    (("derived",), 3.0, "manifest key 'derived' must be an object")],
    ids=["list", "string", "runs-of-numbers", "runs-object", "core-list",
         "core.data", "core.penalty", "core.problem", "core.config", "derived"])
def test_a_manifest_of_the_wrong_shape_is_one_error_line(tmp_path, capsys, path,
                                                         value, message):
    manifest = json.loads((FIXTURE / "flr" / "manifest.json").read_text())
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(replaced(manifest, path, value)))
    rc = main(["run", "--from-manifest", str(mpath),
               "--out", str(tmp_path / "replay")])
    assert rc == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: " + message.format(mpath=mpath)
    assert not (tmp_path / "replay").exists()


def replay_with_sigma(tmp_path, task: str, sigma: float, mu: float) -> int:
    """Exit code of replaying a copy of the ``task`` manifest that records
    ``sigma`` as sigma_max_FtF and the L_tilde that follows from it."""
    manifest = json.loads((FIXTURE / task / "manifest.json").read_text())
    derived = manifest["derived"]
    derived.update(sigma_max_FtF=sigma, L_tilde=compute_L_tilde(
        manifest["core"]["config"]["gamma"], sigma, derived["lipschitz_L"], mu))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return main(["run", "--from-manifest", str(path),
                 "--out", str(tmp_path / "replay")])


def test_fused_manifest_with_the_power_iteration_sigma_fails(tmp_path, capsys):
    # the fused sigma_max was a power iteration before it was set in closed
    # form; a manifest written then records it and the L_tilde that follows
    # from it, and no longer replays
    sigma = power_iteration_sigma_max(build_fused_matrix(10))
    assert replay_with_sigma(tmp_path, "flr", sigma, 0.0) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: derived constant sigma_max_FtF changed")
    assert not (tmp_path / "replay").exists()


def test_graph_manifest_with_the_power_iteration_sigma_fails(tmp_path, capsys):
    # a graph penalty of d=10 took its sigma_max from power iteration before
    # the dense bound, which lies above that Rayleigh quotient
    core = json.loads((FIXTURE / "ggrlr" / "manifest.json").read_text())["core"]
    _, _, problem, _ = bench.build_all(core)
    sigma = power_iteration_sigma_max(problem.penalty)
    assert sigma < problem.penalty.sigma_max_FtF
    assert replay_with_sigma(tmp_path, "ggrlr", sigma,
                             problem.strong_convexity_mu) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: derived constant sigma_max_FtF changed")


if __name__ == "__main__":
    for task, argv in RUN_ARGV.items():
        out = FIXTURE / task
        shutil.rmtree(out, ignore_errors=True)
        if main(["run", *argv, *COMMON_ARGV, "--out", str(out)]) != 0:
            sys.exit(f"the {task} run failed")
