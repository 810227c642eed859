"""Smoke tests of the benchmark itself (about a minute on two cores).

    python3 -m pytest -q benchmarks/test_smoke.py

Each workload, at a tiny grid, must emit every metric BENCHMARK.json names
and pass its checks; the trace must refuse to report when it cannot see a
layer.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import neckfield as nf  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY_POINTS = {"pair_oracle": 5, "caseB_sweep": 4, "caseD_sweep": 4}


def test_spec_lists_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_workload_emits_every_metric(name):
    result = worker.run(name, seed=0, seconds=0, trace=True, points=TINY_POINTS[name])
    assert [n for n, ok in result["checks"] if not ok] == []
    assert result["failed"] == 0 and len(result["scene_s"]) == TINY_POINTS[name]
    measured = run.untraced_metrics(result, [result["setup_s"]])
    measured.update(result["per_layer"])
    for section in ("end_to_end", "per_layer"):
        emitted = run.select(measured, SPEC[section])
        assert list(emitted) == [s["name"] for s in SPEC[section]]
        assert all(math.isfinite(m["value"]) for m in emitted.values())
    for layer in spans.LAYERS:
        assert measured[f"{layer}.self_s"] > 0.0


def test_missing_entry_point_fails_loudly(monkeypatch):
    original = nf.solver.mesh.build_mesh
    monkeypatch.setattr(spans, "ENTRY_POINTS", spans.ENTRY_POINTS + (
        ("neckfield.solver.mesh", None, "build_mesh_renamed", "mesh", None),))
    with pytest.raises(spans.TraceError, match="build_mesh_renamed"):
        spans.Tracer().install()
    assert nf.solver.mesh.build_mesh is original
    assert nf.solver.nystrom.build_mesh is original


def test_unreached_layer_fails_loudly():
    tracer = spans.Tracer()
    tracer.install()
    try:
        nf.build_two_disks(1.0, 1.0, 0.1)
    finally:
        tracer.uninstall()
    with pytest.raises(spans.TraceError, match="mesh"):
        tracer.report(1.0)
