"""The benchmark's timing spans (``benchmarks/spans.py``) find every
traced entry point of the package, and put the originals back."""

import importlib.util
import sys
from pathlib import Path

import pytest

import neckfield

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("neckfield_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _bindings() -> dict:
    """Every attribute of every loaded neckfield module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "neckfield" or name.startswith("neckfield.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_installs_and_uninstalls(spans):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(tracer._restore) >= len(spans.ENTRY_POINTS)
        neckfield.build_two_disks(1.0, 1.0, 1e-2)
        assert tracer.calls["build_two_disks"] == 1
    finally:
        tracer.uninstall()
    changed = [key for key, value in before.items() if _bindings().get(key) is not value]
    assert changed == []


def test_sweep_builds_are_traced(spans, monkeypatch):
    # a canonical sweep row builds its scene through the case table; the
    # builder it reaches must be the traced one, or the build time would be
    # charged to the sweep layer
    spec = neckfield.SweepSpec(case_tag="B", vary="eps1", grid=(1e-3, 1e-2),
                               fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                               quantities=("potential_difference_21",))
    # the tracer sees this process's calls only: run every row here
    monkeypatch.setattr(neckfield.sweeps, "_process_count", lambda rows: 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        neckfield.run_sweep(spec)
    finally:
        tracer.uninstall()
    assert tracer.calls["build_case_b"] == 2
    builds = [s for s in tracer.spans if s.name == "build_case_b"]
    assert [tracer.spans[s.parent].name for s in builds] == ["run_sweep"] * 2
    assert {s.layer for s in tracer.spans} >= {"geometry", "mesh", "assembly", "solve", "sweep"}
    for s in tracer.spans:
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end, (s.name, parent.name)


def test_sweep_quantities_are_traced(spans, monkeypatch):
    # the quantity table reaches the gap-maximum search and the surface
    # derivative through the traced names, inside the sweep's span
    spec = neckfield.SweepSpec(case_tag="B", vary="eps1", grid=(1e-3, 1e-2),
                               fixed={"r1": 1.0, "r2": 0.05, "r3": 1.0, "eps2": 1e-3},
                               quantities=("max_gap_gradient_12", "potential_difference_21",
                                           "flux_residual_max"))
    # the tracer sees this process's calls only: run every row here
    monkeypatch.setattr(neckfield.sweeps, "_process_count", lambda rows: 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        neckfield.run_sweep(spec)
    finally:
        tracer.uninstall()

    def ancestors(s):
        while s.parent >= 0:
            s = tracer.spans[s.parent]
            yield s.name

    for name in ("max_gap_gradient", "FieldSolution.normal_derivative_nodes"):
        assert tracer.calls[name] == 2, name
        for s in tracer.spans:
            if s.name == name:
                assert "run_sweep" in ancestors(s), name
