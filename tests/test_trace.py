"""The benchmark's timing spans (``benchmarks/spans.py``) find every
traced entry point of the package, and put the originals back."""

import importlib.util
import sys
from pathlib import Path

import neckfield

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


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


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("neckfield_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans
    try:
        spec.loader.exec_module(spans)
        before = _bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert len(tracer._restore) >= len(spans.ENTRY_POINTS)
            neckfield.build_two_disks(1.0, 1.0, 1e-2)
            assert tracer.calls["build_two_disks"] == 1
        finally:
            tracer.uninstall()
        after = _bindings()
    finally:
        del sys.modules[spec.name]
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []
