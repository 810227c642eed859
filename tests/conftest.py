"""Test-suite settings: Hypothesis draws the same examples on every host
and keeps no example database, so two runs of the suite are comparable.
Criterion 7's verify runs are made once and shared with the golden record."""

import pytest
from hypothesis import settings

from neckfield.cli import main

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# criterion 7's run files: case A, whose middle body is the lens, and case B
CASE_A = "[scene]\ncase = A\n\n[case]\nr1 = 1.0\nr2 = 0.05\nr3 = 1.0\na = 0.05\neps = 0.001\n"
CASE_B = ("[scene]\ncase = B\n\n[case]\nr1 = 1.0\nr2 = 0.05\nr3 = 1.0\neps1 = 0.001\n"
          "eps2 = 0.001\n")


def run_cli(directory, command, text, *options):
    """Write the run file ``text`` into ``directory`` and run ``neckfield
    <command>`` on it in process, into ``directory / "out"``: the exit code
    and the output CSV without comment lines, or None where it wrote none."""
    directory.mkdir(parents=True, exist_ok=True)
    cfg, out = directory / "run.cfg", directory / "out"
    cfg.write_text(text)
    code = main([command, str(cfg), "--out", str(out), *options])
    name = {"solve": "solution", "sweep": "sweep", "verify": "verify"}.get(command)
    if name is None or not (out / f"{name}.csv").exists():
        return code, None
    lines = (out / f"{name}.csv").read_text().splitlines(keepends=True)
    return code, "".join(ln for ln in lines if not ln.startswith("#"))


@pytest.fixture(scope="session")
def verify_ab(tmp_path_factory):
    """``neckfield verify`` on criterion 7's two run files, once per session:
    {"A": (exit code, verify.csv body), "B": ...}."""
    return {case: run_cli(tmp_path_factory.mktemp(f"verify_{case}"), "verify", text)
            for case, text in (("A", CASE_A), ("B", CASE_B))}
