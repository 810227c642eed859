"""The golden record: the numbers and decisions a refactor must keep.

Each run below goes through ``cli.main`` in process, and its output body
(comment lines dropped) must match the one recorded in ``tests/golden/``.
The decision record holds, for every scene of ``test_solver``'s mesh lists
and of the benchmark's workloads at seed 1, each curve's node count,
``mirrored`` and ``partner``, and whether the mesh folds and splits.

Headers, keys, check names, verdicts, error texts, ``mesh_nodes`` and the
decisions match exactly; other numbers within 1e-10 relative, 15x the
largest move seen between one and two BLAS threads (6.7e-12). A value at
rounding level moves by O(1) there, so ``NOISE`` gives it an absolute
ceiling on its move instead.

The record is updated by hand: a change that moves a recorded value
rewrites its file and names each moved value and its cause in CHANGES.md.
"""

import csv
import importlib
import itertools
import re
from pathlib import Path

import pytest

from conftest import CASE_B, run_cli
from neckfield import sweeps
from neckfield.solver import mesh as mesh_module
from neckfield.solver import nystrom
from test_solver import (FOLDED_SCENES, GRID_SCENES, SPLIT_SCENES, UNFOLDED_SCENES,
                         UNSPLIT_SCENES)

GOLDEN = Path(__file__).with_name("golden")
RELATIVE = 1e-10
# (pattern on a row key and column, ceiling); [the move seen between one
# and two BLAS threads]
NOISE = [(r"flux_residual", 1e-12),  # [2.8e-15]
         (r"identity_residual|rep_residual|potential_difference_identity", 1e-12),  # [1.2e-13]
         # a field's gap maximum where it has no gradient, 1e-9 and below [2.8e-10]
         (r"h2_gap_gradient_12|h1_gap_gradient_23", 1e-8),
         # verify's checks of those: spreads 117 and 51.6 read 228 and 196 with
         # two threads, their slopes -1.03 and -0.86 read -1.18 and -1.15
         (r"cross_gap_gradient_decay", 1e3),
         (r"rcond", 1e-6)]  # the gecon estimate [2.8e-7, a lens scene's 1.30e-6]
# a number in a cell: a value, one of a ';'-list, or one inside a text
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _free(*bodies):
    """A run file of [body N] sections, one per "key = value; ..." string."""
    return "\n".join(f"[body {i}]\n" + body.replace("; ", "\n") + "\n"
                     for i, body in enumerate(bodies, 1))


def _disk(x, y=0.0, radius=1.0):
    return f"kind = disk; center = {x}, {y}; radius = {radius}"


def _ellipse(x, terms=""):
    return f"kind = smooth; center = {x}, 0.0; cos_x = 1.0; {terms}sin_y = 0.8"


_LENS = "kind = lens; disk{}.center = 0.0505, 0.0; disk{}.radius = 0.05; " \
        "disk{}.center = 1.0505, 0.0; disk{}.radius = 1.0"
_THIN = "kind = smooth; center = {}; cos_x = 0.18815734310451662; sin_x = {}; " \
        "cos_y = 0.1646110999776419; sin_y = {}"
# name -> (subcommand, run file). The free-form scenes: a nonconvex peanut
# beside a disk, whose gap takes the six-run Newton search and the
# containment probe; two thin ellipses, whose one Newton run takes damped
# steps; two disks on the x-axis, which fold and split, and their copy moved
# by (0, 0.37), which takes the full path; an ellipse beside a disk and a
# mirror-image pair of ellipses, each with and without a zero sin_x term;
# and a disk beside a lens written small disk first and big disk first.
RUNS = {
    "verify_d": ("verify", "[scene]\ncase = D\n\n[case]\nr1 = 1.0\nr3 = 1.0\nleft_x = -1.5\n"
                           "right_x = 1.5\nr2 = 0.05\neps1 = 0.001\neps2 = 0.001\n"),
    "sweep_b": ("sweep", CASE_B + "\n[sweep]\nvary = eps1\ntie = eps2:1\ngrid = 1e-5, 1e-3, 4\n"
                "quantities = " + ", ".join(q for q in sweeps.QUANTITIES
                                            if sweeps._CASE_OF.get(q, "B") == "B") + "\n"),
    "solve_peanut": ("solve", _free("kind = smooth; center = 0.0, 0.0; cos_x = 0.7, 0.0, -0.3; "
                                    "sin_y = 1.3, 0.0, -0.3", _disk(1.5, radius=0.5))),
    "solve_thin": ("solve", _free(
        _THIN.format("0.17813, 0.04548", -0.02351587142537741, 0.026879620443502374),
        _THIN.format("0.0, 0.0", -0.018290122219737987, 0.0209063714560574))),
    **{f"solve_pair_{c}_{dy}": ("solve", _free(_disk(-c, dy), _disk(c, dy)))
       for c in (1.0005, 1.0000005) for dy in (0.0, 0.37)},
    **{f"solve_mirror{zero}": ("solve", _free(_ellipse(-1.0005, terms),
                                              _disk(0.5005, radius=0.5)))
       for zero, terms in (("", ""), ("_zero", "sin_x = 0.0; "))},
    **{f"solve_mirror_pair{zero}": ("solve", _free(_ellipse(-1.0005), _ellipse(1.0005, terms)))
       for zero, terms in (("", ""), ("_zero", "sin_x = 0.0; "))},
    "solve_lens_small_first": ("solve", _free(_disk(-1.0005), _LENS.format(1, 1, 2, 2))),
    "solve_lens_big_first": ("solve", _free(_disk(-1.0005), _LENS.format(2, 2, 1, 1))),
}


def _same(got, want, ceiling):
    """Equal text around the numbers, and each number within the rule."""
    return NUMBER.sub("#", got) == NUMBER.sub("#", want) and all(
        x == y or abs(float(x) - float(y)) <= max(RELATIVE * abs(float(y)), ceiling)
        for x, y in zip(NUMBER.findall(got), NUMBER.findall(want)))


def compare(name, got, want):
    """Assert that the CSV body ``got`` matches the recorded ``want``; the
    message names the file, row and key of each difference."""
    got_rows, want_rows = (list(csv.reader(text.splitlines())) for text in (got, want))
    header, problems = want_rows[0], []
    for i, (g, w) in enumerate(itertools.zip_longest(got_rows, want_rows)):
        if g is None or w is None:
            problems.append(f"{name}: row {i} ({(g or w)[0]}), "
                            + ("missing" if g is None else "extra"))
            continue
        for j in range(max(len(g), len(w))):
            a, b = (row[j] if j < len(row) else None for row in (g, w))
            column = header[j] if j < len(header) else f"column {j + 1}"
            exact = i == 0 or j == 0 or "mesh_nodes" in (w[0], column) \
                or column in ("passed", "error")
            ceiling = max([c for pattern, c in NOISE if re.search(pattern, f"{w[0]} {column}")],
                          default=0.0)
            if a is None or b is None or a != b and (exact or not _same(a, b, ceiling)):
                problems.append(f"{name}: row {i} ({w[0]}), key {column}: {a!r}, recorded {b!r}")
    assert not problems, "\n".join(problems)


def _recorded(name):
    return (GOLDEN / f"{name}.csv").read_text()


def _values(body):
    return dict(csv.reader(body.splitlines()))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, verify_ab):
    """Each run's (exit code, body), made once for the module."""
    done = {"verify_a": verify_ab["A"], "verify_b": verify_ab["B"]}

    def output(name):
        if name not in done:
            done[name] = run_cli(tmp_path_factory.mktemp(name), *RUNS[name])
        return done[name]
    return output


@pytest.mark.parametrize("name", ["verify_a", "verify_b", *RUNS])
def test_body_matches_the_record(outputs, name):
    code, body = outputs(name)
    assert code == 0
    compare(name, body, _recorded(name))


@pytest.mark.parametrize("c,limits", [(1.0005, (1e-9, 1e-9)), (1.0000005, (1e-9, 3e-9))])
def test_split_pair_matches_its_translate(outputs, c, limits):
    # the pair on the x-axis folds and splits; moved by (0, 0.37) it takes
    # the full path. At gap 1e-6 the full path's gap maximum is 1.7e-9 off
    # the closed form, the split path's 4.7e-10
    on_axis, moved = (_values(outputs(f"solve_pair_{c}_{dy}")[1]) for dy in (0.0, 0.37))
    for key, limit in zip(("potential_difference_21", "max_gap_gradient_12"), limits):
        assert float(on_axis[key]) == pytest.approx(float(moved[key]), rel=limit, abs=0), key


@pytest.mark.parametrize("name", ["solve_mirror", "solve_mirror_pair"])
def test_zero_term_keeps_the_bytes(outputs, name):
    # a zero sin_x term is the curve without it: the scene still folds, and
    # the pair still splits
    assert outputs(name)[1] == outputs(f"{name}_zero")[1]


def test_lens_in_either_disk_order(outputs):
    # the lens's arcs come from its corners in either order
    small, big = (_values(outputs(f"solve_lens_{order}_first")[1]) for order in ("small", "big"))
    for key in ("gap_distance_12", "mesh_nodes"):
        assert small[key] == big[key], key
    for key in ("potential_difference_21", "max_gap_gradient_12"):
        assert float(small[key]) == pytest.approx(float(big[key]), rel=1e-12, abs=0), key


def _decision(name, mesh):
    def joined(values):
        return " ".join("-" if v is None else str(int(v)) for v in values)
    return ",".join([name, *(joined(getattr(cm, key) for cm in mesh.curves)
                             for key in ("n", "mirrored", "partner")),
                     str(int(mesh.fold is not None)), str(int(mesh.split is not None))])


def _decisions(monkeypatch):
    """The decision record's body. The benchmark's meshes are those its
    workloads build at seed 1, every sweep row run in this process."""
    rows = [_decision(f"{group}/{p.id}", mesh_module.build_mesh(p.values[0]()))
            for group, scenes in (("grid", GRID_SCENES), ("folded", FOLDED_SCENES),
                                  ("unfolded", UNFOLDED_SCENES), ("split", SPLIT_SCENES),
                                  ("unsplit", UNSPLIT_SCENES)) for p in scenes]
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    workloads = importlib.import_module("workloads")
    built, build = [], nystrom.build_mesh
    monkeypatch.setattr(nystrom, "build_mesh", lambda *a: built.append(build(*a)) or built[-1])
    monkeypatch.setattr(sweeps, "_process_count", lambda rows: 1)
    for workload, run in workloads.WORKLOADS.items():
        run(1)
        rows += [_decision(f"{workload}-{k}", mesh) for k, mesh in enumerate(built)]
        built.clear()
    return "scene,nodes,mirrored,partner,fold,split\n" + "\n".join(rows) + "\n"


def test_decisions_match_the_record(monkeypatch):
    compare("decisions", _decisions(monkeypatch), _recorded("decisions"))


SOLUTION = "key,value\nconstant_1,0.25\npotential_difference_21,0.5\n"
VERIFY = "check,spread,passed,ratios,detail\nfirst,1.5,1,0.5;0.25,a, b\n"


@pytest.mark.parametrize("recorded,got,named", [
    (SOLUTION, SOLUTION.replace(",0.5", ",0.5000000005"),
     "row 2 (potential_difference_21), key value"),
    (SOLUTION, SOLUTION.replace("_21", "_12"), "row 2 (potential_difference_21), key key"),
    (VERIFY, VERIFY.replace(",1,", ",0,"), "row 1 (first), key passed"),
    (SOLUTION, SOLUTION + "constant_2,0.5\n", "row 3 (constant_2), extra"),
], ids=["moved", "renamed", "verdict", "extra_row"])
def test_comparer_fails(recorded, got, named):
    # each fault fails the comparison, which names the file, row and key
    compare("sample", recorded, recorded)
    with pytest.raises(AssertionError, match=re.escape(f"sample: {named}")):
        compare("sample", got, recorded)
