"""Benchmark of the neckfield pipeline on three verified workloads.

    python3 benchmarks/run.py --workload pair_oracle --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload caseD_sweep --seed 1 --seconds 30 --trace 1 --out r.jsonl

Run from the repository root. The workload runs in a fresh process with
``src`` on the import path and the BLAS thread count pinned; set-up time is
sampled in further fresh processes. Every metric is printed with its unit,
one line each, followed by the environment, the accuracy figures the answer
was checked with, and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. ``--out`` appends the full record to a JSON-lines file that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up samples per run, the workload's own process included; setup_s is
# their median
SETUP_SAMPLES = 3
# the package's own code runs in one thread; one BLAS thread keeps the
# factorizations from competing with whatever else uses the other cores
BLAS_THREADS = 1
# every run, its set-up processes included, ends within this many seconds
RUN_LIMIT_S = 175


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result; raises
    if the process fails or is still running at the deadline (it is then
    killed and waited for)."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def untraced_metrics(result: dict, setup_samples: list[float]) -> dict[str, float]:
    """Whole-run metrics of the untraced passes. scene_s_p50 is printed and
    recorded but not in BENCHMARK.json: a run of caseD_sweep is one pass, so
    its middle scene is a single sample, too noisy to hold to a bound."""
    return {"setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(result["pass_s"]),
            "scene_s_p50": statistics.median(result["scene_s"]),
            "peak_rss_mb": result["peak_rss_mb"]}


def units(spec: dict) -> dict[str, str]:
    """Unit of every metric a run prints; accuracy figures are ratios."""
    out = {s["name"]: s["unit"] for s in spec["end_to_end"] + spec["per_layer"]}
    out["scene_s_p50"] = "s"
    return out


def select(values: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """The metrics BENCHMARK.json names, with their units; a name the run
    did not measure is an error, never a silent zero."""
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "neckfield" / "__init__.py").is_file():
        print(f"no neckfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setup = [run_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    result = run_child(["run", args.workload, str(args.seed), str(args.seconds),
                        str(args.trace)], deadline)
    setup.append(result["setup_s"])

    measured = untraced_metrics(result, setup)
    measured.update(result.get("per_layer", {}))
    metrics = select(measured, spec["per_layer" if args.trace else "end_to_end"])
    failed_checks = [name for name, ok in result["checks"] if not ok]
    env = dict(result["env"], seed=args.seed, git_sha=git_sha(), nproc=os.cpu_count(),
               blas_threads=BLAS_THREADS)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(result['pass_s'])}  "
          f"scenes {len(result['scene_s'])}")
    unit = units(spec)
    for name, value in measured.items():
        print(f"  {name:30s} {value:.6g} {unit[name]}")
    for name, value in result["accuracy"].items():
        print(f"  accuracy.{name:21s} {value:.6g} 1")
    for name in failed_checks:
        print(f"  CHECK FAILED: {name}")
    print("env " + json.dumps(env, sort_keys=True))

    correct = not failed_checks
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
                  "pass_s": result["pass_s"], "scenes": len(result["scene_s"]),
                  "env": env, "correct": correct, "metrics": measured,
                  "accuracy": result["accuracy"], "failed_checks": failed_checks}
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(result["scene_s"]),
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
