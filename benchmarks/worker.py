"""One fresh benchmark process: set up, then run one workload.

    python3 benchmarks/worker.py setup
    python3 benchmarks/worker.py run WORKLOAD SEED SECONDS TRACE

Both print one JSON object on their last line. ``run.py`` starts these
processes with ``src`` on the import path and the BLAS thread count
pinned; run it rather than this file.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # before any import the set-up time counts

import json       # noqa: E402
import resource   # noqa: E402
import statistics  # noqa: E402
import sys        # noqa: E402
import warnings   # noqa: E402


def set_up() -> float:
    """Import the package and push one warm-up scene through it; returns
    the seconds since the process started."""
    import workloads
    workloads.warm_up()
    return time.perf_counter() - T_START


def run(name: str, seed: int, seconds: float, trace: bool, points=None) -> dict:
    setup_s = set_up()
    import neckfield as nf
    import spans
    import workloads
    workload = workloads.WORKLOADS[name]
    warnings.simplefilter("ignore", nf.ScaleRegimeWarning)

    def run_pass():
        return workload(seed, points) if points else workload(seed)

    # Passes repeat while another one fits in the time asked for; there is
    # always at least one. Peak memory is read after the first pass, so it
    # does not depend on how many passes fit.
    passes, walls = [], []
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass())
        walls.append(time.perf_counter() - t0)
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() + statistics.mean(walls) > t_end:
            break

    out = {"setup_s": setup_s, "pass_s": walls, "peak_rss_mb": peak_rss_mb,
           "scene_s": [s for p in passes for s in p.scene_s],
           "failed": sum(p.failed for p in passes),
           "accuracy": passes[0].accuracy,
           "checks": [[n, bool(ok)] for p in passes for n, ok in p.checks]}
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = run_pass()
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out["checks"] += [[n, bool(ok)] for n, ok in traced.checks]
        layers = tracer.report(traced_s)
        layers["trace.overhead_s"] = traced_s - statistics.median(walls)
        out["per_layer"] = layers
    out["env"] = environment()
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}"}


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 1:
        result = {"setup_s": set_up()}
    elif argv[:1] == ["run"] and len(argv) == 5:
        result = run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
