"""Benchmark of perch's path from initial data to Riemann-Hilbert data.

    python3 perfbench/run.py --workload {spectra,rhdata,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; perch is imported from ./src.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  A traced run also writes its
spans to perfbench/out/.  BLAS is pinned to one thread before numpy
loads, so the load comes from this one process.
"""

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("spectra", "rhdata", "sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_perch():
    """Import perch from this checkout's src and return the seconds taken.

    A cold import reads numpy, scipy and perch from disk once, so its
    time is printed as a detail, not counted in setup_s."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import perch.assembly, perch.branch, perch.cauchy  # noqa: E401,F401
    import perch.initial, perch.scattering  # noqa: E401,F401
    dt = time.perf_counter() - t0
    src = Path(perch.__file__).resolve().parent
    if src != ROOT / "src" / "perch":
        sys.exit(f"perch was imported from {src}, not from {ROOT / 'src'}")
    return dt


def main(argv=None):
    args = parse(argv)
    import_s = import_perch()
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](args.seed)

    @contextmanager
    def phase(name):
        # only a traced run records spans, and only inside its phases
        if tracer is None:
            yield
            return
        with spans.instrument(tracer), tracer.span(name):
            yield

    setups = []
    for _ in range(workloads.N_SETUPS):
        with phase("setup"):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
    setup_s = statistics.median(setups)
    if hasattr(wl, "build"):
        with phase("build"):
            t0 = time.perf_counter()
            wl.build()
            setup_s += time.perf_counter() - t0

    timed = []
    for _ in range(workloads.rounds_for(args.workload, args.seconds)):
        with phase("round"):
            timed.append(wl.round())
        wl.check_round()
    details = wl.finish()
    details["import_s"] = (import_s, "s")
    for name, (value, unit) in details.items():
        print(f"detail {args.workload} {name} = {value:.6g} {unit}",
              file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "round_s": (statistics.median(timed), "s"),
            "check_digits": (min(v for v, u in details.values()
                                 if u == "digits"), "digits")}
        out = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        out = spans.layer_metrics(tracer, args.workload,
                                  wl.jump_sets_per_round)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    for what in wl.failures:
        print(f"failed: {what}", file=sys.stderr)
    for what in wl.problems:
        print(f"check failed: {what}", file=sys.stderr)
    print(json.dumps({"correct": not wl.problems, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
