"""frozenplanet benchmark: time to certified result, per workload.

    python3 bench/run.py --workload pair-mean --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  The workload is set up several times
(each sample: ``import frozenplanet`` in a fresh interpreter plus building
the inputs in this one), then run repeatedly for ``--seconds``; every run
computes and checks all of its results.  The last line of stdout is the
result JSON: with ``--trace 0`` the end-to-end metrics, with ``--trace 1``
the per-layer metrics of one extra traced run.  The line before it is a
report with the provenance, samples and any failed checks.  Workloads and
metrics are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("oneloop-cli", "pair-mean", "pair-homotopy", "lc-roundtrip")
SETUP_REPEATS = 3
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import frozenplanet; print(time.perf_counter() - t0)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def time_import():
    """Seconds for ``import frozenplanet`` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip())


def measure(run_fn, inputs, seconds, errors):
    """Start passes k = 0, 1, ... until ``seconds`` have passed."""
    walls, cpus, checks, numbers = [], [], [], {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        run_checks, run_numbers = guarded(run_fn, inputs, len(walls), errors)
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        checks += run_checks
        numbers.update(run_numbers)
    return walls, cpus, checks, numbers


def guarded(run_fn, inputs, k, errors):
    """Pass k; a library error fails the pass instead of ending the benchmark."""
    try:
        return run_fn(inputs, k)
    except errors as exc:
        return [(f"raised {type(exc).__name__}: {exc}", False)], {}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def blas_threads(numpy):
    """OpenBLAS's own thread count, or None where it cannot be asked."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """The checked-out commit, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values)}


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(rec, numbers, cpu, wall, traced_wall, failed_frac):
    """The ``--trace 1`` metrics: the traced run's layers plus run-wide figures."""
    import tracer
    import workloads

    metrics = {name: metric(v, u) for name, (v, u) in tracer.layer_metrics(rec).items()}
    for name in workloads.ACCURACY_METRICS:
        metrics[name] = metric(*numbers.get(name, (0.0, "abs")))
    metrics["process.cpu_s"] = metric(cpu, "s")
    metrics["process.cpu_per_wall"] = metric(cpu / wall, "ratio")
    metrics["trace.overhead_s"] = metric(traced_wall - wall, "s")
    metrics["failed_frac"] = metric(failed_frac, "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "frozenplanet" / "__init__.py").is_file():
        print(f"bench: no frozenplanet package under {SRC}", file=sys.stderr)
        return 2
    import_s = [time_import() for _ in range(SETUP_REPEATS)]
    sys.path.insert(0, str(SRC))
    import frozenplanet

    if Path(frozenplanet.__file__).resolve().parent != SRC / "frozenplanet":
        print(f"bench: imported frozenplanet from {frozenplanet.__file__}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    setup_fn, run_fn = workloads.WORKLOADS[args.workload]
    errors = frozenplanet.errors.FrozenPlanetError
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=BENCH / ".work")
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = setup_fn(args.seed, workdir)
            build_s.append(time.perf_counter() - t0)
        walls, cpus, checks, numbers = measure(run_fn, inputs, args.seconds, errors)
        if args.trace:
            rec = tracer.Tracer()
            t0 = time.perf_counter()
            with rec.installed(frozenplanet):
                traced_checks, numbers = guarded(run_fn, inputs, 0, errors)
            traced_wall = time.perf_counter() - t0
            checks += traced_checks
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = [a + b for a, b in zip(import_s, build_s)]
    wall = statistics.median(walls)
    failed = [label for label, ok in checks if not ok]
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "wall_s": summary(walls),
        "cpu_s": summary(cpus),
        "setup_s": summary(setup_s),
        "import_s": import_s,
        "build_s": build_s,
        "checks_attempted": len(checks),
        "failed_checks": failed,
    }
    if args.trace:
        metrics = per_layer(
            rec, numbers, statistics.median(cpus), wall, traced_wall, len(failed) / len(checks)
        )
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        with gzip.open(spans_path, "wt") as fh:
            for name, start, end, parent in rec.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
