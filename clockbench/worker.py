"""One workload run in a fresh interpreter.

Started by ``run.py`` with the environment it inherited.  Imports clocklab
from the checkout's ``src``, runs passes of the workload until the next one
would overrun ``--seconds`` (at least three), and prints one JSON line: pass
timings, check outcomes by name, the environment and, with ``--trace 1``,
per-layer numbers from the traced passes (untraced and traced passes
alternate, so their difference is the tracing overhead).  Spans of the
traced passes are written to ``--spans-out``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

from spans import Tracer, span_stats

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, read through ctypes."""
    import numpy
    libs = pathlib.Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(workload) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "inherited": {name: os.environ.get(name) for name in THREAD_VARS},
        "openblas_threads": openblas_threads(),
        "dims": workload.dims,
        "inputs": workload.inputs,
    }


def check_summary(checks, known) -> dict:
    """Counts by name; a failure outside ``known`` makes the result incorrect."""
    failed: dict[str, int] = {}
    margins: dict[str, float] = {}
    for check in checks:
        if not check.passed:
            failed[check.name] = failed.get(check.name, 0) + 1
        if check.margin is not None:
            margins[check.name] = max(margins.get(check.name, -float("inf")), check.margin)
    n_failed = sum(failed.values())
    return {
        "attempted": len(checks),
        "failed": n_failed,
        "pass_frac": (len(checks) - n_failed) / len(checks) if checks else 0.0,
        "failed_by_name": failed,
        "unexpected_by_name": {k: v for k, v in failed.items() if k not in known},
        "worst_margin": max(margins.values(), default=0.0),
        "margins": margins,
    }


def run_passes(workload, tracer, seconds: float, trace: bool, known) -> dict:
    from workloads import Check

    passes, layers, spans_out = [], [], []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        crashed = False
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with tracer.span("pass"):
                checks = workload.run_pass(tracer)
        except Exception as exc:  # a library error is a failed pass, reported by name
            traceback.print_exc()
            checks = [Check(f"error/{type(exc).__name__}", False, None)]
            crashed = True
        finally:
            wall1, cpu1 = time.perf_counter(), time.process_time()
            tracer.uninstall()
        passes.append({"wall": wall1 - wall0, "cpu": cpu1 - cpu0, "traced": traced,
                       "checks": checks})
        if traced:
            summary = check_summary(checks, known)
            stats = span_stats(tracer.spans)
            stats.update({
                "classical.table_bytes": tracer.table_bytes,
                "checks.attempted": summary["attempted"],
                "checks.failed": summary["failed"],
                "checks.worst_margin": summary["worst_margin"],
            })
            layers.append(stats)
            spans_out.append(tracer.spans)
        if crashed:
            break
        elapsed = wall1 - start
        estimate = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
    return {"passes": passes, "layers": layers, "spans": spans_out}


def median_layers(layers: list[dict], passes: list[dict]) -> dict:
    names = sorted({name for stats in layers for name in stats})
    out = {name: statistics.median(stats.get(name, 0.0) for stats in layers) for name in names}
    traced = [p["wall"] for p in passes if p["traced"]]
    plain = [p["wall"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain)
                               if traced and plain else 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import clocklab
    if not pathlib.Path(clocklab.__file__).resolve().is_relative_to(SRC):
        print(f"clocklab imported from {clocklab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import KNOWN_FAILURES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, pathlib.Path(args.workdir))
    tracer = Tracer(clocklab)
    run = run_passes(workload, tracer, args.seconds, bool(args.trace), KNOWN_FAILURES)
    passes = run["passes"]
    plain = [p for p in passes if not p["traced"]]
    result = {
        "env": environment(workload),
        "checks": check_summary([c for p in passes for c in p["checks"]], KNOWN_FAILURES),
        "passes": [{k: p[k] for k in ("wall", "cpu", "traced")} for p in passes],
        "wall_s": statistics.median(p["wall"] for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        result["layers"] = median_layers(run["layers"], passes)
        if args.spans_out:
            pathlib.Path(args.spans_out).write_text(json.dumps(run["spans"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
