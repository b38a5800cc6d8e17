"""clocklab benchmark: time to a verified result on two workloads.

Usage, from the root of a checkout:

    python3 clockbench/run.py --workload lab-classical --seed 1 --seconds 55 --trace 0
    python3 clockbench/run.py --workload all --seed 1 --seconds 55

Each workload runs in one fresh interpreter (``worker.py``) with the
environment this process inherited: no BLAS thread variables are set and
no ``--jobs`` is passed.  Set-up time is the median of several fresh
interpreters timed from start until ``import clocklab`` completes.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it carries the per-layer
metrics instead.  Lines before it name the environment and every failed
check.  Full records go to ``.clockbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".clockbench"
WORKLOADS = ("lab-classical", "large-clock")
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170.0

_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import clocklab; "
          "print(time.monotonic())")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def setup_seconds(probes: int = SETUP_PROBES) -> float:
    """Median time from interpreter start until ``import clocklab`` completes."""
    times = []
    for _ in range(probes):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], capture_output=True,
                              text=True, timeout=60, check=False)
        if done.returncode != 0:
            raise BenchError(f"import clocklab failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = OUT / "work" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir), "--spans-out", str(OUT / f"spans-{tag}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"{workload}: worker exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    """One workload run: the result object plus the full record behind it."""
    record = run_worker(workload, seed, seconds, trace)
    if trace:
        values = record["layers"]
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_seconds(), "wall_s": record["wall_s"],
                  "cpu_s": record["cpu_s"], "peak_rss_mb": record["peak_rss_mb"],
                  "pass_frac": record["checks"]["pass_frac"]}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    checks = record["checks"]
    result = {
        "correct": not checks["unexpected_by_name"] and checks["attempted"] > 0,
        "attempted": checks["attempted"],
        "failed": sum(checks["unexpected_by_name"].values()),
        "metrics": metrics,
    }
    record["result"] = result
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return record


def report(workload: str, record: dict) -> None:
    env = record["env"]
    print(f"[{workload}] env python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} nproc {env['nproc']} openblas_threads "
          f"{env['openblas_threads']} inherited {json.dumps(env['inherited'])}")
    print(f"[{workload}] dims {json.dumps(env['dims'])} inputs {json.dumps(env['inputs'])}")
    checks = record["checks"]
    print(f"[{workload}] checks attempted {checks['attempted']} failed "
          f"{sum(checks['failed_by_name'].values())} passes {len(record['passes'])}")
    for name, count in sorted(checks["failed_by_name"].items()):
        kind = "UNEXPECTED" if name in checks["unexpected_by_name"] else "known"
        margin = checks["margins"].get(name)
        shown = f" margin {margin:.3g}" if margin is not None else ""
        print(f"[{workload}]   failed {name} x{count} ({kind}){shown}")
    for name, metric in record["result"]["metrics"].items():
        print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clocklab" / "__init__.py").is_file():
        print(f"no clocklab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        OUT.mkdir(exist_ok=True)
        records = {}
        for name in names:
            records[name] = measure(name, args.seed, args.seconds, args.trace, spec)
            report(name, records[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    results = [r["result"] for r in records.values()]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in records.items()
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
