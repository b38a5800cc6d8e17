"""Self-tests of the benchmark harness, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest clockbench``.
"""
from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import clocklab  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

TINY_LAB_CONFIG = "bch_points=3\nbch_su2_j=0.5,2.0\nph_sizes=10,20\n"


def tiny_workloads(tmp_path: pathlib.Path):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_LAB_CONFIG)
    return [
        workloads.LabClassical(5, tmp_path, lab_args=["--config", str(config)],
                               classical={"js": (5.0, 10.0), "quadrature_max_j": 5.0}),
        workloads.LargeClock(5, tmp_path, su2_js=(2.0, 3.0), h4_means=(8.0,)),
    ]


def traced_run(workload):
    return worker.run_passes(workload, spans.Tracer(clocklab), 0.0, True,
                             workloads.KNOWN_FAILURES)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {w.name: (w, traced_run(w)) for w in tiny_workloads(tmp)}


def test_traced_run_alternates_and_all_checks_pass(runs):
    for _, run in runs.values():
        assert [p["traced"] for p in run["passes"]] == [False, True, False]
        summary = worker.check_summary([c for p in run["passes"] for c in p["checks"]],
                                       workloads.KNOWN_FAILURES)
        assert summary["attempted"] > 0
        assert summary["failed_by_name"] == {}


def test_self_times_sum_to_traced_wall(runs):
    for _, run in runs.values():
        traced = [p for p in run["passes"] if p["traced"]][0]
        recorded = run["spans"][0]
        roots = [s for s in recorded if s[3] == -1]
        assert [s[0] for s in roots] == ["pass"]
        total_self = sum(spans.self_times(recorded))
        assert total_self == pytest.approx(roots[0][2] - roots[0][1], rel=1e-9, abs=1e-9)
        assert total_self == pytest.approx(traced["wall"], rel=0.01, abs=1e-3)


def _profiled_calls(workload) -> tuple[Counter, Counter]:
    """Calls of public clocklab functions seen by the profiler, and spans recorded."""
    modules = {f"clocklab.{m}": m for m in spans.MODULES}
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        short = modules.get(frame.f_globals.get("__name__"))
        if (short and code.co_qualname == code.co_name
                and not code.co_name.startswith(("_", "<"))):
            calls[f"{short}.{code.co_name}"] += 1

    tracer = spans.Tracer(clocklab)
    tracer.install()
    sys.setprofile(profile)
    try:
        workload.run_pass(tracer)
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    recorded = Counter(s[0] for s in tracer.spans)
    return calls, recorded


def test_every_library_call_is_wrapped(tmp_path):
    for workload in tiny_workloads(tmp_path):
        calls, recorded = _profiled_calls(workload)
        assert calls, workload.name
        library = Counter({k: v for k, v in recorded.items()
                           if k.split(".")[0] in spans.MODULES})
        assert library == calls, workload.name


def test_uninstall_restores_every_namespace(tmp_path):
    from clocklab import cli, gcs
    before = (gcs.displace, cli.displace, clocklab.displace, dict(cli._RUNNERS))
    tracer = spans.Tracer(clocklab)
    tracer.install()
    assert cli.displace is gcs.displace is clocklab.displace is not before[0]
    assert cli._RUNNERS["bch-check"] is not before[3]["bch-check"]
    tracer.uninstall()
    assert (gcs.displace, cli.displace, clocklab.displace, dict(cli._RUNNERS)) == before


def test_every_per_layer_metric_is_produced(runs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set()
    for _, run in runs.values():
        produced |= set(worker.median_layers(run["layers"], run["passes"]))
    # the su2 scale names of the full sizes, not of the tiny ones
    produced |= {f"scale.su2_j{j}_s" for j in (40, 160, 400)}
    produced |= {"scale.h4_n200_s"} | {f"scale.cls_j{j}_s" for j in (10, 20, 40)}
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing


def test_workloads_are_the_ones_benchmark_json_names():
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_injected_out_of_tolerance_result_raises_fail_frac(tmp_path, monkeypatch):
    workload = workloads.LargeClock(5, tmp_path, su2_js=(2.0,), h4_means=())
    clean = worker.check_summary(workload.run_pass(spans.Tracer(clocklab)), workloads.KNOWN_FAILURES)
    assert clean["pass_frac"] == 1.0

    rate = clocklab.quantum_flow_rate
    monkeypatch.setattr(clocklab, "quantum_flow_rate", lambda *a, **k: rate(*a, **k) + 1e-6)
    broken = worker.check_summary(workload.run_pass(spans.Tracer(clocklab)), workloads.KNOWN_FAILURES)
    assert broken["pass_frac"] < clean["pass_frac"]
    assert broken["unexpected_by_name"] == {"flow-rate-match-su2-j2": 1}
    assert broken["margins"]["flow-rate-match-su2-j2"] > 1.0


def test_known_failures_do_not_make_a_result_incorrect():
    checks = [workloads.Check("cartan-su2-j400", False, 58.0),
              workloads.Check("cartan-su2-j40", True, 0.5)]
    summary = worker.check_summary(checks, workloads.KNOWN_FAILURES)
    assert summary["pass_frac"] == 0.5
    assert summary["failed_by_name"] == {"cartan-su2-j400": 1}
    assert summary["unexpected_by_name"] == {}


def test_a_pass_that_raises_is_an_unexpected_failure(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(clocklab, "build_psi", boom)
    workload = workloads.LargeClock(5, tmp_path, su2_js=(2.0,), h4_means=())
    run = worker.run_passes(workload, spans.Tracer(clocklab), 0.0, False,
                            workloads.KNOWN_FAILURES)
    assert len(run["passes"]) == 1
    summary = worker.check_summary(run["passes"][0]["checks"], workloads.KNOWN_FAILURES)
    assert summary["unexpected_by_name"] == {"error/FloatingPointError": 1}
