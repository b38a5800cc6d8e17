"""The two clockbench workloads, with their gates pinned here.

Each workload draws its inputs from the seed once, then ``run_pass`` does
one full pass of library work and returns the checks it made, as
``Check(name, passed, margin)`` with margin = residual / tolerance (None
for a check without a tolerance).  ``tracer.span`` marks the harness's own
spans; it records nothing while tracing is off.  Sizes are fixed by the benchmark; tests
pass smaller ones.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import shutil
from typing import NamedTuple

import numpy as np

import clocklab
from clocklab import cli

# The library's default tolerances, copied here rather than read from the
# CLI so that a later library change cannot move the gate.
TOL = {
    "cartan": 1e-12,
    "slope": 0.1,
    "propagator": 1e-9,
    "chi2_drift": 1e-12,
    "phase_interior": 1e-10,
    "flow_match": 1e-10,
    "beta_norm": 1e-6,
    "precs": 1e-8,
    "identity_su2": 1e-8,
    "chi2_identity": 1e-10,
}

# Checks that fail on the seed library.  They are counted in pass_frac and
# named in every result; they do not make a result incorrect.
KNOWN_FAILURES = frozenset({
    "flow-rate-match-su2-j400",   # unwrap aliasing: |q - c| = 4.5e-3
    "flow-rate-match-h4-mean200",  # unwrap aliasing: |q - c| = 1.1e-4
    "cartan-su2-j160",            # absolute 1e-12 bound: 7.3e-12
    "cartan-su2-j400",            # absolute 1e-12 bound: 5.8e-11
})


class Check(NamedTuple):
    name: str
    passed: bool
    margin: float | None


def _gate(name: str, residual: float, tol: float) -> Check:
    return Check(name, bool(residual <= tol), float(residual) / tol)


def _matched_psi(clock, rho: float, width: float):
    h_system = clocklab.resonant_ladder(clock, clock.dim)
    match = clocklab.match_spectra(clock.h_c, h_system, tol=1e-9 * max(clock.epsilon, 1.0))
    coeff = clocklab.gaussian_profile(match, center=clocklab.energy_of_rho(clock, rho),
                                      width=width)
    return h_system, clocklab.build_psi(match, coeff)


class LargeClock:
    """Conditional dynamics and phase sector at large clocks."""

    name = "large-clock"
    WIDTH = 0.2
    PHI_POINTS = 25

    def __init__(self, seed: int, workdir: pathlib.Path,
                 su2_js=(40.0, 160.0, 400.0), h4_means=(200.0,)):
        rng = np.random.default_rng(seed)
        su2_rho = float(rng.uniform(0.40, 0.50))
        # the h4 probe sits on ladder level h4_level * mean_n (rho = 9.5 .. 10.5 at 200)
        h4_level = float(rng.uniform(0.45, 0.55))
        self.phi = float(rng.uniform(0.0, 2 * np.pi))
        self.cases = [(f"su2-j{j:g}", f"scale.su2_j{j:g}", su2_rho,
                       lambda j=j: clocklab.intensive_su2_clock(j)) for j in su2_js]
        self.cases += [(f"h4-mean{m:g}", f"scale.h4_n{m:g}", float(np.sqrt(h4_level * m)),
                        lambda m=m: clocklab.intensive_h4_clock(m)) for m in h4_means]
        self.inputs = {"su2_rho": su2_rho, "h4_level": h4_level, "phi": self.phi}
        self.dims = {label: make().dim for label, _, _, make in self.cases}

    def run_pass(self, tracer) -> list[Check]:
        checks = []
        phis = np.linspace(0.0, 2 * np.pi, self.PHI_POINTS)
        for label, scale, rho, make in self.cases:
            with tracer.span(scale):
                clock = make()
                h_system, psi = _matched_psi(clock, rho, self.WIDTH)
                res = clocklab.schrodinger_residual(psi, clock, h_system, rho, self.phi)
                prop = clocklab.propagator_deviation(psi, clock, h_system, rho, phis)
                rate_err = abs(clocklab.quantum_flow_rate(psi, clock, h_system, rho)
                               - clocklab.classical_flow_rate(clock))
                comm = clocklab.commutator_check(clock, clocklab.build_phase_operator(clock))
                cartan = clocklab.verify_cartan(clock.rep, tol=TOL["cartan"])
            cartan_res = (cartan.max_residual_exact_subspace if clock.rep.truncated
                          else cartan.max_residual)
            checks += [
                _gate(f"richardson-slope-{label}", abs(res.richardson_slope - 2.0), TOL["slope"]),
                _gate(f"propagator-deviation-{label}", prop.max_deviation, TOL["propagator"]),
                _gate(f"chi2-drift-{label}", prop.chi2_drift, TOL["chi2_drift"]),
                _gate(f"flow-rate-match-{label}", rate_err, TOL["flow_match"]),
                _gate(f"interior-commutator-{label}", comm.interior_residual,
                      TOL["phase_interior"]),
                _gate(f"cartan-{label}", cartan_res, TOL["cartan"]),
            ]
        return checks


class ClassicalLimit:
    """Joint coherent table and manifold quadratures at growing spin."""

    name = "classical-limit"
    WIDTH = 0.18
    THRESHOLD = 1e-6

    def __init__(self, seed: int, workdir: pathlib.Path,
                 js=(10.0, 20.0, 40.0), quadrature_max_j=20.0):
        rng = np.random.default_rng(seed)
        self.rho = float(rng.uniform(0.50, 0.60))
        self.phi = float(rng.uniform(0.0, 2 * np.pi))
        self.js = tuple(js)
        self.quadrature_max_j = quadrature_max_j
        self.inputs = {"rho": self.rho, "phi": self.phi}
        self.dims = {f"su2-j{j:g}": int(round(2 * j)) + 1 for j in self.js}

    def run_pass(self, tracer) -> list[Check]:
        checks, reports = [], []
        for j in self.js:
            label = f"j{j:g}"
            with tracer.span(f"scale.cls_j{j:g}"):
                clock = clocklab.intensive_su2_clock(j)
                _, psi = _matched_psi(clock, self.rho, self.WIDTH)
                beta = clocklab.beta_distribution(psi, clock, clock, threshold=self.THRESHOLD)
                reports.append(clocklab.classical_constraint_check(beta, clock, clock))
                checks.append(_gate(f"beta-normalization-{label}",
                                    abs(beta.normalization - 1.0), TOL["beta_norm"]))
                del beta
                checks.append(_gate(f"chi2-density-identity-{label}",
                                    clocklab.chi2_identity_residual(psi, clock, self.rho,
                                                                    self.phi),
                                    TOL["chi2_identity"]))
                if j <= self.quadrature_max_j:
                    precs = clocklab.precs_decomposition_check(
                        psi, clock, n_polar=int(2 * j + 2), n_azim=clock.dim)
                    nodes = int(round(4 * j + 4))
                    ident = clocklab.identity_resolution_check(
                        clocklab.build_su2_rep(j), n_polar=nodes, n_azim=nodes)
                    checks.append(_gate(f"conditional-decomposition-{label}", precs,
                                        TOL["precs"]))
                    checks.append(_gate(f"identity-resolution-{label}", ident,
                                        TOL["identity_su2"]))
        support = [r.support_max for r in reports]
        checks.append(Check("support-mismatch-decreasing",
                            all(a > b for a, b in zip(support, support[1:])), None))
        checks.append(Check("off-support-control",
                            all(r.complement_max > r.support_max for r in reports), None))
        return checks


# Keys of a summary.json check that hold the number compared with its
# tolerance, in the order they are looked up.
_RESIDUAL_KEYS = ("residual", "max_difference", "worst_error", "deviation", "drift",
                  "worst_deviation", "difference")


def summary_margin(check: dict) -> float | None:
    """Residual / tolerance of one CLI check, or None when it has no tolerance."""
    tol = check.get("tolerance")
    if not isinstance(tol, (int, float)):
        return None
    if "richardson_slope" in check:
        return abs(check["richardson_slope"] - 2.0) / tol
    if "expected" in check:
        return abs(check["rate"] - check["expected"]) / tol
    if "ratio" in check:
        return abs(check["ratio"] - 1.0) / tol
    if "worst_slack" in check:
        return -check["worst_slack"] / tol
    for key in _RESIDUAL_KEYS:
        if key in check:
            return abs(check[key]) / tol
    return None


class LabAll:
    """The one-command path: ``clocklab all`` in process, default configuration."""

    name = "lab-all"
    ARTIFACTS = ("data.csv", "summary.json", "config.echo")

    def __init__(self, seed: int, workdir: pathlib.Path, extra_args=()):
        self.seed = seed
        self.workdir = workdir
        self.extra_args = list(extra_args)
        self.inputs = {"cli_seed": seed}
        self.dims = {}
        self.reference: dict[str, str] | None = None

    def run_pass(self, tracer) -> list[Check]:
        # the output root is part of the echoed configuration, so every pass uses the same one
        out = self.workdir / "lab"
        argv = ["all", "--out", str(out), "--seed", str(self.seed)] + self.extra_args
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        checks = [Check("lab-exit-code", code == 0, None)]
        digests = {}
        for run_dir in sorted(out.glob("*/*")):
            sub = run_dir.parent.name
            summary = json.loads((run_dir / "summary.json").read_text())
            checks += [Check(f"{sub}/{c['check_id']}", bool(c["passed"]), summary_margin(c))
                       for c in summary["checks"]]
            for artifact in self.ARTIFACTS:
                data = (run_dir / artifact).read_bytes()
                digests[f"{sub}/{artifact}"] = hashlib.sha256(data).hexdigest()
            if sub in ("verify-algebra", "bch-check") and sub not in self.dims:
                with open(run_dir / "data.csv", newline="") as fh:
                    self.dims[sub] = [int(row["dim"]) for row in csv.DictReader(fh)]
        # the first pass sets the reference; later passes must match it byte for byte
        if self.reference is None:
            self.reference = digests
        else:
            checks += [Check(f"determinism/{key}", digests.get(key) == ref, None)
                       for key, ref in sorted(self.reference.items())]
        shutil.rmtree(out, ignore_errors=True)
        return checks


class LabClassical:
    """``clocklab all`` at defaults, then the classical-limit sweep, in one pass."""

    name = "lab-classical"

    def __init__(self, seed: int, workdir: pathlib.Path, lab_args=(), classical=None):
        self.parts = (LabAll(seed, workdir, extra_args=lab_args),
                      ClassicalLimit(seed, workdir, **(classical or {})))

    @property
    def inputs(self) -> dict:
        return {k: v for part in self.parts for k, v in part.inputs.items()}

    @property
    def dims(self) -> dict:
        return {k: v for part in self.parts for k, v in part.dims.items()}

    def run_pass(self, tracer) -> list[Check]:
        return [check for part in self.parts for check in part.run_pass(tracer)]


WORKLOADS = {cls.name: cls for cls in (LabClassical, LargeClock)}
