"""Acceptance criteria for the package, one test per numbered claim.

Each test pins the tolerance and the wall-clock budget for one headline
property; the library-level details live in the per-module test files.
"""

import json
import pathlib
import time

import numpy as np
import pytest

import clocklab
from clocklab import cli
from clocklab.algebra import (
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
    verify_cartan,
)
from clocklab.classical import (
    beta_distribution,
    classical_constraint_check,
    classical_flow_rate,
    hamilton_check,
    pullback_two_form,
)
from clocklab.dynamics import (
    convergence_sweep,
    energy_of_rho,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    stationary_experiment,
)
from clocklab.gcs import (
    clock_symbol_numeric,
    coherent_vector,
    displace,
    identity_resolution_check,
)
from clocklab.phase import (
    build_phase_operator,
    classical_phase_expectations,
    commutator_check,
    small_phi_energy_time,
    uncertainty_grid_audit,
)


def gaussian_state(j, rho, width):
    clock = intensive_su2_clock(j)
    h_system = resonant_ladder(clock, clock.dim)
    psi = clocklab.gaussian_state(clock, h_system, energy_of_rho(clock, rho), width)
    return clock, h_system, psi


def test_criterion_01_algebra_soundness():
    """Cartan residuals < 1e-12: spin up to j = 50, oscillator up to 256."""
    start = time.monotonic()
    for j in (0.5, 1.0, 2.5, 10.0, 25.0, 50.0):
        report = verify_cartan(build_su2_rep(j), tol=1e-12)
        assert report.max_residual < 1e-12, f"su2 j={j}"
    for n_cut in (16, 64, 256):
        report = verify_cartan(build_h4_rep(n_cut), tol=1e-12)
        assert report.max_residual_exact_subspace < 1e-12, f"h4 n={n_cut}"
    assert time.monotonic() - start < 10.0


def test_criterion_02_bch_equivalence():
    """Exponential map equals closed-form amplitudes on a 20x20 label grid."""
    start = time.monotonic()
    rhos = np.linspace(0.02, 0.7, 20)
    phis = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    reps = [build_su2_rep(j) for j in (0.5, 2.0, 10.0, 25.0)]
    reps.append(build_h4_rep(48))
    for rep in reps:
        sub = rep.valid_dim if rep.truncated else rep.dim
        worst = 0.0
        for rho in rhos:
            for phi in phis:
                direct = displace(rep, [rho], [phi])[:, 0]
                closed = coherent_vector(rep, rho, phi)
                worst = max(worst, float(np.linalg.norm(direct[:sub] - closed[:sub])))
        assert worst < 1e-10, rep.family
    assert time.monotonic() - start < 30.0


def test_criterion_03_symbol_identity():
    """Clock symbol matches its closed form on all three branches."""
    start = time.monotonic()
    su2 = build_clock(build_su2_rep(8.0))
    rhos = np.linspace(0.0, 0.7, 15)
    expected = (su2.epsilon * su2.b2 / 2.0) * (np.cos(2 * rhos) - 1.0)
    assert (abs(clock_symbol_numeric(su2, rhos) - expected) < 1e-10).all()
    h4 = intensive_h4_clock(24.0)
    rhos = np.linspace(0.1, 1.5, 8)
    expected = h4.epsilon * rhos * rhos
    assert (abs(clock_symbol_numeric(h4, rhos) - expected) / expected < 1e-8).all()
    su11 = build_clock(build_su11_rep(0.5, 96))
    rhos = np.linspace(0.05, 0.5, 6)
    expected = (su11.epsilon * su11.b2 / 2.0) * (np.cosh(2 * rhos) - 1.0)
    assert (abs(clock_symbol_numeric(su11, rhos) - expected) / abs(expected) < 1e-8).all()
    assert time.monotonic() - start < 10.0


def test_criterion_04_identity_resolution():
    """Quadrature resolves the identity: spin 1e-8, oscillator 1e-6."""
    start = time.monotonic()
    for j in (1.0, 2.0, 3.0, 4.0, 5.0):
        nodes = int(4 * j + 4)
        dev = identity_resolution_check(build_su2_rep(j), n_polar=nodes, n_azim=nodes)
        assert dev < 1e-8, f"j={j}: {dev:.3e}"
    dev = identity_resolution_check(build_h4_rep(48), n_polar=160, n_azim=48)
    assert dev < 1e-6, f"h4: {dev:.3e}"
    assert time.monotonic() - start < 60.0


def test_criterion_05_emergent_first_order_equation():
    """Conditioning reproduces first-order evolution in the clock angle."""
    start = time.monotonic()
    clock, h_system, psi = gaussian_state(10.0, rho=0.45, width=0.2)
    res = schrodinger_residual(psi, clock, h_system, rho=0.45, phi=0.6, h=1e-4)
    assert abs(res.richardson_slope - 2.0) < 0.1
    report = propagator_deviation(psi, clock, h_system, rho=0.45,
                                  phi_grid=np.linspace(0.0, 2 * np.pi, 25))
    assert report.max_deviation < 1e-9
    assert report.chi2_drift < 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_06_stationary_limit():
    """Stationary residual strictly decreases over j in {5, 10, 20, 40}."""
    start = time.monotonic()
    sweep = convergence_sweep(
        [5, 10, 20, 40], lambda s: stationary_experiment(intensive_su2_clock(float(s)), 0.6, 0.25))
    assert sweep.strictly_decreasing
    assert np.isfinite(sweep.loglog_slope)
    assert sweep.loglog_slope < 0
    assert time.monotonic() - start < 60.0


def test_criterion_07_phase_sector():
    """Commutator, uncertainty floor, linear window, and classical angles."""
    start = time.monotonic()
    clock20 = build_clock(build_su2_rep(20.0))
    comm = commutator_check(clock20, build_phase_operator(clock20))
    assert comm.interior_residual < 1e-10

    clock15 = build_clock(build_su2_rep(15.0))
    phase15 = build_phase_operator(clock15)
    worst = uncertainty_grid_audit(clock15, phase15,
                                   rhos=np.linspace(0.04, 0.36, 15),
                                   phis=np.linspace(0.0, 2 * np.pi, 15, endpoint=False))
    assert worst >= -1e-12

    for phi in (0.02, 0.05, 0.1):
        check = small_phi_energy_time(clock15, phase15, rho=0.2, phi=phi)
        assert abs(check.ratio - 1.0) < 0.05

    records = classical_phase_expectations("su2", [10, 20, 40, 80], rho=0.3, phi=0.8)
    sins = [r.err_sin for r in records]
    coss = [r.err_cos for r in records]
    assert all(a > b for a, b in zip(sins, sins[1:]))
    assert all(a > b for a, b in zip(coss, coss[1:]))
    assert time.monotonic() - start < 60.0


def test_criterion_08_classical_constraint():
    """Support-restricted energy mismatch decreases over the joint sweep."""
    start = time.monotonic()
    supports = []
    for j in (5.0, 10.0, 20.0):
        clock, _, psi = gaussian_state(j, rho=0.55, width=0.18)
        beta = beta_distribution(psi, clock, clock)
        assert abs(beta.normalization - 1.0) < 1e-6
        report = classical_constraint_check(beta, clock, clock)
        supports.append(report.support_max)
    assert all(a > b for a, b in zip(supports, supports[1:])), supports
    assert time.monotonic() - start < 120.0


def test_criterion_09_symplectic_sector():
    """Pullback coefficient and Hamilton identity at 1e-10, both families."""
    start = time.monotonic()
    rho_grid = np.linspace(0.1, 0.8, 20)
    phi_grid = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    for clock in (intensive_su2_clock(10.0), intensive_h4_clock(32.0)):
        for v in ((1.0,), (0.6, 0.8)):
            pull = pullback_two_form(clock, 0.5, 0.7, v=v)
            assert abs(pull.jacobian_analytic - pull.analytic) < 1e-10
            assert abs(pull.jacobian_fd - pull.analytic) < 1e-10
            ham = hamilton_check(clock, v, rho_grid, phi_grid, method="analytic")
            assert ham.max_residual < 1e-10
    assert time.monotonic() - start < 10.0


def test_criterion_10_time_unification():
    """One rate: the conditioned evolution and the chart flow agree to 1e-10.

    The quantum side reads the rate off the conditional state's eigenphase
    slopes; the classical side is the bracket coefficient from the Hamilton
    identity (hbar = 1).  Both are measured, not assumed.
    """
    clock, h_system, psi = gaussian_state(10.0, rho=0.45, width=0.2)
    quantum = quantum_flow_rate(psi, clock, h_system, rho=0.45)
    classical = classical_flow_rate(clock)
    assert abs(quantum - classical) < 1e-10


def test_criterion_11_determinism(tmp_path):
    """Two `all` runs with one fixed configuration are byte-identical."""
    out = tmp_path / "runs"
    for _ in range(2):
        rc = cli.main(["all", "--out", str(out), "--seed", "7"])
        assert rc == 0
    for sub_dir in sorted(out.iterdir()):
        runs = sorted(sub_dir.iterdir())
        assert len(runs) == 2, sub_dir.name
        for name in ("data.csv", "summary.json", "config.echo"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), \
                f"{sub_dir.name}/{name}"
    summary = json.loads(
        (sorted((out / "all").iterdir())[0] / "summary.json").read_text())
    assert summary["pass"] is True
