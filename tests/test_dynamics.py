"""Conditioned evolution: first-order equation, propagator, and sweeps."""

import dataclasses
import struct

import numpy as np
import pytest
import scipy.linalg

from clocklab.algebra import build_clock, build_su2_rep, intensive_h4_clock, intensive_su2_clock
from clocklab.classical import classical_flow_rate
from clocklab.constraint import (
    build_psi,
    conditional_state,
    gaussian_profile,
    gaussian_state,
    ladder_match,
    match_spectra,
    random_profile,
)
from clocklab.dynamics import (
    ConvergenceRecord,
    convergence_sweep,
    energy_of_rho,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    stationary_experiment,
    stationary_residual,
)
from clocklab.gcs import coherent_points, coherent_vector


def su2_stationary(size):
    """The spin stationary sweep at its CLI defaults: rho 0.6, width 0.25."""
    return stationary_experiment(intensive_su2_clock(float(size)), 0.6, 0.25)


def h4_stationary(size):
    """The oscillator sweep at width 0.15, rho pinned on the ladder level size/2."""
    return stationary_experiment(intensive_h4_clock(int(size)), np.sqrt(round(size / 2)), 0.15)


def su2_first_order(j):
    """First-order residual with the conditional amplitudes pinned across j.

    The profile divides out the coherent amplitudes at the probed rho, so
    the conditional state is literally the same vector, with amplitudes
    ``targets``, for every clock size and the residual can only reflect
    the difference step.
    """
    rho, targets = 0.35, (0.55, 0.65, 0.52)
    clock = build_clock(build_su2_rep(j))
    h_system = resonant_ladder(clock, len(targets))
    amps = coherent_vector(clock.rep, rho, 0.0).real[:len(targets)]
    psi = build_psi(ladder_match(clock, h_system), np.asarray(targets) / amps)
    rec = schrodinger_residual(psi, clock, h_system, rho, 0.4)
    return ConvergenceRecord(size=clock.dim, residual=rec.value)


def make_state(j=10.0, rho=0.45, width=0.2):
    clock = intensive_su2_clock(j)
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), width)
    return clock, h_system, psi


def test_first_order_residual_second_order_in_h():
    """The centered difference converges at order two to the exact equation."""
    clock, h_system, psi = make_state()
    res = schrodinger_residual(psi, clock, h_system, rho=0.45, phi=0.6, h=1e-4)
    assert res.value < 1e-7
    assert abs(res.richardson_slope - 2.0) < 0.1


def test_ground_pair_state_is_static():
    """A kernel state on the zero rung alone has an exactly zero residual."""
    clock = intensive_su2_clock(3.0)
    h_system = resonant_ladder(clock, 1)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    with pytest.warns(UserWarning):
        psi = build_psi(match, np.ones(1))
    res = schrodinger_residual(psi, clock, h_system, rho=0.4, phi=0.3)
    assert res.value == 0.0


def test_propagator_oracle_agreement():
    """Conditioning at angle phi equals evolving the phi = 0 state for time phi/eps."""
    clock, h_system, psi = make_state()
    report = propagator_deviation(psi, clock, h_system, rho=0.45,
                                  phi_grid=np.linspace(0.0, 2 * np.pi, 25))
    assert report.max_deviation < 1e-9
    assert report.chi2_drift < 1e-12
    assert report.n_points == 25


def test_quantum_flow_rate_recovers_gap():
    """Eigenphase slopes of the conditional state give d(phase)/dphi = -E/eps."""
    clock, h_system, psi = make_state()
    rate = quantum_flow_rate(psi, clock, h_system, rho=0.45)
    assert abs(rate - clock.epsilon) < 1e-10


@pytest.mark.parametrize("make_clock, rho", [
    (lambda: intensive_su2_clock(250.0), 0.45),
    (lambda: intensive_su2_clock(400.0), 0.45),
    (lambda: intensive_h4_clock(200.0), 10.0),
], ids=["su2-j250", "su2-j400", "h4-mean200"])
def test_quantum_flow_rate_does_not_alias_at_large_clocks(make_clock, rho):
    """Components up to n ~ 800 move by n * dphi per step; the grid keeps that below pi."""
    clock = make_clock()
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), 0.2)
    quantum = quantum_flow_rate(psi, clock, h_system, rho=rho)
    assert abs(quantum - classical_flow_rate(clock)) < 1e-10


def test_quantum_flow_rate_refuses_static_state():
    clock = intensive_su2_clock(3.0)
    h_system = resonant_ladder(clock, 1)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    with pytest.warns(UserWarning):
        psi = build_psi(match, np.ones(1))
    with pytest.raises(ValueError, match="moving"):
        quantum_flow_rate(psi, clock, h_system, rho=0.4)


def test_stationary_residual_drops_with_size():
    """H_Gamma Phi ~ E(rho) Phi sharpens as the intensive clock grows."""
    sweep = convergence_sweep([5, 10, 20, 40], su2_stationary)
    assert sweep.strictly_decreasing
    assert sweep.loglog_slope < -0.3


def test_stationary_sweep_h4():
    sweep = convergence_sweep([8, 16, 32, 64], h4_stationary)
    assert sweep.strictly_decreasing
    assert sweep.loglog_slope < -0.25


def test_first_order_exactness_contrast():
    """Pinning the conditional amplitudes makes the residual size-independent.

    The first-order equation is exact at every clock size; the stationary
    approximation is not.  With the conditional state held literally
    constant across sizes the only variation left is the second-order
    difference noise, whose cancellation floor at h = 1e-4 is about
    eps * eps_mach / (2h) ~ 7e-13 per unit gap.
    """
    values = [su2_first_order(j).residual for j in (5.0, 10.0, 20.0)]
    spread = max(values) - min(values)
    assert spread < 7e-12


def test_stationary_residual_direct_value():
    clock, h_system, psi = make_state(j=10.0, rho=0.6, width=0.25)
    value = stationary_residual(psi, clock, h_system, rho=0.6, phi=0.3)
    record = su2_stationary(10)
    assert abs(value - record.residual) < 1e-12


def test_sweep_requires_three_sizes():
    with pytest.raises(ValueError, match="at least 3"):
        convergence_sweep([5, 10], su2_stationary)


def test_sweep_refusal_on_empty_kernel():
    """A detuned system spectrum shares no level with the clock; refuse."""
    def detuned(size):
        clock = intensive_su2_clock(float(size))
        h_system = clock.epsilon * (np.arange(clock.dim) + 0.37)
        psi = gaussian_state(clock, h_system, energy_of_rho(clock, 0.6), 0.25)
        return ConvergenceRecord(clock.dim, stationary_residual(psi, clock, h_system, 0.6, 0.3))

    with pytest.raises(ValueError, match="no constraint states"):
        convergence_sweep([5, 10, 20], detuned)


def test_detuned_ladder_has_no_matches():
    clock = intensive_su2_clock(4.0)
    match = match_spectra(clock.h_c, clock.epsilon * (np.arange(clock.dim) + 0.5),
                          tol=1e-9 * clock.epsilon)
    assert match.pairs.dtype == np.intp and match.pairs.shape == (0, 2)


def test_convergence_record_validation():
    with pytest.raises(ValueError):
        ConvergenceRecord(size=4, residual=-1.0)


def test_energy_of_rho_matches_symbol():
    clock = intensive_su2_clock(6.0)
    expected = np.sqrt(2.0) * np.sin(0.5) ** 2
    assert abs(energy_of_rho(clock, 0.5) - expected) < 1e-12


# --- the diagonal routes against the dense products they replace -----------

PHI_GRID = np.linspace(0.0, 2 * np.pi, 25)

LADDER_CLOCKS = {
    "su2-j3": (lambda: intensive_su2_clock(3.0), 0.45),
    "su2-j40": (lambda: intensive_su2_clock(40.0), 0.45),
    "su2-j400": (lambda: intensive_su2_clock(400.0), 0.45),
    "h4-mean200": (lambda: intensive_h4_clock(200.0), 10.0),
}


def as_matrix(h_system):
    """The dense operator: np.diag of a ladder system's energies, a matrix as it is."""
    return np.diag(h_system) if h_system.ndim == 1 else h_system


def dense_propagator(psi, clock, h_system, rho, phi_grid):
    """The oracle loop with a dense expm at every phi: (max deviation, chi2 drift)."""
    h_system = as_matrix(h_system)
    base = conditional_state(psi, clock, rho, 0.0)
    worst = 0.0
    drift = 0.0
    for phi in phi_grid:
        cond = conditional_state(psi, clock, rho, float(phi))
        u = scipy.linalg.expm(-1j * (float(phi) / clock.epsilon) * h_system)
        worst = max(worst, float(np.linalg.norm(cond.unnormalized - u @ base.unnormalized)))
        drift = max(drift, abs(cond.chi2 - base.chi2))
    return worst, drift


def stencil_phis(phi, h):
    """The five clock phases of the Schroedinger stencil, in the library's order."""
    return [phi, phi + h, phi - h, phi + h / 2.0, phi - h / 2.0]


def residuals_from_rows(clock, rhs, lead, plus, minus, half_plus, half_minus, h):
    """(r(h), r(h/2), slope) from the stencil's five conditional states and H lead."""
    norm = np.sqrt(np.vdot(lead, lead).real)
    values = [float(np.linalg.norm(1j * clock.epsilon * (p - m) / (2.0 * step) - rhs)) / norm
              for p, m, step in ((plus, minus, h), (half_plus, half_minus, h / 2.0))]
    return values[0], values[1], float(np.log2(values[0] / values[1]))


def dense_schrodinger_residual(psi, clock, h_system, rho, phi, h):
    """(r(h), r(h/2), slope) with the dense h_system @ lead.  The five
    conditional states are one product of their bras with psi's dense
    matrix, as the library forms them off a ladder match."""
    bras = coherent_points(clock.rep, [rho], stencil_phis(phi, h))
    rows = bras.conj().T @ psi.matrix
    return residuals_from_rows(clock, as_matrix(h_system) @ rows[0], *rows, h)


def dense_stationary_residual(psi, clock, h_system, rho, phi):
    n = conditional_state(psi, clock, rho, phi).normalized
    return float(np.linalg.norm(as_matrix(h_system) @ n - energy_of_rho(clock, rho) * n))


def packed(*values):
    return struct.pack(f"<{len(values)}d", *values)


def assert_residuals_equal_dense(psi, clock, h_system, rho):
    res = schrodinger_residual(psi, clock, h_system, rho, phi=0.6, h=1e-4)
    assert packed(res.value, res.value_half_step, res.richardson_slope) == \
        packed(*dense_schrodinger_residual(psi, clock, h_system, rho, 0.6, 1e-4))
    assert packed(stationary_residual(psi, clock, h_system, rho, phi=0.3)) == \
        packed(dense_stationary_residual(psi, clock, h_system, rho, 0.3))


@pytest.fixture
def expm_calls(monkeypatch):
    """Count the calls made to scipy.linalg.expm."""
    calls = []
    real_expm = scipy.linalg.expm

    def spy(a):
        calls.append(a.shape)
        return real_expm(a)

    monkeypatch.setattr(scipy.linalg, "expm", spy)
    return calls


@pytest.mark.parametrize("name", sorted(LADDER_CLOCKS))
def test_diagonal_routes_equal_dense_products_bitwise(name, expm_calls):
    """A ladder takes no expm, and for real (Gaussian) profiles every result keeps its bits."""
    make_clock, rho = LADDER_CLOCKS[name]
    clock = make_clock()
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), 0.2)
    report = propagator_deviation(psi, clock, h_system, rho, PHI_GRID)
    assert expm_calls == []
    worst, drift = dense_propagator(psi, clock, h_system, rho, PHI_GRID)
    assert packed(report.max_deviation, report.chi2_drift) == packed(worst, drift)
    assert report.n_points == len(PHI_GRID)
    assert_residuals_equal_dense(psi, clock, h_system, rho)


@pytest.mark.parametrize("j", [3.0, 20.0, 400.0])
def test_diagonal_oracle_tracks_dense_expm_for_complex_profiles(j):
    """Complex amplitudes round differently in zgemv; the deviation moves by rounding only."""
    clock = intensive_su2_clock(j)
    h_system = resonant_ladder(clock, clock.dim)
    match = ladder_match(clock, h_system)
    psi = build_psi(match, random_profile(match, seed=1))
    rho = 0.45
    report = propagator_deviation(psi, clock, h_system, rho, PHI_GRID)
    worst, drift = dense_propagator(psi, clock, h_system, rho, PHI_GRID)
    base_norm = np.linalg.norm(conditional_state(psi, clock, rho, 0.0).unnormalized)
    bound = 4 * clock.dim * np.finfo(float).eps * base_norm
    assert abs(report.max_deviation - worst) <= bound
    assert report.chi2_drift == drift
    assert report.max_deviation < 1e-9


@pytest.mark.parametrize("profile", ["gaussian", "random"])
@pytest.mark.parametrize("name", sorted(LADDER_CLOCKS))
def test_stencil_keeps_the_bits_of_five_conditional_states(name, profile):
    """On a ladder match each conditional entry is one product per (n, phi),
    so the stencil's one table gives the bits of five ``conditional_state``
    calls, for a real and for a complex profile."""
    make_clock, rho = LADDER_CLOCKS[name]
    clock = make_clock()
    h_system = resonant_ladder(clock, clock.dim)
    match = ladder_match(clock, h_system)
    coeff = (random_profile(match, seed=5) if profile == "random" else
             gaussian_profile(match, energy_of_rho(clock, rho), 0.2))
    psi = build_psi(match, coeff)
    res = schrodinger_residual(psi, clock, h_system, rho, phi=0.6, h=1e-4)
    states = [conditional_state(psi, clock, rho, p).unnormalized
              for p in stencil_phis(0.6, 1e-4)]
    assert packed(res.value, res.value_half_step, res.richardson_slope) == \
        packed(*residuals_from_rows(clock, h_system * states[0], *states, 1e-4))


def test_non_diagonal_generator_goes_through_expm(expm_calls):
    """A rotated ladder Q diag(eps n) Q^T keeps the Pade expm at every phi."""
    clock = intensive_su2_clock(3.0)
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(clock.dim, clock.dim)))
    h_system = (q * (clock.epsilon * np.arange(clock.dim))) @ q.T
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * max(clock.epsilon, 1.0))
    assert len(match.pairs) == clock.dim
    psi = build_psi(match, gaussian_profile(match, energy_of_rho(clock, 0.45), 0.2))
    report = propagator_deviation(psi, clock, h_system, rho=0.45, phi_grid=PHI_GRID)
    assert expm_calls == [h_system.shape] * len(PHI_GRID)
    assert report.max_deviation < 1e-9
    assert report.chi2_drift < 1e-12
    assert_residuals_equal_dense(psi, clock, h_system, 0.45)
    res = schrodinger_residual(psi, clock, h_system, rho=0.45, phi=0.6, h=1e-4)
    assert res.value < 1e-7


@pytest.mark.parametrize("grid", [[0.0], [0.0, 0.0, -0.0], []])
def test_propagator_refuses_a_grid_without_nonzero_phi(grid):
    """At phi = 0 both sides are Phi(0): the deviation and the drift read 0.0."""
    clock, h_system, psi = make_state(j=3.0)
    with pytest.raises(ValueError, match="nonzero phi"):
        propagator_deviation(psi, clock, h_system, rho=0.45, phi_grid=grid)


def test_propagator_nan_state_fails_its_gates():
    """One NaN entry of psi makes both worst values NaN; max() used to drop them to 0.0."""
    clock = intensive_su2_clock(5.0)
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, 0.45), 0.2)
    coefficients = psi.coefficients.copy()
    [k] = np.flatnonzero((psi.match.pairs == (3, 3)).all(axis=1))
    coefficients[k] = np.nan
    with np.errstate(invalid="ignore"):  # the support guard divides by a NaN chi2
        report = propagator_deviation(dataclasses.replace(psi, coefficients=coefficients),
                                      clock, h_system, 0.45, PHI_GRID)
    assert np.isnan(report.max_deviation) and np.isnan(report.chi2_drift)
    assert not report.max_deviation <= 1e-9 and not report.chi2_drift <= 1e-12
