"""Conditioned evolution: first-order equation, propagator, and sweeps."""

import numpy as np
import pytest

from clocklab.algebra import intensive_h4_clock, intensive_su2_clock
from clocklab.classical import classical_flow_rate
from clocklab.constraint import build_psi, gaussian_state, match_spectra
from clocklab.dynamics import (
    ConvergenceRecord,
    convergence_sweep,
    detuned_ladder,
    energy_of_rho,
    h4_stationary_experiment,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    stationary_residual,
    su2_first_order_experiment,
    su2_stationary_experiment,
)


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
    sweep = convergence_sweep([5, 10, 20, 40],
                              lambda s: su2_stationary_experiment(float(s)))
    assert sweep.strictly_decreasing
    assert sweep.loglog_slope < -0.3


def test_stationary_sweep_h4():
    sweep = convergence_sweep([8, 16, 32, 64],
                              lambda s: h4_stationary_experiment(int(s)))
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
    values = [su2_first_order_experiment(j).residual for j in (5.0, 10.0, 20.0)]
    spread = max(values) - min(values)
    assert spread < 7e-12


def test_stationary_residual_direct_value():
    clock, h_system, psi = make_state(j=10.0, rho=0.6, width=0.25)
    value = stationary_residual(psi, clock, h_system, rho=0.6, phi=0.3)
    record = su2_stationary_experiment(10.0)
    assert abs(value - record.residual) < 1e-12


def test_sweep_requires_three_sizes():
    with pytest.raises(ValueError, match="at least 3"):
        convergence_sweep([5, 10], lambda s: su2_stationary_experiment(float(s)))


def test_sweep_refusal_on_empty_kernel():
    """A detuned system spectrum shares no level with the clock; refuse."""
    with pytest.raises(ValueError, match="no constraint states"):
        convergence_sweep([5, 10, 20],
                          lambda s: su2_stationary_experiment(float(s), detune=0.37))


def test_detuned_ladder_has_no_matches():
    clock = intensive_su2_clock(4.0)
    match = match_spectra(clock.h_c, detuned_ladder(clock, clock.dim, offset=0.5),
                          tol=1e-9 * clock.epsilon)
    assert match.pairs == ()


def test_convergence_record_validation():
    with pytest.raises(ValueError):
        ConvergenceRecord(size=4, residual=-1.0, detail={})


def test_energy_of_rho_matches_symbol():
    clock = intensive_su2_clock(6.0)
    expected = np.sqrt(2.0) * np.sin(0.5) ** 2
    assert abs(energy_of_rho(clock, 0.5) - expected) < 1e-12
