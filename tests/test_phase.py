"""Phase operator: polar decomposition, commutators, uncertainty relations."""

import numpy as np
import pytest

from clocklab.algebra import build_clock, build_h4_rep, build_su2_rep
from clocklab import phase as phase_module
from clocklab.gcs import coherent_vector
from clocklab.phase import (
    build_phase_operator,
    classical_phase_expectations,
    commutator_check,
    small_phi_energy_time,
    uncertainty_audit,
    uncertainty_grid_audit,
)


def test_unitary_completion_is_unitary():
    for clock in (build_clock(build_su2_rep(7.5)), build_clock(build_h4_rep(24))):
        phase = build_phase_operator(clock)
        u = phase.exp_minus_iphi
        assert np.linalg.norm(u @ u.conj().T - np.eye(clock.dim)) < 1e-12


def test_polar_decomposition_identity():
    """R^dag = (R^dag R^{dag,dag})^{1/2} U holds on the whole space.

    The modulus factor vanishes on the top rung, so the cyclic completion
    never changes the product: the identity is exact, not approximate.
    """
    for clock in (build_clock(build_su2_rep(5.0)), build_clock(build_h4_rep(16))):
        phase = build_phase_operator(clock)
        a = clock.rep.raising_ops[0].conj().T
        modulus = np.diag(np.sqrt(np.real(np.diag(a @ a.conj().T))))
        assert np.linalg.norm(a - modulus @ phase.exp_minus_iphi) < 1e-12


def test_spin_half_shift_is_permutation():
    """At j = 1/2 the phase unitary is the 2x2 cyclic permutation."""
    phase = build_phase_operator(build_clock(build_su2_rep(0.5)))
    assert np.allclose(phase.exp_minus_iphi, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_h4_shift_is_truncated_cyclic():
    """Oscillator phase unitary shifts Fock indices with one wrap entry."""
    clock = build_clock(build_h4_rep(6))
    u = build_phase_operator(clock).exp_minus_iphi
    expected = np.zeros((clock.dim, clock.dim))
    for k in range(clock.dim - 1):
        expected[k + 1, k] = 1.0
    expected[0, clock.dim - 1] = 1.0
    assert np.allclose(u, expected)


def test_commutator_interior_exact():
    """[H_C, sin] - i eps cos vanishes away from the wrap column."""
    report = commutator_check(build_clock(build_su2_rep(20.0)),
                              build_phase_operator(build_clock(build_su2_rep(20.0))))
    assert report.interior_residual < 1e-10
    assert report.full_residual > 1.0  # the wrap is a real finite-size artifact


def test_commutator_wrap_scales_linearly_in_eps():
    """Full-space residual is exactly eps * dim / 2, from the two wrap entries."""
    clock_a = build_clock(build_su2_rep(10.0))
    clock_b = build_clock(build_su2_rep(10.0), scale=2.0)
    rep_a = commutator_check(clock_a, build_phase_operator(clock_a))
    rep_b = commutator_check(clock_b, build_phase_operator(clock_b))
    assert abs(rep_a.full_residual - clock_a.epsilon * clock_a.dim / 2.0) < 1e-12
    assert abs(rep_b.full_residual / rep_a.full_residual - 2.0) < 1e-12


def test_sin_cos_commute():
    """The two quadratures share the cyclic eigenbasis, so they commute."""
    phase = build_phase_operator(build_clock(build_su2_rep(6.0)))
    resid = phase.sin_phi @ phase.cos_phi - phase.cos_phi @ phase.sin_phi
    assert np.linalg.norm(resid) < 1e-13


def test_uncertainty_bound_on_coherent_grid():
    """Robertson slack Delta_H Delta_sin - (eps/2)|<cos>| stays nonnegative."""
    clock = build_clock(build_su2_rep(15.0))
    phase = build_phase_operator(clock)
    worst = uncertainty_grid_audit(clock, phase,
                                   rhos=np.linspace(0.04, 0.36, 15),
                                   phis=np.linspace(0.0, 2 * np.pi, 15, endpoint=False))
    assert worst >= -1e-12


def test_uncertainty_grid_keeps_nan(monkeypatch):
    """A nan state after finite ones makes the worst slack nan, which fails a
    ">=" gate.  (A nan radius is refused before any state is built.)"""
    clock = build_clock(build_su2_rep(15.0))
    phase = build_phase_operator(clock)
    points = phase_module.coherent_points

    def nan_in_the_last_column(rep, rhos, phis):
        vecs = points(rep, rhos, phis)
        vecs[:, -1] = np.nan
        return vecs

    monkeypatch.setattr(phase_module, "coherent_points", nan_in_the_last_column)
    worst = uncertainty_grid_audit(clock, phase, rhos=[0.2, 0.3], phis=[0.0, 1.0])
    assert np.isnan(worst)


def per_point_slack_bound(clock, phase, vec):
    """(reference slack, bound on its difference from a batched evaluation).

    With u the unit roundoff, gamma_n = n u / (1 - n u) and g = |A| |v| for
    an operator A of dimension d: either route's image A v is within
    sqrt(2) gamma_{2d} g, its mean <v|A|v> within 2 sqrt(2) gamma_{2d+2} |v|.g
    and its variance <Av|Av> - mean^2 (||v|| <= 1, so |v|.g <= ||g||) within
    12 gamma_{2d+4} ||g||^2 of the exact ones; the routes differ by twice
    that.  Then |sqrt x - sqrt y| <= min(sqrt|x - y|, |x - y| / sqrt x),
    |a b - a' b'| <= |da| b + a |db| + |da| |db|, and the slack's own
    products, square roots and difference add 2 gamma_4 of its terms.
    """
    u = np.finfo(float).eps / 2

    def gamma(n):
        return n * u / (1 - n * u)

    d = clock.dim
    audit = uncertainty_audit(vec, clock, phase)

    def spread(op):
        g = np.abs(op) @ np.abs(vec)
        return 2 * 12 * gamma(2 * d + 4) * float(g @ g), float(np.abs(vec) @ g)

    def sqrt_change(delta, value):
        return min(np.sqrt(delta), delta / value) if value > 0 else np.sqrt(delta)

    dvar_h, _ = spread(clock.h_c)
    dvar_s, _ = spread(phase.sin_phi)
    _, mu_cos = spread(phase.cos_phi)
    da = sqrt_change(dvar_h, audit.delta_h)
    db = sqrt_change(dvar_s, audit.delta_sin)
    product = audit.delta_h * audit.delta_sin
    bound = (da * audit.delta_sin + audit.delta_h * db + da * db
             + 0.5 * clock.epsilon * 2 * 2 * np.sqrt(2) * gamma(2 * d + 2) * mu_cos
             + 2 * gamma(4) * (product + audit.bound))
    return audit.slack, bound


@pytest.mark.parametrize("rep, rho_max", [(build_su2_rep(15.0), 0.36), (build_h4_rep(48), 1.5)],
                         ids=["su2-j15", "h4-cut48"])
def test_uncertainty_grid_equals_the_per_point_audits(rep, rho_max):
    """The batched worst slack is the least per-point slack within roundoff.

    |min x - min y| <= max |x_k - y_k|, so the per-point bounds bound it.
    """
    clock = build_clock(rep)
    phase = build_phase_operator(clock)
    rhos = np.linspace(0.04, rho_max, 9)
    phis = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    worst = uncertainty_grid_audit(clock, phase, rhos, phis)
    slacks, bounds = zip(*(per_point_slack_bound(clock, phase, coherent_vector(rep, rho, phi))
                           for rho in rhos for phi in phis))
    assert abs(worst - min(slacks)) <= max(bounds)


def test_uncertainty_single_state_fields():
    clock = build_clock(build_su2_rep(15.0))
    phase = build_phase_operator(clock)
    audit = uncertainty_audit(coherent_vector(clock.rep, 0.2, 0.9), clock, phase)
    assert audit.delta_h > 0
    assert audit.delta_sin > 0
    assert audit.bound >= 0
    assert abs(audit.slack - (audit.delta_h * audit.delta_sin - audit.bound)) < 1e-15


def test_extremal_state_saturates_trivially():
    """The reference state has Delta_H = 0 and <cos> = 0 under the wrap: slack 0."""
    clock = build_clock(build_su2_rep(4.0))
    phase = build_phase_operator(clock)
    audit = uncertainty_audit(coherent_vector(clock.rep, 0.0, 0.0), clock, phase)
    assert abs(audit.slack) < 1e-13


def test_small_phi_energy_time_product():
    """Delta_H * Delta_phi tracks eps/2 within 5% in the linear window."""
    clock = build_clock(build_su2_rep(15.0))
    phase = build_phase_operator(clock)
    for phi in (-0.08, 0.02, 0.05, 0.1):
        check = small_phi_energy_time(clock, phase, rho=0.2, phi=phi)
        assert abs(check.ratio - 1.0) < 0.05
        assert check.product >= check.half_epsilon * 0.95


def test_expectation_errors_shrink_su2():
    """<sin phi_hat>, <cos phi_hat> approach the label angle as j grows."""
    records = classical_phase_expectations("su2", [10, 20, 40, 80], rho=0.3, phi=0.8)
    sins = [r.err_sin for r in records]
    coss = [r.err_cos for r in records]
    assert all(a > b for a, b in zip(sins, sins[1:]))
    assert all(a > b for a, b in zip(coss, coss[1:]))


def test_expectation_errors_shrink_h4():
    records = classical_phase_expectations("h4", [8, 16, 32], rho=1.2, phi=0.8)
    sins = [r.err_sin for r in records]
    assert all(a > b for a, b in zip(sins, sins[1:]))


def test_expectation_rejects_unknown_family():
    with pytest.raises(ValueError):
        classical_phase_expectations("su11", [8, 16, 32], rho=0.3, phi=0.8)
