"""Classical limit: Darboux chart, pullback, Hamilton flow, joint distribution."""

import tracemalloc

import numpy as np
import pytest

from clocklab.algebra import (
    build_clock,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
)
from clocklab.classical import (
    beta_distribution,
    chart_hamiltonian,
    classical_constraint_check,
    classical_flow_rate,
    hamilton_check,
    map_F,
    poisson_bracket_clock,
    pullback_two_form,
    two_form_coefficient,
)
from clocklab.constraint import build_psi, gaussian_state, match_spectra
from clocklab.dynamics import energy_of_rho, quantum_flow_rate, resonant_ladder
from clocklab.families import lookup
from clocklab.gcs import clock_symbol_analytic, coherent_table, coherent_vector

SU2 = intensive_su2_clock(10.0)
H4 = intensive_h4_clock(32.0)
SU11 = build_clock(build_su11_rep(0.5, 96))


def make_state(j, rho=0.55, width=0.18):
    clock = intensive_su2_clock(j)
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), width)
    return clock, psi


def test_map_reference_point():
    """rho = 0 lands on the chart origin."""
    point = map_F(0.0, 1.3, (1.0,), SU2)
    assert point.q == (0.0,)
    assert point.p == (0.0,)


def test_map_angle_orientation():
    """q - i p = C(rho) e^{+i phi} componentwise."""
    point = map_F(0.4, 0.9, (0.6, 0.8), SU2)
    c = np.sqrt(2 * abs(SU2.b2)) * np.sin(0.4)
    for qj, pj, vj in zip(point.q, point.p, (0.6, 0.8)):
        assert abs((qj - 1j * pj) - c * np.exp(0.9j) * vj) < 1e-12


def test_map_requires_unit_vector():
    with pytest.raises(ValueError, match="unit"):
        map_F(0.3, 0.0, (0.5, 0.5), SU2)


@pytest.mark.parametrize("clock", [SU2, H4, SU11], ids=["su2", "h4", "su11"])
@pytest.mark.parametrize("v", [(1.0,), (0.6, 0.8)], ids=["J1", "J2"])
def test_chart_hamiltonian_equals_symbol(clock, v):
    """(eps/2) sum(q^2 + p^2) on the shell equals the coherent symbol."""
    for rho in (0.1, 0.3, 0.5):
        point = map_F(rho, 0.7, v, clock)
        assert abs(chart_hamiltonian(clock, point)
                   - energy_of_rho(clock, rho)) < 1e-12


@pytest.mark.parametrize("clock,expected", [
    (SU2, lambda r: abs(SU2.b2) * np.sin(2 * r)),
    (H4, lambda r: 2 * r),
    (SU11, lambda r: abs(SU11.b2) * np.sinh(2 * r)),
], ids=["su2", "h4", "su11"])
def test_two_form_closed_forms(clock, expected):
    for rho in (0.2, 0.5):
        assert abs(two_form_coefficient(clock, rho) - expected(rho)) < 1e-12


@pytest.mark.parametrize("clock", [SU2, H4, SU11], ids=["su2", "h4", "su11"])
@pytest.mark.parametrize("v", [(1.0,), (0.6, 0.8)], ids=["J1", "J2"])
def test_pullback_three_routes_agree(clock, v):
    """Closed form, analytic Jacobian, and FD Jacobian give one coefficient."""
    report = pullback_two_form(clock, 0.5, 0.7, v=v)
    assert abs(report.jacobian_analytic - report.analytic) < 1e-10
    assert abs(report.jacobian_fd - report.analytic) < 1e-10


def test_pullback_hbar_scaling():
    a = pullback_two_form(SU2, 0.5, 0.7, hbar=1.0)
    b = pullback_two_form(SU2, 0.5, 0.7, hbar=3.0)
    assert abs(b.analytic - 3.0 * a.analytic) < 1e-12


def test_poisson_bracket_antisymmetry_and_diagonal():
    def f(rho, phi):
        return np.sin(rho) * np.cos(phi)

    def g(rho, phi):
        return rho * rho + 0.3 * phi

    ab = poisson_bracket_clock(f, g, (0.5, 0.7), SU2)
    ba = poisson_bracket_clock(g, f, (0.5, 0.7), SU2)
    aa = poisson_bracket_clock(f, f, (0.5, 0.7), SU2)
    assert abs(ab + ba) < 1e-9
    assert abs(aa) < 1e-12


def test_poisson_bracket_singularity_refusal():
    """At rho = 0 the two-form degenerates; the bracket refuses the point."""
    with pytest.raises(ValueError, match="vanishes"):
        poisson_bracket_clock(lambda r, p: r, lambda r, p: p, (0.0, 0.3), SU2)


def test_hamilton_grid_singularity_refusal():
    """A radial grid that touches rho = 0 is refused, not divided by zero."""
    with pytest.raises(ValueError, match="vanishes"):
        hamilton_check(SU2, (1.0,), np.linspace(0.0, 0.6, 5),
                       np.linspace(0.0, 2 * np.pi, 5, endpoint=False))


@pytest.mark.parametrize("clock, rho", [(SU2, 0.0), (SU2, np.pi / 2), (H4, 0.0)],
                         ids=["su2-origin", "su2-pole", "h4-origin"])
def test_classical_flow_rate_singularity_refusal(clock, rho):
    with pytest.raises(ValueError, match="vanishes"):
        classical_flow_rate(clock, rho=rho)


def test_angle_energy_bracket():
    """{phi, H} = eps / hbar: the angle advances at the uniform clock rate."""
    value = poisson_bracket_clock(lambda r, p: p, lambda r, p: energy_of_rho(SU2, r),
                                  (0.5, 0.7), SU2)
    assert abs(value - SU2.epsilon) < 1e-8


@pytest.mark.parametrize("clock", [SU2, H4], ids=["su2", "h4"])
@pytest.mark.parametrize("v", [(1.0,), (0.6, 0.8)], ids=["J1", "J2"])
def test_hamilton_identity_analytic(clock, v):
    """{x_j, H} = (eps/hbar) d(x_j)/dphi on a 20x20 grid, analytic partials."""
    report = hamilton_check(clock, v, np.linspace(0.1, 0.8, 20),
                            np.linspace(0.0, 2 * np.pi, 20, endpoint=False))
    assert report.max_residual < 1e-10
    assert report.method == "analytic"


def test_hamilton_identity_finite_difference():
    report = hamilton_check(SU2, (1.0,), np.linspace(0.2, 0.6, 5),
                            np.linspace(0.0, 2 * np.pi, 5, endpoint=False),
                            method="fd")
    assert report.max_residual < 1e-6


def test_hamilton_hbar_consistency():
    """hbar rescales the bracket and the flow rate together; residual stays zero."""
    report = hamilton_check(SU2, (1.0,), np.linspace(0.2, 0.6, 5),
                            np.linspace(0.0, 2 * np.pi, 5, endpoint=False), hbar=2.0)
    assert report.max_residual < 1e-12


def test_classical_flow_rate_is_gap():
    for clock in (SU2, H4):
        assert abs(classical_flow_rate(clock) - clock.epsilon) < 1e-12


def test_flow_rates_unify():
    """The conditioned evolution and the chart flow share one time rate."""
    clock, psi = make_state(10.0, rho=0.45, width=0.2)
    h_system = resonant_ladder(clock, clock.dim)
    quantum = quantum_flow_rate(psi, clock, h_system, rho=0.45)
    classical = classical_flow_rate(clock)
    assert abs(quantum - classical) < 1e-10


def test_beta_normalization():
    clock, psi = make_state(5.0)
    beta = beta_distribution(psi, clock, clock)
    assert abs(beta.normalization - 1.0) < 1e-6


def test_beta_values_equal_per_node_reference():
    """The table is the per-node one's, bit for bit."""
    clock, psi = make_state(10.0)
    beta = beta_distribution(psi, clock, clock)
    rhos, phis, _ = lookup(clock.rep.family).nodes(clock.rep)
    cols = np.empty((clock.dim, len(rhos)), dtype=complex)
    for i, (r, f) in enumerate(zip(rhos, phis)):
        cols[:, i] = coherent_vector(clock.rep, float(r), float(f))
    ref = cols.conj().T @ psi.matrix @ cols.conj()
    assert beta.values.tobytes() == ref.tobytes()


def test_beta_dimension_mismatch_refused():
    clock, psi = make_state(5.0)
    other = intensive_su2_clock(6.0)
    with pytest.raises(ValueError, match="dimensions"):
        beta_distribution(psi, clock, other)


def test_separable_state_factorizes():
    """A one-pair composite gives a rank-one |beta|^2 with zero peak mismatch."""
    clock = intensive_su2_clock(3.0)
    h_system = resonant_ladder(clock, clock.dim)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    coeff = np.zeros(len(match.pairs))
    coeff[0] = 1.0
    beta = beta_distribution(build_psi(match, coeff), clock, clock)
    dens = np.abs(beta.values) ** 2
    svals = np.linalg.svd(dens, compute_uv=False)
    assert svals[1] / svals[0] < 1e-12
    report = classical_constraint_check(beta, clock, clock)
    assert report.peak_mismatch == 0.0


def test_support_mismatch_shrinks_with_size():
    """On-support energy mismatch decreases over the joint sweep; off-support stays large."""
    supports, complements = [], []
    for j in (5.0, 10.0, 20.0):
        clock, psi = make_state(j)
        beta = beta_distribution(psi, clock, clock)
        report = classical_constraint_check(beta, clock, clock)
        supports.append(report.support_max)
        complements.append(report.complement_max)
        assert 0 < report.n_support < beta.values.size
    assert all(a > b for a, b in zip(supports, supports[1:]))
    assert all(c > s for c, s in zip(complements, supports))


def test_beta_threshold_is_configurable():
    clock, psi = make_state(5.0)
    loose = beta_distribution(psi, clock, clock, threshold=1e-3)
    tight = beta_distribution(psi, clock, clock, threshold=1e-9)
    assert loose.support_counts.sum() < tight.support_counts.sum()
    assert loose.threshold == 1e-3


def test_empty_support_refused():
    clock, psi = make_state(5.0)
    beta = beta_distribution(psi, clock, clock, threshold=1e-3)
    crippled = beta.__class__(**{**beta.__dict__,
                                 "support_counts": np.zeros_like(beta.support_counts)})
    with pytest.raises(ValueError, match="support"):
        classical_constraint_check(crippled, clock, clock)


@pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, float("nan")])
def test_beta_threshold_outside_unit_interval_refused(threshold):
    """A cut at or below 0 keeps every node, one above 1 keeps none."""
    clock, psi = make_state(3.0)
    with pytest.raises(ValueError, match="threshold"):
        beta_distribution(psi, clock, clock, threshold=threshold)


def test_beta_threshold_one_keeps_the_peak():
    clock, psi = make_state(3.0)
    beta = beta_distribution(psi, clock, clock, threshold=1.0)
    dens = np.abs(beta.values) ** 2
    assert beta.support_counts.sum() == np.count_nonzero(dens == dens.max()) >= 1


@pytest.mark.parametrize("threshold", [1e-3, 1e-6])
@pytest.mark.parametrize("rho", [0.3, 0.55])
@pytest.mark.parametrize("j", [3.0, 5.0, 10.0, 20.0])
def test_constraint_check_equals_dense_reference(j, rho, threshold):
    """The streamed reductions equal those of the whole table and a node mask."""
    clock, psi = make_state(j, rho=rho)
    beta = beta_distribution(psi, clock, clock, threshold=threshold)
    report = classical_constraint_check(beta, clock, clock)

    rhos, phis, weights = lookup(clock.rep.family).nodes(clock.rep)
    table = coherent_table(clock.rep, rhos, phis)
    dens = np.abs(table.conj().T @ psi.matrix @ table.conj()) ** 2
    mask = dens >= threshold * dens.max()
    energy = np.array([clock_symbol_analytic(clock, float(r)) for r in rhos])
    scale = np.max(np.abs(energy))
    mismatch = np.abs(energy[:, None] - energy[None, :]) / scale
    peak = np.unravel_index(int(np.argmax(dens)), dens.shape)

    assert report.support_max == mismatch[mask].max()
    assert report.complement_max == (mismatch[~mask].max() if not mask.all() else 0.0)
    assert report.peak_mismatch == mismatch[peak]
    assert report.energy_scale == scale
    assert report.n_support == np.count_nonzero(mask)
    assert abs(beta.normalization - weights @ dens @ weights) <= 1e-14 * beta.normalization


def test_beta_and_check_hold_no_joint_table():
    """At j = 30 the (nodes x nodes) table alone would take 57 MB."""
    clock, psi = make_state(30.0)
    tracemalloc.start()
    try:
        beta = beta_distribution(psi, clock, clock)
        classical_constraint_check(beta, clock, clock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
