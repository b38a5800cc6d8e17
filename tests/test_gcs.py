"""Coherent-state construction, symbols, and the identity resolution."""

import struct

import numpy as np
import pytest

from clocklab.algebra import (
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
)
from clocklab.families import lookup
from clocklab.gcs import (
    clock_symbol_analytic,
    clock_symbol_numeric,
    coherent_state,
    coherent_vector,
    displace,
    identity_resolution_check,
    overlap,
    phi_derivative_identity_check,
    symbol,
)


@pytest.mark.parametrize("j", [0.5, 2.0, 10.0, 25.0])
def test_bch_closed_form_matches_exponential_su2(j):
    """Normalized closed-form amplitudes equal the exponential map, spin case."""
    rep = build_su2_rep(j)
    worst = 0.0
    for rho in np.linspace(0.05, 0.7, 6):
        for phi in np.linspace(0.0, 2 * np.pi, 6, endpoint=False):
            direct = displace(rep, rho * np.exp(1j * phi)).vector
            closed = coherent_vector(rep, rho, phi)
            worst = max(worst, float(np.linalg.norm(direct - closed)))
    assert worst < 1e-10


def test_bch_closed_form_matches_exponential_h4():
    """Same disentangling check on the truncated oscillator."""
    rep = build_h4_rep(48)
    sub = rep.valid_dim
    worst = 0.0
    for rho in np.linspace(0.05, 1.5, 6):
        direct = displace(rep, rho * np.exp(0.7j)).vector
        closed = coherent_vector(rep, rho, 0.7)
        worst = max(worst, float(np.linalg.norm(direct[:sub] - closed[:sub])))
    assert worst < 1e-10


def test_bch_closed_form_matches_exponential_su11():
    """Hyperbolic branch: tanh amplitudes against the exponential map."""
    rep = build_su11_rep(0.5, 96)
    sub = rep.valid_dim
    for rho in (0.1, 0.3, 0.5):
        direct = displace(rep, rho * np.exp(1.1j)).vector
        closed = coherent_vector(rep, rho, 1.1)
        assert np.linalg.norm(direct[:sub] - closed[:sub]) < 1e-10


def test_coherent_vector_is_normalized():
    for rep, rho in ((build_su2_rep(7.5), 1.2), (build_h4_rep(64), 2.0),
                     (build_su11_rep(1.0, 96), 0.4)):
        v = coherent_vector(rep, rho, 0.3)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_reference_point_is_reference_state():
    """rho = 0 reproduces the reference state for every family."""
    for rep in (build_su2_rep(3.0), build_h4_rep(12), build_su11_rep(0.5, 12)):
        v = coherent_vector(rep, 0.0, 0.9)
        assert np.linalg.norm(v - rep.reference_state) < 1e-15


def test_displace_tail_guard():
    """Pushing a truncated family past its valid subspace raises."""
    rep = build_h4_rep(12)
    with pytest.raises(ValueError):
        displace(rep, 3.5)


def test_coherent_state_object():
    state = coherent_state(build_su2_rep(2.0), 0.4, 1.3)
    assert state.family == "su2"
    assert abs(state.lam - 0.4 * np.exp(1.3j)) < 1e-15
    assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-14


def test_overlap_peaks_at_equal_labels():
    rep = build_su2_rep(5.0)
    a = coherent_state(rep, 0.5, 0.4)
    assert abs(overlap(a, a) - 1.0) < 1e-12
    b = coherent_state(rep, 0.9, 2.0)
    assert abs(overlap(a, b)) < 1.0


def test_symbol_su2_closed_form():
    """Spin clock symbol matches (eps*b2/2)(cos(2 rho) - 1) to 1e-10."""
    clock = build_clock(build_su2_rep(6.0))
    for rho in np.linspace(0.0, 0.7, 11):
        numeric = clock_symbol_numeric(clock, rho)
        analytic = clock_symbol_analytic(clock, rho)
        expected = (clock.epsilon * clock.b2 / 2.0) * (np.cos(2 * rho) - 1.0)
        assert abs(analytic - expected) < 1e-14
        assert abs(numeric - analytic) < 1e-10


def test_symbol_h4_closed_form():
    """Oscillator symbol is eps * rho^2 with relative error below 1e-8."""
    clock = intensive_h4_clock(24.0)
    for rho in np.linspace(0.1, 1.5, 8):
        numeric = clock_symbol_numeric(clock, rho)
        analytic = clock_symbol_analytic(clock, rho)
        assert abs(analytic - clock.epsilon * rho * rho) < 1e-14
        assert abs(numeric - analytic) / abs(analytic) < 1e-8


def test_symbol_su11_cosh_branch():
    """Hyperbolic symbol follows the cosh form on the guarded range."""
    clock = build_clock(build_su11_rep(0.5, 96))
    for rho in np.linspace(0.05, 0.5, 6):
        numeric = clock_symbol_numeric(clock, rho)
        expected = (clock.epsilon * clock.b2 / 2.0) * (np.cosh(2 * rho) - 1.0)
        assert abs(clock_symbol_analytic(clock, rho) - expected) < 1e-14
        assert abs(numeric - expected) / abs(expected) < 1e-8


def test_symbol_general_operator():
    """symbol() is just the coherent expectation of an arbitrary operator."""
    rep = build_su2_rep(1.0)
    state = coherent_state(rep, 0.6, 0.2)
    op = np.diag([0.0, 1.0, 5.0])
    direct = np.vdot(state.vector, op @ state.vector)
    assert abs(symbol(op, state) - direct) < 1e-14


def test_identity_resolution_su2():
    """(4j+4)^2 nodes resolve the identity to 1e-8 for j <= 5."""
    for j in (1.0, 3.0, 5.0):
        nodes = int(4 * j + 4)
        dev = identity_resolution_check(build_su2_rep(j), n_polar=nodes, n_azim=nodes)
        assert dev < 1e-8


def test_identity_resolution_h4():
    dev = identity_resolution_check(build_h4_rep(48), n_polar=160, n_azim=48)
    assert dev < 1e-6


def per_node_identity_deviation(rep, n_polar, n_azim):
    """Reference: one coherent_vector call and one outer product per node."""
    rhos, phis, weights = lookup(rep.family).nodes(rep, n_polar, n_azim)
    nv = rep.valid_dim
    acc = np.zeros((nv, nv), dtype=complex)
    for rho, phi, w in zip(rhos, phis, weights):
        v = coherent_vector(rep, float(rho), float(phi))[:nv]
        acc += w * np.outer(v, v.conj())
    return float(np.linalg.norm(acc - np.eye(nv), 2))


@pytest.mark.parametrize("rep, n_polar, n_azim", [
    (build_su2_rep(3.0), 24, 24),
    (build_h4_rep(48), 160, 48),
], ids=["su2-j3", "h4-cut48"])
def test_identity_resolution_equals_per_node_reference(rep, n_polar, n_azim):
    """The deviation is the per-node sum's, bit for bit."""
    dev = identity_resolution_check(rep, n_polar=n_polar, n_azim=n_azim)
    ref = per_node_identity_deviation(rep, n_polar, n_azim)
    assert struct.pack("<d", dev) == struct.pack("<d", ref)


def test_identity_resolution_su11_not_claimed():
    with pytest.raises(ValueError):
        identity_resolution_check(build_su11_rep(0.5, 16))


def test_phi_derivative_identity():
    """<lam|H_C|Om> = i eps d/dphi <lam|Om> with second-order convergence."""
    clock = intensive_su2_clock(8.0)
    result = phi_derivative_identity_check(clock, rho=0.5, phi=0.7,
                                           omega=0.45 * np.exp(0.3j))
    assert result.residual < 1e-8
    assert 1.8 < result.slope < 2.2
