"""Coherent-state construction, symbols, and the identity resolution."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from clocklab.algebra import (
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
)
from clocklab.constraint import conditional_state, gaussian_state
from clocklab.dynamics import energy_of_rho, quantum_flow_rate, resonant_ladder
from clocklab import gcs
from clocklab.families import lookup
from clocklab.gcs import (
    TAIL_MASS_LIMIT,
    clock_symbol_analytic,
    clock_symbol_numeric,
    coherent_table,
    coherent_vector,
    displace,
    identity_resolution_check,
    phi_derivative_identity_check,
)


@pytest.mark.parametrize("j", [0.5, 2.0, 10.0, 25.0])
def test_bch_closed_form_matches_exponential_su2(j):
    """Normalized closed-form amplitudes equal the exponential map, spin case."""
    rep = build_su2_rep(j)
    worst = 0.0
    for rho in np.linspace(0.05, 0.7, 6):
        for phi in np.linspace(0.0, 2 * np.pi, 6, endpoint=False):
            direct = displace(rep, [rho], [phi])[:, 0]
            closed = coherent_vector(rep, rho, phi)
            worst = max(worst, float(np.linalg.norm(direct - closed)))
    assert worst < 1e-10


def test_bch_closed_form_matches_exponential_h4():
    """Same disentangling check on the truncated oscillator."""
    rep = build_h4_rep(48)
    sub = rep.valid_dim
    worst = 0.0
    for rho in np.linspace(0.05, 1.5, 6):
        direct = displace(rep, [rho], [0.7])[:, 0]
        closed = coherent_vector(rep, rho, 0.7)
        worst = max(worst, float(np.linalg.norm(direct[:sub] - closed[:sub])))
    assert worst < 1e-10


def test_bch_closed_form_matches_exponential_su11():
    """Hyperbolic branch: tanh amplitudes against the exponential map."""
    rep = build_su11_rep(0.5, 96)
    sub = rep.valid_dim
    for rho in (0.1, 0.3, 0.5):
        direct = displace(rep, [rho], [1.1])[:, 0]
        closed = coherent_vector(rep, rho, 1.1)
        assert np.linalg.norm(direct[:sub] - closed[:sub]) < 1e-10


GRID_ORACLE_CASES = {
    "su2-j0.5": (lambda: build_su2_rep(0.5), 0.7),
    "su2-j2": (lambda: build_su2_rep(2.0), 0.7),
    "su2-j10": (lambda: build_su2_rep(10.0), 0.7),
    "su2-j25": (lambda: build_su2_rep(25.0), 0.7),
    "h4-cut48": (lambda: build_h4_rep(48), 1.5),
    "su11-k1-cut96": (lambda: build_su11_rep(1.0, 96), 0.5),
}


@pytest.mark.parametrize("name", list(GRID_ORACLE_CASES))
def test_displace_grid_columns_are_the_per_point_exponentials(name):
    """Column k len(phis) + a is expm(rho_k G_a) ref within (k + 2) dim u max(1, ||rho_k G_a||).

    The grid reaches column k with k + 1 matrix-vector products: exp(rho_0
    G_a) ref, then k products with S_a = exp(step G_a).  Every exact factor
    is unitary (G_a is anti-hermitian), so each product adds at most
    gamma_dim ~ dim u to the error of a unit vector, and each Pade
    exponential, backward stable, is off by about dim u max(1, ||A||) at
    its argument A, whose norm is at most ||rho_k G_a|| here.  With the
    per-point reference's own exponential that is k + 2 terms of dim u
    max(1, ||rho_k G_a||) at most.
    """
    build, rho_max = GRID_ORACLE_CASES[name]
    rep = build()
    radii = np.linspace(0.02, rho_max, 12)
    phis = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    grid = displace(rep, radii, phis)
    r_op = rep.raising_ops[0]
    ref = rep.reference_state.astype(complex)
    for k, rho in enumerate(radii):
        for a, phi in enumerate(phis):
            gen = rho * (np.exp(1j * phi) * r_op.conj().T - np.exp(-1j * phi) * r_op)
            want = scipy.linalg.expm(gen) @ ref
            bound = (k + 2) * rep.dim * U * max(1.0, np.linalg.norm(gen, 2))
            assert np.linalg.norm(grid[:, k * len(phis) + a] - want) <= bound, (k, a)


def test_displace_refuses_uneven_radii_and_takes_a_linspace_grid():
    """The walk needs one step: radii off it by more than a few ulps are refused.
    linspace(0.02, 0.9, 6) sets its last point to 0.9, one ulp above the walk."""
    rep = build_su2_rep(2.0)
    for radii in ([0.1, 0.2, 0.4], [0.1, 0.2, 0.3 + 1e-12], [0.1, np.nan, 0.3], [np.inf]):
        with pytest.raises(ValueError, match="evenly spaced"):
            displace(rep, radii, [0.0])
    radii = np.linspace(0.02, 0.9, 6)
    walk = radii[0] + (radii[-1] - radii[0]) / 5 * np.arange(6)
    assert radii[-1] - walk[-1] == np.spacing(radii[-1])
    grid = displace(rep, radii, [0.4])
    assert np.linalg.norm(grid[:, -1] - coherent_vector(rep, 0.9, 0.4)) < 1e-14


def test_displace_walks_each_ray_with_two_exponentials(monkeypatch):
    """At most two ``expm`` calls per azimuth, and no closed-form amplitude:
    the oracle stays independent of the route it checks."""
    calls = []
    real = gcs.expm
    monkeypatch.setattr(gcs, "expm", lambda a: calls.append(a.shape) or real(a))

    def refuse(*args):
        raise AssertionError("displace read the closed-form amplitudes")

    monkeypatch.setattr(gcs, "amplitude_columns", refuse)
    phis = np.linspace(0.0, 2 * np.pi, 7, endpoint=False)
    displace(build_su2_rep(10.0), np.linspace(0.02, 0.7, 12), phis)
    assert len(calls) <= 2 * len(phis)
    calls.clear()
    displace(build_h4_rep(48), [0.5], phis)
    assert len(calls) == len(phis)


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
        displace(rep, [3.5], [0.0])


def test_coherent_state_object():
    """A coherent state is its normalized vector."""
    vec = coherent_vector(build_su2_rep(2.0), 0.4, 1.3)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-14


def test_overlap_peaks_at_equal_labels():
    rep = build_su2_rep(5.0)
    a = coherent_vector(rep, 0.5, 0.4)
    assert abs(np.vdot(a, a) - 1.0) < 1e-12
    b = coherent_vector(rep, 0.9, 2.0)
    assert abs(np.vdot(a, b)) < 1.0


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


def test_identity_resolution_su2():
    """(4j+4)^2 nodes resolve the identity to 1e-8 for j <= 5."""
    for j in (1.0, 3.0, 5.0):
        nodes = int(4 * j + 4)
        dev = identity_resolution_check(build_su2_rep(j), n_polar=nodes, n_azim=nodes)
        assert dev < 1e-8


def test_identity_resolution_h4():
    dev = identity_resolution_check(build_h4_rep(48), n_polar=160, n_azim=48)
    assert dev < 1e-6


U = np.finfo(float).eps / 2  # unit roundoff


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), the relative error of n roundings."""
    return n * U / (1 - n * U)


def outer_sum_bound(vectors, weights):
    """Bound on the 2-norm between two roundings of sum_k w_k |v_k><v_k|.

    Entry (i, j) of either sum is off the exact one by at most
    sqrt(2) gamma_{2N+2} S_ij, S = sum_k |w_k| |v_k| |v_k|^T: the per-node
    loop takes one complex product (sqrt(2) gamma_2), one real scaling and
    N - 1 additions per entry; the product forms a complex inner product of
    length N, two real ones of length 2N, plus the scaling and the
    hermitian average.  Any summation order satisfies these, so the two
    differ by at most twice that, and ||E||_2 <= ||E||_F <= 2 sqrt(2)
    gamma_{2N+2} ||S||_F <= 2 sqrt(2) gamma_{2N+2} sum_k |w_k| ||v_k||^2.
    """
    n = len(weights)
    mass = float(np.sum(np.abs(weights) * np.sum(np.abs(vectors) ** 2, axis=1)))
    return 2 * np.sqrt(2) * gamma(2 * n + 2) * mass


def per_node_outer_sum(vectors, weights):
    """Reference: one outer product per row, in row order."""
    acc = np.zeros((vectors.shape[1], vectors.shape[1]), dtype=complex)
    for v, w in zip(vectors, weights):
        acc += w * np.outer(v, v.conj())
    return acc


def per_node_identity_sum(rep, n_polar=None, n_azim=None):
    """Reference: one closed-form vector and one outer product per node.

    Each vector is a one-column ``coherent_table`` (``coherent_vector``
    refuses the truncated h4 nodes a quadrature keeps on purpose).  Returns
    the accumulated matrix, the node vectors and the weights.
    """
    radii, phis, ring_weights = lookup(rep.family).rings(rep, n_polar, n_azim)
    nv = rep.valid_dim
    vectors = np.array([coherent_table(rep, [rho], [phi])[:nv, 0]
                        for rho in radii for phi in phis])
    weights = np.repeat(ring_weights, len(phis))
    return per_node_outer_sum(vectors, weights), vectors, weights


@pytest.mark.parametrize("rep, n_polar, n_azim", [
    (build_su2_rep(3.0), 24, 24),
    (build_h4_rep(48), 160, 48),
    (build_h4_rep(48), 8, 24),
], ids=["su2-j3", "h4-cut48", "h4-cut48-inexact"])
def test_identity_resolution_equals_per_node_reference(rep, n_polar, n_azim):
    """The ring sum is the per-node sum's within the summation bound, and so is the deviation.

    |dev - ref| <= ||acc - ref_acc||_2 by the triangle inequality; the two
    2-norm evaluations (eigenvalues, SVD) add a backward error of at most
    nv^2 u times the norm each.  The third case is no exact rule: 8 radii,
    below the default 12, and the fewest azimuths ``rings`` accepts
    (n_azim = valid_dim = 24) leave a deviation of 0.15, and the two sums
    agree on what the rule gets wrong as well.
    """
    ref_acc, vectors, weights = per_node_identity_sum(rep, n_polar, n_azim)
    nv = rep.valid_dim
    acc = gcs._ring_sum(rep, n_polar, n_azim)[:nv, :nv]
    bound = outer_sum_bound(vectors, weights)
    assert np.linalg.norm(acc - ref_acc, 2) <= bound
    dev = identity_resolution_check(rep, n_polar=n_polar, n_azim=n_azim)
    ref = float(np.linalg.norm(ref_acc - np.eye(nv), 2))
    assert abs(dev - ref) <= bound + nv ** 2 * U * (dev + ref)


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.integers(1, 40).map(lambda two_j: build_su2_rep(two_j / 2)),
                 st.integers(4, 64).map(build_h4_rep)))
def test_quadrature_sum_is_hermitian_and_within_the_bound(rep):
    """su2 j in [1/2, 20] and h4 cuts 4..64 at the default rule."""
    ref_acc, vectors, weights = per_node_identity_sum(rep)
    acc = gcs._ring_sum(rep)[:rep.valid_dim, :rep.valid_dim]
    assert np.array_equal(acc, acc.conj().T)
    assert np.linalg.norm(acc - ref_acc, 2) <= outer_sum_bound(vectors, weights)


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


def test_point_queries_refuse_a_radius_the_cutoff_truncates():
    """h4 mean 24 (dim 67) at rho = 6 loses 2.5e-6 of the norm: the symbol would be off by 7e-6."""
    clock = intensive_h4_clock(24.0)
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, 1.0), 0.2)
    with pytest.raises(ValueError, match="loses norm"):
        coherent_vector(clock.rep, 6.0, 0.0)
    with pytest.raises(ValueError, match="loses norm"):
        conditional_state(psi, clock, 6.0, 0.3)
    with pytest.raises(ValueError, match="loses norm"):
        quantum_flow_rate(psi, clock, h_system, 6.0)
    # the quadrature tables cut the tail on purpose and stay unguarded
    column = coherent_table(clock.rep, [6.0], [0.0])[:, 0]
    assert 1.0 - np.vdot(column, column).real > TAIL_MASS_LIMIT


def test_su11_refuses_a_radius_where_tanh_rounds_to_one():
    """At rho = 50 tanh(rho) is 1.0 and log1p(-1) is -inf, so every amplitude
    is 0: the lost norm is 1 and refused, with no divide-by-zero warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="loses norm 1.000e"):
            coherent_vector(build_su11_rep(1.5, 24), 50.0, 0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 81, 801, 40001])
def test_phase_table_is_the_direct_exponential_within_rounding(dim):
    """The angle-addition table against np.exp(1j * n * phi), phi in [-2 pi, 4 pi].

    Rounding an argument x moves exp(i x) by at most u |x|, u = eps / 2.
    The direct form rounds n phi; angle addition rounds q B phi and r phi,
    whose moduli sum to |n phi|.  Each exponential is within one ulp, at
    most u, in each part, so sqrt(2) u in modulus (three of them, one
    direct), and a complex product of two unit numbers adds at most
    sqrt(5) u.  So |table - direct| <= 2 u |n phi| + (3 sqrt(2) + sqrt(5)) u,
    which is below eps (|n phi| + 4).  At phi = 0 every entry is exactly 1.
    """
    rng = np.random.default_rng(dim)
    phis = np.concatenate(([0.0, -2 * np.pi, 4 * np.pi], rng.uniform(-2 * np.pi, 4 * np.pi, 13)))
    arg = np.multiply.outer(np.arange(dim), phis)
    table = gcs._phase_table(dim, phis)
    assert table.shape == (dim, len(phis))
    eps = np.finfo(float).eps
    assert (np.abs(table - np.exp(1j * arg)) <= eps * (np.abs(arg) + 4)).all()
    assert table[:, 0].tobytes() == np.ones(dim, dtype=complex).tobytes()


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -0.5])
def test_point_queries_refuse_a_radius_that_is_not_finite(rho):
    """A NaN radius used to give an all-NaN state: ``radii < 0`` is False for NaN."""
    for rep in (build_su2_rep(3.0), build_h4_rep(24)):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            coherent_vector(rep, rho, 0.0)
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            coherent_table(rep, [0.2, rho], [0.0, 0.0])


def test_point_queries_refuse_a_nan_lost_norm(monkeypatch):
    """``lost.max() > limit`` is False for NaN: the tail guard let NaN amplitudes through."""
    monkeypatch.setattr(gcs, "amplitude_columns",
                        lambda rep, radii: np.full((rep.dim, len(radii)), np.nan))
    with pytest.raises(ValueError, match="loses norm nan"):
        coherent_vector(build_su2_rep(3.0), 0.2, 0.0)


@pytest.mark.parametrize("level", [0.45, 0.55])
def test_large_clock_h4_probe_keeps_its_norm(level):
    """The benchmark's h4 probe (mean 200, rho up to 10.5) carries mass 1e-5 above
    valid_dim, which displace's test would refuse, but loses no norm."""
    clock = intensive_h4_clock(200.0)
    vec = coherent_vector(clock.rep, float(np.sqrt(level * 200.0)), 0.4)
    assert abs(1.0 - np.vdot(vec, vec).real) < 1e-12


def test_an_untruncated_rep_has_no_tail_to_guard():
    """su2 is never cut: at j = 50000, rho = pi/4 the amplitudes' own roundoff
    loses 1.5e-10 of the norm, which the tail limit used to refuse."""
    rep = build_su2_rep(50000.0)
    amps = lookup("su2").amplitudes(rep, np.pi / 4)
    assert 1.0 - np.sum(amps ** 2) > TAIL_MASS_LIMIT
    vec = coherent_vector(rep, np.pi / 4, 0.3)
    assert abs(np.vdot(vec, vec).real - 1.0) < 1e-9


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("rep", [build_su2_rep(3.0), build_h4_rep(24), build_su11_rep(1.5, 24)],
                         ids=["su2", "h4", "su11"])
def test_every_rep_refuses_a_lost_norm_that_is_not_finite(monkeypatch, rep, value):
    """The limit reads only what a cutoff loses; a NaN or infinite lost norm is
    refused with or without a cutoff."""
    monkeypatch.setattr(gcs, "amplitude_columns",
                        lambda rep, radii: np.full((rep.dim, len(radii)), value))
    with pytest.raises(ValueError, match="loses norm"):
        coherent_vector(rep, 0.2, 0.0)
