"""Classical limit: Darboux chart, pullback, Hamilton flow, joint distribution."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from clocklab.algebra import (
    build_clock,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
)
from clocklab import classical
from clocklab.classical import (
    beta_distribution,
    classical_constraint_check,
    classical_flow_rate,
    hamilton_check,
    map_F,
    pullback_two_form,
    two_form_coefficient,
)
from clocklab.constraint import (
    CompositeState,
    SpectralMatch,
    build_psi,
    gaussian_state,
    ladder_match,
    match_spectra,
    random_profile,
)
from clocklab.dynamics import energy_of_rho, quantum_flow_rate, resonant_ladder
from clocklab.families import lookup
from clocklab.gcs import coherent_table, coherent_vector

SU2 = intensive_su2_clock(10.0)
H4 = intensive_h4_clock(32.0)
SU11 = build_clock(build_su11_rep(0.5, 96))


def flat_nodes(rep):
    """The default grid of ``rep`` node by node, radius-major: (rho, phi, weight) arrays."""
    radii, phis, weights = lookup(rep.family).rings(rep)
    n = len(phis)
    return np.repeat(radii, n), np.tile(phis, len(radii)), np.repeat(weights, n)


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
        shell = 0.5 * clock.epsilon * float(np.sum(point.q ** 2 + point.p ** 2))
        assert abs(shell - energy_of_rho(clock, rho)) < 1e-12


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


def test_hamilton_grid_singularity_refusal():
    """A radial grid that touches rho = 0 is refused, not divided by zero."""
    with pytest.raises(ValueError, match="vanishes"):
        hamilton_check(SU2, (1.0,), np.linspace(0.0, 0.6, 5),
                       np.linspace(0.0, 2 * np.pi, 5, endpoint=False))


@pytest.mark.parametrize("clock, rho", [(SU2, 0.0), (SU2, np.pi / 2), (H4, 0.0)],
                         ids=["su2-origin", "su2-pole", "h4-origin"])
def test_classical_flow_rate_singularity_refusal(clock, rho):
    """The two-form refusal classical_flow_rate shares, at each chart singularity.

    classical_flow_rate reads rho = 0.5 only, so a one-radius grid of
    hamilton_check reaches the singular points.
    """
    with pytest.raises(ValueError, match="vanishes"):
        hamilton_check(clock, (1.0,), [rho], np.linspace(0.0, 2 * np.pi, 5, endpoint=False))


@pytest.mark.parametrize("clock", [SU2, H4], ids=["su2", "h4"])
@pytest.mark.parametrize("v", [(1.0,), (0.6, 0.8)], ids=["J1", "J2"])
def test_hamilton_identity_analytic(clock, v):
    """{x_j, H} = eps d(x_j)/dphi on a 20x20 grid, analytic partials."""
    report = hamilton_check(clock, v, np.linspace(0.1, 0.8, 20),
                            np.linspace(0.0, 2 * np.pi, 20, endpoint=False))
    assert report.max_residual < 1e-10
    assert report.method == "analytic"


def test_hamilton_identity_finite_difference():
    report = hamilton_check(SU2, (1.0,), np.linspace(0.2, 0.6, 5),
                            np.linspace(0.0, 2 * np.pi, 5, endpoint=False),
                            method="fd")
    assert report.max_residual < 1e-6


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
    rhos, phis, _ = flat_nodes(clock.rep)
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
    """The support at threshold 1 is the peak's tie: whole t classes of N nodes."""
    clock, psi = make_state(3.0)
    beta = beta_distribution(psi, clock, clock, threshold=1.0)
    dens = circulant_density(psi, clock)
    assert beta.support_counts.sum() == np.count_nonzero(dens == dens.max())
    assert beta.support_counts.sum() % clock.dim == 0
    assert dens[beta.peak] == dens.max()


@pytest.mark.parametrize("threshold", [1e-3, 1e-6])
@pytest.mark.parametrize("rho", [0.3, 0.55])
@pytest.mark.parametrize("j", [3.0, 5.0, 10.0, 20.0])
def test_constraint_check_equals_dense_reference(j, rho, threshold):
    """The streamed reductions equal those of the whole table and a node mask."""
    clock, psi = make_state(j, rho=rho)
    beta = beta_distribution(psi, clock, clock, threshold=threshold)
    report = classical_constraint_check(beta, clock, clock)

    rhos, _, weights = flat_nodes(clock.rep)
    table = coherent_table(clock.rep, *lookup(clock.rep.family).rings(clock.rep)[:2])
    dens = np.abs(table.conj().T @ psi.matrix @ table.conj()) ** 2
    mask = dens >= threshold * dens.max()
    energy = np.array([energy_of_rho(clock, float(r)) for r in rhos])
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


# --- beta against the two-pass sweep and the per-node circulant form --------

def streamed_beta(psi, clock_c, clock_g, threshold):
    """(normalization, peak, support_counts) by sweeping every clock ring twice.

    The first pass sums the weighted |beta|^2 and finds the first maximum
    in row-major order; the second counts the support against the known
    cut, ring pair by ring pair.  Rows are the same left-to-right products
    as ``BetaDistribution.values``.
    """
    (rho_c, _, w_c), (rho_g, _, w_g) = flat_nodes(clock_c.rep), flat_nodes(clock_g.rep)
    mc, mg = (coherent_table(rep, *lookup(rep.family).rings(rep)[:2])
              for rep in (clock_c.rep, clock_g.rep))
    mg_conj = mg.conj()
    bounds_c = np.r_[0, np.flatnonzero(np.diff(rho_c)) + 1, len(rho_c)]
    starts_g = np.r_[0, np.flatnonzero(np.diff(rho_g)) + 1]
    rings_c = list(zip(bounds_c[:-1], bounds_c[1:]))

    def dens(a, b):
        return np.abs((mc[:, a:b].conj().T @ psi.matrix) @ mg_conj) ** 2

    col_sums = np.zeros(len(rho_g))
    peak_val, peak = -1.0, (0, 0)
    for a, b in rings_c:
        d = dens(a, b)
        col_sums += w_c[a:b] @ d
        i, k = np.unravel_index(int(np.argmax(d)), d.shape)
        if d[i, k] > peak_val:
            peak_val, peak = d[i, k], (int(a + i), int(k))
    cut = threshold * peak_val
    counts = np.array([np.add.reduceat(np.count_nonzero(dens(a, b) >= cut, axis=0), starts_g)
                       for a, b in rings_c])
    return float(col_sums @ w_g), peak, counts


def circulant_density(psi, clock):
    """|beta|^2 at every (clock node, system node), evaluated per node in circulant form.

    For psi on one diagonal m = n + delta and both sides on ``clock``'s
    nodes, beta at clock ring r, azimuth 2 pi a / N and system ring s,
    azimuth 2 pi b / N is exp(-i delta phi_b) times
    sum_n A[n, r] psi[n, n + delta] A[n + delta, s] exp(-2 pi i n t / N) with
    t = (a + b) mod N.  t is reduced before the exponential, so the N nodes
    of one t share one value bit for bit; the unimodular prefactor drops
    out of |beta|^2.  The sums are direct, not an FFT.
    """
    family = lookup(clock.rep.family)
    rho, phi, _ = flat_nodes(clock.rep)
    n_azim = clock.dim
    rows, cols = np.nonzero(psi.matrix)
    assert len(np.unique(cols - rows)) == 1
    radii, ring = np.unique(rho, return_inverse=True)
    amps = np.array([family.amplitudes(clock.rep, np.array([r]))[:, 0] for r in radii])
    coeff = amps[:, None, rows] * psi.matrix[rows, cols] * amps[None, :, cols]
    azim = np.rint(phi * n_azim / (2 * np.pi)).astype(int)
    t = (azim[:, None] + azim[None, :]) % n_azim
    per_t = coeff @ np.exp(-2j * np.pi * np.outer(np.arange(n_azim), rows) / n_azim).T
    return np.abs(per_t[ring[:, None], ring[None, :], t]) ** 2


def ring_starts(clock):
    """First node of each ring of ``clock``'s default nodes, read from their radii."""
    rho = flat_nodes(clock.rep)[0]
    return np.r_[0, np.flatnonzero(np.diff(rho)) + 1]


def ring_pair_counts(mask, clock):
    """Nodes of ``mask`` per (clock ring, system ring) pair, both sides on ``clock``'s nodes."""
    starts = ring_starts(clock)
    return np.add.reduceat(np.add.reduceat(mask.astype(np.int64), starts, axis=0),
                           starts, axis=1)


def ring_pair_and_t(node, clock):
    """(clock ring, system ring, t) of a (clock node, system node) on ``clock``'s nodes."""
    starts = ring_starts(clock)
    (r, a), (s, b) = ((np.searchsorted(starts, i, side="right") - 1, i) for i in node)
    return r, s, (a - starts[r] + b - starts[s]) % clock.dim


def beta_state(family, profile, size):
    """A clock paired with its own resonant ladder, Gaussian or seeded random profile."""
    if family == "su2":
        clock, rho = intensive_su2_clock(size), 0.3
    else:
        clock, rho = intensive_h4_clock(size), 3.5
    h_system = resonant_ladder(clock, clock.dim)
    if profile == "gaussian":
        return clock, gaussian_state(clock, h_system, energy_of_rho(clock, rho), 0.18)
    match = ladder_match(clock, h_system)
    return clock, build_psi(match, random_profile(match, seed=11))


BETA_STATES = [("su2", profile, j) for j in (3.0, 5.0, 10.0, 20.0)
               for profile in ("gaussian", "random")] + [("h4", "gaussian", 16.0)]


@pytest.mark.parametrize("threshold", [1e-3, 1e-6, 1.0])
@pytest.mark.parametrize("family, profile, size", BETA_STATES,
                         ids=[f"{f}-{p}-{s:g}" for f, p, s in BETA_STATES])
def test_beta_equals_the_streamed_sweep(family, profile, size, threshold):
    """The circulant route reproduces the per-node circulant form and the whole sweep.

    Against the per-node circulant form: the peak is its first row-major
    maximum and the support counts are its own, at every threshold.  At
    1e-3 and 1e-6 the counts are also identical to those of the sweep of
    the whole table, its normalization is Parseval's within roundoff and
    its peak lies on the same ring pair and t.  At threshold 1.0 the sweep
    is not compared: the N nodes of one t tie exactly, and its products
    round them apart.
    """
    clock, psi = beta_state(family, profile, size)
    beta = beta_distribution(psi, clock, clock, threshold=threshold)
    dens = circulant_density(psi, clock)
    assert beta.peak == tuple(np.argwhere(dens == dens.max())[0])
    assert np.array_equal(beta.support_counts, ring_pair_counts(
        dens >= threshold * dens.max(), clock))
    if threshold == 1.0:
        return
    norm, peak, counts = streamed_beta(psi, clock, clock, threshold)
    assert ring_pair_and_t(beta.peak, clock) == ring_pair_and_t(peak, clock)
    assert np.array_equal(beta.support_counts, counts)
    assert abs(beta.normalization - norm) <= 1e-14 * norm


@pytest.mark.parametrize("j", [5.0, 10.0])
def test_gaussian_beta_peak_breaks_exact_ties_row_major(j):
    """The maximum is attained at the N nodes of one t, and the peak is the first of them."""
    clock, psi = beta_state("su2", "gaussian", j)
    beta = beta_distribution(psi, clock, clock, threshold=1.0)
    dens = circulant_density(psi, clock)
    ties = np.argwhere(dens == dens.max())
    assert len(ties) % clock.dim == 0 and len(ties) >= clock.dim > 1
    assert beta.peak == tuple(ties[0])
    assert beta.peak[0] in ring_starts(clock)
    assert beta.support_counts.sum() == len(ties)


def spy(monkeypatch, name):
    """Record the calls to ``classical.<name>``."""
    calls, inner = [], getattr(classical, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(classical, name, wrapper)
    return calls


def test_beta_builds_no_coherent_table_for_a_diagonal_psi(monkeypatch):
    """Gaussian j = 20, a ladder match: the circulant route, no coherent table."""
    tables = spy(monkeypatch, "coherent_table")
    circulant = spy(monkeypatch, "_circulant_rows")
    clock, psi = beta_state("su2", "gaussian", 20.0)
    beta = beta_distribution(psi, clock, clock)
    classical_constraint_check(beta, clock, clock)
    assert (tables, circulant) == ([], ["_circulant_rows"])


@pytest.mark.parametrize("delta", [3, -2])
def test_off_diagonal_psi_takes_the_circulant_route(monkeypatch, delta):
    """psi on the diagonal m = n + delta: |beta|^2 still depends on t only."""
    circulant = spy(monkeypatch, "_circulant_rows")
    clock = intensive_su2_clock(10.0)
    n = np.arange(max(0, -delta), min(clock.dim, clock.dim - delta))
    rng = np.random.default_rng(5)
    matrix = np.zeros((clock.dim, clock.dim), dtype=complex)
    matrix[n, n + delta] = rng.normal(size=len(n)) + 1j * rng.normal(size=len(n))
    matrix /= np.linalg.norm(matrix)
    match = SpectralMatch(clock_evals=clock.energies, clock_basis=None,
                          system_evals=clock.energies, system_basis=None,
                          pairs=np.stack([n, n + delta], axis=1))
    psi = CompositeState(match=match, coefficients=matrix[n, n + delta],
                         entanglement_entropy=0.0)
    assert np.array_equal(psi.matrix, matrix)
    for threshold in (1e-3, 1e-6, 1.0):
        beta = beta_distribution(psi, clock, clock, threshold=threshold)
        dens = circulant_density(psi, clock)
        assert beta.peak == tuple(np.argwhere(dens == dens.max())[0])
        assert np.array_equal(beta.support_counts, ring_pair_counts(
            dens >= threshold * dens.max(), clock))
        assert abs(beta.normalization - 1.0) < 1e-12
    assert circulant == ["_circulant_rows"] * 3


@pytest.mark.parametrize("j", [3.0, 5.0])
def test_rotated_basis_psi_takes_the_streamed_route(monkeypatch, j):
    """A clock-side rotation spreads psi off one diagonal: the sweep's peak and counts."""
    circulant = spy(monkeypatch, "_circulant_rows")
    clock, psi = beta_state("su2", "random", j)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(clock.dim, clock.dim))
                        + 1j * rng.normal(size=(clock.dim, clock.dim)))
    rotated = dataclasses.replace(psi, match=dataclasses.replace(psi.match, clock_basis=q))
    for threshold in (1e-3, 1e-6, 1.0):
        beta = beta_distribution(rotated, clock, clock, threshold=threshold)
        norm, peak, counts = streamed_beta(rotated, clock, clock, threshold)
        assert beta.peak == peak
        assert np.array_equal(beta.support_counts, counts)
        assert abs(beta.normalization - norm) <= 1e-14 * norm
    assert circulant == []


def test_hamilton_check_keeps_nan():
    """A NaN radius after a finite one makes the residual NaN; max() used to drop it."""
    report = hamilton_check(SU2, [1.0], [0.3, float("nan")], [0.5])
    assert np.isnan(report.max_residual) and np.isnan(report.max_residual_q)
