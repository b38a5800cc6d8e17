"""Exact invariants of every registered family, drawn with hypothesis.

Each test runs once per name in ``families.FAMILIES`` over a few
representation sizes, with rho drawn from the tail-safe range: the radii
at which the closed-form state leaves at most 1e-12 of its mass above the
valid subspace, so the truncation is not felt.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from clocklab.algebra import build_clock, build_h4_rep, build_su2_rep, build_su11_rep
from clocklab.classical import map_F
from clocklab.constraint import conditional_state, gaussian_state
from clocklab.dynamics import energy_of_rho, resonant_ladder
from clocklab.families import FAMILIES
from clocklab.phase import build_phase_operator, uncertainty_audit
from clocklab.gcs import (
    amplitude_columns,
    clock_symbol_numeric,
    coherent_table,
    coherent_vector,
    displace,
    identity_resolution_check,
)

REPS = {
    "su2": lambda: [build_su2_rep(j) for j in (0.5, 1.0, 2.5, 10.0, 20.0)],
    "h4": lambda: [build_h4_rep(n) for n in (16, 32, 64)],
    "su11": lambda: [build_su11_rep(k, n) for k, n in ((0.5, 32), (1.0, 32), (2.0, 64))],
}
# Family.label of each rep in REPS, in order: the name its check ids carry
LABELS = {
    "su2": ["su2-j0.5", "su2-j1.0", "su2-j2.5", "su2-j10.0", "su2-j20.0"],
    "h4": ["h4-n17", "h4-n33", "h4-n65"],
    "su11": ["su11-k0.5-n33", "su11-k1.0-n33", "su11-k2.0-n65"],
}
RHO_CAP = 1.5
TAIL = 1e-12

names = pytest.mark.parametrize("name", sorted(FAMILIES))


def _tail(rep, rho):
    # the unguarded table: coherent_vector refuses the radii this bisection probes
    v = coherent_table(rep, [rho], [0.0])[:, 0]
    return 1.0 - float(np.sum(np.abs(v[:rep.valid_dim]) ** 2))


@functools.cache
def cases(name):
    """(rep, largest tail-safe rho) for each test size of the family."""
    out = []
    for rep in REPS[name]():
        lo, hi = 0.0, RHO_CAP
        if _tail(rep, hi) > TAIL:
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _tail(rep, mid) <= TAIL else (lo, mid)
        else:
            lo = hi
        out.append((rep, lo))
    return out


def points(name):
    """(rep, rho, phi) with rho in the rep's tail-safe range."""
    return st.tuples(st.sampled_from(cases(name)),
                     st.floats(0.0, 1.0),
                     st.floats(0.0, 2 * np.pi)).map(
        lambda t: (t[0][0], t[1] * t[0][1], t[2]))


scales = st.sampled_from([0.05, 1.0, 3.0])


# sizes for the quadrature property: su2 j in {0.5 .. 60}, h4 cut in {4 .. 256}
QUADRATURE_SIZES = {
    "su2": st.integers(1, 120).map(lambda two_j: build_su2_rep(two_j / 2)),
    "h4": st.integers(4, 256).map(build_h4_rep),
}


@names
def test_label_names_the_rep(name):
    """j and k as the rep holds them, the dimension for the truncated families."""
    assert [FAMILIES[name].label(rep) for rep in REPS[name]()] == LABELS[name]


@names
def test_default_quadrature_resolves_the_identity(name):
    """The default nodes are exact on the valid subspace: the deviation is roundoff.

    A family without a normalizable measure refuses to give nodes.
    """
    if name not in QUADRATURE_SIZES:
        with pytest.raises(ValueError, match="no normalizable manifold measure"):
            FAMILIES[name].rings(REPS[name]()[0])
        return

    @settings(max_examples=8)
    @given(QUADRATURE_SIZES[name])
    @example(build_su2_rep(0.5) if name == "su2" else build_h4_rep(4))
    @example(build_su2_rep(60.0) if name == "su2" else build_h4_rep(256))
    @example(build_su2_rep(2.5) if name == "su2" else build_h4_rep(5))
    @example(build_su2_rep(59.5) if name == "su2" else build_h4_rep(255))
    def check(rep):
        assert identity_resolution_check(rep) <= 1e-12

    check()


def test_half_integer_spin_takes_j_plus_half_radial_nodes():
    """At j = 5/2 the degree-5 integrand needs 3 Gauss-Legendre nodes; 2 are not exact."""
    rep = build_su2_rep(2.5)
    assert len(FAMILIES["su2"].rings(rep)[0]) == 3
    assert identity_resolution_check(rep, n_polar=2) > 0.1


@pytest.mark.parametrize("j", [1100.0, 2000.0, 20000.0])
def test_su2_amplitudes_stay_finite_at_large_spin(j):
    """Past j ~ 1024 exp(ln_binom) overflowed before the powers underflowed:
    663 NaN entries at j = 1100 and rho = 0.3, 39537 at j = 20000."""
    rep = build_su2_rep(j)
    for rho in (0.0, 0.05, 0.3, np.pi / 4, 1.2, np.pi / 2, 2.0):
        amps = FAMILIES["su2"].amplitudes(rep, np.array([rho]))[:, 0]
        assert not np.isnan(amps).any()
        assert abs(np.sum(amps ** 2) - 1.0) < 1e-9
    # past pi/2 the cosine is negative: c_n(rho) = (-1)^(2j - n) c_n(pi - rho)
    mirror = ((-1.0) ** (2 * j - np.arange(rep.dim))
              * FAMILIES["su2"].amplitudes(rep, np.array([np.pi - 2.0]))[:, 0])
    assert np.abs(amps - mirror).max() < 1e-9


def test_rings_are_the_default_nodes():
    """The default grid is the radial rule times rep.dim uniform azimuths, one weight per radius.

    A family without a normalizable measure refuses.
    """
    for rep in ([build_su2_rep(j) for j in (0.5, 3.0, 10.5, 40.0)]
                + [build_h4_rep(n) for n in (4, 48, 256)]):
        family = FAMILIES[rep.family]
        radii, phis, weights = family.rings(rep)
        rule = family._radial_rule(rep, None, rep.dim)
        assert np.array_equal(radii, rule[0]) and np.array_equal(weights, rule[1])
        assert np.array_equal(phis, 2 * np.pi * np.arange(rep.dim) / rep.dim)
        for given, default in zip(family.rings(rep, n_azim=rep.dim), (radii, phis, weights)):
            assert np.array_equal(given, default)
    with pytest.raises(ValueError, match="no normalizable manifold measure"):
        FAMILIES["su11"].rings(build_su11_rep(1.0, 32))


@pytest.mark.parametrize("j", [3.0, 10.5, 40.0])
def test_rings_reuse_one_gauss_legendre_rule(j):
    """The su2 rule is leggauss's, computed once per node count: the cached
    radii are read-only, and changing what one call returned changes
    nothing the next call returns."""
    rep, family = build_su2_rep(j), FAMILIES["su2"]
    x, w = np.polynomial.legendre.leggauss(int(np.floor(j)) + 1)
    expected = (np.arccos(x) / 2.0, 2 * np.pi * np.arange(rep.dim) / rep.dim,
                (2 * j + 1) * w / (2.0 * rep.dim))
    radii, phis, weights = family.rings(rep)
    with pytest.raises(ValueError, match="read-only"):
        radii[0] = 1.0
    phis[:] = 0.0
    weights[:] = 0.0
    for again, ref in zip(family.rings(rep), expected):
        assert again.tobytes() == ref.tobytes()


def test_nodes_refuse_an_aliasing_azimuthal_grid():
    """Fewer phase points than the valid dimension alias the cross terms n - m.

    With 24 x 24 nodes, su2 j = 30 used to report a silent 7.8e-3.
    """
    rep = build_su2_rep(30.0)
    with pytest.raises(ValueError, match="aliases"):
        FAMILIES["su2"].rings(rep, n_azim=rep.valid_dim - 1)
    with pytest.raises(ValueError, match="aliases"):
        identity_resolution_check(rep, n_polar=24, n_azim=24)
    radii, phis, weights = FAMILIES["su2"].rings(rep, n_azim=rep.valid_dim)
    assert (len(radii), len(phis), len(weights)) == (31, 61, 31)


def test_h4_nodes_refuse_overflowing_laguerre_weights():
    """Above about 180 nodes the weights w e^u of the Laguerre rule are not finite."""
    rep = build_h4_rep(48)
    with pytest.raises(ValueError, match="overflow"):
        FAMILIES["h4"].rings(rep, n_polar=200)
    assert np.isfinite(FAMILIES["h4"].rings(rep, n_polar=160)[2]).all()


@names
def test_displace_equals_closed_form(name):
    @given(points(name))
    def check(point):
        rep, rho, phi = point
        direct = displace(rep, [rho], [phi])[:, 0]
        closed = coherent_vector(rep, rho, phi)
        nv = rep.valid_dim
        assert np.linalg.norm(direct[:nv] - closed[:nv]) <= 1e-10

    check()


@names
def test_coherent_table_columns_equal_coherent_vector(name):
    """Column r len(phis) + a is the state at (radii[r], phis[a]), bit for bit.

    Radii repeat (as no quadrature's do) and include 0; each column equals
    the per-point closed form written here, and so does ``coherent_vector``.
    The reference takes its phases by angle addition as the library does,
    exp(i q B phi) exp(i r phi) with n = q B + r and B = ceil(sqrt(dim));
    ``test_gcs`` bounds their distance from the direct exp(i n phi).
    """
    fractions = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)

    @given(st.sampled_from(cases(name)),
           st.lists(fractions, min_size=1, max_size=5),
           st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=5))
    def check(case, fracs, phis):
        rep, rho_max = case
        radii = [f * rho_max for f in fracs]
        table = coherent_table(rep, radii, phis)
        assert table.shape == (rep.dim, len(radii) * len(phis))
        block = math.isqrt(rep.dim - 1) + 1
        q, rem = np.divmod(np.arange(rep.dim), block)
        for r, rho in enumerate(radii):
            for a, phi in enumerate(phis):
                phase = np.exp(1j * (q * block) * phi) * np.exp(1j * rem * phi)
                per_point = FAMILIES[name].amplitudes(rep, np.array([rho]))[:, 0] * phase
                assert table[:, r * len(phis) + a].tobytes() == per_point.tobytes()
                assert coherent_vector(rep, rho, phi).tobytes() == per_point.tobytes()

    check()


# --- one family call per sweep: the array forms against the one-radius forms -

def one_radius_amplitudes(rep, rho):
    """The amplitudes at the radius ``rho`` (a float), written out as each
    family evaluated them one radius a call: the array form's reference."""
    n = np.arange(rep.dim, dtype=float)
    if rep.family == "su2":
        two_j = 2 * rep.params["j"]
        ln_binom = 0.5 * (gammaln(two_j + 1) - gammaln(n + 1) - gammaln(two_j - n + 1))
        s, c = np.sin(rho), np.cos(rho)
        with np.errstate(over="ignore", invalid="ignore"):
            amps = np.exp(ln_binom) * s ** n * c ** (two_j - n)
        bad = ~np.isfinite(amps)
        if bad.any():
            m = n[bad]
            sign = np.sign(s) ** m * np.sign(c) ** (two_j - m)
            with np.errstate(divide="ignore"):
                amps[bad] = sign * np.exp(ln_binom[bad] + m * np.log(abs(s))
                                          + (two_j - m) * np.log(abs(c)))
        return amps
    origin = np.zeros(rep.dim)
    origin[0] = 1.0
    if rep.family == "h4":
        if rho == 0.0:
            return origin
        return np.exp(n * np.log(rho) - 0.5 * gammaln(n + 1) - rho * rho / 2.0)
    k = rep.params["k"]
    t = np.tanh(rho)
    if t == 0.0:
        return origin
    ln_poch = 0.5 * (gammaln(2 * k + n) - gammaln(n + 1) - gammaln(2 * k))
    with np.errstate(divide="ignore"):
        return np.exp(ln_poch + n * np.log(t) + k * np.log1p(-t * t))


def one_radius_symbol(clock, rho):
    """The closed-form symbol at the radius ``rho`` (a float), as a float."""
    eps, b2 = clock.epsilon, clock.b2
    if clock.rep.family == "su2":
        return float(0.5 * eps * b2 * (np.cos(2 * rho) - 1.0))
    if clock.rep.family == "h4":
        return float(eps * rho * rho)
    return float(0.5 * eps * b2 * (np.cosh(2 * rho) - 1.0))


# su2 j in [1/2, 20] and past j ~ 1024, where the binomial is summed in logs;
# h4 cuts 4 to 300; su11 k in {1/2, 1, 3/2}
SWEEP_REPS = {
    "su2": st.integers(1, 40).map(lambda two_j: build_su2_rep(two_j / 2))
    | st.sampled_from([1100.0, 2000.0]).map(build_su2_rep),
    "h4": st.integers(4, 300).map(build_h4_rep),
    "su11": st.tuples(st.sampled_from([0.5, 1.0, 1.5]), st.integers(4, 120)).map(
        lambda kn: build_su11_rep(*kn)),
}
# su2 past pi/2 has a negative cosine; su11 runs to where tanh(rho) rounds to 1 (19.06)
SWEEP_CAP = {"su2": np.pi, "h4": 25.0, "su11": 19.5}


def sweeps(name):
    marked = st.sampled_from([0.0, np.pi / 4, np.pi / 2, 2.0, 3.0])
    return st.lists(marked | st.floats(0.0, SWEEP_CAP[name]), min_size=1, max_size=6).map(
        lambda radii: np.array(radii, dtype=float))


@names
def test_amplitude_table_columns_are_the_one_radius_form(name):
    """Column r of ``amplitudes(rep, radii)`` is the one-radius form at radii[r], byte for byte."""
    @settings(max_examples=40, deadline=None)
    @given(SWEEP_REPS[name], sweeps(name))
    def check(rep, radii):
        table = FAMILIES[name].amplitudes(rep, radii)
        assert table.shape == (rep.dim, len(radii))
        for r, rho in enumerate(radii):
            assert table[:, r].tobytes() == one_radius_amplitudes(rep, float(rho)).tobytes()

    check()


@names
def test_symbol_entries_are_the_scalar_form(name):
    """Entry r of ``symbol(clock, radii)`` is the scalar closed form at radii[r], bit for bit."""
    @settings(max_examples=40, deadline=None)
    @given(SWEEP_REPS[name], sweeps(name), scales)
    def check(rep, radii, scale):
        clock = build_clock(rep, scale=scale)
        values = FAMILIES[name].symbol(clock, radii)
        assert values.shape == radii.shape
        for r, rho in enumerate(radii):
            assert float(values[r]) == one_radius_symbol(clock, float(rho))
            assert energy_of_rho(clock, float(rho)) == one_radius_symbol(clock, float(rho))

    check()


@names
def test_a_sweep_makes_one_family_call(name, monkeypatch):
    """The 12 radii of the bch-check grid make one ``amplitudes`` call, not twelve."""
    family, calls = FAMILIES[name], []

    def spy(rep, radii):
        calls.append(len(radii))
        return type(family).amplitudes(family, rep, radii)

    monkeypatch.setattr(family, "amplitudes", spy)
    table = amplitude_columns(REPS[name]()[0], np.linspace(0.02, 0.7, 12))
    assert calls == [12]
    assert table.shape[1] == 12


def test_a_large_spin_table_peaks_at_two_tables():
    """su2 j = 2000 on 200 radii sums most columns in logs, one column at a
    time: the peak stays at the table and one temporary, as with one family
    call per radius (a 2-D index of the overflowed entries took 8.8 tables)."""
    rep, radii = build_su2_rep(2000.0), np.linspace(0.0, np.pi, 200)
    tracemalloc.start()
    try:
        table = amplitude_columns(rep, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (rep.dim, 200)
    assert peak < 2.2 * table.nbytes, peak / table.nbytes


@names
def test_numeric_symbol_equals_closed_form(name):
    @given(points(name), scales)
    def check(point, scale):
        rep, rho, phi = point
        clock = build_clock(rep, scale=scale)
        analytic = energy_of_rho(clock, rho)
        tol = dict(rel=1e-8, abs=1e-12 * clock.epsilon * rep.dim)
        # <lambda|h_c|lambda> at the drawn phi as well: the symbol is phi-independent
        v = coherent_vector(rep, rho, phi)
        assert float(np.vdot(v, clock.energies * v).real) == pytest.approx(analytic, **tol)
        assert clock_symbol_numeric(clock, [rho])[0] == pytest.approx(analytic, **tol)

    check()


@names
def test_chart_hamiltonian_equals_symbol(name):
    @given(points(name), scales, st.sampled_from([(1.0,), (0.6, 0.8)]))
    def check(point, scale, v):
        rep, rho, phi = point
        clock = build_clock(rep, scale=scale)
        analytic = energy_of_rho(clock, rho)
        darboux = map_F(rho, phi, v, clock)
        shell = 0.5 * clock.epsilon * float(np.sum(darboux.q ** 2 + darboux.p ** 2))
        assert shell == pytest.approx(analytic, rel=1e-12, abs=1e-14 * clock.epsilon)

    check()


@names
def test_clock_lowers_by_the_gap_on_exact_subspace(name):
    @given(st.sampled_from(cases(name)), scales)
    def check(case, scale):
        rep, _ = case
        clock = build_clock(rep, scale=scale)
        r_op = clock.rep.raising_ops[0]
        resid = clock.h_c @ r_op - r_op @ clock.h_c + clock.epsilon * r_op
        exact = rep.exact_dim
        bound = 1e-14 * np.linalg.norm(clock.h_c) * np.linalg.norm(r_op)
        assert np.abs(resid[:exact, :exact]).max() <= bound

    check()


@names
def test_chi2_is_phase_independent_for_the_recipe_state(name):
    @given(points(name), st.floats(0.0, 2 * np.pi), st.sampled_from([0.1, 0.5]))
    def check(point, phi2, width):
        rep, rho, phi = point
        clock = build_clock(rep)
        psi = gaussian_state(clock, resonant_ladder(clock, clock.dim),
                             center=energy_of_rho(clock, rho),
                             width=width * clock.epsilon * rep.dim)
        a = conditional_state(psi, clock, rho, phi).chi2
        b = conditional_state(psi, clock, rho, phi2).chi2
        assert abs(a - b) <= 1e-13

    check()


# the cyclic completion of the phase unitary may lower the slack by this much
WRAP = 1e-13


def _wrap(clock, rho):
    """Bound on how far the cyclic completion can push the slack below zero.

    [H_C, sin] - i eps cos is nonzero only between the two edge rungs, in
    entries of modulus at most dim * eps / 2, so Robertson's inequality
    keeps the slack above -(dim * eps / 2) |c_0| |c_top|.
    """
    amps = np.abs(coherent_vector(clock.rep, rho, 0.0))
    return 0.5 * clock.dim * clock.epsilon * amps[0] * amps[-1]


@functools.cache
def phase_cases(name):
    """(clock, phase operator, largest tail- and wrap-guarded rho) per test size."""
    out = []
    for rep, rho_max in cases(name):
        clock = build_clock(rep)
        # the bound rises and falls again (su2), so find its first crossing on
        # a grid before bisecting
        grid = np.linspace(0.0, rho_max, 401)
        over = [k for k, rho in enumerate(grid) if _wrap(clock, rho) > WRAP]
        lo = rho_max
        if over:
            lo, hi = grid[over[0] - 1], grid[over[0]]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _wrap(clock, mid) <= WRAP else (lo, mid)
        out.append((clock, build_phase_operator(clock), lo))
    return out


@names
def test_uncertainty_slack_is_nonnegative(name):
    """dH * dsin >= (eps/2)|<cos>| up to 1e-12 wherever the completion is not felt."""
    @given(st.sampled_from(phase_cases(name)), st.floats(0.0, 1.0),
           st.floats(0.0, 2 * np.pi))
    def check(case, fraction, phi):
        clock, phase, rho_max = case
        vec = coherent_vector(clock.rep, fraction * rho_max, phi)
        assert uncertainty_audit(vec, clock, phase).slack >= -1e-12

    check()
