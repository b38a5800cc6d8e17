"""Zero-energy composite states and conditional-state identities."""

import numpy as np
import pytest
import scipy.linalg

from clocklab import constraint, gcs
from clocklab.algebra import (
    build_clock, build_h4_rep, build_su11_rep, build_su2_rep, intensive_h4_clock, intensive_su2_clock,
)
from clocklab.constraint import (
    _conditional_rows,
    build_psi,
    chi2_identity_residual,
    conditional_state,
    gaussian_profile,
    gaussian_state,
    ladder_match,
    match_spectra,
    precs_decomposition_check,
    random_profile,
    reduced_density_clock,
    reduced_density_gamma,
)
from clocklab.dynamics import energy_of_rho, resonant_ladder
from clocklab.families import lookup
from clocklab.gcs import coherent_table, coherent_vector


def make_state(j=6.0, rho=0.5, width=0.2):
    clock = intensive_su2_clock(j)
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), width)
    return clock, h_system, ladder_match(clock, h_system), psi


def outer_product_sum(match, coefficients):
    """Reference for build_psi: sum_k c_k |e_k> (x) |f_k>, one pair at a time."""
    c = np.asarray(coefficients, dtype=complex)
    c = c / np.linalg.norm(c)
    mat = np.zeros((match.clock_evecs.shape[0], match.system_evecs.shape[0]), dtype=complex)
    for c_k, (i, j) in zip(c, match.pairs):
        mat += c_k * np.outer(match.clock_evecs[:, i], match.system_evecs[:, j])
    return mat


def test_build_psi_matches_outer_product_sum_on_ladder():
    """On the resonant spin ladder each entry gets one term: equal bit for bit.

    With complex coefficients the matrix product may give -0.0 where the
    running sum gives +0.0, so that case compares values, not bytes.
    """
    clock = intensive_su2_clock(40.0)
    match = match_spectra(clock.h_c, resonant_ladder(clock, clock.dim),
                          tol=1e-9 * clock.epsilon)
    gaussian = gaussian_profile(match, energy_of_rho(clock, 0.45), 0.2)
    psi = build_psi(match, gaussian)
    assert psi.matrix.tobytes() == outer_product_sum(match, gaussian).tobytes()
    complex_profile = random_profile(match, seed=5)
    psi = build_psi(match, complex_profile)
    assert np.array_equal(psi.matrix, outer_product_sum(match, complex_profile))


def test_build_psi_matches_outer_product_sum_on_dense_pair():
    """Non-diagonal hermitian factors: the sums differ only in rounding order."""
    rng = np.random.default_rng(3)

    def hermitian_with(evals):
        z = rng.normal(size=(len(evals), len(evals))) + 1j * rng.normal(size=(len(evals),) * 2)
        q, _ = np.linalg.qr(z)
        return q @ np.diag(evals) @ q.conj().T

    h_clock = hermitian_with([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    h_system = hermitian_with([1.0, 2.5, 3.0, 4.0, 7.0])
    match = match_spectra(h_clock, h_system, tol=1e-9)
    assert len(match.pairs) == 3
    coefficients = random_profile(match, seed=7)
    psi = build_psi(match, coefficients)
    assert np.max(np.abs(psi.matrix - outer_product_sum(match, coefficients))) <= 1e-14


def test_match_spectra_finds_all_pairs():
    """Every degenerate coincidence is returned, not just a greedy matching."""
    h_clock = np.diag([0.0, 1.0, 2.0])
    h_system = np.diag([1.0, 1.0, 5.0])
    match = match_spectra(h_clock, h_system, tol=1e-9)
    assert match.pairs.tolist() == [[1, 0], [1, 1]]


def test_match_spectra_tolerance_window():
    """The pairs are an (n, 2) intp array, (0, 2) when nothing matches."""
    h_clock = np.diag([0.0, 1.0])
    h_system = np.diag([1.0 + 5e-10, 3.0])
    for tol, expected in ((1e-9, [[1, 0]]), (1e-12, [])):
        pairs = match_spectra(h_clock, h_system, tol=tol).pairs
        assert pairs.dtype == np.intp
        assert pairs.shape == (len(expected), 2)
        assert pairs.tolist() == expected


def test_total_hamiltonian_annihilates_psi():
    """The composite state is a numerically exact zero mode of
    H = kron(h_c, I) - kron(I, h_system) on the product space."""
    clock, h_system, _, psi = make_state()
    eye = np.eye(clock.dim)
    h_total = np.kron(clock.h_c, eye) - np.kron(eye, np.diag(h_system))
    assert np.linalg.norm(h_total @ psi.matrix.reshape(-1)) < 1e-12


def test_psi_is_normalized_and_entangled():
    _, _, _, psi = make_state()
    assert abs(np.linalg.norm(psi.matrix.reshape(-1)) - 1.0) < 1e-12
    assert psi.entanglement_entropy > 0.5


def test_single_pair_psi_warns_and_separates():
    """A one-pair kernel is a product state: zero entropy, with a warning."""
    clock = intensive_su2_clock(2.0)
    h_system = resonant_ladder(clock, 1)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    with pytest.warns(UserWarning):
        psi = build_psi(match, np.ones(1))
    assert psi.entanglement_entropy < 1e-12


def test_build_psi_refusals():
    clock = intensive_su2_clock(2.0)
    # a ladder half a gap off resonance shares no level with the clock
    detuned = clock.epsilon * (np.arange(3) + 0.5)
    match = match_spectra(clock.h_c, detuned, tol=1e-9 * clock.epsilon)
    with pytest.raises(ValueError, match="no matched pairs"):
        build_psi(match, np.ones(0))
    good = match_spectra(clock.h_c, resonant_ladder(clock, 3), tol=1e-9 * clock.epsilon)
    with pytest.raises(ValueError, match="coefficients"):
        build_psi(good, np.ones(2))
    with pytest.raises(ValueError, match="vanish"):
        build_psi(good, np.zeros(3))


def test_random_profile_is_seeded():
    _, _, match, _ = make_state()
    a = random_profile(match, seed=7)
    b = random_profile(match, seed=7)
    c = random_profile(match, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_conditional_state_chi2_is_phase_free():
    """chi2 depends on rho only; conditioning angle drops out."""
    clock, _, _, psi = make_state()
    chis = [conditional_state(psi, clock, 0.5, phi).chi2
            for phi in (0.0, 0.9, 2.2, 5.1)]
    assert max(chis) - min(chis) < 1e-14
    assert chis[0] > 0


def test_conditional_state_normalization():
    clock, _, _, psi = make_state()
    cond = conditional_state(psi, clock, 0.45, 1.2)
    n = cond.normalized
    assert abs(np.linalg.norm(n) - 1.0) < 1e-12
    assert np.linalg.norm(cond.unnormalized - np.sqrt(cond.chi2) * n) < 1e-12


def test_conditional_state_floor_refusal():
    """Conditioning where the distribution vanishes is refused, not NaN'd."""
    clock = intensive_su2_clock(3.0)
    h_system = resonant_ladder(clock, 1)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    with pytest.warns(UserWarning):
        psi = build_psi(match, np.ones(1))
    # the ground-pair state has amplitude cos^{2j}(rho); at rho = pi/2 it dies
    cond = conditional_state(psi, clock, np.pi / 2, 0.0)
    with pytest.raises(ValueError, match="chi2"):
        _ = cond.normalized


def product_roundoff_bound(bra, psi):
    """Entrywise bound between the gathered row and the dense ``conj(bra) @ psi.matrix``.

    With u the unit roundoff and gamma_2 = 2u / (1 - 2u): a ladder psi has
    one pair k = (i, j) in column j, so both routes form conj(bra_i) c_k
    plus exact zeros.  Each real part of that product is a sum of two real
    products, rounded once each and once added (one complex product), or
    fused (BLAS's multiply-add); either is within gamma_2 |bra_i||c_k| of
    the exact part, by Cauchy-Schwarz on the two terms.  The two routes
    therefore differ by at most 2 gamma_2 |bra_i||c_k| in each part and
    2 sqrt(2) gamma_2 |bra_i||c_k| in modulus.
    """
    u = np.finfo(float).eps / 2
    bound = np.zeros(psi.dim_system)
    for (i, j), c in zip(psi.match.pairs, psi.coefficients):
        bound[j] += abs(bra[i]) * abs(c)
    return 2 * np.sqrt(2) * (2 * u / (1 - 2 * u)) * bound


@pytest.mark.parametrize("make_clock, rhos", [
    (lambda: intensive_su2_clock(0.5), (0.1, 0.7)),
    (lambda: intensive_su2_clock(10.5), (0.2, 0.55)),
    (lambda: intensive_su2_clock(400.0), (0.3, 0.45)),
    (lambda: intensive_h4_clock(32.0), (1.0, 4.0)),
    (lambda: intensive_h4_clock(200.0), (2.0, 10.0)),
], ids=["su2-j0.5", "su2-j10.5", "su2-j400", "h4-mean32", "h4-mean200"])
@pytest.mark.parametrize("profile", ["gaussian", "random"])
def test_conditional_state_is_one_row_of_the_sweep(make_clock, rhos, profile):
    """<lambda|psi> has one route, the sweep's row, bit for bit; it is the dense
    per-point bra product within ``product_roundoff_bound``."""
    clock = make_clock()
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    if profile == "random":
        coeff = random_profile(match, seed=7)
    else:
        coeff = gaussian_profile(match, center=energy_of_rho(clock, rhos[-1]), width=0.2)
    psi = build_psi(match, coeff)
    matrix = psi.matrix
    for rho in rhos:
        for phi in (0.0, 0.9, 4.1):
            cond = conditional_state(psi, clock, rho, phi)
            row = _conditional_rows(psi, clock, rho, [phi])[0]
            assert cond.unnormalized.tobytes() == row.tobytes()
            assert cond.chi2 == float(np.real(np.vdot(row, row)))
            bra = coherent_vector(clock.rep, rho, phi)
            bra_product = np.conj(bra) @ matrix
            assert (np.abs(row - bra_product) <= product_roundoff_bound(bra, psi)).all()


def parent_psi_matrix(match, coefficients):
    """The dense psi as build_psi formed it when it stored the matrix: the
    coefficients scattered into zeros in the standard basis, else the GEMM."""
    idx_c, idx_g = match.pairs.T
    if match.clock_basis is None and match.system_basis is None:
        mat = np.zeros((len(match.clock_evals), len(match.system_evals)), dtype=complex)
        np.add.at(mat, (idx_c, idx_g), coefficients)
        return mat
    return (match.clock_evecs[:, idx_c] * coefficients) @ match.system_evecs[:, idx_g].T


@pytest.mark.parametrize("make_clock", [
    lambda: intensive_su2_clock(10.5),
    lambda: build_clock(build_su2_rep(40.0)),
    lambda: intensive_h4_clock(32.0),
    lambda: build_clock(build_h4_rep(64)),
    lambda: build_clock(build_su11_rep(1.5, 64)),
], ids=["su2-j10.5", "su2-j40", "h4-mean32", "h4-cut64", "su11-k1.5"])
@pytest.mark.parametrize("profile", ["gaussian", "random"])
def test_psi_stores_its_pairs_and_builds_the_parent_matrix(make_clock, profile):
    """A ladder psi holds its match and coefficients, no dim x dim array (the
    pairs are at most dim rows of two); its matrix has the bits of the matrix
    build_psi used to store, in the standard basis, off the diagonal and in a
    rotated basis."""
    clock = make_clock()
    rng = np.random.default_rng(11)
    q = np.linalg.qr(rng.normal(size=(clock.dim,) * 2) + 1j * rng.normal(size=(clock.dim,) * 2))[0]
    matches = [ladder_match(clock, resonant_ladder(clock, clock.dim)),
               ladder_match(clock, clock.epsilon * np.arange(3.0, 9.0)),
               match_spectra((q * clock.energies) @ q.conj().T, resonant_ladder(clock, 5),
                             tol=1e-9 * max(clock.epsilon, 1.0))]
    assert [match.clock_basis is None for match in matches] == [True, True, False]
    for match in matches:
        if profile == "random":
            coeff = random_profile(match, seed=3)
        else:
            coeff = gaussian_profile(match, center=match.clock_evals[match.pairs[:, 0]].mean(),
                                     width=0.3)
        psi = build_psi(match, coeff)
        assert psi.match is match
        assert psi.matrix.tobytes() == parent_psi_matrix(match, psi.coefficients).tobytes()
        if match.clock_basis is None:
            assert match.pairs.shape == (len(psi.coefficients), 2)
            assert len(match.pairs) <= clock.dim
            for value in [*vars(psi).values(), *vars(match).values()]:
                assert (not isinstance(value, np.ndarray) or value is match.pairs
                        or value.size <= clock.dim)


def test_chi2_equals_husimi_of_reduced_clock():
    """chi2(rho, phi) = <lam| rho_C |lam> for the reduced clock state."""
    clock, _, _, psi = make_state()
    worst = max(chi2_identity_residual(psi, clock, r, p)
                for r in (0.2, 0.5, 0.9) for p in (0.0, 1.4))
    assert worst < 1e-12


def test_reduced_densities_are_states():
    clock, _, _, psi = make_state()
    for dens in (reduced_density_clock(psi), reduced_density_gamma(psi)):
        assert abs(np.trace(dens) - 1.0) < 1e-12
        assert np.linalg.norm(dens - dens.conj().T) < 1e-13
        assert np.linalg.eigvalsh(dens)[0] > -1e-13


def test_reduced_density_spectra_match():
    """Both partial traces share the same nonzero spectrum (Schmidt)."""
    clock, _, _, psi = make_state()
    ev_c = np.sort(np.linalg.eigvalsh(reduced_density_clock(psi)))[::-1]
    ev_g = np.sort(np.linalg.eigvalsh(reduced_density_gamma(psi)))[::-1]
    k = min(len(ev_c), len(ev_g))
    assert np.max(np.abs(ev_c[:k] - ev_g[:k])) < 1e-12


def test_precs_decomposition_su2():
    """Integrating |lam><lam| x |Phi><Phi| over the manifold returns |psi><psi|."""
    clock, _, _, psi = make_state(j=4.0)
    nodes = int(2 * 4.0 + 2)
    resid = precs_decomposition_check(psi, clock, n_polar=nodes, n_azim=clock.dim)
    assert resid < 1e-12


def test_precs_decomposition_h4():
    clock = intensive_h4_clock(8.0)
    h_system = resonant_ladder(clock, 6)
    match = match_spectra(clock.h_c, h_system, tol=1e-9 * clock.epsilon)
    psi = build_psi(match, gaussian_profile(match, center=3 * clock.epsilon, width=0.1))
    resid = precs_decomposition_check(psi, clock, n_polar=96, n_azim=clock.dim)
    assert resid < 1e-8


def per_node_precs_residual(psi, clock, n_polar, n_azim):
    """Reference: one conditional_state call and one outer product per node."""
    rho_g = reduced_density_gamma(psi)
    acc = np.zeros_like(rho_g)
    radii, phis, weights = lookup(clock.rep.family).rings(clock.rep, n_polar, n_azim)
    for rho, w in zip(radii, weights):
        for phi in phis:
            vec = conditional_state(psi, clock, float(rho), float(phi)).unnormalized
            acc += w * np.outer(vec, vec.conj())
    return float(np.linalg.norm(acc - rho_g, 2))


def precs_roundoff_bound(psi, clock, n_polar, n_azim):
    """Bound on the 2-norm between two roundings of the PRECS sum.

    With u the unit roundoff, gamma_n = n u / (1 - n u) and b_k = |t_k|^T |psi|
    for the node vector t_k: each computed row r_k = t_k^H psi (one
    vector-matrix product per node, or one matrix product for all) is within
    sqrt(2) gamma_{2 dc} b_k of the exact row, entry by entry, so
    |r r^H| <= (1 + sqrt(2) gamma_{2 dc})^2 b b^T; summing the N weighted outer
    products adds sqrt(2) gamma_{2N+2} (see ``outer_sum_bound`` in
    test_gcs.py).  Each route is therefore within
    sqrt(2) (2 gamma_{2 dc} + gamma_{2N+2}) sum_k |w_k| b_k b_k^T of the exact
    sum up to second order, their difference within twice that, which
    2 sqrt(2) gamma_{2N + 4 dc + 4} bounds, and the 2-norm is at most the
    Frobenius norm of sum_k |w_k| b_k b_k^T, at most sum_k |w_k| ||b_k||^2.
    """
    u = np.finfo(float).eps / 2
    radii, phis, ring_weights = lookup(clock.rep.family).rings(clock.rep, n_polar, n_azim)
    weights = np.repeat(ring_weights, len(phis))
    b = np.abs(coherent_table(clock.rep, radii, phis)).T @ np.abs(psi.matrix)
    mass = float(np.sum(np.abs(weights) * np.sum(b ** 2, axis=1)))
    n = 2 * len(weights) + 4 * clock.dim + 4
    return 2 * np.sqrt(2) * n * u / (1 - n * u) * mass


@pytest.mark.parametrize("profile", ["gaussian", "random"])
def test_precs_decomposition_equals_per_node_reference(profile):
    """The residual is the per-node sum's within the PRECS roundoff bound.

    |resid - ref| <= ||acc - ref_acc||_2 <= bound by the triangle
    inequality; the two 2-norm evaluations add a backward error of at most
    dim^2 u times the norm each.
    """
    clock = intensive_su2_clock(10.0)
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    if profile == "gaussian":
        coeff = gaussian_profile(match, energy_of_rho(clock, 0.5), 0.2)
    else:
        coeff = random_profile(match, seed=3)
    psi = build_psi(match, coeff)
    resid = precs_decomposition_check(psi, clock, n_polar=22, n_azim=clock.dim)
    ref = per_node_precs_residual(psi, clock, 22, clock.dim)
    bound = precs_roundoff_bound(psi, clock, 22, clock.dim)
    u = np.finfo(float).eps / 2
    assert abs(resid - ref) <= bound + clock.dim ** 2 * u * (resid + ref)


def test_precs_decomposition_refuses_clock_dimension_mismatch():
    _, _, _, psi = make_state(j=5.0)
    with pytest.raises(ValueError, match="clock dimension"):
        precs_decomposition_check(psi, intensive_su2_clock(6.0), n_polar=8, n_azim=8)


def test_entropy_matches_schmidt_formula():
    """Entropy equals -sum s^2 log s^2 over singular values of the matrix."""
    _, _, _, psi = make_state()
    svals = np.linalg.svd(psi.matrix, compute_uv=False)
    probs = svals[svals > 1e-15] ** 2
    expected = float(-np.sum(probs * np.log(probs)))
    assert abs(psi.entanglement_entropy - expected) < 1e-12


@pytest.mark.parametrize("j", [10.0, 20.0])
def test_random_profile_precs_residual_takes_the_eigenvalue_route(monkeypatch, j):
    """A complex profile's PRECS residual is exactly hermitian: eigvalsh, no SVD."""
    calls = []

    def spy(name, inner):
        def wrapper(*args, **kwargs):
            if name != "norm" or args[1:2] == (2,):
                calls.append(name)
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "eigvalsh", spy("eigvalsh", scipy.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "norm", spy("norm", np.linalg.norm))
    clock = intensive_su2_clock(j)
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    psi = build_psi(match, random_profile(match, seed=3))
    g = reduced_density_gamma(psi)
    assert np.array_equal(g, g.conj().T)
    precs_decomposition_check(psi, clock)
    assert calls == ["eigvalsh"]


def test_chi2_identity_builds_one_coherent_table(monkeypatch):
    """The table's bra product gives chi2 and its column the density side's
    vector: the bits of conditional_state and coherent_vector, from one call."""
    clock, _, _, psi = make_state(j=10.0)
    cases = [(0.3, 0.0), (0.5, 1.7), (0.7, -2.2)]
    expected = []
    for rho, phi in cases:
        vec = coherent_vector(clock.rep, rho, phi)
        via_density = float(np.real(np.vdot(vec, reduced_density_clock(psi) @ vec)))
        expected.append(abs(conditional_state(psi, clock, rho, phi).chi2 - via_density))
    calls = []
    real = gcs.coherent_points

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (constraint, gcs):  # coherent_vector calls the one in gcs
        monkeypatch.setattr(module, "coherent_points", spy)
    for (rho, phi), want in zip(cases, expected):
        calls.clear()
        got = chi2_identity_residual(psi, clock, rho, phi)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert len(calls) == 1
