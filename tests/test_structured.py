"""The structured routes of the linear algebra against their dense forms.

``residual_norm2`` picks a route by an exact predicate on the matrix:
weighted shift, hermitian or anti-hermitian (banded or dense), or the SVD.
Each route is compared with a spectral norm computed in the test from an
SVD.  ``_eigh`` and ``build_psi``'s entropy are compared with the LAPACK
calls they stand in for.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from clocklab.algebra import (
    _comm,
    _eigh,
    build_clock,
    build_h4_rep,
    build_su2_rep,
    residual_norm2,
    verify_cartan,
)
from clocklab.constraint import SpectralMatch, build_psi, ladder_match
from clocklab.dynamics import resonant_ladder
from clocklab.phase import build_phase_operator, commutator_check

# the eigenvalue and SVD routes both carry O(dim) rounding; this many ulps
# per dimension of the larger value is what "a few ulps" means below
ULPS_PER_DIM = 4


def svd_norm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0


def ulps(a, b):
    return abs(a - b) / np.spacing(max(abs(a), abs(b), np.finfo(float).tiny))


def assert_close_to_svd(m):
    got, ref = residual_norm2(m), svd_norm(m)
    assert ulps(got, ref) <= ULPS_PER_DIM * max(m.shape[0], 1), (got, ref)


# magnitudes away from the range where LAPACK rescales
scales = st.integers(-50, 50).map(lambda e: 10.0 ** e)
dims = st.integers(1, 12)


@st.composite
def weighted_shifts(draw, complex_entries):
    n = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.normal(size=n) * draw(scales)
    if complex_entries:
        w = w + 1j * rng.normal(size=n) * draw(scales)
    w[rng.random(n) < 0.25] = 0.0
    m = np.zeros((n, n), dtype=w.dtype)
    m[rng.permutation(n), rng.permutation(n)] = w
    return m


@st.composite
def hermitian_like(draw, anti, complex_entries, banded):
    n = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    a = a * draw(scales)
    m = a - a.conj().T if anti else a + a.conj().T
    if banded:
        i, j = np.indices((n, n))
        m[abs(i - j) > draw(st.integers(0, max(n // 2 - 1, 0)))] = 0.0
    return m


@pytest.mark.parametrize("complex_entries", [False, True])
def test_weighted_shift_norm_is_largest_entry(complex_entries):
    @given(weighted_shifts(complex_entries))
    def check(m):
        before = m.copy()
        assert residual_norm2(m) == float(np.abs(m).max())
        assert_close_to_svd(m)
        assert np.array_equal(m, before)

    check()


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("banded", [False, True])
def test_hermitian_norm_matches_svd(anti, complex_entries, banded):
    @given(hermitian_like(anti, complex_entries, banded))
    def check(m):
        before = m.copy()
        assert_close_to_svd(m)
        assert np.array_equal(m, before)

    check()


def _spy(monkeypatch, name):
    calls = []
    original = getattr(scipy.linalg, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, name, spy)
    return calls


@pytest.mark.parametrize("anti", [False, True])
def test_route_follows_the_bandwidth(monkeypatch, anti):
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = a - a.conj().T if anti else a + a.conj().T
    i, j = np.indices(m.shape)
    tri = np.where(abs(i - j) <= 3, m, 0.0)  # 2 * 3 + 1 < 9
    residual_norm2(tri)
    assert (banded, dense) == (["eigvals_banded"], [])
    wide = np.where(abs(i - j) <= 4, m, 0.0)  # 2 * 4 + 1 = 9
    residual_norm2(wide)
    assert (banded, dense) == (["eigvals_banded"], ["eigvalsh"])


def test_non_normal_matrix_takes_the_svd(monkeypatch):
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(5)
    jordan = 2.0 * np.eye(7) + np.diag(np.ones(6), 1) + 1e-3 * rng.normal(size=(7, 7))
    assert residual_norm2(jordan) == np.linalg.norm(jordan, 2)
    assert residual_norm2(jordan + 1j * jordan.T) == np.linalg.norm(jordan + 1j * jordan.T, 2)
    # one nonzero per row but two in a column, and the transpose: not shifts
    column = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    for m in (column, column.T):
        assert residual_norm2(m) == np.linalg.norm(m, 2) > 2.0
    assert banded == dense == []


def test_zero_and_nan_residuals():
    assert residual_norm2(np.zeros((4, 4))) == 0.0
    m = np.diag([1.0, np.nan, 2.0])
    assert np.isnan(residual_norm2(m))


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=15,
                unique=True))
def test_ascending_diagonal_eigh_is_bit_identical(values):
    h = np.diag(np.sort(np.array(values)))
    if np.any(np.diff(np.diag(h)) <= 0):  # -0.0 and 0.0 are both drawn
        return
    assert _bits(*_eigh(h)) == _bits(*np.linalg.eigh(h))


@pytest.mark.parametrize("h", [
    np.diag([0.0, 2.0, 1.0, 2.0, 0.0]),      # degenerate and unsorted
    np.diag([0.0, 1.0, 1.0, 3.0]),           # degenerate
    np.diag([3.0, 1.0, 2.0]),                # unsorted
    np.diag([1.0, 2.0]) + np.diag([0.5], 1) + np.diag([0.5], -1),  # not diagonal
    np.diag([1.0, 2.0]).astype(complex),     # not real
    np.diag([2.0 ** -500, 2.0 ** -490]),    # rescaled by LAPACK
])
def test_other_matrices_fall_back_to_eigh(h):
    assert _bits(*_eigh(h)) == _bits(*np.linalg.eigh(h))


def test_unsorted_diagonal_needs_the_fallback():
    """For diag(0,2,1,2,0) LAPACK's eigenvector order is not a stable argsort."""
    d = np.array([0.0, 2.0, 1.0, 2.0, 0.0])
    _, vecs = np.linalg.eigh(np.diag(d))
    assert not np.array_equal(vecs, np.eye(5)[:, np.argsort(d, kind="stable")])


def _entropy(mat):
    probs = np.linalg.svd(mat, compute_uv=False) ** 2
    probs = probs[probs > 1e-300]
    return float(-np.sum(probs * np.log(probs)))


@given(st.integers(0, 2 ** 32 - 1))
def test_entropy_of_a_diagonal_psi(seed):
    clock = build_clock(build_su2_rep(6.0))
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    rng = np.random.default_rng(seed)
    coeff = rng.normal(size=len(match.pairs)) + 1j * rng.normal(size=len(match.pairs))
    psi = build_psi(match, coeff)
    assert np.count_nonzero(psi.matrix - np.diag(np.diagonal(psi.matrix))) == 0
    assert abs(psi.entanglement_entropy - _entropy(psi.matrix)) <= 1e-14


def test_entropy_of_a_dense_psi():
    rng = np.random.default_rng(7)
    vc = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    vg = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    energies = np.arange(6.0)
    match = SpectralMatch(clock_evals=energies, clock_evecs=vc, system_evals=energies[:5],
                          system_evecs=vg, pairs=tuple((k, k) for k in range(5)), tol=1e-9)
    psi = build_psi(match, rng.normal(size=5) + 1j * rng.normal(size=5))
    assert np.count_nonzero(psi.matrix) == psi.matrix.size
    assert psi.entanglement_entropy == _entropy(psi.matrix)


@pytest.mark.parametrize("rep", [build_su2_rep(20.0), build_h4_rep(64)])
def test_diagonal_products_match_the_gemms(rep):
    d, r = rep.diagonal_ops[0], rep.raising_ops[0]
    assert np.array_equal(_comm(d, r), d @ r - r @ d)
    clock = build_clock(rep)
    phase = build_phase_operator(clock)
    sin = phase.sin_phi
    m = clock.h_c @ sin - sin @ clock.h_c - 1j * clock.epsilon * phase.cos_phi
    report = commutator_check(clock, phase)
    assert ulps(report.full_residual, svd_norm(m)) <= ULPS_PER_DIM * clock.dim
    m[[0, -1], :] = 0.0
    m[:, [0, -1]] = 0.0
    assert ulps(report.interior_residual, svd_norm(m)) <= ULPS_PER_DIM * clock.dim


def test_cartan_residuals_are_the_svd_norms():
    """Every verify_cartan residual of a ladder family is a weighted shift."""
    rep = build_su2_rep(40.0)
    d, r = rep.diagonal_ops[0], rep.raising_ops[0]
    ladder = d @ r - r @ d - rep.structure_d[0, 0] * r
    closure = r @ r.T - r.T @ r - rep.closure_q[0] * d
    report = verify_cartan(rep)
    assert report.ladder_relations == svd_norm(ladder)
    assert report.closure_relation == svd_norm(closure)
