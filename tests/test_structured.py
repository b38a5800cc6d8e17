"""The structured routes of the linear algebra against their dense forms.

``residual_norm2`` picks a route by an exact predicate on the matrix's
nonzeros: weighted shift, hermitian or anti-hermitian (banded, banded after
the interleave of the ladder ends, or dense), or the SVD.  Each route is
compared with a spectral norm computed in the test from an SVD, and route
and bits with a copy of the dense-predicate form kept in the test.
``_eigh`` (a standard eigenbasis returned as None), the level pairing by
sorted windows, ``build_psi`` (its identity-basis scatter and its
entropy), the phase operator and its commutator residuals (formed on the
cyclic band) are compared with the dense products, outer comparisons or
LAPACK calls they stand in for;
``quantum_flow_rate`` (one table product and one least-squares closed
form) with a per-phi, per-component reference, within a roundoff bound the
test derives.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from clocklab import algebra
from clocklab.algebra import (
    LieAlgebraRep,
    _diagonal,
    _eigh,
    _interleave,
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
    residual_norm2,
    verify_cartan,
)
from clocklab.constraint import (
    SpectralMatch,
    _level_pairs,
    build_psi,
    conditional_state,
    gaussian_profile,
    gaussian_state,
    ladder_match,
    match_spectra,
    random_profile,
)
from clocklab.dynamics import energy_of_rho, quantum_flow_rate, resonant_ladder
from clocklab.gcs import coherent_table
from clocklab.phase import (
    PhaseOperator,
    build_phase_operator,
    commutator_check,
)

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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_entry_on_the_svd_route_is_nan(bad):
    """LAPACK's SVD refuses a NaN with LinAlgError; NaN fails the caller's gate."""
    m = np.arange(16.0).reshape(4, 4)
    m[1, 2] = bad
    assert np.isnan(residual_norm2(m))


def _route_matrix(route):
    """A 12 x 12 matrix that takes ``route``, and the entries to spoil on it:
    one entry alone (on the diagonal unless a shift), then a mirrored pair."""
    a = np.random.default_rng(17).normal(size=(12, 12))
    i, j = np.indices(a.shape)
    dist = abs(i - j)
    if route == "shift":  # the reversal, weighted: rows 3 and 8 hold one entry each
        return np.where(i + j == 11, a, 0.0), [[(3, 8)], [(3, 8), (8, 3)]]
    m = a + a.T
    if route == "banded":
        m = np.where(dist <= 1, m, 0.0)
    elif route == "interleaved":
        m = np.where(np.minimum(dist, 12 - dist) <= 1, m, 0.0)
    return m, [[(3, 3)], [(3, 4), (4, 3)]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("route", ["shift", "banded", "interleaved", "dense"])
def test_a_non_finite_entry_is_nan_on_every_route(monkeypatch, route, bad):
    """NaN before any route, with no LAPACK call: for an infinite entry, which
    passes the hermitian test, dsbevx raises "did not converge" and
    ``eigvalsh`` returns inf; dpbtrf factors a NaN without reporting it."""
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    definite = _spy_factorizations(monkeypatch)
    m, spoils = _route_matrix(route)
    residual_norm2(m)
    expected = {"shift": ([], [], set()), "banded": (banded_ends(12), [], set()),
                "interleaved": ([], [], {DPBTRF}), "dense": ([], DENSE_EIGVALSH, set())}
    assert (banded, dense, set(definite)) == expected[route]
    for entries in spoils:
        spoiled = m.copy()
        for at in entries:
            spoiled[at] = bad
        banded.clear()
        dense.clear()
        definite.clear()
        assert np.isnan(residual_norm2(spoiled))
        assert banded == dense == definite == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_energy_fails_the_commutator_gate(bad):
    """Both residuals are NaN, which no ``residual <= tolerance`` gate passes."""
    clock = build_clock(build_su2_rep(20.0))
    energies = clock.energies.copy()
    energies[5] = bad
    spoiled = dataclasses.replace(clock, energies=energies)
    with np.errstate(invalid="ignore"):  # inf * 0 on the band's zero diagonal
        report = commutator_check(spoiled, build_phase_operator(clock))
    assert np.isnan(report.interior_residual) and np.isnan(report.full_residual)
    assert not report.interior_residual <= 1e-10


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


def _recording(calls, name, fn):
    """``fn``, appending (name, select, select_range) of each call to ``calls``."""
    def spy(*args, **kwargs):
        calls.append((name, kwargs.get("select"), kwargs.get("select_range")))
        return fn(*args, **kwargs)
    return spy


def _spy(monkeypatch, name):
    calls = []
    monkeypatch.setattr(scipy.linalg, name, _recording(calls, name, getattr(scipy.linalg, name)))
    return calls


def _spy_factorizations(monkeypatch, calls=None):
    """One list (``calls``, or a new one) for the banded Cholesky calls of
    the definiteness route, real and complex."""
    calls = [] if calls is None else calls
    for name in ("dpbtrf", "zpbtrf"):
        monkeypatch.setattr(scipy.linalg.lapack, name,
                            _recording(calls, name, getattr(scipy.linalg.lapack, name)))
    return calls


def banded_ends(dim):
    """The calls of one tridiagonal norm with a nonzero diagonal: its smallest
    and its largest eigenvalue."""
    return [("eigvals_banded", "i", (k, k)) for k in (0, dim - 1)]


def banded_top(dim):
    """The call of one tridiagonal norm with a zero diagonal, whose spectrum
    is symmetric: its largest eigenvalue."""
    return [("eigvals_banded", "i", (dim - 1, dim - 1))]


def tridiagonal_calls(m):
    """The calls of the tridiagonal route on m, as its diagonal decides."""
    return (banded_ends if np.diagonal(m).any() else banded_top)(m.shape[0])


DENSE_EIGVALSH = [("eigvalsh", None, None)]
# a band of width b >= 2 is factored, a number of times set by its bisection
DPBTRF, ZPBTRF = ("dpbtrf", None, None), ("zpbtrf", None, None)


@pytest.mark.parametrize("anti", [False, True])
def test_route_follows_the_bandwidth(monkeypatch, anti):
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    definite = _spy_factorizations(monkeypatch)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = a - a.conj().T if anti else a + a.conj().T
    i, j = np.indices(m.shape)
    residual_norm2(np.where(abs(i - j) <= 1, m, 0.0))
    assert (banded, dense, definite) == (banded_ends(9), [], [])
    band = np.where(abs(i - j) <= 3, m, 0.0)  # 2 * 3 + 1 < 9
    residual_norm2(band)
    assert (banded, dense, set(definite)) == (banded_ends(9), [], {ZPBTRF})
    wide = np.where(abs(i - j) <= 4, m, 0.0)  # 2 * 4 + 1 = 9
    definite.clear()
    residual_norm2(wide)
    assert (banded, dense, definite) == (banded_ends(9), DENSE_EIGVALSH, [])


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


def test_a_matrix_that_is_not_square_is_refused():
    """Its mirror entries would fall outside it, so the triplet tests cannot hold."""
    with pytest.raises(ValueError, match="square"):
        residual_norm2(np.eye(2, 3))


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=15,
                unique=True))
def test_ascending_diagonal_eigh_is_bit_identical(values):
    h = np.diag(np.sort(np.array(values)))
    if np.any(np.diff(np.diag(h)) <= 0):  # -0.0 and 0.0 are both drawn
        return
    evals, basis = _eigh(h)
    view = SpectralMatch(clock_evals=evals, clock_basis=basis, system_evals=evals,
                         system_basis=basis, pairs=np.empty((0, 2), dtype=np.intp))
    assert _bits(evals, view.clock_evecs) == _bits(*np.linalg.eigh(h))
    top = np.abs(evals).max()
    assert (basis is None) == bool(top == 0.0 or 2.0 ** -485 <= top <= 2.0 ** 485)
    vec_evals, vec_basis = _eigh(np.diagonal(h).copy())
    assert vec_evals.tobytes() == evals.tobytes() and (vec_basis is None) == (basis is None)


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
    if _diagonal(h) is not None:  # the same matrix given as its diagonal
        assert _bits(*_eigh(np.diagonal(h).copy())) == _bits(*np.linalg.eigh(h))


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
    match = SpectralMatch(clock_evals=energies, clock_basis=vc, system_evals=energies[:5],
                          system_basis=vg, pairs=np.repeat(np.arange(5)[:, None], 2, axis=1))
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
    """Every verify_cartan residual of a ladder family is the SVD 2-norm of its
    dense relation, on the full space and on the exact subspace of a
    truncated family, whichever route computed it."""
    for rep in (build_su2_rep(40.0), build_h4_rep(64), build_su11_rep(1.5, 64)):
        inside = np.arange(rep.dim) < rep.exact_dim
        inside = np.outer(inside, inside)
        r, ops = rep.raising_ops[0], rep.diagonal_ops
        diag = max((svd_norm(a @ b - b @ a) for i, a in enumerate(ops) for b in ops[i + 1:]),
                   default=0.0)
        ladder = [d @ raising - raising @ d - rep.structure_d[delta, m] * raising
                  for m, raising in enumerate(rep.raising_ops)
                  for delta, d in enumerate(ops)]
        closure = r @ r.T - r.T @ r - sum(q * d for q, d in zip(rep.closure_q, ops))
        report = verify_cartan(rep, tol=1e-12)
        rest = (report.reference_annihilation, report.reference_weights)
        assert report.diagonal_commutators == diag
        assert report.ladder_relations == max(svd_norm(m) for m in ladder)
        assert report.closure_relation == svd_norm(closure)
        assert report.max_residual == max(diag, report.ladder_relations,
                                          report.closure_relation, *rest)
        sub = [svd_norm(np.where(inside, m, 0.0)) for m in (*ladder, closure)]
        assert report.max_residual_exact_subspace == max(*sub, diag, *rest)


# --- verify_cartan on the ladder's nonzeros -----------------------------------


def _comm(x, y):
    """[x, y]; with a diagonal x the products are broadcasts, with the GEMMs' bits."""
    d = _diagonal(x)
    if d is None:
        return x @ y - y @ x
    return d[:, None] * y - y * d


def dense_cartan(rep, tol=1e-12):
    """verify_cartan as the dense products: each relation a GEMM or a broadcast
    (``_comm``), the exact subspace by zeroing the border, the reference
    images as matrix-vector products, folded with Python's max."""
    def exact_norm(resid, full_norm):
        if rep.exact_dim == rep.dim:
            return full_norm
        resid[rep.exact_dim:, :] = 0.0
        resid[:, rep.exact_dim:] = 0.0
        return residual_norm2(resid)

    r_diag = 0.0
    for i, da in enumerate(rep.diagonal_ops):
        for db in rep.diagonal_ops[i + 1:]:
            r_diag = max(r_diag, residual_norm2(_comm(da, db)))
    r_ladder = r_ladder_sub = 0.0
    for m, r_op in enumerate(rep.raising_ops):
        for delta, d_op in enumerate(rep.diagonal_ops):
            resid = _comm(d_op, r_op) - rep.structure_d[delta, m] * r_op
            norm = residual_norm2(resid)
            r_ladder = max(r_ladder, norm)
            r_ladder_sub = max(r_ladder_sub, exact_norm(resid, norm))
    target = sum(q * d_op for q, d_op in zip(rep.closure_q, rep.diagonal_ops))
    r_op = rep.raising_ops[0]
    closure_resid = _comm(r_op, r_op.conj().T) - target
    r_close = residual_norm2(closure_resid)
    r_close_sub = exact_norm(closure_resid, r_close)
    ref = rep.reference_state
    r_annih = max(float(np.linalg.norm(r_op @ ref)) for r_op in rep.raising_ops)
    r_weights = max(float(np.linalg.norm(d_op @ ref - g * ref))
                    for d_op, g in zip(rep.diagonal_ops, rep.weights))
    full = max(r_diag, r_ladder, r_close, r_annih, r_weights)
    sub = max(r_diag, r_ladder_sub, r_close_sub, r_annih, r_weights)
    return algebra.CartanReport(r_diag, r_ladder, r_close, r_annih, r_weights, full, sub,
                                bool((sub if rep.truncated else full) <= tol))


def report_bytes(report):
    return [np.float64(x).tobytes() for x in dataclasses.astuple(report)]


CARTAN_REPS = {
    **{f"su2-j{j:g}": (lambda j=j: build_su2_rep(j))
       for j in (0.5, 1.0, 2.5, 10.0, 40.0, 80.0, 160.0, 400.0)},
    **{f"h4-cut{c}": (lambda c=c: build_h4_rep(c)) for c in (2, 3, 64, 317)},
    "h4-mean200": lambda: intensive_h4_clock(200.0).rep,
    "su11-k0.5-cut16": lambda: build_su11_rep(0.5, 16),
    "su11-k1.5-cut64": lambda: build_su11_rep(1.5, 64),
}


@pytest.mark.parametrize("name", list(CARTAN_REPS))
def test_verify_cartan_is_the_dense_check(name):
    """Every field byte for byte."""
    rep = CARTAN_REPS[name]()
    assert report_bytes(verify_cartan(rep)) == report_bytes(dense_cartan(rep))


@st.composite
def shift_reps(draw):
    """(rep, planted) for random reps: diagonals and ladder with zeros of both
    signs, a truncated exact subspace, and now and then a NaN planted in a
    diagonal, in the ladder or in the weights."""
    n = draw(st.integers(1, 12))
    n_diag = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(scales)

    def signed_zeros(x):
        zeros = rng.random(x.shape) < 0.3
        x[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        return x

    diagonals = signed_zeros(rng.normal(size=(n_diag, n)) * scale)
    ladder = signed_zeros(rng.normal(size=n - 1) * scale)
    weights = rng.normal(size=n_diag) * scale
    planted = draw(st.sampled_from([None] * 3 + ["diagonal", "ladder", "weights"]))
    if planted == "diagonal":
        diagonals[int(rng.integers(n_diag)), int(rng.integers(n))] = np.nan
    elif planted == "ladder":
        steps = np.flatnonzero(ladder)
        if len(steps) == 0:
            return draw(shift_reps())
        ladder[rng.choice(steps)] = np.nan
    elif planted == "weights":
        weights[int(rng.integers(n_diag))] = np.nan
    exact = draw(st.integers(1, n))
    rep = LieAlgebraRep(
        family="su2", dim=n, diagonals=diagonals, ladder=ladder,
        structure_d=rng.normal(size=(n_diag, 1)), closure_q=rng.normal(size=n_diag),
        weights=weights, reference_state=signed_zeros(rng.normal(size=n)),
        truncated=exact < n, exact_dim=exact, valid_dim=n, params={})
    return rep, planted


@given(shift_reps())
def test_verify_cartan_on_random_shifts_is_the_dense_check(case):
    """A finite rep gives the dense check's bits; a planted NaN fails it.

    With a NaN the two differ in which fields are NaN: in the dense products
    NaN * 0 spreads a NaN along its row and column, on the nonzeros it stays
    in its entry.  The weights' and the annihilation's NaN reach both maxima.
    """
    rep, planted = case
    report = verify_cartan(rep)
    if planted is None:
        assert report_bytes(report) == report_bytes(dense_cartan(rep))
    else:
        assert np.isnan(report.max_residual)
        assert np.isnan(report.max_residual_exact_subspace)
        assert not report.passed


# su2 j = 3 with its ladder or its diagonals replaced by what the format cannot hold
OTHER_REPS = {
    "not-a-shift": lambda rep: {"ladder": rep.raising_ops[0] + 0.5 * rep.raising_ops[0].T},
    "complex-ladder": lambda rep: {"ladder": rep.ladder * np.exp(0.3j)},
    "short-ladder": lambda rep: {"ladder": rep.ladder[:-1]},
    "two-modes": lambda rep: {"ladder": np.stack([rep.ladder, rep.ladder]),
                              "structure_d": np.hstack([rep.structure_d, -rep.structure_d])},
    "non-diagonal-d": lambda rep: {
        "diagonals": rep.diagonal_ops[0] + 0.25 * (np.eye(rep.dim, k=1) + np.eye(rep.dim, k=-1))},
    "complex-d": lambda rep: {"diagonals": rep.diagonals * np.exp(0.3j)},
    "short-diagonals": lambda rep: {"diagonals": rep.diagonals[:, :-1]},
    "extra-diagonal": lambda rep: {"diagonals": np.vstack([rep.diagonals, rep.diagonals])},
}


@pytest.mark.parametrize("case", list(OTHER_REPS))
def test_other_reps_are_refused(case):
    """A rep is real diagonals and one real superdiagonal ladder: anything
    else is refused when it is built, so no check reads it."""
    rep = build_su2_rep(3.0)
    changes = OTHER_REPS[case](rep)
    field = "ladder" if "ladder" in changes else "diagonals"
    with pytest.raises(ValueError, match=f"^{field} must be a real"):
        dataclasses.replace(rep, **changes)


@pytest.mark.parametrize("call", ["verify_cartan", "build_phase_operator"])
def test_structure_checks_allocate_less_than_one_dense_matrix(call):
    """At su2 j = 400 the dense forms allocate 20.5 and 30.9 MB."""
    clock = intensive_su2_clock(400.0)
    run = {"verify_cartan": lambda: verify_cartan(clock.rep),
           "build_phase_operator": lambda: build_phase_operator(clock)}[call]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < clock.dim ** 2 * np.dtype(float).itemsize


def test_verify_cartan_at_a_large_spin_stays_small():
    """At su2 j = 20000 the dense products needed 11.9 GiB."""
    rep = build_su2_rep(20000.0)
    tracemalloc.start()
    try:
        report = verify_cartan(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert np.isfinite(report.max_residual)


def test_ladder_types_stay_linear_in_the_dimension():
    """At su2 j = 400 no field of a rep, a clock or a phase operator holds a
    dim x dim array, and building and checking them peaks below 1 MB (the
    dense h_c alone took 4.9 MB)."""
    tracemalloc.start()
    try:
        clock = intensive_su2_clock(400.0)
        phase = build_phase_operator(clock)
        commutator_check(clock, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for obj in (clock.rep, clock, phase):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            if isinstance(value, np.ndarray):
                assert value.size <= 2 * clock.dim, field.name


def test_a_ladder_match_stays_linear_in_the_dimension():
    """At su2 j = 400 the system is its energies, a ladder match holds no dim x
    dim field (the standard eigenbases are None, the pairs are dim rows of
    two), and the Gaussian constraint state holds its match and its
    coefficients, built within 1 MB (the stored psi alone was 10.3 MB; with
    the dense eigenbases and the nonzero scan of psi the peak was 25.7 MB)."""
    clock = intensive_su2_clock(400.0)
    h_system = resonant_ladder(clock, clock.dim)
    assert h_system.shape == (clock.dim,)
    match = ladder_match(clock, h_system)
    for field in dataclasses.fields(match):
        value = getattr(match, field.name)
        assert not isinstance(value, np.ndarray) or value.size <= 2 * clock.dim, field.name
    assert match.clock_basis is None and match.system_basis is None
    tracemalloc.start()
    try:
        psi = gaussian_state(clock, h_system, energy_of_rho(clock, 0.45), 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [field.name for field in dataclasses.fields(psi)] == [
        "match", "coefficients", "entanglement_entropy"]
    for field in dataclasses.fields(psi):
        value = getattr(psi, field.name)
        assert not isinstance(value, np.ndarray) or value.size <= clock.dim, field.name
    assert peak < 2 ** 20


# --- the interleave of the ladder ends ------------------------------------------


def test_interleave_order():
    assert _interleave(1).tolist() == [0]
    assert _interleave(5).tolist() == [0, 4, 1, 3, 2]
    assert _interleave(6).tolist() == [0, 5, 1, 4, 2, 3]


def _periodic_band(m, b):
    """m with every entry zeroed whose cyclic distance from the diagonal exceeds b."""
    i, j = np.indices(m.shape)
    dist = abs(i - j)
    return np.where(np.minimum(dist, m.shape[0] - dist) <= b, m, 0.0)


@st.composite
def periodic_banded(draw, anti, complex_entries):
    n = draw(st.integers(3, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(n, n))
    if complex_entries:
        a = a + 1j * rng.normal(size=(n, n))
    a = a * draw(scales)
    m = a - a.conj().T if anti else a + a.conj().T
    return _periodic_band(m, draw(st.integers(1, max(1, (n - 2) // 4))))


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("complex_entries", [False, True])
def test_periodic_band_norm_matches_svd(anti, complex_entries):
    @given(periodic_banded(anti, complex_entries))
    def check(m):
        before = m.copy()
        assert_close_to_svd(m)
        assert np.array_equal(m, before)

    check()


@pytest.mark.parametrize("anti", [False, True])
def test_periodic_tridiagonal_takes_the_interleave(monkeypatch, anti):
    """Interleaved, the cyclic tridiagonal is a band of width 2: factored, not reduced."""
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    definite = _spy_factorizations(monkeypatch)
    rng = np.random.default_rng(11)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    m = _periodic_band(a - a.conj().T if anti else a + a.conj().T, 1)
    assert m[0, -1] != 0 and m[-1, 0] != 0  # the corners make the band full
    assert_close_to_svd(m)
    assert (banded, dense, set(definite)) == ([], [], {ZPBTRF})


def test_commutator_residuals_take_the_interleave(monkeypatch):
    """At su2 j = 400 both commutator residuals are banded; no dense eigvalsh.
    The interior is tridiagonal with a zero diagonal (its top end by
    bisection); the full residual is a real band of width 2 after the
    interleave (factored)."""
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    definite = _spy_factorizations(monkeypatch)
    clock = intensive_su2_clock(400.0)
    commutator_check(clock, build_phase_operator(clock))
    assert (banded, dense, set(definite)) == (banded_top(clock.dim), [], {DPBTRF})


def test_band_the_interleave_does_not_narrow_goes_dense(monkeypatch):
    banded = _spy(monkeypatch, "eigvals_banded")
    dense = _spy(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(13)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = _periodic_band(a + a.conj().T, 1)
    m[0, 4], m[4, 0] = 1.0, 1.0  # joins the bottom rung to the middle one
    assert_close_to_svd(m)
    rows, cols = np.nonzero(m)
    position = np.argsort(_interleave(9))
    assert 2 * int(np.max(abs(position[rows] - position[cols]))) + 1 >= 9
    assert (banded, dense) == ([], DENSE_EIGVALSH)


# --- the definiteness bisection of a band of width 2 or more --------------------


@st.composite
def definite_bands(draw):
    """(m, phase, order): a hermitian (phase 1) or anti-hermitian (phase 1j)
    band, real or complex, that ``residual_norm2`` factors: width 2-4 with
    2b + 1 < dim, or a cyclic band of width 1-2 that the interleave
    ``order`` narrows to a band of width 2-4."""
    cyclic = draw(st.booleans())
    width = draw(st.integers(1, 2) if cyclic else st.integers(2, 4))
    n = draw(st.integers(4 * width + 2 if cyclic else 2 * width + 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(n, n))
    if draw(st.booleans()):
        a = a + 1j * rng.normal(size=(n, n))
    a = a * draw(scales)
    anti = draw(st.booleans())
    m = a - a.conj().T if anti else a + a.conj().T
    if cyclic:
        return _periodic_band(m, width), (1j if anti else 1), _interleave(n)
    i, j = np.indices((n, n))
    return np.where(abs(i - j) <= width, m, 0.0), (1j if anti else 1), np.arange(n)


def both_factor(h, x):
    """Whether x I - h and x I + h both pass LAPACK's banded Cholesky, each
    factored alone from its own lower band storage (real when h is)."""
    n = h.shape[0]
    rows, cols = np.nonzero(h)
    band = int(np.max(rows - cols))
    real = not np.iscomplexobj(h) or not h.imag.any()
    factor = scipy.linalg.lapack.dpbtrf if real else scipy.linalg.lapack.zpbtrf
    for sign in (-1, 1):
        a = x * np.eye(n) + sign * (h.real if real else h)
        lower = np.zeros((band + 1, n), dtype=a.dtype)
        for k in range(band + 1):
            lower[k, :n - k] = np.diagonal(a, -k)
        chol, info = factor(lower, lower=1)
        if info != 0 or np.isnan(chol[0]).any():
            return False
    return True


def _rounding_passes_the_largest_entry():
    """A band of width 2 whose norm is its largest entry c to the last bit
    (sqrt(c^2 + 1e-18) rounds to c), and at x = c both halves factor:
    rounding leaves x I - m a positive pivot where the exact one is 0.  The
    row sums reach c + 1e-9, so the bracket's lower end must be checked."""
    c = 0.8184808436607272
    m = np.zeros((6, 6))
    m[0, 1] = m[1, 0] = c
    m[1, 3] = m[3, 1] = 1e-9
    assert both_factor(m, c)
    return m, 1, np.arange(6)


def _rounding_fails_the_row_sum_bound():
    """The cyclic path with every weight 0.7: its norm is its largest absolute
    row sum 1.4, and at x = 1.4 rounding leaves a pivot <= 0.  So the
    bracket's upper end must be checked too."""
    m = _periodic_band(np.full((8, 8), 0.7), 1) - 0.7 * np.eye(8)
    order = _interleave(8)
    assert not both_factor(m[np.ix_(order, order)], 1.4)
    return m, 1, order


def test_the_least_definite_shift_is_the_norm(monkeypatch):
    """At the norm returned both halves factor, and at the float below it one
    does not; the norm is the SVD's within ULPS_PER_DIM * dim ulps."""
    definite = _spy_factorizations(monkeypatch)

    @given(definite_bands())
    @example(_rounding_passes_the_largest_entry())
    @example(_rounding_fails_the_row_sum_bound())
    def check(case):
        m, phase, order = case
        definite.clear()
        x = residual_norm2(m)
        assert set(definite) in ({DPBTRF}, {ZPBTRF})
        h = (phase * m)[np.ix_(order, order)]
        assert both_factor(h, x)
        assert not both_factor(h, np.nextafter(x, 0.0))
        assert_close_to_svd(m)

    check()


def _times_power_of_two(m, e):
    """m * 2**e, real and imaginary parts scaled exactly but for underflow."""
    return np.ldexp(m.view(float), e).view(m.dtype)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("scale", [1e-310, 1e-300, 1e300, "overflowing-rows"])
def test_definite_route_at_extreme_magnitudes(monkeypatch, scale, complex_entries):
    """Subnormal, tiny and huge periodic tridiagonals, and one whose largest
    absolute row sum overflows: a finite norm within ULPS_PER_DIM * dim ulps
    of the SVD of the matrix brought near 1 by a power of two, after a
    bounded number of factorizations."""
    definite = _spy_factorizations(monkeypatch)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(12, 12))
    if complex_entries:
        a = a + 1j * rng.normal(size=(12, 12))
    m = _periodic_band(a + a.conj().T, 1)
    m /= np.abs(m).max()
    if scale == "overflowing-rows":
        m[0, 1], m[0, -1] = 1.0e308, 0.9e308
        m[1, 0], m[-1, 0] = m[0, 1], m[0, -1]
        with np.errstate(over="ignore"):
            assert np.abs(m).sum(axis=1).max() == np.inf
    else:
        m *= scale
    got = residual_norm2(m)
    e = int(np.frexp(np.abs(m).max())[1])
    ref = float(np.ldexp(svd_norm(_times_power_of_two(m, -e)), e))
    assert np.isfinite(got)
    assert ulps(got, ref) <= ULPS_PER_DIM * 12, (got, ref)
    assert set(definite) == {ZPBTRF if complex_entries else DPBTRF}
    assert len(definite) <= 64


def test_commutator_check_at_a_large_spin_stays_linear(monkeypatch):
    """At su2 j = 20000 the one eigvals_banded call is the top end of the
    tridiagonal interior, no band of width 2 is reduced, and the check allocates
    O(dim), not a dim x dim matrix (25.6 GB complex)."""
    widths = []
    original = scipy.linalg.eigvals_banded

    def recording(a_band, *args, **kwargs):
        widths.append(a_band.shape[0] - 1)
        return original(a_band, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", recording)
    clock = intensive_su2_clock(20000.0)
    phase = build_phase_operator(clock)
    tracemalloc.start()
    try:
        report = commutator_check(clock, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths == [1]
    assert peak < 64 * clock.dim * np.dtype(complex).itemsize
    assert report.interior_residual <= 1e-10 < report.full_residual < 1.0


# --- the nonzero scan against the dense predicates ------------------------------


def dense_predicate_route(m):
    """(route, phase) of ``residual_norm2`` as written over the dense matrix:
    "non-finite" for a NaN or infinite entry, "shift" from column and row
    counts of ``m != 0``, "svd" unless transposed compares find the matrix
    hermitian (phase 1) or anti-hermitian (phase 1j), then "banded" (b = 1)
    or "definite" (b >= 2) when its bandwidth b, or that of its interleaved
    order, has 2b + 1 < dim, else "dense"."""
    if not np.isfinite(m).all():
        return "non-finite", None
    nonzero = m != 0
    if not ((np.count_nonzero(nonzero, axis=0) > 1).any()
            or (np.count_nonzero(nonzero, axis=1) > 1).any()):
        return "shift", None
    re = m.real
    im = m.imag if np.iscomplexobj(m) else None
    if np.array_equal(re, re.T) and (im is None or np.array_equal(im, -im.T)):
        phase = 1
    elif np.array_equal(re, -re.T) and (im is None or np.array_equal(im, im.T)):
        phase = 1j
    else:
        return "svd", None
    dim = m.shape[0]
    rows, cols = np.nonzero(m)
    band = int(np.max(np.abs(rows - cols)))
    if 2 * band + 1 >= dim:
        position = np.argsort(_interleave(dim))
        band = int(np.max(np.abs(position[rows] - position[cols])))
    if 2 * band + 1 >= dim:
        return "dense", phase
    return ("banded" if band == 1 else "definite"), phase


def dense_predicate_norm2(m):
    """The value of ``dense_predicate_route``'s route, computed on the dense
    matrix: both eigenvalue routes by ``eigvalsh``, as the dense one runs it."""
    route, phase = dense_predicate_route(m)
    if route == "non-finite":
        return float("nan")
    if route == "shift":
        return float(np.abs(m[m != 0]).max(initial=0.0))
    if route == "svd":
        return float(np.linalg.norm(m, 2))
    evals = scipy.linalg.eigvalsh((phase * m).T, overwrite_a=True, check_finite=False)
    return float(max(-evals[0], evals[-1]))


ROUTE_CALLS = {
    "non-finite": lambda m: [],
    "shift": lambda m: [],
    "svd": lambda m: [("norm", None, None)],
    "banded": tridiagonal_calls,
    "dense": lambda m: DENSE_EIGVALSH,
}


PATTERNS = ("shift", "diagonal", "banded", "cyclic", "full")


@st.composite
def residual_matrices(draw):
    """Square matrices of every pattern and symmetry the routes tell apart,
    with zeros of both signs (in mirrored pairs, so a hermitian matrix stays
    one) and now and then a NaN."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(scales)
    a = rng.normal(size=(n, n)) * scale
    if draw(st.booleans()):
        a = a + 1j * rng.normal(size=(n, n)) * scale
    m = {"hermitian": a + a.conj().T, "anti": a - a.conj().T, "general": a}[
        draw(st.sampled_from(["hermitian", "anti", "general"]))]
    i, j = np.indices((n, n))
    dist = abs(i - j)
    pattern = draw(st.sampled_from(PATTERNS))
    if pattern == "shift":
        m = np.zeros_like(m)
        m[rng.permutation(n), rng.permutation(n)] = a[0]
    elif pattern == "diagonal":
        m = np.where(dist == 0, m, 0.0)
    elif pattern == "banded":
        m = np.where(dist <= draw(st.integers(0, n)), m, 0.0)
    elif pattern == "cyclic":
        m = np.where(np.minimum(dist, n - dist) <= draw(st.integers(1, max(1, n // 4))), m, 0.0)
    zeros = draw(st.floats(0.0, 0.5)) > rng.random((n, n))
    signs = rng.choice([-0.0, 0.0], size=(2, n, n))
    if np.iscomplexobj(m):
        m[zeros] = (signs[0] + 1j * signs[1])[zeros]
        m[zeros.T] = (signs[1] + 1j * signs[0])[zeros.T]
    else:
        m[zeros] = signs[0][zeros]
        m[zeros.T] = signs[1][zeros.T]
    if draw(st.integers(0, 9)) == 0:
        m[rng.integers(n), rng.integers(n)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return m


def _route_examples():
    """One matrix per route of ``dense_predicate_route``, which the suite's
    derandomized draws of ``residual_matrices`` do not all reach: route ->
    matrix, "interleaved" a periodic tridiagonal, banded only in the
    interleaved order (width 2 there, so the definite route)."""
    rng = np.random.default_rng(26)

    def hermitian(n, band=None, cyclic=False):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = a + a.conj().T
        dist = abs(np.subtract.outer(np.arange(n), np.arange(n)))
        if cyclic:
            dist = np.minimum(dist, n - dist)
        return m if band is None else np.where(dist <= band, m, 0.0)

    shift = np.zeros((5, 5))
    shift[[0, 1, 2, 3, 4], [2, 0, 4, 1, 3]] = rng.normal(size=5)
    nan = hermitian(6, band=1)
    nan[2, 3] = np.nan
    return {
        "shift": shift,
        "banded": hermitian(9, band=1).real,
        "definite": hermitian(12, band=3),
        "interleaved": hermitian(10, band=1, cyclic=True),
        "dense": hermitian(5),
        "svd": rng.normal(size=(6, 6)),
        "non-finite": nan,
    }


ROUTE_EXAMPLES = _route_examples()


def test_every_route_has_an_example():
    routes = {name: dense_predicate_route(m)[0] for name, m in ROUTE_EXAMPLES.items()}
    assert routes == {name: name for name in ROUTE_EXAMPLES} | {"interleaved": "definite"}


def test_nonzero_scan_takes_the_dense_predicates_route_and_bits(monkeypatch):
    """The route the dense predicates pick, with its LAPACK calls, and the
    dense form's bits on every route but the two banded ones.

    The tridiagonal route bisects for its two ends (dsbevx/zhbevx, dstebz)
    and a wider band bisects for the least x at which x I - m and x I + m
    both factor (dpbtrf/zpbtrf), where the dense form runs ``eigvalsh``.
    All are backward stable: each answers for some m + E with ||E|| of
    order dim * eps * ||m||, and by Weyl's inequality every eigenvalue, so
    also the norm max(-lambda_min, lambda_max), moves by at most ||E||.  So
    they agree within ULPS_PER_DIM * dim ulps of the norm, the bound every
    route here meets against the SVD, not bit for bit."""
    calls = []
    for name in ("eigvals_banded", "eigvalsh"):
        monkeypatch.setattr(scipy.linalg, name,
                            _recording(calls, name, getattr(scipy.linalg, name)))
    _spy_factorizations(monkeypatch, calls)
    monkeypatch.setattr(np.linalg, "norm", _recording(calls, "norm", np.linalg.norm))

    @given(residual_matrices())
    @example(ROUTE_EXAMPLES["shift"])
    @example(ROUTE_EXAMPLES["banded"])
    @example(ROUTE_EXAMPLES["definite"])
    @example(ROUTE_EXAMPLES["interleaved"])
    @example(ROUTE_EXAMPLES["dense"])
    @example(ROUTE_EXAMPLES["svd"])
    @example(ROUTE_EXAMPLES["non-finite"])
    def check(m):
        before = m.copy()
        route, _ = dense_predicate_route(m)
        ref = dense_predicate_norm2(m)
        calls.clear()
        got = residual_norm2(m)
        if route == "definite":
            assert set(calls) in ({DPBTRF}, {ZPBTRF})
        else:
            assert calls == ROUTE_CALLS[route](m)
        if route in ("banded", "definite"):
            assert ulps(got, ref) <= ULPS_PER_DIM * m.shape[0], (got, ref)
        else:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
        assert before.tobytes() == m.tobytes()

    check()


@st.composite
def narrow_bands(draw):
    """(m, phase): hermitian (phase 1) or anti-hermitian (phase 1j), real or
    complex, of bandwidth 1 or 2 with 2b + 1 < dim <= 64, so banded without
    the interleave.  A real anti-hermitian m has lambda_min = -lambda_max."""
    band = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * band + 2), 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.normal(size=(n, n))
    if draw(st.booleans()):
        a = a + 1j * rng.normal(size=(n, n))
    a = a * draw(scales)
    anti = draw(st.booleans())
    m = a - a.conj().T if anti else a + a.conj().T
    i, j = np.indices((n, n))
    return np.where(abs(i - j) <= band, m, 0.0), (1j if anti else 1)


def test_banded_ends_are_the_dense_spectrums_ends(monkeypatch):
    """The eigenvalues the tridiagonal route bisects for are the first and
    the last of the dense spectrum (only the last for a zero diagonal), each
    within ULPS_PER_DIM * dim ulps of the norm (Weyl's inequality, see
    above), and so is the norm, on the tridiagonal route and on the factored
    one (width 2), which records no ends."""
    ends = []
    original = scipy.linalg.eigvals_banded

    def recording(*args, **kwargs):
        ends.append(original(*args, **kwargs))
        return ends[-1]

    monkeypatch.setattr(scipy.linalg, "eigvals_banded", recording)

    def check(m, phase):
        ends.clear()
        norm = residual_norm2(m)
        evals = np.linalg.eigvalsh(phase * m)
        bound = ULPS_PER_DIM * m.shape[0] * np.spacing(norm)
        rows, cols = np.nonzero(m)
        if np.max(np.abs(rows - cols)) == 1 and np.diagonal(m).any():
            assert [e.shape for e in ends] == [(1,), (1,)]
            (low,), (high,) = ends
            assert abs(low - evals[0]) <= bound and abs(high - evals[-1]) <= bound, (low, high)
        elif np.max(np.abs(rows - cols)) == 1:
            assert [e.shape for e in ends] == [(1,)]
            (high,), = ends
            assert abs(high - evals[-1]) <= bound, high
        else:
            assert ends == []
        assert abs(norm - max(-evals[0], evals[-1])) <= bound
        return evals

    @given(narrow_bands())
    def random_bands(case):
        check(*case)

    random_bands()
    # lambda_min = -lambda_max exactly: the path graph, spectrum 2 cos(k pi / (n + 1)),
    # and its antisymmetric orientation, spectrum 2i cos(k pi / (n + 1))
    for n in (4, 7, 64):
        up, down = np.diag(np.ones(n - 1), 1), np.diag(np.ones(n - 1), -1)
        for m, phase in ((up + down, 1), (up - down, 1j)):
            evals = check(m, phase)
            (high,), = ends
            assert abs(evals[0] + high) <= ULPS_PER_DIM * n * np.spacing(high)


@st.composite
def zero_diagonal_tridiagonals(draw):
    """(m, phase): a tridiagonal with a zero diagonal and 4 <= dim <= 64, so
    2b + 1 < dim: real or complex hermitian (phase 1), or anti-hermitian (a
    hermitian 1j m, phase 1j).  About a fifth of its off-diagonals are zero,
    but two adjacent ones are not, so it is no weighted shift; it is scaled
    by 1e-150 to 1e150, where LAPACK rescales it."""
    n = draw(st.integers(4, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sub = rng.normal(size=n - 1)
    if draw(st.booleans()):
        sub = sub + 1j * rng.normal(size=n - 1)
    zeros = rng.random(n - 1) < 0.2
    k = draw(st.integers(0, n - 3))
    zeros[k:k + 2] = False
    sub = np.where(zeros, 0.0, sub) * 10.0 ** draw(st.integers(-150, 150))
    anti = draw(st.booleans())
    return np.diag(sub, -1) + (-1 if anti else 1) * np.diag(sub.conj(), 1), (1j if anti else 1)


def test_zero_diagonal_tridiagonal_takes_its_top_end(monkeypatch):
    """A zero-diagonal tridiagonal's norm is its top end alone, one bisection.

    D m D = -m for D = diag((-1)^k), so lambda_min = -lambda_max.  Both ends
    are dstebz bisections on the same tridiagonal, and its Sturm sequence at
    -x is the negation of the one at x, so both count the eigenvalues of the
    same nearby matrix.  Each end is the midpoint of a final interval no
    wider than 2 eps |lambda| (dstebz's RELFAC * ulp) around that matrix's
    eigenvalue, so within eps |lambda|, at most 2 ulps, of it: the top end
    and max(-lambda_min, lambda_max) from the two ends differ by at most 4
    ulps.  Against the dense spectrum the bound is Weyl's, ULPS_PER_DIM * dim
    ulps (see above).  A spy sees one ``eigvals_banded`` call, and two once
    one diagonal entry is nonzero."""
    original = scipy.linalg.eigvals_banded
    banded = _spy(monkeypatch, "eigvals_banded")

    def two_ends(m, phase):
        sub = np.diagonal(phase * m, -1)
        real = not sub.imag.any()
        lower = np.zeros((2, m.shape[0]), dtype=float if real else complex)
        lower[1, :-1] = sub.real if real else sub
        low, high = (original(lower, lower=True, select="i", select_range=(k, k),
                              check_finite=False)[0] for k in (0, m.shape[0] - 1))
        return max(-low, high)

    @given(zero_diagonal_tridiagonals(), st.integers(0, 63))
    def check(case, at):
        m, phase = case
        n = m.shape[0]
        banded.clear()
        norm = residual_norm2(m)
        assert banded == banded_top(n)
        assert ulps(norm, two_ends(m, phase)) <= 4
        evals = np.linalg.eigvalsh(phase * m)
        assert abs(norm - max(-evals[0], evals[-1])) <= ULPS_PER_DIM * n * np.spacing(norm)
        filled = m.astype(complex)
        filled[at % n, at % n] = np.abs(m).max() / phase  # hermitian again after the phase
        banded.clear()
        assert_close_to_svd(filled)
        assert banded == banded_ends(n)

    check()


def count_verdict(a):
    """The diagonal test as two counts: no nonzero of a lies off its diagonal."""
    return np.count_nonzero(a) == np.count_nonzero(np.diagonal(a))


@pytest.mark.parametrize("value", [1.0, -2.5j, 1e-300, np.nan, np.inf, -np.inf, 0.0, -0.0])
def test_diagonal_scan_gives_the_count_verdict(value):
    """``_diagonal``'s strided scan against the count predicate it replaced,
    at dims 1 to 40, with ``value`` at each off-diagonal place in turn (the
    corners included) over diagonals holding NaN, inf and zeros of both
    signs: a NaN or an inf is nonzero, -0.0 is zero.  A Fortran-ordered
    copy, which ``ravel`` copies back to C order, gets the same verdict."""
    fill = np.array([1.0, np.nan, -0.0, np.inf, 0.0, -3.0])
    for dim in range(1, 41):
        base = np.diag(fill[np.arange(dim) % len(fill)]).astype(type(value + 0.0))
        assert _diagonal(base).tobytes() == np.diagonal(base).tobytes()
        for i, j in zip(*np.nonzero(~np.eye(dim, dtype=bool))):
            a = base.copy()
            a[i, j] = value
            expected = count_verdict(a)
            assert (_diagonal(a) is not None) == expected
            assert (_diagonal(np.asfortranarray(a)) is not None) == expected


def dense_phase_operator(clock):
    """U, sin and cos as dense products, one rung at a time."""
    a = clock.rep.raising_ops[0].conj().T
    dim = clock.dim
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        el = a[k + 1, k]
        u[k + 1, k] = el / abs(el)
    u[0, dim - 1] = 1.0
    u_dag = u.conj().T
    return u, (u_dag - u) / 2j, (u_dag + u) / 2.0


def dense_commutator_residuals(clock, sin=None, cos=None):
    """(full, interior) from the dense [H_C, sin] - i eps cos, by default of
    ``dense_phase_operator``'s sin and cos."""
    if sin is None:
        _, sin, cos = dense_phase_operator(clock)
    d = np.diagonal(clock.h_c)
    m = d[:, None] * sin - sin * d
    m -= 1j * clock.epsilon * cos
    full = dense_predicate_norm2(m)
    m[[0, -1], :] = 0.0
    m[:, [0, -1]] = 0.0
    return full, dense_predicate_norm2(m)


BAND_CLOCKS = {
    **{f"su2-j{j:g}": (lambda j=j: build_clock(build_su2_rep(j))) for j in (0.5, 1.0, 20.0, 160.0)},
    "su2-j400-intensive": lambda: intensive_su2_clock(400.0),
    "h4-cut64": lambda: build_clock(build_h4_rep(64)),
    "h4-mean200": lambda: intensive_h4_clock(200.0),
    "su11-k1.5-cut64": lambda: build_clock(build_su11_rep(1.5, 64)),
}


def assert_dense_residuals(report, full, interior):
    """Within ULPS_PER_DIM * dim ulps of the dense form's values: its
    ``eigvalsh`` and the banded route's bisection agree that far, not bit for
    bit (``test_nonzero_scan_takes_the_dense_predicates_route_and_bits``)."""
    assert ulps(report.full_residual, full) <= ULPS_PER_DIM * report.dim
    assert ulps(report.interior_residual, interior) <= ULPS_PER_DIM * report.dim


@pytest.mark.parametrize("name", list(BAND_CLOCKS))
def test_band_commutator_residuals_are_the_dense_ones(name):
    clock = BAND_CLOCKS[name]()
    report = commutator_check(clock, build_phase_operator(clock))
    assert_dense_residuals(report, *dense_commutator_residuals(clock))


@pytest.mark.parametrize("name", list(BAND_CLOCKS))
def test_phase_operator_is_the_dense_one(name):
    """U and cos bit for bit; sin by value, as its zeros off the band are +0
    where the dense difference of U^dag and U leaves -0 imaginary parts."""
    clock = BAND_CLOCKS[name]()
    phase = build_phase_operator(clock)
    u, sin, cos = dense_phase_operator(clock)
    assert phase.exp_minus_iphi.tobytes() == u.tobytes()
    assert phase.cos_phi.tobytes() == cos.tobytes()
    assert np.array_equal(phase.sin_phi, sin)


def test_complex_steps_keep_the_dense_arithmetic():
    """Phases on the unit circle: U, sin and cos are the dense ones of those
    phases, and both residuals the dense ones within the banded bound."""
    clock = build_clock(build_su2_rep(3.0))
    turns = np.random.default_rng(5).random(clock.dim - 1)
    phase = PhaseOperator(phases=np.exp(2j * np.pi * turns))
    u = cyclic_shift(phase.phases)
    sin, cos = (u.conj().T - u) / 2j, (u.conj().T + u) / 2.0
    assert phase.exp_minus_iphi.tobytes() == u.tobytes()
    assert phase.cos_phi.tobytes() == cos.tobytes()
    assert np.array_equal(phase.sin_phi, sin)
    report = commutator_check(clock, phase)
    assert_dense_residuals(report, *dense_commutator_residuals(clock, sin, cos))


def test_commutator_check_allocates_less_than_one_dense_matrix():
    clock = intensive_su2_clock(400.0)
    phase = build_phase_operator(clock)
    tracemalloc.start()
    try:
        commutator_check(clock, phase)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < clock.dim ** 2 * np.dtype(complex).itemsize


# --- level pairing by sorted windows ---------------------------------------------


def outer_pairs(e_c, e_g, tol):
    """The pairs of the dim_c x dim_g comparison the windows stand in for, one row each."""
    return np.argwhere(np.abs(e_c[:, None] - e_g[None, :]) <= tol)


def assert_same_pairs(pairs, expected):
    """Equal row for row, as an (n, 2) intp array; (0, 2) when nothing matches."""
    assert pairs.dtype == np.intp
    assert pairs.shape == expected.shape == (len(expected), 2)
    assert np.array_equal(pairs, expected)


def _one_ulp_around(x):
    with np.errstate(over="ignore"):  # the ulp above the largest float is inf
        return st.sampled_from([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@st.composite
def spectra_and_tol(draw):
    """(e_c, e_g, tol): levels drawn with repeats from a few values, e_g
    ascending and e_c in any order, sometimes from disjoint sets; tol is 0,
    huge, a small integer, or one ulp either side of (or at) a difference of
    two levels.  Small integers next to tiny levels make a difference that
    rounds onto tol although the level lies outside [e - tol, e + tol]."""
    level = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(-4.0, 4.0), st.integers(-4, 4).map(float),
                      st.floats(-1e-15, 1e-15))
    values = draw(st.lists(level, min_size=1, max_size=6))
    others = values
    if draw(st.booleans()):  # a system spectrum that shares no level
        others = [v for v in draw(st.lists(level, min_size=1, max_size=6)) if v not in values]
        assume(others)
    e_c = np.array(draw(st.lists(st.sampled_from(values), min_size=1, max_size=10)))
    e_g = np.sort(np.array(draw(st.lists(st.sampled_from(others), min_size=1, max_size=10))))
    with np.errstate(over="ignore"):
        gap = abs(draw(st.sampled_from(values)) - draw(st.sampled_from(others)))
    tol = draw(st.one_of(st.sampled_from([0.0, 1e-9, 1e300, float(np.finfo(float).max)]),
                         st.integers(1, 4).map(float),
                         _one_ulp_around(gap) if np.isfinite(gap) else st.just(0.0)))
    return e_c, e_g, float(tol)


@given(spectra_and_tol())
@example((np.array([1.0]), np.array([-1e-20, 0.0]), 1.0))  # 1 - (-1e-20) rounds to 1
@example((np.array([-1.0]), np.array([0.0, 1e-20]), 1.0))
@example((np.array([0.0, 1.0]), np.array([1.0 - 2 ** -53, 1.0, 1.0]), 2 ** -53))
def test_window_pairs_are_the_outer_comparison(case):
    e_c, e_g, tol = case
    with np.errstate(over="ignore"):
        assert_same_pairs(_level_pairs(e_c, e_g, tol), outer_pairs(e_c, e_g, tol))
        match = match_spectra(e_c, e_g, tol)  # vectors: the diagonal operators
        assert_same_pairs(match.pairs, outer_pairs(match.clock_evals, match.system_evals, tol))


@pytest.mark.parametrize("make_clock", [
    lambda: intensive_su2_clock(400.0), lambda: intensive_h4_clock(200.0),
], ids=["su2-j400", "h4-mean200"])
def test_ladder_match_pairs_every_level(make_clock):
    clock = make_clock()
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    assert_same_pairs(match.pairs, np.repeat(np.arange(clock.dim)[:, None], 2, axis=1))
    assert_same_pairs(match.pairs, outer_pairs(match.clock_evals, match.system_evals,
                                               1e-9 * max(clock.epsilon, 1.0)))
    assert match.clock_evals.tobytes() == clock.energies.tobytes()
    assert match.clock_evals[match.pairs[:, 0]].tobytes() == clock.energies.tobytes()


# --- constraint states in the identity basis ----------------------------------


def gemm_psi(match, coefficients):
    """The dense product build_psi forms for a general match."""
    idx_c, idx_g = np.array(match.pairs).T
    return (match.clock_evecs[:, idx_c] * coefficients) @ match.system_evecs[:, idx_g].T


@pytest.mark.parametrize("make_clock, rho", [
    (lambda: intensive_su2_clock(400.0), 0.45),
    (lambda: intensive_h4_clock(200.0), 10.0),
], ids=["su2-j400", "h4-mean200"])
def test_identity_basis_psi_is_the_gemm(make_clock, rho):
    clock = make_clock()
    match = ladder_match(clock, resonant_ladder(clock, clock.dim))
    assert match.clock_basis is None and match.system_basis is None
    assert np.array_equal(match.clock_evecs, np.eye(clock.dim))
    assert np.array_equal(match.system_evecs, np.eye(clock.dim))
    gauss = build_psi(match, gaussian_profile(match, energy_of_rho(clock, rho), 0.2))
    assert gauss.matrix.tobytes() == gemm_psi(match, gauss.coefficients).tobytes()
    rand = build_psi(match, random_profile(match, 2026))
    # equal by value; a zero may carry the other sign than in the GEMM
    assert np.array_equal(rand.matrix, gemm_psi(match, rand.coefficients))


def test_identity_basis_psi_off_the_diagonal():
    """System levels 5..11 of a 21-level clock: pairs (5, 0) .. (11, 6)."""
    clock = build_clock(build_su2_rep(10.0))
    match = ladder_match(clock, np.diag(clock.epsilon * np.arange(5.0, 12.0)))
    assert match.pairs.tolist() == [[k + 5, k] for k in range(7)]
    rng = np.random.default_rng(23)
    real = build_psi(match, rng.uniform(0.5, 1.0, size=7))
    assert real.matrix.shape == (21, 7)
    assert real.matrix.tobytes() == gemm_psi(match, real.coefficients).tobytes()
    cplx = build_psi(match, rng.normal(size=7) + 1j * rng.normal(size=7))
    assert np.array_equal(cplx.matrix, gemm_psi(match, cplx.coefficients))


def _rotated(dim, energies, seed):
    """A dense hermitian matrix with the given spectrum."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    return (q * energies) @ q.conj().T


@pytest.mark.parametrize("clock_dense", [False, True])
def test_dense_match_psi_is_the_sum_over_pairs(clock_dense):
    rng = np.random.default_rng(17)
    h_c = _rotated(7, np.arange(7.0), 1) if clock_dense else np.diag(np.arange(7.0))
    h_g = _rotated(5, np.arange(5.0), 2)
    match = match_spectra(h_c, h_g, tol=1e-9)
    assert len(match.pairs) == 5
    assert (match.clock_basis is None) != clock_dense
    assert np.array_equal(match.clock_evecs, np.eye(7)) != clock_dense
    assert match.system_basis is not None and not np.array_equal(match.system_evecs, np.eye(5))
    psi = build_psi(match, rng.normal(size=5) + 1j * rng.normal(size=5))
    assert psi.matrix.tobytes() == gemm_psi(match, psi.coefficients).tobytes()
    per_pair = sum(c * np.outer(match.clock_evecs[:, i], match.system_evecs[:, j])
                   for c, (i, j) in zip(psi.coefficients, match.pairs))
    assert np.allclose(psi.matrix, per_pair, rtol=0.0, atol=1e-14)


def reference_components(psi, clock, h_system, rho, n_phi=48, phi_max=1.2):
    """quantum_flow_rate's grid and eigencomponents, one conditional_state and
    one dense basis change per phi: (phis, evals, evecs, comps)."""
    evals, evecs = np.linalg.eigh(h_system)
    phi_max = min(phi_max, (n_phi - 1) * np.pi / (2 * max(clock.dim - 1, 1)))
    phis = np.linspace(0.0, phi_max, n_phi)
    comps = np.array([evecs.conj().T @ conditional_state(psi, clock, rho, float(phi)).unnormalized
                      for phi in phis])
    return phis, evals, evecs, comps


def reference_flow_rate(psi, clock, h_system, rho):
    """quantum_flow_rate per phi and per component: np.polyfit of each unwrapped phase."""
    phis, evals, _, comps = reference_components(psi, clock, h_system, rho)
    mags = np.abs(comps).min(axis=0)
    scale = float(np.max(np.abs(evals))) or 1.0
    s, e, w = [], [], []
    for n in range(h_system.shape[0]):
        if mags[n] < 1e-8 or abs(evals[n]) < 1e-12 * scale:
            continue
        s.append(np.polyfit(phis, np.unwrap(np.angle(comps[:, n])), 1)[0])
        e.append(evals[n])
        w.append(float(np.mean(np.abs(comps[:, n]) ** 2)))
    s, e, w = np.array(s), np.array(e), np.array(w)
    return float(-np.sum(w * e * s) / np.sum(w * s * s))


def flow_rate_roundoff_bound(psi, clock, h_system, rho):
    """Bound on |quantum_flow_rate - reference_flow_rate| from rounding alone.

    u is the unit roundoff and gamma_n = n u / (1 - n u).  In exact
    arithmetic both routes fit the same exactly linear phases, so each is
    compared with the exact rate r* of the exact slopes s* and weights w*:

    1. Component (a, n) of either route (a product of the bras with psi and
       with evecs^H, per phi or as one table) is within
       e = sqrt(2) gamma_{2 dc + 2 dg} m of the exact one, where
       m = |evecs|^T |psi|^T |t_a| bounds every term.
    2. Its phase is then off by at most (pi/2) e / (|c| - e), plus 2 pi u from
       atan2 and, after a unwrap steps, (a + 1) u (14 pi + |theta_a|) from the
       unwrap's corrections (each a few roundings of numbers below 3 pi,
       then their running sum).  The test asserts this is far below pi/4,
       so both routes unwrap onto the branches of the exact phases.
    3. The least-squares slope moves by sum_a |dphi_a| dtheta_a / D with
       the data (dphi the centred grid, D = sum dphi^2); the library's
       closed form adds the rounding of its centred sums,
       (|dN| + |s| |dD|) / (D - |dD|) + u |s| with |dN|, |dD| at most
       gamma_{2n+4} sum (|dphi_a| + 2 phi_max)(|theta_a - mean| + 2 max|theta|)
       and gamma_{2n+4} sum (|dphi_a| + 2 phi_max)^2; np.polyfit's lstsq is
       normwise backward stable with error at most eps_ls = gamma_{10 m k}
       (m = n_phi rows, k = 2 columns, a generous constant) in its
       column-scaled problem A y = theta, so y moves by at most
       eps_ls ||A^+|| (||A||_F ||y|| + ||theta||) + eps_ls ||A^+||^2 ||A||_F ||r||,
       and the slope by that over the first column's scale.  The larger of
       the two is taken for both routes: relative slope error eta.
    4. The weight mean |c|^2 is off by a relative
       omega = (|c| / (|c| - e))^2 - 1 plus gamma_{n+3} for the mean.
    5. Every moving component has E_n > 0 and s_n < 0 (asserted), so every
       term of both sums of r = -sum w E s / sum w s^2 is positive and the
       sums move by the factors of their terms: r / r* lies within
       (1 + omega)(1 + eta) / ((1 - omega)(1 - eta)^2) and its inverse,
       widened by gamma_{2K+3} for the K-term sums and the quotient.
    So both rates are within rho_tot |r*| of r*, and
    |r - r_ref| <= 2 rho_tot |r_ref| / (1 - rho_tot).
    """
    u = np.finfo(float).eps / 2

    def gamma(n):
        return n * u / (1 - n * u)

    phis, evals, evecs, comps = reference_components(psi, clock, h_system, rho)
    n_phi = len(phis)
    scale = float(np.max(np.abs(evals))) or 1.0
    moving = ~((np.abs(comps).min(axis=0) < 1e-8) | (np.abs(evals) < 1e-12 * scale))
    bras = np.abs(coherent_table(clock.rep, [rho], phis))
    m = (bras.T @ np.abs(psi.matrix)) @ np.abs(evecs)
    err = np.sqrt(2) * gamma(2 * psi.dim_clock + 2 * psi.dim_system) * m[:, moving]
    absc, e = np.abs(comps[:, moving]), evals[moving]
    assert (e > 0).all() and (err < absc / 2).all()
    theta = np.unwrap(np.angle(comps[:, moving]), axis=0)
    steps = np.arange(n_phi)[:, None]
    dtheta = (np.pi / 2) * err / (absc - err) + 2 * np.pi * u \
        + (steps + 1) * u * (14 * np.pi + np.abs(theta))
    assert dtheta.max() < np.pi / 4

    dphi = phis - phis.mean()
    big_d = dphi @ dphi
    centred = theta - theta.mean(axis=0)
    s = dphi @ centred / big_d
    assert (s < 0).all()
    data = np.abs(dphi) @ dtheta / big_d
    pad = np.abs(dphi) + 2 * phis[-1]
    d_num = gamma(2 * n_phi + 4) * (pad @ (np.abs(centred) + 2 * np.abs(theta).max(axis=0)))
    d_den = gamma(2 * n_phi + 4) * (pad @ pad)
    fit_closed = (d_num + np.abs(s) * d_den) / (big_d - d_den) + u * np.abs(s)
    lhs = np.vander(phis, 2)
    col = np.sqrt((lhs * lhs).sum(axis=0))
    a_mat = lhs / col
    pinv = np.linalg.norm(np.linalg.pinv(a_mat), 2)
    y = np.linalg.lstsq(a_mat, theta, rcond=None)[0]
    resid = np.linalg.norm(theta - a_mat @ y, axis=0)
    eps_ls = gamma(10 * n_phi * 2)
    fro = np.linalg.norm(a_mat)
    fit_ls = (eps_ls * pinv * (fro * np.linalg.norm(y, axis=0) + np.linalg.norm(theta, axis=0))
              + eps_ls * pinv ** 2 * fro * resid) / col[0] + u * np.abs(s)
    slope_err = data + np.maximum(fit_closed, fit_ls)
    eta = float(np.max(slope_err / (np.abs(s) - slope_err)))
    omega = float(np.max((absc / (absc - err)) ** 2 - 1)) + gamma(n_phi + 3)
    k = int(moving.sum())
    rho_tot = ((1 + omega) * (1 + eta) / ((1 - omega) * (1 - eta) ** 2)
               * (1 + gamma(2 * k + 3)) - 1)
    ref = reference_flow_rate(psi, clock, h_system, rho)
    return 2 * rho_tot * abs(ref) / (1 - rho_tot)


@pytest.mark.parametrize("make_clock, rho", [
    (lambda: intensive_su2_clock(250.0), 0.45),
    (lambda: intensive_su2_clock(400.0), 0.45),
    (lambda: intensive_h4_clock(200.0), 10.0),
], ids=["su2-j250", "su2-j400", "h4-mean200"])
def test_flow_rate_keeps_its_bits(make_clock, rho):
    """The rate is the per-phi, per-component reference's within its roundoff bound."""
    clock = make_clock()
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, energy_of_rho(clock, rho), 0.2)
    got = quantum_flow_rate(psi, clock, h_system, rho)
    dense = np.diag(h_system)  # the references diagonalize the dense operator
    ref = reference_flow_rate(psi, clock, dense, rho)
    assert abs(got - ref) <= flow_rate_roundoff_bound(psi, clock, dense, rho)


def test_flow_rate_in_a_rotated_basis():
    """A system whose eigenvectors are not the identity keeps the basis change."""
    clock = build_clock(build_su2_rep(6.0))
    h_system = _rotated(clock.dim, clock.epsilon * np.arange(clock.dim), 3)
    match = ladder_match(clock, h_system)
    assert len(match.pairs) == clock.dim and match.system_basis is not None
    assert not np.array_equal(match.system_evecs, np.eye(clock.dim))
    psi = build_psi(match, gaussian_profile(match, energy_of_rho(clock, 0.45), 2.0))
    got = quantum_flow_rate(psi, clock, h_system, 0.45)
    ref = reference_flow_rate(psi, clock, h_system, 0.45)
    assert abs(got - ref) <= flow_rate_roundoff_bound(psi, clock, h_system, 0.45)
    assert abs(got - clock.epsilon) < 1e-9


# --- the phase operator is unitary by construction ---------------------------


def cyclic_shift(phases):
    """The completed unitary with these steps on its subdiagonal and a unit wrap."""
    n = len(phases) + 1
    u = np.zeros((n, n), dtype=complex)
    u[np.arange(1, n), np.arange(n - 1)] = phases
    u[0, n - 1] = 1.0
    return u


def assert_exactly_unitary(rep):
    """Each phase is exactly +1 or -1, |s| * phase is the step s bit for bit
    (the polar identity A = |A| U), and U^dag U is the identity exactly."""
    steps = rep.ladder
    phase = build_phase_operator(build_clock(rep))
    assert np.all((phase.phases == 1.0) | (phase.phases == -1.0))
    assert (np.sqrt(steps * steps) * phase.phases).tobytes() == steps.tobytes()
    u = phase.exp_minus_iphi
    assert np.array_equal(u.conj().T @ u, np.eye(rep.dim))


@pytest.mark.parametrize("rep", [build_su2_rep(40.0), build_h4_rep(64),
                                 build_su11_rep(1.5, 64)], ids=["su2", "h4", "su11"])
def test_the_phase_operator_of_each_ladder_is_exactly_unitary(rep):
    assert_exactly_unitary(rep)


# a step s with s * s neither overflowing nor underflowing, either sign
real_steps = st.builds(lambda sign, size: sign * size,
                       st.sampled_from([-1.0, 1.0]), st.floats(1e-150, 1e150))


@given(st.lists(real_steps, min_size=2, max_size=12))
def test_the_phase_operator_of_any_real_nonzero_ladder_is_exactly_unitary(steps):
    assert_exactly_unitary(dataclasses.replace(build_h4_rep(len(steps)), ladder=np.array(steps)))


def test_a_vanishing_step_is_refused():
    rep = build_su2_rep(3.0)
    for zero in (0.0, -0.0):
        ladder = rep.ladder.copy()
        ladder[2] = zero
        with pytest.raises(ValueError, match="vanishing step"):
            build_phase_operator(build_clock(dataclasses.replace(rep, ladder=ladder)))
