"""Structure-relation and clock-assembly checks for the three algebra families."""

import dataclasses

import numpy as np
import pytest

from clocklab.algebra import (
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
    verify_cartan,
)


def comm(x, y):
    return x @ y - y @ x


@pytest.mark.parametrize("j", [0.5, 1.0, 2.5, 10.0, 50.0])
def test_su2_cartan_relations(j):
    """Spin family satisfies every stored relation to machine precision."""
    report = verify_cartan(build_su2_rep(j), tol=1e-12)
    assert report.passed
    assert report.max_residual < 1e-12


@pytest.mark.parametrize("n_cut", [4, 32, 256])
def test_h4_cartan_relations(n_cut):
    """Oscillator family is exact on the subspace below the cutoff edge."""
    rep = build_h4_rep(n_cut)
    report = verify_cartan(rep, tol=1e-12)
    assert report.passed
    assert report.max_residual_exact_subspace < 1e-12
    # the closure [a, a^dag] = I genuinely fails at the cutoff corner
    assert report.closure_relation > 1.0


@pytest.mark.parametrize("rep", [build_su2_rep(40.0), build_h4_rep(64)], ids=["su2-j40", "h4-64"])
def test_cartan_residuals_are_svd_norms(rep):
    """Each reported residual is the SVD 2-norm of its relation, on the
    full space and on the exact subspace, whichever route computed it."""
    report = verify_cartan(rep, tol=1e-12)
    inside = np.arange(rep.dim) < rep.exact_dim

    def norms(resid):
        return (np.linalg.norm(resid, 2),
                np.linalg.norm(np.where(np.outer(inside, inside), resid, 0.0), 2))

    ladder = [norms(comm(d, r) - rep.structure_d[delta, m] * r)
              for m, r in enumerate(rep.raising_ops)
              for delta, d in enumerate(rep.diagonal_ops)]
    r_op = rep.raising_ops[0]
    closure = norms(comm(r_op, r_op.conj().T)
                    - sum(q * d for q, d in zip(rep.closure_q, rep.diagonal_ops)))
    ops = rep.diagonal_ops
    diag = max((np.linalg.norm(comm(a, b), 2) for i, a in enumerate(ops) for b in ops[i + 1:]),
               default=0.0)
    rest = (report.reference_annihilation, report.reference_weights)
    assert report.diagonal_commutators == diag
    assert report.ladder_relations == max(full for full, _ in ladder)
    assert report.closure_relation == closure[0]
    assert report.max_residual == max(diag, report.ladder_relations, closure[0], *rest)
    assert report.max_residual_exact_subspace == max(diag, max(sub for _, sub in ladder),
                                                     closure[1], *rest)


@pytest.mark.parametrize("k,n_cut", [(0.5, 16), (1.0, 32), (2.0, 32)])
def test_su11_cartan_relations(k, n_cut):
    """Hyperbolic family is exact below the cutoff edge.

    Ladder entries grow linearly with the index, so the achievable
    residual scales like eps_mach * n_cut^2; the 1e-12 bound holds for
    cutoffs up to roughly 48 and the sizes here stay inside that.
    """
    report = verify_cartan(build_su11_rep(k, n_cut), tol=1e-12)
    assert report.passed
    assert report.max_residual_exact_subspace < 1e-12


def _with_nan(rep, where):
    if where == "weights":
        return dataclasses.replace(rep, weights=np.array([np.nan]))
    if where == "diagonal":
        d = rep.diagonals.copy()
        d[0, 2] = np.nan
        return dataclasses.replace(rep, diagonals=d)
    r = rep.ladder.astype(complex if where == "complex-ladder" else float)
    r[2] = np.nan
    return dataclasses.replace(rep, ladder=r)


@pytest.mark.parametrize("where", ["weights", "diagonal", "ladder", "complex-ladder"])
def test_a_nan_fails_verify_cartan(where):
    """Python's max dropped a NaN: weights = [nan] passed with max_residual 4e-15,
    and a NaN ladder entry on the dense products ended in an SVD error.  A
    complex ladder, NaN or not, is refused before any check runs."""
    if where == "complex-ladder":
        with pytest.raises(ValueError, match="real vector"):
            _with_nan(build_su2_rep(3.0), where)
        return
    report = verify_cartan(_with_nan(build_su2_rep(3.0), where), tol=1e-12)
    assert np.isnan(report.max_residual)
    assert np.isnan(report.max_residual_exact_subspace)
    assert not report.passed
    if where == "weights":
        assert np.isnan(report.reference_weights)


def per_rung_ops(family, *args):
    """(diagonal_ops, raising_ops) as dense matrices filled one rung at a time,
    the way `build_*_rep` formed them before a rep stored its ladder."""
    sqrt2 = float(np.sqrt(2.0))
    if family == "su2":
        two_j = round(2 * args[0])
        dim = two_j + 1
        diagonals = (np.diag(sqrt2 * (np.arange(dim, dtype=float) - two_j / 2.0)),)
        step = lambda k: np.sqrt((k + 1) * (two_j - k))  # noqa: E731
    elif family == "h4":
        dim = args[0] + 1
        diagonals = (np.diag(np.arange(dim, dtype=float)), np.eye(dim))
        step = lambda k: np.sqrt(k + 1.0)  # noqa: E731
    else:
        k_index, dim = args[0], args[1] + 1
        diagonals = (np.diag(sqrt2 * (k_index + np.arange(dim, dtype=float))),)
        step = lambda m: np.sqrt((m + 1) * (2 * k_index + m))  # noqa: E731
    lowering = np.zeros((dim, dim))
    for k in range(dim - 1):
        lowering[k, k + 1] = step(k)
    return diagonals, (lowering,)


@pytest.mark.parametrize("family,args", [
    *(("su2", (j,)) for j in (0.5, 2.5, 40.0, 400.0)),
    ("h4", (2,)), ("h4", (317,)), ("su11", (0.5, 16)), ("su11", (1.5, 64)),
])
def test_dense_views_are_the_per_rung_matrices(family, args):
    rep = {"su2": build_su2_rep, "h4": build_h4_rep, "su11": build_su11_rep}[family](*args)
    diagonals, raising = per_rung_ops(family, *args)
    assert [d.tobytes() for d in rep.diagonal_ops] == [d.tobytes() for d in diagonals]
    assert [r.tobytes() for r in rep.raising_ops] == [r.tobytes() for r in raising]


def test_su2_weights_and_annihilation():
    """Reference state is the lowest-weight vector killed by the ladder mode."""
    rep = build_su2_rep(3.0)
    low = rep.raising_ops[0]
    assert np.linalg.norm(low @ rep.reference_state) == 0.0
    d1 = rep.diagonal_ops[0]
    assert abs(rep.reference_state @ d1 @ rep.reference_state - rep.weights[0]) < 1e-14


def test_structure_constant_normalization():
    """sum_delta d_delta^2 = 2 for the semisimple families."""
    for rep in (build_su2_rep(2.0), build_su11_rep(0.5, 32)):
        assert abs(float(np.sum(rep.structure_d**2)) - 2.0) < 1e-14


def test_su2_rejects_bad_spin():
    """inf used to raise OverflowError, which the CLI does not read as a refusal."""
    for j in (0.3, 0.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            build_su2_rep(j)


def test_su11_rejects_bad_index():
    """NaN and inf used to pass ``k <= 0`` and give an all-NaN rep."""
    for k in (0.0, -0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="Bargmann index"):
            build_su11_rep(k, 8)


def test_clock_spectrum_ascends_from_zero():
    """H_C has spectrum epsilon * {0 .. dim-1} with the reference at zero."""
    for clock in (build_clock(build_su2_rep(2.5)),
                  build_clock(build_h4_rep(12)),
                  build_clock(build_su11_rep(1.0, 12))):
        evals = np.sort(np.linalg.eigvalsh(clock.h_c))
        expected = clock.epsilon * np.arange(clock.dim)
        assert np.max(np.abs(evals - expected)) < 1e-12 * max(1.0, evals[-1])
        ref_energy = clock.rep.reference_state @ clock.h_c @ clock.rep.reference_state
        assert abs(ref_energy) < 1e-13
        assert clock.epsilon > 0


def test_clock_ladder_commutator():
    """[H_C, R] = -epsilon R: the ladder mode lowers the clock energy."""
    for clock in (build_clock(build_su2_rep(4.0)), build_clock(build_h4_rep(16))):
        low = clock.rep.raising_ops[0]
        resid = comm(clock.h_c, low) + clock.epsilon * low
        sub = clock.rep.exact_dim
        assert np.linalg.norm(resid[:sub, :sub]) < 1e-12


def test_clock_scale_parameter():
    """The scale multiplies the gap without moving the zero point."""
    rep = build_su2_rep(3.0)
    base = build_clock(rep)
    scaled = build_clock(rep, scale=0.25)
    assert abs(scaled.epsilon - 0.25 * base.epsilon) < 1e-15
    assert abs(scaled.b2 - base.b2) < 1e-15


def test_intensive_su2_clock_gap():
    """Intensive spin clock has gap sqrt(2)/(2j)."""
    clock = intensive_su2_clock(10.0)
    assert abs(clock.epsilon - np.sqrt(2.0) / 20.0) < 1e-15
    assert clock.dim == 21


def test_intensive_h4_clock_headroom():
    """Oscillator clock leaves Poisson-tail headroom above mean_n."""
    clock = intensive_h4_clock(16.0)
    assert clock.dim >= 16 + 8 * 4
    assert abs(clock.epsilon - 1.0 / 16.0) < 1e-15
    with pytest.raises(ValueError):
        intensive_h4_clock(-1.0)


def test_b2_signs():
    """Stored quadratic weight: -2j for spin, +2k for pseudo-spin, 0 for h4."""
    assert abs(build_clock(build_su2_rep(3.0)).b2 + 6.0) < 1e-14
    assert abs(build_clock(build_su11_rep(1.5, 16)).b2 - 3.0) < 1e-14
    assert build_clock(build_h4_rep(8)).b2 == 0.0


def test_clock_model_refuses_energies_that_are_not_a_real_vector():
    """A clock is its spectrum: a dense h_c (even a diagonal one), a vector
    of another length and complex energies are refused when it is built, so
    no reader has to check that h_c is diagonal."""
    clock = build_clock(build_su2_rep(3.0))
    for energies in (clock.h_c, clock.energies[:-1], clock.energies.astype(complex)):
        with pytest.raises(ValueError, match="^energies must be a real vector"):
            dataclasses.replace(clock, energies=energies)
    assert clock.energies.shape == (clock.dim,)
    assert np.array_equal(clock.h_c, np.diag(clock.energies))
