"""Matrix representations of the clock algebras and ladder Hamiltonians.

Three families are provided: spin (``su2``, exact at every dimension), the
oscillator algebra (``h4``, truncated Fock space) and the pseudo-spin
discrete series (``su11``, truncated).  Every representation exposes the
same Cartan-style data: commuting real diagonal operators ``D_delta``, a
single lowering mode ``R`` (a real weighted shift on the superdiagonal)
annihilating the reference state, the real structure constants
``[D_delta, R] = d_delta R``, and real closure coefficients
``[R, R^dag] = sum_delta q_delta D_delta``.  A rep stores the diagonals
and R's superdiagonal, nothing dense.

A clock is an affine function of the first diagonal operator, shifted so
the reference state sits at energy exactly zero and scaled so the ladder
ascends with a positive uniform gap ``epsilon``.
"""
from __future__ import annotations

import dataclasses
import numpy as np
import scipy.linalg

_SQRT2 = float(np.sqrt(2.0))


# --- structured linear algebra ------------------------------------------------
#
# The clock operators are ladder matrices: diagonal, or with one or two
# bands.  Each helper below reads that structure off the matrix with an
# exact predicate and, when it holds, gives the answer the dense LAPACK
# route would give without the dense work; otherwise it runs that route.
# A residual's norm is the answer to within rounding, not to the bit: a
# tridiagonal's ends come from bisection, a wider band's norm from
# banded Cholesky tests of definiteness, O(dim b^2) each, no reduction.


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The energies of a diagonal operator, else None.

    A vector is the diagonal operator that holds it and is returned as it
    is; a square matrix gives its diagonal when no nonzero lies off it.
    """
    if a.ndim == 1:
        return a
    # the entries between diagonal k and diagonal k + 1 of the flat matrix are
    # row k of its (dim - 1) x (dim + 1) reshape, less the last column
    dim = a.shape[0]
    off = a.ravel()[1:].reshape(dim - 1, dim + 1)[:, :-1]
    return None if off.any() else np.diagonal(a)


# LAPACK's syevd rescales a matrix whose largest |entry| lies outside
# [sqrt(safmin/eps), 1/sqrt(safmin/eps)] = [2^-485, 2^485], moving last bits
_EIGH_UNSCALED = (2.0 ** -485, 2.0 ** 485)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``np.linalg.eigh``, or ``(diag, None)`` for a real diagonal that strictly ascends.

    None stands for the identity: LAPACK returns exactly (diag, I) then,
    unless it rescales the matrix.  A degenerate or unsorted diagonal goes
    to eigh: its eigenvector order need not be a stable sort.  A real
    vector h stands for the diagonal matrix ``np.diag(h)``, which is formed
    only when eigh has to run.
    """
    d = _diagonal(h) if h.dtype == np.float64 else None
    if d is not None and bool(np.all(d[1:] > d[:-1])):
        top = float(np.abs(d).max(initial=0.0))
        if top == 0.0 or _EIGH_UNSCALED[0] <= top <= _EIGH_UNSCALED[1]:
            return d.copy(), None
    return np.linalg.eigh(np.diag(h) if h.ndim == 1 else h)


def _interleave(dim: int) -> np.ndarray:
    """The order 0, dim-1, 1, dim-2, ... that puts the two ladder ends side by side.

    A cyclic band of width b (a band plus the corners that wrap the top
    rungs to the bottom ones) becomes an ordinary band of width at most 2b.
    """
    order = np.empty(dim, dtype=np.intp)
    order[0::2] = np.arange((dim + 1) // 2)
    order[1::2] = np.arange(dim - 1, (dim - 1) // 2, -1)
    return order


def residual_norm2(m: np.ndarray) -> float:
    """Spectral norm of a square residual matrix, by the first exact route that applies.

    1. A weighted shift (at most one nonzero per row and per column): the
       largest |entry|.
    2. An exactly hermitian matrix, or an exactly anti-hermitian one times
       1j: the largest |eigenvalue|.  Its bandwidth b is read from the
       nonzero pattern; when 2b + 1 >= dim, b of its symmetric permutation
       by ``_interleave`` is read instead (a cyclic band narrows so).
       When 2b + 1 < dim: for b = 1, ``eigvals_banded`` finds only the
       smallest and the largest eigenvalue (dsbevx/zhbevx bisection), or
       only the largest when the diagonal is zero and the spectrum
       symmetric, as in every interior commutator residual; for b >= 2,
       the norm is the least float x at which x I - m and x I + m both
       pass a banded Cholesky (dpbtrf/zpbtrf), found by bisection
       between the largest |entry| and the largest absolute row sum, with
       no reduction to tridiagonal.  Otherwise ``eigvalsh`` finds every
       eigenvalue.
    3. Anything else: the largest singular value.

    A matrix with a NaN or infinite entry gets NaN, before any route.

    One scan finds the nonzeros; every test reads them (``_nonzero_norm2``).
    ``m`` is not modified; only the dense eigenvalue route copies it, once,
    for LAPACK to overwrite.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"residual_norm2 takes a square matrix, got shape {m.shape}")
    return _nonzero_norm2(m.shape[0], *_nonzeros(m), m)


def _nonzeros(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of a matrix's nonzeros in row-major order, from one scan."""
    flat = np.flatnonzero(m != 0)  # far faster than np.nonzero's 2-d index pairs
    rows, cols = np.divmod(flat, m.shape[1])
    return rows, cols, m.ravel()[flat]


def _is_shift(rows: np.ndarray, cols: np.ndarray) -> bool:
    """True for a weighted shift: at most one nonzero in each row and each column.

    Its nonzero singular values are then exactly the moduli of its nonzeros.
    """
    return np.bincount(rows).max(initial=0) <= 1 and np.bincount(cols).max(initial=0) <= 1


def _nonzero_norm2(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   dense: np.ndarray | None = None) -> float:
    """``residual_norm2`` of the dim x dim matrix with these nonzeros, in row-major order.

    Hermitian means each nonzero equals the conjugate of its mirror entry
    (real and imaginary parts compared with ``==``, so a NaN is neither);
    a nonzero whose mirror is zero fails that.  The band storage is filled
    from the triplets alone.  The dense eigenvalue and SVD routes read
    ``dense``, the matrix the triplets came from, when it is given: its
    zeros may carry a sign that moves the eigenvalues' last bits.  Without
    it the triplets are scattered into zeros.
    """
    if not np.isfinite(vals).all():
        return float("nan")  # which fails the caller's gate; LAPACK raises or returns inf
    if _is_shift(rows, cols):
        return float(np.abs(vals).max(initial=0.0))
    # entry mirror[k] is (cols[k], rows[k]) when the pattern is symmetric
    mirror_keys = cols * dim + rows
    mirror = np.argsort(mirror_keys)
    phase = None
    if np.array_equal(mirror_keys[mirror], rows * dim + cols):
        mirrored = vals[mirror].conj()
        if np.all(vals == mirrored):
            phase = 1
        elif np.all(vals == -mirrored):
            phase = 1j
    if phase is None:
        return float(np.linalg.norm(_scatter(dim, rows, cols, vals, dense), 2))
    position = np.arange(dim)  # of each row and column in the banded matrix
    band = int(np.max(np.abs(rows - cols)))
    if 2 * band + 1 >= dim:
        position = np.argsort(_interleave(dim))
        band = int(np.max(np.abs(position[rows] - position[cols])))
    if 2 * band + 1 < dim:
        # lower band storage of the permuted m: row k holds its k-th subdiagonal,
        # real (dsbevx, dpbtrf; not zhbevx, zpbtrf) when every scaled nonzero is, as a
        # commutator's are
        scaled = phase * vals
        real = not np.iscomplexobj(scaled) or not scaled.imag.any()
        lower = np.zeros((band + 1, dim), dtype=float if real else scaled.dtype)
        below = position[rows] >= position[cols]
        at = position[cols[below]]
        lower[position[rows[below]] - at, at] = scaled.real[below] if real else scaled[below]
        if band == 1:
            # the ends, each by bisection on the tridiagonal (dstebz); with a zero
            # diagonal D T D = -T for D = diag((-1)^k), so lambda_min = -lambda_max
            def end(k):
                return scipy.linalg.eigvals_banded(lower, lower=True, select="i",
                                                   select_range=(k, k), check_finite=False)[0]

            if lower[0].any():
                return float(max(-end(0), end(dim - 1)))
            return float(end(dim - 1))
        # scaled by an even power of two to largest |entry| in [1, 4): exact, and
        # every step of a Cholesky factorization scales with it, so its verdicts stay
        mags = np.abs(vals)
        top = mags.max()
        shift = 2 * ((int(np.frexp(top)[1]) - 1) // 2)
        lower = np.ldexp(lower.view(float), -shift).view(lower.dtype)
        # the norm lies between the largest |entry| and the largest absolute row sum
        gershgorin = np.bincount(rows, weights=np.ldexp(mags, -shift)).max()
        return float(np.ldexp(_least_definite(lower, np.ldexp(top, -shift), gershgorin), shift))
    # the transpose of a hermitian matrix is its conjugate, with the same
    # eigenvalues, and is the Fortran-ordered view LAPACK can overwrite
    scaled = phase * _scatter(dim, rows, cols, vals, dense)
    evals = scipy.linalg.eigvalsh(scaled.T, overwrite_a=True, check_finite=False)
    return float(max(-evals[0], evals[-1]))


_INF_BITS = int(np.float64(np.inf).view(np.int64))


def _least_definite(lower: np.ndarray, low: float, high: float) -> float:
    """The least float x at which x I - A and x I + A both pass a banded Cholesky.

    A is the hermitian band in lower band storage ``lower``.  Both halves
    are factored by one dpbtrf (zpbtrf) call on the block band
    [x I - A | x I + A], whose blocks do not touch.  The search bisects
    the bit patterns of the floats between ``low`` and ``high``, after
    checking that the first fails and the last passes and widening the
    bracket past an end where rounding says otherwise, so the float
    returned passes and the one below it fails.  A factorization with a
    NaN pivot fails: dpbtf2 does not test for one.
    """
    factor = scipy.linalg.lapack.dpbtrf if lower.dtype == float else scipy.linalg.lapack.zpbtrf
    pair = np.empty((lower.shape[0], 2 * lower.shape[1]), dtype=lower.dtype, order="F")
    np.negative(lower, out=pair[:, :lower.shape[1]])
    pair[:, lower.shape[1]:] = lower

    def definite(bits: int) -> bool:
        ab = pair.copy(order="F")  # LAPACK's order, so dpbtrf factors the copy in place
        ab[0] += np.int64(bits).view(np.float64)
        chol, info = factor(ab, lower=1, overwrite_ab=1)
        return info == 0 and not np.isnan(chol[0]).any()

    lo, hi = (int(np.float64(x).view(np.int64)) for x in (low, high))
    step = max(hi - lo, 1)
    while hi < _INF_BITS and not definite(hi):
        lo, hi, step = hi, min(hi + step, _INF_BITS), 2 * step
    while definite(lo):  # x = 0 fails: A and -A are not both definite
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        if definite(mid):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def _scatter(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             dense: np.ndarray | None) -> np.ndarray:
    """``dense``, or else the dim x dim matrix with these nonzeros."""
    if dense is not None:
        return dense
    m = np.zeros((dim, dim), dtype=vals.dtype)
    m[rows, cols] = vals
    return m


@dataclasses.dataclass(frozen=True)
class LieAlgebraRep:
    """Finite matrix data for one clock algebra family, stored as its ladder.

    Attributes
    ----------
    family : str
        One of ``"su2"``, ``"h4"``, ``"su11"``.
    dim : int
        Hilbert-space dimension of the operators.
    diagonals : ndarray
        Real (n_diag, dim) array: row delta is the diagonal of the
        commuting operator ``D_delta``.
    ladder : ndarray
        Real length dim - 1 vector: the ladder mode R is the weighted shift
        with ``R[k, k + 1] = ladder[k]``; it annihilates the reference
        state and lowers the ladder index.
    structure_d : ndarray
        Real matrix ``d[delta, m]`` with ``[D_delta, R_m] = d[delta, m] R_m``.
    closure_q : ndarray
        Real coefficients with ``[R, R^dag] = sum_delta closure_q[delta] D_delta``.
    weights : ndarray
        Reference-state eigenvalues ``g_delta`` of the diagonal operators.
    reference_state : ndarray
        Unit vector annihilated by ``R``.
    truncated : bool
        True when the matrices are a cutoff of an infinite-dimensional
        representation.
    exact_dim : int
        Dimension of the leading subspace on which all commutation
        relations hold exactly (``dim`` when not truncated).
    valid_dim : int
        Designated valid subspace for state support claims (half the
        cutoff for truncated families).
    params : dict
        Family parameters (``j``, ``n_cut``, ``k``).
    """

    family: str
    dim: int
    diagonals: np.ndarray
    ladder: np.ndarray
    structure_d: np.ndarray
    closure_q: np.ndarray
    weights: np.ndarray
    reference_state: np.ndarray
    truncated: bool
    exact_dim: int
    valid_dim: int
    params: dict

    def __post_init__(self):
        # a complex ladder would need R R^H where the checks form R R^T
        def real(a, ndim):
            return isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == ndim
        if not (real(self.ladder, 1) and len(self.ladder) == self.dim - 1):
            raise ValueError(f"ladder must be a real vector of length dim - 1 = {self.dim - 1}")
        n = len(self.structure_d)
        if not (real(self.diagonals, 2) and self.diagonals.shape == (n, self.dim)
                and len(self.closure_q) == len(self.weights) == n):
            raise ValueError(f"diagonals must be a real (n, dim = {self.dim}) array, "
                             "n the length of structure_d, closure_q and weights")

    @property
    def diagonal_ops(self) -> tuple:
        """The dense ``D_delta``, built each time they are read."""
        return tuple(np.diag(d) for d in self.diagonals)

    @property
    def raising_ops(self) -> tuple:
        """The dense ladder mode ``(R,)``, built each time it is read."""
        return (np.diag(self.ladder, 1),)


def _reference(dim: int) -> np.ndarray:
    """|0>, the reference state of every family."""
    ref = np.zeros(dim)
    ref[0] = 1.0
    return ref


def build_su2_rep(j: float) -> LieAlgebraRep:
    """Spin-j ladder in the basis |n> = |j, m = n - j>, n = 0 .. 2j.

    The diagonal operator is sqrt(2)*S_z and the ladder mode is S^-, which
    annihilates the lowest-weight reference |j, -j>.  This normalization
    makes sum_delta d_delta^2 = 2 exactly.
    """
    two_j = round(2 * j) if np.isfinite(j) else 0  # round raises on NaN and inf
    if two_j <= 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j must be a positive integer or half-integer, got {j}")
    j = two_j / 2.0
    dim = two_j + 1
    n = np.arange(dim, dtype=float)
    k = np.arange(dim - 1)
    return LieAlgebraRep(
        family="su2",
        dim=dim,
        diagonals=(_SQRT2 * (n - j))[None, :],
        ladder=np.sqrt((k + 1) * (two_j - k)),
        structure_d=np.array([[-_SQRT2]]),
        closure_q=np.array([-_SQRT2]),
        weights=np.array([-_SQRT2 * j]),
        reference_state=_reference(dim),
        truncated=False,
        exact_dim=dim,
        valid_dim=dim,
        params={"j": j},
    )


def build_h4_rep(n_cut: int) -> LieAlgebraRep:
    """Oscillator algebra on the truncated Fock space |0> .. |n_cut>.

    Diagonal operators are the number operator and the identity; the
    ladder mode is the annihilator ``a``.  [a, a^dag] = I holds exactly on
    span{|0> .. |n_cut - 1>}; the diagonal picks up -n_cut in the last
    entry.  No rescaling is applied (the canonical commutator is kept).
    """
    if n_cut < 2:
        raise ValueError(f"n_cut must be at least 2, got {n_cut}")
    dim = n_cut + 1
    return LieAlgebraRep(
        family="h4",
        dim=dim,
        diagonals=np.stack([np.arange(dim, dtype=float), np.ones(dim)]),
        ladder=np.sqrt(np.arange(dim - 1) + 1.0),
        structure_d=np.array([[-1.0], [0.0]]),
        closure_q=np.array([0.0, 1.0]),
        weights=np.array([0.0, 1.0]),
        reference_state=_reference(dim),
        truncated=True,
        exact_dim=dim - 1,
        valid_dim=max(2, n_cut // 2),
        params={"n_cut": n_cut},
    )


def build_su11_rep(k: float, n_cut: int) -> LieAlgebraRep:
    """Discrete-series pseudo-spin ladder with Bargmann index k, truncated.

    Basis |n> carries K_0 = k + n.  The stored diagonal operator is
    sqrt(2)*K_0 and the ladder mode is K^-, with closure
    [K^-, K^+] = 2 K_0 = sqrt(2) * D_1 (note the sign twist relative to
    the compact family).
    """
    if not 0 < k < np.inf:
        raise ValueError(f"Bargmann index k must be positive and finite, got {k}")
    if n_cut < 2:
        raise ValueError(f"n_cut must be at least 2, got {n_cut}")
    dim = n_cut + 1
    n = np.arange(dim, dtype=float)
    m = np.arange(dim - 1)
    return LieAlgebraRep(
        family="su11",
        dim=dim,
        diagonals=(_SQRT2 * (k + n))[None, :],
        ladder=np.sqrt((m + 1) * (2 * k + m)),
        structure_d=np.array([[-_SQRT2]]),
        closure_q=np.array([_SQRT2]),
        weights=np.array([_SQRT2 * k]),
        reference_state=_reference(dim),
        truncated=True,
        exact_dim=dim - 1,
        valid_dim=max(2, n_cut // 2),
        params={"k": k, "n_cut": n_cut},
    )


@dataclasses.dataclass(frozen=True)
class CartanReport:
    """Residual norms from verify_cartan, full-space and exact-subspace."""

    diagonal_commutators: float
    ladder_relations: float
    closure_relation: float
    reference_annihilation: float
    reference_weights: float
    max_residual: float
    max_residual_exact_subspace: float
    passed: bool


def _max_norm(norms) -> float:
    """The largest of some residual norms (0.0 for none), NaN when any is NaN.

    Python's ``max`` skips a NaN that is not its first argument.
    """
    return float(np.max(list(norms), initial=0.0))


def _shift_relations(rep: LieAlgebraRep) -> tuple[float, list, tuple]:
    """r_diag, and the ladder's and the closure's (full, exact-subspace) norms.

    With diagonal Ds and the shift R every residual vanishes off R's
    nonzeros (rows, cols, vals) and the diagonal.  Each entry is formed in
    the operation order of the dense products, so it has their bits:
    [D_a, D_b] as d_a d_b - d_b d_a, [D, R] - s R as d[r] v - v d[c] - s v,
    and the closure's R R^T and R^T R as v^2 at R's row and at its column,
    the one term of each GEMM sum.  Exact zeros are dropped, a NaN kept.
    """
    dim, exact = rep.dim, rep.exact_dim
    rungs = np.arange(dim)
    rows = np.flatnonzero(rep.ladder)
    cols = rows + 1
    vals = rep.ladder[rows]

    def norms(r, c, v):
        keep = v != 0
        full = _nonzero_norm2(dim, r[keep], c[keep], v[keep])
        if exact == dim:
            return full, full
        inside = keep & (r < exact) & (c < exact)
        return full, _nonzero_norm2(dim, r[inside], c[inside], v[inside])

    diagonals = rep.diagonals
    r_diag = _max_norm(norms(rungs, rungs, da * db - db * da)[0]
                       for i, da in enumerate(diagonals) for db in diagonals[i + 1:])
    ladder = [norms(rows, cols, d[rows] * vals - vals * d[cols] - s * vals)
              for d, s in zip(diagonals, rep.structure_d[:, 0])]
    square = vals * vals
    lowered = np.zeros(dim)  # the diagonal of R R^T
    lowered[rows] = square
    raised = np.zeros(dim)  # the diagonal of R^T R
    raised[cols] = square
    target = sum(q * d for q, d in zip(rep.closure_q, diagonals))
    return r_diag, ladder, norms(rungs, rungs, (lowered - raised) - target)


def verify_cartan(rep: LieAlgebraRep, tol: float = 1e-12) -> CartanReport:
    """Check every stored structure relation against direct matrix arithmetic.

    Returns residual 2-norms (``residual_norm2``'s routes), formed on the
    ladder's nonzeros with the numbers of the dense products
    (``_shift_relations``); ``passed`` reflects the exact-subspace residual
    for truncated families and the full-space one otherwise.  The residuals
    fold with a max that keeps NaN, so a NaN anywhere fails the check.
    """
    ref = rep.reference_state
    r_diag, ladder, closure = _shift_relations(rep)
    # R ref and D ref as the length-dim vectors the dense products give, so
    # their norms sum alike
    image = np.zeros(rep.dim, dtype=np.result_type(rep.ladder, ref))
    image[:-1] = rep.ladder * ref[1:]
    r_ladder = _max_norm(full for full, _ in ladder)
    r_ladder_sub = _max_norm(sub for _, sub in ladder)
    r_close, r_close_sub = closure
    r_annih = float(np.linalg.norm(image))
    r_weights = _max_norm(np.linalg.norm(d * ref - g * ref)
                          for d, g in zip(rep.diagonals, rep.weights))

    full = _max_norm([r_diag, r_ladder, r_close, r_annih, r_weights])
    sub = _max_norm([r_diag, r_ladder_sub, r_close_sub, r_annih, r_weights])
    return CartanReport(
        diagonal_commutators=r_diag,
        ladder_relations=r_ladder,
        closure_relation=r_close,
        reference_annihilation=r_annih,
        reference_weights=r_weights,
        max_residual=full,
        max_residual_exact_subspace=sub,
        passed=bool((sub if rep.truncated else full) <= tol),
    )


@dataclasses.dataclass(frozen=True)
class ClockModel:
    """A ladder Hamiltonian built from one representation, stored as its spectrum.

    ``energies``, a real length-dim vector, is the diagonal of ``h_c = scale
    * (D_1 - g_1 * I)``, ``scale`` the energy unit passed to ``build_clock``:
    ``epsilon * {0 .. dim-1}`` with the reference state at exactly zero
    energy.  ``[h_c, R] = -epsilon R`` (the ladder mode lowers the clock).

    ``epsilon`` is the positive gap ``-scale * d_1``; ``b2`` is signed,
    ``-sum_delta g_delta d_delta``, and feeds the closed-form symbol
    ``(epsilon * b2 / 2)(cos(2 sigma rho) - 1)`` on the trig/hyperbolic
    branches (the oscillator symbol is ``epsilon * rho^2``).
    """

    rep: LieAlgebraRep
    epsilon: float
    b2: float
    energies: np.ndarray

    def __post_init__(self):
        e = self.energies
        if not (isinstance(e, np.ndarray) and e.dtype == np.float64 and e.shape == (self.dim,)):
            raise ValueError(f"energies must be a real vector of length dim = {self.dim}")

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def h_c(self) -> np.ndarray:
        """The dense diagonal ``h_c``, built each time it is read."""
        return np.diag(self.energies)


def build_clock(rep: LieAlgebraRep, scale: float = 1.0) -> ClockModel:
    """Assemble the zero-shifted ascending clock for the ladder mode.

    Parameters
    ----------
    rep : LieAlgebraRep
        Its first diagonal operator, shifted and scaled, is the clock.
    scale : float
        Positive energy unit multiplying the whole ladder.  The default
        keeps the normalized gap (sqrt(2) for su2/su11, 1 for h4);
        classical-limit sweeps pass an intensive value.
    """
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    d1 = float(rep.structure_d[0, 0])
    if d1 >= 0:
        raise ValueError(
            "the ladder mode does not lower the first diagonal operator; "
            f"gap would not be positive (d = {d1})"
        )
    epsilon = -scale * d1
    g1 = float(rep.weights[0])
    b2 = -float(np.dot(rep.weights, rep.structure_d[:, 0]))
    return ClockModel(rep=rep, epsilon=epsilon, b2=b2, energies=scale * (rep.diagonals[0] - g1))


def intensive_su2_clock(j: float) -> ClockModel:
    """Spin clock with the 1/(2j) intensive scale.

    The gap shrinks as sqrt(2)/(2j) so the coherent symbol is the
    size-independent function sqrt(2)*sin(rho)^2; growing j then plays the
    role of the classical limit at fixed manifold coordinates.
    """
    rep = build_su2_rep(j)
    return build_clock(rep, scale=1.0 / (2 * rep.params["j"]))


# Poisson widths of headroom an intensive oscillator clock keeps above its mean
_H4_BUFFER_SIGMAS = 8.0


def intensive_h4_clock(mean_n: float) -> ClockModel:
    """Oscillator clock sized for states of mean excitation ``mean_n``.

    Scale 1/mean_n keeps the symbol at the working point of order one;
    the cutoff leaves ``_H4_BUFFER_SIGMAS`` Poisson widths of headroom.
    """
    if mean_n <= 0:
        raise ValueError("mean_n must be positive")
    n_cut = int(np.ceil(mean_n + _H4_BUFFER_SIGMAS * np.sqrt(mean_n))) + 2
    rep = build_h4_rep(n_cut)
    return build_clock(rep, scale=1.0 / mean_n)
