"""Matrix representations of the clock algebras and ladder Hamiltonians.

Three families are provided: spin (``su2``, exact at every dimension), the
oscillator algebra (``h4``, truncated Fock space) and the pseudo-spin
discrete series (``su11``, truncated).  Every representation exposes the
same Cartan-style data: commuting hermitian diagonal operators ``D_delta``,
a single lowering mode ``R`` annihilating the reference state, the real
structure constants ``[D_delta, R] = d_delta R``, and real closure
coefficients ``[R, R^dag] = sum_delta q_delta D_delta``.

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


def _diagonal(a: np.ndarray) -> np.ndarray | None:
    """The diagonal of a square matrix with no nonzero off the diagonal, else None."""
    d = np.diagonal(a)
    return d if np.count_nonzero(a) == np.count_nonzero(d) else None


def _is_identity(a: np.ndarray) -> bool:
    """True when a is exactly the identity matrix."""
    d = _diagonal(a) if a.shape[0] == a.shape[1] else None
    return d is not None and bool(np.all(d == 1))


def _shift_moduli(m: np.ndarray) -> np.ndarray | None:
    """|entries| of the nonzeros of a weighted shift, else None.

    A weighted shift has at most one nonzero in each row and each column,
    so its nonzero singular values are exactly those moduli.
    """
    nonzero = m != 0
    if (np.count_nonzero(nonzero, axis=0) > 1).any() or \
            (np.count_nonzero(nonzero, axis=1) > 1).any():
        return None
    return np.abs(m[nonzero])


# LAPACK's syevd rescales a matrix whose largest |entry| lies outside
# [sqrt(safmin/eps), 1/sqrt(safmin/eps)] = [2^-485, 2^485], moving last bits
_EIGH_UNSCALED = (2.0 ** -485, 2.0 ** 485)


def _eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh``, or ``(diag, I)`` for a real diagonal that strictly ascends.

    LAPACK returns exactly that pair then, unless it rescales the matrix.
    A degenerate or unsorted diagonal goes to eigh: its eigenvector order
    need not be a stable sort.
    """
    d = _diagonal(h) if h.dtype == np.float64 else None
    if d is not None and bool(np.all(d[1:] > d[:-1])):
        top = float(np.abs(d).max(initial=0.0))
        if top == 0.0 or _EIGH_UNSCALED[0] <= top <= _EIGH_UNSCALED[1]:
            return d.copy(), np.eye(len(d))
    return np.linalg.eigh(h)


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
       ``eigvals_banded`` runs when 2b + 1 < dim, ``eigvalsh`` otherwise.
    3. Anything else: the largest singular value, or NaN when the SVD fails
       (it does on a NaN entry).

    One scan finds the nonzeros; every test reads them (``_nonzero_norm2``).
    ``m`` is not modified; only the dense eigenvalue route copies it, once,
    for LAPACK to overwrite.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"residual_norm2 takes a square matrix, got shape {m.shape}")
    flat = np.flatnonzero(m != 0)  # far faster than np.nonzero's 2-d index pairs
    rows, cols = np.divmod(flat, m.shape[1])
    return _nonzero_norm2(m.shape[0], rows, cols, m.ravel()[flat], m)


def _nonzero_norm2(dim: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                   dense: np.ndarray | None = None) -> float:
    """``residual_norm2`` of the dim x dim matrix with these nonzeros, in row-major order.

    Hermitian means each nonzero equals the conjugate of its mirror entry
    (real and imaginary parts compared with ``==``, so a NaN is neither);
    a nonzero whose mirror is zero fails that.  LAPACK reads ``dense``, the
    matrix the triplets came from, when it is given: its zeros may carry a
    sign that moves the eigenvalues' last bits.  Without it the triplets are
    scattered into zeros.
    """
    if np.bincount(rows).max(initial=0) <= 1 and np.bincount(cols).max(initial=0) <= 1:
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
        try:
            return float(np.linalg.norm(_scatter(dim, rows, cols, vals, dense), 2))
        except np.linalg.LinAlgError:  # LAPACK's SVD refuses a NaN input
            return float("nan")  # which fails the caller's gate
    order = np.arange(dim)
    position = order
    band = int(np.max(np.abs(rows - cols)))
    if 2 * band + 1 >= dim:
        order = _interleave(dim)
        position = np.argsort(order)
        band = int(np.max(np.abs(position[rows] - position[cols])))
    if 2 * band + 1 < dim:
        # lower band storage of m[order][:, order]: row k holds its k-th subdiagonal
        lower = np.zeros((band + 1, dim), dtype=np.result_type(vals, phase))
        if dense is None:
            below = position[rows] >= position[cols]
            at = position[cols[below]]
            lower[position[rows[below]] - at, at] = phase * vals[below]
        else:
            for k in range(band + 1):
                lower[k, :dim - k] = phase * dense[order[k:], order[:dim - k]]
        evals = scipy.linalg.eigvals_banded(lower, lower=True, check_finite=False)
    else:
        # the transpose of a hermitian matrix is its conjugate, with the same
        # eigenvalues, and is the Fortran-ordered view LAPACK can overwrite
        scaled = phase * _scatter(dim, rows, cols, vals, dense)
        evals = scipy.linalg.eigvalsh(scaled.T, overwrite_a=True, check_finite=False)
    return float(max(-evals[0], evals[-1]))


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
    """Finite matrix data for one clock algebra family.

    Attributes
    ----------
    family : str
        One of ``"su2"``, ``"h4"``, ``"su11"``.
    dim : int
        Hilbert-space dimension of the stored matrices.
    diagonal_ops : tuple of ndarray
        Commuting hermitian operators ``D_delta``.
    raising_ops : tuple of ndarray
        Ladder modes ``R_m`` (single mode here); each annihilates the
        reference state and lowers the ladder index.
    structure_d : ndarray
        Real matrix ``d[delta, m]`` with ``[D_delta, R_m] = d[delta, m] R_m``.
    closure_q : ndarray
        Real coefficients with ``[R, R^dag] = sum_delta closure_q[delta] D_delta``.
    weights : ndarray
        Reference-state eigenvalues ``g_delta`` of the diagonal operators.
    reference_state : ndarray
        Unit vector annihilated by every ``R_m``.
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
    diagonal_ops: tuple
    raising_ops: tuple
    structure_d: np.ndarray
    closure_q: np.ndarray
    weights: np.ndarray
    reference_state: np.ndarray
    truncated: bool
    exact_dim: int
    valid_dim: int
    params: dict


def build_su2_rep(j: float) -> LieAlgebraRep:
    """Spin-j ladder in the basis |n> = |j, m = n - j>, n = 0 .. 2j.

    The diagonal operator is sqrt(2)*S_z and the ladder mode is S^-, which
    annihilates the lowest-weight reference |j, -j>.  This normalization
    makes sum_delta d_delta^2 = 2 exactly.
    """
    two_j = round(2 * j)
    if two_j <= 0 or abs(2 * j - two_j) > 1e-12:
        raise ValueError(f"j must be a positive integer or half-integer, got {j}")
    j = two_j / 2.0
    dim = two_j + 1
    n = np.arange(dim, dtype=float)
    d1 = np.diag(_SQRT2 * (n - j))
    lowering = np.zeros((dim, dim))
    for k in range(dim - 1):
        lowering[k, k + 1] = np.sqrt((k + 1) * (two_j - k))
    ref = np.zeros(dim)
    ref[0] = 1.0
    return LieAlgebraRep(
        family="su2",
        dim=dim,
        diagonal_ops=(d1,),
        raising_ops=(lowering,),
        structure_d=np.array([[-_SQRT2]]),
        closure_q=np.array([-_SQRT2]),
        weights=np.array([-_SQRT2 * j]),
        reference_state=ref,
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
    number = np.diag(np.arange(dim, dtype=float))
    a = np.zeros((dim, dim))
    for k in range(dim - 1):
        a[k, k + 1] = np.sqrt(k + 1.0)
    ref = np.zeros(dim)
    ref[0] = 1.0
    return LieAlgebraRep(
        family="h4",
        dim=dim,
        diagonal_ops=(number, np.eye(dim)),
        raising_ops=(a,),
        structure_d=np.array([[-1.0], [0.0]]),
        closure_q=np.array([0.0, 1.0]),
        weights=np.array([0.0, 1.0]),
        reference_state=ref,
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
    if k <= 0:
        raise ValueError(f"Bargmann index k must be positive, got {k}")
    if n_cut < 2:
        raise ValueError(f"n_cut must be at least 2, got {n_cut}")
    dim = n_cut + 1
    n = np.arange(dim, dtype=float)
    d1 = np.diag(_SQRT2 * (k + n))
    km = np.zeros((dim, dim))
    for m in range(dim - 1):
        km[m, m + 1] = np.sqrt((m + 1) * (2 * k + m))
    ref = np.zeros(dim)
    ref[0] = 1.0
    return LieAlgebraRep(
        family="su11",
        dim=dim,
        diagonal_ops=(d1,),
        raising_ops=(km,),
        structure_d=np.array([[-_SQRT2]]),
        closure_q=np.array([_SQRT2]),
        weights=np.array([_SQRT2 * k]),
        reference_state=ref,
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


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y]; with a diagonal x the products are broadcasts, with the GEMMs' bits."""
    d = _diagonal(x)
    if d is None:
        return x @ y - y @ x
    return d[:, None] * y - y * d


def _max_norm(norms) -> float:
    """The largest of some residual norms (0.0 for none), NaN when any is NaN.

    Python's ``max`` skips a NaN that is not its first argument.
    """
    return float(np.max(list(norms), initial=0.0))


def _shift_form(rep: LieAlgebraRep) -> tuple | None:
    """(diagonals, rows, cols, vals) when every D is a real diagonal and the one
    ladder mode R is a real weighted shift, else None.

    rows, cols, vals are R's nonzeros in row-major order.
    """
    if len(rep.raising_ops) != 1 or rep.raising_ops[0].dtype != np.float64:
        return None
    diagonals = [_diagonal(d) if d.dtype == np.float64 else None for d in rep.diagonal_ops]
    if any(d is None for d in diagonals):
        return None
    r_op = rep.raising_ops[0]
    flat = np.flatnonzero(r_op != 0)
    rows, cols = np.divmod(flat, rep.dim)
    if np.bincount(rows).max(initial=0) > 1 or np.bincount(cols).max(initial=0) > 1:
        return None
    return diagonals, rows, cols, r_op.ravel()[flat]


def _dense_relations(rep: LieAlgebraRep, tol: float) -> tuple[float, list, tuple]:
    """r_diag, the ladder's and the closure's (full, exact-subspace) norms, from
    the dense products."""
    def exact_norm(resid: np.ndarray, full_norm: float) -> float:
        # 2-norm of proj @ resid @ proj for the projector on the exact subspace;
        # resid is a temporary, so its border is zeroed in place
        if rep.exact_dim == rep.dim:
            return full_norm  # the projector is the identity: the same norm
        resid[rep.exact_dim:, :] = 0.0
        resid[:, rep.exact_dim:] = 0.0
        return residual_norm2(resid)

    diag = []
    for i, da in enumerate(rep.diagonal_ops):
        if np.linalg.norm(da - da.conj().T) > tol:  # Frobenius >= 2-norm: no looser
            raise ValueError(f"diagonal operator {i} is not hermitian")
        diag.extend(residual_norm2(_comm(da, db)) for db in rep.diagonal_ops[i + 1:])

    ladder = []
    for m, r_op in enumerate(rep.raising_ops):
        for delta, d_op in enumerate(rep.diagonal_ops):
            resid = _comm(d_op, r_op) - rep.structure_d[delta, m] * r_op
            norm = residual_norm2(resid)
            ladder.append((norm, exact_norm(resid, norm)))

    target = sum(q * d_op for q, d_op in zip(rep.closure_q, rep.diagonal_ops))
    r_op = rep.raising_ops[0]
    closure_resid = _comm(r_op, r_op.conj().T) - target
    r_close = residual_norm2(closure_resid)
    return _max_norm(diag), ladder, (r_close, exact_norm(closure_resid, r_close))


def _shift_relations(rep: LieAlgebraRep, diagonals: list, rows: np.ndarray,
                     cols: np.ndarray, vals: np.ndarray) -> tuple[float, list, tuple]:
    """``_dense_relations`` on the nonzeros of the shift R, with the dense bits.

    With diagonal Ds every residual vanishes off R's entries and the
    diagonal.  Each entry is formed in the dense operation order: [D_a, D_b]
    as d_a d_b - d_b d_a, [D, R] - s R as d[r] v - v d[c] - s v, and the
    closure's R R^T and R^T R as v^2 at R's row and at its column, the one
    term of each GEMM sum.  A real diagonal is hermitian, so the hermitian
    guard of the dense route cannot fire here.
    """
    dim, exact = rep.dim, rep.exact_dim
    rungs = np.arange(dim)

    def norms(r, c, v):
        keep = v != 0
        full = _nonzero_norm2(dim, r[keep], c[keep], v[keep])
        if exact == dim:
            return full, full
        inside = keep & (r < exact) & (c < exact)
        return full, _nonzero_norm2(dim, r[inside], c[inside], v[inside])

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

    Returns residual 2-norms (``residual_norm2``); ``passed`` reflects the
    exact-subspace residual for truncated families and the full-space one
    otherwise.  A rep with real diagonal Ds and one real weighted-shift
    ladder mode (every family here) is checked on the ladder's nonzeros
    (``_shift_relations``), with the numbers of the dense products; any
    other rep forms the dense products.  The residuals fold with a max that
    keeps NaN, so a NaN anywhere fails the check.
    """
    ref = rep.reference_state
    shift = _shift_form(rep)
    if shift is None:
        r_diag, ladder, closure = _dense_relations(rep, tol)
        images = [r_op @ ref for r_op in rep.raising_ops]
        scaled = [d_op @ ref for d_op in rep.diagonal_ops]
    else:
        diagonals, rows, cols, vals = shift
        r_diag, ladder, closure = _shift_relations(rep, diagonals, rows, cols, vals)
        # the length-dim vectors the dense products give, so the norms sum alike
        image = np.zeros(rep.dim, dtype=np.result_type(vals, ref))
        image[rows] = vals * ref[cols]
        images = [image]
        scaled = [d * ref for d in diagonals]

    r_ladder = _max_norm(full for full, _ in ladder)
    r_ladder_sub = _max_norm(sub for _, sub in ladder)
    r_close, r_close_sub = closure
    r_annih = _max_norm(np.linalg.norm(image) for image in images)
    r_weights = _max_norm(np.linalg.norm(v - g * ref) for v, g in zip(scaled, rep.weights))

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
    """A ladder Hamiltonian built from one representation.

    ``h_c = scale * (D_1 - g_1 * I)``, ``scale`` the energy unit passed to
    ``build_clock``, has spectrum ``epsilon * {0 .. dim-1}``
    with the reference state at exactly zero energy and
    ``[h_c, R] = -epsilon R`` (the ladder mode lowers the clock).

    ``epsilon`` is the positive gap ``-scale * d_1``; ``b2`` is signed,
    ``-sum_delta g_delta d_delta``, and feeds the closed-form symbol
    ``(epsilon * b2 / 2)(cos(2 sigma rho) - 1)`` on the trig/hyperbolic
    branches (the oscillator symbol is ``epsilon * rho^2``).
    """

    rep: LieAlgebraRep
    epsilon: float
    b2: float
    h_c: np.ndarray

    @property
    def dim(self) -> int:
        return self.rep.dim

    @property
    def lowering_op(self) -> np.ndarray:
        return self.rep.raising_ops[0]


def build_clock(rep: LieAlgebraRep, scale: float = 1.0) -> ClockModel:
    """Assemble the zero-shifted ascending clock for the ladder mode.

    Parameters
    ----------
    rep : LieAlgebraRep
        The implemented families carry one ladder mode, ``raising_ops[0]``.
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
    h_c = scale * (rep.diagonal_ops[0] - g1 * np.eye(rep.dim))
    if np.linalg.norm(h_c - h_c.conj().T) > 1e-12:  # Frobenius >= 2-norm: no looser
        raise ValueError("assembled clock Hamiltonian is not hermitian")
    b2 = -float(np.dot(rep.weights, rep.structure_d[:, 0]))
    return ClockModel(rep=rep, epsilon=epsilon, b2=b2, h_c=h_c)


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
