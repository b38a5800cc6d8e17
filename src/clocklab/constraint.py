"""Zero-energy entangled states of the clock-system pair.

The composite generator is H = h_c (x) I - I (x) h_g.  Its kernel is
spanned by products of eigenvectors with coinciding eigenvalues, so a
nontrivial joint state exists only when the two spectra share more than
the ground coincidence.  A state is stored as its match (the paired
levels and the two eigenbases, None for the standard basis) and one
coefficient per pair; for every ladder match that is a weighted shift, so
nothing of dim_clock x dim_system is kept, and the dense form is built only
when it is read.
"""
from __future__ import annotations

import dataclasses
import warnings

import numpy as np

from .algebra import ClockModel, _eigh, _is_shift, _nonzeros, residual_norm2
from .gcs import _ring_sum, coherent_points

CHI2_FLOOR = 1e-14


@dataclasses.dataclass(frozen=True)
class SpectralMatch:
    """Eigendata of both factors plus the coinciding levels.

    ``pairs`` is an (n, 2) intp array whose row k = (i, j) pairs clock
    eigenvalue e_i with system eigenvalue f_j, equal within the tolerance
    of ``match_spectra``, in row-major order; it is (0, 2) when no level
    matches.  ``clock_basis`` and ``system_basis`` hold the eigenvectors as
    columns, or None for the standard basis (the eigenvectors LAPACK returns
    for a strictly ascending real diagonal, which every ladder factor is).
    ``clock_evecs`` and ``system_evecs`` are the dense matrices either way,
    built when read.
    """

    clock_evals: np.ndarray
    clock_basis: np.ndarray | None
    system_evals: np.ndarray
    system_basis: np.ndarray | None
    pairs: np.ndarray

    @property
    def standard_basis(self) -> bool:
        """True when both factors are in the standard basis."""
        return self.clock_basis is None and self.system_basis is None

    @property
    def clock_evecs(self) -> np.ndarray:
        return _evecs(self.clock_basis, len(self.clock_evals))

    @property
    def system_evecs(self) -> np.ndarray:
        return _evecs(self.system_basis, len(self.system_evals))


def match_spectra(h_clock: np.ndarray, h_system: np.ndarray, tol: float = 1e-9) -> SpectralMatch:
    """Diagonalize both operators and pair up coinciding eigenvalues.

    Every (i, j) with |e_i - f_j| <= tol is reported, in row-major order;
    for nondegenerate spectra the pair count equals the kernel dimension of
    the composite generator.  A real vector stands for the diagonal
    operator that holds it (``_eigh``).
    """
    e_c, v_c = _eigh(h_clock)
    e_g, v_g = _eigh(h_system)
    return SpectralMatch(clock_evals=e_c, clock_basis=v_c, system_evals=e_g, system_basis=v_g,
                         pairs=_level_pairs(e_c, e_g, tol))


def _level_pairs(e_c: np.ndarray, e_g: np.ndarray, tol: float) -> np.ndarray:
    """``np.argwhere(np.abs(e_c[:, None] - e_g[None, :]) <= tol)`` for an ascending e_g.

    fl(e_c[i] - e_g[j]) does not increase with j, so the j that pass form
    one window for each i.  ``searchsorted`` finds the window of
    e_c[i] -+ tol widened by 4 eps (|e_c[i]| + tol), more than the roundings
    of the bounds and of the test can move its ends; the test then runs on
    the window's candidates only, which it keeps in row-major order.
    """
    slack = 4 * np.finfo(float).eps * (np.abs(e_c) + tol)
    lo = np.searchsorted(e_g, e_c - tol - slack, side="left")
    counts = np.maximum(np.searchsorted(e_g, e_c + tol + slack, side="right") - lo, 0)
    idx_c = np.repeat(np.arange(len(e_c)), counts)
    # candidate p of row i is e_g[lo[i] + p - start[i]], start the exclusive cumsum
    idx_g = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    keep = np.abs(e_c[idx_c] - e_g[idx_g]) <= tol
    return np.stack([idx_c[keep], idx_g[keep]], axis=1)


def gaussian_profile(match: SpectralMatch, center: float, width: float) -> np.ndarray:
    """Normalized Gaussian amplitudes over the matched pairs, by energy."""
    if not len(match.pairs):
        raise ValueError("no matched pairs to weight")
    if width <= 0:
        raise ValueError("width must be positive")
    e = match.clock_evals[match.pairs[:, 0]]
    amps = np.exp(-((e - center) ** 2) / (4.0 * width * width))
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("profile vanishes on every matched pair")
    return amps / norm


def random_profile(match: SpectralMatch, seed: int) -> np.ndarray:
    """Reproducible complex amplitudes over the matched pairs."""
    if not len(match.pairs):
        raise ValueError("no matched pairs to weight")
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=len(match.pairs)) + 1j * rng.normal(size=len(match.pairs))
    return amps / np.linalg.norm(amps)


def _evecs(basis: np.ndarray | None, dim: int) -> np.ndarray:
    """The eigenvectors as dense columns: ``basis``, or the identity for None."""
    return np.eye(dim) if basis is None else basis


def _dense(match: SpectralMatch, coefficients: np.ndarray) -> np.ndarray:
    """sum_k c_k |e_k> (x) |f_k> as a (dim_clock, dim_system) array.

    In the standard basis the coefficients are scattered into zeros (the
    GEMM's sum without its zero terms), else it is
    (clock_evecs[:, i] * c) @ system_evecs[:, j]^T over the pairs.
    """
    idx_c, idx_g = match.pairs.T
    if match.standard_basis:
        mat = np.zeros((len(match.clock_evals), len(match.system_evals)), dtype=complex)
        np.add.at(mat, (idx_c, idx_g), coefficients)
        return mat
    return (match.clock_evecs[:, idx_c] * coefficients) @ match.system_evecs[:, idx_g].T


@dataclasses.dataclass(frozen=True)
class CompositeState:
    """A kernel element of the composite generator, sum_k c_k |e_k> (x) |f_k>.

    ``coefficients[k]`` multiplies the k-th pair (i, j) of ``match``: clock
    eigenvector i times system eigenvector j.  ``matrix``, the product-space
    vector reshaped to (dim_clock, dim_system), is built each time it is read.
    """

    match: SpectralMatch
    coefficients: np.ndarray
    entanglement_entropy: float

    @property
    def dim_clock(self) -> int:
        return len(self.match.clock_evals)

    @property
    def dim_system(self) -> int:
        return len(self.match.system_evals)

    @property
    def matrix(self) -> np.ndarray:
        return _dense(self.match, self.coefficients)


def build_psi(match: SpectralMatch, coefficients: np.ndarray) -> CompositeState:
    """Assemble sum_k c_k |e_k> (x) |f_k> over the matched pairs.

    Warns when only one pair is available (the state is separable and
    carries no relational dynamics).  The constraint residual
    ||H psi|| <= 1e-10 is asserted against the eigendata.  The Schmidt
    values of a standard-basis shift (each pair alone in its row and
    column) are the coefficients' moduli; any other state builds its
    matrix and takes them off its nonzeros or its SVD.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    if len(coefficients) != len(match.pairs):
        raise ValueError(
            f"{len(coefficients)} coefficients for {len(match.pairs)} matched pairs"
        )
    if not len(match.pairs):
        raise ValueError("cannot build a constraint state: no matched pairs")
    norm = np.linalg.norm(coefficients)
    if norm == 0:
        raise ValueError("all coefficients vanish")
    coefficients = coefficients / norm
    if len(match.pairs) == 1:
        warnings.warn(
            "single matched pair: the constraint state is separable and the "
            "conditional state will not evolve", stacklevel=2,
        )
    idx_c, idx_g = match.pairs.T
    if match.standard_basis and _is_shift(idx_c, idx_g):
        svals = np.sort(np.abs(coefficients))[::-1]
    else:
        mat = _dense(match, coefficients)
        rows, cols, vals = _nonzeros(mat)
        if _is_shift(rows, cols):  # the singular values are the moduli, in the SVD's order
            svals = np.sort(np.abs(vals))[::-1]
        else:
            svals = np.linalg.svd(mat, compute_uv=False)
    probs = svals ** 2
    probs = probs[probs > 1e-300]
    entropy = float(-np.sum(probs * np.log(probs)))

    energy_resid = float(np.linalg.norm(
        (match.clock_evals[idx_c] - match.system_evals[idx_g]) * coefficients
    ))
    if energy_resid > 1e-10:
        raise ValueError(f"matched pairs are not degenerate enough: ||H psi|| ~ {energy_resid:.2e}")
    return CompositeState(match=match, coefficients=coefficients, entanglement_entropy=entropy)


def ladder_match(clock: ClockModel, h_system: np.ndarray) -> SpectralMatch:
    """match_spectra of a clock against a system at the library's tolerance.

    Levels pair up within 1e-9 of the gap, and within 1e-9 absolute when
    the gap is below one.  Raises when the spectra share no level.
    """
    match = match_spectra(clock.energies, h_system, tol=1e-9 * max(clock.epsilon, 1.0))
    if not len(match.pairs):
        raise ValueError("no constraint states: the spectra share no level")
    return match


def gaussian_state(clock: ClockModel, h_system: np.ndarray,
                   center: float, width: float) -> CompositeState:
    """The constraint state with a Gaussian energy profile over ``ladder_match``."""
    match = ladder_match(clock, h_system)
    return build_psi(match, gaussian_profile(match, center=center, width=width))


@dataclasses.dataclass(frozen=True)
class ConditionalState:
    """System state conditioned on the clock reading (rho, phi).

    ``unnormalized`` is the partial inner product <lambda| psi; ``chi2``
    its squared norm.  ``normalized`` raises when chi2 is below the
    support floor.
    """

    rho: float
    phi: float
    unnormalized: np.ndarray
    chi2: float

    @property
    def normalized(self) -> np.ndarray:
        if self.chi2 < CHI2_FLOOR:
            raise ValueError(
                f"unsupported rho: chi2 = {self.chi2:.3e} is below {CHI2_FLOOR:.0e}"
            )
        return self.unnormalized / np.sqrt(self.chi2)


def _check_clock_dim(psi: CompositeState, clock: ClockModel) -> None:
    if psi.dim_clock != clock.dim:
        raise ValueError(
            f"state clock dimension {psi.dim_clock} != clock dimension {clock.dim}"
        )


def conditional_state(psi: CompositeState, clock: ClockModel,
                      rho: float, phi: float) -> ConditionalState:
    """Project the composite state on the clock coherent state at (rho, phi)."""
    vec_out = _conditional_rows(psi, clock, rho, [phi])[0]
    chi2 = float(np.real(np.vdot(vec_out, vec_out)))
    return ConditionalState(rho=float(rho), phi=float(phi), unnormalized=vec_out, chi2=chi2)


def _conditional_rows(psi: CompositeState, clock: ClockModel, rho: float, phis) -> np.ndarray:
    """Row a: ``conditional_state(psi, clock, rho, phis[a]).unnormalized``.

    One table of bras at a single radius (tail-guarded once).  For a
    standard-basis psi with one pair in each column (every ladder match),
    entry j of a row is the one product conj(bra[i]) c_k of its pair
    k = (i, j); any other psi multiplies the table with its matrix.
    """
    _check_clock_dim(psi, clock)
    phis = np.asarray(phis, dtype=float)
    bras = coherent_points(clock.rep, [rho], phis)
    idx_c, idx_g = psi.match.pairs.T
    if not psi.match.standard_basis or np.bincount(idx_g).max(initial=0) > 1:
        return bras.conj().T @ psi.matrix
    terms = bras[idx_c]
    del bras  # one call holds two table-sized arrays at once, not three
    np.conjugate(terms, out=terms)
    terms *= psi.coefficients[:, None]
    rows = np.zeros((len(phis), psi.dim_system), dtype=complex)
    rows[:, idx_g] = terms.T
    return rows


def reduced_density_gamma(psi: CompositeState) -> np.ndarray:
    """System-side reduced density matrix, trace one, exactly hermitian.

    The product's two triangles can round differently for a complex psi;
    their average (g + g^H)/2 equals its conjugate transpose bit for bit,
    so a residual built on it takes ``residual_norm2``'s eigenvalue route,
    and it leaves a g that is already hermitian unchanged.
    """
    return _system_density(psi.matrix)


def _system_density(mat: np.ndarray) -> np.ndarray:
    g = mat.conj().T @ mat
    return (g + g.conj().T) / 2


def reduced_density_clock(psi: CompositeState) -> np.ndarray:
    """Clock-side reduced density matrix, trace one."""
    mat = psi.matrix
    return mat @ mat.conj().T


def chi2_identity_residual(psi: CompositeState, clock: ClockModel,
                           rho: float, phi: float) -> float:
    """|chi2 - <lambda| rho_clock |lambda>| (an exact identity).

    One coherent table serves both sides: its bra product with psi is
    the conditional state and its column the density side's vector.
    """
    _check_clock_dim(psi, clock)
    mat = psi.matrix
    bra = coherent_points(clock.rep, [rho], [phi])
    row = (bra.conj().T @ mat)[0]
    chi2 = float(np.real(np.vdot(row, row)))
    vec = bra[:, 0]
    via_density = float(np.real(np.vdot(vec, (mat @ mat.conj().T) @ vec)))
    return abs(chi2 - via_density)


def precs_decomposition_check(psi: CompositeState, clock: ClockModel,
                              n_polar: int | None = None,
                              n_azim: int | None = None) -> float:
    """Residual of the coherent-aggregate form of the reduced system state.

    Integrates |Phi(Omega)><Phi(Omega)| over the clock manifold with the
    quadrature of the identity resolution (``Family.rings``, exact on the
    valid subspace at its default node counts) and compares against the
    partial trace.  Returns the 2-norm of the difference.
    """
    _check_clock_dim(psi, clock)
    mat = psi.matrix
    acc = mat.T @ _ring_sum(clock.rep, n_polar, n_azim).conj() @ mat.conj()
    return residual_norm2((acc + acc.conj().T) / 2 - _system_density(mat))
