"""Coherent states on the clock manifolds and their symbol calculus.

States are labelled by a single complex coordinate lambda = rho*exp(i*phi)
(one ladder mode); a state is its normalized vector, and a batch of states
is a grid: column r len(phis) + a is the state at (radii[r], phis[a]).
Two independent construction routes are kept on purpose: ``displace``
exponentiates the anti-hermitian generator with a dense Pade expm, walking
each ray from its first radius in equal steps, while ``coherent_points``
evaluates the family's closed-form amplitudes (see ``families``).  Their
agreement is the executable disentangling check.  The manifold quadrature
behind the identity resolution and the PRECS decomposition is summed ring
by ring (``_ring_sum``), with no table of coherent vectors.
"""
from __future__ import annotations

import dataclasses
import math
import numpy as np
from scipy.linalg import expm

from .algebra import ClockModel, LieAlgebraRep, residual_norm2
from .families import lookup

TAIL_MASS_LIMIT = 1e-10


# radii within this many ulps of radii[0] + step * arange(n) count as evenly
# spaced: np.linspace sets its last point to the stop value, which the walk
# from the first point can miss by one ulp
EVEN_ULPS = 4


def displace(rep: LieAlgebraRep, radii, phis) -> np.ndarray:
    """exp(rho (e^{i phi} R^dag - e^{-i phi} R)) applied to the reference state, on a grid.

    Column r len(phis) + a is the state at (radii[r], phis[a]), as in
    ``coherent_points``.  Along one azimuth every generator is rho G_a, so
    the states at evenly spaced radii are exp(radii[0] G_a) ref followed by
    repeated products with S_a = exp(step G_a): two Pade ``expm`` calls per
    azimuth (one for a single radius), each further column one product.
    Radii that are not evenly spaced (or not finite) are refused with
    ValueError.  The oracle reads only the generator and ``expm``: no phase
    rotation, eigendecomposition or closed-form amplitude.

    For truncated representations the amplitude above the valid subspace
    must stay below TAIL_MASS_LIMIT in every column, otherwise the cutoff is
    being felt and a ValueError is raised.
    """
    radii = np.asarray(radii, dtype=float)
    phis = np.asarray(phis, dtype=float)
    n = len(radii)
    step = (radii[-1] - radii[0]) / (n - 1) if n > 1 else 0.0
    with np.errstate(invalid="ignore"):  # inf - inf
        off = np.abs(radii - (radii[0] + step * np.arange(n))).max()
    if not off <= EVEN_ULPS * np.finfo(float).eps * np.abs(radii).max():  # NaN compares False
        raise ValueError(f"radii must be finite and evenly spaced, off by {off:.3e}")
    r_op = rep.raising_ops[0]
    r_dag = r_op.conj().T
    ref = rep.reference_state.astype(complex)
    out = np.empty((rep.dim, n, len(phis)), dtype=complex)
    for a, phi in enumerate(phis):
        gen = np.exp(1j * phi) * r_dag - np.exp(-1j * phi) * r_op
        out[:, 0, a] = expm(radii[0] * gen) @ ref
        if n > 1:
            walk = expm(step * gen)
            for r in range(1, n):
                out[:, r, a] = walk @ out[:, r - 1, a]
    out = out.reshape(rep.dim, -1)
    if rep.truncated:
        tail = float(np.max(np.sum(np.abs(out[rep.valid_dim:]) ** 2, axis=0)))
        if tail > TAIL_MASS_LIMIT:
            raise ValueError(
                f"tail mass {tail:.3e} above the valid subspace exceeds "
                f"{TAIL_MASS_LIMIT:.0e}; raise the cutoff or shrink |omega|"
            )
    return out


def amplitude_columns(rep: LieAlgebraRep, radii) -> np.ndarray:
    """Column r: the family's closed-form amplitudes at radii[r], from one family call."""
    radii = np.asarray(radii, dtype=float)
    if not radii.size:
        raise ValueError("no radii: a table needs at least one")
    bad = radii[~((radii >= 0) & (radii < np.inf))]  # NaN compares False
    if bad.size:
        raise ValueError(f"rho must be finite and nonnegative, got {bad[0]}")
    return lookup(rep.family).amplitudes(rep, radii)


def _phase_table(dim: int, phis: np.ndarray) -> np.ndarray:
    """exp(i n phis[a]) at row n < dim, column a, by angle addition.

    With n = q B + r and B = ceil(sqrt(dim)), the entry is
    exp(i q B phi) * exp(i r phi): two tables of about sqrt(dim) rows are
    exponentiated and each entry is one complex product.  Like the direct
    exp(i n phi) it errs by about |n phi| eps / 2, from rounding the
    argument; at phi = 0 every factor, and so every entry, is exactly 1.
    Each entry depends on its own (n, phi) only, so a column does not
    depend on the other phis.
    """
    block = math.isqrt(dim - 1) + 1  # ceil(sqrt(dim))
    # one exponential: rows r < B hold exp(i r phi), the rows after them exp(i q B phi)
    steps = np.concatenate((np.arange(block), block * np.arange(-(-dim // block))))
    table = 1j * np.multiply.outer(steps, phis)
    np.exp(table, out=table)
    return (table[block:, None] * table[:block]).reshape(-1, len(phis))[:dim]


def _phased(rep: LieAlgebraRep, amps: np.ndarray, phis) -> np.ndarray:
    """Column r len(phis) + a: amps[:, r] * exp(i n phis[a]), one table-sized complex array.

    The phases (``_phase_table``) are formed once per azimuth and broadcast
    against the amplitudes of every radius.  At one radius (the conditional
    sweeps) they are scaled in place: a second array of the table's size
    costs more than the product.
    """
    phases = _phase_table(rep.dim, np.asarray(phis, dtype=float))
    if amps.shape[1] == 1:
        phases *= amps
        return phases
    table = np.empty((rep.dim, amps.shape[1], phases.shape[1]), dtype=complex)
    np.multiply(phases[:, None, :], amps[:, :, None], out=table)
    return table.reshape(rep.dim, -1)


def coherent_table(rep: LieAlgebraRep, radii, phis) -> np.ndarray:
    """Coherent vectors on a grid: column r len(phis) + a is the state at (radii[r], phis[a]).

    The family's closed-form amplitudes are evaluated in one call for all
    the radii and the phases exp(i n phi) once per azimuth, so a quadrature
    over the manifold costs one amplitude call.  Uses the exact
    infinite-dimensional normalization, so for truncated representations
    each column is the honest restriction of the true state (its norm is
    < 1 when the tail is cut).  Quadratures cut that tail on purpose; point
    queries go through ``coherent_points``.
    """
    return _phased(rep, amplitude_columns(rep, radii), phis)


def coherent_points(rep: LieAlgebraRep, radii, phis) -> np.ndarray:
    """``coherent_table`` for point queries, which must not feel the cutoff.

    Refuses with ValueError when, at any of the radii, the norm the
    truncation of a truncated rep loses, 1 - sum_n |c_n|^2, exceeds
    TAIL_MASS_LIMIT: the state is then not the manifold point it is
    labelled with.  (This is the lost norm, not ``displace``'s mass above
    ``valid_dim``, which a cut that still holds the whole state can carry.)
    An untruncated rep loses nothing, so its sum's roundoff is not read as
    a cut; a lost norm that is not finite is refused for every rep.
    """
    radii = np.asarray(radii, dtype=float)
    amps = amplitude_columns(rep, radii)
    lost = 1.0 - np.sum(amps ** 2, axis=0)
    at = np.argmax(lost)  # the first NaN, if any
    worst = lost[at]
    if not np.isfinite(worst) or (rep.truncated and worst > TAIL_MASS_LIMIT):
        raise ValueError(
            f"the truncation loses norm {worst:.3e} above {TAIL_MASS_LIMIT:.0e} "
            f"at rho = {radii[at]}; raise the cutoff or shrink rho"
        )
    return _phased(rep, amps, phis)


def coherent_vector(rep: LieAlgebraRep, rho: float, phi: float) -> np.ndarray:
    """Normalized coherent components c_n(rho) * exp(i n phi): one column of
    ``coherent_points`` (so it refuses a radius the cutoff truncates)."""
    return coherent_points(rep, [rho], [phi])[:, 0]


def clock_symbol_numeric(clock: ClockModel, radii) -> np.ndarray:
    """<lambda|h_c|lambda> at phi = 0 at each radius, from one ``coherent_points``
    table (so a radius the cutoff truncates is refused) read as contiguous rows."""
    rows = np.ascontiguousarray(coherent_points(clock.rep, radii, [0.0]).T)
    return np.array([np.vdot(v, clock.energies * v).real for v in rows])


def _ring_sum(rep: LieAlgebraRep, n_polar: int | None = None,
              n_azim: int | None = None) -> np.ndarray:
    """sum_k w_k |v_k><v_k| over the family's quadrature grid, exactly hermitian.

    Node (r, a) contributes w_r A[n, r] A[m, r] exp(i (n - m) phis[a]), so
    the sum is Q = T o (A W A^T) with A the closed-form amplitudes of the
    rings and T[n, m] = S(n - m), S(k) = sum_a exp(i k phis[a]) summed on
    the grid (so a grid that aliases still shows): two dim x dim arrays and
    no coherent table.  Returned as (Q + Q^H)/2, equal to its conjugate
    transpose bit for bit, so a residual built on it takes
    ``residual_norm2``'s eigenvalue route.
    """
    radii, phis, weights = lookup(rep.family).rings(rep, n_polar, n_azim)
    amps = amplitude_columns(rep, radii)
    sums = 1j * np.multiply.outer(np.arange(1 - rep.dim, rep.dim), phis)
    sums = np.exp(sums, out=sums).sum(axis=1)
    k = np.arange(rep.dim)
    q = sums[k[:, None] - k + rep.dim - 1]
    q *= (amps * weights) @ amps.T
    return (q + q.conj().T) / 2


def identity_resolution_check(rep: LieAlgebraRep, n_polar: int | None = None,
                              n_azim: int | None = None) -> float:
    """Quadrature deviation of the resolution of identity, as a 2-norm.

    Sums w |lambda><lambda| over the family's manifold quadrature
    (``Family.rings``; su2: the sphere, Gauss-Legendre in cos(theta) with
    theta = 2*rho; h4: the plane, Gauss-Laguerre in rho^2), ring by ring
    (``_ring_sum``), and compares with the identity on the valid subspace.
    With the default node counts the rule is exact, so the deviation is
    roundoff.
    """
    nv = rep.valid_dim
    return residual_norm2(_ring_sum(rep, n_polar, n_azim)[:nv, :nv] - np.eye(nv))


@dataclasses.dataclass(frozen=True)
class DerivativeIdentityResult:
    """Residual of the phase-derivative identity and its h-refinement slope."""

    residual: float
    slope: float


def phi_derivative_identity_check(
    clock: ClockModel,
    rho: float,
    phi: float,
    omega: complex,
) -> DerivativeIdentityResult:
    """Check <lam|h_c|Omega> = i*eps * d/dphi <lam|Omega> by central differences.

    The derivative acts on the phase of lambda at fixed rho.  Returns the
    residual at step h = 1e-4 and the log2 slope between steps h and h/2
    (2.0 for a clean second-order stencil).
    """
    h = 1e-4
    rep = clock.rep
    omega_vec = displace(rep, [abs(omega)], [np.angle(omega)])[:, 0]

    def bra(p: float) -> np.ndarray:
        return coherent_vector(rep, rho, p)

    lhs = np.vdot(bra(phi), clock.energies * omega_vec)

    def resid(step: float) -> float:
        diff = (np.vdot(bra(phi + step), omega_vec)
                - np.vdot(bra(phi - step), omega_vec)) / (2 * step)
        return abs(lhs - 1j * clock.epsilon * diff)

    r1, r2 = resid(h), resid(h / 2)
    slope = float(np.log2(r1 / r2)) if r2 > 0 else float("inf")
    return DerivativeIdentityResult(residual=float(r1), slope=slope)
