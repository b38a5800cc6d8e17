"""Coherent states on the clock manifolds and their symbol calculus.

States are labelled by a single complex coordinate lambda = rho*exp(i*phi)
(one ladder mode); a state is its normalized vector.  Two independent construction routes are kept on
purpose: ``displace`` exponentiates the anti-hermitian generator with a
dense Pade expm, while ``coherent_vector`` evaluates the family's closed-form
amplitudes (see ``families``).  Their agreement is the executable
disentangling check.
"""
from __future__ import annotations

import dataclasses
import numpy as np
from scipy.linalg import expm

from .algebra import ClockModel, LieAlgebraRep, residual_norm2
from .families import lookup

TAIL_MASS_LIMIT = 1e-10


def displace(rep: LieAlgebraRep, omega: complex) -> np.ndarray:
    """exp(omega R^dag - conj(omega) R) applied to the reference state.

    For truncated representations the amplitude above the valid subspace
    must stay below TAIL_MASS_LIMIT, otherwise the cutoff is being felt
    and a ValueError is raised.
    """
    r_op = rep.raising_ops[0]
    gen = omega * r_op.conj().T - np.conj(omega) * r_op
    vec = expm(gen) @ rep.reference_state.astype(complex)
    if rep.truncated:
        tail = float(np.sum(np.abs(vec[rep.valid_dim:]) ** 2))
        if tail > TAIL_MASS_LIMIT:
            raise ValueError(
                f"tail mass {tail:.3e} above the valid subspace exceeds "
                f"{TAIL_MASS_LIMIT:.0e}; raise the cutoff or shrink |omega|"
            )
    return vec


def amplitude_columns(rep: LieAlgebraRep, radii) -> np.ndarray:
    """Column r: the family's closed-form amplitudes at radii[r]."""
    radii = np.asarray(radii, dtype=float)
    bad = radii[~((radii >= 0) & (radii < np.inf))]  # NaN compares False
    if bad.size:
        raise ValueError(f"rho must be finite and nonnegative, got {bad[0]}")
    family = lookup(rep.family)
    return np.stack([family.amplitudes(rep, float(r)) for r in radii], axis=1)


def _phased(rep: LieAlgebraRep, amps: np.ndarray, phis) -> np.ndarray:
    """Column r len(phis) + a: amps[:, r] * exp(i n phis[a]), one table-sized complex array.

    The phases are exponentiated once per azimuth and broadcast against the
    amplitudes of every radius.  At one radius (the conditional sweeps) they
    are scaled in place: a second array of the table's size costs more than
    the product.
    """
    phases = 1j * np.multiply.outer(np.arange(rep.dim), np.asarray(phis, dtype=float))
    np.exp(phases, out=phases)
    if amps.shape[1] == 1:
        phases *= amps
        return phases
    table = np.empty((rep.dim, amps.shape[1], phases.shape[1]), dtype=complex)
    np.multiply(phases[:, None, :], amps[:, :, None], out=table)
    return table.reshape(rep.dim, -1)


def coherent_table(rep: LieAlgebraRep, radii, phis) -> np.ndarray:
    """Coherent vectors on a grid: column r len(phis) + a is the state at (radii[r], phis[a]).

    The family's closed-form amplitudes are evaluated once per radius and
    the phases exp(i n phi) once per azimuth, so a quadrature over the
    manifold costs one amplitude call per ring of nodes.  Uses the exact
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
    amps = amplitude_columns(rep, radii)
    lost = 1.0 - np.sum(amps ** 2, axis=0)
    worst = lost.max()
    if not np.isfinite(worst) or (rep.truncated and worst > TAIL_MASS_LIMIT):
        raise ValueError(
            f"the truncation loses norm {worst:.3e} above {TAIL_MASS_LIMIT:.0e} "
            "at this radius; raise the cutoff or shrink rho"
        )
    return _phased(rep, amps, phis)


def coherent_vector(rep: LieAlgebraRep, rho: float, phi: float) -> np.ndarray:
    """Normalized coherent components c_n(rho) * exp(i n phi): one column of
    ``coherent_points`` (so it refuses a radius the cutoff truncates)."""
    return coherent_points(rep, [rho], [phi])[:, 0]


def clock_symbol_numeric(clock: ClockModel, rho: float, phi: float = 0.0) -> float:
    """<lambda|h_c|lambda> evaluated from the state vector."""
    v = coherent_vector(clock.rep, rho, phi)
    return float(np.vdot(v, clock.energies * v).real)


def clock_symbol_analytic(clock: ClockModel, rho: float) -> float:
    """Closed-form clock symbol.

    Trig branch: (eps*b2/2)(cos(2 rho) - 1); hyperbolic branch the same
    with cosh; oscillator: eps * rho^2.
    """
    return lookup(clock.rep.family).symbol(clock, rho)


def weighted_outer_sum(vectors: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k w_k |v_k><v_k| over the rows v_k of ``vectors``, exactly hermitian.

    One matrix product a = (V^T w) conj(V), formed as its conjugate
    c = (conj(V)^T w) V so that the only temporary the size of ``vectors``
    is the weighted conjugate, and returned as (a + a^H)/2.  The average
    equals its conjugate transpose bit for bit (its diagonal is real), so a
    residual built on it takes ``residual_norm2``'s eigenvalue route.  The
    product orders the additions differently from a per-row sum; both lie
    within the N-term summation bound of the exact sum.
    """
    scaled = vectors.conj()
    scaled *= np.asarray(weights, dtype=float)[:, None]
    c = scaled.T @ vectors
    return (c.conj() + c.T) / 2


def identity_resolution_check(rep: LieAlgebraRep, n_polar: int | None = None,
                              n_azim: int | None = None) -> float:
    """Quadrature deviation of the resolution of identity, as a 2-norm.

    Sums w |lambda><lambda| over the family's manifold quadrature
    (``Family.rings``; su2: the sphere, Gauss-Legendre in cos(theta) with
    theta = 2*rho; h4: the plane, Gauss-Laguerre in rho^2) and compares
    with the identity on the valid subspace.  With the default node counts
    the rule is exact, so the deviation is roundoff.
    """
    radii, phis, weights = lookup(rep.family).rings(rep, n_polar, n_azim)
    nv = rep.valid_dim
    acc = weighted_outer_sum(coherent_table(rep, radii, phis)[:nv].T,
                             np.repeat(weights, len(phis)))
    return residual_norm2(acc - np.eye(nv))


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
    omega_vec = displace(rep, omega)

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
