"""Clock phase operator, its commutation law, and uncertainty inequalities.

The unitary here is the polar factor of the ladder mode that climbs the
clock spectrum.  In finite dimension that factor is a partial isometry
with one defective direction; we close it cyclically (top rung wraps to
the bottom), which is the standard truncated-phase construction.  Exact
operator statements therefore hold on the interior of the ladder, and
every routine below says which subspace it is talking about.
"""
from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .algebra import ClockModel, _nonzero_norm2, _scatter, build_clock
from .families import lookup
from .gcs import coherent_points, coherent_table, coherent_vector


@dataclasses.dataclass(frozen=True)
class PhaseOperator:
    """Polar-decomposition phase data for one clock.

    ``phases`` are the steps of the completed unitary U: U[k + 1, k] =
    phases[k], and the wrap U[0, dim - 1] = 1.  ``exp_minus_iphi`` is U;
    ``sin_phi`` and ``cos_phi`` are the exact hermitian combinations
    (U^dag - U)/2i and (U + U^dag)/2.  The three dense matrices are built
    from the phases each time they are read.
    """

    phases: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.phases) + 1

    def band(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, sin, cos) on ``_cyclic_band``, where they have every nonzero.

        The entries of U and U^dag at (r, c), U^dag's as conj(U[c, r]), are
        those of the dense U, zeros included, so sin and cos carry the bits
        of the dense (U^dag - U)/2i and (U + U^dag)/2.
        """
        dim = self.dim
        ring = np.empty(dim, dtype=complex)  # U[(k + 1) % dim, k]
        ring[:-1] = self.phases
        ring[-1] = 1.0
        rows, cols = _cyclic_band(dim)
        u_rc = np.where(rows == (cols + 1) % dim, ring[cols], 0.0)
        u_dag_rc = np.where(cols == (rows + 1) % dim, ring[rows], 0.0).conj()
        return rows, cols, (u_dag_rc - u_rc) / 2j, (u_dag_rc + u_rc) / 2.0

    @property
    def exp_minus_iphi(self) -> np.ndarray:
        dim = self.dim
        u = np.zeros((dim, dim), dtype=complex)
        rungs = np.arange(dim - 1)
        u[rungs + 1, rungs] = self.phases
        u[0, dim - 1] = 1.0
        return u

    @property
    def sin_phi(self) -> np.ndarray:
        rows, cols, sin, _ = self.band()
        return _scatter(self.dim, rows, cols, sin, None)

    @property
    def cos_phi(self) -> np.ndarray:
        rows, cols, _, cos = self.band()
        return _scatter(self.dim, rows, cols, cos, None)


def _cyclic_band(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (rows, cols) of the entries one rung apart around the ring.

    U, U^dag, sin and cos have no nonzero elsewhere.
    """
    rungs = np.arange(dim)
    keys = np.unique(np.concatenate([rungs * dim + (rungs - 1) % dim,
                                     rungs * dim + (rungs + 1) % dim]))
    return keys // dim, keys % dim


def build_phase_operator(clock: ClockModel) -> PhaseOperator:
    """Phase unitary of the clock's ladder mode.

    Writes the climbing ladder operator A (the adjoint of the clock's
    lowering mode R, so its steps A[k + 1, k] are ``rep.ladder``) as
    A = sqrt(A A^dag) U.  On the span where the modulus is invertible U is
    determined and shifts the ladder up by one; the remaining direction is
    closed cyclically.  The steps are real and nonzero, so each phase s/|s|
    is exactly +1 or -1: U is unitary and A = |A| U, exactly by construction.
    """
    steps = clock.rep.ladder
    if np.count_nonzero(steps) < clock.dim - 1:
        raise ValueError("ladder operator has a vanishing step inside the ladder")
    return PhaseOperator(phases=steps / np.abs(steps))


@dataclasses.dataclass(frozen=True)
class CommutatorReport:
    """Residuals of [H_C, sin] = i*eps*cos on two subspaces."""

    interior_residual: float
    full_residual: float
    epsilon: float
    dim: int


def commutator_check(clock: ClockModel, phase: PhaseOperator) -> CommutatorReport:
    """Measure [H_C, sin] - i*eps*cos with and without the ladder edges.

    The identity is exact away from the two extremal rungs; the full-space
    number is reported so the boundary artifact of the cyclic completion
    stays visible instead of hidden.  The residual is formed only on the
    cyclic band, where sin and cos have every nonzero, with the arithmetic
    of the dense d[:, None] * sin - sin * d - i eps cos, d the clock's
    energies; its exact zeros are dropped and the nonzeros go to the norm.
    """
    d = clock.energies
    dim = clock.dim
    rows, cols, sin, cos = phase.band()
    vals = d[rows] * sin - sin * d[cols]
    vals -= 1j * clock.epsilon * cos
    keep = vals != 0
    # the interior projector applied on both sides: drop the two edge rungs
    inner = keep & (rows > 0) & (rows < dim - 1) & (cols > 0) & (cols < dim - 1)
    return CommutatorReport(
        interior_residual=_nonzero_norm2(dim, rows[inner], cols[inner], vals[inner]),
        full_residual=_nonzero_norm2(dim, rows[keep], cols[keep], vals[keep]),
        epsilon=clock.epsilon,
        dim=clock.dim,
    )


def _moments(image: np.ndarray, vec: np.ndarray) -> tuple[float, float]:
    mean = float(np.real(np.vdot(vec, image)))
    second = float(np.real(np.vdot(image, image)))
    return mean, max(second - mean * mean, 0.0)


@dataclasses.dataclass(frozen=True)
class UncertaintyAudit:
    delta_h: float
    delta_sin: float
    bound: float
    slack: float


def uncertainty_audit(vec: np.ndarray, clock: ClockModel,
                      phase: PhaseOperator) -> UncertaintyAudit:
    """Robertson inequality for (H_C, sin) on one state vector.

    bound = (eps/2)|<cos>|; slack = dH*dsin - bound.  For states with
    negligible weight on both extremal rungs the completed commutator
    matches the exact one and the slack cannot go below roundoff.
    """
    _, var_h = _moments(clock.energies * vec, vec)
    mean_cos, _ = _moments(phase.cos_phi @ vec, vec)
    _, var_sin = _moments(phase.sin_phi @ vec, vec)
    dh, ds = np.sqrt(var_h), np.sqrt(var_sin)
    bound = 0.5 * clock.epsilon * abs(mean_cos)
    return UncertaintyAudit(delta_h=dh, delta_sin=ds, bound=bound,
                            slack=dh * ds - bound)


def uncertainty_grid_audit(clock: ClockModel, phase: PhaseOperator,
                           rhos: Sequence[float], phis: Sequence[float]) -> float:
    """Worst slack over a coherent grid (rho-major, every rho with every phi).

    The slack of ``uncertainty_audit`` at every grid point, with the states
    read from one ``coherent_points`` table (a radius the cutoff truncates
    is refused) and each operator applied to the whole table at once.  NaN
    when any slack is NaN, so a bad grid point fails the caller's gate.
    """
    vecs = coherent_points(clock.rep, rhos, phis)

    def moments(image):
        mean = np.sum(vecs.conj() * image, axis=0).real
        second = np.sum(image.real ** 2 + image.imag ** 2, axis=0)
        return mean, np.maximum(second - mean * mean, 0.0)

    _, var_h = moments(clock.energies[:, None] * vecs)
    mean_cos, _ = moments(phase.cos_phi @ vecs)
    _, var_sin = moments(phase.sin_phi @ vecs)
    slacks = np.sqrt(var_h) * np.sqrt(var_sin) - 0.5 * clock.epsilon * np.abs(mean_cos)
    return float(np.min(slacks))


@dataclasses.dataclass(frozen=True)
class EnergyTimeCheck:
    product: float
    half_epsilon: float

    @property
    def ratio(self) -> float:
        return self.product / self.half_epsilon


def small_phi_energy_time(clock: ClockModel, phase: PhaseOperator,
                          rho: float, phi: float) -> EnergyTimeCheck:
    """Energy-time product dE * dphi against eps/2 in the linear regime.

    dphi is read off as the spread of sin at small angles, where the two
    agree to first order; the caller keeps |phi| small and checks the
    ratio against its linearization tolerance.
    """
    audit = uncertainty_audit(coherent_vector(clock.rep, rho, phi), clock, phase)
    return EnergyTimeCheck(product=audit.delta_h * audit.delta_sin,
                           half_epsilon=0.5 * clock.epsilon)


@dataclasses.dataclass(frozen=True)
class PhaseExpectationRecord:
    size: int
    err_sin: float
    err_cos: float


def classical_phase_expectations(family: str, sizes: Sequence[int],
                                 rho: float, phi: float) -> list:
    """Deviation of <sin>, <cos> from the label angle, over clock sizes.

    The expectation of the phase unitary on a coherent state approaches
    exp(-i*phi) as the clock grows; the table quantifies that approach.
    ``sizes`` are 2j values for spin clocks and cutoffs for the oscillator.
    The states come from the unguarded ``coherent_table``: at the small
    cutoffs of an oscillator sweep the truncation is felt, and that is part
    of the approach being measured.
    """
    kind = lookup(family)
    records = []
    for size in sizes:
        clock = build_clock(kind.rep_for_size(size))
        phase = build_phase_operator(clock)
        vec = coherent_table(clock.rep, [rho], [phi])[:, 0]
        mean_sin = float(np.real(np.vdot(vec, phase.sin_phi @ vec)))
        mean_cos = float(np.real(np.vdot(vec, phase.cos_phi @ vec)))
        records.append(PhaseExpectationRecord(
            size=int(size),
            err_sin=abs(mean_sin - np.sin(phi)),
            err_cos=abs(mean_cos - np.cos(phi)),
        ))
    return records
