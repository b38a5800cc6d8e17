"""Conditional dynamics: the exact finite-size evolution law and its limits.

Two residuals with deliberately different character live here.  The
first-order law i*eps*d/dphi Phi = H_sys Phi holds at every clock size
(only the finite-difference step limits it); the stationary law
H_sys Phi = E(rho) Phi emerges only as the clock grows, which
``stationary_experiment`` sweeps over clock sizes.  A system Hamiltonian
is a matrix, or a real vector of energies standing for the diagonal
operator (every ladder system below).
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .algebra import ClockModel, _diagonal, _eigh
from .constraint import (
    CompositeState, ConditionalState, _conditional_rows, conditional_state, gaussian_state,
)
from .families import lookup


def energy_of_rho(clock: ClockModel, rho: float) -> float:
    """Coherent energy surface E(rho), the family's closed-form clock symbol;
    the stationary eigenvalue candidate."""
    return float(lookup(clock.rep.family).symbol(clock, rho))


@dataclasses.dataclass(frozen=True)
class FirstOrderResidual:
    """Central-difference check of the conditional evolution law."""

    value: float
    value_half_step: float
    richardson_slope: float
    h: float
    rho: float
    phi: float


def _apply(h_system: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H v; a broadcast product when H is its energies or exactly diagonal.

    Every ladder system is its energies.  The diagonal route skips the
    complex copy of H that the dense product makes for a real H; each entry
    of a real H's product is then the same single multiplication, so the
    bits are those of the dense product.
    """
    d = _diagonal(h_system)
    return d * v if d is not None else h_system @ v


def schrodinger_residual(psi: CompositeState, clock: ClockModel,
                         h_system: np.ndarray, rho: float, phi: float,
                         h: float = 1e-4) -> FirstOrderResidual:
    """Residual of i*eps*d/dphi Phi = H_sys Phi on the normalized state.

    The derivative is a central difference in the clock phase; the
    residual is evaluated at step h and h/2 and the Richardson slope
    log2(r(h)/r(h/2)) reported.  Because chi2 does not depend on phi,
    normalizing commutes with differentiating.  The five conditional
    states of the stencil, at phi, phi +- h and phi +- h/2, are one table
    of bras times psi; the lead state is refused below the support floor.
    """
    lead, plus, minus, half_plus, half_minus = _conditional_rows(
        psi, clock, rho, [phi, phi + h, phi - h, phi + h / 2.0, phi - h / 2.0])
    chi2 = float(np.real(np.vdot(lead, lead)))
    _ = ConditionalState(rho=float(rho), phi=float(phi), unnormalized=lead, chi2=chi2).normalized
    norm = np.sqrt(chi2)
    rhs = _apply(h_system, lead)
    r1, r2 = (float(np.linalg.norm(1j * clock.epsilon * (p - m) / (2.0 * step) - rhs)) / norm
              for p, m, step in ((plus, minus, h), (half_plus, half_minus, h / 2.0)))
    if r1 > 0 and r2 > 0:
        slope = float(np.log2(r1 / r2))
    else:
        slope = float("nan")
    return FirstOrderResidual(value=r1, value_half_step=r2, richardson_slope=slope,
                              h=h, rho=float(rho), phi=float(phi))


def stationary_residual(psi: CompositeState, clock: ClockModel,
                        h_system: np.ndarray, rho: float, phi: float) -> float:
    """||H_sys phi_n - E(rho) phi_n|| on the normalized conditional state.

    Unlike the first-order law this is not exact at finite size; it
    quantifies how sharply the conditional state sits on the coherent
    energy surface.
    """
    n = conditional_state(psi, clock, rho, phi).normalized
    return float(np.linalg.norm(_apply(h_system, n) - energy_of_rho(clock, rho) * n))


@dataclasses.dataclass(frozen=True)
class PropagatorReport:
    """Conditional states against the independent matrix-exponential oracle."""

    max_deviation: float
    chi2_drift: float
    n_points: int


def propagator_deviation(psi: CompositeState, clock: ClockModel,
                         h_system: np.ndarray,
                         rho: float, phi_grid: Sequence[float]) -> PropagatorReport:
    """Compare Phi(phi) with expm(-i H_sys phi / eps) applied to Phi(0).

    The matrix exponential knows nothing about coherent states or the
    composite construction, which is what makes this an oracle for the
    whole mechanism.  Also tracks the worst chi2 drift over the grid.
    The conditional states of the whole grid are one table of bras times
    psi; the worst values propagate NaN, so a NaN state fails the gates.

    When H_sys is its energies or exactly diagonal the exponential is
    applied as the broadcast exp(-i phi/eps * diag H), which is what
    scipy.linalg.expm itself returns on the diagonal of a diagonal matrix;
    any other generator goes through one scipy.linalg.expm per phi.  A grid
    with no nonzero phi compares identities only and is refused.
    """
    phis = np.asarray(phi_grid, dtype=float)
    if not np.any(phis):
        raise ValueError("phi_grid needs a nonzero phi; at phi = 0 both sides are Phi(0)")
    rows = _conditional_rows(psi, clock, rho, np.concatenate(([0.0], phis)))
    # per-row reductions, the arithmetic of conditional_state's chi2 and a vector norm
    chi2 = np.array([np.vdot(row, row).real for row in rows])
    base, conds = rows[0], rows[1:]
    _ = ConditionalState(rho=float(rho), phi=0.0, unnormalized=base, chi2=chi2[0]).normalized
    steps = phis / clock.epsilon
    d = _diagonal(h_system)
    if d is not None:
        evolved = np.exp((-1j * steps)[:, None] * d) * base
    else:
        evolved = np.stack([scipy.linalg.expm((-1j * s) * h_system) @ base for s in steps])
    deviation = [np.linalg.norm(c - e) for c, e in zip(conds, evolved)]
    # np.max propagates nan, where max() would drop it and pass the gate
    return PropagatorReport(max_deviation=float(np.max(deviation)),
                            chi2_drift=float(np.max(np.abs(chi2[1:] - chi2[0]))),
                            n_points=len(phis))


def quantum_flow_rate(psi: CompositeState, clock: ClockModel,
                      h_system: np.ndarray, rho: float) -> float:
    """Rate eps-hat extracted from the phase advance of the conditional state.

    In the eigenbasis of the system generator each surviving component
    accumulates phase -E_n*phi/eps; the least-squares slope of each
    unwrapped phase against phi (one closed form over all components)
    recovers eps without using the clock's own energy bookkeeping.  The
    conditional states of the grid are one table of bras times psi.

    A matched component is a clock level n < clock.dim, so its phase is
    n*phi.  The grid of n_phi = 48 points therefore ends at the smaller of
    1.2 and (n_phi - 1) * pi / (2 * (clock.dim - 1)): every step then
    advances every phase by at most pi/2, and the unwrap cannot alias at
    any clock size.  The cap reads only the clock's dimension, not eps.
    """
    n_phi = 48
    evals, evecs = _eigh(h_system)
    phi_max = min(1.2, (n_phi - 1) * np.pi / (2 * max(clock.dim - 1, 1)))
    phis = np.linspace(0.0, phi_max, n_phi)
    comps = _conditional_rows(psi, clock, rho, phis)
    if evecs is not None:  # None: the standard basis, so comps are the components
        comps = comps @ evecs.conj()  # row a: evecs^H Phi(phis[a])
    scale = float(np.max(np.abs(evals))) or 1.0
    still = (np.abs(comps).min(axis=0) < 1e-8) | (np.abs(evals) < 1e-12 * scale)
    if still.all():
        raise ValueError("no moving components to fit a rate from")
    comps, e = comps[:, ~still], evals[~still]
    phase = np.unwrap(np.angle(comps), axis=0)
    dphi = phis - phis.mean()
    s = dphi @ (phase - phase.mean(axis=0)) / (dphi @ dphi)
    w = np.mean(comps.real ** 2 + comps.imag ** 2, axis=0)
    return float(-np.sum(w * e * s) / np.sum(w * s * s))


@dataclasses.dataclass(frozen=True)
class ConvergenceRecord:
    size: int
    residual: float

    def __post_init__(self):
        if self.residual < 0:
            raise ValueError("residual must be nonnegative")


@dataclasses.dataclass(frozen=True)
class ConvergenceSweep:
    records: tuple
    strictly_decreasing: bool
    loglog_slope: float


def convergence_sweep(sizes: Sequence[int],
                      experiment: Callable[[int], ConvergenceRecord]) -> ConvergenceSweep:
    """Run one residual experiment over clock sizes and fit the decay.

    The slope is the least-squares gradient of log(residual) against
    log(size); NaN when fewer than two positive residuals survive.
    """
    if len(sizes) < 3:
        raise ValueError("need at least 3 clock sizes for a convergence sweep")
    records = sorted((experiment(s) for s in sizes), key=lambda r: r.size)
    res = np.array([r.residual for r in records])
    decreasing = bool(np.all(np.diff(res) < 0))
    mask = res > 0
    if mask.sum() >= 2:
        slope = float(np.polyfit(np.log([r.size for r, m in zip(records, mask) if m]),
                                 np.log(res[mask]), 1)[0])
    else:
        slope = float("nan")
    return ConvergenceSweep(records=tuple(records), strictly_decreasing=decreasing,
                            loglog_slope=slope)


# --- canned experiments for the sweeps -------------------------------------

def resonant_ladder(clock: ClockModel, n_levels: int) -> np.ndarray:
    """System Hamiltonian with the first n_levels rungs of the clock ladder, as
    its energies (the real vector stands for the diagonal operator)."""
    return clock.epsilon * np.arange(n_levels, dtype=float)


def stationary_experiment(clock: ClockModel, rho: float, width: float) -> ConvergenceRecord:
    """Stationary residual of a clock against its own ladder, read at phi = 0.3.

    The system spectrum copies the full clock ladder, so every level is
    matched; the profile is a Gaussian centered on the energy surface at
    the probed rho.  Residuals shrink as the coherent state sharpens.  The
    recorded size is the rep's exact dimension (su2: 2j + 1; h4: the cutoff).
    """
    h_system = resonant_ladder(clock, clock.dim)
    psi = gaussian_state(clock, h_system, center=energy_of_rho(clock, rho), width=width)
    value = stationary_residual(psi, clock, h_system, rho, 0.3)
    return ConvergenceRecord(size=clock.rep.exact_dim, residual=value)
