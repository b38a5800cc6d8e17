"""Fully classical sector: joint coherent amplitudes, the Darboux chart,
pullback symplectic data, and Hamilton's equations on the clock manifold.

Orientation convention, fixed once for the whole package: the chart maps
q - i p = C(rho) e^{i phi} with C real, so advancing phi is the forward
Hamiltonian flow and the extracted rate matches the quantum propagation
rate with the same sign.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .algebra import ClockModel
from .constraint import CompositeState
from .families import lookup
from .gcs import clock_symbol_analytic, coherent_table

SUPPORT_THRESHOLD = 1e-6


@dataclasses.dataclass(frozen=True)
class DarbouxPoint:
    """Canonical coordinates of one clock-manifold point.

    q and p are length-J arrays proportional to the unit vector v; the
    source coordinates are kept so Jacobian routes can re-evaluate the map.
    """

    q: np.ndarray
    p: np.ndarray
    v: np.ndarray
    rho: float
    phi: float


def map_F(rho: float, phi: float, v: Sequence[float], clock: ClockModel) -> DarbouxPoint:
    """Energy-shell chart map from clock labels to canonical coordinates."""
    v = np.asarray(v, dtype=float)
    if abs(float(np.sum(v * v)) - 1.0) > 1e-12:
        raise ValueError("v must be a unit vector")
    c, _ = lookup(clock.rep.family).chart_radius(clock, float(rho))
    return DarbouxPoint(
        q=c * np.cos(phi) * v,
        p=-c * np.sin(phi) * v,
        v=v, rho=float(rho), phi=float(phi),
    )


def chart_hamiltonian(clock: ClockModel, point: DarbouxPoint) -> float:
    """Isotropic quadratic Hamiltonian (eps/2) * sum(q^2 + p^2).

    Composed with map_F this reproduces the coherent energy surface
    exactly, which is the defining shell property of the chart.
    """
    return 0.5 * clock.epsilon * float(np.sum(point.q ** 2 + point.p ** 2))


def two_form_coefficient(clock: ClockModel, rho: float, hbar: float = 1.0) -> float:
    """Closed-form coefficient of dphi ^ drho for the pulled-back two-form."""
    return lookup(clock.rep.family).two_form(clock, rho, hbar)


def _regular_two_form(clock: ClockModel, rho: float, hbar: float) -> float:
    """The two-form coefficient at rho, refused where it vanishes.

    Those points (rho = 0, and rho = pi/2 on the sphere) are coordinate
    singularities of the chart, where brackets divide by zero.
    """
    c = two_form_coefficient(clock, rho, hbar)
    if abs(c) < 1e-12 * max(1.0, abs(clock.b2) * hbar):
        raise ValueError(f"symplectic coefficient vanishes at rho = {rho} "
                         "(a coordinate singularity)")
    return c


@dataclasses.dataclass(frozen=True)
class TwoFormReport:
    analytic: float
    jacobian_analytic: float
    jacobian_fd: float
    rho: float
    phi: float


def _jacobian_assembly(hbar: float, d_rho: Callable, d_phi: Callable) -> float:
    dq_drho, dp_drho = d_rho()
    dq_dphi, dp_dphi = d_phi()
    return hbar * float(np.sum(dq_dphi * dp_drho - dq_drho * dp_dphi))


def pullback_two_form(clock: ClockModel, rho: float, phi: float,
                      v: Sequence[float] = (1.0,), hbar: float = 1.0,
                      fd_step: float = 1e-3) -> TwoFormReport:
    """Pullback of hbar * sum dq_j ^ dp_j through the chart map, three ways.

    The closed form, an assembly from analytic partial derivatives, and an
    assembly from Richardson-extrapolated central differences of map_F
    itself.  The last one treats the map as a black box, which is what
    makes the agreement a real check.
    """
    v = np.asarray(v, dtype=float)
    c, cp = lookup(clock.rep.family).chart_radius(clock, float(rho))

    def analytic_rho():
        return cp * np.cos(phi) * v, -cp * np.sin(phi) * v

    def analytic_phi():
        return -c * np.sin(phi) * v, -c * np.cos(phi) * v

    def fd_partial(coord: str):
        def eval_at(r, f):
            pt = map_F(r, f, v, clock)
            return pt.q, pt.p

        def diff(h):
            if coord == "rho":
                qp, pp = eval_at(rho + h, phi)
                qm, pm = eval_at(rho - h, phi)
            else:
                qp, pp = eval_at(rho, phi + h)
                qm, pm = eval_at(rho, phi - h)
            return (qp - qm) / (2 * h), (pp - pm) / (2 * h)

        d1q, d1p = diff(fd_step)
        d2q, d2p = diff(fd_step / 2.0)
        return (4 * d2q - d1q) / 3.0, (4 * d2p - d1p) / 3.0

    return TwoFormReport(
        analytic=two_form_coefficient(clock, rho, hbar),
        jacobian_analytic=_jacobian_assembly(hbar, analytic_rho, analytic_phi),
        jacobian_fd=_jacobian_assembly(hbar, lambda: fd_partial("rho"),
                                       lambda: fd_partial("phi")),
        rho=float(rho), phi=float(phi),
    )


def poisson_bracket_clock(f: Callable[[float, float], float],
                          g: Callable[[float, float], float],
                          point: tuple, clock: ClockModel,
                          hbar: float = 1.0, fd_step: float = 1e-5) -> float:
    """{f, g} on the clock manifold at point = (rho, phi).

    Partial derivatives of the scalar functions are central differences;
    the symplectic density is the closed-form coefficient.  Points where
    that coefficient vanishes (rho = 0, and rho = pi/2 on the sphere)
    are coordinate singularities and are refused.
    """
    rho, phi = float(point[0]), float(point[1])
    c = _regular_two_form(clock, rho, hbar)

    def d_rho(fun):
        return (fun(rho + fd_step, phi) - fun(rho - fd_step, phi)) / (2 * fd_step)

    def d_phi(fun):
        return (fun(rho, phi + fd_step) - fun(rho, phi - fd_step)) / (2 * fd_step)

    return (d_phi(f) * d_rho(g) - d_rho(f) * d_phi(g)) / c


@dataclasses.dataclass(frozen=True)
class HamiltonReport:
    max_residual: float
    max_residual_q: float
    max_residual_p: float
    method: str
    grid_shape: tuple


def hamilton_check(clock: ClockModel, v: Sequence[float],
                   rho_grid: Sequence[float], phi_grid: Sequence[float],
                   hbar: float = 1.0, method: str = "analytic",
                   fd_step: float = 1e-5) -> HamiltonReport:
    """Residual of {x_j, H} = (eps/hbar) * dx_j/dphi for x in {q, p}.

    With analytic partials both sides differ only through two independent
    closed forms of the same quantity, so the residual is a roundoff
    statement; the finite-difference method keeps the check honest against
    hand-derivation mistakes at the cost of truncation error.
    """
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown method {method!r}")
    v = np.asarray(v, dtype=float)
    worst_q = 0.0
    worst_p = 0.0
    for rho in rho_grid:
        rho = float(rho)
        c_coeff = _regular_two_form(clock, rho, hbar)
        c, cp = lookup(clock.rep.family).chart_radius(clock, rho)
        for phi in phi_grid:
            phi = float(phi)
            if method == "analytic":
                dq_dphi = -c * np.sin(phi) * v
                dp_dphi = -c * np.cos(phi) * v
                de_drho = clock.epsilon * c * cp
            else:
                f_p = map_F(rho, phi + fd_step, v, clock)
                f_m = map_F(rho, phi - fd_step, v, clock)
                dq_dphi = (f_p.q - f_m.q) / (2 * fd_step)
                dp_dphi = (f_p.p - f_m.p) / (2 * fd_step)
                de_drho = (clock_symbol_analytic(clock, rho + fd_step)
                           - clock_symbol_analytic(clock, rho - fd_step)) / (2 * fd_step)
            bracket_q = dq_dphi * de_drho / c_coeff
            bracket_p = dp_dphi * de_drho / c_coeff
            target = clock.epsilon / hbar
            worst_q = max(worst_q, float(np.max(np.abs(bracket_q - target * dq_dphi))))
            worst_p = max(worst_p, float(np.max(np.abs(bracket_p - target * dp_dphi))))
    return HamiltonReport(
        max_residual=max(worst_q, worst_p),
        max_residual_q=worst_q, max_residual_p=worst_p,
        method=method, grid_shape=(len(rho_grid), len(phi_grid)),
    )


def classical_flow_rate(clock: ClockModel, v: Sequence[float] = (1.0,),
                        rho: float = 0.5, phi: float = 0.7,
                        hbar: float = 1.0) -> float:
    """Flow coefficient hbar * {q_j, H} / (dq_j/dphi) at one regular point.

    This is the classical-side number that criterion-style comparisons
    hold against the quantum propagation rate.
    """
    v = np.asarray(v, dtype=float)
    c_coeff = _regular_two_form(clock, float(rho), hbar)
    c, cp = lookup(clock.rep.family).chart_radius(clock, float(rho))
    dq_dphi = -c * np.sin(float(phi)) * v
    j = int(np.argmax(np.abs(dq_dphi)))
    if abs(dq_dphi[j]) < 1e-12:
        raise ValueError("dq/dphi vanishes at this point; pick phi away from 0 mod pi")
    de_drho = clock.epsilon * c * cp
    bracket = dq_dphi[j] * de_drho / c_coeff
    return hbar * bracket / dq_dphi[j]


# --- joint coherent amplitudes over both manifolds --------------------------

def _ring_bounds(rho: np.ndarray) -> np.ndarray:
    """Node index where each ring starts, then the node count.

    A ring is a run of consecutive nodes with one radius, which is a whole
    ring of the radial-major quadratures of ``Family.nodes``.
    """
    return np.r_[0, np.flatnonzero(rho[1:] != rho[:-1]) + 1, len(rho)]


def _row_block(psi: CompositeState, clock_table: np.ndarray, system_conj: np.ndarray,
               rows: slice) -> np.ndarray:
    """Rows ``rows`` of the amplitude table mc^H psi mg^*.

    Evaluated left to right like the whole product, so the block equals
    those rows of it bit for bit (a block of columns would not).
    """
    return (clock_table[:, rows].conj().T @ psi.matrix) @ system_conj


@dataclasses.dataclass(frozen=True)
class BetaDistribution:
    """Joint coherent amplitude over clock x system manifolds.

    The amplitude at clock node i and system node k is beta[i, k]; the
    whole (nodes_c x nodes_g) table is never held.  ``beta_distribution``
    streams it one clock ring (the clock nodes sharing one radius) at a
    time and keeps what the classical checks read: the normalization, the
    (clock node, system node) of the first maximum of |beta|^2 in row-major
    order, and the support nodes counted per (clock ring, system ring)
    pair, rings in node order.  ``values`` rebuilds the table from the same
    row blocks on demand.  The weights carry the full invariant measures,
    so the weighted square sum is the joint probability normalization.
    """

    psi: CompositeState
    clock_table: np.ndarray
    system_table: np.ndarray
    rho_clock: np.ndarray
    phi_clock: np.ndarray
    weights_clock: np.ndarray
    rho_system: np.ndarray
    phi_system: np.ndarray
    weights_system: np.ndarray
    threshold: float
    normalization: float
    peak: tuple[int, int]
    support_counts: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The full amplitude table, built on demand (at the table's memory cost)."""
        bounds = _ring_bounds(self.rho_clock)
        system_conj = self.system_table.conj()
        out = np.empty((len(self.rho_clock), len(self.rho_system)), dtype=complex)
        for a, b in zip(bounds[:-1], bounds[1:]):
            out[a:b] = _row_block(self.psi, self.clock_table, system_conj, slice(a, b))
        return out


def beta_distribution(psi: CompositeState, clock_c: ClockModel, clock_g: ClockModel,
                      threshold: float = SUPPORT_THRESHOLD) -> BetaDistribution:
    """Joint amplitude beta(Omega, gamma) with support extraction.

    Support is cut at |beta|^2 >= threshold * max|beta|^2, which is the
    region where classical constraint statements are asserted; the
    threshold must lie in (0, 1].  Two passes over the clock rings: the
    first sums the normalization and finds the maximum, the second counts
    the support against the now known cut, skipping rings whose maximum
    lies below it.  Memory is the two coherent tables and one ring's row
    block, not the table.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"support threshold must lie in (0, 1], got {threshold!r}")
    if psi.dim_clock != clock_c.dim or psi.dim_system != clock_g.dim:
        raise ValueError("composite state dimensions do not match the two models")
    rho_c, phi_c, w_c = lookup(clock_c.rep.family).nodes(clock_c.rep)
    rho_g, phi_g, w_g = lookup(clock_g.rep.family).nodes(clock_g.rep)
    mc = coherent_table(clock_c.rep, rho_c, phi_c)
    mg = coherent_table(clock_g.rep, rho_g, phi_g)
    mg_conj = mg.conj()
    bounds_c, starts_g = _ring_bounds(rho_c), _ring_bounds(rho_g)[:-1]
    rings_c = list(zip(bounds_c[:-1], bounds_c[1:]))

    # pass 1, rings in node order: a strictly larger maximum is a row-major first
    col_sums = np.zeros(len(rho_g))
    ring_max = np.empty(len(rings_c))
    peak_val, peak = -1.0, (0, 0)
    for r, (a, b) in enumerate(rings_c):
        dens = np.abs(_row_block(psi, mc, mg_conj, slice(a, b))) ** 2
        col_sums += w_c[a:b] @ dens
        i, k = np.unravel_index(int(np.argmax(dens)), dens.shape)
        ring_max[r] = dens[i, k]
        if ring_max[r] > peak_val:
            peak_val, peak = ring_max[r], (int(a + i), int(k))

    cut = threshold * peak_val
    counts = np.zeros((len(rings_c), len(starts_g)), dtype=np.int64)
    for r, (a, b) in enumerate(rings_c):
        if ring_max[r] >= cut:
            dens = np.abs(_row_block(psi, mc, mg_conj, slice(a, b))) ** 2
            counts[r] = np.add.reduceat(np.count_nonzero(dens >= cut, axis=0), starts_g)
    return BetaDistribution(
        psi=psi, clock_table=mc, system_table=mg,
        rho_clock=rho_c, phi_clock=phi_c, weights_clock=w_c,
        rho_system=rho_g, phi_system=phi_g, weights_system=w_g,
        threshold=threshold, normalization=float(col_sums @ w_g), peak=peak,
        support_counts=counts,
    )


@dataclasses.dataclass(frozen=True)
class MismatchReport:
    """Energy agreement between the two manifolds where beta lives."""

    support_max: float
    complement_max: float
    peak_mismatch: float
    energy_scale: float
    n_support: int


def classical_constraint_check(beta: BetaDistribution, clock_c: ClockModel,
                               clock_g: ClockModel) -> MismatchReport:
    """Relative |E_C(Omega) - E_G(gamma)| over the support of beta.

    The mismatch depends on the two radii only, so it is evaluated once
    per (clock ring, system ring) pair and read against the support
    counts.  The off-support maximum is kept as a negative control: it
    should be large, otherwise the support cut did not bite and the check
    is empty.
    """
    counts = beta.support_counts
    if not counts.any():
        raise ValueError("empty support: nothing to check the constraint on")
    bounds_c, bounds_g = _ring_bounds(beta.rho_clock), _ring_bounds(beta.rho_system)
    e_c = np.array([clock_symbol_analytic(clock_c, float(r))
                    for r in beta.rho_clock[bounds_c[:-1]]])
    e_g = np.array([clock_symbol_analytic(clock_g, float(r))
                    for r in beta.rho_system[bounds_g[:-1]]])
    scale = max(np.max(np.abs(e_c)), np.max(np.abs(e_g)))
    mismatch = np.abs(e_c[:, None] - e_g[None, :]) / scale
    complement = counts < np.outer(np.diff(bounds_c), np.diff(bounds_g))
    i_peak, k_peak = beta.peak
    ring_peak = (np.searchsorted(bounds_c, i_peak, side="right") - 1,
                 np.searchsorted(bounds_g, k_peak, side="right") - 1)
    return MismatchReport(
        support_max=float(mismatch[counts > 0].max()),
        complement_max=float(mismatch[complement].max()) if complement.any() else 0.0,
        peak_mismatch=float(mismatch[ring_peak]),
        energy_scale=float(scale),
        n_support=int(counts.sum()),
    )
