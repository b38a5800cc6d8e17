"""Fully classical sector: joint coherent amplitudes, the Darboux chart,
pullback symplectic data, and Hamilton's equations on the clock manifold.

Orientation convention, fixed once for the whole package: the chart maps
q - i p = C(rho) e^{i phi} with C real, so advancing phi is the forward
Hamiltonian flow and the extracted rate matches the quantum propagation
rate with the same sign.  Planck's constant is 1: the classical limit is
the growing clock at the intensive scale (an effective one of 1/2j).
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from .algebra import ClockModel, LieAlgebraRep
from .constraint import CompositeState
from .families import lookup
from .gcs import amplitude_columns, coherent_table

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


def two_form_coefficient(clock: ClockModel, rho: float) -> float:
    """Closed-form coefficient of dphi ^ drho for the pulled-back two-form."""
    return lookup(clock.rep.family).two_form(clock, rho)


def _regular_two_form(clock: ClockModel, rho: float) -> float:
    """The two-form coefficient at rho, refused where it vanishes.

    Those points (rho = 0, and rho = pi/2 on the sphere) are coordinate
    singularities of the chart, where brackets divide by zero.
    """
    c = two_form_coefficient(clock, rho)
    if abs(c) < 1e-12 * max(1.0, abs(clock.b2)):
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


def _jacobian_assembly(d_rho: Callable, d_phi: Callable) -> float:
    dq_drho, dp_drho = d_rho()
    dq_dphi, dp_dphi = d_phi()
    return float(np.sum(dq_dphi * dp_drho - dq_drho * dp_dphi))


def pullback_two_form(clock: ClockModel, rho: float, phi: float,
                      v: Sequence[float] = (1.0,)) -> TwoFormReport:
    """Pullback of sum dq_j ^ dp_j through the chart map, three ways.

    The closed form, an assembly from analytic partial derivatives, and an
    assembly from Richardson-extrapolated central differences of map_F
    itself (steps 1e-3 and 5e-4).  The last one treats the map as a black
    box, which is what makes the agreement a real check.  At a coordinate
    singularity all three vanish, so the point is refused.
    """
    fd_step = 1e-3
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
        analytic=_regular_two_form(clock, rho),
        jacobian_analytic=_jacobian_assembly(analytic_rho, analytic_phi),
        jacobian_fd=_jacobian_assembly(lambda: fd_partial("rho"), lambda: fd_partial("phi")),
        rho=float(rho), phi=float(phi),
    )


@dataclasses.dataclass(frozen=True)
class HamiltonReport:
    max_residual: float
    max_residual_q: float
    max_residual_p: float
    method: str


def hamilton_check(clock: ClockModel, v: Sequence[float],
                   rho_grid: Sequence[float], phi_grid: Sequence[float],
                   method: str = "analytic") -> HamiltonReport:
    """Residual of {x_j, H} = eps * dx_j/dphi for x in {q, p}.

    With analytic partials both sides differ only through two independent
    closed forms of the same quantity, so the residual is a roundoff
    statement; the finite-difference method (step 1e-5) keeps the check
    honest against hand-derivation mistakes at the cost of truncation error.
    """
    fd_step = 1e-5
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown method {method!r}")
    v = np.asarray(v, dtype=float)
    phis = np.asarray(phi_grid, dtype=float)
    rhos = np.asarray(rho_grid, dtype=float)
    if method == "fd":  # dE/drho at every radius from two symbol calls
        symbol = lookup(clock.rep.family).symbol
        de_drhos = (symbol(clock, rhos + fd_step) - symbol(clock, rhos - fd_step)) / (2 * fd_step)
    worst_q = worst_p = 0.0
    for r, rho in enumerate(rhos.tolist()):
        c_coeff = _regular_two_form(clock, rho)
        c, cp = lookup(clock.rep.family).chart_radius(clock, rho)
        if method == "analytic":
            # one row per phi, broadcast over the components of v
            dq_dphi = (-c * np.sin(phis))[:, None] * v
            dp_dphi = (-c * np.cos(phis))[:, None] * v
            de_drho = clock.epsilon * c * cp
        else:
            points = [(map_F(rho, phi + fd_step, v, clock), map_F(rho, phi - fd_step, v, clock))
                      for phi in phis]
            dq_dphi = np.array([(f_p.q - f_m.q) / (2 * fd_step) for f_p, f_m in points])
            dp_dphi = np.array([(f_p.p - f_m.p) / (2 * fd_step) for f_p, f_m in points])
            de_drho = de_drhos[r]
        # bracket - eps * dx/dphi; np.maximum propagates nan, where max() would drop it
        worst_q = np.maximum(worst_q, np.abs(dq_dphi * de_drho / c_coeff
                                             - clock.epsilon * dq_dphi).max(initial=0.0))
        worst_p = np.maximum(worst_p, np.abs(dp_dphi * de_drho / c_coeff
                                             - clock.epsilon * dp_dphi).max(initial=0.0))
    worst_q, worst_p = float(worst_q), float(worst_p)
    return HamiltonReport(
        max_residual=float(np.maximum(worst_q, worst_p)),
        max_residual_q=worst_q, max_residual_p=worst_p,
        method=method,
    )


def classical_flow_rate(clock: ClockModel) -> float:
    """Flow coefficient {q, H} / (dq/dphi) at (rho, phi) = (0.5, 0.7), J = 1.

    This is the classical-side number held against the quantum propagation
    rate.  A two-form regular at rho = 0.5 makes C, so dq/dphi, nonzero.
    """
    c_coeff = _regular_two_form(clock, 0.5)
    c, cp = lookup(clock.rep.family).chart_radius(clock, 0.5)
    dq_dphi = -c * np.sin(0.7)
    de_drho = clock.epsilon * c * cp
    bracket = dq_dphi * de_drho / c_coeff
    return bracket / dq_dphi


# --- joint coherent amplitudes over both manifolds --------------------------

def _one_diagonal(psi: CompositeState) -> int | None:
    """delta when every nonzero of a standard-basis psi lies on m - n = delta, else None.

    Its nonzeros are the pairs whose coefficient is nonzero; a rotated
    basis gives None.
    """
    if not psi.match.standard_basis:
        return None
    idx_c, idx_g = psi.match.pairs.T
    nonzero = psi.coefficients != 0
    offsets = np.unique(idx_g[nonzero] - idx_c[nonzero])
    return int(offsets[0]) if len(offsets) == 1 else None


def _circulant_rows(mat: np.ndarray, delta: int, amp_c: np.ndarray, amp_g: np.ndarray):
    """|beta|^2 on the first node of each clock ring, a chunk of rings at a time.

    Both manifolds have N = dim azimuthal points per ring.  On ring pair
    (r, s) at azimuths 2 pi a / N and 2 pi b / N, beta is
    exp(-i delta phi_b) F_rs[(a + b) mod N], F_rs the length-N DFT over n of
    A_c[n, r] psi[n, n + delta] A_g[n + delta, s].  So the row a = 0 of a
    clock ring, where system node s N + t is the node of t, holds every
    value of |beta|^2 on the ring, each at N nodes.  ``mat`` is psi's matrix.
    Yields (node, ring, rows).
    """
    dim_c, dim_g = mat.shape
    n_azim = dim_c
    n = np.arange(max(0, -delta), min(dim_c, dim_g - delta))
    system = np.zeros((amp_g.shape[1], dim_c), dtype=complex)  # (rings_g, n)
    system[:, n] = amp_g[n + delta].T * mat[n, n + delta]
    step = max(1, (1 << 22) // (16 * len(system) * n_azim))  # 4 MB of transforms a chunk
    for r in range(0, amp_c.shape[1], step):
        rings = np.arange(r, min(r + step, amp_c.shape[1]))
        f = np.fft.fft(amp_c[:, rings].T[:, None, :] * system, n=n_azim, axis=-1)
        yield rings * n_azim, rings, (f.real ** 2 + f.imag ** 2).reshape(len(rings), -1)


def _node_table(rep: LieAlgebraRep) -> np.ndarray:
    """Coherent vectors on the default quadrature grid of ``rep``, one column per node."""
    return coherent_table(rep, *lookup(rep.family).rings(rep)[:2])


def _streamed_rows(mat: np.ndarray, mc: np.ndarray, mg: np.ndarray):
    """|beta|^2 on every node row a clock ring at a time, like ``_circulant_rows``: the
    rows of ``values`` bit for bit, evaluated left to right like it (columns would not be).
    ``mat`` is psi's matrix."""
    dim, mg_conj = mat.shape[0], mg.conj()
    for a in range(0, mc.shape[1], dim):
        yield np.arange(a, a + dim), np.full(dim, a // dim), np.abs(
            (mc[:, a:a + dim].conj().T @ mat) @ mg_conj) ** 2


@dataclasses.dataclass(frozen=True)
class BetaDistribution:
    """Joint coherent amplitude beta[i, k] at clock node i and system node k.

    The nodes are the default grids ``Family.rings`` of the two
    representations, node r dim + a at (radii[r], phis[a]), the weights
    carrying the full invariant measures.  Keeps what the classical checks
    read: the normalization, the (clock node, system node) of the first
    maximum of |beta|^2 in row-major order, and the support nodes per
    (clock ring, system ring) pair.  ``values`` builds the whole table on
    demand.
    """

    psi: CompositeState
    rep_clock: LieAlgebraRep
    rep_system: LieAlgebraRep
    threshold: float
    normalization: float
    peak: tuple[int, int]
    support_counts: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """The full amplitude table mc^H psi mg^*, built on demand (at its memory cost)."""
        mc, mg = _node_table(self.rep_clock), _node_table(self.rep_system)
        return (mc.conj().T @ self.psi.matrix) @ mg.conj()


def beta_distribution(psi: CompositeState, clock_c: ClockModel, clock_g: ClockModel,
                      threshold: float = SUPPORT_THRESHOLD) -> BetaDistribution:
    """Joint amplitude beta(Omega, gamma) with support extraction.

    Support is cut at |beta|^2 >= threshold * max|beta|^2, the region where
    classical constraint statements are asserted; the threshold must lie in
    (0, 1].  Each manifold is a stack of rings (``Family.rings``) of dim
    uniform azimuthal points.  On ring pair (r, s) beta is a double Fourier
    sum in the two azimuths with the radial amplitudes A[n, r] as
    coefficients, so the normalization is Parseval's,
    W_c^T (A_c^2T |psi|^2 A_g^2) W_g with W the node weight times dim.
    Peak and counts:

    - circulant, when psi lies on one diagonal m - n = delta (every ladder
      match) and both manifolds have N = dim_c = dim_g azimuthal points:
      |beta|^2 depends on t = (a + b) mod N only (``_circulant_rows``).
      The peak is the row-major first node of its exact tie, (first node
      of the clock ring, system node s N + t); each count is N times the
      number of t at or above the cut.  No coherent table; rings_c x
      nodes_g values;
    - streamed, for any other psi (a rotated basis): two sweeps of the
      clock-ring row blocks of ``values``, for the first maximum and for
      the counts.  Memory is the coherent tables and one row block.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"support threshold must lie in (0, 1], got {threshold!r}")
    if psi.dim_clock != clock_c.dim or psi.dim_system != clock_g.dim:
        raise ValueError("composite state dimensions do not match the two models")
    reps = clock_c.rep, clock_g.rep
    (radii_c, _, w_c), (radii_g, _, w_g) = (lookup(rep.family).rings(rep) for rep in reps)
    amp_c, amp_g = amplitude_columns(reps[0], radii_c), amplitude_columns(reps[1], radii_g)
    ring_w_c, ring_w_g = w_c * psi.dim_clock, w_g * psi.dim_system
    mat = psi.matrix
    normalization = float(ring_w_c @ ((amp_c ** 2).T @ np.abs(mat) ** 2 @ amp_g ** 2)
                          @ ring_w_g)

    delta = _one_diagonal(psi) if psi.dim_clock == psi.dim_system else None
    if delta is not None:
        rows = list(_circulant_rows(mat, delta, amp_c, amp_g))
        sweeps, multiplicity = (rows, rows), psi.dim_clock
    else:
        mc = _node_table(reps[0])
        mg = mc if reps[1] is reps[0] else _node_table(reps[1])
        sweeps = (_streamed_rows(mat, mc, mg), _streamed_rows(mat, mc, mg))
        multiplicity = 1
    peak_val, peak = -1.0, (0, 0)
    for nodes, _, dens in sweeps[0]:
        i, k = np.unravel_index(int(np.argmax(dens)), dens.shape)
        if dens[i, k] > peak_val:
            peak_val, peak = float(dens[i, k]), (int(nodes[i]), int(k))
    counts = np.zeros((len(radii_c), len(radii_g)), dtype=np.int64)
    for _, rings, dens in sweeps[1]:
        np.add.at(counts, rings, (dens >= threshold * peak_val).reshape(
            len(dens), len(radii_g), psi.dim_system).sum(axis=2))
    return BetaDistribution(
        psi=psi, rep_clock=clock_c.rep, rep_system=clock_g.rep,
        threshold=threshold, normalization=normalization, peak=peak,
        support_counts=counts * multiplicity,
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
    radii_c, radii_g = (lookup(rep.family).rings(rep)[0]
                        for rep in (beta.rep_clock, beta.rep_system))
    e_c = lookup(clock_c.rep.family).symbol(clock_c, radii_c)
    e_g = lookup(clock_g.rep.family).symbol(clock_g, radii_g)
    scale = max(np.max(np.abs(e_c)), np.max(np.abs(e_g)))
    mismatch = np.abs(e_c[:, None] - e_g[None, :]) / scale
    dim_c, dim_g = beta.rep_clock.dim, beta.rep_system.dim
    complement = counts < dim_c * dim_g
    ring_peak = (beta.peak[0] // dim_c, beta.peak[1] // dim_g)
    return MismatchReport(
        support_max=float(mismatch[counts > 0].max()),
        complement_max=float(mismatch[complement].max()) if complement.any() else 0.0,
        peak_mismatch=float(mismatch[ring_peak]),
        energy_scale=float(scale),
        n_support=int(counts.sum()),
    )
