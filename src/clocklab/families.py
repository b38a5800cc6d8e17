"""Closed forms of the three clock families, one object per family.

Every formula that depends on which Lie algebra a clock is built from lives
here (see ``Family``).  The matrices are built in ``algebra`` without any of
them, so checks that compare the two sides stay independent.  Callers turn
``LieAlgebraRep.family``, the family's name, into its object with ``lookup``.
"""
from __future__ import annotations

import functools

import numpy as np
from scipy.special import gammaln, roots_laguerre

# builders are called through the module, so wrappers installed on algebra's
# functions (the clockbench span tracer) see these calls too
from . import algebra
from .algebra import LieAlgebraRep


class Family:
    """The closed forms of one family.  Every subclass defines

    - ``amplitudes(rep, rho)``: radial amplitudes c_n >= 0 of the
      normalized coherent state, stable at every admissible rho;
    - ``symbol(clock, rho)``: the closed-form clock symbol;
    - ``chart_radius(clock, rho)``: the Darboux factor C(rho) and its
      derivative, with (eps/2) C(rho)^2 the coherent energy surface;
    - ``two_form(clock, rho)``: the coefficient of dphi ^ drho of the
      pulled-back two-form, with Planck's constant 1;

    and, where the family has them, ``rep_for_size`` and the radial rule
    behind ``rings``.  Adding a family means one subclass here
    and one builder in ``algebra``.
    """

    name: str

    def rep_for_size(self, size: int) -> LieAlgebraRep:
        """Representation for one entry of a size sweep."""
        raise ValueError(f"no size sweep for family {self.name!r}")

    def _radial_rule(self, rep: LieAlgebraRep, n_polar: int | None,
                     n_azim: int) -> tuple[np.ndarray, np.ndarray]:
        raise ValueError(f"no normalizable manifold measure for family {self.name!r}")

    def rings(self, rep: LieAlgebraRep, n_polar: int | None = None,
              n_azim: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The quadrature of the invariant measure as a grid: (radii, phis, weights).

        Node (r, a) is the point (radii[r], phis[a]) and weighs weights[r];
        the weights carry the full measure, so summing w |c><c| over the
        grid gives the resolution of identity.  The defaults are exact on
        the valid subspace: the azimuthal grid is uniform with ``rep.dim``
        points, so the phase cross terms exp(i (n - m) phi) integrate to
        zero, and the radial rule is Gaussian in the measure's natural
        variable with the family's node count (su2: Gauss-Legendre in
        cos(2 rho); h4: Gauss-Laguerre in rho^2).  Fewer than
        ``rep.valid_dim`` azimuthal points would alias those cross terms
        and are refused.
        """
        if n_azim is None:
            n_azim = rep.dim
        if n_azim < rep.valid_dim:
            raise ValueError(f"n_azim = {n_azim} below the valid dimension {rep.valid_dim} "
                             "aliases the phase cross terms")
        radii, weights = self._radial_rule(rep, n_polar, n_azim)
        return radii, 2 * np.pi * np.arange(n_azim) / n_azim, weights


class _SU2(Family):
    """Spin: the sphere, trig branch."""

    name = "su2"

    def amplitudes(self, rep, rho):
        n = np.arange(rep.dim, dtype=float)
        j = rep.params["j"]
        two_j = 2 * j
        ln_binom = 0.5 * (gammaln(two_j + 1) - gammaln(n + 1) - gammaln(two_j - n + 1))
        s, c = np.sin(rho), np.cos(rho)
        # powers, not logs: endpoints rho = 0, pi/2 are exact this way
        with np.errstate(over="ignore", invalid="ignore"):
            amps = np.exp(ln_binom) * s ** n * c ** (two_j - n)
        bad = ~np.isfinite(amps)
        if bad.any():
            # past j ~ 1024 the binomial overflows before the powers underflow:
            # those entries, and only those, are summed in logs
            m = n[bad]
            sign = np.sign(s) ** m * np.sign(c) ** (two_j - m)
            with np.errstate(divide="ignore"):  # log(0) at rho = 0
                amps[bad] = sign * np.exp(ln_binom[bad] + m * np.log(abs(s))
                                          + (two_j - m) * np.log(abs(c)))
        return amps

    def symbol(self, clock, rho):
        return float(0.5 * clock.epsilon * clock.b2 * (np.cos(2 * rho) - 1.0))

    def chart_radius(self, clock, rho):
        amp = np.sqrt(2.0 * abs(clock.b2))
        return amp * np.sin(rho), amp * np.cos(rho)

    def two_form(self, clock, rho):
        return abs(clock.b2) * np.sin(2.0 * rho)

    def rep_for_size(self, size):
        """``size`` is 2j."""
        return algebra.build_su2_rep(size / 2.0)

    def _radial_rule(self, rep, n_polar, n_azim):
        # (2j+1)/(4pi) d(cos theta) dphi with theta = 2 rho; the diagonal
        # integrand has degree 2j in cos(theta) and n Gauss-Legendre nodes are
        # exact to degree 2n - 1, so floor(j) + 1 nodes are (j + 1/2 at half-integer j)
        j = rep.params["j"]
        if n_polar is None:
            n_polar = int(np.floor(j)) + 1
        radii, w = _gauss_legendre(n_polar)
        return radii, (2 * j + 1) * w / (2.0 * n_azim)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The radii arccos(x) / 2 and the weights of the n-node Gauss-Legendre rule.

    Computed once per node count (leggauss solves a dense n x n
    eigenproblem) and read-only, so no caller can change what the next
    one reads.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    radii = np.arccos(x) / 2.0
    for a in (radii, w):
        a.flags.writeable = False
    return radii, w


class _H4(Family):
    """Oscillator: the plane."""

    name = "h4"

    def amplitudes(self, rep, rho):
        n = np.arange(rep.dim, dtype=float)
        if rho == 0.0:
            amps = np.zeros(rep.dim)
            amps[0] = 1.0
            return amps
        ln = n * np.log(rho) - 0.5 * gammaln(n + 1) - rho * rho / 2.0
        return np.exp(ln)

    def symbol(self, clock, rho):
        return float(clock.epsilon * rho * rho)

    def chart_radius(self, clock, rho):
        return np.sqrt(2.0) * rho, np.sqrt(2.0)

    def two_form(self, clock, rho):
        return 2.0 * rho

    def rep_for_size(self, size):
        """``size`` is the Fock cutoff."""
        return algebra.build_h4_rep(int(size))

    def _radial_rule(self, rep, n_polar, n_azim):
        # (1/pi) d^2 alpha, Gauss-Laguerre in u = rho^2: the diagonal integrand
        # u^n e^-u / n! with n < valid_dim is exact with ceil(valid_dim / 2) nodes
        if n_polar is None:
            n_polar = (rep.valid_dim + 1) // 2
        u, w = roots_laguerre(n_polar)
        with np.errstate(over="ignore", invalid="ignore"):
            radial_w = w * np.exp(u) / n_azim
        if not np.isfinite(radial_w).all():
            raise ValueError(f"Gauss-Laguerre weights overflow at n_polar = {n_polar}")
        return np.sqrt(u), radial_w


class _SU11(Family):
    """Pseudo-spin discrete series: the hyperboloid; no quadrature, no size sweep."""

    name = "su11"

    def amplitudes(self, rep, rho):
        n = np.arange(rep.dim, dtype=float)
        k = rep.params["k"]
        t = np.tanh(rho)
        ln_poch = 0.5 * (gammaln(2 * k + n) - gammaln(n + 1) - gammaln(2 * k))
        if t == 0.0:
            amps = np.zeros(rep.dim)
            amps[0] = 1.0
            return amps
        with np.errstate(divide="ignore"):  # log1p(-1) once tanh(rho) rounds to 1
            ln = ln_poch + n * np.log(t) + k * np.log1p(-t * t)
        return np.exp(ln)

    def symbol(self, clock, rho):
        return float(0.5 * clock.epsilon * clock.b2 * (np.cosh(2 * rho) - 1.0))

    def chart_radius(self, clock, rho):
        amp = np.sqrt(2.0 * abs(clock.b2))
        return -amp * np.sinh(rho), -amp * np.cosh(rho)

    def two_form(self, clock, rho):
        return abs(clock.b2) * np.sinh(2.0 * rho)


su2 = _SU2()
h4 = _H4()
su11 = _SU11()

FAMILIES: dict[str, Family] = {f.name: f for f in (su2, h4, su11)}


def lookup(name: str) -> Family:
    """The family object for a ``LieAlgebraRep.family`` name."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None
