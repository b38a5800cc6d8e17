"""clocklab: a numerical laboratory for coherent-state clocks.

The package builds ladder clocks from three Lie-algebra families (spin,
oscillator, hyperbolic), entangles them with a system under a zero-energy
constraint, and checks that conditioning on the clock's coherent-state
angle reproduces ordinary time evolution, number-phase uncertainty
relations, and, in the large-size limit, Hamilton's equations with the
same flow rate on both sides of the quantum-classical divide.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless one of
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
already set: on matrices of dimension tens to hundreds, BLAS threads cost
more than they save.  The default reaches BLAS only when this package is
imported before numpy or scipy.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .algebra import (
    ClockModel,
    LieAlgebraRep,
    build_clock,
    build_h4_rep,
    build_su2_rep,
    build_su11_rep,
    intensive_h4_clock,
    intensive_su2_clock,
    residual_norm2,
    verify_cartan,
)
from .classical import (
    BetaDistribution,
    DarbouxPoint,
    beta_distribution,
    classical_constraint_check,
    classical_flow_rate,
    hamilton_check,
    map_F,
    pullback_two_form,
    two_form_coefficient,
)
from .constraint import (
    CompositeState,
    ConditionalState,
    SpectralMatch,
    build_psi,
    chi2_identity_residual,
    conditional_state,
    gaussian_profile,
    gaussian_state,
    ladder_match,
    match_spectra,
    precs_decomposition_check,
    random_profile,
    reduced_density_clock,
    reduced_density_gamma,
)
from .dynamics import (
    ConvergenceRecord,
    ConvergenceSweep,
    convergence_sweep,
    energy_of_rho,
    propagator_deviation,
    quantum_flow_rate,
    resonant_ladder,
    schrodinger_residual,
    stationary_experiment,
    stationary_residual,
)
from .gcs import (
    clock_symbol_numeric,
    coherent_vector,
    displace,
    identity_resolution_check,
    phi_derivative_identity_check,
)
from .phase import (
    PhaseOperator,
    build_phase_operator,
    classical_phase_expectations,
    commutator_check,
    small_phi_energy_time,
    uncertainty_audit,
    uncertainty_grid_audit,
)

__version__ = "0.1.0"

__all__ = [
    "BetaDistribution",
    "ClockModel",
    "CompositeState",
    "ConditionalState",
    "ConvergenceRecord",
    "ConvergenceSweep",
    "DarbouxPoint",
    "LieAlgebraRep",
    "PhaseOperator",
    "SpectralMatch",
    "beta_distribution",
    "build_clock",
    "build_h4_rep",
    "build_phase_operator",
    "build_psi",
    "build_su11_rep",
    "build_su2_rep",
    "chi2_identity_residual",
    "classical_constraint_check",
    "classical_flow_rate",
    "classical_phase_expectations",
    "clock_symbol_numeric",
    "coherent_vector",
    "commutator_check",
    "conditional_state",
    "convergence_sweep",
    "displace",
    "energy_of_rho",
    "gaussian_profile",
    "gaussian_state",
    "hamilton_check",
    "identity_resolution_check",
    "intensive_h4_clock",
    "intensive_su2_clock",
    "ladder_match",
    "map_F",
    "match_spectra",
    "phi_derivative_identity_check",
    "precs_decomposition_check",
    "propagator_deviation",
    "pullback_two_form",
    "quantum_flow_rate",
    "random_profile",
    "reduced_density_clock",
    "reduced_density_gamma",
    "residual_norm2",
    "resonant_ladder",
    "schrodinger_residual",
    "small_phi_energy_time",
    "stationary_experiment",
    "stationary_residual",
    "two_form_coefficient",
    "uncertainty_audit",
    "uncertainty_grid_audit",
    "verify_cartan",
]
