"""Global rigidity certificates for periodic bar-joint and tensegrity frameworks.

Decides and certifies (global) rigidity of periodic frameworks from their
quotient gain graphs: stress-matrix certificates for flexible, fixed and
volume-constrained lattices, randomized generic tests, and the unique
volume-constrained energy minimizer.
"""

from .tolerances import DEFAULT_TOL, ToleranceVault
from .gain import CoveringWindow, GainEdge, GainGraph, canonicalize_edge
from .framework import (
    Realization,
    congruence_check,
    edge_vectors,
    fixed_rigidity_matrix,
    is_fixed_lattice_inf_rigid,
    is_infinitesimally_rigid,
    measurement,
    random_realization,
    rigidity_matrix,
    trivial_motions,
    volume_rigidity_matrix,
)
from .stress import (
    WeightedLaplacians,
    extend_with_loops,
    fixed_stress_space,
    lambda_stress_space,
    normalized_stress,
    stress_space,
    strip_loops,
    verify_equilibrium,
    weighted_laplacians,
)
from .certify import (
    Certificate,
    Verdict,
    certify_fixed_lattice,
    certify_spiderweb,
    certify_super_stable,
    certify_volume_constrained,
    conic_at_infinity,
    generic_fixed_global_rigidity_test,
    generic_global_rigidity_test,
)
from .optimize import (
    KktReport,
    energy,
    energy_gradient,
    standard_realization,
    verify_kkt,
)
from .construct import (
    FiniteFramework,
    Fixture,
    conjugation_identity_check,
    finite_to_periodic,
    fixtures,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CoveringWindow",
    "DEFAULT_TOL",
    "FiniteFramework",
    "Fixture",
    "GainEdge",
    "GainGraph",
    "KktReport",
    "Realization",
    "ToleranceVault",
    "Verdict",
    "WeightedLaplacians",
    "canonicalize_edge",
    "certify_fixed_lattice",
    "certify_spiderweb",
    "certify_super_stable",
    "certify_volume_constrained",
    "congruence_check",
    "conic_at_infinity",
    "conjugation_identity_check",
    "edge_vectors",
    "energy",
    "energy_gradient",
    "extend_with_loops",
    "finite_to_periodic",
    "fixed_rigidity_matrix",
    "fixed_stress_space",
    "fixtures",
    "generic_fixed_global_rigidity_test",
    "generic_global_rigidity_test",
    "is_fixed_lattice_inf_rigid",
    "is_infinitesimally_rigid",
    "lambda_stress_space",
    "measurement",
    "normalized_stress",
    "random_realization",
    "rigidity_matrix",
    "standard_realization",
    "stress_space",
    "strip_loops",
    "trivial_motions",
    "verify_equilibrium",
    "verify_kkt",
    "volume_rigidity_matrix",
    "weighted_laplacians",
]
