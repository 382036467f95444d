"""Exception types raised across the package.

``PerigidError`` subclasses split into user-input problems (bad files, bad
preconditions) and internal-consistency failures; the CLI maps the former to
exit code 2 and the latter to exit code 3.
"""


class PerigidError(Exception):
    """Base class for all package errors."""


class NonFiniteEntry(PerigidError):
    """A matrix contains NaN or infinite entries."""


class ZeroLoop(PerigidError):
    """An edge (u, u, 0) was supplied; gain graphs forbid zero-gain loops."""


class DuplicateEdge(PerigidError):
    """Two supplied edges coincide under the (u,v,g) ~ (v,u,-g) relation."""


class GainDimensionMismatch(PerigidError):
    """An edge gain has the wrong number of coordinates."""


class NotAffinelySpanning(PerigidError):
    """The realization's covering does not affinely span the ambient space."""


class FlatLattice(PerigidError):
    """The lattice matrix is singular where a non-flat lattice is required."""


class NotFixedLatticeStress(PerigidError):
    """The supplied weighting is not a fixed-lattice equilibrium stress."""


class SingularGainBasis(PerigidError):
    """Supplied loop gains do not span the symmetric matrices."""


class ImproperStress(PerigidError):
    """A stress violates the cable/strut sign conditions."""


class NotSpiderweb(PerigidError):
    """The spiderweb preconditions (all cables, connected, rank d, non-flat) fail."""


class HypothesisFailed(PerigidError):
    """The stress matrix is not PSD with nullity one, so the minimizer is undefined."""


class DegenerateKernel(PerigidError):
    """The kernel construction inside the minimizer degenerated numerically."""


class DegenerateEdge(PerigidError):
    """An edge vector has (numerically) zero length."""


class VolumeNotOne(PerigidError):
    """The lattice volume is not one where the volume certificate requires it."""


class PairConditionViolated(PerigidError):
    """Vertex pairs for the finite-to-periodic construction overlap illegally."""


class DependentLatticeVectors(PerigidError):
    """The difference vectors chosen as lattice columns are linearly dependent."""


class ShapeMismatch(PerigidError):
    """Matrix shapes are inconsistent with the requested conjugation."""


class ParseError(PerigidError):
    """A framework file or a request is malformed; file errors name the offending path."""


class InternalInconsistency(PerigidError):
    """Two computations that must agree disagreed; signals a bug, not bad input."""


class RankMismatch(InternalInconsistency):
    """Rank equalities asserted by loop stripping failed beyond tolerance."""


class FormMismatch(InternalInconsistency):
    """Two equivalent formulas for the same quantity disagreed beyond tolerance."""
