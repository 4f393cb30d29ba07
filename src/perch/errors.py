"""Exception taxonomy for the pipeline.

Every failure that a caller can meaningfully react to gets its own class,
and every class here is raised somewhere in the package.  Everything
inherits from PerchError, so a caller can catch the whole pipeline with
one type.
"""


class PerchError(Exception):
    """Base class for all package-specific failures."""


# ---- geometry / quadrature ----

class BadGeometry(PerchError):
    """Contour segment with zero length, invalid arc angles, or overlap."""


class TooCloseToContour(PerchError):
    """Evaluation requested on the contour: a Cauchy target on a panel,
    or a root value on a cut without a side."""


# ---- initial data ----

class ParseError(PerchError):
    """Malformed CSV or preset string, or a non-finite sample."""


class UnknownPreset(PerchError):
    """Preset name not recognized."""


class PositivityViolation(PerchError):
    """m0 + 1 <= 0 somewhere on the grid."""


class EndpointViolation(PerchError):
    """m0 does not vanish at the interval endpoints."""


class SmoothnessViolation(PerchError):
    """Spectral tail of the sampled profile too large to trust."""


class IncompatibleEndpoints(PerchError):
    """Raw momentum differs at x = 0 and x = L, so no gauge shift exists."""


class SignCondition(PerchError):
    """m_raw + omega changes sign, so neither gauge case applies."""


class OutOfRange(PerchError):
    """Coordinate outside its domain (y outside [0, theta], etc.)."""


# ---- scattering ----

class BasisSingular(PerchError):
    """Wave-vector basis change is singular (k = 0)."""


class StiffnessFailure(PerchError):
    """Integration guard tripped: |Im k|*theta or |k| beyond the safe window."""


class NonGenericCase(PerchError):
    """The origin is a branch point (|Delta(0)| = 2): not the generic case."""


class IdenticallyZero(PerchError):
    """Function vanishes identically, so a zero search is meaningless."""


# ---- branch structure ----

class WindowTooSmall(PerchError):
    """The real-axis window edge falls inside a kept spectral gap."""


class DoubleZeroUnresolved(PerchError):
    """Near-double zero of Delta^2 - 4 that is neither simple nor a closed gap."""


class BranchSelectionError(PerchError):
    """No sign isolates the anchor R(i/2) = 0, or the root evaluator
    fails an identity that holds on both sheets."""


class NearPole(PerchError):
    """Evaluation requested inside the guard radius of a pole."""


class CrossValidationFailure(PerchError):
    """Two independent computations of one quantity disagree."""


class ContourClash(PerchError):
    """The sheet leaves no room for the contour's pieces.

    A cut comes so near +-i/2 that the eps-circles there would fall
    under their floor, or a residue disk meets the real axis, |k| = 1/2,
    an eps-circle, a cut or another disk.
    """


# ---- assembly ----

class DenominatorCollapse(PerchError):
    """A G-function denominator vanished; the sheet labeling is wrong."""


class UnknownRegion(PerchError):
    """Jump requested for a region tag the contour does not define."""


class JumpConsistencyError(PerchError):
    """Assembled jump fails its det, symmetry-rule or junction checks."""


# ---- verification ----

class VerificationFailure(PerchError):
    """An identity-based check exceeded its tolerance."""
