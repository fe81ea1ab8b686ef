"""Error taxonomy shared across the package.

Numerical failures are reported through dedicated exception types so callers
(and the CLI exit-code mapping) can distinguish "the math disagrees" from
"the algorithm did not converge" from "the request is out of numerical range".
"""


class LattesForgeError(Exception):
    """Base class for all package-specific errors."""


class PoleAtLatticePoint(LattesForgeError):
    """Weierstrass P was requested exactly at a lattice point."""


class NonConvergent(LattesForgeError):
    """A series needed more terms than its fixed maximum."""


class LemmaViolation(LattesForgeError):
    """A structural identity failed beyond the verification tolerance."""


class IllConditioned(LattesForgeError):
    """Linear solve has no well-separated null direction."""


class ValidationFailed(LattesForgeError):
    """Held-out validation of a fitted map exceeded tolerance."""


class IndeterminatePoint(LattesForgeError):
    """Homogeneous evaluation produced (~0 : ~0)."""


class RootCountMismatch(LattesForgeError):
    """Recovered critical points do not add up to 2D - 2."""


class NoConvergence(LattesForgeError):
    """An iterative solve ran out of iterations."""


class ContinuationBreakdown(LattesForgeError):
    """Cycle continuation failed even at the minimum step size."""


class BranchAmbiguity(LattesForgeError):
    """Two inverse branches are too close to select one reliably."""


class CoprimalityViolation(LattesForgeError):
    """A rational parameter denominator shares a factor with a or 2."""


class PrecisionExhausted(LattesForgeError):
    """Requested depth k exceeds what double precision can resolve."""


class NotPCF(LattesForgeError):
    """Some critical orbit failed to land on a cycle."""


class NotRepelling(LattesForgeError):
    """A critical orbit landed on a non-repelling cycle."""
