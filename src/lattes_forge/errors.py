"""Error taxonomy shared across the package.

Numerical failures are reported through dedicated exception types so callers
(and the CLI exit-code mapping) can distinguish "the math disagrees" from
"the algorithm did not converge" from "the request is out of numerical range".
"""


class LattesForgeError(Exception):
    """Base class for all package-specific errors."""


class LemmaViolation(LattesForgeError):
    """A structural identity failed beyond the verification tolerance."""


class IllConditioned(LattesForgeError):
    """Double precision cannot resolve the data: a solve has no separated null
    direction, a fit fails the map check, or distinct values round together."""


class ValidationFailed(LattesForgeError):
    """Held-out validation of a fitted map exceeded tolerance."""


class IndeterminatePoint(LattesForgeError):
    """Homogeneous evaluation produced (~0 : ~0)."""


class NoConvergence(LattesForgeError):
    """An iterative solve or a series ran out of iterations or terms."""


class ContinuationBreakdown(LattesForgeError):
    """Cycle continuation failed even at the minimum step size."""


class BranchAmbiguity(LattesForgeError):
    """Two inverse branches are too close to select one reliably."""


class PrecisionExhausted(LattesForgeError):
    """Requested depth k exceeds what double precision can resolve."""


class NotPCF(LattesForgeError):
    """Some critical orbit failed to land on a cycle."""


class NotRepelling(LattesForgeError):
    """A critical orbit landed on a non-repelling cycle."""
