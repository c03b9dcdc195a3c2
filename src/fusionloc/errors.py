"""Exception types shared across the package."""


class FusionlocError(Exception):
    """Base class for every error raised by fusionloc."""


class ParseError(FusionlocError):
    """Malformed input file or unparsable permutation/cycle data."""


class InvalidPermutation(FusionlocError):
    """A generator is not a bijection of the stated domain."""


class OrderBoundExceeded(FusionlocError):
    """Generated group exceeds the configured order bound."""


class NotASubgroup(FusionlocError):
    """Argument is not a subgroup of the stated parent."""


class NotNormal(FusionlocError):
    """Subgroup is not normal where normality is required."""


class NotSylow(FusionlocError):
    """Subgroup is not a Sylow p-subgroup of the ambient group."""


class NotSylowInN(FusionlocError):
    """N cap S is not a Sylow p-subgroup of N."""


class NotSaturated(FusionlocError):
    """Operation requires a saturated fusion system."""


class NotFullyKNormalized(FusionlocError):
    """Subgroup is not fully K-normalized in the fusion system."""


class NotCentral(FusionlocError):
    """Subgroup is not contained in the center of the fusion system."""


class NotAnObject(FusionlocError):
    """Subgroup is not in the object set of the locality."""


class NotInDomain(FusionlocError):
    """Word is not in the domain of the partial product."""


class NotPartialNormal(FusionlocError):
    """Subset is not a partial normal subgroup of the locality."""


class NotClosed(FusionlocError):
    """Object set is not closed under conjugation and overgroups."""


class VerificationFailed(FusionlocError):
    """An internal structural assertion failed; carries a witness."""


class CorpusLoadError(FusionlocError):
    """A corpus entry could not be loaded."""
