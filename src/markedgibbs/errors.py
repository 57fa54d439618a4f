"""Exception types shared across the package."""


class MarkedGibbsError(Exception):
    """Base class for all package-specific errors."""


class DuplicatePosition(MarkedGibbsError):
    """Two marked points share a position (a measure-zero collision)."""


class RegionOutOfBounds(MarkedGibbsError):
    """A requested region is not contained in the model box."""


class SizeLimit(MarkedGibbsError):
    """Input exceeds the configured combinatorial size cap."""


class GroundMismatch(MarkedGibbsError):
    """Functionals live on grounds of different cardinality."""


class NotInIdeal(MarkedGibbsError):
    """star_exp argument does not vanish on the empty configuration."""


class NotNormalized(MarkedGibbsError):
    """star_log argument is not 1 on the empty configuration."""


class OverlappingConfigurations(MarkedGibbsError):
    """Two configurations that must be position-disjoint are not."""


class QuadratureFailure(MarkedGibbsError):
    """An integrand could not be integrated at the configured resolution."""


class StabilityViolation(MarkedGibbsError):
    """A sampled configuration violates the declared stability bound."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OutsideRadius(MarkedGibbsError):
    """The activity lies outside the certified convergence radius."""


class IntegrationFailure(MarkedGibbsError):
    """A truncated series integral could not be evaluated."""


class RequiresFiniteRange(MarkedGibbsError):
    """Operation is only defined for finite-range potentials."""


class SchemeMismatch(MarkedGibbsError):
    """Quadrature scheme incompatible with the model or dimension."""


class NonFiniteIntegrand(MarkedGibbsError):
    """Integrand returned NaN or an unexpected infinity."""


class AcceptanceTooLow(MarkedGibbsError):
    """Rejection sampler acceptance estimate below the configured floor."""


class ConfigError(MarkedGibbsError):
    """Malformed run configuration."""


def check_keys(what: str, data, known: tuple[str, ...]):
    """A config object must be a JSON object with known keys only."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key {unknown[0]!r}; known: {sorted(known)}")


class EnergyDrift(MarkedGibbsError):
    """A chain's incrementally tracked energy disagrees with its recomputation."""
