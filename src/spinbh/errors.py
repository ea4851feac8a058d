"""Exception types shared across the package."""


class SpinBHError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(SpinBHError, ValueError):
    """A model, circuit, or experiment specification is unusable as given;
    also a ValueError, so callers that catch ValueError keep working."""


class HermiticityError(SpinBHError):
    """An operation that requires a Hermitian operator received one that is not."""


class NumericalError(SpinBHError):
    """A numerical routine failed to meet its accuracy contract."""
