"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised for malformed, unknown, or out-of-range configuration input."""


class InfiniteOccupationError(ValueError):
    """Raised when a thermal occupation diverges (beta = 0 at finite frequency)."""


class ResourceLimitError(ValueError):
    """Raised when a dense Fock-space computation would exceed the documented size limits."""


class TruncationError(RuntimeError):
    """Raised when a truncated Fock basis drops more norm than the tolerance allows."""
