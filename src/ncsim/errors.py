"""Exception types shared across the package, and the type tests of
user-supplied values that raise :class:`ConfigurationError`."""
import numbers


class ConfigurationError(ValueError):
    """Raised for invalid user-supplied parameters or config files."""


class SynthesisError(RuntimeError):
    """Raised when controller synthesis fails or yields an unstable closed loop."""


class OptimizationError(RuntimeError):
    """Raised when a numeric fixed point or parameter search does not converge."""


class InvariantViolation(AssertionError):
    """Internal consistency failure; aborts the current run."""


def is_integer(v) -> bool:
    """Whether ``v`` is an integer; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a real number; a bool is not one."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)
