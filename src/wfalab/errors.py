"""Exception types raised across the package.

Everything derives from WfalabError so callers can catch the whole family;
each subclass also inherits the closest builtin so that generic handlers
(TypeError for wrong kinds of values, ValueError for bad ones) keep working.
"""


class WfalabError(Exception):
    """Base class for all errors raised by this package."""


class ExactnessError(WfalabError, TypeError):
    """A value that must be an exact rational was not (typically a float)."""


class SpaceMismatchError(WfalabError, TypeError):
    """A point does not belong to the metric space it was used with."""


class InvalidMetricError(WfalabError, ValueError):
    """A finite distance table violates the metric axioms or is malformed."""


class RequestIndexError(WfalabError, ValueError):
    """A request index is out of range or inconsistent with the instance."""


class HeadroomError(WfalabError, OverflowError):
    """A position is 2**62 or more in magnitude at its instance's integer
    scale, past the headroom of every integer kernel."""


class SizeGuardError(WfalabError, ValueError):
    """An exhaustive computation was asked for on an instance that is too big."""


class EmptySetError(WfalabError, ValueError):
    """An operation that needs at least one element got an empty collection."""


class UnboundedDifferenceError(WfalabError, ValueError):
    """max(f - g) over the whole line does not exist (difference unbounded)."""


class RegionSpaceError(WfalabError, TypeError):
    """A region was built over component spaces it is not defined for."""


class ConfigError(WfalabError, ValueError):
    """An experiment or algorithm configuration is invalid."""


class AuditError(WfalabError, AssertionError):
    """An audit-mode refinement found a strictly better value than the
    production candidate set, which should be impossible."""
