"""Exception hierarchy shared by all modules."""


class FieldSepError(Exception):
    """Base class for all workbench errors."""


class FieldMismatchError(FieldSepError):
    """Operands belong to different fields."""


class InputError(FieldSepError):
    """Bad user input (parse error, invalid polynomial, bad flag)."""


class ReducibleError(InputError):
    """A polynomial required to be irreducible has a nontrivial factor."""


class HeightBoundExceeded(FieldSepError):
    """A gen line of a tower file has a coefficient whose t-degree exceeds
    the height bound.

    This is a resource error: the input is refused before its
    irreducibility is certified, never answered incompletely.
    """


class ContextTooSmallError(FieldSepError):
    """A splitting context does not contain all required roots."""


class CapabilityError(FieldSepError):
    """The requested computation is outside the supported extension class."""


class PropertyViolation(FieldSepError):
    """A checked mathematical property failed; indicates a bug."""
