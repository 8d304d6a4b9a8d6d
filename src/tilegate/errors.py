"""Exception types shared across the package, and how messages quote input."""
from __future__ import annotations

import reprlib
from fractions import Fraction


def echo(value: object) -> str:
    """reprlib.repr(value), or the type's name where that raises (as for
    an int of more than 4300 digits): never raises."""
    if isinstance(value, Fraction):  # as str() writes it, parts shortened
        den = value.denominator
        return echo(value.numerator) + (f"/{echo(den)}" if den != 1 else "")
    try:
        return reprlib.repr(value)
    except Exception:
        return f"<{type(value).__name__}>"


class TilegateError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TilegateError, ValueError):
    """An argument is outside the documented domain of an operation."""


class ModulusError(TilegateError, ValueError):
    """A cyclotomic modulus cannot represent the requested value."""


class NonRealError(TilegateError, ValueError):
    """A coefficient vector does not describe a real number."""


class ResourceLimitError(TilegateError, RuntimeError):
    """A computation would exceed the configured size limits."""


class StructuralError(TilegateError, ValueError):
    """A tiling object violates a structural invariant."""


class FormatError(TilegateError, ValueError):
    """A serialized document does not match the expected schema."""
