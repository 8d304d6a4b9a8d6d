"""Exception types shared across the package, and how messages quote input."""
from __future__ import annotations

import reprlib
from fractions import Fraction


def echo(value: object) -> str:
    """reprlib.repr(value), or the type's name where that raises (as for
    an int of more than 4300 digits): never raises.  reprlib bounds each
    level of a container, so nested ones multiply the bounds; a text over
    100 characters is cut to 97 and "...", which leaves every flat value
    and every Fraction as reprlib writes it."""
    if isinstance(value, Fraction):  # as str() writes it, parts shortened
        den = value.denominator
        return echo(value.numerator) + (f"/{echo(den)}" if den != 1 else "")
    try:
        text = reprlib.repr(value)
    except Exception:
        return f"<{type(value).__name__}>"
    return text if len(text) <= 100 else text[:97] + "..."


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
