"""The one grammar tilegate reads fractions in, and the one encoder it
writes JSON with, for tiling files and the command line alike, and
nothing else: no state, no memo.  It does not import the tiling side, so
the classify side of the command line can use it without loading that."""
from __future__ import annotations

import json
import re
from fractions import Fraction

from .errors import FormatError, echo

# Most digits a part of a fraction read from text or printed in a trace.
FRACTION_DIGITS_LIMIT = 300
# The least integer with more digits than that.
FRACTION_DIGITS_BOUND = 10 ** FRACTION_DIGITS_LIMIT
_DIGITS = f"[0-9]{{1,{FRACTION_DIGITS_LIMIT}}}"
_FRACTION_TEXT = re.compile(rf"(-?{_DIGITS})(?:/(?!0*\Z)({_DIGITS}))?")

# The canonical JSON text of an object: sorted keys, no spaces, the text of
# json.dumps(obj, sort_keys=True, separators=(",", ":")).  A one-shot
# encode runs in C, where json.dump streams through the pure-Python encoder
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def fraction_parts(text: object, what: str) -> tuple[int, int]:
    """The integers (u, v) of fraction text in the one grammar tilegate
    accepts, which is what ``str(Fraction)`` writes: ``u`` or ``u/v``, 1
    to 300 ASCII digits a part, u signed, v nonzero; v is 1 for ``u``.
    The parts are read as written, so "2/4" gives (2, 4).  The cap keeps
    any loaded value below exact.PHI_LIMIT * 10**300 < 1.7e308, so
    float_box stays finite."""
    m = isinstance(text, str) and _FRACTION_TEXT.fullmatch(text)
    if not m:
        raise FormatError(
            f"{what} must be 'u' or 'u/v' with at most {FRACTION_DIGITS_LIMIT} "
            f"ASCII digits a part and v nonzero, got {echo(text)}")
    u, v = m.groups()
    return int(u), int(v) if v else 1


def parse_fraction(text: object, what: str) -> Fraction:
    """The value of fraction text, in fraction_parts' grammar."""
    return Fraction(*fraction_parts(text, what))
