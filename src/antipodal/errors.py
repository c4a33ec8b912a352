"""Exception taxonomy shared across the toolkit.

Every error raised deliberately by this package derives from
:class:`AntipodalError`, so callers (in particular the CLI) can map the
whole family onto a single "bad input / wrong regime" exit path.
Mathematical violations discovered by the verifiers are *not* errors;
they are returned as data inside report objects.  A RuntimeError marks
an internal fault (a failed self-check), never bad input.
"""


class AntipodalError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidParams(AntipodalError, ValueError):
    """Parameter triple violates 1 <= l <= k and k + l <= n."""


class OverlapError(AntipodalError, ValueError):
    """Plus and minus index sets of a vector overlap."""


class RangeError(AntipodalError, ValueError):
    """An index lies outside [1..n]."""


class DimensionMismatch(AntipodalError, ValueError):
    """Objects defined over different dimensions were combined."""


class BadCharacter(AntipodalError, ValueError):
    """Vector text contains a character other than '+', '-', '0'."""


class EmptyInput(AntipodalError, ValueError):
    """Empty text where a vector or family was expected."""


class RegimeError(AntipodalError, ValueError):
    """Requested quantity is undefined outside its parameter regime."""


class GroundMismatch(AntipodalError, ValueError):
    """Set families over different ground sets were combined."""


class PreconditionError(AntipodalError, ValueError):
    """A stated precondition of a verifier does not hold."""


class TooLarge(AntipodalError, ValueError):
    """Instance exceeds the feasibility cap of an exhaustive routine."""


class BadPair(AntipodalError, ValueError):
    """Index pair violates the size or disjointness requirement."""


class BadT(AntipodalError, ValueError):
    """Support set has the wrong cardinality."""
