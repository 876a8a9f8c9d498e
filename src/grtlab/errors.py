"""Exception hierarchy shared across the package.

Everything raised deliberately by grtlab derives from :class:`GrtError`,
so callers (and the CLI) can distinguish precondition violations from
genuine bugs, which surface as ordinary ``AssertionError``/``TypeError``.
The one exception is the ``ValueError`` of the matrix-shape checks in
``linalg``: the CLI never hands them a user's matrix, so it is a bug too.
"""


class GrtError(Exception):
    """Base class for all errors raised by grtlab."""


class PreconditionError(GrtError, ValueError):
    """An argument is outside the range an operation is defined on: a
    degree, modulus or cap too small, a modulus that is not prime, a
    malformed alphabet or coordinate vector.  It is a ``ValueError`` too,
    so callers that catch that keep working."""


class AlphabetMismatchError(GrtError):
    """Two operands live over different graded alphabets."""


class AtomicWordError(GrtError):
    """Standard factorization was requested for a single-letter word."""


class InhomogeneousError(GrtError):
    """An operation that needs a homogeneous element got a mixed one."""


class NotALiePolynomialError(GrtError):
    """A tensor-algebra element is not in the image of the free Lie algebra.

    Carries the offending leading word in ``word`` when available.
    """

    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


class LieSyntaxError(GrtError):
    """Syntax error while parsing a Lie expression; ``position`` is 0-based."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(LieSyntaxError):
    """An identifier in a parsed expression is not a generator name."""

    def __init__(self, name, position):
        super().__init__(f"unknown generator {name!r}", position)
        self.name = name


class NotOneDimensionalError(GrtError):
    """A distinguished-generator request hit a space of dimension != 1."""


class DegenerateLeadingTermError(GrtError):
    """The coefficient used to normalize a distinguished generator vanishes."""


class SpecialConditionError(GrtError):
    """Caller input fails a defining condition of the stable derivation
    algebra: ``ihara.special_witness`` raises it when f is not homogeneous
    of degree >= 2 or no u has [y, f] = [z, u], and
    ``ihara.ihara_bracket(verify=True)`` when an operand fails the special,
    2-cycle or 3-cycle condition.  The command line maps it, like every
    :class:`GrtError`, to exit code 3."""


class ClassMismatchError(GrtError):
    """Operands of a nilpotent group operation disagree in truncation class
    or in the underlying alphabet."""


class UnsupportedFamilyError(GrtError):
    """A filtration report was requested for parameters outside the
    families this module knows how to handle exactly."""
