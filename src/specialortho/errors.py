"""Exception types shared across the library.

Every failure mode that callers are expected to catch has its own class here;
modules raise these rather than bare ValueError so that the CLI can map them
to exit code 2 (usage / construction errors) uniformly.
"""

from __future__ import annotations


class SpecialOrthoError(Exception):
    """Base class for all library errors."""


class DivisionByZero(SpecialOrthoError, ZeroDivisionError):
    """Division by the zero element of the scalar field."""


class DenominatorVanishes(SpecialOrthoError, ZeroDivisionError):
    """A substitution made the denominator of a scalar identically zero."""


class ParseError(SpecialOrthoError, ValueError):
    """Malformed scalar expression text."""


class TooManyDigits(SpecialOrthoError, ValueError):
    """An integer is too long for Python to convert between text and int."""


class ExponentOverflow(SpecialOrthoError, OverflowError):
    """A power would exceed the largest exponent a monomial key can hold."""


class SingularMatrix(SpecialOrthoError, ArithmeticError):
    """Exact linear solve hit a structurally singular matrix."""


class ArityMismatch(SpecialOrthoError, ValueError):
    """An alternating map was evaluated on the wrong number of arguments."""


class ShapeMismatch(SpecialOrthoError, ValueError):
    """Maps with incompatible domains/codomains were combined."""


class DenominatorOutsideSet(SpecialOrthoError, ValueError):
    """A denominator is not c * l1^i l2^j l3^k a^m (a + 1)^r: the scalar field
    divides only by integers, the weights, alpha and alpha + 1 = -beta."""


class DegenerateParameter(SpecialOrthoError, ValueError):
    """A structure parameter that must be nonzero vanished."""


class NotImaginary(SpecialOrthoError, ValueError):
    """An operation restricted to imaginary octonions received a real part."""


class WrongDimension(SpecialOrthoError, ValueError):
    """A computed space has a dimension other than the structural one."""


class NotSpecial(SpecialOrthoError, ValueError):
    """Superalgebra assembly attempted on a non-special moment map."""


class ZeroParameter(SpecialOrthoError, ValueError):
    """Family parameter alpha or beta is zero (moment form undefined)."""


class SingularPairing(SpecialOrthoError, ArithmeticError):
    """Internal inconsistency while solving or re-verifying a Hodge dual."""


class UnknownSuite(SpecialOrthoError, ValueError):
    """Verification suite name not in the registry."""
