"""Exception types shared across the library, and how their messages show a value."""


def shown(value):
    """repr(value) for an error message, cut after 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class ParshinError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ParshinError):
    """Operands live over different variable counts or coefficient spaces."""


class MixedAlgebras(ParshinError):
    """Lie elements from different algebras were combined."""


class AntisymmetryViolation(ParshinError):
    """A structure table fails [x,y] = -[y,x]; carries the offending pair."""

    def __init__(self, i, j, message=None):
        self.pair = (i, j)
        super().__init__(message or f"antisymmetry fails on basis pair ({i}, {j})")


class JacobiViolation(ParshinError):
    """A structure table fails the Jacobi identity; carries the offending triple."""

    def __init__(self, i, j, k, message=None):
        self.triple = (i, j, k)
        super().__init__(message or f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


class NotTraceClass(ParshinError):
    """The diagonal part of an operator has unbounded nonzero support."""


class IdealViolation(ParshinError):
    """A cube component fails the ideal membership required by its sign string."""


class RepeatedIndex(ParshinError):
    """An index list that must be duplicate-free contains a repeat."""


class ModuleActionUndefined(ParshinError):
    """No bracket action is defined between the given coefficient and algebra types."""


class ShapeMismatch(ParshinError):
    """An exponent matrix does not have the required (n+1) x n shape."""


class NotCentreless(ParshinError):
    """The closed-form cocycle requires a centreless Lie algebra."""


class MixedFlavors(ParshinError):
    """Cocycle entries do not all belong to one input flavor."""


class ParseError(ParshinError):
    """Polynomial text that does not match the grammar; carries the offset."""

    def __init__(self, offset, message):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class ArityError(ParshinError):
    """An input out of the accepted range, in the CLI or the library.

    A residue form with the wrong number of polynomials, n over the cap,
    work over the limit, a chain document without an integer n or a terms
    list, a Lie algebra or a Virasoro table over its size cap, an unknown
    suite, a count or bound below its minimum, or a trace that would sum a
    slab wider than ``opalg.MAX_SLAB_WIDTH`` point by point.
    """
