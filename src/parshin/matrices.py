"""Small exact-rational matrix helpers (tuples of tuples of rationals).

An integral entry is a plain ``int`` and any other entry a ``Fraction``.  An
``int`` hashes and compares equal to the equal ``Fraction``, so both kinds
of entry give the same dict keys and the same order; ints only hash faster.
"""

from decimal import Decimal
from fractions import Fraction


def canonical(x):
    """An int or Fraction x as an int where integral, else unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def rational(x):
    """Any value ``Fraction()`` accepts, as an int where integral, else a Fraction."""
    if type(x) is int:
        return x
    return canonical(x if type(x) is Fraction else Fraction(x))


def integer(x, what):
    """Lattice data x as an int: an int (not a bool), or a Fraction with
    denominator 1.  Anything else raises TypeError naming ``what``, rather
    than being truncated as ``int(x)`` would."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"{what} must be an integer, got {x!r}")


def exact_text(q):
    """str(q) of an int or Fraction, for any number of digits.

    ``str`` refuses an int over Python's int-to-str digit limit; ``Decimal``
    converts an int exactly with no such limit.
    """
    num = str(Decimal(q.numerator))
    return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"


def matrix(rows):
    """Build a canonical matrix (tuple of tuples, ints where integral) from nested iterables."""
    return tuple(tuple(rational(x) for x in row) for row in rows)


def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(ra, col)) for col in cols) for ra in a)


def mat_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def det(a):
    """Determinant of a square matrix of ints, as a Fraction.

    Bareiss elimination (Sylvester's identity): every division is exact, so
    the entries stay ints.  A non-``int`` entry raises TypeError.
    """
    m = [list(row) for row in a]
    if any(type(x) is not int for row in m for x in row):
        raise TypeError("det takes a matrix of ints")
    d = len(m)
    sign, prev = 1, 1
    for col in range(d - 1):
        if m[col][col] == 0:
            pivot = next((r for r in range(col + 1, d) if m[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pivot_value = m[col][col]
        for r in range(col + 1, d):
            row, head = m[r], m[r][col]
            for c in range(col + 1, d):
                row[c] = (row[c] * pivot_value - head * m[col][c]) // prev
        prev = pivot_value
    return Fraction(sign * m[-1][-1] if d else 1)


def mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)
