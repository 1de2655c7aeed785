"""Small exact-rational matrix helpers (tuples of tuples of rationals).

An integral entry is a plain ``int`` and any other entry a ``Fraction``.  An
``int`` hashes and compares equal to the equal ``Fraction``, so both kinds
of entry give the same dict keys and the same order; ints only hash faster.
"""

from decimal import Decimal
from fractions import Fraction

Matrix = tuple


def canonical(x):
    """An int or Fraction x as an int where integral, else unchanged."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def rational(x):
    """Any value ``Fraction()`` accepts, as an int where integral, else a Fraction."""
    if type(x) is int:
        return x
    return canonical(x if type(x) is Fraction else Fraction(x))


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
    d = len(b)
    cols = list(zip(*b))
    return tuple(tuple(sum(ra[k] * col[k] for k in range(d)) for col in cols) for ra in a)


def mat_trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def det(a):
    """Determinant as a Fraction.

    An all-``int`` matrix goes through fraction-free (Bareiss) elimination,
    any other through fraction-preserving Gaussian elimination.
    """
    if all(type(x) is int for row in a for x in row):
        return Fraction(_det_int(a))
    m = [list(row) for row in a]
    d = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(d):
        pivot = next((r for r in range(col, d) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        result *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, d):
            if m[r][col] != 0:
                factor = m[r][col] * inv
                for c in range(col, d):
                    m[r][c] -= factor * m[col][c]
    return sign * result


def _det_int(a):
    """Bareiss elimination: every division is exact, so entries stay ints."""
    m = [list(row) for row in a]
    d = len(m)
    sign, prev = 1, 1
    for col in range(d - 1):
        if m[col][col] == 0:
            pivot = next((r for r in range(col + 1, d) if m[r][col] != 0), None)
            if pivot is None:
                return 0
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        pivot_value = m[col][col]
        for r in range(col + 1, d):
            row, head = m[r], m[r][col]
            for c in range(col + 1, d):
                row[c] = (row[c] * pivot_value - head * m[col][c]) // prev
        prev = pivot_value
    return sign * m[-1][-1] if d else 1


def rank(a):
    """Exact rank of a (possibly rectangular) rational matrix."""
    m = [list(row) for row in a]
    rows = len(m)
    if rows == 0:
        return 0
    cols = len(m[0])
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][col]
        for i in range(rows):
            if i != r and m[i][col] != 0:
                factor = m[i][col] * inv
                for c in range(col, cols):
                    m[i][c] -= factor * m[r][c]
        r += 1
        if r == rows:
            break
    return r


def mat_vec(a, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in a)
