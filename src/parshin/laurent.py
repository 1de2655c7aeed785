"""Multivariate Laurent polynomials with rational or Lie-algebra coefficients.

Exponent vectors are dense tuples of signed integers.  ``LaurentPoly`` keeps a
canonical sorted term list with no zero coefficients, so structural equality
is semantic equality.  ``parshin_oracle`` is the classical coefficient
extraction residue: the coefficient of t_1^-1 ... t_n^-1 in f_0 times the
Jacobian determinant of (f_1, ..., f_n), read off the determinant's
multilinear expansion over the term tuples of f_1, ..., f_n without forming
the Jacobian polynomial (``jacobian_det`` forms it, as the tests' reference).
It is the independent reference that the operator-trace residue is tested
against.

A coefficient is held as a plain ``int`` when it is integral and as a
``Fraction`` otherwise, as ``matrices.matrix`` holds matrix entries.  An
``int`` hashes and compares equal to the equal ``Fraction``, so the two
forms give the same equality, hashes and order; ints only add, negate and
hash faster.  The values this module returns (``coefficient``,
``evaluate``, ``parshin_oracle``) are ``Fraction``s.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DimensionMismatch, MixedAlgebras, ParseError
from .liealg import LieAlgebra, LieElement
from .matrices import canonical, det, integer, rational


def _canonical(terms):
    return tuple(sorted((exp, canonical(c)) for exp, c in terms.items() if c != 0))


@dataclass(frozen=True)
class LaurentPoly:
    """Element of k[t_1^+-, ..., t_n^+-] in canonical form."""

    n: int
    terms: tuple  # sorted ((exponent tuple, int or Fraction), ...), no zeros

    @staticmethod
    def make(n, mapping) -> "LaurentPoly":
        out = {}
        for exp, c in mapping.items():
            exp = tuple(integer(e, "exponent") for e in exp)
            if len(exp) != n:
                raise DimensionMismatch(f"exponent {exp} has length {len(exp)}, expected {n}")
            c = rational(c)
            if c != 0:
                out[exp] = out.get(exp, 0) + c
        return LaurentPoly(n, _canonical(out))

    @staticmethod
    def zero(n) -> "LaurentPoly":
        return LaurentPoly(n, ())

    @staticmethod
    def one(n) -> "LaurentPoly":
        return LaurentPoly(n, (((0,) * n, 1),))

    @staticmethod
    def monomial(n, exp, coeff=1) -> "LaurentPoly":
        return LaurentPoly.make(n, {tuple(exp): coeff})

    @staticmethod
    def variable(n, axis) -> "LaurentPoly":
        """The generator t_axis (1-based axis)."""
        exp = tuple(1 if i == axis - 1 else 0 for i in range(n))
        return LaurentPoly.monomial(n, exp, 1)

    def coefficient(self, exp) -> Fraction:
        exp = tuple(exp)
        for e, c in self.terms:
            if e == exp:
                return Fraction(c)
        return Fraction(0)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(any(exp) for exp, _ in self.terms)

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms:
            out[exp] = out.get(exp, 0) + c
        return LaurentPoly(self.n, _canonical(out))

    def __neg__(self):
        return LaurentPoly(self.n, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        # the signs 1 and -1 are the common factors: no Fraction product for them
        if c == 1:
            return self
        if c == -1:
            return -self
        c = rational(c)
        if c == 0:
            return LaurentPoly.zero(self.n)
        return LaurentPoly(self.n, tuple((e, canonical(c * v)) for e, v in self.terms))

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return LaurentPoly(self.n, _canonical(out))

    def shift_argument(self, shift) -> "LaurentPoly":
        """The polynomial x -> self(x + shift), by binomial expansion (exponents >= 0).

        A zero shift or a constant polynomial returns self.
        """
        if not any(shift) or self.is_constant():
            return self
        out = {}
        for exp, c in self.terms:
            expansions = []
            for e, s in zip(exp, shift):
                if s == 0 or e == 0:
                    expansions.append([(e, 1)])
                elif e < 0:
                    raise ValueError(f"cannot shift the term with exponent {exp}: it is not a polynomial")
                else:
                    # (x+s)^e = sum_k C(e,k) s^(e-k) x^k
                    expansions.append([(k, comb(e, k) * s ** (e - k)) for k in range(e + 1)])
            for combo in itertools.product(*expansions):
                new = tuple(k for k, _ in combo)
                coeff = c
                for _, b in combo:
                    coeff *= b
                out[new] = out.get(new, 0) + coeff
        return LaurentPoly(self.n, _canonical(out))

    def evaluate(self, point) -> Fraction:
        total = Fraction(0)
        for exp, c in self.terms:
            val = c
            for e, x in zip(exp, point):
                if e:
                    val *= Fraction(x) ** e
            total += val
        return total

    def degree_axis(self, i):
        """Largest exponent of the 0-based axis i, or 0."""
        return max((exp[i] for exp, _ in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.terms:
            factors = [f"t{i + 1}" + (f"^{e}" if e != 1 else "") for i, e in enumerate(exp) if e != 0]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts).replace("+ -", "- ")


def partial(f: LaurentPoly, axis) -> LaurentPoly:
    """Partial derivative with respect to t_axis (1-based), termwise l * t^(l - e_axis)."""
    if not 1 <= axis <= f.n:
        raise DimensionMismatch(f"axis {axis} outside 1..{f.n}")
    i = axis - 1
    out = {}
    for exp, c in f.terms:
        if exp[i] == 0:
            continue
        new = list(exp)
        new[i] -= 1
        out[tuple(new)] = out.get(tuple(new), 0) + c * exp[i]
    return LaurentPoly(f.n, _canonical(out))


def jacobian_det(fs) -> LaurentPoly:
    """det(d f_i / d t_j) expanded exactly over permutations."""
    n = fs[0].n
    if len(fs) != n:
        raise DimensionMismatch(f"need {n} polynomials for an n={n} Jacobian, got {len(fs)}")
    grid = [[partial(f, j + 1) for j in range(n)] for f in fs]
    total = LaurentPoly.zero(n)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = LaurentPoly.one(n)
        for i in range(n):
            prod = prod * grid[i][perm[i]]
        total = total + prod.scale(sign)
    return total


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def parshin_oracle(f0: LaurentPoly, fs) -> Fraction:
    """Coefficient of t_1^-1 ... t_n^-1 in f0 * det(d f_i / d t_j).

    The determinant is multilinear in its rows, so it is expanded over one
    term c_i t^(a_i) of each f_i.  Such a tuple contributes
    c_1 ... c_n det(a) t^(a_1 + ... + a_n - (1, ..., 1)), where a is the
    integer matrix of exponent rows: row i of the Jacobian is t^(a_i) times
    (a_i1 t_1^-1, ..., a_in t_n^-1).  Only a tuple whose column sum a term
    c_0 t^e of f0 cancels (e + a_1 + ... + a_n = 0) reaches t^(-1, ..., -1),
    so the value is the sum of c_0 c_1 ... c_n det(a) over those tuples.
    """
    n = f0.n
    fs = list(fs)
    for f in fs:
        if f.n != n:
            raise DimensionMismatch("oracle inputs have mismatched variable counts")
    if len(fs) != n:
        raise DimensionMismatch(f"need {n} polynomials for an n={n} Jacobian, got {len(fs)}")
    f0_terms = dict(f0.terms)
    total = Fraction(0)
    for combo in itertools.product(*(f.terms for f in fs)):
        rows = tuple(exp for exp, _ in combo)
        coeff = f0_terms.get(tuple(-sum(col) for col in zip(*rows)))
        if coeff is None:
            continue
        for _, c in combo:
            coeff *= c
        total += coeff * det(rows)
    return total


# ---------------------------------------------------------------------------
# Lie-algebra-valued Laurent polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GLaurent:
    """Element of g[t_1^+-, ..., t_n^+-] in canonical form."""

    n: int
    algebra: LieAlgebra
    terms: tuple  # sorted ((exponent tuple, coefficient tuple), ...), nonzero

    @staticmethod
    def make(n, algebra, mapping) -> "GLaurent":
        out = {}
        for exp, el in mapping.items():
            exp = tuple(integer(e, "exponent") for e in exp)
            if len(exp) != n:
                raise DimensionMismatch(f"exponent {exp} has length {len(exp)}, expected {n}")
            if el.algebra != algebra:
                raise MixedAlgebras("GLaurent terms from different algebras")
            prev = out.get(exp)
            out[exp] = el if prev is None else prev + el
        terms = tuple(sorted((exp, el.coeffs) for exp, el in out.items() if not el.is_zero()))
        return GLaurent(n, algebra, terms)

    @staticmethod
    def monomial(n, element: LieElement, exp) -> "GLaurent":
        return GLaurent.make(n, element.algebra, {tuple(exp): element})

    @staticmethod
    def zero(n, algebra) -> "GLaurent":
        return GLaurent(n, algebra, ())

    def iter_terms(self):
        for exp, coeffs in self.terms:
            yield exp, LieElement(self.algebra, coeffs)

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.n != other.n:
            raise DimensionMismatch(f"variable counts differ: {self.n} vs {other.n}")
        if self.algebra != other.algebra:
            raise MixedAlgebras("GLaurent values over different algebras")

    def __add__(self, other):
        self._check(other)
        out = {exp: LieElement(self.algebra, c) for exp, c in self.terms}
        for exp, el in other.iter_terms():
            prev = out.get(exp)
            out[exp] = el if prev is None else prev + el
        return GLaurent.make(self.n, self.algebra, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return GLaurent.make(self.n, self.algebra, {exp: el.scale(c) for exp, el in self.iter_terms()})

    def bracket(self, other) -> "GLaurent":
        """[Y t^a, Z t^b] = [Y, Z] t^(a+b)."""
        self._check(other)
        out = {}
        for ea, ya in self.iter_terms():
            for eb, yb in other.iter_terms():
                exp = tuple(a + b for a, b in zip(ea, eb))
                val = ya.bracket(yb)
                prev = out.get(exp)
                out[exp] = val if prev is None else prev + val
        return GLaurent.make(self.n, self.algebra, out)


# ---------------------------------------------------------------------------
# Text grammar
# ---------------------------------------------------------------------------
#
#   poly   := [sign] term (sign term)*
#   term   := coeff ["*"] (factor ["*"])*  |  (factor ["*"])+
#   coeff  := digits ["/" digits]
#   factor := "t" digits ["^" sign* digits]
#   sign   := "+" | "-"
#
# Whitespace may stand between any two lexemes, but not inside one: "t12" is
# t_12, "t 1" an error.  Digits are decimal digits of any script, as regex
# \d reads them.  Example: "3/2*t1^-2*t2 + t1".  A variable index is
# at least 1, a denominator is not 0, a repeated variable adds its powers
# ("t1*t1^2" is t1^3) and equal monomials add their coefficients.  A digit
# run longer than Python's integer-string limit (4300 digits by default) is
# a ParseError at its offset, like a character outside the grammar.

# One lexeme: a variable ("t" and its index digits), a digit run, or any other
# single character (an operator, or one outside the grammar).
_LEXEME = re.compile(r"\s*(t\d+|\d+|\S)")


def _error(text, base, k, message):
    """The ParseError of a scan of ``text`` that the grammar stopped at lexeme k.

    A lexeme outside the grammar (a stray character, a "t" without an index
    or a digit run ``int`` refuses) anywhere in the text is raised instead,
    the first one by offset, so the grammar speaks only about valid lexemes.
    ``message`` may name the rejected lexeme's value as ``{token}``.
    """
    offset, value = base + len(text), None
    for i, match in enumerate(_LEXEME.finditer(text)):
        lexeme, at = match.group(1), base + match.start(1)
        digits = lexeme[1:] if lexeme[0] == "t" else lexeme
        if digits.isdecimal():
            try:
                number = int(digits)
            except ValueError:
                raise ParseError(at, f"an integer of {len(digits)} digits is over the "
                                     f"{sys.get_int_max_str_digits()}-digit limit") from None
        elif lexeme not in "+-*/^":
            raise ParseError(at, f"unexpected character {lexeme!r}")
        if i == k:
            offset, value = at, number if lexeme.isdecimal() else lexeme
    return ParseError(offset, message.format(token=value))


def _scan(text, base=0):
    """One polynomial's terms [(coefficient, {index: power}), ...] and its largest index.

    A single pass over the lexemes, left to right.  A coefficient is an int
    where integral, else a Fraction; the largest index is 1 when no variable
    occurs.  ``base`` is the text's offset in the whole input, which error
    offsets count from.
    """
    lexemes = _LEXEME.findall(text)
    count = len(lexemes)  # the lexeme in tok is number count - len(lexemes)
    lexemes.append("")  # the end
    lexemes.reverse()
    pop = lexemes.pop
    tok = pop()
    sign = -1 if tok == "-" else 1
    if tok == "-" or tok == "+":
        tok = pop()
    terms = []
    top = 1
    try:
        while True:
            if tok.isdecimal():
                coeff = int(tok)
                tok = pop()
                if tok == "/":
                    tok = pop()
                    if not tok.isdecimal():
                        raise _error(text, base, count - len(lexemes), "expected a denominator")
                    den = int(tok)
                    tok = pop()
                    if not den:
                        raise _error(text, base, count - len(lexemes), "zero denominator")
                    coeff = Fraction(sign * coeff, den)
                elif sign < 0:
                    coeff = -coeff
                if tok == "*":
                    tok = pop()
            elif "t" < tok < "u":  # a variable: "t" and at least one digit
                coeff = sign
            else:
                raise _error(text, base, count - len(lexemes), "expected a term")
            exps = {}
            while "t" < tok < "u":
                idx = int(tok[1:])
                if idx < 1:
                    raise _error(text, base, count - len(lexemes), "variable index must be >= 1")
                tok = pop()
                power = 1
                if tok == "^":
                    tok = pop()
                    while tok == "-" or tok == "+":
                        if tok == "-":
                            power = -power
                        tok = pop()
                    if not tok.isdecimal():
                        raise _error(text, base, count - len(lexemes), "expected an integer")
                    power *= int(tok)
                    tok = pop()
                if idx in exps:
                    exps[idx] += power
                else:
                    exps[idx] = power
                    top = max(top, idx)
                if tok == "*":
                    tok = pop()
            terms.append((coeff, exps))
            if tok != "+" and tok != "-":
                if tok:
                    raise _error(text, base, count - len(lexemes), "expected '+' or '-', got {token!r}")
                return terms, top
            sign = -1 if tok == "-" else 1
            tok = pop()
    except ValueError:
        # int() refused a digit run over Python's limit; _error raises on it
        raise _error(text, base, 0, "") from None


def _from_terms(terms, n) -> LaurentPoly:
    """The LaurentPoly in n variables of scanned terms."""
    axes = range(1, n + 1)
    out = {}
    for coeff, exps in terms:
        exp = tuple([exps.get(i, 0) for i in axes])
        out[exp] = out.get(exp, 0) + coeff
    return LaurentPoly(n, _canonical(out))


def parse_poly(text, n=None) -> LaurentPoly:
    """Parse the text grammar into a LaurentPoly.

    The variable count defaults to the highest t-index present (at least 1).
    """
    terms, top = _scan(text)
    if n is None:
        n = top
    elif top > n:
        raise ParseError(0, f"variable t{top} exceeds n={n}")
    return _from_terms(terms, n)
