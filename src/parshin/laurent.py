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
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DimensionMismatch, MixedAlgebras, ParseError
from .liealg import LieAlgebra, LieElement
from .matrices import canonical, det, rational


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
            exp = tuple(int(e) for e in exp)
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
        """The polynomial x -> self(x + shift), by binomial expansion (exponents >= 0)."""
        if not any(shift):
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
            exp = tuple(int(e) for e in exp)
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
#   poly   := term (("+"|"-") term)*
#   term   := [coeff "*"?] factor*
#   factor := "t" index ("^" signed-int)?
#   coeff  := signed-int ("/" posint)?
#
# Whitespace is insignificant.  Example: "3/2*t1^-2*t2 + t1".

_TOKEN = re.compile(r"\s*(?:(?P<var>t(?P<idx>\d+))|(?P<int>\d+)|(?P<op>[+\-*/^]))")


def _tokenize(text, base=0):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(base + pos, f"unexpected character {text[pos]!r}")
        if match.group("var"):
            tokens.append(("var", int(match.group("idx")), base + match.start("var")))
        elif match.group("int"):
            tokens.append(("int", int(match.group("int")), base + match.start("int")))
        else:
            tokens.append(("op", match.group("op"), base + match.start("op")))
        pos = match.end()
    tokens.append(("end", None, base + len(text)))
    return tokens


class _PolyParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(self.peek()[2], message)

    def parse_signed_int(self):
        sign = 1
        kind, value, _ = self.peek()
        while kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            self.take()
            kind, value, _ = self.peek()
        if kind != "int":
            self.fail("expected an integer")
        self.take()
        return sign * value

    def parse_term(self, sign):
        """One term; returns a map exponent-tuple-fragment -> coeff in sparse form."""
        coeff = Fraction(sign)
        exps = {}
        saw_anything = False
        kind, value, _ = self.peek()
        if kind == "int":
            self.take()
            num = value
            den = 1
            if self.peek()[0] == "op" and self.peek()[1] == "/":
                self.take()
                if self.peek()[0] != "int":
                    self.fail("expected a denominator")
                den = self.take()[1]
                if den == 0:
                    self.fail("zero denominator")
            coeff *= Fraction(num, den)
            saw_anything = True
            if self.peek()[0] == "op" and self.peek()[1] == "*":
                self.take()
        while self.peek()[0] == "var":
            _, idx, pos = self.take()
            if idx < 1:
                raise ParseError(pos, "variable index must be >= 1")
            power = 1
            if self.peek()[0] == "op" and self.peek()[1] == "^":
                self.take()
                power = self.parse_signed_int()
            exps[idx] = exps.get(idx, 0) + power
            saw_anything = True
            if self.peek()[0] == "op" and self.peek()[1] == "*":
                self.take()
        if not saw_anything:
            self.fail("expected a term")
        return coeff, exps

    def parse_poly(self):
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            sign = -1 if value == "-" else 1
            self.take()
        terms.append(self.parse_term(sign))
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                terms.append(self.parse_term(-1 if value == "-" else 1))
            elif kind == "end":
                break
            else:
                self.fail(f"expected '+' or '-', got {value!r}")
        return terms


def _parse_sparse(text, base=0):
    parser = _PolyParser(_tokenize(text, base))
    return parser.parse_poly()


def _from_sparse(sparse, n) -> LaurentPoly:
    """The LaurentPoly in n variables of a parsed term list (dense exponents)."""
    out = {}
    for coeff, exps in sparse:
        exp = tuple(exps.get(i + 1, 0) for i in range(n))
        out[exp] = out.get(exp, Fraction(0)) + coeff
    return LaurentPoly.make(n, out)


def parse_poly(text, n=None) -> LaurentPoly:
    """Parse the text grammar into a LaurentPoly.

    The variable count defaults to the highest t-index present (at least 1).
    """
    sparse = _parse_sparse(text)
    max_idx = max((idx for _, exps in sparse for idx in exps), default=1)
    if n is None:
        n = max_idx
    elif max_idx > n:
        raise ParseError(0, f"variable t{max_idx} exceeds n={n}")
    return _from_sparse(sparse, n)
