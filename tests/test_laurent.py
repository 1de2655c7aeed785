"""Laurent polynomials, the coefficient-extraction oracle, and the text grammar."""

import contextlib
import io
import json
import random
import re
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.cli import main, parse_form
from parshin.errors import ArityError, DimensionMismatch, ParseError
from parshin.laurent import (
    GLaurent,
    LaurentPoly,
    jacobian_det,
    parse_poly,
    parshin_oracle,
    partial,
)
from parshin.cocycle import phi, virasoro_phi
from parshin.liealg import sl2
from parshin.opalg import Box, mul_operator
from parshin.residue import raw_sum, residue
from parshin.sampling import random_lie_element


def mono(n, exp, c=1):
    return LaurentPoly.monomial(n, exp, c)


# -- arithmetic ---------------------------------------------------------------

def test_difference_of_squares():
    t = LaurentPoly.variable(1, 1)
    tinv = mono(1, (-1,))
    assert (t + tinv) * (t - tinv) == mono(1, (2,)) - mono(1, (-2,))


def test_mul_by_zero():
    p = parse_poly("3/2*t1^-2*t2 + t1")
    assert (p * LaurentPoly.zero(2)).terms == ()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mono(1, (1,)) + mono(2, (1, 0))


def test_glaurent_bracket():
    alg = sl2()
    e_t = GLaurent.monomial(1, alg.by_name("E"), (1,))
    f_tinv = GLaurent.monomial(1, alg.by_name("F"), (-1,))
    br = e_t.bracket(f_tinv)
    assert br.terms == (((0,), (Fraction(1), Fraction(0), Fraction(0))),)  # H t^0


def test_glaurent_negation_and_difference_laws():
    rng = random.Random(6)
    alg = sl2()
    zero = GLaurent.zero(2, alg)
    assert zero.is_zero() and zero.terms == ()
    for _ in range(10):
        x = GLaurent.make(2, alg, {tuple(rng.randint(-2, 2) for _ in range(2)):
                                   random_lie_element(rng, alg).scale(Fraction(rng.randint(1, 5), 3))
                                   for _ in range(3)})
        assert not x.is_zero()
        assert x - x == zero
        assert -(-x) == x
        assert x + (-x) == zero
        assert (-x).terms == tuple((e, tuple(-c for c in cs)) for e, cs in x.terms)


def polys_with_exponents_from(low):
    return st.builds(
        lambda terms: LaurentPoly.make(2, {tuple(e): c for e, c in terms}),
        st.lists(
            st.tuples(
                st.tuples(st.integers(low, 3), st.integers(low, 3)),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            max_size=4,
        ),
    )


small_polys = polys_with_exponents_from(-3)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


weight_polys = polys_with_exponents_from(0)
lattice_points = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(weight_polys, weight_polys, lattice_points, lattice_points)
@settings(max_examples=60, deadline=None)
def test_shift_argument_and_evaluate(p, q, s, x):
    moved = tuple(a + b for a, b in zip(x, s))
    assert p.shift_argument(s).evaluate(x) == p.evaluate(moved)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_shift_argument_refuses_negative_exponents():
    # 1/(x+1) is no polynomial; the term must not be dropped silently
    with pytest.raises(ValueError, match=r"\(-1,\)"):
        mono(1, (-1,)).shift_argument((1,))
    # an axis that is not shifted may carry any exponent
    assert mono(2, (1, -1)).shift_argument((1, 0)) == mono(2, (1, -1)) + mono(2, (0, -1))


def test_shift_argument_returns_a_constant_itself():
    for constant in (LaurentPoly.zero(2), LaurentPoly.one(2), mono(2, (0, 0), Fraction(-3, 2))):
        assert constant.is_constant()
        for s in ((0, 0), (1, 0), (-4, 7)):
            assert constant.shift_argument(s) is constant
    # a weight with a nonzero exponent still expands: 3/2 (x+2)^2 y + 1
    weight = mono(2, (2, 1), Fraction(3, 2)) + LaurentPoly.one(2)
    assert not weight.is_constant()
    assert weight.shift_argument((2, 0)) == (mono(2, (2, 1), Fraction(3, 2)) + mono(2, (1, 1), 6)
                                             + mono(2, (0, 1), 6) + LaurentPoly.one(2))


# -- derivatives --------------------------------------------------------------

def _random_poly(rng, n, low=-2):
    """Integral Fractions, ints and proper fractions mixed, so sums can cancel to integers."""
    coeffs = (1, -2, Fraction(4, 2), Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), Fraction(-1, 3))
    return LaurentPoly.make(n, {tuple(rng.randint(low, 2) for _ in range(n)): rng.choice(coeffs)
                                for _ in range(rng.randint(1, 4))})


def _assert_canonical(p):
    for _, c in p.terms:
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction), p.terms
    as_fractions = LaurentPoly(p.n, tuple((e, Fraction(c)) for e, c in p.terms))
    assert p == as_fractions and hash(p) == hash(as_fractions)


def test_integral_coefficients_are_ints():
    kinds = {"int": 0, "Fraction": 0}
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        a, b = _random_poly(rng, n), _random_poly(rng, n)
        pa, pb = _random_poly(rng, n, low=0), _random_poly(rng, n, low=0)
        results = [a, a + b, a - b, a - a, -a, a * b, pa * pb,
                   pa.shift_argument(tuple(rng.randint(-2, 2) for _ in range(n))),
                   partial(a, rng.randint(1, n))]
        results += [a.scale(c) for c in (2, -1, Fraction(1, 2), Fraction(3, 2), Fraction(6, 3), "2/3")]
        for p in results:
            _assert_canonical(p)
            for _, c in p.terms:
                kinds[type(c).__name__] += 1
            exp = p.terms[0][0] if p.terms else (0,) * n
            assert type(p.coefficient(exp)) is Fraction
            assert type(p.coefficient((9,) * n)) is Fraction
    assert min(kinds.values()) >= 500, kinds


def test_public_values_stay_fractions():
    t1 = LaurentPoly.variable(1, 1)
    rep = residue(mono(1, (-1,)), [t1])
    for value in (rep.raw, rep.residue, rep.oracle, rep.paper_res_star):
        assert type(value) is Fraction and value in (1, -1)
    f0, f1 = mono(2, (-2, -3), 3), mono(2, (1, 1), 2)
    f2 = mono(2, (1, 2))
    assert type(parshin_oracle(f0, [f1, f2])) is Fraction
    ops = [mul_operator(p) for p in (f0, f1, f2)]
    assert type(raw_sum(ops)) is Fraction and raw_sum(ops) != 0
    op = mul_operator(mono(1, (0,), 2)).restrict(Box.of([(0, 5)]), Box.full(1))
    assert type(op.trace()) is Fraction and op.trace() == 10
    alg = sl2()
    e, f = alg.by_name("E"), alg.by_name("F")
    value = phi([GLaurent.monomial(1, e, (2,)), GLaurent.monomial(1, f, (-2,))])
    assert type(value) is Fraction and value == 8
    assert type(virasoro_phi(2)) is Fraction and virasoro_phi(2) == -1


def test_partial_basic():
    assert partial(mono(1, (3,)), 1) == mono(1, (2,), 3)
    assert partial(mono(2, (-1, 1)), 1) == mono(2, (-2, 1), -1)
    assert partial(mono(2, (5, 0)), 2).is_zero()


@given(small_polys)
@settings(max_examples=40, deadline=None)
def test_partials_commute(f):
    assert partial(partial(f, 1), 2) == partial(partial(f, 2), 1)


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_leibniz(f, g):
    assert partial(f * g, 1) == partial(f, 1) * g + f * partial(g, 1)


# -- the residue oracle -------------------------------------------------------

def test_oracle_classical_n1():
    t = LaurentPoly.variable(1, 1)
    assert parshin_oracle(mono(1, (-1,), Fraction(3, 7)), [t]) == Fraction(3, 7)
    assert parshin_oracle(mono(1, (4,), 5), [t]) == 0
    assert parshin_oracle(LaurentPoly.one(1), [t]) == 0


def test_oracle_n2_identity_exponents():
    f0 = mono(2, (-1, -1))
    assert parshin_oracle(f0, [LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)]) == 1


def test_oracle_n2_derived_example():
    # Jacobian of (t1 t2, t1 t2^2) is t1 t2^2; product with f0 lands on t^(-1,-1)
    f0 = mono(2, (-2, -3))
    fs = [mono(2, (1, 1)), mono(2, (1, 2))]
    assert jacobian_det(fs) == mono(2, (1, 2))
    assert parshin_oracle(f0, fs) == 1


def test_oracle_multilinear_and_alternating():
    import random

    rng = random.Random(4)

    def rnd():
        return LaurentPoly.make(2, {
            (rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(rng.randint(1, 3))
            for _ in range(2)
        })

    for _ in range(20):
        f0, f1, f2, g = rnd(), rnd(), rnd(), rnd()
        c = Fraction(rng.randint(1, 5), 2)
        assert parshin_oracle(f0, [f1 + g.scale(c), f2]) == \
            parshin_oracle(f0, [f1, f2]) + c * parshin_oracle(f0, [g, f2])
        assert parshin_oracle(f0 + g.scale(c), [f1, f2]) == \
            parshin_oracle(f0, [f1, f2]) + c * parshin_oracle(g, [f1, f2])
        assert parshin_oracle(f0, [f1, f2]) == -parshin_oracle(f0, [f2, f1])
        assert parshin_oracle(f0, [f1, f1]) == 0


def test_oracle_no_residue_coefficient():
    # constant f0 with monomial f's whose Jacobian misses t^(-1,...,-1)
    assert parshin_oracle(LaurentPoly.one(2), [mono(2, (1, 0)), mono(2, (0, 2))]) == 0


def jacobian_reference(f0, fs):
    """The t^(-1,...,-1) coefficient of f0 times the fully expanded Jacobian."""
    return (f0 * jacobian_det(fs)).coefficient((-1,) * f0.n)


def random_form(rng, n, terms=3, low=-2, high=2):
    """Random f1..fn and an f0 that balances some of their term tuples, plus noise."""
    def poly():
        return LaurentPoly.make(n, {
            tuple(rng.randint(low, high) for _ in range(n)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for _ in range(rng.randint(1, terms))
        })

    fs = [poly() for _ in range(n)]
    f0 = poly()
    for _ in range(terms):
        exps = [rng.choice(f.terms)[0] for f in fs if f.terms]
        if len(exps) == n:
            f0 = f0 + mono(n, tuple(-sum(col) for col in zip(*exps)), rng.randint(-2, 2))
    return f0, fs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_oracle_matches_the_expanded_jacobian(n):
    import random

    rng = random.Random(f"oracle:{n}")
    for _ in range(25):
        f0, fs = random_form(rng, n)
        assert parshin_oracle(f0, fs) == jacobian_reference(f0, fs)

        # an exponent column that is zero in every f_j: det 0 on every tuple
        axis = rng.randrange(n)
        flat = [LaurentPoly.make(n, {exp[:axis] + (0,) + exp[axis + 1:]: c for exp, c in f.terms})
                for f in fs]
        assert parshin_oracle(f0, flat) == jacobian_reference(f0, flat) == 0

        # f0 with no balancing term: f_j exponents >= 0 and f0 exponents > 0
        g0, gs = random_form(rng, n, low=0)
        positive = LaurentPoly.make(n, {tuple(abs(e) + 1 for e in exp): c for exp, c in g0.terms})
        assert parshin_oracle(positive, gs) == jacobian_reference(positive, gs) == 0

        if n >= 2:
            # f2 a multiple of f1: tuple contributions cancel pairwise
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            twin = [fs[0], fs[0].scale(c)] + fs[2:]
            assert parshin_oracle(f0, twin) == jacobian_reference(f0, twin) == 0


def test_oracle_cancelling_tuples():
    # (t1 + t2, t1 - t2): the (t1, t2) and (t2, t1) tuples give det 1 and
    # det -1 with coefficients 1 and -1, so they add to -2, while the
    # (t1, t1) and (t2, t2) tuples give det 0
    f1 = parse_poly("t1 + t2")
    f2 = parse_poly("t1 - t2")
    f0 = parse_poly("t1^-1*t2^-1 + 5*t1^-2")
    assert parshin_oracle(f0, [f1, f2]) == jacobian_reference(f0, [f1, f2]) == -2
    # (t1 + t2, t1 + t2): every contribution cancels
    assert parshin_oracle(f0, [f1, f1]) == jacobian_reference(f0, [f1, f1]) == 0


# -- grammar ------------------------------------------------------------------

def test_parse_examples():
    p = parse_poly("3/2*t1^-2*t2 + t1")
    assert p.n == 2
    assert p.coefficient((-2, 1)) == Fraction(3, 2)
    assert p.coefficient((1, 0)) == 1


def test_parse_whitespace_and_signs():
    assert parse_poly(" - t1 + 2 * t1 ") == mono(1, (1,))
    assert parse_poly("-3/4") == mono(1, (0,), Fraction(-3, 4))
    assert parse_poly("t2^0", n=2) == LaurentPoly.one(2)


def test_parse_adjacent_factors():
    assert parse_poly("2t1^2t2") == mono(2, (2, 1), 2)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_poly("t1^^2")
    assert err.value.offset == 3


def test_parse_error_bad_char():
    with pytest.raises(ParseError) as err:
        parse_poly("t1 @ t2")
    assert err.value.offset == 3


def test_parse_roundtrip_str():
    p = parse_poly("3/2*t1^-2*t2 + t1")
    assert parse_poly(str(p)) == p


# -- grammar fuzzing against the reference parser -------------------------------
#
# The reference is the parser the scanner replaced, kept here verbatim: a regex
# tokenizer into (kind, value, offset) tuples, a recursive-descent parser with
# one method call per token, and LaurentPoly.make over the dense terms.  It
# differs from parse_poly / parse_form in one documented case only: a digit
# run over Python's integer-string limit, where it lets int()'s ValueError
# through and the scanner raises a ParseError at the run's offset.

_REF_TOKEN = re.compile(r"\s*(?:(?P<var>t(?P<idx>\d+))|(?P<int>\d+)|(?P<op>[+\-*/^]))")


def _ref_tokenize(text, base=0):
    pos = 0
    tokens = []
    while pos < len(text):
        match = _REF_TOKEN.match(text, pos)
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


class _RefPolyParser:
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


def _ref_parse_sparse(text, base=0):
    return _RefPolyParser(_ref_tokenize(text, base)).parse_poly()


def _ref_from_sparse(sparse, n):
    out = {}
    for coeff, exps in sparse:
        exp = tuple(exps.get(i + 1, 0) for i in range(n))
        out[exp] = out.get(exp, Fraction(0)) + coeff
    return LaurentPoly.make(n, out)


def _ref_parse_poly(text, n=None):
    sparse = _ref_parse_sparse(text)
    max_idx = max((idx for _, exps in sparse for idx in exps), default=1)
    if n is None:
        n = max_idx
    elif max_idx > n:
        raise ParseError(0, f"variable t{max_idx} exceeds n={n}")
    return _ref_from_sparse(sparse, n)


def _ref_parse_form(text):
    segments = text.split(";")
    parsed = []
    offset = 0
    for segment in segments:
        if not segment.strip():
            raise ParseError(offset, "empty polynomial in form")
        parsed.append(_ref_parse_sparse(segment, base=offset))
        offset += len(segment) + 1
    if len(parsed) < 2:
        raise ArityError("a residue form needs at least two ';'-separated polynomials")
    n = max((idx for sparse in parsed for _, exps in sparse for idx in exps), default=1)
    if len(parsed) != n + 1:
        raise ArityError(f"form mentions t{n} so it needs {n + 1} polynomials, got {len(parsed)}")
    polys = [_ref_from_sparse(sparse, n) for sparse in parsed]
    return polys[0], polys[1:]


def _outcome(parse, *args):
    """("ok", polys) or ("error", type, message, offset); ("limit",) for int()'s ValueError."""
    try:
        value = parse(*args)
    except (ParseError, ArityError) as exc:
        return ("error", type(exc).__name__, str(exc), getattr(exc, "offset", None))
    except ValueError as exc:
        assert "limit" in str(exc) and "integer string conversion" in str(exc), exc
        return ("limit",)
    return ("ok", value if isinstance(value, LaurentPoly) else [value[0], *value[1]])


def _stored(polys):
    """Terms with each coefficient's stored type, so int and Fraction storage differ."""
    if isinstance(polys, LaurentPoly):
        polys = [polys]
    return [(p.n, [(e, c, type(c)) for e, c in p.terms]) for p in polys]


_LONG_RUN = re.compile(r"t?(\d+)")


def _digit_limit_error(text):
    """The ParseError the scanner raises where the reference lets int()'s limit through."""
    limit = sys.get_int_max_str_digits()
    match = next(m for m in _LONG_RUN.finditer(text) if len(m.group(1)) > limit)
    digits = len(match.group(1))
    message = f"an integer of {digits} digits is over the {limit}-digit limit"
    return ("error", "ParseError", f"{message} (at offset {match.start()})", match.start())


def _assert_same_outcome(text, new, ref):
    if ref == ("limit",):
        assert new == _digit_limit_error(text), text
    elif ref[0] == "ok":
        assert new[0] == "ok" and _stored(new[1]) == _stored(ref[1]), text
    else:
        assert new == ref, text


_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_spaces = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "　"])


@st.composite
def _digits(draw, low=0, high=12):
    """A decimal digit run: sometimes with leading zeros, sometimes in Arabic-Indic digits."""
    text = "0" * draw(st.integers(0, 2)) + str(draw(st.integers(low, high)))
    return text.translate(_ARABIC) if draw(st.integers(0, 9)) == 0 else text


@st.composite
def _term_text(draw, n):
    pieces = []
    factors = draw(st.integers(0, 3))
    if factors == 0 or draw(st.booleans()):
        coeff = draw(_digits())
        if draw(st.booleans()):
            coeff += draw(_spaces) + "/" + draw(_spaces) + draw(_digits(1))
        pieces.append(coeff)
        if factors and draw(st.booleans()):
            pieces.append("*")
    for i in range(factors):
        factor = "t" + draw(_digits(1, n))  # repeats are common at small n
        if draw(st.booleans()):
            signs = draw(st.text(alphabet="+-", max_size=3))
            factor += draw(_spaces) + "^" + draw(_spaces) + signs + draw(_spaces) + draw(_digits())
        pieces.append(factor)
        if i < factors - 1 and draw(st.booleans()):
            pieces.append("*")
    if draw(st.integers(0, 5)) == 0:
        pieces.append("*")  # a trailing "*" ends a term
    return "".join(piece + draw(_spaces) for piece in pieces)


@st.composite
def _poly_text(draw, n=3):
    text = draw(_spaces) + draw(st.sampled_from(["", "", "-", "+"])) + draw(_spaces)
    text += draw(_term_text(n))
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from(["+", "-"])) + draw(_spaces) + draw(_term_text(n))
    return text


_STRAY = ["@", "x", "t", ".", "(", "é", "_", "T", "٫", "~", ";"]
_NEAR_MISSES = ["stray", "caret", "exponent", "zero", "t0", "trailing", "delete", "long"]
# the character an edit needs in the text; without it the edit falls through to "trailing"
_NEEDS = {"caret": "^", "exponent": "^", "zero": "/", "t0": "t"}


@st.composite
def _near_miss(draw, text, kind=None):
    """One edit of a valid text that the grammar (usually) rejects; a kind is drawn unless given."""
    if kind is None:
        kind = draw(st.sampled_from(_NEAR_MISSES))
    if kind == "stray":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(_STRAY)) + text[at:]
    if kind == "caret" and "^" in text:
        return text.replace("^", "^^", 1)
    if kind == "exponent" and "^" in text:
        return re.sub(r"\^(\s*[+-]*\s*)\d+", r"^\1", text, count=1)
    if kind == "zero" and "/" in text:
        return re.sub(r"/(\s*)\d+", r"/\g<1>0", text, count=1)
    if kind == "t0" and "t" in text:
        return re.sub(r"t\d+", draw(st.sampled_from(["t0", "t00", "t٠"])), text, count=1)
    if kind == "delete" and text:
        at = draw(st.integers(0, len(text) - 1))
        return text[:at] + text[at + 1:]
    if kind == "long":
        digits = "1" * (sys.get_int_max_str_digits() + draw(st.integers(1, 3)))
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(["", "t", "^", "/"])) + digits + text[at:]
    return text + draw(_spaces) + draw(st.sampled_from(["+", "-", "*", "/", "^", "t"]))


@st.composite
def _poly_case(draw):
    text = draw(_poly_text())
    if draw(st.booleans()):
        text = draw(_near_miss(text))
    return text


@st.composite
def _form_case(draw):
    n = draw(st.integers(1, 3))
    segments = [draw(_poly_text(n)) for _ in range(n + 1)]
    form = " ; ".join(segments) if draw(st.booleans()) else ";".join(segments)
    edit = draw(st.sampled_from(["none", "none", "miss", "empty", "segments"]))
    if edit == "miss":
        form = draw(_near_miss(form))
    elif edit == "empty":
        at = draw(st.sampled_from([i for i, ch in enumerate(form) if ch == ";"] + [len(form)]))
        form = form[:at] + draw(st.sampled_from([";", "; ;", " ;"])) + form[at:]
    elif edit == "segments":
        form = ";".join(form.split(";")[:draw(st.integers(1, n))])
    return form


_random_text = st.text(alphabet="t0123456789+-*/^ ;@", max_size=24)


@given(st.one_of(_poly_case(), _random_text), st.sampled_from([None, None, 1, 2, 4]))
@settings(max_examples=250, deadline=None)
def test_scanner_matches_the_reference_parser(text, n):
    _assert_same_outcome(text, _outcome(parse_poly, text, n), _outcome(_ref_parse_poly, text, n))


@given(st.one_of(_form_case(), _random_text))
@settings(max_examples=150, deadline=None)
def test_form_scanner_matches_the_reference_parser(form):
    _assert_same_outcome(form, _outcome(parse_form, form), _outcome(_ref_parse_form, form))


def _assert_cli_matches_the_reference(form):
    """The form ends in an oracle-agreeing report or the reference's error payload."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["residue", "--form=" + form, "--json"])
    doc = json.loads(out.getvalue())
    ref = _outcome(_ref_parse_form, form)
    if ref[0] == "ok":
        f0, *fs = ref[1]
        assert code == 0 and doc["agrees"] is True, form
        assert doc["oracle"] == str(parshin_oracle(f0, fs)), form
    else:
        _, kind, message, _ = _digit_limit_error(form) if ref == ("limit",) else ref
        assert code == 1 and doc == {"error": {"type": kind, "message": message}}, form


@given(_form_case())
@settings(max_examples=80, deadline=timedelta(seconds=5))
def test_form_cases_through_the_cli(form):
    _assert_cli_matches_the_reference(form)


@pytest.mark.parametrize("kind", _NEAR_MISSES)
@given(data=st.data())
@settings(max_examples=15, deadline=timedelta(seconds=5))
def test_each_near_miss_kind_through_the_cli(kind, data):
    # a drawn kind is uneven under the derandomized profile, so each kind is applied here
    n = data.draw(st.integers(1, 3))
    form = " ; ".join(data.draw(_poly_text(n)) for _ in range(n + 1))
    if _NEEDS.get(kind, "") not in form:
        form += " + 1/2*t1^2"  # gives the edit its character, keeping the form valid
    edited = data.draw(_near_miss(form, kind))
    assert edited != form
    _assert_cli_matches_the_reference(edited)


def test_scanner_keeps_the_grammar_corners():
    # a term may end in "*", and "t1*+t2" is t1 + t2
    assert parse_poly("3*") == mono(1, (0,), 3)
    assert parse_poly("t1*+t2") == mono(2, (1, 0)) + mono(2, (0, 1))
    # repeated variables add their powers; signs repeat only in exponents
    assert parse_poly("t1*t1^2 t1^--1") == mono(1, (4,))
    assert parse_poly("t2^0") == LaurentPoly.one(2)
    # a zero denominator is reported at the lexeme after it
    with pytest.raises(ParseError, match=r"zero denominator \(at offset 6\)"):
        parse_poly("3 / 0 t1")
    # a stray character anywhere wins over an earlier grammar error
    with pytest.raises(ParseError, match=r"unexpected character '@' \(at offset 6\)"):
        parse_poly("t1^^2 @")
    with pytest.raises(ParseError, match=r"expected '\+' or '-', got 7 \(at offset 3\)"):
        parse_poly("t1 007")


def test_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text, offset in ((f"t1^{long}", 3), (f"{long}*t1", 0), (f"t1 + t{long}", 5),
                         (f"{long} @", 0), (f"@ {long}", 0)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.offset == offset, text
    assert str(err.value) == "unexpected character '@' (at offset 0)"
    with pytest.raises(ParseError, match=f"an integer of {limit + 1} digits is over the {limit}-digit limit"):
        parse_poly(f"t1^{long}")
    assert parse_poly("t1^" + "1" * limit).terms[0][0] == (int("1" * limit),)
