"""Laurent polynomials, the coefficient-extraction oracle, and the text grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.errors import DimensionMismatch, ParseError
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
