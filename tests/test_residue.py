"""Operator-trace residues against the coefficient-extraction oracle."""

import importlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.cocycle import phi, virasoro_generator
from parshin.cube import lift_iterative
from parshin.errors import ArityError, NotTraceClass, ShapeMismatch
from parshin.laurent import GLaurent, LaurentPoly, _perm_sign, parse_poly
from parshin.liealg import sl2
from parshin.matrices import det, mat_mul
from parshin.opalg import (
    MAX_SLAB_WIDTH,
    Box,
    KernelAtom,
    LatticeOperator,
    derivation_operator,
    mul_operator,
    projector,
)
from parshin.residue import (
    MAX_WORK,
    ResidueReport,
    ack_residue_n1,
    raw_sum,
    raw_sum_polys,
    residue,
    residue_det_monomial,
    word_sum,
)
from parshin.sampling import (
    random_cube_element,
    random_laurent,
    random_lie_element,
    random_matrix,
    random_operator,
)


def mono(n, exp, c=1):
    return LaurentPoly.monomial(n, exp, c)


# -- raw sums -----------------------------------------------------------------

def test_raw_sum_n1_shift_pair():
    # trace of P^- t^-3 P^+ t^3 counts {-3 <= lam < 0}
    ops = [mul_operator(parse_poly("t1^3")), mul_operator(parse_poly("t1^-3"))]
    assert raw_sum(ops) == 3


def test_raw_sum_unbalanced_is_zero():
    ops = [mul_operator(parse_poly("t1^3")), mul_operator(parse_poly("t1^2"))]
    assert raw_sum(ops) == 0


def test_raw_sum_n2_identity_exponents():
    ops = [mul_operator(parse_poly("t1^-1*t2^-1")),
           mul_operator(parse_poly("t1", 2)),
           mul_operator(parse_poly("t2", 2))]
    assert raw_sum(ops) == 1


def test_raw_sum_shape_checks():
    from parshin.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        raw_sum([mul_operator(parse_poly("t1")), mul_operator(parse_poly("t1*t2"))])
    with pytest.raises(DimensionMismatch):
        raw_sum([mul_operator(parse_poly("t1"))] * 3)


def test_raw_sum_polys_matches_operator_route():
    rng = random.Random(0)
    for n in (1, 2):
        for _ in range(8):
            f0 = random_laurent(rng, n)
            fs = [random_laurent(rng, n) for _ in range(n)]
            direct = raw_sum([mul_operator(f0)] + [mul_operator(f) for f in fs])
            assert raw_sum_polys(f0, fs) == direct


# -- the word walk against word-by-word enumeration ------------------------------

def brute_raw_sum(operators, cuts=None):
    """Reference: every word built from scratch, 3n composes each, all traced."""
    n, d = operators[0].n, operators[0].d
    cuts = cuts or (0,) * n
    proj = {(axis, g): projector(n, axis, g, d=d, cut=cuts[axis - 1])
            for axis in range(1, n + 1) for g in "+-"}
    total = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        for gammas in itertools.product("+-", repeat=n):
            sign = _perm_sign(perm) * (-1) ** gammas.count("-")
            comp = operators[0]
            for axis in range(n, 0, -1):
                g = gammas[axis - 1]
                comp = proj[(axis, g)].compose(comp)
                comp = operators[perm[axis - 1]].compose(comp)
                comp = proj[(axis, "-" if g == "+" else "+")].compose(comp)
            total += sign * comp.trace()
    return total


def random_rows(rng, n, balanced, bound=3):
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n + 1)]
    if balanced:
        rows[0] = [-sum(rows[i][j] for i in range(1, n + 1)) for j in range(n)]
    return rows


def random_cuts(rng, n):
    return None if rng.random() < 0.3 else tuple(rng.randint(-3, 3) for _ in range(n))


def random_nonzero(rng):
    return rng.choice((1, 2, -1, Fraction(3, 2), Fraction(-5, 3)))


def test_walk_matches_enumeration_monomials():
    rng = random.Random(11)
    for n, trials in ((1, 12), (2, 12), (3, 6)):
        for trial in range(trials):
            rows = random_rows(rng, n, balanced=trial % 2 == 0)
            ops = [mul_operator(mono(n, tuple(row), random_nonzero(rng))) for row in rows]
            cuts = random_cuts(rng, n)
            assert raw_sum(ops, cuts) == brute_raw_sum(ops, cuts), (rows, cuts)


def test_walk_matches_enumeration_sl2_multiloop():
    rng = random.Random(12)
    alg = sl2()
    for trial in range(6):
        rows = random_rows(rng, 2, balanced=trial % 2 == 0, bound=2)
        ops = [mul_operator(GLaurent.monomial(2, random_lie_element(rng, alg), tuple(row)))
               for row in rows]
        cuts = random_cuts(rng, 2)
        assert raw_sum(ops, cuts) == brute_raw_sum(ops, cuts), (rows, cuts)


def test_walk_matches_enumeration_derivations():
    rng = random.Random(13)
    for m in range(-4, 5):
        for cut in (0, rng.randint(-3, 3)):
            ops = [derivation_operator(1, (m + 1,), 1), derivation_operator(1, (1 - m,), 1)]
            assert raw_sum(ops, (cut,)) == brute_raw_sum(ops, (cut,)), (m, cut)


def test_walk_matches_enumeration_polynomials():
    rng = random.Random(17)  # three terms per slot and a nonzero value
    polys = [random_laurent(rng, 2, max_terms=3, exp_bound=2) for _ in range(3)]
    ops = [mul_operator(f) for f in polys]
    assert all(len(op.atoms) == 3 for op in ops)
    for cuts in (None, (-1, 2)):
        value = raw_sum(ops, cuts)
        assert value != 0 and value == brute_raw_sum(ops, cuts)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotTraceClass:
        return NotTraceClass


def random_multi_atom_operator(rng, n, d):
    """Bounded boxes, multi-term multiplications or half-space cube components."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_operator(rng, n, d, atoms=rng.randint(2, 3), shift_bound=1)
    if kind == 1:
        if d == 1:
            return mul_operator(random_laurent(rng, n, max_terms=3, exp_bound=1))
        return mul_operator(GLaurent.make(n, sl2(), {
            tuple(rng.randint(-1, 1) for _ in range(n)): random_lie_element(rng, sl2())
            for _ in range(rng.randint(1, 3))}))
    element = random_cube_element(rng, n, rng.randint(1, n), d, shift_bound=1)
    return rng.choice(list(element.components.values()))


def balancing_operator(rng, ops):
    """Atoms on full boxes, most of them cancelling the shifts of one atom of each op."""
    n, d = ops[0].n, ops[0].d
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7 and all(op.atoms for op in ops):
            shift = tuple(-sum(col) for col in zip(*(rng.choice(op.atoms).shift for op in ops)))
        else:
            shift = tuple(rng.randint(-1, 1) for _ in range(n))
        atoms.append(KernelAtom(shift, random_matrix(rng, d),
                                LaurentPoly.one(n).scale(random_nonzero(rng)), Box.full(n)))
    return LatticeOperator.make(n, d, atoms)


def test_pruned_walk_matches_enumeration_multi_atom():
    rng = random.Random(19)
    nonzero = 0
    for n, d, trials in ((1, 1, 30), (2, 1, 30), (2, 3, 10), (3, 1, 10)):
        for _ in range(trials):
            fs = [random_multi_atom_operator(rng, n, d) for _ in range(n)]
            ops = [balancing_operator(rng, fs)] + fs
            cuts = random_cuts(rng, n)
            expected = outcome(brute_raw_sum, ops, cuts)
            assert outcome(raw_sum, ops, cuts) == expected, (ops, cuts)
            nonzero += expected != 0 and any(len({a.shift for a in f.atoms}) > 1 for f in fs)
    assert nonzero >= 10  # multi-shift f_j whose words reach the trace


# -- the word kernel against the walk -------------------------------------------

def random_word_operator(rng, n, exp, kind):
    """One atom on the whole lattice shifting by exp: a scalar monomial with a
    Fraction coefficient, an sl2 monomial with a Fraction scalar or with
    rational coefficients (so ad holds Fraction entries), or a scaled
    derivation t^s d/dt_axis (weight lam_axis)."""
    if kind == "sl2":
        element = random_lie_element(rng, sl2()).scale(random_nonzero(rng))
        return mul_operator(GLaurent.monomial(n, element, exp))
    if kind == "sl2 rational":
        while True:
            element = sl2().element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
            if not element.is_zero():
                return mul_operator(GLaurent.monomial(n, element, exp))
    if kind == "derivation":
        axis = rng.randint(1, n)
        s = tuple(x + (i == axis - 1) for i, x in enumerate(exp))
        return derivation_operator(n, s, axis).scale(random_nonzero(rng))
    return mul_operator(mono(n, exp, random_nonzero(rng)))


def test_word_sum_matches_the_walk_on_single_atom_tuples():
    rng = random.Random(23)
    nonzero = rational = unbalanced = zero_exponents = 0
    for n, trials in ((1, 40), (2, 40), (3, 24), (4, 8)):
        for trial in range(trials):
            balanced = trial % 4 != 3
            rows = random_rows(rng, n, balanced, bound=3)
            if trial % 5 == 0:
                # one f_j without a step on some axis: its commutator there is 0
                rows[rng.randint(1, n)][rng.randrange(n)] = 0
                if balanced:
                    rows[0] = [-sum(rows[i][j] for i in range(1, n + 1)) for j in range(n)]
            kinds = [tuple(rng.choice(("sl2", "sl2 rational")) for _ in range(n + 1)), ("scalar",) * (n + 1),
                     tuple(rng.choice(("scalar", "derivation")) for _ in range(n + 1))][trial % 3]
            ops = [random_word_operator(rng, n, tuple(row), kind) for row, kind in zip(rows, kinds)]
            cuts = tuple(rng.randint(-4, 4) for _ in range(n)) if trial % 4 else None
            expected = raw_sum(ops, cuts)
            if "derivation" in kinds:
                # a derivation weight is not constant: phi takes the walk
                with pytest.raises(ValueError, match="of constant weight"):
                    word_sum(ops, cuts)
                if n == 1:
                    assert phi(ops, cuts) == expected, (rows, kinds, cuts)
            else:
                assert word_sum(ops, cuts) == expected, (rows, kinds, cuts)
            nonzero += expected != 0
            rational += expected != 0 and "sl2 rational" in kinds
            unbalanced += any(sum(a.shift[i] for op in ops for a in op.atoms) for i in range(n))
            zero_exponents += any(0 in a.shift for op in ops[1:] for a in op.atoms)
    assert nonzero >= 40 and rational >= 10 and unbalanced >= 20 and zero_exponents >= 20

    # Fraction scalar weights, 3/2 t1^a, and n = 1 wedges of every mix of
    # derivation and monomial entries, through phi
    for a in range(-3, 4):
        for kinds in itertools.product(("scalar", "derivation"), repeat=2):
            for cut in (0, 2, -3):
                ops = [random_word_operator(rng, 1, (-a,), kinds[0]),
                       random_word_operator(rng, 1, (a,), kinds[1])]
                assert phi(ops, (cut,)) == raw_sum(ops, (cut,)), (a, kinds, cut)
        ops = [mul_operator(mono(1, (-a,), Fraction(-5, 7))), mul_operator(mono(1, (a,), Fraction(3, 2)))]
        assert word_sum(ops) == raw_sum(ops) == Fraction(15, 14) * a

    # constant weights on slabs at and just under MAX_SLAB_WIDTH, where the
    # word's box sum is its width; phi sums a derivation weight point by
    # point in the walk (a tenth of the cap keeps the reference value quick)
    w, v = MAX_SLAB_WIDTH, MAX_SLAB_WIDTH - 1
    for ops, cuts in (([mul_operator(mono(1, (w,), Fraction(3, 2))), mul_operator(mono(1, (-w,)))], (5,)),
                      ([mul_operator(mono(2, (-v, -1))), mul_operator(mono(2, (v, 0))),
                        mul_operator(mono(2, (0, 1), -2))], (-1, 3))):
        assert word_sum(ops, cuts) == raw_sum(ops, cuts), cuts
    vector_fields = [derivation_operator(1, (1 - w // 10,), 1), derivation_operator(1, (w // 10 + 1,), 1)]
    assert phi(vector_fields) == raw_sum(vector_fields) != 0


def test_word_sum_sums_constant_weights_without_a_power_sum(monkeypatch):
    import parshin.opalg

    alg = sl2()
    constant = [mul_operator(GLaurent.monomial(2, alg.element(c), e))
                for c, e in (((1, 0, 0), (-1, -2)), ((0, Fraction(1, 3), 0), (1, 0)), ((0, 0, 2), (0, 2)))]
    scalar = [mul_operator(mono(2, (-2, 1), Fraction(3, 2))), mul_operator(mono(2, (1, 0))),
              mul_operator(mono(2, (1, -1), -1))]
    derivation = [derivation_operator(1, (4,), 1), derivation_operator(1, (-2,), 1)]
    expected = [raw_sum(ops) for ops in (constant, scalar, derivation)]
    assert expected[0] != 0 and expected[1] != 0

    def refuse(*args):
        raise AssertionError("_power_sum was called")

    monkeypatch.setattr(parshin.opalg, "_power_sum", refuse)
    assert [word_sum(constant), word_sum(scalar)] == expected[:2]
    # a derivation weight is not constant: the kernel refuses it, and phi
    # sums it in the walk
    with pytest.raises(ValueError, match="of constant weight"):
        word_sum(derivation)
    with pytest.raises(AssertionError, match="_power_sum was called"):
        phi(derivation)


def int_matrices_only(monkeypatch):
    """Make ``word_sum``'s matrix products refuse any entry that is not an
    int; returns the list of products taken."""
    products = []

    def int_mat_mul(a, b):
        assert all(type(x) is int for m in (a, b) for row in m for x in row), (a, b)
        products.append((a, b))
        return mat_mul(a, b)

    monkeypatch.setattr(importlib.import_module("parshin.residue"), "mat_mul", int_mat_mul)
    return products


def rational_sl2():
    """sl2 in the basis (H/2, E, F/3): [h, e] = e, [h, f] = -f, [e, f] = 2/3 h,
    read from "p/q" structure constants, so ad holds Fraction entries even
    before any Fraction coefficient."""
    from parshin.liealg import from_json_dict

    return from_json_dict({"dim": 3, "basis": ["h", "e", "f"], "brackets": [
        {"i": 0, "j": 1, "coeffs": {"1": "1"}},
        {"i": 0, "j": 2, "coeffs": {"2": "-1"}},
        {"i": 1, "j": 2, "coeffs": {"0": "2/3"}}]})


def test_word_sum_multiplies_int_matrices_on_a_rational_algebra(monkeypatch):
    alg = rational_sl2()
    rng = random.Random(25)
    cases = []
    for n, trials in ((1, 30), (2, 30), (3, 16), (4, 6)):
        for trial in range(trials):
            ops = []
            for row in random_rows(rng, n, balanced=trial % 4 != 3):
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                coeffs[rng.randrange(3)] = Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 4))
                element = alg.element(coeffs)
                ops.append(mul_operator(GLaurent.monomial(n, element, tuple(row))))
            cuts = random_cuts(rng, n)
            cases.append((ops, cuts, raw_sum(ops, cuts)))
    assert sum(expected != 0 for *_, expected in cases) >= 30
    assert sum(isinstance(expected, Fraction) and expected.denominator > 1 for *_, expected in cases) >= 10
    products = int_matrices_only(monkeypatch)
    for ops, cuts, expected in cases:
        assert word_sum(ops, cuts) == expected, (ops, cuts)
    assert products


def test_word_sum_hoists_fraction_coefficients_out_of_the_words(monkeypatch):
    alg = sl2()
    h, e, f = (alg.element(c) for c in ((Fraction(3, 2), 0, 0), (0, Fraction(-5, 3), 0), (0, 0, 1)))
    cases = []
    for n, elements in ((1, (e, f)), (2, (h, e, f)), (3, (e, h, f, h))):
        rows = random_rows(random.Random(n), n, balanced=True)
        ops = [mul_operator(GLaurent.monomial(n, el, tuple(row))) for el, row in zip(elements, rows)]
        cases.append((ops, raw_sum(ops)))
    assert all(expected != 0 for _, expected in cases)
    products = int_matrices_only(monkeypatch)
    assert [word_sum(ops) for ops, _ in cases] == [expected for _, expected in cases]
    assert products


def test_word_sum_takes_only_whole_lattice_atoms():
    t = mul_operator(mono(1, (1,)))
    for bad in (mul_operator(parse_poly("t1 + t1^2")), LatticeOperator.zero(1),
                projector(1, 1, "+").compose(mul_operator(mono(1, (-1,))))):
        with pytest.raises(ValueError, match="one atom on the whole lattice"):
            word_sum([bad, t])
    assert word_sum([mul_operator(mono(1, (-1,))), t]) == raw_sum([mul_operator(mono(1, (-1,))), t])


def test_word_sum_shares_the_walks_refusals():
    from parshin.errors import DimensionMismatch

    t1, t12 = mul_operator(mono(1, (1,))), mul_operator(mono(2, (1, 1)))
    # a balanced pair of vector fields whose derivation weights are summed
    # point by point over a slab one point wider than the cap; their weights
    # are not constant, so phi traces them in the walk
    w = MAX_SLAB_WIDTH + 1
    wide = [derivation_operator(1, (1 - w,), 1), derivation_operator(1, (w + 1,), 1)]
    for ops, cuts, error in (([], None, DimensionMismatch),
                             ([t1, t12], None, DimensionMismatch), ([t1] * 3, None, DimensionMismatch),
                             ([t1, t1], (0, 0), DimensionMismatch), ([t1, t1], (Fraction(1, 2),), TypeError),
                             (wide, None, ArityError)):
        messages = []
        for trace_sum in (raw_sum, phi if ops is wide else word_sum):
            with pytest.raises(error) as info:
                trace_sum(ops, cuts)
            messages.append(str(info.value))
        assert messages[0] == messages[1], messages


COEFFICIENTS = (1, -2, Fraction(3, 2), Fraction(-5, 3))


@st.composite
def constant_weight_wedges(draw):
    """(operators, cuts): n = 1..4 monomials with Fraction coefficients, on
    d = 1 or on sl2 (integer or "p/q" structure constants); exponents in
    -3..3 with zeros, balanced three times in four."""
    n = draw(st.integers(1, 4))
    algebra = draw(st.sampled_from((None, sl2(), rational_sl2())))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n + 1)]
    if draw(st.integers(0, 3)):
        rows[0] = [-sum(row[i] for row in rows[1:]) for i in range(n)]
    ops = []
    for row in rows:
        coefficient = draw(st.sampled_from(COEFFICIENTS))
        if algebra is None:
            ops.append(mul_operator(mono(n, tuple(row), coefficient)))
            continue
        coeffs = [draw(st.sampled_from((0,) + COEFFICIENTS)) for _ in range(3)]
        coeffs[draw(st.integers(0, 2))] = coefficient
        ops.append(mul_operator(GLaurent.monomial(n, algebra.element(coeffs), tuple(row))))
    cuts = draw(st.none() | st.tuples(*[st.integers(-4, 4)] * n))
    return ops, cuts


@given(constant_weight_wedges())
@settings(max_examples=200, deadline=None)
def test_the_set_sum_matches_the_walk(case):
    ops, cuts = case
    assert word_sum(ops, cuts) == raw_sum(ops, cuts)


def test_the_set_sum_takes_at_most_n_2_to_the_n_minus_1_products(monkeypatch):
    # every exponent nonzero, so no word of f_1..f_n is cut short: one per
    # permutation would take n n! products
    alg = sl2()
    cases = []
    for n, names in ((3, "EFHH"), (4, "EFHHH")):
        rows = [[(-1) ** (i + j) * (1 + (i * j) % 3) for j in range(n)] for i in range(1, n + 1)]
        rows.insert(0, [-sum(row[j] for row in rows) for j in range(n)])
        ops = [mul_operator(GLaurent.monomial(n, alg.by_name(name), tuple(row))) for name, row in zip(names, rows)]
        cases.append((n, ops, raw_sum(ops)))
    assert all(expected != 0 for *_, expected in cases)
    products = int_matrices_only(monkeypatch)
    for n, ops, expected in cases:
        products.clear()
        assert word_sum(ops) == expected
        assert len(products) <= n * 2 ** (n - 1), (n, len(products))


def test_phi_sums_a_virasoro_wedge_in_the_walk(monkeypatch):
    cocycle = importlib.import_module("parshin.cocycle")
    walks = []

    def refuse(*args):
        raise AssertionError("word_sum was called")

    def counted_raw_sum(*args):
        walks.append(args)
        return raw_sum(*args)

    monkeypatch.setattr(cocycle, "word_sum", refuse)
    monkeypatch.setattr(cocycle, "raw_sum", counted_raw_sum)
    for m in (1, 2, 3, 7, -4):
        assert phi([virasoro_generator(m), virasoro_generator(-m)]) == Fraction(-(m**3 - m), 6)
    assert len(walks) == 5


# -- monomial tuples: only balanced ones are traced -----------------------------

def product_raw_sum_polys(f0, fs, cuts=None):
    """Reference: raw_sum on every monomial tuple of f_0..f_n, balanced or not."""
    n = f0.n
    total = Fraction(0)
    for combo in itertools.product(*(f.terms for f in [f0] + fs)):
        coeff = math.prod(c for _, c in combo)
        total += coeff * raw_sum([mul_operator(mono(n, exp)) for exp, _ in combo], cuts)
    return total


def random_poly_with_balancing_terms(rng, fs, terms):
    """Up to ``terms`` terms, most of them balancing some tuple of terms of fs."""
    n = len(fs)
    out = {}
    for _ in range(terms):
        if rng.random() < 0.7:
            combo = [rng.choice(f.terms)[0] for f in fs]
            exp = tuple(-sum(col) for col in zip(*combo))
        else:
            exp = tuple(rng.randint(-3, 3) for _ in range(n))
        out[exp] = random_nonzero(rng)
    return LaurentPoly.make(n, out)


def test_balanced_tuples_match_the_tuple_expansion():
    rng = random.Random(23)
    nonzero = 0
    for n, trials in ((1, 15), (2, 15), (3, 8)):
        for _ in range(trials):
            fs = [random_laurent(rng, n, max_terms=3, exp_bound=3) for _ in range(n)]
            f0 = random_poly_with_balancing_terms(rng, fs, rng.randint(1, 3))
            cuts = random_cuts(rng, n)
            value = raw_sum_polys(f0, fs, cuts)
            assert value == product_raw_sum_polys(f0, fs, cuts), (f0, fs, cuts)
            nonzero += value != 0
    assert nonzero >= 10


def test_cuts_are_checked_when_no_tuple_is_balanced():
    from parshin.errors import DimensionMismatch

    t = LaurentPoly.variable(1, 1)
    for f0 in (mono(1, (-1,)), t):
        with pytest.raises(DimensionMismatch, match="^need 1 cut points, got 3$"):
            residue(f0, [t], (1, 2, 3))
        with pytest.raises(TypeError, match="^cut point must be an integer, got Fraction"):
            residue(f0, [t], (Fraction(3, 2),))


def test_work_over_the_bound_is_refused_before_any_operator(monkeypatch):
    def no_operators(f):
        raise AssertionError("an operator was built for a refused form")

    monkeypatch.setattr(importlib.import_module("parshin.residue"), "mul_operator", no_operators)
    k = next(k for k in range(1, 100) if 24 * k ** 4 > MAX_WORK)
    fs = [LaurentPoly.make(4, {tuple(e if i == j else 0 for i in range(4)): 1
                               for e in range(1, k + 1)}) for j in range(4)]
    start = time.perf_counter()
    with pytest.raises(ArityError, match=str(MAX_WORK)):
        residue(mono(4, (-1, -1, -1, -1)), fs)
    assert time.perf_counter() - start < 1.0


# -- the residue and its report ------------------------------------------------

def test_classical_values():
    t = LaurentPoly.variable(1, 1)
    for c in range(-5, 6):
        for alpha in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            rep = residue(mono(1, (c,), alpha), [t])
            assert rep.residue == (alpha if c == -1 else 0)
            assert rep.agrees


def test_report_fields():
    rep = residue(mono(1, (-1,)), [LaurentPoly.variable(1, 1)])
    assert isinstance(rep, ResidueReport)
    assert rep.raw == -1 and rep.residue == 1 and rep.oracle == 1
    assert rep.paper_res_star == 1  # -(-1)^0 * raw
    assert rep.agrees
    doc = rep.to_json_dict()
    assert doc == {"n": 1, "raw": "-1", "residue": "1", "oracle": "1",
                   "paper_res_star": "1", "agrees": True}


def test_monomial_det_example():
    f0 = mono(2, (-2, -3))
    fs = [mono(2, (1, 1)), mono(2, (1, 2))]
    rep = residue(f0, fs)
    assert rep.residue == 1 == rep.oracle
    assert residue_det_monomial([(-2, -3), (1, 1), (1, 2)]) == 1


def leibniz_det(rows):
    """The sum over permutations of sign times the product of the picked entries."""
    size = len(rows)
    return sum(_perm_sign(perm) * math.prod(rows[i][perm[i]] for i in range(size))
               for perm in itertools.permutations(range(size)))


def test_integer_det_matches_leibniz_expansion():
    rng = random.Random(17)
    seen = {"singular": 0, "pivot swap": 0}
    for trial in range(400):
        size = trial % 4 + 1
        rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        if trial % 5 == 0 and size > 1:
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1 % (size - 1)])]
        if trial % 7 == 0:
            rows[0][0] = 0
        got = det(tuple(map(tuple, rows)))
        assert type(got) is Fraction
        assert got == leibniz_det(rows), rows
        seen["singular"] += got == 0
        seen["pivot swap"] += rows[0][0] == 0 and got != 0
    assert min(seen.values()) >= 20, seen
    assert det(()) == 1


def test_det_refuses_a_non_int_entry():
    with pytest.raises(TypeError):
        det(((1, 0), (0, Fraction(1, 2))))


def test_det_formula_shapes():
    assert residue_det_monomial([(-1,), (1,)]) == 1
    assert residue_det_monomial([(-2, -2), (1, 1), (1, 2)]) == 0  # column sums violated
    identity_rows = [(-1, -1), (1, 0), (0, 1)]
    assert residue_det_monomial(identity_rows) == 1
    with pytest.raises(ShapeMismatch):
        residue_det_monomial([(1, 2, 3), (1, 2, 3)])


def test_degree_filter_monomials():
    rng = random.Random(1)
    for n in (1, 2):
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
            if all(sum(r[j] for r in rows) == 0 for j in range(n)):
                continue
            f0 = mono(n, tuple(rows[0]))
            fs = [mono(n, tuple(r)) for r in rows[1:]]
            assert raw_sum_polys(f0, fs) == 0


def test_oracle_agreement_random():
    rng = random.Random(2)
    for n in (1, 2):
        for _ in range(25):
            f0 = random_laurent(rng, n)
            fs = [random_laurent(rng, n) for _ in range(n)]
            rep = residue(f0, fs)
            assert rep.agrees, (f0, fs, rep.residue, rep.oracle)


def test_oracle_agreement_n3_spot():
    rng = random.Random(3)
    for _ in range(3):
        f0 = random_laurent(rng, 3, max_terms=2, exp_bound=2)
        fs = [random_laurent(rng, 3, max_terms=2, exp_bound=2) for _ in range(3)]
        assert residue(f0, fs).agrees


def test_idempotent_cut_independence():
    rng = random.Random(4)
    for n in (1, 2):
        f0 = random_laurent(rng, n)
        fs = [random_laurent(rng, n) for _ in range(n)]
        base = residue(f0, fs).residue
        for cuts in ((-3,) * n, (1,) * n, (3,) * n, tuple(range(1, n + 1))):
            assert residue(f0, fs, cuts).residue == base


def test_antisymmetry_and_repeats():
    rng = random.Random(5)
    f0, f1, f2 = (random_laurent(rng, 2) for _ in range(3))
    assert residue(f0, [f1, f2]).residue == -residue(f0, [f2, f1]).residue
    assert residue(f0, [f1, f1]).residue == 0


# -- the n = 1 commutator form ---------------------------------------------------

def test_ack_classical_value():
    assert ack_residue_n1(mul_operator(parse_poly("t1^-1")),
                          mul_operator(parse_poly("t1"))) == 1


def test_ack_diagonal_operators_vanish():
    a = mul_operator(parse_poly("t1^0"))
    d = mul_operator(parse_poly("2 + 3*t1^0"))
    assert ack_residue_n1(d, a) == 0


def test_ack_matches_residue_random():
    rng = random.Random(6)
    for _ in range(30):
        f0 = random_laurent(rng, 1)
        f1 = random_laurent(rng, 1)
        assert ack_residue_n1(mul_operator(f0), mul_operator(f1)) == residue(f0, [f1]).residue


def test_traces_outside_the_trace_sums_refuse_a_wide_slab():
    # ack_residue_n1 and the lift's final head trace without raw_sum or word_sum
    for width in (MAX_SLAB_WIDTH + 1, 10**9):
        f0, f1 = mul_operator(mono(1, (-width,))), mul_operator(mono(1, (width,)))
        message = f"^a commutator slab {width} lattice points wide exceeds the cap {MAX_SLAB_WIDTH}$"
        final = lift_iterative([f0, f1])[-1].term((1,)).component("0")
        for trace in (lambda: ack_residue_n1(f0, f1), final.trace):
            start = time.perf_counter()
            with pytest.raises(ArityError, match=message):
                trace()
            assert time.perf_counter() - start < 0.1


def test_ack_cut_choice():
    rng = random.Random(7)
    f0 = random_laurent(rng, 1)
    f1 = random_laurent(rng, 1)
    base = ack_residue_n1(mul_operator(f0), mul_operator(f1))
    for cut in (-2, 1, 3):
        assert ack_residue_n1(mul_operator(f0), mul_operator(f1), cut=cut) == base
