"""Operator-trace residues against the coefficient-extraction oracle."""

import importlib
import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.cocycle import phi, virasoro_generator
from parshin.cube import lift_iterative
from parshin.errors import ArityError, DimensionMismatch, NotTraceClass, ShapeMismatch
from parshin.laurent import GLaurent, LaurentPoly, _perm_sign, parse_poly, parshin_oracle
from parshin.liealg import heisenberg3, sl2
from parshin.matrices import det, mat_mul
from parshin.opalg import (
    MAX_SLAB_WIDTH,
    Box,
    KernelAtom,
    LatticeOperator,
    derivation_operator,
    mul_operator,
    projector,
    projector_commutator,
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


def test_raw_sum_polys_builds_each_commutator_once(monkeypatch):
    # five terms per slot at n = 3, and an f_0 that balances all 125 tuples:
    # building per tuple makes 125 * 9 commutators of at most 15 * 3 pairs
    rng = random.Random(4)
    fs = []
    for _ in range(3):
        exps = set()
        while len(exps) < 5:
            exps.add(tuple(rng.randint(-2, 2) for _ in range(3)))
        fs.append(LaurentPoly.make(3, {e: rng.choice((1, -1, Fraction(3, 2))) for e in exps}))
    f0 = LaurentPoly.make(3, {tuple(-sum(col) for col in zip(*(e for e, _ in combo))): 1
                              for combo in itertools.product(*(f.terms for f in fs))})
    module = importlib.import_module("parshin.residue")
    built = []

    def counted(f, axis, cuts):
        built.append((f.atoms[0].shift, axis))
        return projector_commutator(f, axis, cuts)

    monkeypatch.setattr(module, "projector_commutator", counted)
    value = raw_sum_polys(f0, fs)
    assert value != 0 and -value == parshin_oracle(f0, fs)
    pairs = {(exp, axis) for f in fs for exp, _ in f.terms for axis in (1, 2, 3)}
    assert len(built) == len(set(built)) <= len(pairs)


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

def walk_operators(entries):
    """The operators ``raw_sum`` traces for cocycle entries: a monomial's
    multiplication operator, and a derivation as it is."""
    return [e if isinstance(e, LatticeOperator) else mul_operator(e) for e in entries]


def random_word_entry(rng, n, exp, kind):
    """One entry shifting by exp: a scalar monomial with a Fraction
    coefficient, an sl2 monomial with a Fraction scalar or with rational
    coefficients (so ad holds Fraction entries), or a scaled derivation
    t^s d/dt_axis (weight lam_axis)."""
    if kind == "sl2":
        element = random_lie_element(rng, sl2()).scale(random_nonzero(rng))
        return GLaurent.monomial(n, element, exp)
    if kind == "sl2 rational":
        while True:
            element = sl2().element([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)])
            if not element.is_zero():
                return GLaurent.monomial(n, element, exp)
    if kind == "derivation":
        axis = rng.randint(1, n)
        s = tuple(x + (i == axis - 1) for i, x in enumerate(exp))
        return derivation_operator(n, s, axis).scale(random_nonzero(rng))
    return mono(n, exp, random_nonzero(rng))


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
            entries = [random_word_entry(rng, n, tuple(row), kind) for row, kind in zip(rows, kinds)]
            ops = walk_operators(entries)
            cuts = tuple(rng.randint(-4, 4) for _ in range(n)) if trial % 4 else None
            expected = raw_sum(ops, cuts)
            if "derivation" in kinds:
                # a derivation is an operator, not a Laurent polynomial (its
                # weight is not constant): the kernel refuses it, and phi
                # takes the walk (on operators, as the flavors do not mix)
                with pytest.raises(TypeError, match="word_sum takes LaurentPoly or GLaurent entries"):
                    word_sum(entries, cuts)
                if n == 1:
                    assert phi(ops, cuts) == expected, (rows, kinds, cuts)
            else:
                assert word_sum(entries, cuts) == expected, (rows, kinds, cuts)
            nonzero += expected != 0
            rational += expected != 0 and "sl2 rational" in kinds
            unbalanced += any(sum(a.shift[i] for op in ops for a in op.atoms) for i in range(n))
            zero_exponents += any(0 in a.shift for op in ops[1:] for a in op.atoms)
    assert nonzero >= 40 and rational >= 10 and unbalanced >= 20 and zero_exponents >= 20

    # Fraction scalar weights, 3/2 t1^a, and n = 1 wedges of every mix of
    # derivation and monomial entries, through phi (a mixed wedge as
    # operators)
    for a in range(-3, 4):
        for kinds in itertools.product(("scalar", "derivation"), repeat=2):
            for cut in (0, 2, -3):
                entries = [random_word_entry(rng, 1, (-a,), kinds[0]),
                           random_word_entry(rng, 1, (a,), kinds[1])]
                ops = walk_operators(entries)
                wedge = entries if kinds[0] == kinds[1] else ops
                assert phi(wedge, (cut,)) == raw_sum(ops, (cut,)), (a, kinds, cut)
        entries = [mono(1, (-a,), Fraction(-5, 7)), mono(1, (a,), Fraction(3, 2))]
        assert word_sum(entries) == raw_sum(walk_operators(entries)) == Fraction(15, 14) * a

    # constant weights on slabs at and just under MAX_SLAB_WIDTH, where the
    # word's box sum is its width; phi sums a derivation weight point by
    # point in the walk (a tenth of the cap keeps the reference value quick)
    w, v = MAX_SLAB_WIDTH, MAX_SLAB_WIDTH - 1
    for entries, cuts in (([mono(1, (w,), Fraction(3, 2)), mono(1, (-w,))], (5,)),
                          ([mono(2, (-v, -1)), mono(2, (v, 0)), mono(2, (0, 1), -2)], (-1, 3))):
        assert word_sum(entries, cuts) == raw_sum(walk_operators(entries), cuts), cuts
    vector_fields = [derivation_operator(1, (1 - w // 10,), 1), derivation_operator(1, (w // 10 + 1,), 1)]
    assert phi(vector_fields) == raw_sum(vector_fields) != 0


def test_word_sum_sums_constant_weights_without_a_power_sum(monkeypatch):
    import parshin.opalg

    alg = sl2()
    constant = [GLaurent.monomial(2, alg.element(c), e)
                for c, e in (((1, 0, 0), (-1, -2)), ((0, Fraction(1, 3), 0), (1, 0)), ((0, 0, 2), (0, 2)))]
    scalar = [mono(2, (-2, 1), Fraction(3, 2)), mono(2, (1, 0)), mono(2, (1, -1), -1)]
    derivation = [derivation_operator(1, (4,), 1), derivation_operator(1, (-2,), 1)]
    expected = [raw_sum(walk_operators(entries)) for entries in (constant, scalar, derivation)]
    assert expected[0] != 0 and expected[1] != 0

    def refuse(*args):
        raise AssertionError("_power_sum was called")

    monkeypatch.setattr(parshin.opalg, "_power_sum", refuse)
    assert [word_sum(constant), word_sum(scalar)] == expected[:2]
    # a derivation weight is not constant: the kernel refuses the operator,
    # and phi sums it in the walk
    with pytest.raises(TypeError, match="word_sum takes LaurentPoly or GLaurent entries"):
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
            entries = []
            for row in random_rows(rng, n, balanced=trial % 4 != 3):
                coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
                coeffs[rng.randrange(3)] = Fraction(rng.choice((-5, -2, 1, 3)), rng.randint(1, 4))
                entries.append(GLaurent.monomial(n, alg.element(coeffs), tuple(row)))
            cuts = random_cuts(rng, n)
            cases.append((entries, cuts, raw_sum(walk_operators(entries), cuts)))
    assert sum(expected != 0 for *_, expected in cases) >= 30
    assert sum(isinstance(expected, Fraction) and expected.denominator > 1 for *_, expected in cases) >= 10
    products = int_matrices_only(monkeypatch)
    for entries, cuts, expected in cases:
        assert word_sum(entries, cuts) == expected, (entries, cuts)
    assert products


def test_word_sum_hoists_fraction_coefficients_out_of_the_words(monkeypatch):
    alg = sl2()
    h, e, f = (alg.element(c) for c in ((Fraction(3, 2), 0, 0), (0, Fraction(-5, 3), 0), (0, 0, 1)))
    cases = []
    for n, elements in ((1, (e, f)), (2, (h, e, f)), (3, (e, h, f, h))):
        rows = random_rows(random.Random(n), n, balanced=True)
        entries = [GLaurent.monomial(n, el, tuple(row)) for el, row in zip(elements, rows)]
        cases.append((entries, raw_sum(walk_operators(entries))))
    assert all(expected != 0 for _, expected in cases)
    products = int_matrices_only(monkeypatch)
    assert [word_sum(entries) for entries, _ in cases] == [expected for _, expected in cases]
    assert products


def gl2():
    """sl2 + kZ with basis (H, E, F, Z), Z central: not nilpotent, so a
    wedge holding the centre can take a nonzero value."""
    from parshin.liealg import from_json_dict

    return from_json_dict({"dim": 4, "basis": ["H", "E", "F", "Z"], "brackets": [
        {"i": 0, "j": 1, "coeffs": {"1": "2"}},
        {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
        {"i": 1, "j": 2, "coeffs": {"0": "1"}}]})


def test_word_sum_takes_only_whole_lattice_atoms():
    # every scalar and multiloop entry acts by whole-lattice atoms: a sum is
    # expanded term by term, and a zero entry, or a term acting by the zero
    # ad of a centre element, makes its terms vanish; the set sum equals the
    # walk on each
    t, t_inv = mono(1, (1,)), mono(1, (-1,))
    g = gl2()
    H, E, F, Z = (g.by_name(name) for name in "HEFZ")
    x, y, z = (heisenberg3().by_name(name) for name in "xyz")
    sums = [parse_poly("2*t1^-1 + t1^-2 - 3*t1^2"), parse_poly("t1 + t1^2")]
    centred = [GLaurent.make(1, g, {(1,): E + Z, (2,): Z}), GLaurent.make(1, g, {(-1,): F, (-2,): H})]
    cases = [
        (sums, (0,)), (sums, (-2,)),
        ([LaurentPoly.zero(1), t], None), ([t_inv, LaurentPoly.zero(1)], (3,)),
        ([GLaurent.zero(1, g), GLaurent.monomial(1, E, (1,))], None),
        ([GLaurent.monomial(1, Z, (-1,)), GLaurent.monomial(1, E, (1,))], None),
        (centred, None), (centred, (1,)),
        ([GLaurent.monomial(2, el, row) for el, row in zip((x, y, z), ((1, 0), (-1, 1), (0, -1)))], None),
    ]
    values = []
    for entries, cuts in cases:
        values.append(word_sum(entries, cuts))
        assert values[-1] == raw_sum(walk_operators(entries), cuts), (entries, cuts)
    assert values[0] != 0 and values[6] != 0
    # an operator is no Laurent polynomial, even a multiplication
    for bad in (mul_operator(t), projector(1, 1, "+").compose(mul_operator(t_inv))):
        for entries in ([bad, t], [t_inv, bad]):
            with pytest.raises(TypeError, match="GLaurent entries, got LatticeOperator"):
                word_sum(entries)


def test_word_sum_shares_the_walks_refusals():
    # a balanced pair of vector fields whose derivation weights are summed
    # point by point over a slab one point wider than the cap; they are no
    # one-term entries, so phi traces them in the walk
    w = MAX_SLAB_WIDTH + 1
    wide = [derivation_operator(1, (1 - w,), 1), derivation_operator(1, (w + 1,), 1)]
    for entries, error in (([], DimensionMismatch), (wide, ArityError)):
        messages = []
        for trace_sum in (raw_sum, phi if entries is wide else word_sum):
            with pytest.raises(error) as info:
                trace_sum(entries)
            messages.append(str(info.value))
        assert messages[0] == messages[1], messages


@pytest.mark.parametrize("algebra", ["scalar", "sl2"])
@pytest.mark.parametrize("case", ["different n", "entry count", "cut count", "non-integral cut"])
def test_phi_and_word_sum_refuse_monomial_entries_as_the_walk_does(case, algebra):
    def entry(*exp):
        return mono(len(exp), exp) if algebra == "scalar" else GLaurent.monomial(len(exp), sl2().by_name("E"), exp)

    t1, t12 = entry(1), entry(1, 1)
    entries, cuts, error = {
        "different n": ([t1, t12], None, DimensionMismatch),
        "entry count": ([t1] * 3, None, DimensionMismatch),
        "cut count": ([t1, t1], (0, 0), DimensionMismatch),
        "non-integral cut": ([t1, t1], (Fraction(1, 2),), TypeError),
    }[case]
    messages = []
    for trace_sum, args in ((raw_sum, walk_operators(entries)), (word_sum, entries), (phi, entries)):
        with pytest.raises(error) as info:
            trace_sum(args, cuts)
        messages.append(str(info.value))
    assert len(set(messages)) == 1, messages


def test_phi_builds_no_lattice_operator_on_monomial_wedges(monkeypatch):
    rows = ((-3, 1), (1, 2), (2, -3))
    g = gl2()
    wedges = [[GLaurent.monomial(2, sl2().by_name(name), row) for name, row in zip("HEF", rows)],
              [mono(2, row, c) for row, c in zip(rows, (Fraction(3, 2), -2, 1))],
              # a sum wedge, and one whose entries hold the centre of gl2
              [mono(2, (-3, 1), 2) + mono(2, (-1, -2)), mono(2, (1, 2)) - mono(2, (-1, 1)),
               mono(2, (2, -3), 3)],
              [GLaurent.make(2, g, {rows[0]: g.by_name("H") + g.by_name("Z"), (0, 0): g.by_name("Z")}),
               GLaurent.monomial(2, g.by_name("E"), rows[1]), GLaurent.monomial(2, g.by_name("F"), rows[2])]]
    expected = [raw_sum(walk_operators(entries)) for entries in wedges]
    assert all(value != 0 for value in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("a lattice operator was built")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("parshin") and hasattr(module, "mul_operator"):
            monkeypatch.setattr(module, "mul_operator", refuse)
    monkeypatch.setattr(LatticeOperator, "make", staticmethod(refuse))
    assert [phi(entries) for entries in wedges] == expected


def chain_document(rng, algebra, terms, n=2):
    """A chain document of monomial terms over ``algebra``'s basis names,
    with "p/q" term and factor coefficients; three terms in four balanced."""
    doc = {"n": n, "terms": []}
    for index in range(terms):
        factors = [{"Y": rng.choice(algebra.basis_names), "exp": row, "coeff": str(random_nonzero(rng))}
                   for row in random_rows(rng, n, balanced=index % 4 != 3)]
        doc["terms"].append({"coeff": str(random_nonzero(rng)), "factors": factors})
    return doc


def chain_value(terms, value):
    return sum((coeff * value(factors) for coeff, factors in terms), Fraction(0))


def test_ad_is_read_once_per_algebra(monkeypatch):
    # a 200-term chain calls liealg.ad at most dim times per algebra object:
    # LieAlgebra.integral_adjoints reads each ad(e_i) once and keeps it, and
    # word_sum computes no ad of its own for a multiple of a basis element.
    # A term holding a central element still acts by zero, and every value
    # equals the walk's, computed before the count on an equal algebra.
    # The package attribute parshin.residue is the residue function, so the
    # modules are patched through sys.modules.
    from parshin.chains import read_chain

    rng = random.Random(32)
    cases = []
    for make, central in ((heisenberg3, {"z"}), (sl2, set()), (gl2, {"Z"})):
        doc = chain_document(rng, make(), 200)
        terms = read_chain(doc, make())[1]
        assert len(terms) == 200
        expected = chain_value(terms, lambda factors: raw_sum(walk_operators(factors)))
        holding = [any(f["Y"] in central for f in term["factors"]) for term in doc["terms"]]
        cases.append((make(), doc, central, holding, expected))
    assert sum(any(holding) for *_, holding, _ in cases) == 2
    assert sum(expected != 0 for *_, expected in cases) == 2

    calls = []
    liealg_module = sys.modules["parshin.liealg"]

    def counted(y, ad=liealg_module.ad):
        calls.append(y.algebra)
        return ad(y)

    monkeypatch.setattr(liealg_module, "ad", counted)
    monkeypatch.setattr(sys.modules["parshin.residue"], "ad", None)
    for algebra, doc, central, holding, expected in cases:
        calls.clear()
        terms = read_chain(doc, algebra)[1]
        assert chain_value(terms, phi) == expected
        assert len(calls) == algebra.dim and all(a is algebra for a in calls)
        assert [c is None for c in algebra.integral_adjoints] == [name in central for name in algebra.basis_names]
        assert [phi(factors) for (_, factors), held in zip(terms, holding) if held] == [0] * sum(holding)
        assert len(calls) == algebra.dim


COEFFICIENTS = (1, -2, Fraction(3, 2), Fraction(-5, 3))


@st.composite
def constant_weight_wedges(draw):
    """(entries, cuts): n = 1..4 wedges with Fraction coefficients, on d = 1,
    on sl2 (integer or "p/q" structure constants), or on heisenberg3 or gl2
    with every element holding the centre (z, Z); exponents in -3..3 with
    zeros, the first terms balanced three times in four.  At n <= 3 an entry
    may be a sum of two or three terms, and any entry may be zero."""
    n = draw(st.integers(1, 4))
    algebra, centred = draw(st.sampled_from(((None, False), (sl2(), False), (rational_sl2(), False),
                                             (heisenberg3(), True), (gl2(), True))))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n + 1)]
    if draw(st.integers(0, 3)):
        rows[0] = [-sum(row[i] for row in rows[1:]) for i in range(n)]
    entries = []
    for row in rows:
        extra = draw(st.integers(0, 2)) if n <= 3 else 0
        exps = [tuple(row)] + [tuple(draw(st.integers(-3, 3)) for _ in range(n)) for _ in range(extra)]
        terms = {}
        for exp in exps:
            coefficient = draw(st.sampled_from(COEFFICIENTS))
            if algebra is None:
                terms[exp] = coefficient
                continue
            coeffs = [draw(st.sampled_from((0,) + COEFFICIENTS)) for _ in range(algebra.dim)]
            coeffs[draw(st.integers(0, algebra.dim - 1))] = coefficient
            if centred:  # z or Z, the last basis element
                coeffs[-1] = coefficient
            terms[exp] = algebra.element(coeffs)
        if draw(st.integers(0, 9)) == 9:
            terms = {}
        entries.append(LaurentPoly.make(n, terms) if algebra is None else GLaurent.make(n, algebra, terms))
    cuts = draw(st.none() | st.tuples(*[st.integers(-4, 4)] * n))
    return entries, cuts


@given(constant_weight_wedges())
@settings(max_examples=200, deadline=None)
def test_the_set_sum_matches_the_walk(case):
    entries, cuts = case
    assert word_sum(entries, cuts) == raw_sum(walk_operators(entries), cuts)


def test_the_set_sum_takes_at_most_n_2_to_the_n_minus_1_products(monkeypatch):
    # every exponent nonzero, so no word of f_1..f_n is cut short: one per
    # permutation would take n n! products
    alg = sl2()
    cases = []
    for n, names in ((3, "EFHH"), (4, "EFHHH")):
        rows = [[(-1) ** (i + j) * (1 + (i * j) % 3) for j in range(n)] for i in range(1, n + 1)]
        rows.insert(0, [-sum(row[j] for row in rows) for j in range(n)])
        entries = [GLaurent.monomial(n, alg.by_name(name), tuple(row)) for name, row in zip(names, rows)]
        cases.append((n, entries, raw_sum(walk_operators(entries))))
    assert all(expected != 0 for *_, expected in cases)
    products = int_matrices_only(monkeypatch)
    for n, entries, expected in cases:
        products.clear()
        assert word_sum(entries) == expected
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
