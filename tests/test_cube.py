"""Cube complex: sign combinatorics, differential/homotopy identities, the lift."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin import cube
from parshin.cube import (
    CubeElement,
    LiftState,
    boundary,
    boundary_axis,
    boundary_hat,
    degree,
    epsilon,
    epsilon_all,
    epsilon_prefix,
    homotopy,
    homotopy_axis,
    homotopy_hat,
    homotopy_hat_boundary_hat,
    homotopy_via_definition,
    lift_closed_form,
    lift_iterative,
    rho,
    sign_strings,
)
from parshin.errors import IdealViolation, RepeatedIndex
from parshin.laurent import LaurentPoly, parse_poly
from parshin.opalg import Box, KernelAtom, LatticeOperator, _iter_cells, mul_operator, projector, region
from parshin.residue import raw_sum
from parshin.sampling import random_cube_element, random_exponent, random_nonzero_fraction, random_operator
from parshin.verify import check_cube_identities


# -- sign strings and rho --------------------------------------------------------

def test_degree():
    assert degree("+-") == 1
    assert degree("0-") == 2
    assert degree("000") == 4


def test_sign_string_counts():
    # over n axes: choose the zero slots, fill the rest with +-
    from math import comb

    for n in range(1, 5):
        for p in range(1, n + 2):
            zeros = p - 1
            assert len(sign_strings(n, p)) == comb(n, zeros) * 2 ** (n - zeros)


def test_sign_strings_are_a_cached_tuple():
    strings = sign_strings(3, 2)
    assert isinstance(strings, tuple) and sign_strings(3, 2) is strings
    assert strings == tuple(sorted(strings, key=lambda s: ["+-0".index(c) for c in s]))


def test_rho_values():
    assert rho((3,)) == 1
    assert rho((1, 2)) == -1
    assert rho((2, 1)) == 1
    assert rho((2, 1, 3)) == 1  # ascending pairs (2,3), (1,3)


def test_rho_repeated_index():
    with pytest.raises(RepeatedIndex):
        rho((1, 1))


def test_rho_inductive_law():
    rng = random.Random(0)
    for _ in range(300):
        size = rng.randint(2, 6)
        pool = list(range(1, 10))
        rng.shuffle(pool)
        w = pool[:size]
        lhs = (-1) ** sum(1 for x in w[:-1] if x < w[-1]) * rho(w[:-1])
        assert lhs == rho(w)


def test_rho_vs_permutation_sign():
    import itertools

    for n in range(1, 6):
        const = (-1) ** (n * (n - 1) // 2)
        for perm in itertools.permutations(range(1, n + 1)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            assert rho(perm) == const * (-1) ** inv


# -- cube elements ----------------------------------------------------------------

def test_membership_by_construction_and_violation():
    rng = random.Random(1)
    f = random_cube_element(rng, 2, 2, d=1)
    f.check_ideals()
    bad = CubeElement.make(1, 1, 2, {"0": mul_operator(parse_poly("t1"))})
    with pytest.raises(IdealViolation):
        bad.check_ideals()


def test_boundary_then_hat_vanishes():
    rng = random.Random(2)
    f = random_cube_element(rng, 1, 2, d=1)
    assert boundary_hat(boundary(f)).is_zero()


def test_boundary_squares_to_zero():
    rng = random.Random(3)
    for n, p in ((2, 3), (3, 3), (3, 4)):
        f = random_cube_element(rng, n, p, d=1)
        assert boundary(boundary(f)).is_zero()


def test_negation_and_difference_laws():
    rng = random.Random(5)
    for n, p, d in ((1, 1, 1), (2, 1, 1), (2, 2, 3)):
        f = random_cube_element(rng, n, p, d=d)
        assert not f.is_zero()
        assert (f - f).is_zero() and (f + (-f)).is_zero()
        assert all((-(-f)).component(s) == op for s, op in f.components.items())
        assert (-(-f) - f).is_zero()


def test_zero_element_maps_to_zero():
    z = CubeElement.zero(2, 1, 2)
    assert boundary(z).is_zero()
    assert homotopy(z).is_zero()
    assert epsilon(z, 1).is_zero()


def test_homotopy_n1_component():
    # (Hf)_0 = P^- f_+ + P^+ f_-
    rng = random.Random(4)
    f = random_cube_element(rng, 1, 1, d=1)
    h = homotopy(f)
    want = (projector(1, 1, "-").compose(f.component("+"))
            + projector(1, 1, "+").compose(f.component("-")))
    assert (h.component("0") - want).is_zero()


def test_hat_homotopy_inverts_hat_boundary():
    rng = random.Random(5)
    for n in (1, 2):
        g = random_operator(rng, n, 1)
        hf = homotopy_hat(g)
        assert set(hf.components) <= set(sign_strings(n, 1))
        assert (boundary_hat(hf) - g).is_zero()


def test_epsilon_idempotent_and_product_formula():
    rng = random.Random(6)
    for n in (1, 2):
        f = random_cube_element(rng, n, 1, d=1)
        e1 = epsilon(f, 1)
        assert (epsilon(e1, 1) - e1).is_zero()
        acc = f
        for axis in range(n, 0, -1):
            acc = epsilon(acc, axis)
        assert (acc - epsilon_prefix(f, n)).is_zero()
        assert (acc - epsilon_all(f)).is_zero()


def _sign(ch):
    return 1 if ch == "+" else -1


def _epsilon_by_chain(f, axis, cuts):
    """epsilon as a chain per component: scale each piece, add, restrict, scale."""
    i, out = axis - 1, {}
    for s in sign_strings(f.n, f.p):
        if s[i] != "0":
            acc = LatticeOperator.zero(f.n, f.d)
            for g in "+-":
                acc = acc + f.component(s[:i] + g + s[i + 1:]).scale(_sign(g))
            out[s] = acc.restrict(region(cuts, {axis: s[i]}), Box.full(f.n)).scale(_sign(s[i]))
    return CubeElement.make(f.n, f.d, f.p, out)


def _homotopy_axis_by_chain(f, axis, cuts):
    """H_axis as a chain per component: restrict each piece, add, scale."""
    i, out = axis - 1, {}
    for s in sign_strings(f.n, f.p + 1):
        if s[i] == "0":
            acc = LatticeOperator.zero(f.n, f.d)
            for g in "+-":
                acc = acc + f.component(s[:i] + g + s[i + 1:]).restrict(
                    region(cuts, {axis: "-" if g == "+" else "+"}), Box.full(f.n))
            out[s] = acc.scale(-1 if s[i + 1:].count("0") % 2 else 1)
    return CubeElement.make(f.n, f.d, f.p + 1, out)


def _normalized(e):
    """e rebuilt from its read components, so that the next map starts from operators."""
    return CubeElement.make(e.n, e.d, e.p, e.components)


def test_one_normalization_per_component_matches_the_chains():
    rng = random.Random(12)
    for _ in range(40):
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-2, 2) for _ in range(n))
        f = random_cube_element(rng, n, rng.randint(1, n + 1), d)
        g = random_cube_element(rng, n, f.p, d)
        axis = rng.randint(1, n)
        for got, want in ((epsilon(f, axis, cuts), _epsilon_by_chain(f, axis, cuts)),
                          (homotopy_axis(f, axis, cuts), _homotopy_axis_by_chain(f, axis, cuts)),
                          (f - g, f + g.scale(-1))):
            assert got.components.keys() == want.components.keys()
            for s, op in got.components.items():
                assert op.atoms == want.components[s].atoms
        # composed maps: normalizing after every map equals normalizing once
        i, j = rng.randint(1, n), rng.randint(1, n)
        for outer, inner in ((lambda e: epsilon(e, j, cuts), lambda e: homotopy_axis(e, i, cuts)),
                             (lambda e: boundary_axis(e, i), lambda e: homotopy(e, cuts)),
                             (lambda e: homotopy(e, cuts), lambda e: homotopy(e, cuts)),
                             (lambda e: epsilon(e, j, cuts), lambda e: epsilon(e, i, cuts))):
            once, chained = outer(inner(f)), outer(_normalized(inner(f)))
            assert once.components.keys() == chained.components.keys()
            for s, op in once.components.items():
                assert op == chained.components[s]
            assert once == chained


def _composed(rng, f, cuts):
    """Two or three composed maps of f: a difference that an identity makes zero, or a plain map."""
    n = f.n
    i, j = rng.randint(1, n), rng.randint(1, n)
    cases = [
        lambda: homotopy(homotopy(f, cuts), cuts),
        lambda: epsilon(epsilon(f, i, cuts), i, cuts) - epsilon(f, i, cuts),
        lambda: homotopy_axis(homotopy_axis(f, j, cuts), i, cuts) + homotopy_axis(homotopy_axis(f, i, cuts), j, cuts),
        lambda: homotopy_axis(epsilon(f, j, cuts), i, cuts) - epsilon(homotopy_axis(f, i, cuts), j, cuts),
        lambda: epsilon_all(epsilon(f, i, cuts), cuts) - epsilon_all(f, cuts),
        lambda: epsilon(homotopy_axis(f, i, cuts), j, cuts),
    ]
    if f.p >= 2:
        cases += [
            lambda: boundary(homotopy(f, cuts)) + homotopy(boundary(f), cuts) - (f - epsilon_all(f, cuts)),
            lambda: boundary_axis(epsilon(f, j, cuts), i) - epsilon(boundary_axis(f, i), j, cuts),
            lambda: boundary_axis(homotopy_axis(f, j, cuts), i),
        ]
    return rng.choice(cases)()


def test_cancelling_region_coefficients_decide_is_zero_as_normalization_does():
    rng = random.Random(17)
    seen = {"cancelled": 0, "normalized to zero": 0, "nonzero": 0}
    for case in range(120):
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-2, 2) for _ in range(n))
        e = _composed(rng, random_cube_element(rng, n, rng.randint(1, n + 1), d), cuts)
        if case % 2 and e.terms:
            # perturb one coefficient
            terms = {s: dict(t) for s, t in e.terms.items()}
            s = rng.choice(sorted(terms))
            key = rng.choice(list(terms[s]))
            terms[s][key] *= 2
            e = CubeElement(e.n, e.d, e.p, terms, e.sources)
        cancelled = all(cube._cancels(t) for t in e.terms.values())
        normalized = all(op.is_zero() for op in e.components.values())
        assert e.is_zero() == normalized
        assert normalized or not cancelled
        seen["cancelled" if cancelled else "normalized to zero" if normalized else "nonzero"] += 1
    assert all(seen.values()), seen


def test_regions_that_tile_the_lattice_cancel_without_normalizing():
    # n = 1, p = 2: H d f = P^- f_0 + P^+ f_0 and eps_all f = 0, so d H f + H d f - (f - eps f)
    # is (P^- + P^+ - 1) f_0, zero as a function of the regions alone
    f = random_cube_element(random.Random(19), 1, 2, d=1)
    e = boundary(homotopy(f)) + homotopy(boundary(f)) - (f - epsilon_all(f))
    assert sorted(e.terms["0"].values()) == [-1, 1, 1]
    assert e.is_zero() and e._components is None


def test_only_normalization_decides_equal_sources_and_missed_regions():
    rng = random.Random(18)
    # two distinct but equal source operators with opposite coefficients
    a = random_operator(rng, 2, 3)
    b = LatticeOperator.make(2, 3, a.atoms)
    e = CubeElement.make(2, 3, 1, {"+-": a}) - CubeElement.make(2, 3, 1, {"+-": b})
    assert not cube._cancels(e.terms["+-"])
    assert e.is_zero()
    # the atoms of g all land in [0, 3): P^- misses every one, and P^+ keeps them all
    g = LatticeOperator.make(1, 1, [KernelAtom((0,), ((1,),), LaurentPoly.one(1), Box.of([(0, 3)]))])
    e = homotopy_hat(g) - CubeElement.make(1, 1, 1, {"+": g})
    assert e.terms.keys() == {"+", "-"}
    assert not any(cube._cancels(t) for t in e.terms.values())
    assert e.is_zero()


# -- corner sums against the arrangement walk ------------------------------------

def _cancels_by_cells(terms):
    """Reference: each source's sum of c * 1_region, cell by cell of its regions' arrangement."""
    by_source = {}
    for (sid, bounds), c in terms.items():
        by_source.setdefault(sid, []).append((bounds, c))
    return not any(sum(values) for pieces in by_source.values()
                   for _, values in _iter_cells(len(pieces[0][0]), pieces))


@st.composite
def _region_terms(draw):
    """Terms over up to three sources at n = 1..3 with rational coefficients.

    Regions are bounded, half-bounded or whole on each axis.  A term may be
    split at a point of one axis, c * B - c * (B below) - c * (B above), which
    cancels; on a half-bounded side, B and its part above the point agree only
    past the point.  A term may get a twin with one bound moved, which cancels
    only outside the moved slab.  One coefficient may then be perturbed.
    """
    n = draw(st.integers(1, 3))
    coeffs = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-5, 3)))

    def interval():
        lo, width = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        return draw(st.sampled_from(((None, None), (lo, None), (None, lo), (lo, lo + width))))

    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        sid, c = draw(st.integers(0, 2)), draw(coeffs)
        box = tuple(interval() for _ in range(n))
        i, at = draw(st.integers(0, n - 1)), draw(st.integers(-4, 4))
        lo, hi = box[i]
        kind = draw(st.sampled_from(("plain", "split", "twin")))
        if kind == "split" and (lo is None or lo < at) and (hi is None or at < hi):
            cube._add(terms, (sid, box[:i] + ((lo, at),) + box[i + 1:]), -c)
            cube._add(terms, (sid, box[:i] + ((at, hi),) + box[i + 1:]), -c)
        elif kind == "twin" and lo is not None and (hi is None or at < hi) and at != lo:
            cube._add(terms, (sid, box[:i] + ((at, hi),) + box[i + 1:]), -c)
        cube._add(terms, (sid, box), c)
    if terms and draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(terms, key=repr)))
        cube._add(terms, key, draw(coeffs))
    return terms


@given(_region_terms())
@settings(max_examples=300, deadline=None)
def test_corner_sums_decide_cancellation_as_the_arrangement_walk(terms):
    assert cube._cancels(terms) == _cancels_by_cells(terms)


def test_corner_sums_on_hand_cases():
    half = Fraction(1, 2)
    cases = [
        ({}, True),
        ({(0, ((0, None),)): 1, (0, ((2, None),)): -1}, False),  # equal past 2 only
        ({(0, ((0, None),)): 1, (0, ((2, None),)): -1, (0, ((0, 2),)): -1}, True),
        ({(0, ((None, None), (None, None))): half, (0, ((None, None), (None, 0))): -half,
          (0, ((None, None), (0, None))): -half}, True),
        ({(0, ((None, None),)): 1, (1, ((None, 0),)): -1, (1, ((0, None),)): -1}, False),
        ({(0, ((0, 1), (0, 1), (0, 1))): 2, (0, ((0, 1), (0, 1), (0, None))): -2,
          (0, ((0, 1), (0, 1), (1, None))): 2}, True),
    ]
    for terms, cancels in cases:
        assert cube._cancels(terms) == _cancels_by_cells(terms) == cancels, terms


# -- H^ d^ on N^1 without a read ---------------------------------------------------

def test_hat_homotopy_of_hat_boundary_keeps_the_sources():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for d in (1, 3):
            for _ in range(3):
                cuts = None if rng.random() < 0.25 else tuple(rng.randint(-3, 3) for _ in range(n))
                f = random_cube_element(rng, n, 1, d)
                got = homotopy_hat_boundary_hat(f, cuts)
                assert got.sources.keys() <= f.sources.keys() and got._components is None
                assert got == homotopy_hat(boundary_hat(f), cuts)
                assert got == epsilon_all(f, cuts)


def test_the_battery_never_reads_a_component_to_decide_an_identity(monkeypatch):
    inside, reads = [], []
    is_zero, components = CubeElement.is_zero, CubeElement.components

    def watched_is_zero(self):
        inside.append(self)
        try:
            return is_zero(self)
        finally:
            inside.pop()

    def watched_components(self):
        if inside:
            reads.append(self)
        return components.fget(self)

    monkeypatch.setattr(CubeElement, "is_zero", watched_is_zero)
    monkeypatch.setattr(CubeElement, "components", property(watched_components))
    # a normalized d^ is a new source, so the N^1 identity built on it is read
    f = random_cube_element(random.Random(29), 2, 1, d=1)
    assert (boundary(homotopy(f)) + homotopy_hat(boundary_hat(f)) - f).is_zero()
    assert reads
    reads.clear()
    for n in (1, 2, 3):
        assert check_cube_identities(n, 4, seed=n).passed
    assert not reads


@pytest.fixture
def cold_rules(request, monkeypatch):
    """An empty rule memo, before a patch and again after it: warm tables would hide the patch,
    and tables built while it holds would leak into later tests."""
    cube._rule.cache_clear()
    request.addfinalizer(cube._rule.cache_clear)
    return monkeypatch


@pytest.mark.parametrize("name, wrong", [
    ("_zeros_after", lambda s, i: 1),        # one sign: (-1)^(#zeros after i) taken as +1
    ("_flip", lambda sign: sign),            # one region: P_i^g in place of P_i^(-g)
])
def test_a_wrong_sign_or_region_fails_the_identities(cold_rules, name, wrong):
    # the maps cancel terms symbolically and build each rule once; a wrong map must still be caught
    cold_rules.setattr(cube, name, wrong)
    for seed in (1, 2, 3):
        report = check_cube_identities(2, 2, seed)
        assert not report.passed and report.failures


def test_homotopy_closed_form_matches_definition():
    rng = random.Random(7)
    for n in (2, 3):
        for p in range(1, n + 1):
            f = random_cube_element(rng, n, p, d=1)
            assert (homotopy(f) - homotopy_via_definition(f)).is_zero()


def test_contracting_homotopy_identities():
    rng = random.Random(8)
    for n in (1, 2, 3):
        for p in range(1, n + 2):
            d = 3 if (n, p) == (2, 2) else 1
            f = random_cube_element(rng, n, p, d=d)
            assert homotopy(homotopy(f)).is_zero()
            if p >= 2:
                lhs = boundary(homotopy(f)) + homotopy(boundary(f))
                assert (lhs - (f - epsilon_all(f))).is_zero()
            else:
                lhs = boundary(homotopy(f)) + homotopy_hat(boundary_hat(f))
                assert (lhs - f).is_zero()


def test_identities_hold_for_shifted_cuts():
    rng = random.Random(9)
    cuts = (2, -1)
    f = random_cube_element(rng, 2, 2, d=1)
    lhs = boundary(homotopy(f, cuts)) + homotopy(boundary(f), cuts)
    assert (lhs - (f - epsilon_all(f, cuts))).is_zero()


def test_pairwise_relations():
    rng = random.Random(10)
    n = 2
    for p in (2, 3):
        f = random_cube_element(rng, n, p, d=1)
        for i in (1, 2):
            for j in (1, 2):
                assert (homotopy_axis(homotopy_axis(f, j), i)
                        + homotopy_axis(homotopy_axis(f, i), j)).is_zero()
                assert (boundary_axis(epsilon(f, j), i)
                        - epsilon(boundary_axis(f, i), j)).is_zero()
                assert (homotopy_axis(epsilon(f, j), i)
                        - epsilon(homotopy_axis(f, i), j)).is_zero()
                if p == 3:
                    assert (boundary_axis(boundary_axis(f, j), i)
                            + boundary_axis(boundary_axis(f, i), j)).is_zero()
                if i != j:
                    assert (boundary_axis(homotopy_axis(f, j), i)
                            + homotopy_axis(boundary_axis(f, i), j)).is_zero()
            diag = (boundary_axis(homotopy_axis(f, i), i)
                    + homotopy_axis(boundary_axis(f, i), i))
            assert (diag - (f - epsilon(f, i))).is_zero()


# -- the lift ---------------------------------------------------------------------

def random_monomial_ops(rng, n, count, bound=2):
    return [
        mul_operator(LaurentPoly.monomial(n, random_exponent(rng, n, bound),
                                          random_nonzero_fraction(rng)))
        for _ in range(count)
    ]


def test_lift_stage_zero_is_hat_homotopy():
    rng = random.Random(11)
    fs = random_monomial_ops(rng, 2, 3)
    state = lift_iterative(fs)[0]
    assert (state.p, state.q) == (1, 2)
    assert (state.term(()) - homotopy_hat(fs[0])).is_zero()
    closed = lift_closed_form(fs, 0)
    assert (closed.term(()) - homotopy_hat(fs[0])).is_zero()


def test_lift_identity_operator_components():
    # f0 = 1: stage-one components are +-(projector words)
    fs = [mul_operator(LaurentPoly.one(1)), mul_operator(parse_poly("t1"))]
    state = lift_closed_form(fs, 0)
    head = state.term(())
    assert (head.component("+") - projector(1, 1, "+")).is_zero()
    assert (head.component("-") + projector(1, 1, "-")).is_zero()


def test_lift_final_n1_pure_shift():
    # f0 = f1 = t: final component P^- t P^+ t - P^+ t P^- t, a pure shift, trace 0
    t = mul_operator(parse_poly("t1"))
    final = lift_iterative([t, t])[-1].term((1,))
    plus = projector(1, 1, "+")
    minus = projector(1, 1, "-")
    want = (minus.compose(t).compose(plus).compose(t)
            - plus.compose(t).compose(minus).compose(t))
    assert (final.component("0") - want).is_zero()
    assert final.component("0").trace() == 0


def test_lift_final_n1_hand_value():
    # f0 = t^-1, f1 = t: final head P^- t P^+ t^-1 - P^+ t P^- t^-1
    f0 = mul_operator(parse_poly("t1^-1"))
    f1 = mul_operator(parse_poly("t1"))
    final = lift_iterative([f0, f1])[-1].term((1,))
    plus = projector(1, 1, "+")
    minus = projector(1, 1, "-")
    want = (minus.compose(f1).compose(plus).compose(f0)
            - plus.compose(f1).compose(minus).compose(f0))
    assert (final.component("0") - want).is_zero()
    assert final.component("0").trace() == -1


def test_lift_closed_form_equals_iterative():
    rng = random.Random(12)
    for n in (1, 2):
        for _ in range(6):
            fs = random_monomial_ops(rng, n, n + 1)
            states = lift_iterative(fs)
            assert all(state.residual_is_zero() for state in states)
            for p in range(n + 1):
                closed = lift_closed_form(fs, p)
                for omitted, head in closed.heads.items():
                    iterative_head = states[p].term(omitted)
                    for s, op in head.components.items():
                        assert (iterative_head.component(s) - op).is_zero(), (n, p, s)


def test_lift_closed_form_equals_iterative_shifted_cuts():
    rng = random.Random(13)
    fs = random_monomial_ops(rng, 2, 3)
    cuts = (-2, 3)
    states = lift_iterative(fs, cuts)
    for p in range(3):
        closed = lift_closed_form(fs, p, cuts)
        for omitted, head in closed.heads.items():
            iterative_head = states[p].term(omitted)
            for s, op in head.components.items():
                assert (iterative_head.component(s) - op).is_zero()


def test_lift_final_trace_is_raw_sum():
    rng = random.Random(14)
    for n in (1, 2):
        for _ in range(4):
            fs = random_monomial_ops(rng, n, n + 1)
            final = lift_iterative(fs)[-1]
            assert (final.p, final.q) == (n + 1, 0)
            head = final.term(tuple(range(1, n + 1)))
            assert set(head.components) <= {"0" * n}
            assert head.component("0" * n).trace() == raw_sum(fs)


def test_lift_bracket_branch_dies_under_homotopy():
    rng = random.Random(15)
    fs = random_monomial_ops(rng, 2, 3)
    for state in lift_iterative(fs):
        assert state.residual_is_zero()


def test_lift_handles_multi_term_operators():
    from parshin.sampling import random_laurent

    rng = random.Random(16)
    for n in (1, 2):
        for _ in range(3):
            fs = [mul_operator(random_laurent(rng, n, max_terms=2, exp_bound=2))
                  for _ in range(n + 1)]
            states = lift_iterative(fs)
            assert all(state.residual_is_zero() for state in states)
            final = states[-1].term(tuple(range(1, n + 1)))
            assert final.component("0" * n).trace() == raw_sum(fs)


def test_virasoro_through_the_full_descent():
    # derivation operators carry polynomial weights all the way down the lift
    from parshin.opalg import derivation_operator

    for m in (1, 2, 3, 4):
        fs = [derivation_operator(1, (m + 1,), 1), derivation_operator(1, (-m + 1,), 1)]
        states = lift_iterative(fs)
        assert all(state.residual_is_zero() for state in states)
        tr = states[-1].term((1,)).component("0").trace()
        assert tr == raw_sum(fs) == Fraction(-(m**3 - m), 6)
