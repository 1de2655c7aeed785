"""Cocycle specializations: Heisenberg, affine Kac-Moody, Virasoro, closed form."""

import random
from fractions import Fraction

import pytest

from parshin.chains import TensorChain
from parshin.cocycle import (
    flavor,
    phi,
    phi_chain,
    phi_closed_form,
    virasoro_generator,
    virasoro_phi,
    virasoro_table,
)
from parshin.errors import DimensionMismatch, MixedFlavors, NotCentreless
from parshin.laurent import GLaurent, LaurentPoly
from parshin.liealg import abelian, heisenberg3, killing_nform, sl2
from parshin.opalg import derivation_operator
from parshin.sampling import random_lie_element
from parshin.verify import naive_wedge_coboundary, operator_vs_closed_form, verify_cocycle


def gl(alg, name, exp):
    return GLaurent.monomial(1, alg.by_name(name), (exp,))


# -- flavors ---------------------------------------------------------------------

def test_flavor():
    alg = sl2()
    assert flavor([gl(alg, "E", 1), gl(alg, "F", -1)]) == "multiloop"
    assert flavor([LaurentPoly.monomial(1, (2,), 1), LaurentPoly.monomial(1, (-2,), 1)]) == "scalar"
    assert flavor([virasoro_generator(2), virasoro_generator(-2)]) == "vectorfield"


@pytest.mark.parametrize("entries, error, message", [
    (lambda: [], MixedFlavors, "empty cocycle input"),
    (lambda: [sl2().by_name("E"), sl2().by_name("F")], MixedFlavors,
     "unsupported cocycle entry type LieElement"),
    (lambda: [LaurentPoly.monomial(1, (1,), 1), virasoro_generator(-1)], MixedFlavors,
     "entries mix flavors ['scalar', 'vectorfield']"),
    (lambda: [gl(sl2(), "E", 1), gl(heisenberg3(), "x", -1)], MixedFlavors,
     "multiloop entries over different algebras"),
    (lambda: [derivation_operator(2, (1, 0), 1), derivation_operator(2, (0, 1), 2),
              derivation_operator(2, (-1, -1), 1)], DimensionMismatch,
     "the derivation flavor is restricted to n = 1"),
], ids=["empty", "unsupported type", "mixed", "different algebras", "vector fields at n = 2"])
def test_flavor_refusals(entries, error, message):
    with pytest.raises(error) as caught:
        flavor(entries())
    assert str(caught.value) == message


def test_mixed_flavors_rejected():
    alg = sl2()
    with pytest.raises(MixedFlavors):
        phi([gl(alg, "E", 1), LaurentPoly.monomial(1, (-1,), 1)])


# -- Heisenberg --------------------------------------------------------------------

def test_heisenberg_values():
    for a in range(-5, 6):
        assert phi([LaurentPoly.monomial(1, (a,), 1),
                    LaurentPoly.monomial(1, (-a,), 1)]) == a
        assert phi([LaurentPoly.monomial(1, (a,), 1),
                    LaurentPoly.monomial(1, (-a + 2,), 1)]) == 0
    assert phi([LaurentPoly.monomial(1, (-3,), 1), LaurentPoly.monomial(1, (3,), 1)]) == -3


# -- Kac-Moody ----------------------------------------------------------------------

def test_kac_moody_basis_grid():
    alg = sl2()
    names = ("H", "E", "F")
    for n0 in names:
        for n1 in names:
            b_val = killing_nform(alg.by_name(n1), alg.by_name(n0))
            for a in range(-3, 4):
                got = phi([gl(alg, n0, a), gl(alg, n1, -a)])
                assert got == a * b_val  # -b B(Y1, Y0) with b = -a


def test_kac_moody_spot_value():
    alg = sl2()
    assert phi([gl(alg, "E", 2), gl(alg, "F", -2)]) == 8


def test_closed_form_matches():
    alg = sl2()
    E, F = alg.by_name("E"), alg.by_name("F")
    assert phi_closed_form([E, F], [(2,), (-2,)]) == 8
    assert phi_closed_form([E, F], [(2,), (-1,)]) == 0  # column sum violated


def test_closed_form_requires_centreless():
    alg = abelian(2)
    with pytest.raises(NotCentreless):
        phi_closed_form([alg.basis_element(0), alg.basis_element(1)], [(1,), (-1,)])


def test_operator_phi_vanishes_on_abelian_coefficients():
    # ad = 0 for an abelian algebra, so the trace formula gives 0 on any wedge
    alg = abelian(2)
    for a in (-2, 0, 3):
        entries = [GLaurent.monomial(1, alg.basis_element(0), (a,)),
                   GLaurent.monomial(1, alg.basis_element(1), (-a,))]
        assert phi(entries) == 0


def test_operator_vs_closed_form_suites():
    assert operator_vs_closed_form(1, trials=20, seed=0).passed
    assert operator_vs_closed_form(2, trials=10, seed=0).passed


# -- Virasoro -------------------------------------------------------------------------

def test_virasoro_values():
    for m in range(-6, 7):
        assert virasoro_phi(m) == Fraction(-(m**3 - m), 6)
    assert virasoro_phi(2) == -1


def test_virasoro_table():
    assert [(m, str(v)) for m, v in virasoro_table(3)] == [(1, "0"), (2, "-1"), (3, "-4")]


def test_cut_choice_effects():
    # multiplication flavors: translation-invariant weights, values never move
    alg = sl2()
    for cut in (-2, 1, 3):
        assert phi([gl(alg, "E", 2), gl(alg, "F", -2)], cuts=(cut,)) == 8
        assert phi([LaurentPoly.monomial(1, (3,), 1),
                    LaurentPoly.monomial(1, (-3,), 1)], cuts=(cut,)) == 3
    # vector fields: L_m ^ L_-m is not a cycle, so a cut shift may move the
    # value, but only by a coboundary: the difference is linear in m
    for cut in (-2, 1, 3):
        diffs = [virasoro_phi(m, cut=cut) - virasoro_phi(m) for m in range(0, 5)]
        assert all(diffs[i + 2] - 2 * diffs[i + 1] + diffs[i] == 0 for i in range(3))


# -- structural properties --------------------------------------------------------------

def test_gradedness():
    alg = sl2()
    rng = random.Random(0)
    for _ in range(10):
        exps = [tuple(rng.randint(-2, 2) for _ in range(2)) for _ in range(3)]
        if all(sum(e[j] for e in exps) == 0 for j in range(2)):
            continue
        entries = [GLaurent.monomial(2, random_lie_element(rng, alg), e) for e in exps]
        assert phi(entries) == 0


def test_tail_slot_antisymmetry():
    alg = sl2()
    rng = random.Random(1)
    for _ in range(6):
        entries = [GLaurent.monomial(2, random_lie_element(rng, alg),
                                     (rng.randint(-2, 2), rng.randint(-2, 2)))
                   for _ in range(3)]
        swapped = [entries[0], entries[2], entries[1]]
        assert phi(entries) == -phi(swapped)
        assert phi([entries[0], entries[1], entries[1]]) == 0


def test_slot0_antisymmetry_on_cycles():
    # [f0, f1] = 0 makes f0 ^ f1 a cycle; slot swap must negate phi
    alg = sl2()
    for a in range(1, 4):
        one = phi([gl(alg, "H", a), gl(alg, "H", -a)])
        two = phi([gl(alg, "H", -a), gl(alg, "H", a)])
        assert one == -two == 8 * a
    for a in range(1, 4):
        one = phi([LaurentPoly.monomial(1, (a,), 1), LaurentPoly.monomial(1, (-a,), 1)])
        two = phi([LaurentPoly.monomial(1, (-a,), 1), LaurentPoly.monomial(1, (a,), 1)])
        assert one == -two == a


# -- the cocycle identity ------------------------------------------------------------------

def test_cocycle_property_small():
    assert verify_cocycle("multiloop", 1, trials=25, seed=3).passed
    assert verify_cocycle("vectorfield", 1, trials=25, seed=3).passed
    assert verify_cocycle("scalar", 1, trials=10, seed=3).passed


def test_cocycle_property_n2_spot():
    assert verify_cocycle("multiloop", 2, trials=6, seed=3, degree_bound=2).passed


def test_cocycle_shifted_cuts():
    assert verify_cocycle("multiloop", 1, trials=10, seed=4, cuts=(2,)).passed


def test_phi_chain_matches_phi_on_single_terms():
    alg = sl2()
    chain = TensorChain.single(gl(alg, "E", 2), (gl(alg, "F", -2),))
    assert phi_chain(chain) == phi([gl(alg, "E", 2), gl(alg, "F", -2)])
    # a Fraction head scales phi of its wedge tail: 3 * phi(t^2 ^ t^-2) = 3 * 2
    wedge = TensorChain.single(Fraction(3), (LaurentPoly.monomial(1, (2,), 1),
                                             LaurentPoly.monomial(1, (-2,), 1)))
    assert phi_chain(wedge) == 6


def test_naive_wedge_evaluation_n1_vanishes():
    assert all(v == 0 for v in naive_wedge_coboundary("multiloop", 1, trials=8, seed=5))


def test_naive_wedge_evaluation_n2_defect_exists():
    # the first-slot reading of wedge boundaries is NOT zero for n = 2:
    # the formula's f0 slot is genuinely distinguished off cycles
    values = naive_wedge_coboundary("multiloop", 2, trials=8, seed=2)
    assert any(v != 0 for v in values)
