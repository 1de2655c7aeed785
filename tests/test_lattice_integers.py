"""Lattice data is read as exact integers at every library boundary.

Exponents, cut points and derivation shifts index the lattice Z^n.  Each
entry point takes an ``int`` or a ``Fraction`` with denominator 1 (read as
that int) and refuses anything else with a ``TypeError`` naming the datum,
instead of truncating it as ``int(x)`` would.
"""

from fractions import Fraction

import pytest

import parshin
from parshin.cocycle import phi, phi_closed_form, virasoro_phi
from parshin.cube import epsilon, homotopy, homotopy_hat, lift_closed_form, lift_iterative
from parshin.laurent import GLaurent, LaurentPoly
from parshin.liealg import sl2
from parshin.matrices import integer
from parshin.opalg import _cuts, derivation_operator, mul_operator, projector
from parshin.residue import ack_residue_n1, raw_sum, residue, residue_det_monomial

E, F = sl2().by_name("E"), sl2().by_name("F")
T, T_INV = LaurentPoly.variable(1, 1), LaurentPoly.monomial(1, (-1,), 1)
OPS = [mul_operator(T_INV), mul_operator(T)]
N1 = homotopy_hat(OPS[0])

# site -> (what the refusal names, x -> a value comparable across inputs);
# every site but _cuts is an entry point in parshin.__all__, named first
SITES = {
    "_cuts": ("cut point", lambda x: _cuts(1, [x])),
    "projector cut": ("cut point", lambda x: projector(1, 1, "+", cut=x).atoms),
    "derivation_operator shift": ("derivation shift", lambda x: derivation_operator(1, (x,), 1).atoms),
    "residue_det_monomial": ("exponent", lambda x: residue_det_monomial([(x,), (-2,)])),
    "phi_closed_form rows": ("exponent", lambda x: phi_closed_form([E, F], [(x,), (-2,)])),
    "LaurentPoly.make": ("exponent", lambda x: LaurentPoly.make(1, {(x,): 1})),
    "GLaurent.make": ("exponent", lambda x: GLaurent.make(1, sl2(), {(x,): E})),
    "residue cuts, balanced form": ("cut point", lambda x: residue(T_INV, [T], (x,))),
    "residue cuts, unbalanced form": ("cut point", lambda x: residue(T, [T], (x,))),
    "raw_sum cuts": ("cut point", lambda x: raw_sum(OPS, (x,))),
    "phi cuts": ("cut point", lambda x: phi([T_INV, T], (x,))),
    "ack_residue_n1 cut": ("cut point", lambda x: ack_residue_n1(*OPS, cut=x)),
    "virasoro_phi cut": ("cut point", lambda x: virasoro_phi(2, cut=x)),
    "virasoro_phi m": ("Virasoro index", lambda x: virasoro_phi(x)),
    "homotopy cuts": ("cut point", lambda x: homotopy(N1, (x,))),
    "epsilon cuts": ("cut point", lambda x: epsilon(N1, 1, (x,))),
    "homotopy_hat cuts": ("cut point", lambda x: homotopy_hat(OPS[0], (x,))),
    "lift_iterative cuts": ("cut point", lambda x: lift_iterative(OPS, (x,))),
    "lift_closed_form cuts": ("cut point", lambda x: lift_closed_form(OPS, 1, (x,))),
}


def test_every_site_but_cuts_is_a_public_entry_point():
    names = {site.split()[0].split(".")[0] for site in SITES} - {"_cuts"}
    assert names <= set(parshin.__all__)


@pytest.mark.parametrize("site", sorted(SITES))
@pytest.mark.parametrize("bad", [Fraction(3, 2), 1.5, True, "2"], ids=repr)
def test_a_non_integer_is_refused(site, bad):
    what, call = SITES[site]
    with pytest.raises(TypeError, match=f"^{what} must be an integer, got "):
        call(bad)


@pytest.mark.parametrize("site", sorted(SITES))
def test_an_integral_fraction_reads_as_its_int(site):
    _, call = SITES[site]
    assert call(Fraction(4, 2)) == call(2)


def test_integral_fraction_exponents_are_held_as_ints():
    for poly in (LaurentPoly.make(1, {(Fraction(4, 2),): 1}), GLaurent.make(1, sl2(), {(Fraction(4, 2),): E})):
        assert [type(e) for exp, _ in poly.terms for e in exp] == [int]
    assert [type(c) for c in _cuts(2, [Fraction(-6, 3), 5])] == [int, int]


def test_integer():
    assert integer(7, "x") == 7 and integer(Fraction(-8, 4), "x") == -2
    assert type(integer(Fraction(-8, 4), "x")) is int
    for bad in (False, 2.0, Fraction(1, 3), None):
        with pytest.raises(TypeError, match="^x must be an integer"):
            integer(bad, "x")
