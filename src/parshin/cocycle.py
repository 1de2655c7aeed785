"""The Tate-type (n+1)-cocycle on subalgebras of the infinite matrix algebra.

``phi`` evaluates the bare operator-trace sum (no global prefactor: the
n = 1 specializations below fix this normalization) on three input flavors:

* ``scalar``     -- Laurent polynomials acting by multiplication (d = 1);
  for n = 1 this is the Heisenberg 2-cocycle  phi(t^a ^ t^b) = a d_(a+b,0).
* ``multiloop``  -- g[t^+-...] acting through the adjoint representation;
  for sl2, n = 1 this is the affine Kac-Moody cocycle
  phi(Y0 t^a ^ Y1 t^b) = -b d_(a+b,0) B(Y1, Y0).
* ``vectorfield`` -- n = 1 derivations t^s d/dt; on L_m = t^(m+1) d/dt this
  is the Virasoro cocycle  phi(L_m ^ L_-m) = -(m^3 - m)/6.

``flavor`` reads the one flavor a wedge's entries share from their types;
``phi`` evaluates a wedge, and ``phi_chain`` extends it linearly to chains.
A wedge whose entries are each one term acting by a nonzero matrix (every
monomial the chain reader builds, save the ad of a centre element) goes
straight to ``residue.word_sum``, with no lattice operator built.  It reads
each term once (its shift, its weight and its matrix: (1) for a scalar,
ad(Y) for Y t^s), factors the weights and the rational content of the
matrices out of the sum once, and sums int matrix products over the sets of
indices placed, not over words.  Any other wedge goes to the operator walk
``residue.raw_sum`` on the entries' operators: a derivation wedge (whose
weight lam_axis is not constant) at once, and a scalar or multiloop wedge
with a sum, a zero entry or an entry acting by zero (such as the ad of a
centre element) once ``word_sum`` has refused it.
``phi_closed_form`` is the generalized-Killing-form expression for monomial
multiloop wedges.  The seeded checks of the cocycle identity and of the
closed form live in :mod:`parshin.verify`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DimensionMismatch, MixedFlavors, NotCentreless
from .laurent import GLaurent, LaurentPoly, _perm_sign
from .liealg import is_centreless, killing_nform
from .matrices import integer
from .opalg import LatticeOperator, derivation_operator, mul_operator
from .residue import raw_sum, word_sum

_FLAVOR_OF_TYPE = {GLaurent: "multiloop", LaurentPoly: "scalar", LatticeOperator: "vectorfield"}
FLAVORS = tuple(sorted(_FLAVOR_OF_TYPE.values()))


def flavor(entries) -> str:
    """The one flavor the sequence f_0, ..., f_n shares, read from the entry
    types; MixedFlavors or DimensionMismatch when no flavor admits them."""
    if not entries:
        raise MixedFlavors("empty cocycle input")
    kinds = set()
    for e in entries:
        kind = _FLAVOR_OF_TYPE.get(type(e))
        if kind is None:
            raise MixedFlavors(f"unsupported cocycle entry type {type(e).__name__}")
        kinds.add(kind)
    if len(kinds) != 1:
        raise MixedFlavors(f"entries mix flavors {sorted(kinds)}")
    kind = kinds.pop()
    first = entries[0]
    if kind == "multiloop" and any(e.algebra != first.algebra for e in entries):
        raise MixedFlavors("multiloop entries over different algebras")
    if kind == "vectorfield" and first.n != 1:
        raise DimensionMismatch("the derivation flavor is restricted to n = 1")
    return kind


def phi(entries, cuts=None) -> Fraction:
    """The cocycle value on a single wedge f_0 ^ ... ^ f_n.

    A scalar or multiloop wedge goes to ``word_sum``, which reads each term
    once and refuses, with its only ValueError and before it sums anything,
    an entry that is not one term acting by a nonzero matrix (a sum, a zero
    entry, the ad of a centre element).  That wedge and a derivation wedge
    go to ``raw_sum``.  Both give the same value, and share their other
    refusals.
    """
    entries = tuple(entries)
    flavor(entries)
    if not isinstance(entries[0], LatticeOperator):
        try:
            return word_sum(entries, cuts)
        except ValueError:
            pass
    return raw_sum([e if isinstance(e, LatticeOperator) else mul_operator(e) for e in entries], cuts)


def phi_chain(chain, cuts=None) -> Fraction:
    """Linear extension of phi to a ``TensorChain``, a sum of head (x) tail terms.

    A ``Fraction`` head scales phi of its tail; any other head sits in the
    f_0 slot.  The f_0 slot is distinguished, so a wedge chain read this way
    means something only where slot-0 exchange is harmless (e.g. on cycles).
    """
    total = Fraction(0)
    for head, tail in chain.terms:
        if isinstance(head, Fraction):
            total += head * phi(tail, cuts)
        else:
            total += phi((head,) + tail, cuts)
    return total


def phi_closed_form(elements, exponents) -> Fraction:
    """Generalized-Killing-form value on a monomial multiloop wedge.

    For Y_p t^(c_p) with exponent rows c_0 ... c_n:
        (-1)^n  sum over pi of sgn(pi) B(Y_pi(1), ..., Y_pi(n), Y_0)
                prod_i c_(pi(i), i)
    when all column sums vanish, and zero otherwise.  Requires a centreless
    algebra (faithful adjoint representation).
    """
    elements = list(elements)
    rows = [tuple(integer(x, "exponent") for x in row) for row in exponents]
    n = len(elements) - 1
    if len(rows) != n + 1 or any(len(r) != n for r in rows):
        raise DimensionMismatch("exponent matrix must be (n+1) x n matching the elements")
    alg = elements[0].algebra
    if not is_centreless(alg):
        raise NotCentreless("the closed form presumes a faithful adjoint representation")
    for j in range(n):
        if sum(row[j] for row in rows) != 0:
            return Fraction(0)
    total = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        prod = Fraction(_perm_sign(perm))
        for i in range(1, n + 1):
            prod *= rows[perm[i - 1]][i - 1]
        if prod == 0:
            continue
        ordered = [elements[p] for p in perm] + [elements[0]]
        total += prod * killing_nform(*ordered)
    return total if n % 2 == 0 else -total


# ---------------------------------------------------------------------------
# Specializations
# ---------------------------------------------------------------------------

def virasoro_generator(m) -> LatticeOperator:
    """L_m = t^(m+1) d/dt, as the operator it acts by."""
    return derivation_operator(1, (integer(m, "Virasoro index") + 1,), 1)


def virasoro_phi(m, cut=0) -> Fraction:
    """phi(L_m ^ L_-m)."""
    return phi([virasoro_generator(m), virasoro_generator(-m)], cuts=(cut,))


def virasoro_table(max_m, cut=0):
    return [(m, virasoro_phi(m, cut)) for m in range(1, max_m + 1)]

