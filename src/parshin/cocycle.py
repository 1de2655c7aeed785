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

``phi_closed_form`` is the generalized-Killing-form expression for monomial
multiloop wedges.  The seeded checks of the cocycle identity and of the
closed form live in :mod:`parshin.verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .chains import TensorChain
from .errors import DimensionMismatch, MixedFlavors, NotCentreless
from .laurent import GLaurent, LaurentPoly, _perm_sign
from .liealg import is_centreless, killing_nform
from .opalg import LatticeOperator, derivation_operator, mul_operator
from .residue import raw_sum

FLAVORS = ("multiloop", "scalar", "vectorfield")


@dataclass(frozen=True)
class CocycleInput:
    """A classified wedge f_0 ^ ... ^ f_n of one flavor."""

    n: int
    flavor: str
    entries: tuple

    @staticmethod
    def classify(entries) -> "CocycleInput":
        entries = tuple(entries)
        if not entries:
            raise MixedFlavors("empty cocycle input")
        kinds = set()
        for e in entries:
            if isinstance(e, GLaurent):
                kinds.add("multiloop")
            elif isinstance(e, LaurentPoly):
                kinds.add("scalar")
            elif isinstance(e, LatticeOperator):
                kinds.add("vectorfield")
            else:
                raise MixedFlavors(f"unsupported cocycle entry type {type(e).__name__}")
        if len(kinds) != 1:
            raise MixedFlavors(f"entries mix flavors {sorted(kinds)}")
        flavor = kinds.pop()
        first = entries[0]
        if flavor == "multiloop":
            alg = first.algebra
            if any(e.algebra != alg for e in entries):
                raise MixedFlavors("multiloop entries over different algebras")
        if flavor == "vectorfield" and first.n != 1:
            raise DimensionMismatch("the derivation flavor is restricted to n = 1")
        return CocycleInput(first.n, flavor, entries)


def entry_operator(entry) -> LatticeOperator:
    """The lattice operator an input entry acts by."""
    if isinstance(entry, (GLaurent, LaurentPoly)):
        return mul_operator(entry)
    if isinstance(entry, LatticeOperator):
        return entry
    raise MixedFlavors(f"cannot interpret {type(entry).__name__} as a cocycle entry")


def phi(entries, cuts=None) -> Fraction:
    """The cocycle value on a single wedge f_0 ^ ... ^ f_n."""
    inp = entries if isinstance(entries, CocycleInput) else CocycleInput.classify(entries)
    if len(inp.entries) != inp.n + 1:
        raise DimensionMismatch(
            f"a wedge over n = {inp.n} needs {inp.n + 1} entries, got {len(inp.entries)}"
        )
    return raw_sum([entry_operator(e) for e in inp.entries], cuts)


def phi_wedge_chain(chain: TensorChain, cuts=None) -> Fraction:
    """Linear extension of phi to a formal sum of wedges (scalar heads).

    Each canonical wedge is read with its first factor in the f_0 slot.
    Since the formula's f_0 slot is distinguished, this is only meaningful
    on chains where slot-0 exchange is harmless (e.g. cycles); prefer
    :func:`phi_tensor_chain` when a tensor representative is available.
    """
    total = Fraction(0)
    for coeff, factors in chain.terms:
        total += coeff * phi(factors, cuts)
    return total


def phi_tensor_chain(chain: TensorChain, cuts=None) -> Fraction:
    """phi on a sum of head (x) tail terms, the head held in the f_0 slot."""
    total = Fraction(0)
    for head, tail in chain.terms:
        ops = [entry_operator(head)] + [entry_operator(f) for f in tail]
        total += raw_sum(ops, cuts)
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
    rows = [tuple(int(x) for x in row) for row in exponents]
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
    return derivation_operator(1, (m + 1,), 1)


def virasoro_phi(m, cut=0) -> Fraction:
    """phi(L_m ^ L_-m)."""
    return phi([virasoro_generator(m), virasoro_generator(-m)], cuts=(cut,))


def virasoro_table(max_m, cut=0):
    return [(m, virasoro_phi(m, cut)) for m in range(1, max_m + 1)]

