"""Chevalley-Eilenberg chain machinery with pluggable coefficient modules.

One container, ``TensorChain``, for sums of head (x) f_1 ^ ... ^ f_r with the
head in a module carrying a bracket action.  A ``Fraction`` head lies in the
trivial module k (the algebra acts by zero), so a rational combination of
pure wedges f_0 ^ ... ^ f_r is a chain of length r + 1 with scalar heads.
Tails are formal wedges kept in a canonical sorted order with sign tracking;
terms with a repeated factor are dropped.

Every participating element type exposes ``scale``, ``__add__`` and
``is_zero``, and ``bracket_of`` brackets two elements of one type: Laurent
polynomials to zero (abelian), lattice operators by commutator, Lie and
loop elements by their own ``bracket``.  A head other than a scalar is acted
on by the same bracket, so it shares its tail factors' type.  The spectral-sequence
lift (``cube.lift_iterative``) keeps its own bookkeeping and does not use
these chains.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, ModuleActionUndefined, shown
from .laurent import GLaurent, LaurentPoly, _perm_sign
from .liealg import LieElement, rational_from_json
from .opalg import LatticeOperator, atom_key, derivation_operator


def bracket_of(a, b):
    """Lie bracket in the acting algebra, dispatched on type; 0 on a scalar head."""
    if isinstance(a, LaurentPoly) and isinstance(b, LaurentPoly):
        a._check(b)
        return LaurentPoly.zero(a.n)
    if isinstance(a, LatticeOperator) and isinstance(b, LatticeOperator):
        return a.commutator(b)
    if type(a) is type(b) and hasattr(a, "bracket"):
        return a.bracket(b)
    if isinstance(a, Fraction):
        return Fraction(0)
    raise ModuleActionUndefined(
        f"no bracket between {type(a).__name__} and {type(b).__name__}"
    )


def element_key(x):
    """Stable total order on generators, used to canonicalize wedge tails."""
    if isinstance(x, LieElement):
        return ("lie", x.coeffs)
    if isinstance(x, LaurentPoly):
        return ("poly", x.n, x.terms)
    if isinstance(x, GLaurent):
        return ("gla", x.n, x.terms)
    if isinstance(x, LatticeOperator):
        return ("op", x.n, x.d, tuple(atom_key(a) for a in x.atoms))
    raise ModuleActionUndefined(f"no canonical key for {type(x).__name__}")


def expand_factor(x):
    """Decompose a wedge factor into (scalar, basis monomial) pieces.

    The wedge is multilinear, so tails are canonicalized over basis
    monomials: without this, sums hiding in a factor slot (e.g. a Jacobi
    combination) would not cancel.  Lattice operators have no preferred
    basis and stay opaque.
    """
    if isinstance(x, LieElement):
        alg = x.algebra
        return [(c, alg.basis_element(k)) for k, c in enumerate(x.coeffs) if c != 0]
    if isinstance(x, LaurentPoly):
        return [(c, LaurentPoly.monomial(x.n, exp, 1)) for exp, c in x.terms]
    if isinstance(x, GLaurent):
        # a one-term GLaurent of a unit coefficient vector is already canonical
        return [(c, GLaurent(x.n, x.algebra, ((exp, x.algebra.basis_element(k).coeffs),)))
                for exp, coeffs in x.terms for k, c in enumerate(coeffs) if c != 0]
    if isinstance(x, LatticeOperator):
        if x.is_structurally_zero():
            return []
        # extract the leading scalar so scalar multiples share one wedge key
        lead = x.atoms[0].weight.terms[0][1]
        return [(lead, x.scale(Fraction(1) / lead))]
    return [(Fraction(1), x)]


def _expand_tail(factors):
    """Multilinear expansion of a tail: yields (scalar, tuple of basis monomials)."""
    pieces = [expand_factor(f) for f in factors]
    if any(not p for p in pieces):
        return
    stack = [(Fraction(1), ())]
    for options in pieces:
        stack = [(c * c2, tail + (unit,)) for c, tail in stack for c2, unit in options]
    yield from stack


def _sort_with_sign(factors):
    """Sort by element_key; returns (sign, sorted) or (0, ()) on repeats."""
    keys = [element_key(f) for f in factors]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    previous = None
    for i in order:
        if keys[i] == previous:
            return 0, ()
        previous = keys[i]
    return _perm_sign(order), tuple([factors[i] for i in order])


def _scaled(head, c):
    return head * c if isinstance(head, Fraction) else head.scale(c)


def _is_zero_element(x):
    if isinstance(x, Fraction):
        return x == 0
    if isinstance(x, LatticeOperator):
        return x.is_structurally_zero() or x.is_zero()
    return x.is_zero()


@dataclass(frozen=True)
class TensorChain:
    """Formal sum of head (x) (f_1 ^ ... ^ f_r) terms of one wedge length r.

    A ``Fraction`` head is a coefficient in the trivial module, so the pure
    wedge c f_0 ^ ... ^ f_r is the chain c (x) f_0 ^ ... ^ f_r of length r + 1.
    """

    r: int
    terms: tuple  # ((head, tail), ...) with canonical tails, merged heads

    @staticmethod
    def make(r, items) -> "TensorChain":
        merged = {}
        for head, tail in items:
            if len(tail) != r:
                raise ValueError(f"tail of length {len(tail)} in a chain of wedge length {r}")
            if isinstance(head, Fraction) and not head:
                continue
            for scalar, expanded in _expand_tail(tail):
                sign, sorted_tail = _sort_with_sign(expanded)
                if sign == 0:
                    continue
                c = sign * scalar
                term_head = head if c == 1 else _scaled(head, c)
                key = tuple(element_key(f) for f in sorted_tail)
                if key in merged:
                    merged[key] = (merged[key][0] + term_head, sorted_tail)
                else:
                    merged[key] = (term_head, sorted_tail)
        terms = tuple(
            (head, tail) for _, (head, tail) in sorted(merged.items(), key=lambda kv: kv[0])
            if not _is_zero_element(head)
        )
        return TensorChain(r, terms)

    @staticmethod
    def single(head, tail) -> "TensorChain":
        return TensorChain.make(len(tail), [(head, tuple(tail))])

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.r != other.r:
            raise ValueError("cannot add chains of different wedge length")
        return TensorChain.make(self.r, list(self.terms) + list(other.terms))

    def scale(self, c):
        return TensorChain.make(self.r, [(_scaled(h, c), t) for h, t in self.terms])

    def __sub__(self, other):
        return self + other.scale(-1)

    def ce_diff(self) -> "TensorChain":
        """sum_i (-1)^i [f_0, f_i] (x) ...omit f_i...
        + sum_(i<j) (-1)^(i+j+1) f_0 (x) [f_i, f_j] ^ ...omit both...

        With a scalar head the first half vanishes, leaving the
        trivial-coefficient differential of the wedge.
        """
        items = []
        for head, tail in self.terms:
            signed = (head, _scaled(head, -1))
            for i, f in enumerate(tail):
                bracket = bracket_of(head, f)
                items.append((bracket if i % 2 else _scaled(bracket, -1), tail[:i] + tail[i + 1:]))
            for i, j in itertools.combinations(range(len(tail)), 2):
                rest = tail[:i] + tail[i + 1:j] + tail[j + 1:]
                items.append((signed[(i + j) % 2 == 0], (bracket_of(tail[i], tail[j]),) + rest))
        return TensorChain.make(self.r - 1, items)

    def map_I(self) -> "TensorChain":
        """f_0 (x) f_1 ^ ... ^ f_r -> (-1)^r f_0 ^ f_1 ^ ... ^ f_r, with scalar heads."""
        sign = Fraction((-1) ** self.r)
        return TensorChain.make(
            self.r + 1, [(sign, (head,) + tail) for head, tail in self.terms]
        )


# ---------------------------------------------------------------------------
# Chain JSON (CLI surface)
# ---------------------------------------------------------------------------
#
# {"n": 2, "algebra": "<path or 'scalar'>",
#  "terms": [{"coeff": "1",
#             "factors": [{"Y": "E", "exp": [1, 0]},
#                         {"Y": "F", "exp": [-1, 0]}]}]}
#
# The first factor of each term is f_0, the rest form the wedge tail.  Scalar
# factors use {"exp": [...], "coeff": "3/2"?}; vector-field factors (n = 1)
# use {"s": [2], "i": 1, "coeff": "3/2"?} for t^s d/dt_i.  Every coeff is an
# int or a "p" / "p/q" string (``liealg.rational_from_json``).

def factor_from_json(doc, n, algebra=None):
    if not isinstance(doc, dict):
        raise ValueError(f"a chain factor must be an object, got {shown(doc)}")
    if "s" in doc:
        if "Y" in doc or "exp" in doc:
            raise ValueError(f"chain factor {shown(doc)} holds 's' with 'Y' or 'exp'; give one of them")
        axis = doc.get("i", 1)
        if type(axis) is not int:
            raise ValueError(f"chain factor {shown(doc)} needs an integer 'i'")
        operator = derivation_operator(n, _int_list(doc, "s"), axis)
        if "coeff" in doc:
            operator = operator.scale(rational_from_json(doc["coeff"], "chain factor"))
        return operator
    if "Y" in doc:
        if algebra is None:
            raise ValueError("Lie-algebra factors need an algebra")
        element = algebra.by_name(doc["Y"])
        if "coeff" in doc:
            element = element.scale(rational_from_json(doc["coeff"], "chain factor"))
        return GLaurent.monomial(n, element, _int_list(doc, "exp"))
    return LaurentPoly.monomial(n, _int_list(doc, "exp"), rational_from_json(doc.get("coeff", 1), "chain factor"))


def _int_list(doc, key):
    value = doc.get(key)
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"chain factor {shown(doc)} needs {key!r} as a list of integers")
    return tuple(value)


def read_chain(doc, algebra=None, max_n=None) -> tuple:
    """(n, [(coeff, factors), ...]) of a chain document, f_0 first in each term.

    n must be at least 1, and at most ``max_n`` when given; it is checked
    before any factor is read.
    """
    if not isinstance(doc, dict) or type(doc.get("n")) is not int or not isinstance(doc.get("terms"), list):
        raise ArityError("a chain document needs an integer 'n' and a 'terms' list")
    n = doc["n"]
    if n < 1:
        raise ArityError(f"n = {n} is below 1: a chain needs at least one variable")
    if max_n is not None and n > max_n:
        raise ArityError(f"n = {n} exceeds the cap n <= {max_n}")
    terms = []
    for term in doc["terms"]:
        factors = term.get("factors") if isinstance(term, dict) else None
        if not isinstance(factors, list):
            raise ValueError(f"chain term {shown(term)} needs a 'factors' list")
        terms.append((rational_from_json(term.get("coeff", 1), "chain term"),
                      tuple(factor_from_json(f, n, algebra) for f in factors)))
    return n, terms
