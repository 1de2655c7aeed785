"""Seeded random generators for tests and verification suites.

All randomness flows through :class:`random.Random` seeded by the caller
(CPython's Mersenne Twister, MT19937), so every trial is reproducible from
its seed.  Any integer is a seed, 0 included; the CLI's fixture suite ignores
``--seed`` and draws its rho check from seed 0.
"""

from __future__ import annotations

from fractions import Fraction

from .cube import CubeElement, sign_strings
from .laurent import LaurentPoly
from .liealg import LieAlgebra
from .matrices import matrix
from .opalg import Box, KernelAtom, LatticeOperator


def random_fraction(rng, span=3, max_den=3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def random_nonzero_fraction(rng, span=3, max_den=3) -> Fraction:
    while True:
        q = random_fraction(rng, span, max_den)
        if q != 0:
            return q


def random_exponent(rng, n, bound) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def random_laurent(rng, n, max_terms=3, exp_bound=3) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_exponent(rng, n, exp_bound)] = random_nonzero_fraction(rng)
    return LaurentPoly.make(n, terms)


def random_lie_element(rng, algebra: LieAlgebra, span=2):
    while True:
        el = algebra.element([rng.randint(-span, span) for _ in range(algebra.dim)])
        if not el.is_zero():
            return el


def random_matrix(rng, d, span=2):
    while True:
        m = matrix([[rng.randint(-span, span) for _ in range(d)] for _ in range(d)])
        if any(x != 0 for row in m for x in row):
            return m


def random_weight(rng, n, max_degree=1) -> LaurentPoly:
    terms = {(0,) * n: random_nonzero_fraction(rng, span=2, max_den=2)}
    if max_degree >= 1 and rng.random() < 0.5:
        axis = rng.randrange(n)
        deg = tuple(1 if i == axis else 0 for i in range(n))
        terms[deg] = Fraction(rng.randint(-2, 2))
    return LaurentPoly.make(n, terms)


def random_box_for_sign(rng, sign_string, bound=3) -> tuple:
    """A box satisfying the axis constraints of a cube sign string."""
    bounds = []
    for ch in sign_string:
        if ch == "+":
            bounds.append((rng.randint(-bound, bound), None))
        elif ch == "-":
            bounds.append((None, rng.randint(-bound, bound)))
        else:
            lo = rng.randint(-bound, bound - 1)
            bounds.append((lo, rng.randint(lo + 1, bound + 1)))
    return Box.of(bounds)


def random_cube_element(rng, n, p, d=1, atoms_per_component=2, shift_bound=2) -> CubeElement:
    """Random element of N^p with membership guaranteed by box construction."""
    components = {}
    for s in sign_strings(n, p):
        atoms = []
        for _ in range(rng.randint(1, atoms_per_component)):
            atoms.append(KernelAtom(
                random_exponent(rng, n, shift_bound),
                random_matrix(rng, d) if d > 1 else matrix([[1]]),
                random_weight(rng, n),
                random_box_for_sign(rng, s),
            ))
        components[s] = LatticeOperator.make(n, d, atoms)
    return CubeElement.make(n, d, p, components)


def random_operator(rng, n, d=1, atoms=2, shift_bound=2, box_bound=3) -> LatticeOperator:
    """Random bounded-box operator (member of the trace ideal)."""
    out = []
    for _ in range(atoms):
        bounds = []
        for _ in range(n):
            lo = rng.randint(-box_bound, box_bound - 1)
            bounds.append((lo, rng.randint(lo + 1, box_bound + 1)))
        out.append(KernelAtom(
            random_exponent(rng, n, shift_bound),
            random_matrix(rng, d) if d > 1 else matrix([[1]]),
            random_weight(rng, n),
            Box.of(bounds),
        ))
    return LatticeOperator.make(n, d, out)
