"""Seeded samplers: canonical values built from the draws, equal to the validating builders'."""

import random
from fractions import Fraction

import pytest

from parshin import sampling
from parshin.cube import CubeElement, sign_strings
from parshin.laurent import LaurentPoly
from parshin.matrices import matrix
from parshin.opalg import KernelAtom, LatticeOperator
from parshin.sampling import (
    random_box_for_sign,
    random_exponent,
    random_nonzero_fraction,
)


# -- reference builders: the same draws, through LaurentPoly.make and matrix ------

def reference_laurent(rng, n, max_terms=3, exp_bound=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_exponent(rng, n, exp_bound)] = random_nonzero_fraction(rng)
    return LaurentPoly.make(n, terms)


def reference_matrix(rng, d, span=2):
    while True:
        m = matrix([[rng.randint(-span, span) for _ in range(d)] for _ in range(d)])
        if any(x != 0 for row in m for x in row):
            return m


def reference_weight(rng, n, max_degree=1):
    terms = {(0,) * n: random_nonzero_fraction(rng, span=2, max_den=2)}
    if max_degree >= 1 and rng.random() < 0.5:
        axis = rng.randrange(n)
        deg = tuple(1 if i == axis else 0 for i in range(n))
        terms[deg] = Fraction(rng.randint(-2, 2))
    return LaurentPoly.make(n, terms)


def reference_cube_element(rng, n, p, d=1, atoms_per_component=2, shift_bound=2):
    components = {}
    for s in sign_strings(n, p):
        atoms = []
        for _ in range(rng.randint(1, atoms_per_component)):
            atoms.append(KernelAtom(
                random_exponent(rng, n, shift_bound),
                reference_matrix(rng, d) if d > 1 else matrix([[1]]),
                reference_weight(rng, n),
                random_box_for_sign(rng, s),
            ))
        components[s] = LatticeOperator.make(n, d, atoms)
    return CubeElement.make(n, d, p, components)


def reference_operator(rng, n, d=1, atoms=2, shift_bound=2, box_bound=3):
    out = []
    for _ in range(atoms):
        bounds = []
        for _ in range(n):
            lo = rng.randint(-box_bound, box_bound - 1)
            bounds.append((lo, rng.randint(lo + 1, box_bound + 1)))
        out.append(KernelAtom(
            random_exponent(rng, n, shift_bound),
            reference_matrix(rng, d) if d > 1 else matrix([[1]]),
            reference_weight(rng, n),
            tuple(bounds),
        ))
    return LatticeOperator.make(n, d, out)


# -- equal values, equal entry types, equal generator state ------------------------

def typed(x):
    """x with the type of every number in it, so that 1 and Fraction(1) differ."""
    if isinstance(x, LatticeOperator):
        return ("op", x.n, x.d, typed(x.atoms))
    if isinstance(x, CubeElement):
        return ("cube", x.n, x.d, x.p, typed(sorted(x.components.items())))
    if isinstance(x, KernelAtom):
        return ("atom", typed(x.shift), typed(x.matrix), typed(x.weight), typed(x.box))
    if isinstance(x, LaurentPoly):
        return ("poly", x.n, typed(x.terms))
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    return (type(x).__name__, x)


CASES = [
    (sampling.random_laurent, reference_laurent, [(1,), (2,), (3,), (2, 5, 1)]),
    (sampling.random_matrix, reference_matrix, [(1,), (2,), (3,), (3, 1)]),
    (sampling.random_weight, reference_weight, [(1,), (2,), (3,), (2, 0)]),
    (sampling.random_operator, reference_operator, [(1,), (2, 3), (3, 1, 3)]),
    (sampling.random_cube_element, reference_cube_element,
     [(1, 1), (1, 2, 3), (2, 1), (2, 2, 3), (2, 3), (3, 1), (3, 2, 3), (3, 4)]),
]


@pytest.mark.parametrize("sample, reference, shapes", CASES, ids=[c[0].__name__ for c in CASES])
def test_samplers_build_the_validating_builders_values_from_the_same_draws(sample, reference, shapes):
    for seed in range(60):
        for shape in shapes:
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got, want = sample(rng, *shape), reference(ref_rng, *shape)
            assert typed(got) == typed(want), (seed, shape)
            assert rng.getstate() == ref_rng.getstate(), (seed, shape)
