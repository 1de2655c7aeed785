"""Finite-dimensional Lie algebras over exact rationals.

An algebra is given by structure constants on a chosen basis.  Validation
checks antisymmetry and the Jacobi identity on every basis pair/triple, so a
constructed :class:`LieAlgebra` is always an actual Lie algebra.  Everything
downstream (adjoint matrices, the generalized Killing form, centre detection)
is computed exactly with :class:`fractions.Fraction`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (AntisymmetryViolation, ArityError, DimensionMismatch, JacobiViolation,
                     MixedAlgebras, ParshinError)
from .matrices import mat_mul, mat_trace, matrix, rank


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra with basis ``basis_names`` and bracket table ``table``.

    ``table[i][j]`` is the coefficient vector of [e_i, e_j].  Instances are
    immutable and hashable; construct them through :func:`validate` or the
    fixture constructors below, which enforce the Lie axioms.
    """

    dim: int
    basis_names: tuple
    table: tuple  # table[i][j] -> tuple of Fraction, coefficients of [e_i, e_j]

    def element(self, coeffs) -> "LieElement":
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise DimensionMismatch(f"coefficient vector of length {len(coeffs)} for dim {self.dim}")
        return LieElement(self, coeffs)

    def basis_element(self, i) -> "LieElement":
        return self.element(tuple(1 if k == i else 0 for k in range(self.dim)))

    def by_name(self, name) -> "LieElement":
        if name not in self.basis_names:
            raise ValueError(
                f"unknown basis element {name!r}; the basis is {', '.join(self.basis_names)}"
            )
        return self.basis_element(self.basis_names.index(name))

    def zero(self) -> "LieElement":
        return self.element((0,) * self.dim)

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]


@dataclass(frozen=True)
class LieElement:
    algebra: LieAlgebra
    coeffs: tuple

    def __add__(self, other):
        _same_algebra(self, other)
        return LieElement(self.algebra, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return LieElement(self.algebra, tuple(c * a for a in self.coeffs))

    def bracket(self, other) -> "LieElement":
        _same_algebra(self, other)
        alg = self.algebra
        acc = [Fraction(0)] * alg.dim
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                vec = alg.table[i][j]
                ab = a * b
                for k, v in enumerate(vec):
                    if v != 0:
                        acc[k] += ab * v
        return LieElement(alg, tuple(acc))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise MixedAlgebras("elements belong to different Lie algebras")


def validate(structure, dim=None, basis_names=None) -> LieAlgebra:
    """Check a bracket table and return the algebra iff it is a Lie algebra.

    ``structure`` is either a full ``dim x dim`` table of coefficient vectors
    or a sparse mapping ``(i, j) -> coefficient vector`` (missing entries are
    zero).  Raises :class:`AntisymmetryViolation` or :class:`JacobiViolation`
    naming the offending basis pair/triple.
    """
    if isinstance(structure, dict):
        if dim is None:
            raise ValueError("dim is required with a sparse structure map")
        zero = (Fraction(0),) * dim
        full = [[list(zero) for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in structure.items():
            if isinstance(vec, dict):
                row = [Fraction(0)] * dim
                for k, c in vec.items():
                    row[int(k)] = Fraction(c)
                vec = row
            full[i][j] = [Fraction(c) for c in vec]
    else:
        full = [[[Fraction(c) for c in vec] for vec in row] for row in structure]
        if dim is None:
            dim = len(full)
    if len(full) != dim or any(len(row) != dim for row in full):
        raise ValueError("structure table is not square")

    table = tuple(tuple(tuple(vec) for vec in row) for row in full)
    for i in range(dim):
        for j in range(dim):
            if any(a != -b for a, b in zip(table[i][j], table[j][i])):
                raise AntisymmetryViolation(i, j)

    alg = LieAlgebra(dim, tuple(basis_names or (f"e{i}" for i in range(dim))), table)
    basis = alg.basis()
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                x, y, z = basis[i], basis[j], basis[k]
                total = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
                if not total.is_zero():
                    raise JacobiViolation(i, j, k)
    return alg


def ad(y: LieElement):
    """Matrix of x -> [y, x] in the basis (column j is [y, e_j])."""
    alg = y.algebra
    cols = []
    for j in range(alg.dim):
        col = [Fraction(0)] * alg.dim
        for i, a in enumerate(y.coeffs):
            if a == 0:
                continue
            for k, v in enumerate(alg.table[i][j]):
                if v != 0:
                    col[k] += a * v
        cols.append(col)
    return matrix(zip(*cols))


def killing_nform(*elements) -> Fraction:
    """Trace over End(g) of ad(Y_0) ad(Y_1) ... ad(Y_n).

    For two arguments on a semisimple algebra this is the classical Killing
    form; the general version is multilinear but only cyclically symmetric.
    """
    if not elements:
        raise ValueError("killing_nform needs at least one element")
    alg = elements[0].algebra
    for el in elements[1:]:
        if el.algebra != alg:
            raise MixedAlgebras("killing_nform arguments from different algebras")
    prod = ad(elements[0])
    for el in elements[1:]:
        prod = mat_mul(prod, ad(el))
    return mat_trace(prod)


@lru_cache(maxsize=None)
def is_centreless(alg: LieAlgebra) -> bool:
    """True iff Y -> ad(Y) has trivial kernel (exact rank of the stacked system)."""
    if alg.dim == 0:
        return True
    rows = []
    ad_basis = [ad(alg.basis_element(i)) for i in range(alg.dim)]
    for r in range(alg.dim):
        for c in range(alg.dim):
            rows.append(tuple(ad_basis[b][r][c] for b in range(alg.dim)))
    return rank(tuple(rows)) == alg.dim


# ---------------------------------------------------------------------------
# Built-in fixtures
# ---------------------------------------------------------------------------

def abelian(d) -> LieAlgebra:
    """The abelian Lie algebra of dimension d (all brackets zero)."""
    return validate({}, dim=d)


def heisenberg3() -> LieAlgebra:
    """Three-dimensional Heisenberg algebra: [e1, e2] = e3 (0-indexed [e0,e1]=e2)."""
    return validate({(0, 1): {2: 1}, (1, 0): {2: -1}}, dim=3, basis_names=("x", "y", "z"))


def sl2() -> LieAlgebra:
    """sl2 with basis (H, E, F): [H,E]=2E, [H,F]=-2F, [E,F]=H."""
    structure = {
        (0, 1): {1: 2},
        (1, 0): {1: -2},
        (0, 2): {2: -2},
        (2, 0): {2: 2},
        (1, 2): {0: 1},
        (2, 1): {0: -1},
    }
    return validate(structure, dim=3, basis_names=("H", "E", "F"))


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------
#
# {"dim": 3, "basis": ["H","E","F"],
#  "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "2"}}, ...]}
#
# Coefficients are rationals encoded as strings "p/q" or "p"; indices are
# 0-based and only i < j entries are allowed (antisymmetry fills the rest).
# "basis" is optional; when given it names each basis element once.

# validation checks Jacobi on every basis triple, so its cost grows about as
# dim^4.5 (1.5 s at dim 32, in process)
MAX_DIM = 32

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational_from_json(value, what) -> Fraction:
    """A JSON rational: an int (not a bool) or a "p" / "p/q" string; ValueError otherwise."""
    if type(value) is int or (isinstance(value, str) and _RATIONAL.fullmatch(value)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
    raise ValueError(f"{what} coefficient {value!r} is not a rational: give an integer or a \"p/q\" string")


def from_json_dict(doc) -> LieAlgebra:
    if not isinstance(doc, dict) or type(doc.get("dim")) is not int or doc["dim"] < 0:
        raise ValueError("a Lie-algebra document needs a non-negative integer 'dim'")
    dim = doc["dim"]
    if dim > MAX_DIM:
        raise ArityError(f"Lie-algebra dim {dim} exceeds the cap {MAX_DIM}")
    basis = doc.get("basis", [f"e{i}" for i in range(dim)])
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(name, str) for name in basis) or len(set(basis)) != dim):
        raise ValueError(f"'basis' must list {dim} distinct names, got {basis!r}")
    structure = {}
    for entry in doc.get("brackets", ()):
        if (not isinstance(entry, dict) or type(entry.get("i")) is not int
                or type(entry.get("j")) is not int or not isinstance(entry.get("coeffs"), dict)):
            raise ValueError(f"bracket entry {entry!r} needs integer 'i', 'j' and a 'coeffs' object")
        i, j = entry["i"], entry["j"]
        if not 0 <= i < j < dim:
            raise ParshinError(f"bracket entry must have 0 <= i < j < dim, got ({i}, {j})")
        vec = [Fraction(0)] * dim
        for k, c in entry["coeffs"].items():
            if not 0 <= int(k) < dim:
                raise ValueError(f"bracket coefficient index {k!r} is not in 0..{dim - 1}")
            vec[int(k)] = rational_from_json(c, f"bracket {k!r}")
        structure[(i, j)] = tuple(vec)
        structure[(j, i)] = tuple(-c for c in vec)
    return validate(structure, dim=dim, basis_names=tuple(basis))


def to_json_dict(alg: LieAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            vec = alg.table[i][j]
            if any(c != 0 for c in vec):
                brackets.append(
                    {"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in enumerate(vec) if c != 0}}
                )
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def load_algebra(path) -> LieAlgebra:
    with open(path) as handle:
        return from_json_dict(json.load(handle))
