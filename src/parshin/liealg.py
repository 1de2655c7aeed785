"""Finite-dimensional Lie algebras over exact rationals.

An algebra is given by structure constants on a chosen basis.  Validation
checks antisymmetry and the Jacobi identity on every basis pair/triple, so a
constructed :class:`LieAlgebra` is always an actual Lie algebra.

Structure constants, element coefficients and adjoint matrices are stored as
:mod:`parshin.matrices` stores matrix entries: an ``int`` where integral and
a :class:`fractions.Fraction` otherwise.  The constants are kept once, as the
sparse rows :func:`validate` builds; brackets, the validation checks and
``ad`` read them.  :func:`is_centreless` decides a trivial centre by the
Gram determinant of the adjoint representation.  Public scalar results
(``killing_nform``) are Fractions.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (AntisymmetryViolation, ArityError, DimensionMismatch, JacobiViolation,
                     MixedAlgebras, ParshinError, shown)
from .matrices import canonical, det, mat_mul, mat_trace, rational


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra with basis ``basis_names`` and structure constants ``rows``.

    ``rows[i][j]`` holds the nonzero coefficients of [e_i, e_j] as sorted
    ``(k, c)`` pairs, ints where integral, so equal algebras have equal rows.
    Instances are immutable and hashable; construct them through
    :func:`validate` or the fixture constructors below, which enforce the Lie
    axioms.
    """

    dim: int
    basis_names: tuple
    rows: tuple  # rows[i][j] -> ((k, c), ...), c != 0

    def element(self, coeffs) -> "LieElement":
        coeffs = tuple(rational(c) for c in coeffs)
        if len(coeffs) != self.dim:
            raise DimensionMismatch(f"coefficient vector of length {len(coeffs)} for dim {self.dim}")
        return LieElement(self, coeffs)

    def basis_element(self, i) -> "LieElement":
        return LieElement(self, tuple(1 if k == i else 0 for k in range(self.dim)))

    def by_name(self, name) -> "LieElement":
        if name not in self.basis_names:
            # a name is listed verbatim unless ``shown`` would cut it
            listed = (b if shown(b) == repr(b) else shown(b) for b in self.basis_names)
            raise ValueError(f"unknown basis element {shown(name)}; the basis is {', '.join(listed)}")
        return self.basis_element(self.basis_names.index(name))

    def basis(self):
        return [self.basis_element(i) for i in range(self.dim)]


@dataclass(frozen=True)
class LieElement:
    algebra: LieAlgebra
    coeffs: tuple  # ints where integral

    def __add__(self, other):
        _same_algebra(self, other)
        return LieElement(self.algebra, tuple(canonical(a + b) for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = rational(c)
        return LieElement(self.algebra, tuple(canonical(c * a) for a in self.coeffs))

    def bracket(self, other) -> "LieElement":
        _same_algebra(self, other)
        alg = self.algebra
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        acc = [0] * alg.dim
        for a, row in zip(self.coeffs, alg.rows):
            if a:
                for j, b in right:
                    ab = a * b
                    for k, c in row[j]:
                        acc[k] += ab * c
        return LieElement(alg, tuple(canonical(x) for x in acc))

    def is_zero(self):
        return not any(self.coeffs)


def _same_algebra(x, y):
    if x.algebra != y.algebra:
        raise MixedAlgebras("elements belong to different Lie algebras")


def validate(structure, dim, basis_names=None) -> LieAlgebra:
    """Check a bracket table and return the algebra iff it is a Lie algebra.

    ``structure`` maps a basis pair ``(i, j)`` to the coefficients ``{k: c}``
    of [e_i, e_j]; missing pairs and indices are zero.  Raises
    :class:`AntisymmetryViolation` or :class:`JacobiViolation` naming the
    first offending basis pair/triple in lexicographic order.
    """
    pairs = {}
    for (i, j), vec in structure.items():
        if not (0 <= i < dim and 0 <= j < dim and all(0 <= k < dim for k in vec)):
            raise ValueError(f"bracket ({i}, {j}) has an index outside 0..{dim - 1}")
        vec = {k: rational(c) for k, c in vec.items()}
        pairs[(i, j)] = {k: c for k, c in vec.items() if c}

    violations = [(min(i, j), max(i, j)) for (i, j), vec in pairs.items()
                  if vec != {k: -c for k, c in pairs.get((j, i), {}).items()}]
    if violations:
        raise AntisymmetryViolation(*min(violations))

    rows = tuple(tuple(tuple(sorted(pairs.get((i, j), {}).items())) for j in range(dim))
                 for i in range(dim))
    _check_jacobi(rows)
    return LieAlgebra(dim, tuple(basis_names or (f"e{i}" for i in range(dim))), rows)


def _check_jacobi(rows):
    """Raise JacobiViolation on the first i < j < k with a nonzero Jacobiator.

    [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]] is summed
    straight off the sparse rows: [e_a, sum_m c_m e_m] = sum_m c_m rows[a][m].
    """
    dim = len(rows)
    for i in range(dim):
        row_i = rows[i]
        for j in range(i + 1, dim):
            row_j, ij = rows[j], row_i[j]
            for k in range(j + 1, dim):
                row_k = rows[k]
                jk, ki = row_j[k], row_k[i]
                if not (jk or ki or ij):
                    continue
                acc = {}
                for outer, inner in ((row_i, jk), (row_j, ki), (row_k, ij)):
                    for m, c in inner:
                        for n, v in outer[m]:
                            acc[n] = acc.get(n, 0) + c * v
                if any(acc.values()):
                    raise JacobiViolation(i, j, k)


def ad(y: LieElement):
    """Matrix of x -> [y, x] in the basis (column j is [y, e_j])."""
    alg = y.algebra
    out = [[0] * alg.dim for _ in range(alg.dim)]
    for a, row in zip(y.coeffs, alg.rows):
        if a:
            for j, vec in enumerate(row):
                for k, c in vec:
                    out[k][j] += a * c
    return tuple(tuple(canonical(x) for x in line) for line in out)


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
    """True iff Y -> ad(Y) has trivial kernel.

    Column i of A holds the entries of ad(e_i), scaled to ints by the lcm of
    their denominators.  A^T A x = 0 gives |A x|^2 = 0, so A is injective
    exactly when det(A^T A) != 0; at dim 0 that is the empty determinant 1.
    """
    cols = [[x for line in ad(alg.basis_element(i)) for x in line] for i in range(alg.dim)]
    scale = lcm(*(x.denominator for col in cols for x in col))
    cols = [[int(x * scale) for x in col] for col in cols]
    return det([[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]) != 0


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
# Coefficients are ints or rationals encoded as strings "p/q" or "p"; indices
# are 0-based, each coefficient key is a plain decimal index, and only i < j
# entries are allowed (antisymmetry fills the rest).
# "basis" is optional; when given it names each basis element once.

# validation checks Jacobi on every basis triple over the sparse rows, so at
# dim 32 a dense table bounds the cost: 1.2 s with ~22 nonzero constants per
# bracket and 2.9 s with all 32, in process, against 0.01 s for ten sl2 copies
# plus two abelian generators; one n = 4 cocycle call over the dense table
# adds about 0.15 s to its load
MAX_DIM = 32

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational_from_json(value, what):
    """A JSON rational: an int (not a bool) or a "p" / "p/q" string; ValueError otherwise.

    The value comes back as an int where integral, else as a Fraction.
    """
    if type(value) is int:
        return value
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:
        num, den = match.groups()
        try:
            if den is None:
                return int(num)
            if int(den):
                return canonical(Fraction(int(num), int(den)))
        except ValueError:  # a digit run over Python's integer-string limit
            raise ValueError(f"{what} coefficient {shown(value)} is over the "
                             f"{sys.get_int_max_str_digits()}-digit limit") from None
    raise ValueError(f"{what} coefficient {shown(value)} is not a rational: give an integer or a \"p/q\" string")


def from_json_dict(doc) -> LieAlgebra:
    if not isinstance(doc, dict) or type(doc.get("dim")) is not int or doc["dim"] < 0:
        raise ValueError("a Lie-algebra document needs a non-negative integer 'dim'")
    dim = doc["dim"]
    if dim > MAX_DIM:
        raise ArityError(f"Lie-algebra dim {dim} exceeds the cap {MAX_DIM}")
    basis = doc.get("basis", [f"e{i}" for i in range(dim)])
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(name, str) for name in basis) or len(set(basis)) != dim):
        raise ValueError(f"'basis' must list {dim} distinct names, got {shown(basis)}")
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise ValueError(f"'brackets' must be a list of bracket entries, got {shown(brackets)}")
    structure = {}
    for entry in brackets:
        if (not isinstance(entry, dict) or type(entry.get("i")) is not int
                or type(entry.get("j")) is not int or not isinstance(entry.get("coeffs"), dict)):
            raise ValueError(f"bracket entry {shown(entry)} needs integer 'i', 'j' and a 'coeffs' object")
        i, j = entry["i"], entry["j"]
        if not 0 <= i < j < dim:
            raise ParshinError(f"bracket entry must have 0 <= i < j < dim, got ({i}, {j})")
        vec = {}
        for k, c in entry["coeffs"].items():
            vec[_json_index(k, i, j, dim)] = rational_from_json(c, f"bracket {shown(k)}")
        structure[(i, j)] = vec
        structure[(j, i)] = {k: -c for k, c in vec.items()}
    return validate(structure, dim=dim, basis_names=tuple(basis))


def _json_index(key, i, j, dim) -> int:
    """A coefficient key of bracket (i, j): a plain decimal index in 0..dim-1."""
    try:
        index = int(key)
    except (TypeError, ValueError):
        index = None
    if index is None or str(index) != key:
        raise ValueError(f"bracket ({i}, {j}) has coefficient key {shown(key)}, which is not a plain decimal index")
    if not 0 <= index < dim:
        raise ValueError(f"bracket ({i}, {j}) coefficient index {shown(key)} is not in 0..{dim - 1}")
    return index


def to_json_dict(alg: LieAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            vec = alg.rows[i][j]
            if vec:
                brackets.append({"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in vec}})
    return {"dim": alg.dim, "basis": list(alg.basis_names), "brackets": brackets}


def read_json(path):
    """A JSON file; its ValueError (bad syntax, or an integer over Python's
    int-to-str digit limit, whose message gives the digit count) names the
    file, and so does the ValueError a RecursionError (arrays or objects
    nested past the interpreter's recursion limit) becomes."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_algebra(path) -> LieAlgebra:
    return from_json_dict(read_json(path))
