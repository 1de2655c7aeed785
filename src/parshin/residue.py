"""Operator-trace residues.

``raw_sum`` is the unnormalized trace sum over permutations and projector
sign words; every statement-level variant differs from it only by a global
sign.  ``residue`` normalizes by (-1)^n, which is the convention that
matches the classical coefficient-extraction residue (checked against
``parshin_oracle`` on every call and reported side by side with the
alternative global sign ``paper_res_star``).

``raw_sum``'s walk over lattice operators is the definition.  ``word_sum``
evaluates the same sum when every operator is one atom of constant weight on
the whole lattice, as a sum over the sets of indices already placed rather
than over words, and ``cocycle.phi`` takes it there.  ``residue`` and every
check against a closed form keep the walk: the set sum evaluates the same
Leibniz sum as the determinant formula, so checking one against the other
would not be independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, DimensionMismatch, ShapeMismatch
from .laurent import LaurentPoly, parshin_oracle
from .matrices import det, exact_text, integer, mat_add, mat_mul, mat_scale
from .opalg import LatticeOperator, _cuts, mul_operator, projector, projector_commutator


def _trace_sum_input(operators, cuts):
    """(operators, n, d, cuts) after the refusals ``raw_sum`` and ``word_sum`` share.

    There must be n + 1 operators on one space, and n cut points.  A slab
    too wide to sum is refused where it is summed, in ``opalg``.
    """
    operators = list(operators)
    if not operators:
        raise DimensionMismatch("a trace sum needs n+1 operators, got none")
    n, d = operators[0].n, operators[0].d
    for op in operators:
        if op.n != n or op.d != d:
            raise DimensionMismatch("trace sum operators on different spaces")
    if len(operators) != n + 1:
        raise DimensionMismatch(f"need n+1 = {n + 1} operators, got {len(operators)}")
    return operators, n, d, _cuts(n, cuts)


def raw_sum(operators, cuts=None) -> Fraction:
    """tau sum over pi in S_n of sgn(pi) [f_pi(1), P_1^+] ... [f_pi(n), P_n^+] f_0.

    Each commutator [f, P_axis^+] = P_axis^- f P_axis^+ - P_axis^+ f P_axis^-
    is Tate's.  The conjugations are plain multiplications: sandwiched
    between opposite projectors, the second commutator term of an adjoint
    action dies.  Summing the two signs before the trace is exact: every
    commutator atom is bounded on its axis, so every word is finitely
    supported.

    The words share prefixes, so they are walked as a tree rather than built
    one by one.  The n^2 commutators C(axis, j) = [f_j, P_axis^+] are built
    once, and the structurally zero ones dropped (a monomial's is zero when
    its exponent on that axis is 0).  The walk starts from f_0 and goes depth
    first from axis n down to axis 1, at each level composing one unused
    f_j's commutator onto the current prefix.  A structurally zero prefix is
    pruned with every word that extends it.  The sign travels down the walk:
    each placement of j adds as many inversions of pi as there are smaller
    indices already placed.  Composition is associative and exact, so the
    value equals the word-by-word sum.  Every surviving word is traced on
    its own.

    Only shift-0 atoms reach a trace, and atoms merge only with atoms of
    equal shift, so an atom of f_0 whose shift no product of the f_j can
    cancel changes no trace.  Before any commutator is built, f_0 keeps only
    the atoms some word can bring back to shift 0, and the sum is 0 when
    none is left.

    This walk defines the value: ``word_sum`` is checked against it, and the
    residue and the closed-form checks trace through it.
    """
    operators, n, d, cuts = _trace_sum_input(operators, cuts)

    # the negated shifts a product of f_1..f_n can take (the Minkowski sum
    # of their atom shifts)
    cancel = {(0,) * n}
    for op in operators[1:]:
        cancel = {tuple(r - s for r, s in zip(rest, shift))
                  for rest in cancel for shift in {a.shift for a in op.atoms}}
    f0 = LatticeOperator(n, d, tuple(a for a in operators[0].atoms if a.shift in cancel))
    if f0.is_structurally_zero():
        return Fraction(0)

    # (axis, j) -> C(axis, j) over the nonzero commutators
    commutators = {}
    for axis in range(1, n + 1):
        for j in range(1, n + 1):
            c = projector_commutator(operators[j], axis, cuts)
            if not c.is_structurally_zero():
                commutators[axis, j] = c

    def walk(axis, prefix, sign, placed):
        if prefix.is_structurally_zero():
            return Fraction(0)
        if axis == 0:
            return sign * prefix.trace()
        total = Fraction(0)
        for j in range(1, n + 1):
            if j in placed or (axis, j) not in commutators:
                continue
            inversions = sum(1 for k in placed if k < j)
            total += walk(axis - 1, commutators[axis, j].compose(prefix),
                          -sign if inversions % 2 else sign, placed + (j,))
        return total

    return walk(n, f0, 1, ())


def _whole_lattice_atoms(operators):
    """The atom of each operator when every one is a single atom on the whole
    lattice with a constant weight (the operators ``word_sum`` takes), else
    None."""
    atoms = []
    for op in operators:
        if (len(op.atoms) != 1 or any(bound != (None, None) for bound in op.atoms[0].box)
                or not op.atoms[0].weight.is_constant()):
            return None
        atoms.append(op.atoms[0])
    return atoms


def _integral_content(matrix):
    """(den, N) with matrix = N / den: den is the lcm of the entries'
    denominators and N a matrix of ints."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in matrix)


def _placements(shifts, placed, axis):
    """(j, c) for each index j outside the bit mask ``placed`` whose
    commutator on ``axis`` (0-based) is nonzero: c is the slab width |s|,
    negated when s > 0, times the parity of the placed indices below j, and
    so -s times that parity."""
    sign = 1
    for j in range(1, len(shifts)):
        if placed >> j & 1:
            sign = -sign
        elif shifts[j][axis]:
            yield j, -sign * shifts[j][axis]


def word_sum(operators, cuts=None) -> Fraction:
    """``raw_sum`` of operators that are each one atom w t^s M of constant
    weight w on the whole lattice, summed over placed sets without building
    any lattice operator.

    For such an f, the commutator [f, P_i^+] is one atom on the slab
    [c_i, c_i - s_i) of axis i when s_i < 0, minus one atom on
    [c_i - s_i, c_i) when s_i > 0, and 0 when s_i = 0.  Each axis takes one
    commutator, so the word of a permutation pi is a single atom.  Only a
    balanced tuple (shifts summing to 0) has a diagonal, and the word's
    trace is its sign times tr(matrix) times the product of the weights
    and of its slab widths |s_pi(i),i|.  The cuts move the slabs but not
    their widths, so the value does not depend on them.

    Every word holds every operator once, so the weights multiply the sum
    once.  So does each matrix's rational content: a matrix is N / den,
    with den the lcm of its entries' denominators, so 1 / prod den joins
    that number and the words multiply the int matrices N.

    Walking the axes from n down to 1, the factor that places f_j on axis
    i is -s_(j,i) N_j times the parity of the indices already placed below
    j, so it depends only on the set S placed before it.  The prefixes
    therefore collapse onto their sets: D[S + {j}] += c N_j D[S] from
    D[{}] = N_0, and the sum is tr D[{1..n}].  That is n 2^(n-1) products
    instead of up to n n! (the noncommutative analogue of expanding a
    determinant by minors), and the last axis takes only traces,
    tr(N_j D) as a sum of row-by-column dot products.  The sum stays an int
    until the one final product.  ValueError when an operator is not one
    atom of constant weight on the whole lattice.
    """
    operators, n, _, _ = _trace_sum_input(operators, cuts)
    atoms = _whole_lattice_atoms(operators)
    if atoms is None:
        raise ValueError("word_sum takes operators that are each one atom on the whole lattice, "
                         "of constant weight")
    shifts = [a.shift for a in atoms]
    if any(sum(col) for col in zip(*shifts)):
        return Fraction(0)
    dens, integral = zip(*(_integral_content(a.matrix) for a in atoms))
    scalar = Fraction(math.prod(a.weight.coefficient((0,) * n) for a in atoms), math.prod(dens))
    layer = {0: integral[0]}  # placed set, as a bit mask over 1..n -> D[set]
    for axis in range(n - 1, 0, -1):
        following = {}
        for placed, matrix in layer.items():
            for j, c in _placements(shifts, placed, axis):
                step = mat_scale(c, mat_mul(integral[j], matrix))
                key = placed | 1 << j
                following[key] = mat_add(following[key], step) if key in following else step
        layer = following
    total = 0
    for placed, matrix in layer.items():
        for j, c in _placements(shifts, placed, 0):
            total += c * sum(x * y for row, col in zip(integral[j], zip(*matrix)) for x, y in zip(row, col))
    return scalar * total


@dataclass(frozen=True)
class ResidueReport:
    """Residue of f_0 df_1 ... df_n with its oracle cross-check.

    ``raw`` is the bare trace sum; ``residue`` = (-1)^n raw is normalized to
    the classical convention; ``paper_res_star`` = -(-1)^((n-1)n/2) raw is
    the same data under the alternative global sign; ``agrees`` records
    residue == oracle.
    """

    n: int
    raw: Fraction
    residue: Fraction
    oracle: Fraction
    paper_res_star: Fraction
    agrees: bool

    def to_json_dict(self):
        return {
            "n": self.n,
            "raw": exact_text(self.raw),
            "residue": exact_text(self.residue),
            "oracle": exact_text(self.oracle),
            "paper_res_star": exact_text(self.paper_res_star),
            "agrees": self.agrees,
        }


def _global_signs(n, raw):
    residue = raw if n % 2 == 0 else -raw
    star = -raw if ((n - 1) * n // 2) % 2 == 0 else raw
    return residue, star


# n! * prod_(j >= 1) |terms(f_j)| bounds the words a residue traces (at most
# prod |terms(f_j)| balanced monomial tuples, at most n! surviving words
# each); the oracle's multilinear expansion visits the same tuples, with one
# n x n integer determinant per balanced one.  Forms over it are refused.
MAX_WORK = 3_000_000


def raw_sum_polys(f0: LaurentPoly, fs, cuts=None) -> Fraction:
    """raw_sum of the multiplication operators, expanded over monomial tuples.

    Multilinear expansion keeps every factor a single-atom operator, so each
    projector word cuts an exact interval per axis.  Every composite of a
    monomial tuple shifts by the exponents' column sum, so only balanced
    tuples (column sums 0) can contribute: for each choice of terms of
    f_1..f_n, the one term of f_0 that balances it is looked up, and the
    choice skipped when f_0 has none.  Each monomial's operator is built
    once, on first use.  Raises ArityError before any operator is built
    when the form's work exceeds MAX_WORK.
    """
    n = f0.n
    fs = list(fs)
    for f in fs:
        if f.n != n:
            raise DimensionMismatch("residue inputs with mismatched variable counts")
    if len(fs) != n:
        raise DimensionMismatch(f"need n+1 = {n + 1} polynomials, got {len(fs) + 1}")
    cuts = _cuts(n, cuts)
    work = math.factorial(n) * math.prod(len(f.terms) for f in fs)
    if work > MAX_WORK:
        raise ArityError(f"work n! * |f1| * ... * |fn| = {work} exceeds the limit {MAX_WORK}")

    operators = {}  # exponent -> multiplication by its monomial, built on first use

    def operator(exp):
        if exp not in operators:
            operators[exp] = mul_operator(LaurentPoly.monomial(n, exp, 1))
        return operators[exp]

    f0_terms = dict(f0.terms)
    total = Fraction(0)
    for combo in itertools.product(*(f.terms for f in fs)):
        exp0 = tuple(-sum(col) for col in zip(*(exp for exp, _ in combo)))
        coeff = f0_terms.get(exp0)
        if coeff is None:
            continue
        for _, c in combo:
            coeff *= c
        total += coeff * raw_sum([operator(exp0)] + [operator(exp) for exp, _ in combo], cuts)
    return total


def residue(f0: LaurentPoly, fs, cuts=None) -> ResidueReport:
    """The multidimensional residue of f_0 df_1 ... df_n, oracle-checked."""
    fs = list(fs)
    raw = raw_sum_polys(f0, fs, cuts)
    res, star = _global_signs(f0.n, raw)
    oracle = parshin_oracle(f0, fs)
    return ResidueReport(f0.n, raw, res, oracle, star, res == oracle)


def residue_det_monomial(exponents) -> Fraction:
    """Residue of a monomial form from its exponent matrix.

    ``exponents`` is (n+1) x n; row p holds the exponents of f_p, columns
    index the variables.  The value is det of rows 1..n when every column
    sums to zero, and 0 otherwise.
    """
    rows = [tuple(integer(x, "exponent") for x in row) for row in exponents]
    if not rows:
        raise ShapeMismatch("empty exponent matrix")
    n = len(rows) - 1
    if n < 1 or any(len(row) != n for row in rows):
        raise ShapeMismatch(f"need an (n+1) x n matrix, got {len(rows)} x {len(rows[0])}")
    for j in range(n):
        if sum(row[j] for row in rows) != 0:
            return Fraction(0)
    return det(rows[1:])


def ack_residue_n1(f0: LatticeOperator, f1: LatticeOperator, cut=0) -> Fraction:
    """The n = 1 commutator form of the residue: tr([P+, f1] f0)."""
    if f0.n != 1 or f1.n != 1:
        raise DimensionMismatch("ack_residue_n1 is an n=1 formula")
    plus = projector(1, 1, "+", d=f0.d, cut=cut)
    return plus.commutator(f1).compose(f0).trace()
