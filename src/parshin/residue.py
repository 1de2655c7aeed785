"""Operator-trace residues.

``raw_sum`` is the unnormalized trace sum over permutations and projector
sign words; every statement-level variant differs from it only by a global
sign.  ``residue`` normalizes by (-1)^n, which is the convention that
matches the classical coefficient-extraction residue (checked against
``parshin_oracle`` on every call and reported side by side with the
alternative global sign ``paper_res_star``).

``raw_sum``'s walk over lattice operators is the definition.  ``word_sum``
evaluates the same sum on the multiplication operators of scalar and
multiloop entries: it reads the entries' terms, expands over the balanced
choices of one term per entry (``_balanced``, which ``raw_sum_polys`` also
uses), builds no lattice operator, and sums over the sets of indices already
placed rather than over words.  ``cocycle.phi`` takes every scalar and
multiloop wedge there, and every derivation wedge to the walk.  ``residue``
and every check against a closed form keep the walk: the set sum evaluates
the same Leibniz sum as the determinant formula, so checking one against the
other would not be independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, DimensionMismatch, ShapeMismatch
from .laurent import GLaurent, LaurentPoly, parshin_oracle
from .liealg import LieElement, ad
from .matrices import det, exact_text, integer, is_zero_matrix, mat_add, mat_mul, mat_scale
from .opalg import LatticeOperator, _cuts, mul_operator, projector, projector_commutator


def _trace_sum_input(spaces, cuts):
    """(n, cuts) after the refusals ``raw_sum`` and ``word_sum`` share, from
    the (n, d) space of each operator or entry.

    There must be n + 1 of them on one space, and n cut points.  A slab too
    wide to sum is refused where it is summed, in ``opalg``.
    """
    if not spaces:
        raise DimensionMismatch("a trace sum needs n+1 operators, got none")
    n, d = spaces[0]
    if any(space != (n, d) for space in spaces):
        raise DimensionMismatch("trace sum operators on different spaces")
    if len(spaces) != n + 1:
        raise DimensionMismatch(f"need n+1 = {n + 1} operators, got {len(spaces)}")
    return n, _cuts(n, cuts)


def raw_sum(operators, cuts=None, *, commutator=projector_commutator) -> Fraction:
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

    ``commutator(f, axis, cuts)`` builds [f, P_axis^+]; ``raw_sum_polys``
    passes one that builds each monomial's commutator once for all its tuples.

    This walk defines the value: ``word_sum`` is checked against it, and the
    residue and the closed-form checks trace through it.
    """
    operators = list(operators)
    n, cuts = _trace_sum_input([(op.n, op.d) for op in operators], cuts)

    # the negated shifts a product of f_1..f_n can take (the Minkowski sum
    # of their atom shifts)
    cancel = {(0,) * n}
    for op in operators[1:]:
        cancel = {tuple(r - s for r, s in zip(rest, shift))
                  for rest in cancel for shift in {a.shift for a in op.atoms}}
    f0 = LatticeOperator(n, operators[0].d, tuple(a for a in operators[0].atoms if a.shift in cancel))
    if f0.is_structurally_zero():
        return Fraction(0)

    # (axis, j) -> C(axis, j) over the nonzero commutators
    commutators = {}
    for axis in range(1, n + 1):
        for j in range(1, n + 1):
            c = commutator(operators[j], axis, cuts)
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


def _terms(entry):
    """((n, d), terms) of a scalar or multiloop entry: the space it acts on
    (d is the size of its matrices), and the (shift, weight, matrix) of each
    of its terms acting by a nonzero matrix.  c t^s (a LaurentPoly) has
    weight c and matrix (1), and Y t^s (a GLaurent) weight 1 and matrix
    ad(Y); the ad of a centre element is zero, and its term is dropped.
    TypeError for any other entry."""
    if isinstance(entry, LaurentPoly):
        return (entry.n, 1), [(shift, c, ((1,),)) for shift, c in entry.terms]
    if isinstance(entry, GLaurent):
        terms = [(shift, 1, ad(LieElement(entry.algebra, value))) for shift, value in entry.terms]
        return (entry.n, entry.algebra.dim), [term for term in terms if not is_zero_matrix(term[2])]
    raise TypeError(f"word_sum takes LaurentPoly or GLaurent entries, got {type(entry).__name__}")


def _balanced(terms):
    """Each choice of one term per entry whose shifts sum to 0, from the term
    lists of f_0, ..., f_n (a term is a tuple whose first item is its shift).

    For each choice of terms of f_1..f_n, the one term of f_0 whose shift is
    their negated column sum is looked up, and the choice skipped when f_0
    has none.  Every composite of a choice shifts by its column sum, so only
    these choices have a diagonal.
    """
    first = {term[0]: term for term in terms[0]}
    for combo in itertools.product(*terms[1:]):
        term0 = first.get(tuple(-sum(col) for col in zip(*(term[0] for term in combo))))
        if term0 is not None:
            yield (term0,) + combo


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


def _set_sum(choice):
    """The words' sum for one balanced choice of (shift, weight, matrix)
    terms, over placed sets (see ``word_sum``)."""
    shifts, weights, matrices = zip(*choice)
    dens, integral = zip(*map(_integral_content, matrices))
    layer = {0: integral[0]}  # placed set, as a bit mask over 1..n -> D[set]
    for axis in range(len(shifts) - 2, 0, -1):
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
    return Fraction(math.prod(weights), math.prod(dens)) * total


def word_sum(entries, cuts=None) -> Fraction:
    """``raw_sum`` of the multiplication operators of scalar and multiloop
    entries, summed over placed sets without building any lattice operator.

    Each entry's terms are read once: the shift s, the weight w (a scalar's
    coefficient, 1 for a multiloop term) and the matrix M ((1) for a scalar,
    ad(Y) for Y t^s) of each term w t^s M acting by a nonzero matrix.  A
    term acting by zero (the ad of a centre element) is dropped, so an entry
    with no term left makes the value 0.  The sum is multilinear in each
    entry, so it is expanded over one term per entry, and only the balanced
    choices (shifts summing to 0) have a diagonal; ``_balanced`` finds them
    as ``raw_sum_polys`` does.

    Multiplication by one term is one atom w t^s M of constant weight on the
    whole lattice, and its commutator [f, P_i^+] is one atom on the slab
    [c_i, c_i - s_i) of axis i when s_i < 0, minus one atom on [c_i - s_i,
    c_i) when s_i > 0, and 0 when s_i = 0.  Each axis takes one commutator,
    so the word of a permutation pi is a single atom, and its trace is its
    sign times tr(matrix) times the product of the weights and of its slab
    widths |s_pi(i),i|.  The cuts move the slabs but not their widths, so
    the value does not depend on them.

    Every word holds every term of the choice once, so the weights multiply
    its sum once.  So does each matrix's rational content: a matrix is
    N / den, with den the lcm of its entries' denominators, so 1 / prod den
    joins that number and the words multiply the int matrices N.

    Walking the axes from n down to 1, the factor that places f_j on axis
    i is -s_(j,i) N_j times the parity of the indices already placed below
    j, so it depends only on the set S placed before it.  The prefixes
    therefore collapse onto their sets: D[S + {j}] += c N_j D[S] from
    D[{}] = N_0, and the sum is tr D[{1..n}].  That is n 2^(n-1) products
    instead of up to n n! (the noncommutative analogue of expanding a
    determinant by minors), and the last axis takes only traces,
    tr(N_j D) as a sum of row-by-column dot products.  The sum stays an int
    until the one final product.  TypeError for an entry that is not a
    LaurentPoly or a GLaurent (a derivation goes to ``raw_sum``); the other
    refusals are ``raw_sum``'s, with its messages.
    """
    read = [_terms(e) for e in entries]
    _trace_sum_input([space for space, _ in read], cuts)
    return sum(map(_set_sum, _balanced([terms for _, terms in read])), Fraction(0))


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
    tuples (column sums 0) can contribute, and ``_balanced`` yields only
    those.  Each monomial's operator, and its commutator with each P_axis^+,
    is built once, on first use, and every tuple's walk reuses it.  Raises
    ArityError before any operator is built when the form's work exceeds
    MAX_WORK.
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

    # (id of a monomial's operator, axis) -> their commutator; ``operators``
    # holds every operator for the whole call, so an id names one exponent
    commutators = {}

    def commutator(f, axis, cuts):
        key = id(f), axis
        if key not in commutators:
            commutators[key] = projector_commutator(f, axis, cuts)
        return commutators[key]

    total = Fraction(0)
    for (exp0, coeff), *combo in _balanced([f0.terms] + [f.terms for f in fs]):
        for _, c in combo:
            coeff *= c
        total += coeff * raw_sum([operator(exp0)] + [operator(exp) for exp, _ in combo], cuts,
                                 commutator=commutator)
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
