"""Banded lattice-kernel operators on V tensor k[t_1^+-, ..., t_n^+-].

An operator is a finite sum of kernel atoms.  Each atom sends the basis
vector v (x) e_lam to  [lam in box] * weight(lam) * (matrix v) (x) e_(lam+shift),
with an exact rational matrix, a weight polynomial in the lattice coordinate
lam (a ``LaurentPoly`` with exponents >= 0), and a half-open integer box.
A box is its bounds, the plain tuple ((lo, hi), ...) with None for an
unbounded end; ``Box.of`` and ``Box.full`` build one.  This class of
operators is closed under addition and composition and contains everything
the residue and cocycle formulas generate: multiplication operators,
derivations t^s d/dt_i, the half-space projectors P_i^+-, and their
products.  A product of projectors is the indicator of a box (``region``)
and is applied by cutting atom boxes (``LatticeOperator.restrict``,
``projector_commutator``), not by composition.  Every box cut, there and in ``compose``, is one ``_cut``.
Every sum of normalized operators (``+``, ``-``, ``restrict``,
``projector_commutator``, the cube maps) is merged and glued once by the
path of ``LatticeOperator.combine``; ``make``'s zero/empty/fold filter is
kept for atoms built fresh.

Operator identity is semantic.  One arrangement walk, ``_iter_cells``,
refines (box, value) pieces into cells per axis and yields each covered cell
with the values covering it.  ``is_zero`` (and so ``==``) and ``trace`` walk
their atoms' boxes and decide vanishing of the cell-wise polynomial sums on a
sample grid (degree + 2 points per axis, capped at the cell width), which is
exact for polynomial weights; ``cube._cancels`` walks region coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArityError, DimensionMismatch, NotTraceClass
from .laurent import GLaurent, LaurentPoly
from .liealg import ad
from .matrices import (
    identity,
    integer,
    is_zero_matrix,
    mat_add,
    mat_mul,
    mat_scale,
    mat_trace,
)


# ---------------------------------------------------------------------------
# Boxes
# ---------------------------------------------------------------------------

class Box:
    """The two constructors of a box, the tuple ((lo, hi), ...) of its bounds.

    Each axis is a half-open integer interval [lo, hi); None means unbounded.
    """

    @staticmethod
    def full(n) -> tuple:
        return ((None, None),) * n

    @staticmethod
    def of(bounds) -> tuple:
        return tuple((lo, hi) for lo, hi in bounds)


def sort_key(box):
    """Total order on boxes: per axis, an unbounded end sorts beyond every bound."""
    return tuple((lo is not None, lo or 0, hi is None, hi or 0) for lo, hi in box)


def _cut(bounds, image, shift):
    """The box bounds & (image - shift), or None when it is empty."""
    out = []
    for (lo, hi), (ilo, ihi), s in zip(bounds, image, shift):
        if ilo is not None and (lo is None or lo < ilo - s):
            lo = ilo - s
        if ihi is not None and (hi is None or hi > ihi - s):
            hi = ihi - s
        if lo is not None and hi is not None and lo >= hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _check_boxes(n, *boxes):
    for box in boxes:
        if len(box) != n:
            raise DimensionMismatch(f"box over {len(box)} axes for an operator on n={n}")


# Weights are polynomials in lam: LaurentPolys with exponents >= 0.
WeightPoly = LaurentPoly


# ---------------------------------------------------------------------------
# Atoms and operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelAtom:
    shift: tuple
    matrix: tuple
    weight: LaurentPoly
    box: tuple  # ((lo, hi), ...)


def atom_key(atom):
    """Total order on atoms; a normalized operator lists its atoms in this order."""
    return (atom.shift, sort_key(atom.box), atom.weight.terms, atom.matrix)


@dataclass(frozen=True, eq=False)
class LatticeOperator:
    """Finite sum of kernel atoms, kept in normalized form.

    Equality is semantic (``A == B`` iff they act identically); operators are
    therefore deliberately unhashable.
    """

    n: int
    d: int
    atoms: tuple

    __hash__ = None

    @staticmethod
    def make(n, d, atoms) -> "LatticeOperator":
        return LatticeOperator(n, d, _normalize(n, d, atoms))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(n, d=1) -> "LatticeOperator":
        return LatticeOperator(n, d, ())

    @staticmethod
    def identity(n, d=1) -> "LatticeOperator":
        return LatticeOperator.make(n, d, [
            KernelAtom((0,) * n, identity(d), LaurentPoly.one(n), Box.full(n))
        ])

    # -- structure ----------------------------------------------------------

    def is_structurally_zero(self):
        return not self.atoms

    def _check(self, other):
        if self.n != other.n or self.d != other.d:
            raise DimensionMismatch(
                f"operators on different spaces: (n={self.n}, d={self.d}) vs (n={other.n}, d={other.d})"
            )

    # -- linear structure ----------------------------------------------------

    @staticmethod
    def combine(n, d, terms) -> "LatticeOperator":
        """The sum of c * P_image A over the (c, A, image) terms, normalized once.

        ``image`` is a box, or None for no cut.  Every term's atoms come from
        ``_restricted``.  The operands are normalized, so their atoms need no
        second pass through ``make``'s filter and go straight to the
        merge-and-glue loop, as in ``restrict`` and ``projector_commutator``.
        """
        atoms = []
        for c, op, image in terms:
            if (op.n, op.d) != (n, d):
                raise DimensionMismatch(f"operator on (n={op.n}, d={op.d}) in a sum on (n={n}, d={d})")
            if image is not None:
                _check_boxes(n, image)
            atoms.extend(_restricted(c, op, image))
        return LatticeOperator(n, d, _merge_and_glue(atoms))

    def __add__(self, other):
        return LatticeOperator.combine(self.n, self.d, [(1, self, None), (1, other, None)])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return LatticeOperator.combine(self.n, self.d, [(1, self, None), (-1, other, None)])

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return LatticeOperator.zero(self.n, self.d)
        # scaling keeps the form normalized but can reorder atoms by weight
        return LatticeOperator(self.n, self.d, tuple(sorted(
            (KernelAtom(a.shift, a.matrix, a.weight.scale(c), a.box) for a in self.atoms),
            key=atom_key)))

    # -- composition ---------------------------------------------------------

    def compose(self, other) -> "LatticeOperator":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        self._check(other)
        atoms = []
        for a in self.atoms:
            for b in other.atoms:
                box = _cut(b.box, a.box, b.shift)
                if box is None:
                    continue
                weight = a.weight.shift_argument(b.shift) * b.weight
                if weight.is_zero():
                    continue
                matrix = mat_mul(a.matrix, b.matrix)
                if is_zero_matrix(matrix):
                    continue
                shift = tuple(x + y for x, y in zip(a.shift, b.shift))
                atoms.append(KernelAtom(shift, matrix, weight, box))
        return LatticeOperator.make(self.n, self.d, atoms)

    def restrict(self, image, domain) -> "LatticeOperator":
        """P_image after self after P_domain, where P_box is the indicator of a box."""
        _check_boxes(self.n, image, domain)
        return LatticeOperator(self.n, self.d, _merge_and_glue(list(_restricted(1, self, image, domain))))

    def commutator(self, other) -> "LatticeOperator":
        return self.compose(other) - other.compose(self)

    # -- semantics -----------------------------------------------------------

    def is_zero(self):
        """True iff the cell-wise sums of every shift's atoms vanish."""
        by_shift = {}
        for atom in self.atoms:
            by_shift.setdefault(atom.shift, []).append((atom.box, atom))
        return all(_cell_sum_vanishes(cell, alive)
                   for pieces in by_shift.values() for cell, alive in _iter_cells(self.n, pieces))

    def __eq__(self, other):
        if not isinstance(other, LatticeOperator):
            return NotImplemented
        if self.n != other.n or self.d != other.d:
            return False
        return (self - other).is_zero()

    def trace(self) -> Fraction:
        """Sum over the diagonal: shift-0 atoms summed over their boxes.

        Raises NotTraceClass when the diagonal has unbounded nonzero support
        (decided semantically on the cell refinement of the shift-0 part),
        and ArityError when an atom would be summed over more than
        MAX_SLAB_WIDTH lattice points of an axis.
        """
        diagonal = [a for a in self.atoms if all(s == 0 for s in a.shift)]
        if not diagonal:
            return Fraction(0)
        traces = [mat_trace(a.matrix) for a in diagonal]
        summed = []
        covered = {}  # (atom index, axis) -> the intervals it is summed over
        for cell, alive in _iter_cells(self.n, [(a.box, k) for k, a in enumerate(diagonal)]):
            if all(lo is not None and hi is not None for lo, hi in cell):
                alive = [k for k in alive if traces[k] != 0]
                for k in alive:
                    for i, bounds in enumerate(cell):
                        covered.setdefault((k, i), set()).add(bounds)
                summed.append((cell, alive))
            elif not _cell_sum_vanishes(cell, [diagonal[k] for k in alive]):
                raise NotTraceClass(f"diagonal part has unbounded nonzero support on cell {cell}")
        # nested or half-bounded boxes are cut into cells that each fit the
        # cap, so what one atom sums on one axis is checked, over all its cells
        for intervals in covered.values():
            _check_width(sum(hi - lo for lo, hi in intervals))
        total = Fraction(0)
        for cell, alive in summed:
            for k in alive:
                total += traces[k] * _weight_box_sum(diagonal[k].weight, cell)
        return total

    def in_ideal(self, axis, sign) -> bool:
        """Conservative per-atom membership test for I_axis^sign (1-based axis).

        sign '+' requires every atom box bounded below in the axis, '-' above,
        '0' both.
        """
        if not 1 <= axis <= self.n:
            raise DimensionMismatch(f"axis {axis} outside 1..{self.n}")
        if sign not in ("+", "-", "0"):
            raise ValueError(f"ideal sign must be '+', '-' or '0', got {sign!r}")
        i = axis - 1
        for atom in self.atoms:
            lo, hi = atom.box[i]
            if (sign in ("+", "0") and lo is None) or (sign in ("-", "0") and hi is None):
                return False
        return True

    def __str__(self):
        if not self.atoms:
            return "0"
        return " + ".join(
            f"[shift={a.shift}, box={a.box}, w={a.weight}]" for a in self.atoms
        )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _restricted(c, op, image, domain=None):
    """The atoms of c * P_image op P_domain for a normalized op; a None box does not cut.

    The domain cuts each atom's box as it is, the image cuts it shifted back
    by the atom's shift, both through ``_cut``; empty cuts are dropped.
    """
    if c == 0:
        return
    zero = (0,) * op.n
    for a in op.atoms:
        box = a.box
        if domain is not None:
            box = _cut(box, domain, zero)
        if image is not None and box is not None:
            box = _cut(box, image, a.shift)
        if box is not None:
            yield KernelAtom(a.shift, a.matrix, a.weight.scale(c), box)


def _fold_scalar(d, atom):
    # for d == 1 the 1x1 matrix folds into the weight, easing merges
    if d == 1 and atom.matrix != ((1,),):
        c = atom.matrix[0][0]
        return KernelAtom(atom.shift, ((1,),), atom.weight.scale(c), atom.box)
    return atom


def _normalize(n, d, atoms):
    return _merge_and_glue([
        _fold_scalar(d, atom) for atom in atoms
        if not (any(lo is not None and hi is not None and lo >= hi for lo, hi in atom.box)
                or atom.weight.is_zero() or is_zero_matrix(atom.matrix))
    ])


def _merge_and_glue(pending):
    """Merge and glue filtered atoms to the fixpoint, in ``atom_key`` order.

    Dicts are keyed on plain tuples (the box, ``weight.terms``), whose hashes
    run in C, not on the frozen dataclasses.  Each step keeps its input
    list when it changes nothing.  The weight merge is idempotent on its own
    output, so a round whose matrix merge and glue change nothing is the
    fixpoint.
    """
    if len(pending) <= 1:
        return tuple(pending)
    while True:
        # merge equal (shift, box, matrix): sum the weights
        merged = {}
        for atom in pending:
            key = (atom.shift, atom.box, atom.matrix)
            prev = merged.get(key)
            merged[key] = atom if prev is None else KernelAtom(
                atom.shift, atom.matrix, prev.weight + atom.weight, atom.box)
        if len(merged) < len(pending):
            pending = [a for a in merged.values() if not a.weight.is_zero()]

        # merge equal (shift, box, weight): sum the matrices
        merged = {}
        for atom in pending:
            key = (atom.shift, atom.box, atom.weight.terms)
            prev = merged.get(key)
            merged[key] = atom if prev is None else KernelAtom(
                atom.shift, mat_add(prev.matrix, atom.matrix), atom.weight, atom.box)
        changed = len(merged) < len(pending)
        if changed:
            pending = [a for a in merged.values() if not is_zero_matrix(a.matrix)]

        # glue boxes abutting along exactly one axis (equal shift/weight/matrix)
        groups = {}
        for atom in pending:
            groups.setdefault((atom.shift, atom.weight.terms, atom.matrix), []).append(atom)
        if len(groups) < len(pending):
            glued = [KernelAtom(group[0].shift, group[0].matrix, group[0].weight, box)
                     for group in groups.values() for box in _glue_group([a.box for a in group])]
            if len(glued) < len(pending):
                pending = glued
                changed = True

        if not changed:
            break

    pending.sort(key=atom_key)
    return tuple(pending)


def _glue_group(boxes):
    """Glue a group's boxes greedily in box order, not input order, until none abut."""
    boxes = sorted(boxes, key=sort_key)
    merged_any = True
    while merged_any:
        merged_any = False
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                union = _glue_boxes(boxes[i], boxes[j])
                if union is not None:
                    boxes[i] = union
                    boxes.pop(j)
                    merged_any = True
                    break
            if merged_any:
                break
    return boxes


def _glue_boxes(b1, b2):
    """Union of two boxes when they abut along exactly one axis, else None."""
    diff_axis = None
    for i, (p, q) in enumerate(zip(b1, b2)):
        if p != q:
            if diff_axis is not None:
                return None
            diff_axis = i
    if diff_axis is None:
        return None  # identical boxes would have merged by weight already
    (lo1, hi1), (lo2, hi2) = b1[diff_axis], b2[diff_axis]
    if hi1 is not None and lo2 is not None and hi1 == lo2:
        joined = (lo1, hi2)
    elif hi2 is not None and lo1 is not None and hi2 == lo1:
        joined = (lo2, hi1)
    else:
        return None
    return b1[:diff_axis] + (joined,) + b1[diff_axis + 1:]


# ---------------------------------------------------------------------------
# Cell refinement: semantic vanishing and traces
# ---------------------------------------------------------------------------

def _axis_cells(pieces, i):
    """Arrangement cells of axis i: half-open intervals refined by all bounds."""
    points = set()
    for box, _ in pieces:
        lo, hi = box[i]
        if lo is not None:
            points.add(lo)
        if hi is not None:
            points.add(hi)
    points = sorted(points)
    if not points:
        return [(None, None)]
    cells = [(None, points[0])]
    cells.extend((points[k], points[k + 1]) for k in range(len(points) - 1))
    cells.append((points[-1], None))
    return cells


def _interval_covers(bounds, cell):
    lo, hi = bounds
    clo, chi = cell
    if lo is not None and (clo is None or clo < lo):
        return False
    if hi is not None and (chi is None or chi > hi):
        return False
    return True


def _iter_cells(n, pieces):
    """Yield (cell, values) over the arrangement cells of the (box, value) pieces.

    The cells refine every box bound on every axis, one axis at a time; each
    cell met by at least one piece is yielded once, in lexicographic order,
    with the values of the pieces whose boxes contain it, in the pieces' order.
    """
    cells = [((), pieces)]
    for i in range(n):
        axis_cells = _axis_cells(pieces, i)
        refined = []
        for prefix, alive in cells:
            for cell in axis_cells:
                sub = [piece for piece in alive if _interval_covers(piece[0][i], cell)]
                if sub:
                    refined.append((prefix + (cell,), sub))
        cells = refined
    for cell, alive in cells:
        yield cell, [value for _, value in alive]


def _cell_points(cell, degrees):
    """Sample grid deciding polynomial vanishing on the integer points of a cell."""
    axes = []
    for (lo, hi), deg in zip(cell, degrees):
        count = deg + 2
        if lo is not None and hi is not None:
            width = hi - lo
            count = min(count, width)
            axes.append(range(lo, lo + count))
        elif lo is not None:
            axes.append(range(lo, lo + count))
        elif hi is not None:
            axes.append(range(hi - count, hi))
        else:
            axes.append(range(count))
    return itertools.product(*axes)


def _cell_sum_vanishes(cell, atoms):
    """True iff sum of weight x matrix over the atoms vanishes on the cell."""
    degrees = [max(a.weight.degree_axis(i) for a in atoms) for i in range(len(cell))]
    by_matrix = {}
    for atom in atoms:
        by_matrix.setdefault(atom.matrix, []).append(atom.weight)
    for point in _cell_points(cell, degrees):
        acc = None
        for mat, weights in by_matrix.items():
            val = sum((w.evaluate(point) for w in weights), Fraction(0))
            if val == 0:
                continue
            scaled = mat_scale(val, mat)
            acc = scaled if acc is None else mat_add(acc, scaled)
        if acc is not None and not is_zero_matrix(acc):
            return False
    return True


# A residue or cocycle word's box lies in the commutator slabs [f, P_axis^+],
# each as wide as f's shift on that axis.  _power_sum adds one lattice point
# at a time (1.8-4.5 us a point for e = 0..2, in process; "t1^-3000000 ;
# t1^3000000" took 7 s), so a wider range is refused before any point is
# summed: trace checks what each diagonal atom sums per axis over all its
# cells, and _weight_box_sum, which only trace calls, the box it is given.
# The message names a commutator slab, as residues and cocycles are the
# traces users run.  The cap is four times the widest shift trace_wide draws
# (24,003) and above what --max-m 1000 reaches.  word_sum takes only constant
# weights and multiplies slab widths, so multiloop and scalar cocycles take
# any exponent; a derivation's weight is summed in the walk's trace.
# Closed-form power sums would lift the cap with the loop.
MAX_SLAB_WIDTH = 100_000


def _check_width(width):
    """ArityError when a range to be summed point by point is wider than MAX_SLAB_WIDTH."""
    if width > MAX_SLAB_WIDTH:
        raise ArityError(f"a commutator slab {width} lattice points wide exceeds the cap {MAX_SLAB_WIDTH}")


def _power_sum(e, lo, hi):
    """Sum of lam^e for lam in [lo, hi)."""
    total = Fraction(0)
    for lam in range(lo, hi):
        total += Fraction(lam) ** e if e else Fraction(1)
    return total


def _weight_box_sum(weight, cell):
    """Sum of the weight over a bounded cell; the cell's widths are checked first."""
    for lo, hi in cell:
        _check_width(hi - lo)
    total = Fraction(0)
    for deg, c in weight.terms:
        val = c
        for e, (lo, hi) in zip(deg, cell):
            val *= _power_sum(e, lo, hi)
            if val == 0:
                break
        total += val
    return total


# ---------------------------------------------------------------------------
# Named operators
# ---------------------------------------------------------------------------

def _cuts(n, cuts):
    """The cut points of the n projectors P_i^+-: 0 on every axis by default."""
    if cuts is None:
        return (0,) * n
    cuts = tuple(integer(c, "cut point") for c in cuts)
    if len(cuts) != n:
        raise DimensionMismatch(f"need {n} cut points, got {len(cuts)}")
    return cuts


def region(cuts, signs) -> tuple:
    """The box where every P_axis^sign is 1; other axes are free.

    ``signs`` maps 1-based axes to signs, as a dict or as (axis, sign) pairs.
    """
    bounds = [(None, None)] * len(cuts)
    for axis, sign in dict(signs).items():
        if sign not in ("+", "-"):
            raise ValueError(f"projector sign must be '+' or '-', got {sign!r}")
        cut = cuts[axis - 1]
        bounds[axis - 1] = (cut, None) if sign == "+" else (None, cut)
    return tuple(bounds)


def projector(n, axis, sign, d=1, cut=0) -> LatticeOperator:
    """P_axis^+ = indicator(lam_axis >= cut); P_axis^- = 1 - P_axis^+ (1-based axis)."""
    if not 1 <= axis <= n:
        raise DimensionMismatch(f"axis {axis} outside 1..{n}")
    return LatticeOperator.identity(n, d).restrict(region(_cuts(n, (cut,) * n), {axis: sign}), Box.full(n))


def projector_commutator(f, axis, cuts) -> LatticeOperator:
    """[f, P_axis^+] = P_axis^- f P_axis^+ - P_axis^+ f P_axis^-, Tate's commutator.

    Both sandwiches of every atom are merged and glued once; each resulting
    atom is bounded on the axis.
    """
    plus, minus = region(cuts, {axis: "+"}), region(cuts, {axis: "-"})
    _check_boxes(f.n, plus)
    return LatticeOperator(f.n, f.d, _merge_and_glue([
        *_restricted(1, f, minus, plus), *_restricted(-1, f, plus, minus)]))


def mul_operator(f) -> LatticeOperator:
    """Multiplication by a LaurentPoly (d=1) or by a GLaurent via ad (d=dim g)."""
    if isinstance(f, LaurentPoly):
        atoms = [
            KernelAtom(exp, ((1,),), LaurentPoly.monomial(f.n, (0,) * f.n, c), Box.full(f.n))
            for exp, c in f.terms
        ]
        return LatticeOperator.make(f.n, 1, atoms)
    if isinstance(f, GLaurent):
        d = f.algebra.dim
        atoms = [
            KernelAtom(exp, ad(el), LaurentPoly.one(f.n), Box.full(f.n))
            for exp, el in f.iter_terms()
        ]
        return LatticeOperator.make(f.n, d, atoms)
    raise TypeError(f"cannot build a multiplication operator from {type(f).__name__}")


def derivation_operator(n, s, axis) -> LatticeOperator:
    """t^s d/dt_axis acting on k[t_1^+-, ...]: e_lam -> lam_axis e_(lam + s - e_axis)."""
    if not 1 <= axis <= n:
        raise DimensionMismatch(f"axis {axis} outside 1..{n}")
    s = tuple(integer(x, "derivation shift") for x in s)
    if len(s) != n:
        raise DimensionMismatch(f"shift {s} has length {len(s)}, expected {n}")
    shift = tuple(x - (1 if i == axis - 1 else 0) for i, x in enumerate(s))
    return LatticeOperator.make(n, 1, [
        KernelAtom(shift, ((1,),), LaurentPoly.variable(n, axis), Box.full(n))
    ])
