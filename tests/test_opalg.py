"""Lattice operators: action, composition, projectors, traces, ideal tests."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.errors import ArityError, DimensionMismatch, NotTraceClass
from parshin.laurent import GLaurent, LaurentPoly, parse_poly
from parshin.liealg import ad, sl2
from parshin.matrices import identity, is_zero_matrix, mat_add, matrix
from parshin.opalg import (
    MAX_SLAB_WIDTH,
    Box,
    KernelAtom,
    LatticeOperator,
    _fold_scalar,
    _glue_boxes,
    _iter_cells,
    _normalize,
    _weight_box_sum,
    atom_key,
    derivation_operator,
    mul_operator,
    projector,
    projector_commutator,
    region,
)
from parshin.sampling import random_cube_element, random_exponent, random_laurent, random_operator


def apply(op, vector):
    """Reference action of an operator on a finitely supported map exponent ->
    coefficient vector, atom by atom; scalar entries are accepted for d == 1."""
    out = {}
    zero = (Fraction(0),) * op.d
    for lam, v in vector.items():
        lam = tuple(lam)
        assert len(lam) == op.n
        if not isinstance(v, tuple):
            v = (Fraction(v),) if op.d == 1 else tuple(Fraction(x) for x in v)
        for atom in op.atoms:
            if any((lo is not None and x < lo) or (hi is not None and x >= hi)
                   for (lo, hi), x in zip(atom.box, lam)):
                continue
            w = atom.weight.evaluate(lam)
            if w == 0:
                continue
            target = tuple(x + s for x, s in zip(lam, atom.shift))
            image = tuple(sum(row[k] * v[k] for k in range(len(v))) for row in atom.matrix)
            prev = out.get(target, zero)
            out[target] = tuple(p + w * x for p, x in zip(prev, image))
    return {lam: v for lam, v in out.items() if any(x != 0 for x in v)}


def test_identity_apply():
    op = LatticeOperator.identity(2)
    vec = {(0, 1): (Fraction(2),), (-3, 4): (Fraction(1, 2),)}
    assert apply(op, vec) == vec


def test_shift_apply():
    op = mul_operator(parse_poly("t1"))
    assert apply(op, {(0,): 1}) == {(1,): (Fraction(1),)}


def test_derivation_eigenvector():
    op = derivation_operator(1, (1,), 1)  # t d/dt
    for lam in (-2, 0, 3):
        out = apply(op, {(lam,): 1})
        assert out == ({} if lam == 0 else {(lam,): (Fraction(lam),)})


def test_derivation_kills_constant():
    assert apply(derivation_operator(1, (0,), 1), {(0,): 1}) == {}


def test_compose_projector_sandwich_empty():
    p_plus = projector(1, 1, "+")
    p_minus = projector(1, 1, "-")
    t = mul_operator(parse_poly("t1"))
    assert p_minus.compose(t).compose(p_plus).is_structurally_zero()


def test_compose_projector_sandwich_rank_one():
    p_plus = projector(1, 1, "+")
    p_minus = projector(1, 1, "-")
    tinv = mul_operator(parse_poly("t1^-1"))
    op = p_minus.compose(tinv).compose(p_plus)
    assert apply(op, {(0,): 1}) == {(-1,): (Fraction(1),)}
    assert apply(op, {(1,): 1}) == {}
    assert op.in_ideal(1, "0")


def test_multiplication_operators_commute():
    a = mul_operator(parse_poly("3*t1^2 + t1^-1"))
    b = mul_operator(parse_poly("1/2*t1^-3"))
    assert a.commutator(b).is_structurally_zero()


def test_projector_identities():
    for n, axis in ((1, 1), (2, 2)):
        plus = projector(n, axis, "+")
        minus = projector(n, axis, "-")
        assert plus.compose(plus) == plus
        assert plus.compose(minus).is_structurally_zero()
        assert plus + minus == LatticeOperator.identity(n)
    p1 = projector(2, 1, "+")
    p2 = projector(2, 2, "-")
    assert p1.compose(p2) == p2.compose(p1)


def test_mul_operator_shapes():
    assert mul_operator(LaurentPoly.one(2)) == LatticeOperator.identity(2)
    op = mul_operator(parse_poly("t1*t2^-1"))
    assert len(op.atoms) == 1 and op.atoms[0].shift == (1, -1)

    from parshin.laurent import GLaurent

    alg = sl2()
    gop = mul_operator(GLaurent.monomial(1, alg.by_name("E"), (1,)))
    assert gop.d == 3
    assert gop.atoms[0].shift == (1,)
    assert gop.atoms[0].matrix == ad(alg.by_name("E"))


def test_witt_relations():
    def L(m):
        return derivation_operator(1, (m + 1,), 1)

    for a in range(-2, 3):
        for b in range(-2, 3):
            assert L(a).commutator(L(b)) == L(a + b).scale(b - a)


# -- trace ---------------------------------------------------------------------

def test_trace_finite_box():
    op = LatticeOperator.make(1, 1, [
        KernelAtom((0,), matrix([[1]]), LaurentPoly.one(1), Box.of([(0, 5)]))
    ])
    assert op.trace() == 5


def test_trace_no_diagonal():
    assert mul_operator(parse_poly("t1 + 4*t1^2")).trace() == 0


def test_trace_projector_not_trace_class():
    with pytest.raises(NotTraceClass):
        projector(1, 1, "+").trace()


def test_trace_cancelling_unbounded_atoms():
    # [P+, t] t^-1 has two unbounded same-shift atoms whose difference is e_0
    p_plus = projector(1, 1, "+")
    t = mul_operator(parse_poly("t1"))
    tinv = mul_operator(parse_poly("t1^-1"))
    assert p_plus.commutator(t).compose(tinv).trace() == 1


def test_trace_polynomial_weight():
    op = LatticeOperator.make(1, 1, [
        KernelAtom((0,), matrix([[1]]), LaurentPoly.variable(1, 1), Box.of([(-3, 4)]))
    ])
    assert op.trace() == sum(range(-3, 4))


def test_trace_refuses_a_box_wider_than_the_slab_cap():
    # a box is summed one lattice point at a time: at 10^9 that would take about half an hour
    at_cap = LatticeOperator.make(1, 1, [KernelAtom((0,), ((1,),), LaurentPoly.one(1), ((0, MAX_SLAB_WIDTH),))])
    assert at_cap.trace() == MAX_SLAB_WIDTH
    for width in (MAX_SLAB_WIDTH + 1, 10**9):
        op = LatticeOperator.make(1, 1, [KernelAtom((0,), ((1,),), LaurentPoly.one(1), ((0, width),))])
        start = time.perf_counter()
        with pytest.raises(ArityError, match=f"^a commutator slab {width} lattice points wide "
                                             f"exceeds the cap {MAX_SLAB_WIDTH}$"):
            op.trace()
        assert time.perf_counter() - start < 0.1


def test_trace_refuses_what_one_atom_sums_over_many_cells():
    # nested boxes and half-bounded boxes that cancel outside a slab are cut
    # into cells of at most the cap each; the atom covering both is what counts
    cap = MAX_SLAB_WIDTH
    one = LaurentPoly.one(1)
    two = one.scale(2)
    nested = LatticeOperator.make(1, 1, [KernelAtom((0,), ((1,),), one, ((0, cap),)),
                                         KernelAtom((0,), ((1,),), one, ((0, 2 * cap),))])
    half = LatticeOperator.make(1, 1, [KernelAtom((0,), ((1,),), two, ((0, None),)),
                                       KernelAtom((0,), ((1,),), -one, ((cap, None),)),
                                       KernelAtom((0,), ((1,),), -one, ((2 * cap, None),))])
    for op in (nested, half):
        start = time.perf_counter()
        with pytest.raises(ArityError, match=f"^a commutator slab {2 * cap} lattice points wide "
                                             f"exceeds the cap {cap}$"):
            op.trace()
        assert time.perf_counter() - start < 0.1
    # the same form summed through ack_residue_n1's operator
    f0 = mul_operator(parse_poly(f"t1^-{cap} + t1^-{2 * cap}", 1))
    f1 = mul_operator(parse_poly(f"t1^{cap} + t1^{2 * cap}", 1))
    with pytest.raises(ArityError, match=f"^a commutator slab {2 * cap} lattice points wide"):
        projector(1, 1, "+").commutator(f1).compose(f0).trace()


def test_weight_box_sum_refuses_by_the_box_alone():
    # lam_1 sums to 0 over [-5, 6), so the second axis's sum is never needed;
    # the box is still refused, whatever the weight
    box = ((-5, 6), (0, MAX_SLAB_WIDTH + 1))
    for weight in (parse_poly("t1", 2), LaurentPoly.one(2)):
        with pytest.raises(ArityError, match=f"^a commutator slab {MAX_SLAB_WIDTH + 1} lattice points"):
            _weight_box_sum(weight, box)


def test_trace_properties_random():
    rng = random.Random(6)
    for trial in range(25):
        n = rng.randint(1, 2)
        d = 1 if trial % 2 else 3
        a = random_operator(rng, n, d)
        b = random_operator(rng, n, d)
        assert a.commutator(b).trace() == 0
        assert a.compose(b).trace() == b.compose(a).trace()
        assert (a + b).trace() == a.trace() + b.trace()


def test_trace_commutator_with_unbounded_side():
    # a in the trace ideal, b arbitrary banded: both products trace class
    rng = random.Random(7)
    for _ in range(15):
        a = random_operator(rng, 1, 1)
        b = mul_operator(parse_poly("t1^2 + 2*t1^-1")) + projector(1, 1, "+")
        assert a.commutator(b).trace() == 0


# -- ideal membership -----------------------------------------------------------

def test_in_ideal_examples():
    assert projector(2, 1, "+").in_ideal(1, "+")
    assert not projector(2, 1, "+").in_ideal(1, "-")
    t1 = mul_operator(parse_poly("t1", 2))
    assert not t1.in_ideal(1, "+")
    assert not t1.in_ideal(1, "-")


@pytest.mark.parametrize("axis", [0, 3, -1])
def test_in_ideal_refuses_an_axis_outside_the_lattice(axis):
    with pytest.raises(DimensionMismatch, match=rf"^axis {axis} outside 1\.\.2$"):
        projector(2, 2, "+").in_ideal(axis, "+")


@pytest.mark.parametrize("sign", ["x", "", "+-", None])
def test_in_ideal_refuses_a_sign_that_names_no_ideal(sign):
    with pytest.raises(ValueError, match="ideal sign must be '\\+', '-' or '0'"):
        LatticeOperator.identity(1).in_ideal(1, sign)


def test_ideal_decomposition_and_products():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 2)
        t = random_operator(rng, n, 1, box_bound=2) + mul_operator(
            LaurentPoly.monomial(n, (1,) * n, 2)
        )
        axis = rng.randint(1, n)
        plus = projector(n, axis, "+").compose(t)
        minus = projector(n, axis, "-").compose(t)
        assert plus + minus == t
        assert plus.in_ideal(axis, "+")
        assert minus.in_ideal(axis, "-")
        # two-sided ideal: products of members stay members
        other = random_operator(rng, n, 1)
        assert plus.compose(other).in_ideal(axis, "+")
        assert other.compose(plus).in_ideal(axis, "+")


# -- algebra laws / semantic equality -------------------------------------------

def test_algebra_laws_random():
    rng = random.Random(9)
    for trial in range(20):
        n = rng.randint(1, 2)
        d = 1 if trial % 2 else 3
        a, b, c = (random_operator(rng, n, d) for _ in range(3))
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)
        assert a.compose(b + c) == a.compose(b) + a.compose(c)
        assert (a + b).compose(c) == a.compose(c) + b.compose(c)
        jac = (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
               + c.commutator(a.commutator(b)))
        assert jac.is_zero()


def test_semantic_equality_vs_apply():
    rng = random.Random(10)
    for _ in range(20):
        n = rng.randint(1, 2)
        a = random_operator(rng, n, 1)
        b = random_operator(rng, n, 1)
        diff = a - b
        # probe on a window covering all boxes plus margin
        points = [tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(60)]
        agree = all(apply(a, {p: 1}) == apply(b, {p: 1}) for p in points)
        if diff.is_zero():
            assert agree
        elif not agree:
            assert not diff.is_zero()


def test_piecewise_cancellation_normalizes_away():
    one = LatticeOperator.identity(1)
    assert (projector(1, 1, "+") + projector(1, 1, "-") - one).atoms == ()


def test_atom_order_is_independent_of_input_order():
    # an unbounded end must not tie with a bound however far out
    one = LaurentPoly.one(1)
    for unbounded, bounded in (((None, 5), (-10**18, 5)), ((5, None), (5, 10**18))):
        a = KernelAtom((0,), matrix([[1]]), one, Box.of([unbounded]))
        b = KernelAtom((0,), matrix([[1]]), one, Box.of([bounded]))
        assert LatticeOperator.make(1, 1, [a, b]).atoms == LatticeOperator.make(1, 1, [b, a]).atoms


def test_glued_atoms_are_independent_of_input_order():
    # unit squares of a 3x3 grid glue into the same boxes however they arrive
    one = LaurentPoly.one(2)
    for seed in range(300):
        rng = random.Random(seed)
        cells = [(x, y) for x in range(3) for y in range(3) if rng.random() < 0.6]
        atoms = [KernelAtom((0, 0), matrix([[1]]), one, Box.of([(x, x + 1), (y, y + 1)]))
                 for x, y in cells]
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        assert LatticeOperator.make(2, 1, atoms).atoms == LatticeOperator.make(2, 1, shuffled).atoms, cells


def _is_empty(box):
    return any(lo is not None and hi is not None and lo >= hi for lo, hi in box)


def _reference_normalize(n, d, atoms):
    """The plain fixpoint loop: every step rebuilds its list, and rounds repeat until one changes nothing."""
    pending = []
    for atom in atoms:
        if _is_empty(atom.box) or atom.weight.is_zero() or is_zero_matrix(atom.matrix):
            continue
        pending.append(_fold_scalar(d, atom))

    changed = True
    while changed:
        changed = False
        merged = {}
        for atom in pending:
            key = (atom.shift, atom.box, atom.matrix)
            if key in merged:
                merged[key] = merged[key] + atom.weight
                changed = True
            else:
                merged[key] = atom.weight
        pending = [KernelAtom(s, m, w, b) for (s, b, m), w in merged.items() if not w.is_zero()]

        merged = {}
        for atom in pending:
            key = (atom.shift, atom.box, atom.weight)
            if key in merged:
                merged[key] = mat_add(merged[key], atom.matrix)
                changed = True
            else:
                merged[key] = atom.matrix
        pending = [KernelAtom(s, m, w, b) for (s, b, w), m in merged.items() if not is_zero_matrix(m)]

        groups = {}
        for atom in pending:
            groups.setdefault((atom.shift, atom.weight, atom.matrix), []).append(atom.box)
        glued = []
        for (shift, weight, mat), boxes in groups.items():
            boxes = sorted(boxes, key=lambda box: tuple((lo is not None, lo or 0, hi is None, hi or 0)
                                                        for lo, hi in box))
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
                            changed = True
                            break
                    if merged_any:
                        break
            glued.extend(KernelAtom(shift, mat, weight, b) for b in boxes)
        pending = glued

    pending.sort(key=atom_key)
    return tuple(pending)


def _random_atom_list(rng, n, d):
    """Random atoms with repeats, negated weights or matrices, and split boxes."""
    lam1, one = LaurentPoly.variable(n, 1), LaurentPoly.one(n)
    weights = [one, lam1.scale(2), one + lam1, one.scale(Fraction(1, 3))]
    if d == 1:
        matrices = [matrix([[1]]), matrix([[2]]), matrix([[Fraction(1, 2)]])]
    else:
        a = matrix([[1, 0, 2], [0, -1, 0], [3, 0, 0]])
        b = matrix([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        matrices = [a, b, mat_add(a, b), identity(3)]
    points = [None, -2, 0, 1, 3, None]

    def fresh():
        bounds = []
        for _ in range(n):
            k = rng.randrange(len(points) - 1)
            bounds.append((points[k], points[min(k + rng.choice((1, 2)), len(points) - 1)]))
        shift = tuple(rng.choice((0, 0, 1)) for _ in range(n))
        return KernelAtom(shift, rng.choice(matrices), rng.choice(weights), tuple(bounds))

    def split(atom):
        # two boxes abutting along one axis, which glue back into the atom's box
        i = rng.randrange(n)
        lo, hi = atom.box[i]
        cut = rng.randint(-3, 3) if lo is None or hi is None else rng.randint(lo, hi)
        halves = []
        for part in ((lo, cut), (cut, hi)):
            bounds = list(atom.box)
            bounds[i] = part
            halves.append(KernelAtom(atom.shift, atom.matrix, atom.weight, tuple(bounds)))
        return halves

    atoms = []
    for _ in range(rng.randint(0, 5)):
        atom = fresh()
        move = rng.choice(("alone", "repeat", "negate weight", "negate matrix", "split"))
        if move == "repeat":
            atoms += [atom] * rng.randint(2, 3)
        elif move == "negate weight":
            atoms += [atom, KernelAtom(atom.shift, atom.matrix, -atom.weight, atom.box)]
        elif move == "negate matrix":
            negated = tuple(tuple(-x for x in row) for row in atom.matrix)
            atoms += [atom, KernelAtom(atom.shift, negated, atom.weight, atom.box)]
        elif move == "split":
            atoms += split(atom)
        else:
            atoms.append(atom)
    return atoms


def test_normalize_matches_the_reference_fixpoint_loop():
    kinds = dict.fromkeys(("duplicates", "weights cancel", "matrices cancel", "boxes glue"), 0)
    for seed in range(400):
        rng = random.Random(seed)
        n, d = rng.choice((1, 2)), rng.choice((1, 3))
        atoms = _random_atom_list(rng, n, d)
        got = _normalize(n, d, atoms)
        assert got == _reference_normalize(n, d, atoms), seed
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        assert _normalize(n, d, shuffled) == got, seed
        assert _normalize(n, d, got) == got, seed
        kept = [_fold_scalar(d, a) for a in atoms if not _is_empty(a.box)]
        pairs = [(a, b) for a, b in itertools.combinations(kept, 2) if (a.shift, a.box) == (b.shift, b.box)]
        kinds["duplicates"] += any(a == b for a, b in pairs)
        kinds["weights cancel"] += any(a.matrix == b.matrix and (a.weight + b.weight).is_zero()
                                       for a, b in pairs)
        kinds["matrices cancel"] += d == 3 and any(a.weight == b.weight
                                                   and is_zero_matrix(mat_add(a.matrix, b.matrix))
                                                   for a, b in pairs)
        kinds["boxes glue"] += any(a.box not in {b.box for b in kept} for a in got)
    # the seeds exercise every step of the loop
    assert all(count >= 20 for count in kinds.values()), kinds


def test_restrict_matches_projector_composition():
    rng = random.Random(11)
    for trial in range(200):
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-2, 2) for _ in range(n))
        if trial % 2:
            op = random_operator(rng, n, d)
        else:
            element = random_cube_element(rng, n, rng.randint(1, n + 1), d)
            op = rng.choice(list(element.components.values()) or [LatticeOperator.zero(n, d)])
        a, g, h = rng.randint(1, n), rng.choice("+-"), rng.choice("+-")
        composed = (projector(n, a, g, d, cuts[a - 1]).compose(op)
                    .compose(projector(n, a, h, d, cuts[a - 1])))
        assert op.restrict(region(cuts, {a: g}), region(cuts, {a: h})).atoms == composed.atoms
        word = [rng.choice("+-") for _ in range(n)]
        composed = op
        for axis in range(n, 0, -1):
            composed = projector(n, axis, word[axis - 1], d, cuts[axis - 1]).compose(composed)
        assert op.restrict(region(cuts, dict(enumerate(word, 1))), Box.full(n)).atoms == composed.atoms


def _random_component(rng, n, d):
    if rng.random() < 0.5:
        return random_operator(rng, n, d)
    element = random_cube_element(rng, n, rng.randint(1, n + 1), d)
    return rng.choice(list(element.components.values()) or [LatticeOperator.zero(n, d)])


def _random_region(rng, cuts):
    return region(cuts, {a: rng.choice("+-") for a in range(1, len(cuts) + 1) if rng.random() < 0.6})


def test_combine_matches_the_scale_add_restrict_chain():
    rng = random.Random(17)
    for _ in range(150):
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-2, 2) for _ in range(n))
        ops = [_random_component(rng, n, d) for _ in range(rng.randint(1, 4))]
        coeffs = [rng.choice((1, -1, 2, Fraction(-1, 3))) for _ in ops]
        outer = rng.choice((1, -1))
        # one cut for the whole sum, as epsilon makes it: scale, +, restrict, scale
        image = _random_region(rng, cuts)
        chain = LatticeOperator.zero(n, d)
        for op, c in zip(ops, coeffs):
            chain = chain + op.scale(c)
        chain = chain.restrict(image, Box.full(n)).scale(outer)
        combined = LatticeOperator.combine(n, d, [(outer * c, op, image) for op, c in zip(ops, coeffs)])
        assert combined == chain and combined.atoms == chain.atoms
        # one cut per term, as the homotopies make it; None leaves a term uncut
        images = [_random_region(rng, cuts) if rng.random() < 0.8 else None for _ in ops]
        chain = LatticeOperator.zero(n, d)
        for op, c, im in zip(ops, coeffs, images):
            chain = chain + (op if im is None else op.restrict(im, Box.full(n))).scale(c)
        chain = chain.scale(outer)
        combined = LatticeOperator.combine(n, d, [(outer * c, op, im)
                                                  for op, c, im in zip(ops, coeffs, images)])
        assert combined == chain and combined.atoms == chain.atoms


def _box_cut(box, image, shift):
    """box & (image - shift), axis by axis; empty cuts are kept as empty boxes."""
    bounds = []
    for (lo, hi), (ilo, ihi), s in zip(box, image, shift):
        los = [x for x in (lo, None if ilo is None else ilo - s) if x is not None]
        his = [x for x in (hi, None if ihi is None else ihi - s) if x is not None]
        bounds.append((max(los, default=None), min(his, default=None)))
    return tuple(bounds)


def _reference_combine(n, d, terms):
    """Every term's atoms scaled and cut through ``_box_cut``, then one make."""
    atoms = []
    for c, op, image in terms:
        for a in op.atoms:
            box = a.box if image is None else _box_cut(a.box, image, a.shift)
            atoms.append(KernelAtom(a.shift, a.matrix, a.weight.scale(c), box))
    return LatticeOperator.make(n, d, atoms)


def _random_normalized(rng, n, d):
    """A normalized operator: bounded boxes, cube components, or full-box multiplications and projectors."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_operator(rng, n, d, atoms=rng.randint(1, 3))
    if kind == 1:
        element = random_cube_element(rng, n, rng.randint(1, n + 1), d)
        return rng.choice(list(element.components.values()) or [LatticeOperator.zero(n, d)])
    if kind == 2:
        return projector(n, rng.randint(1, n), rng.choice("+-"), d, rng.randint(-2, 2))
    if d == 1:
        return mul_operator(random_laurent(rng, n, exp_bound=2))
    return mul_operator(GLaurent.monomial(n, sl2().basis()[rng.randrange(3)], random_exponent(rng, n, 2)))


def test_combine_matches_the_per_term_make_reference():
    kinds = dict.fromkeys(("emptied", "unbounded", "zero coefficient", "uncut", "cancelled"), 0)
    for seed in range(300):
        rng = random.Random(seed)
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-3, 3) for _ in range(n))
        terms = [(rng.choice((1, -1, 0, Fraction(3, 2))), _random_normalized(rng, n, d),
                  _random_region(rng, cuts) if rng.random() < 0.75 else None)
                 for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:  # a term and its negation
            c, op, image = rng.choice(terms)
            terms.append((-c, op, image))
        want = _reference_combine(n, d, terms)
        got = LatticeOperator.combine(n, d, terms)
        assert got.atoms == want.atoms and str(got) == str(want), seed
        assert got == want, seed
        rng.shuffle(terms)
        assert LatticeOperator.combine(n, d, terms).atoms == got.atoms, seed
        cut = [_box_cut(a.box, image, a.shift)
               for c, op, image in terms if image is not None for a in op.atoms]
        kinds["emptied"] += any(_is_empty(box) for box in cut)
        kinds["unbounded"] += any(None in bound for box in cut for bound in box)
        kinds["zero coefficient"] += any(c == 0 and op.atoms for c, op, _ in terms)
        kinds["uncut"] += any(image is None and op.atoms for _, op, image in terms)
        kinds["cancelled"] += len(got.atoms) < sum(len(op.atoms) for c, op, _ in terms if c != 0)
    # the seeds exercise every branch of the cut and the merge
    assert all(count >= 30 for count in kinds.values()), kinds


def test_operator_text_does_not_depend_on_coefficient_storage():
    box = Box.of([(0, 3)])
    ints = LaurentPoly.make(1, {(1,): 2, (0,): -1})
    fractions = LaurentPoly(1, (((0,), Fraction(-1)), ((1,), Fraction(2))))
    assert ints == fractions and [type(c) for _, c in ints.terms] == [int, int]
    texts = {str(LatticeOperator.make(1, 1, [KernelAtom((1,), ((1,),), w, box)])) for w in (ints, fractions)}
    assert texts == {"[shift=(1,), box=((0, 3),), w=-1 + 2*t1]"}


def test_combine_and_restrict_check_dimensions():
    two = LatticeOperator.identity(2)
    with pytest.raises(DimensionMismatch):
        two.restrict(Box.of([(0, None)]), Box.full(2))
    with pytest.raises(DimensionMismatch):
        two.restrict(Box.full(2), Box.full(1))
    with pytest.raises(DimensionMismatch):
        LatticeOperator.combine(2, 1, [(1, two, Box.full(3))])
    with pytest.raises(DimensionMismatch):
        LatticeOperator.combine(2, 1, [(1, two, None), (1, LatticeOperator.identity(2, 3), None)])
    with pytest.raises(DimensionMismatch):
        two - LatticeOperator.identity(1)
    with pytest.raises(DimensionMismatch):
        two + LatticeOperator.identity(1)
    with pytest.raises(DimensionMismatch):
        two + LatticeOperator.identity(2, 3)
    with pytest.raises(DimensionMismatch):
        projector_commutator(two, 1, (0,))


def test_projector_commutator_matches_projector_compositions():
    multi_atom = 0
    for seed in range(80):
        rng = random.Random(seed)
        n, d = rng.randint(1, 3), rng.choice((1, 3))
        cuts = tuple(rng.randint(-3, 3) for _ in range(n))
        f = random_operator(rng, n, d, atoms=rng.randint(2, 3)) + _random_normalized(rng, n, d)
        multi_atom += len(f.atoms) >= 2
        for axis in range(1, n + 1):
            plus, minus = (projector(n, axis, sign, d, cuts[axis - 1]) for sign in "+-")
            want = minus.compose(f).compose(plus) - plus.compose(f).compose(minus)
            got = projector_commutator(f, axis, cuts)
            assert got.atoms == want.atoms and str(got) == str(want), (seed, axis)
            assert got == want, (seed, axis)
    assert multi_atom >= 70


def test_region_and_projector_reject_unknown_signs():
    for sign in ("0", "", "+-", None):
        with pytest.raises(ValueError):
            region((0,), {1: sign})
        with pytest.raises(ValueError):
            projector(1, 1, sign)


def test_scale_keeps_atoms_in_canonical_order():
    one, full = LaurentPoly.one(1), Box.full(1)
    op = LatticeOperator.make(1, 2, [
        KernelAtom((0,), matrix([[1, 0], [0, 0]]), one, full),
        KernelAtom((0,), matrix([[0, 1], [0, 0]]), one.scale(2), full),
    ])
    for c in (-1, 3, Fraction(-1, 2)):
        scaled = op.scale(c)
        assert list(scaled.atoms) == sorted(scaled.atoms, key=atom_key)
        assert scaled.atoms == LatticeOperator.make(1, 2, scaled.atoms).atoms
        assert (-op).atoms == LatticeOperator.combine(1, 2, [(-1, op, None)]).atoms


def test_integral_matrix_entries_are_ints():
    m = matrix([[1, Fraction(4, 2)], [Fraction(1, 2), "-3"]])
    assert [type(x) for row in m for x in row] == [int, int, Fraction, int]
    assert m == ((1, 2), (Fraction(1, 2), -3))
    assert all(type(x) is int for row in identity(3) for x in row)
    alg = sl2()
    for y in alg.basis() + [alg.element((2, -1, 3))]:
        assert all(type(x) is int for row in ad(y) for x in row)
    assert Fraction(1, 2) in ad(alg.element((Fraction(1, 4), 0, 0)))[1]


def test_fraction_and_int_matrix_atoms_merge():
    one, full = LaurentPoly.one(1), Box.full(1)
    ints = KernelAtom((1,), matrix([[2, 0], [0, 1]]), one, full)
    fractions = KernelAtom((1,), ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))), one.scale(3), full)
    merged = LatticeOperator.make(1, 2, [ints, fractions])
    assert len(merged.atoms) == 1 and merged.atoms[0].weight == one.scale(4)
    assert LatticeOperator.make(1, 2, [ints, fractions]).atoms == LatticeOperator.make(1, 2, [fractions, ints]).atoms
    scalar = KernelAtom((0,), ((Fraction(1),),), one, full)
    assert LatticeOperator.make(1, 1, [scalar]) == LatticeOperator.identity(1)
    assert (LatticeOperator.make(1, 1, [scalar]) - LatticeOperator.identity(1)).atoms == ()


def test_cut_parameter():
    p = projector(1, 1, "+", cut=2)
    assert apply(p, {(2,): 1}) == {(2,): (Fraction(1),)}
    assert apply(p, {(1,): 1}) == {}


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LatticeOperator.identity(1).compose(LatticeOperator.identity(2))


def _inside(box, point):
    return all((lo is None or lo <= x) and (hi is None or x < hi) for (lo, hi), x in zip(box, point))


@st.composite
def _pieces(draw):
    n = draw(st.integers(1, 3))
    bound = st.one_of(st.none(), st.integers(-3, 3))
    boxes = st.lists(st.tuples(bound, bound), min_size=n, max_size=n).map(tuple)
    return n, draw(st.lists(st.tuples(boxes, st.integers(-5, 5)), max_size=4))


@given(_pieces())
@settings(max_examples=150, deadline=None)
def test_arrangement_walk_matches_brute_force(drawn):
    n, pieces = drawn
    cells = list(_iter_cells(n, pieces))
    ends = [v for box, _ in pieces for bounds in box for v in bounds if v is not None]
    window = range(min(ends, default=0) - 2, max(ends, default=0) + 3)
    for point in itertools.product(window, repeat=n):
        values = [value for box, value in pieces if _inside(box, point)]
        hits = [listed for cell, listed in cells if _inside(cell, point)]
        if hits:
            assert len(hits) == 1 and hits[0] == values and sum(hits[0]) == sum(values), point
        else:
            assert values == [], point
