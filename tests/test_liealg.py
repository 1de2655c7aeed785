"""Lie algebra layer: validation, adjoint matrices, the generalized Killing form."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parshin.errors import AntisymmetryViolation, ArityError, JacobiViolation, MixedAlgebras, ParshinError, shown
from parshin.liealg import (
    MAX_DIM,
    abelian,
    ad,
    from_json_dict,
    heisenberg3,
    is_centreless,
    killing_nform,
    sl2,
    to_json_dict,
    validate,
)
from parshin.matrices import mat_mul, mat_trace


def brute_ad(alg, coeffs):
    """Independent adjoint matrix straight off the structure constants."""
    y = alg.element(coeffs)
    cols = []
    for j in range(alg.dim):
        img = y.bracket(alg.basis_element(j))
        cols.append(img.coeffs)
    return tuple(tuple(cols[j][i] for j in range(alg.dim)) for i in range(alg.dim))


def test_abelian_validates():
    alg = abelian(3)
    assert alg.dim == 3
    assert all(alg.basis_element(i).bracket(alg.basis_element(j)).coeffs == (0, 0, 0)
               for i in range(3) for j in range(3))


def test_sl2_validates():
    alg = sl2()
    h, e, f = alg.by_name("H"), alg.by_name("E"), alg.by_name("F")
    assert h.bracket(e).coeffs == (0, 2, 0)
    assert h.bracket(f).coeffs == (0, 0, -2)
    assert e.bracket(f).coeffs == (1, 0, 0)


def test_antisymmetry_violation():
    with pytest.raises(AntisymmetryViolation) as err:
        validate({(0, 1): {2: 1}, (1, 0): {2: 1}}, dim=3)
    assert err.value.pair == (0, 1)


def test_jacobi_violation():
    # J(e0,e1,e2) = [e0,[e1,e2]] = e2 != 0 for this table
    structure = {
        (0, 1): {2: 1}, (1, 0): {2: -1},
        (0, 2): {1: 1}, (2, 0): {1: -1},
        (1, 2): {1: 1}, (2, 1): {1: -1},
    }
    with pytest.raises(JacobiViolation) as err:
        validate(structure, dim=3)
    assert err.value.triple == (0, 1, 2)


def test_ad_abelian_is_zero():
    alg = abelian(3)
    assert ad(alg.element((1, 2, 3))) == tuple((Fraction(0),) * 3 for _ in range(3))


def test_ad_sl2_h_diagonal():
    alg = sl2()
    m = ad(alg.by_name("H"))
    assert m == ((0, 0, 0), (0, 2, 0), (0, 0, -2))


def test_ad_is_bracket_homomorphism():
    import random

    alg = sl2()
    rng = random.Random(0)
    for _ in range(25):
        x = alg.element([rng.randint(-3, 3) for _ in range(3)])
        y = alg.element([rng.randint(-3, 3) for _ in range(3)])
        lhs = ad(x.bracket(y))
        axy = mat_mul(ad(x), ad(y))
        ayx = mat_mul(ad(y), ad(x))
        rhs = tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(axy, ayx))
        assert lhs == rhs


def test_killing_form_values_sl2():
    alg = sl2()
    h, e, f = alg.by_name("H"), alg.by_name("E"), alg.by_name("F")
    assert killing_nform(e, f) == 4
    assert killing_nform(h, h) == 8
    # ternary value against a direct matrix product oracle
    expected = mat_trace(mat_mul(mat_mul(ad(h), ad(e)), ad(f)))
    assert killing_nform(h, e, f) == expected == 4


def test_killing_form_abelian_zero():
    alg = abelian(4)
    xs = [alg.element((1, 0, 2, -1)), alg.element((0, 1, 1, 1))]
    assert killing_nform(*xs) == 0
    assert killing_nform(xs[0], xs[1], xs[0]) == 0


def test_killing_multilinear():
    import random

    alg = sl2()
    rng = random.Random(1)
    for _ in range(20):
        x, y, z = (alg.element([rng.randint(-2, 2) for _ in range(3)]) for _ in range(3))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = killing_nform(x + z.scale(c), y)
        assert lhs == killing_nform(x, y) + c * killing_nform(z, y)
        lhs = killing_nform(x, y + z.scale(c), x)
        assert lhs == killing_nform(x, y, x) + c * killing_nform(x, z, x)


def test_negation_and_difference_laws():
    rng = random.Random(4)
    for alg in (sl2(), heisenberg3()):
        zero = alg.element([0] * alg.dim)
        for _ in range(10):
            x = alg.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(alg.dim)])
            assert x - x == zero
            assert -(-x) == x
            assert x + (-x) == zero
            assert (-x).coeffs == tuple(-c for c in x.coeffs)


def test_mixed_algebras_rejected():
    with pytest.raises(MixedAlgebras):
        killing_nform(sl2().by_name("H"), abelian(3).basis_element(0))


def test_centreless():
    assert is_centreless(sl2())
    assert not is_centreless(abelian(1))
    assert not is_centreless(abelian(4))
    assert not is_centreless(heisenberg3())  # z is central


def test_centreless_matches_the_direct_sum_centre():
    """The centre of a direct sum is the sum of the centres, and rescaling the
    basis (e_i -> s_i e_i, so c_ij^k -> c_ij^k s_i s_j / s_k) keeps it."""
    assert is_centreless(abelian(0))
    two_dim = validate({(0, 1): {1: 1}, (1, 0): {1: -1}}, dim=2)  # [e0, e1] = e1: centre 0
    blocks = [(sl2(), True), (two_dim, True), (heisenberg3(), False), (abelian(1), False)]
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    for _ in range(200):
        chosen = [rng.choice(blocks) for _ in range(rng.randint(1, 3))]
        rows, offset = {}, 0
        for block, _ in chosen:
            for i in range(block.dim):
                for j in range(block.dim):
                    rows[(offset + i, offset + j)] = {offset + k: c for k, c in block.rows[i][j]}
            offset += block.dim
        scale = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
                 for _ in range(offset)]
        structure = {(i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in vec.items()}
                     for (i, j), vec in rows.items()}
        want = all(centreless for _, centreless in chosen)
        assert is_centreless(validate(structure, dim=offset)) is want, chosen
        seen[want] += 1
    assert min(seen.values()) >= 40, seen


def test_json_round_trip():
    alg = sl2()
    doc = to_json_dict(alg)
    assert doc["basis"] == ["H", "E", "F"]
    again = from_json_dict(doc)
    assert again == alg


def test_equality_and_hash_follow_the_structure_constants():
    heis = {(0, 1): {2: 1}, (1, 0): {2: -1}}
    same = validate({(0, 1): {2: Fraction(2, 2), 0: 0}, (1, 0): {2: Fraction(-1)}}, dim=3)
    assert same == validate(heis, dim=3) and hash(same) == hash(validate(heis, dim=3))
    assert validate(heis, dim=3) != abelian(3)
    assert validate(heis, dim=3, basis_names=("x", "y", "z")) == heisenberg3()


def test_json_rational_strings():
    doc = {
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [{"i": 0, "j": 1, "coeffs": {"0": "1/2"}}],
    }
    alg = from_json_dict(doc)
    a, b = alg.basis()
    assert a.bracket(b).coeffs == (Fraction(1, 2), 0)
    assert b.bracket(a).coeffs == (Fraction(-1, 2), 0)


# -- fuzzing the JSON reader against a dense reference ---------------------------
#
# The reference reads a document with the reader's field checks and messages,
# holds the table as dense Fraction vectors, and checks Jacobi by bracketing
# basis vectors in a dense loop, apart from the sparse rows the reader uses.

_PLAIN_INDEX = re.compile(r"0|-?[1-9][0-9]*")
_JSON_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def reference_bracket(table, x, y):
    acc = [Fraction(0)] * len(x)
    for i, a in enumerate(x):
        if a == 0:
            continue
        for j, b in enumerate(y):
            if b == 0:
                continue
            for k, v in enumerate(table[i][j]):
                if v != 0:
                    acc[k] += a * b * v
    return acc


def reference_check(table):
    """Raise on the first failing pair (row-major), then on the first failing triple."""
    dim = len(table)
    for i in range(dim):
        for j in range(dim):
            if any(a != -b for a, b in zip(table[i][j], table[j][i])):
                raise AntisymmetryViolation(i, j)
    units = [[Fraction(int(k == i)) for k in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                x, y, z = units[i], units[j], units[k]
                total = [sum(t) for t in zip(reference_bracket(table, x, reference_bracket(table, y, z)),
                                             reference_bracket(table, y, reference_bracket(table, z, x)),
                                             reference_bracket(table, z, reference_bracket(table, x, y)))]
                if any(total):
                    raise JacobiViolation(i, j, k)


def reference_rational(value, what):
    match = _JSON_RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if type(value) is int:
        return Fraction(value)
    if match and (match[2] is None or int(match[2])):
        return Fraction(int(match[1]), int(match[2] or 1))
    raise ValueError(f"{what} coefficient {value!r} is not a rational: give an integer or a \"p/q\" string")


def test_reader_refuses_brackets_that_are_not_a_list():
    for brackets in (5, None, {}, "x"):
        with pytest.raises(ValueError, match=f"^'brackets' must be a list of bracket entries, got {re.escape(repr(brackets))}$"):
            from_json_dict({"dim": 3, "brackets": brackets})
    assert from_json_dict({"dim": 3}).dim == 3


def reference_read(doc):
    """(basis, dense table) of a Lie-algebra document, or the reader's error."""
    if not isinstance(doc, dict) or type(doc.get("dim")) is not int or doc["dim"] < 0:
        raise ValueError("a Lie-algebra document needs a non-negative integer 'dim'")
    dim = doc["dim"]
    if dim > MAX_DIM:
        raise ArityError(f"Lie-algebra dim {dim} exceeds the cap {MAX_DIM}")
    basis = doc.get("basis", [f"e{i}" for i in range(dim)])
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(name, str) for name in basis) or len(set(basis)) != dim):
        raise ValueError(f"'basis' must list {dim} distinct names, got {shown(basis)}")
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in doc.get("brackets", ()):
        if (not isinstance(entry, dict) or type(entry.get("i")) is not int
                or type(entry.get("j")) is not int or not isinstance(entry.get("coeffs"), dict)):
            raise ValueError(f"bracket entry {shown(entry)} needs integer 'i', 'j' and a 'coeffs' object")
        i, j = entry["i"], entry["j"]
        if not 0 <= i < j < dim:
            raise ParshinError(f"bracket entry must have 0 <= i < j < dim, got ({i}, {j})")
        vec = [Fraction(0)] * dim
        for k, c in entry["coeffs"].items():
            if not _PLAIN_INDEX.fullmatch(k):
                raise ValueError(f"bracket ({i}, {j}) has coefficient key {k!r}, which is not a plain decimal index")
            if not 0 <= int(k) < dim:
                raise ValueError(f"bracket ({i}, {j}) coefficient index {k!r} is not in 0..{dim - 1}")
            vec[int(k)] = reference_rational(c, f"bracket {k!r}")
        table[i][j] = vec
        table[j][i] = [-c for c in vec]
    reference_check(table)
    return basis, table


def outcome(read, doc):
    try:
        return read(doc)
    except (ValueError, ParshinError) as exc:
        return exc


# Direct summands: (dim, {(i, j): {k: c}} for i < j).
BLOCKS = (
    (1, {}),
    (2, {(0, 1): {1: 1}}),
    (3, {(0, 1): {2: 1}}),
    (3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}),
)
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
BAD_KEYS = ("0_1", " +1 ", "x", "01", "+1", "-0", "1.0", "", "-1", "7", "١")
BAD_VALUES = (1.5, True, None, [1], "1/0", "x", "1.5", " 1", "2/-3", float("inf"))
BAD_INDICES = ("0", True, None, 1.0, -1, 7)


@st.composite
def lie_tables(draw, dim):
    """{(i, j): {k: c}} for i < j: a direct sum of BLOCKS in a permuted, rescaled basis."""
    base, offset = {}, 0
    while offset < dim:
        size, consts = draw(st.sampled_from([b for b in BLOCKS if b[0] <= dim - offset]))
        for (i, j), vec in consts.items():
            base[(offset + i, offset + j)] = {offset + k: c for k, c in vec.items()}
        offset += size
    perm = draw(st.permutations(range(dim)))
    inv = {p: a for a, p in enumerate(perm)}
    scale = [draw(SMALL.filter(bool)) for _ in range(dim)]

    def const(p, q):
        if p < q:
            return base.get((p, q), {})
        return {k: -c for k, c in base.get((q, p), {}).items()}

    # f_a = scale[a] e_perm[a]
    table = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            vec = {inv[r]: scale[a] * scale[b] * c / scale[inv[r]] for r, c in const(perm[a], perm[b]).items()}
            if vec:
                table[(a, b)] = vec
    return table


def encode(c, as_int):
    if as_int and c.denominator == 1:
        return c.numerator
    return str(c)


@st.composite
def lie_documents(draw):
    dim = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["valid", "near miss", "random"]))
    if kind == "random":
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        table = {p: draw(st.dictionaries(st.integers(0, dim - 1), SMALL, max_size=2)) for p in chosen}
    else:
        table = draw(lie_tables(dim))
        if kind == "near miss" and dim >= 2:
            i = draw(st.integers(0, dim - 2))
            j = draw(st.integers(i + 1, dim - 1))
            k = draw(st.integers(0, dim - 1))
            vec = table.setdefault((i, j), {})
            vec[k] = vec.get(k, 0) + draw(SMALL.filter(bool))
    as_int = draw(st.booleans())
    brackets = [{"i": i, "j": j, "coeffs": {str(k): encode(c, as_int) for k, c in vec.items()}}
                for (i, j), vec in sorted(table.items())]
    doc = {"dim": dim, "brackets": brackets}
    if draw(st.booleans()):
        doc["basis"] = [f"b{i}" for i in range(dim)]
    if draw(st.integers(0, 2)) == 0:
        doc = draw(malformed(doc))
    return doc


@st.composite
def malformed(draw, doc):
    dim, brackets = doc["dim"], doc["brackets"]
    where = draw(st.sampled_from(["key", "value", "i", "j", "coeffs", "entry", "basis", "dim"]))
    if where == "dim":
        doc["dim"] = draw(st.sampled_from(["3", 3.0, True, -1, None, MAX_DIM + 1]))
    elif where == "basis":
        doc["basis"] = draw(st.sampled_from([["x"] * dim, [f"b{i}" for i in range(dim + 1)],
                                             list(range(dim)), "b0"]))
    elif not brackets:
        brackets.append(draw(st.sampled_from(["x", [0, 1, {}], {"i": 0, "j": 1, "coeffs": {"0": 1}}])))
    else:
        entry = draw(st.sampled_from(brackets))
        if where == "entry":
            brackets[brackets.index(entry)] = draw(st.sampled_from(["x", [0, 1], None]))
        elif where in ("i", "j"):
            entry[where] = draw(st.sampled_from(BAD_INDICES + (entry["j" if where == "i" else "i"],)))
        elif where == "coeffs":
            entry["coeffs"] = draw(st.sampled_from([[1, 0], "1", None]))
        elif where == "key":
            entry["coeffs"][draw(st.sampled_from(BAD_KEYS))] = "1"
        else:
            entry["coeffs"][str(draw(st.integers(0, max(dim - 1, 0))))] = draw(st.sampled_from(BAD_VALUES))
    return doc


@given(lie_documents())
@settings(max_examples=400, deadline=None)
def test_reader_agrees_with_the_dense_reference(doc):
    want = outcome(reference_read, doc)
    got = outcome(from_json_dict, doc)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        if isinstance(want, JacobiViolation):
            assert got.triple == want.triple
        return
    assert not isinstance(got, Exception), got
    basis, table = want
    assert got.basis_names == tuple(basis)
    for i, x in enumerate(got.basis()):
        for j, y in enumerate(got.basis()):
            assert x.bracket(y).coeffs == tuple(table[i][j])
        assert ad(x) == tuple(tuple(table[i][j][k] for j in range(got.dim)) for k in range(got.dim))


@st.composite
def sparse_structures(draw):
    """A validate() structure map, mirrored with a sign flip pair by pair unless the draw says not."""
    dim = draw(st.integers(1, 5))
    structure = {}
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        vec = draw(st.dictionaries(st.integers(0, dim - 1), SMALL, max_size=2))
        structure[(i, j)] = vec
        if draw(st.integers(0, 3)):
            structure[(j, i)] = {k: -c for k, c in vec.items()}
    return dim, structure


@given(sparse_structures())
@settings(max_examples=200, deadline=None)
def test_validate_reports_the_reference_pair_and_triple(case):
    dim, structure = case
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in structure.items():
        table[i][j] = [Fraction(vec.get(k, 0)) for k in range(dim)]
    want = outcome(reference_check, table)
    got = outcome(lambda s: validate(s, dim=dim), structure)
    if want is None:
        for i, x in enumerate(got.basis()):
            for j, y in enumerate(got.basis()):
                assert x.bracket(y).coeffs == tuple(table[i][j])
    else:
        assert type(got) is type(want) and str(got) == str(want)
