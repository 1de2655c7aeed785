"""Hypothesis fuzzing of chain JSON and --cuts through the CLI.

Every drawn chain document ends in the value of an independent reference or
in the documented error payload of the expected type; every drawn --cuts
string ends in the no-cuts residue (choice independence) or in the payload.
"""

import contextlib
import copy
import io
import itertools
import json
import sys
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parshin.cli import MAX_N, main
from parshin.cocycle import phi_closed_form
from parshin.liealg import sl2, to_json_dict

SL2 = sl2()
SL2_WEIGHT = {"H": 0, "E": 2, "F": -2}
SL2_BALANCE = {0: "H", 2: "F", -2: "E"}
# placeholders swapped into the JSON text: the sl2 file's path, a JSON
# integer too long for json.dumps to write, and an array nested deeper than
# json.dumps (or json.load) can recurse
SL2_REF = "@sl2"
BIG_REF = "@big"
NEST_REF = "@nest"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def assert_error_payload(code, doc, kind, case, named=""):
    assert code == 1, case
    assert set(doc) == {"error"} and set(doc["error"]) == {"type", "message"}, case
    assert doc["error"]["type"] == kind and isinstance(doc["error"]["message"], str), case
    assert named in doc["error"]["message"], case


def det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
        prod = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += prod
    return total


def reference(names, rows):
    """phi on one monomial wedge with unit coefficients, f_0 first."""
    n = len(rows) - 1
    if names:
        return phi_closed_form([SL2.by_name(name) for name in names], rows)
    if any(sum(row[j] for row in rows) for j in range(n)):
        return 0
    return (-1) ** n * det(rows[1:])


# -- chain documents ------------------------------------------------------------

@st.composite
def coefficient(draw):
    """(JSON value, its rational): an int, a "p" string or a "p/q" string."""
    num = draw(st.integers(-4, 4))
    form = draw(st.sampled_from(["int", "str", "frac"]))
    if form == "int":
        return num, Fraction(num)
    if form == "str":
        return str(num), Fraction(num)
    den = draw(st.integers(1, 5))
    return f"{num}/{den}", Fraction(num, den)


@st.composite
def valid_chain(draw, flavor):
    """(document, value): scalar or sl2 monomial chains at n = 1..3."""
    n = draw(st.integers(1, 3))
    terms, value = [], Fraction(0)
    for _ in range(draw(st.integers(1, 3))):
        rows = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n + 1)]
        names = [draw(st.sampled_from(SL2.basis_names)) for _ in rows] if flavor == "sl2" else []
        # most terms balance their exponent columns (and sl2 weights), so phi is not 0
        if draw(st.integers(0, 3)):
            rows[0] = [-sum(row[j] for row in rows[1:]) for j in range(n)]
            names[:1] = [SL2_BALANCE.get(sum(SL2_WEIGHT[y] for y in names[1:]), "H")] * len(names[:1])
        term, weight = {"factors": []}, Fraction(1)
        if draw(st.booleans()):
            term["coeff"], c = draw(coefficient())
            weight *= c
        for k, row in enumerate(rows):
            factor = {"exp": row}
            if names:
                factor["Y"] = names[k]
            if draw(st.booleans()):
                factor["coeff"], c = draw(coefficient())
                weight *= c
            term["factors"].append(factor)
        terms.append(term)
        value += weight * reference(names, rows)
    algebra = SL2_REF if flavor == "sl2" else "scalar"
    return {"n": n, "algebra": algebra, "terms": terms}, value


NOT_INT = [True, False, 1.0, 2.5, "1", [1], None, {"n": 1}]
NOT_RATIONAL = [True, False, 1.5, 0.1, "1.5", "x", "1/0", "", None, [1], {}]


def near_miss_kinds(flavor):
    kinds = ("n", "terms", "term", "factors", "factor", "exp", "coeff", "exp length",
             "count", "mixed", "over MAX_N", "digits", "nesting")
    return kinds + ("basis",) if flavor == "sl2" else kinds


@st.composite
def near_miss(draw, flavor, kind=None):
    """(document, error type): one edit, of the given kind or a drawn one, that must be refused."""
    doc, _ = draw(valid_chain(flavor))
    n = doc["n"]
    term = draw(st.sampled_from(doc["terms"]))
    factor = draw(st.sampled_from(term["factors"]))
    if kind is None:
        kind = draw(st.sampled_from(near_miss_kinds(flavor)))
    if kind == "n":
        choice = draw(st.sampled_from(["range", "type", "missing"]))
        if choice == "missing":
            del doc["n"]
        elif choice == "type":
            doc["n"] = draw(st.sampled_from(NOT_INT))
        else:
            # refused before any factor is read, so the factors keep the old n
            doc["n"] = draw(st.sampled_from([0, -1, MAX_N + 1]))
        return doc, "ArityError"
    if kind == "terms":
        if draw(st.booleans()):
            del doc["terms"]
        else:
            doc["terms"] = draw(st.sampled_from(["x", 3, {}, None, True]))
        return doc, "ArityError"
    if kind == "term":
        doc["terms"][doc["terms"].index(term)] = draw(st.sampled_from(["x", 3, [], None]))
        return doc, "ValueError"
    if kind == "factors":
        if draw(st.booleans()):
            del term["factors"]
        else:
            term["factors"] = draw(st.sampled_from(["x", 3, {}, None]))
        return doc, "ValueError"
    if kind == "factor":
        term["factors"][term["factors"].index(factor)] = draw(st.sampled_from(["x", 3, [], None]))
        return doc, "ValueError"
    if kind == "exp":
        choice = draw(st.sampled_from(["missing", "whole", "entry"]))
        if choice == "missing":
            del factor["exp"]
        elif choice == "whole":
            factor["exp"] = draw(st.sampled_from(["1", 1, None, {}]))
        else:
            factor["exp"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_INT))
        return doc, "ValueError"
    if kind == "coeff":
        target = term if draw(st.booleans()) else factor
        target["coeff"] = draw(st.sampled_from(NOT_RATIONAL))
        return doc, "ValueError"
    if kind == "exp length":
        factor["exp"] = [0] * draw(st.sampled_from([m for m in (n - 1, n + 1, n + 2) if m >= 0]))
        return doc, "DimensionMismatch"
    if kind == "count":
        if draw(st.booleans()):
            term["factors"].pop()
        else:
            term["factors"].append(copy.deepcopy(factor))
        return doc, "DimensionMismatch"
    if kind == "mixed":
        if flavor == "scalar":
            doc["algebra"] = SL2_REF
            factor["Y"] = draw(st.sampled_from(SL2.basis_names))
        elif draw(st.booleans()):
            del factor["Y"]
        else:
            doc["terms"].append({"factors": [{"exp": [0] * n} for _ in range(n + 1)]})
        return doc, "MixedFlavors"
    if kind == "over MAX_N":
        doc["n"] = n = MAX_N + draw(st.integers(1, 3))
        for t in doc["terms"]:
            t["factors"] = [dict(f, exp=[0] * n) for f in t["factors"][:1] * (n + 1)]
        return doc, "ArityError"
    if kind == "digits":
        # a JSON integer or a "p" string over Python's int-to-str digit limit
        big = BIG_REF if draw(st.booleans()) else "3" * (sys.get_int_max_str_digits() + 1)
        if draw(st.booleans()):
            (term if draw(st.booleans()) else factor)["coeff"] = big
        else:
            factor["exp"][0] = BIG_REF
        return doc, "ValueError"
    if kind == "nesting":
        # the file is refused as it is read, wherever the nesting sits
        factor[draw(st.sampled_from(["coeff", "exp"]))] = NEST_REF
        return doc, "ValueError"
    factor["Y"] = draw(st.sampled_from(["Q", "e0", "h", "", 3, None, True]))
    return doc, "ValueError"


@st.composite
def chain_case(draw):
    """(document, expected): a valid chain with its value, or a near-miss with its error type."""
    flavor = draw(st.sampled_from(["scalar", "sl2"]))
    if draw(st.booleans()):
        return draw(valid_chain(flavor))
    return draw(near_miss(flavor))


@pytest.fixture(scope="module")
def sl2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("algebra") / "sl2.json"
    path.write_text(json.dumps(to_json_dict(SL2)))
    return path


def run_chain(sl2_file, doc, options=()):
    text = json.dumps(doc).replace(json.dumps(SL2_REF), json.dumps(str(sl2_file)))
    text = text.replace(json.dumps(BIG_REF), "7" * (sys.get_int_max_str_digits() + 1))
    text = text.replace(json.dumps(NEST_REF), "[" * 2000 + "]" * 2000)
    path = sl2_file.parent / "chain.json"
    path.write_text(text)
    return run(["cocycle", "--input", str(path), *options, "--json"])


def assert_refused(sl2_file, doc, expected):
    """The error payload of the expected type; one that refuses n names it."""
    n = doc.get("n") if isinstance(doc, dict) else None
    named = f"n = {n}" if type(n) is int and not 1 <= n <= MAX_N else ""
    assert_error_payload(*run_chain(sl2_file, doc), expected, doc, named)


def n_outside(n):
    """A chain whose n is outside 1..MAX_N; its factors are for n = 1."""
    return {"n": n, "algebra": "scalar", "terms": [{"factors": [{"exp": [-1]}, {"exp": [1]}]}]}, "ArityError"


@given(chain_case(), st.sampled_from([None, None, "scalar", "multiloop", "vectorfield"]))
@example(n_outside(0), None)
@example(n_outside(-1), None)
@example(n_outside(MAX_N + 1), None)
@settings(max_examples=300, deadline=timedelta(seconds=5))
def test_chain_documents_through_the_cli(sl2_file, case, flavor_arg):
    doc, expected = case
    if isinstance(expected, str):
        assert_refused(sl2_file, doc, expected)
        return
    code, out = run_chain(sl2_file, doc, () if flavor_arg is None else ("--flavor", flavor_arg))
    flavor = "multiloop" if doc["algebra"] == SL2_REF else "scalar"
    if flavor_arg not in (None, flavor):
        assert_error_payload(code, out, "MixedFlavors", doc)
        return
    assert code == 0, doc
    assert out == {"flavor": flavor, "n": doc["n"], "value": str(expected)}, doc


# the derandomized draws above leave whole near-miss kinds out, and which ones
# changes with that test's source, so every kind is drawn here; 16 examples a
# kind reach every choice within the n and exp kinds
@pytest.mark.parametrize("flavor, kind", [(flavor, kind) for flavor in ("scalar", "sl2")
                                          for kind in near_miss_kinds(flavor)])
@given(data=st.data())
@settings(max_examples=16, deadline=timedelta(seconds=5))
def test_every_near_miss_kind_through_the_cli(sl2_file, flavor, kind, data):
    assert_refused(sl2_file, *data.draw(near_miss(flavor, kind)))


# -- --cuts ---------------------------------------------------------------------

FORMS = ("t1^-1 ; t1", "3*t1^-3 ; t1^2 - 2*t1^3",
         "t1^-2*t2^-1 ; t1^2 + t2 ; t2 - 3*t1*t2",
         "t1^-1*t2^-1*t3^-1 ; t1 ; t2 ; t3 + t1^2")


@st.composite
def cut_piece(draw):
    """A --cuts piece: an integer with signs and spaces, or a near-miss."""
    kind = draw(st.sampled_from(["int", "int", "int", "empty", "space", "long", "junk"]))
    spaces = st.sampled_from(["", "", " ", "  ", "\t"])
    if kind == "int":
        sign = draw(st.sampled_from(["", "", "-", "+"]))
        return draw(spaces) + sign + str(draw(st.integers(0, 10 ** 6))) + draw(spaces)
    if kind == "empty":
        return ""
    if kind == "space":
        return draw(spaces) + " "
    if kind == "long":
        limit = sys.get_int_max_str_digits()
        return draw(st.sampled_from(["", "-"])) + "5" * draw(st.sampled_from([limit, limit + 1, limit + 40]))
    return draw(st.sampled_from(["1.5", "a", "--2", "+-1", "1e3", "0x10", "3,", "½", "1/2"]))


@pytest.fixture(scope="module")
def uncut():
    return {form: run(["residue", "--form", form, "--json"])[1] for form in FORMS}


@given(st.sampled_from(FORMS), st.lists(cut_piece(), min_size=1, max_size=5))
@settings(max_examples=150, deadline=timedelta(seconds=5))
def test_cuts_strings_through_the_cli(uncut, form, pieces):
    cuts = ",".join(pieces)
    code, out = run(["residue", "--form", form, "--cuts=" + cuts, "--json"])
    n = uncut[form]["n"]
    try:
        # an empty --cuts is no cuts
        values = [int(piece) for piece in cuts.split(",")] if cuts else [0]
    except ValueError:
        assert_error_payload(code, out, "ValueError", cuts)
        return
    if len(values) not in (1, n):
        assert_error_payload(code, out, "DimensionMismatch", cuts)
        return
    assert code == 0 and out == uncut[form] and out["agrees"] is True, cuts
