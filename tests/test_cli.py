"""Command-line interface: parsing, subcommands, JSON determinism."""

import decimal
import json
import sys

import pytest

from parshin.cli import main, parse_form
from parshin.errors import ArityError, ParseError, shown
from parshin.laurent import LaurentPoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- parse_form -------------------------------------------------------------------

def test_parse_form_n1():
    f0, fs = parse_form("t1^-1 ; t1")
    assert f0 == LaurentPoly.monomial(1, (-1,))
    assert fs == [LaurentPoly.variable(1, 1)]


def test_parse_form_n2():
    f0, fs = parse_form("t1^-2*t2^-3 ; t1*t2 ; t1*t2^2")
    assert f0.n == 2 and len(fs) == 2


def test_parse_form_errors():
    with pytest.raises(ParseError) as err:
        parse_form("t1^^2 ; t1")
    assert err.value.offset == 3
    with pytest.raises(ArityError):
        parse_form("t1^-1")
    with pytest.raises(ArityError):
        parse_form("t1 ; t1 ; t1")  # three polys but only t1 mentioned


def test_parse_form_offset_in_later_segment():
    with pytest.raises(ParseError) as err:
        parse_form("t1^-1 ; t1^^3")
    assert err.value.offset == len("t1^-1 ;") + 4


# -- subcommands --------------------------------------------------------------------

def test_residue_command_json(capsys):
    code, out, _ = run_cli(capsys, "residue", "--form", "t1^-1 ; t1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["residue"] == "1" and doc["oracle"] == "1" and doc["agrees"] is True


def test_residue_command_text(capsys):
    code, out, _ = run_cli(capsys, "residue", "--form", "3/7*t1^-1 ; t1")
    assert code == 0
    assert "residue  = 3/7" in out


def test_residue_command_cuts(capsys):
    code, out, _ = run_cli(capsys, "residue", "--form", "t1^-2*t2^-3 ; t1*t2 ; t1*t2^2",
                           "--cuts=-2,3", "--json")
    assert code == 0
    assert json.loads(out)["residue"] == "1"


def test_residue_parse_error_json(capsys):
    code, out, _ = run_cli(capsys, "residue", "--form", "t1^^2", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ParseError"
    assert "offset 3" in doc["error"]["message"]


def test_residue_error_text_goes_to_stderr(capsys):
    code, out, err = run_cli(capsys, "residue", "--form", "t1^^2")
    assert code == 1 and out == "" and "offset 3" in err


def test_residue_form_from_a_file(tmp_path, capsys):
    form = "t1^-2*t2^-3 ; t1*t2 ; t1*t2^2"
    path = tmp_path / "form.txt"
    path.write_text(f"\n{form}\n")
    want = run_cli(capsys, "residue", "--form", form, "--json")
    assert want[0] == 0
    assert run_cli(capsys, "residue", "--input", str(path), "--json") == want


def test_residue_needs_a_form_or_an_input(capsys):
    assert_error(capsys, ["residue", "--json"], "ArityError", "provide --form TEXT or --input PATH")


def test_residue_input_that_is_missing(tmp_path, capsys):
    path = tmp_path / "missing.txt"
    assert_error(capsys, ["residue", "--input", str(path), "--json"], "FileNotFoundError", str(path))


def test_residue_input_that_is_not_utf8_names_the_file_and_the_option(tmp_path, capsys):
    # a decode error used to end in a UnicodeDecodeError payload naming neither
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"t1^-1 ; t1\xff")
    assert_error(capsys, ["residue", "--input", str(path), "--json"], "ValueError",
                 f"--input {path}", "not UTF-8", "0xff")


def test_json_determinism(capsys):
    args = ("residue", "--form", "2*t1^-1 + t1 ; t1 + t1^2", "--json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_cocycle_command(tmp_path, capsys):
    from parshin.liealg import sl2, to_json_dict

    algebra_path = tmp_path / "sl2.json"
    algebra_path.write_text(json.dumps(to_json_dict(sl2())))
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({
        "n": 1,
        "algebra": str(algebra_path),
        "terms": [{"coeff": "1",
                   "factors": [{"Y": "E", "exp": [2]}, {"Y": "F", "exp": [-2]}]}],
    }))
    code, out, _ = run_cli(capsys, "cocycle", "--input", str(chain_path),
                           "--flavor", "multiloop", "--json")
    assert code == 0
    assert json.loads(out)["value"] == "8"


def test_cocycle_scalar_and_vectorfield(tmp_path, capsys):
    chain_path = tmp_path / "scalar.json"
    chain_path.write_text(json.dumps({
        "n": 1, "algebra": "scalar",
        "terms": [{"factors": [{"exp": [-3]}, {"exp": [3]}]}],
    }))
    code, out, _ = run_cli(capsys, "cocycle", "--input", str(chain_path),
                           "--flavor", "scalar", "--json")
    assert code == 0 and json.loads(out)["value"] == "-3"

    vf_path = tmp_path / "vf.json"
    vf_path.write_text(json.dumps({
        "n": 1, "algebra": "scalar",
        "terms": [{"factors": [{"s": [3], "i": 1}, {"s": [-1], "i": 1}]}],
    }))
    code, out, _ = run_cli(capsys, "cocycle", "--input", str(vf_path),
                           "--flavor", "vectorfield", "--json")
    assert code == 0 and json.loads(out)["value"] == "-1"


def test_cocycle_vectorfield_factor_coeff(tmp_path, capsys):
    # the coeff of an "s" factor used to be dropped, and "Y" silently won over "s"
    for coeff, value in (("5", "-5"), (-2, "2"), ("1/3", "-1/3"), (0, "0")):
        chain = write_chain(tmp_path, [{"factors": [{"s": [3], "i": 1, "coeff": coeff}, {"s": [-1], "i": 1}]}])
        code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
        assert code == 0 and json.loads(out)["value"] == value
    chain = write_chain(tmp_path, [{"factors": [{"s": [3], "i": 1, "coeff": 1.5}, {"s": [-1], "i": 1}]}])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "1.5", "rational")
    for extra in ({"Y": "E"}, {"exp": [3]}):
        factor = {"s": [3], "i": 1, **extra}
        chain = write_chain(tmp_path, [{"factors": [factor, {"s": [-1], "i": 1}]}])
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError",
                     f"chain factor {factor!r}", "'s' with 'Y' or 'exp'")


def test_virasoro_command(capsys):
    code, out, _ = run_cli(capsys, "virasoro", "--max-m", "3", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{"m": 1, "phi": "0"}, {"m": 2, "phi": "-1"}, {"m": 3, "phi": "-4"}]


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rho", "--trials", "50", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True and doc["checks"] > 0


def test_verify_fixtures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures")
    assert code == 0
    assert "passed  = True" in out


def test_verify_cube_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "cube", "--n", "2",
                           "--seed", "42", "--trials", "3", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


# -- refused inputs: the error payload, exit 1, no traceback ----------------------

def assert_error(capsys, argv, error_type, *fragments):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert set(doc) == {"error"} and doc["error"]["type"] == error_type
    for fragment in fragments:
        assert fragment in doc["error"]["message"]


def test_residue_checks_cuts_on_an_unbalanced_form(capsys):
    # a form with no balanced tuple used to print a residue of 0 and exit 0
    for form in ("t1^-1 ; t1", "t1 ; t1"):
        assert_error(capsys, ["residue", "--form", form, "--cuts", "1,2,3", "--json"],
                     "DimensionMismatch", "need 1 cut points, got 3")


def test_residue_caps_n(capsys):
    code, out, _ = run_cli(capsys, "residue", "--form",
                           "t1^-1*t2^-1*t3^-1*t4^-1 ; t1 ; t2 ; t3 ; t4", "--json")
    assert code == 0 and json.loads(out)["residue"] == "1"
    assert_error(capsys, ["residue", "--form",
                          "t1^-1*t2^-1*t3^-1*t4^-1*t5^-1 ; t1 ; t2 ; t3 ; t4 ; t5", "--json"],
                 "ArityError", "n = 5")


def write_chain(tmp_path, terms, algebra="scalar"):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": 1, "algebra": algebra, "terms": terms}))
    return str(path)


def sl2_path(tmp_path):
    from parshin.liealg import sl2, to_json_dict

    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(to_json_dict(sl2())))
    return str(path)


def test_cocycle_term_without_factors(tmp_path, capsys):
    for term in ({"coeff": "1"}, {"factors": 3}, "E"):
        chain = write_chain(tmp_path, [term])
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'factors'")
    chain = write_chain(tmp_path, 5)
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ArityError", "'terms'")


def test_cocycle_factor_without_exp(tmp_path, capsys):
    chain = write_chain(tmp_path, [{"factors": [{"exp": [-1]}, {"coeff": "2"}]}])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'exp'")
    chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [1]}, {"Y": "F"}]}],
                        algebra=sl2_path(tmp_path))
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'exp'")


def test_cocycle_term_coeff_must_be_rational(tmp_path, capsys):
    # a zero denominator and Infinity used to end in a traceback, and a float
    # or a bool was read as a binary fraction or as 1
    for coeff, shown in (([1], "[1]"), ("1/0", "'1/0'"), (float("inf"), "inf"),
                         (0.1, "0.1"), (True, "True"), ("1.5", "'1.5'")):
        chain = write_chain(tmp_path, [{"coeff": coeff, "factors": [{"exp": [-1]}, {"exp": [1]}]}])
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", shown, "rational")
        chain = write_chain(tmp_path, [{"factors": [{"exp": [-1], "coeff": coeff}, {"exp": [1]}]}])
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", shown, "rational")


def test_cocycle_factor_exp_must_hold_integers(tmp_path, capsys):
    # string and float exponents used to give a wrong value, not an error
    for exp in ([[1]], ["1"], [1.5]):
        chain = write_chain(tmp_path, [{"factors": [{"exp": exp}, {"exp": [-1]}]}])
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'exp'", "integers")
    chain = write_chain(tmp_path, [{"factors": [{"s": [2], "i": [1]}, {"s": [0]}]}])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'i'")


def test_cocycle_chain_n_must_be_an_integer(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"n": [1], "algebra": "scalar",
                                "terms": [{"factors": [{"exp": [-1]}, {"exp": [1]}]}]}))
    assert_error(capsys, ["cocycle", "--input", str(path), "--json"], "ArityError", "'n'")


def algebra_chain(tmp_path, algebra_doc):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra_doc))
    return write_chain(tmp_path, [{"factors": [{"Y": "e0", "exp": [1]}, {"Y": "e1", "exp": [-1]}]}],
                       algebra=str(path))


def test_cocycle_algebra_file_without_dim(tmp_path, capsys):
    for doc in ({}, {"dim": -1}):
        chain = algebra_chain(tmp_path, doc)
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'dim'")


def test_cocycle_algebra_bracket_without_coeffs(tmp_path, capsys):
    chain = algebra_chain(tmp_path, {"dim": 2, "brackets": [{"i": 0, "j": 1}]})
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'coeffs'")
    for entry, error_type in (({"i": 0, "j": 5, "coeffs": {}}, "ParshinError"),
                              ({"i": 0, "j": 1, "coeffs": {"-1": "1"}}, "ValueError"),
                              ({"i": 0, "j": 1, "coeffs": {"0": [1]}}, "ValueError"),
                              ({"i": 0, "j": 1, "coeffs": {"0": "1/0"}}, "ValueError"),
                              ({"i": 0, "j": 1, "coeffs": {"0": "1.5"}}, "ValueError")):
        chain = algebra_chain(tmp_path, {"dim": 2, "brackets": [entry]})
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], error_type)


@pytest.mark.parametrize("key", ["0_1", " +1 ", "x", "01", "+1", "-0", "1.0", ""])
def test_cocycle_algebra_bracket_key_must_be_a_plain_index(tmp_path, capsys, key):
    # int(key) used to read "0_1", " +1 ", "01", "+1" and "-0" as an index, and
    # the others ended in a bare int() message naming neither bracket nor key
    chain = algebra_chain(tmp_path, {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {key: "1"}}]})
    assert_error(capsys, ["cocycle", "--input", chain, "--algebra", str(tmp_path / "algebra.json"),
                          "--json"], "ValueError", "bracket (0, 1)", repr(key), "plain decimal index")


def test_cocycle_algebra_refuses_a_repeated_bracket_pair(tmp_path, capsys):
    # the second entry for a pair used to replace the first, and the chain
    # ran with exit 0 on the second table alone
    first, second = {"i": 0, "j": 1, "coeffs": {"0": "1"}}, {"i": 0, "j": 1, "coeffs": {"1": "1"}}
    for brackets in ([first, second], [second, first], [first, first]):
        chain = algebra_chain(tmp_path, {"dim": 2, "brackets": brackets})
        for argv in (["cocycle", "--input", chain, "--json"],
                     ["cocycle", "--input", chain, "--algebra", str(tmp_path / "algebra.json"), "--json"]):
            assert_error(capsys, argv, "ValueError", "bracket (0, 1) is given twice")
    chain = algebra_chain(tmp_path, {"dim": 2, "brackets": [second]})
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    assert code == 0 and json.loads(out)["value"] == "0"


def test_cocycle_algebra_coefficient_error_names_the_pair_and_the_key(tmp_path, capsys):
    # the message used to read "bracket '0' coefficient '1/0' ...", naming the
    # key as if it were the bracket
    for value, shown_value in (("1/0", "'1/0'"), (1.5, "1.5"), ([1], "[1]")):
        chain = algebra_chain(tmp_path, {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": {"0": value}}]})
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError",
                     f"bracket (1, 2) key '0' coefficient {shown_value} is not a rational")


def test_cocycle_algebra_brackets_must_be_a_list(tmp_path, capsys):
    # 5 and null used to end in a TypeError traceback
    for brackets in (5, None, {}, "x"):
        chain = algebra_chain(tmp_path, {"dim": 3, "brackets": brackets})
        assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError",
                     f"'brackets' must be a list of bracket entries, got {brackets!r}")


def test_cocycle_algebra_basis_of_non_strings(tmp_path, capsys):
    chain = algebra_chain(tmp_path, {"dim": 3, "basis": [1, 2, 3]})
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'basis'", "3 distinct")


def test_cocycle_algebra_basis_shorter_than_dim(tmp_path, capsys):
    chain = algebra_chain(tmp_path, {"dim": 3, "basis": ["H"]})
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'basis'", "['H']")


def test_cocycle_algebra_basis_with_a_repeated_name(tmp_path, capsys):
    chain = algebra_chain(tmp_path, {"dim": 3, "basis": ["H", "H", "F"]})
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'basis'", "distinct")


def test_cocycle_algebra_dim_over_the_cap(tmp_path, capsys):
    # validating a dim 200 table would take hours
    from parshin.liealg import MAX_DIM

    chain = algebra_chain(tmp_path, {"dim": 200})
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ArityError",
                 "dim 200", f"cap {MAX_DIM}")


def test_cocycle_algebra_file_that_is_a_list(tmp_path, capsys):
    chain = algebra_chain(tmp_path, [2, 0])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "'dim'")
    chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [1]}, {"Y": "F", "exp": [-1]}]}],
                        algebra=[2, 0])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", "need an algebra")


@pytest.mark.parametrize("algebra", [5, None, ["sl2.json"]])
def test_cocycle_algebra_must_be_a_string(tmp_path, capsys, algebra):
    # a non-string 'algebra' was ignored: scalar factors printed a value and
    # exited 0, and Lie-algebra factors were refused without naming the field
    for factors in ([{"exp": [1]}, {"exp": [-1]}], [{"Y": "E", "exp": [1]}, {"Y": "F", "exp": [-1]}]):
        chain = write_chain(tmp_path, [{"factors": factors}], algebra=algebra)
        for extra in ([], ["--algebra", sl2_path(tmp_path)]):
            assert_error(capsys, ["cocycle", "--input", chain, "--json", *extra], "ValueError",
                         "'algebra'", f"got {shown(algebra)}")


LONG = [0] * 100_000 + ["x"]


@pytest.mark.parametrize("terms, algebra_doc, fragments", [
    ([{"factors": [LONG]}], None, ("chain factor", "must be an object")),
    ([{"factors": [{"exp": LONG}]}], None, ("chain factor", "'exp'")),
    ([{"factors": [{"s": LONG, "exp": [1]}]}], None, ("chain factor", "'s'", "'exp'")),
    ([{"factors": [{"s": [2], "i": LONG}]}], None, ("chain factor", "'i'")),
    ([{"factors": 5, "coeff": LONG}], None, ("chain term", "'factors'")),
    ([{"factors": [{"Y": "x" * 100_000, "exp": [1]}]}], {"dim": 1, "basis": ["H"]}, ("unknown basis element", "H")),
    ([], {"dim": 2, "basis": LONG}, ("'basis'", "2 distinct")),
    ([], {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": LONG}]}, ("bracket entry", "'coeffs'")),
    ([], {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"7" * 5000: "1"}}]}, ("bracket (0, 1)", "plain decimal")),
])
def test_chain_and_algebra_errors_show_a_bounded_value(tmp_path, capsys, terms, algebra_doc, fragments):
    # each message used to hold the whole offending object: a 100,001-element
    # 'exp' gave a 300,110-byte payload
    if algebra_doc is None:
        chain = write_chain(tmp_path, terms)
    else:
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(algebra_doc))
        chain = write_chain(tmp_path, terms, algebra=str(path))
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    assert code == 1 and len(out) < 300, out[:300]
    message = json.loads(out)["error"]["message"]
    assert all(fragment in message for fragment in fragments), message


def test_cocycle_unknown_basis_name(tmp_path, capsys):
    chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [1]}, {"Y": "G", "exp": [-1]}]}],
                        algebra=sl2_path(tmp_path))
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError",
                 "'G'", "H, E, F")


def test_cocycle_unknown_basis_name_lists_a_long_name_cut(tmp_path, capsys):
    algebra = tmp_path / "long.json"
    algebra.write_text(json.dumps({"dim": 2, "basis": ["a", "x" * 100_000]}))
    chain = write_chain(tmp_path, [{"factors": [{"Y": "a", "exp": [1]}, {"Y": "G", "exp": [-1]}]}],
                        algebra=str(algebra))
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    assert code == 1 and len(out.encode()) < 300, out[:400]
    message = json.loads(out)["error"]["message"]
    assert "'G'" in message and "the basis is a, 'xxxx" in message and "(100002 characters)" in message


def test_cocycle_flavor_is_classified_and_checked(tmp_path, capsys):
    chain = write_chain(tmp_path, [{"factors": [{"exp": [-3]}, {"exp": [3]}]}])
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    assert code == 0 and json.loads(out) == {"flavor": "scalar", "n": 1, "value": "-3"}
    assert_error(capsys, ["cocycle", "--input", chain, "--flavor", "vectorfield", "--json"],
                 "MixedFlavors", "vectorfield", "scalar")
    assert_error(capsys, ["cocycle", "--input", chain, "--flavor", "multiloop", "--json"],
                 "MixedFlavors", "multiloop", "scalar")

    sl2_chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [2]}, {"Y": "F", "exp": [-2]}]}],
                            algebra=sl2_path(tmp_path))
    code, out, _ = run_cli(capsys, "cocycle", "--input", sl2_chain, "--json")
    assert code == 0 and json.loads(out) == {"flavor": "multiloop", "n": 1, "value": "8"}

    mixed = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [2]}, {"Y": "F", "exp": [-2]}]},
                                   {"factors": [{"exp": [-3]}, {"exp": [3]}]}],
                        algebra=sl2_path(tmp_path))
    assert_error(capsys, ["cocycle", "--input", mixed, "--json"], "MixedFlavors")


def test_virasoro_rejects_max_m_below_one(capsys):
    # 100000000 is over the cap: the table costs about max_m^2
    for max_m in ("0", "-3", "100000000"):
        assert_error(capsys, ["virasoro", "--max-m", max_m, "--json"], "ArityError", "--max-m")


# Python refuses to read an integer of more than sys.get_int_max_str_digits()
# digits (4300 by default); each reader names its own input instead.

def test_form_integer_over_the_digit_limit(capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for form, offset in ((f"t1^-1 ; t1^{digits}", 11), (f"{digits}*t1^-1 ; t1", 0),
                         (f"t1^-1 ; t{digits}", 8)):
        assert_error(capsys, ["residue", "--form", form, "--json"], "ParseError",
                     f"an integer of {len(digits)} digits", f"(at offset {offset})")


def test_cuts_piece_that_is_not_an_integer(capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    for cuts, shown in (("a", "'a'"), ("1,,2", "''"), (f"1,{digits}", "'1111"), ("1.5", "'1.5'")):
        code, out, _ = run_cli(capsys, "residue", "--form", "t1^-1*t2^-1 ; t1 ; t2",
                               f"--cuts={cuts}", "--json")
        doc = json.loads(out)
        assert code == 1 and doc["error"]["type"] == "ValueError"
        message = doc["error"]["message"]
        assert message.startswith("--cuts takes comma-separated integers") and shown in message
        assert len(message) < 200


def test_chain_coefficient_over_the_digit_limit(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    chain = write_chain(tmp_path, [{"coeff": digits, "factors": [{"exp": [-1]}, {"exp": [1]}]}])
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    doc = json.loads(out)
    assert code == 1 and doc["error"]["type"] == "ValueError"
    message = doc["error"]["message"]
    assert message.startswith("chain term coefficient '1111") and "digit limit" in message
    assert len(message) < 200


def test_results_of_any_size_print_exactly(capsys):
    # the residue has 6000 digits, over Python's int-to-str limit of 4300
    sevens = "7" * 3000
    form = f"{sevens}*t1^-1 ; {sevens}*t1"
    want = str(decimal.Context(prec=7000).multiply(decimal.Decimal(sevens), decimal.Decimal(sevens)))
    code, out, _ = run_cli(capsys, "residue", "--form", form, "--json")
    doc = json.loads(out)
    assert code == 0 and doc["agrees"] is True and len(want) == 6000
    assert {doc[key] for key in ("residue", "oracle", "paper_res_star")} == {want}
    assert doc["raw"] == "-" + doc["residue"]
    code, out, _ = run_cli(capsys, "residue", "--form", form)
    assert code == 0 and f"residue  = {doc['residue']}\n" in out


def test_json_integer_over_the_digit_limit_names_the_file(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    digits = "1" * 5000
    message = f"Exceeds the limit ({limit} digits) for integer string conversion: value has 5000 digits"
    chain = write_chain(tmp_path, [{"coeff": "BIG", "factors": [{"exp": [-1]}, {"exp": [1]}]}])
    with open(chain) as handle:
        text = handle.read().replace('"BIG"', digits)
    with open(chain, "w") as handle:
        handle.write(text)
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", f"{chain}: {message}")
    algebra = tmp_path / "algebra.json"
    algebra.write_text('{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": -%s}}]}' % digits)
    chain = write_chain(tmp_path, [{"factors": [{"Y": "e0", "exp": [1]}, {"Y": "e1", "exp": [-1]}]}],
                        algebra=str(algebra))
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", f"{algebra}: {message}")
    # at the limit the integer is read
    algebra.write_text('{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": -%s}}]}' % digits[:limit])
    assert run_cli(capsys, "cocycle", "--input", chain, "--json")[0] == 0
    # a syntax error names the file too
    algebra.write_text('{"dim": 2, ')
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError", f"{algebra}: Expecting")


# a JSON file nested past the interpreter's recursion limit ends in the
# payload naming the file, through each path a cocycle reads a file by

def nested_file(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 2000 + "]" * 2000)
    return str(path)


def test_chain_file_nested_too_deep_names_the_file(tmp_path, capsys):
    nested = nested_file(tmp_path)
    assert_error(capsys, ["cocycle", "--input", nested, "--json"], "ValueError",
                 f"{nested}: maximum recursion depth exceeded")


def test_algebra_option_nested_too_deep_names_the_file(tmp_path, capsys):
    chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [2]}, {"Y": "F", "exp": [-2]}]}],
                        algebra=sl2_path(tmp_path))
    assert run_cli(capsys, "cocycle", "--input", chain, "--json")[0] == 0
    nested = nested_file(tmp_path)
    assert_error(capsys, ["cocycle", "--input", chain, "--algebra", nested, "--json"], "ValueError",
                 f"{nested}: maximum recursion depth exceeded")


def test_chain_algebra_path_nested_too_deep_names_the_file(tmp_path, capsys):
    nested = nested_file(tmp_path)
    chain = write_chain(tmp_path, [{"factors": [{"Y": "E", "exp": [2]}, {"Y": "F", "exp": [-2]}]}],
                        algebra=nested)
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ValueError",
                 f"{nested}: maximum recursion depth exceeded")


def test_verify_caps_trials(capsys, monkeypatch):
    # 1000000 is over the cap: one n = 4 lift trial takes about 0.12-0.19 s
    for trials in ("0", "-2", "1001", "1000000"):
        assert_error(capsys, ["verify", "--suite", "rho", "--trials", trials, "--json"],
                     "ArityError", "--trials")
    code, out, _ = run_cli(capsys, "verify", "--suite", "rho", "--trials", "1000", "--json")
    assert code == 0 and json.loads(out)["passed"]
    # the benchmark's cube runs
    for trials in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cube", "--n", "2", "--trials", trials, "--json")
        assert code == 0 and json.loads(out)["passed"]

    # at n = MAX_N the cocycle and all suites take up to about 0.8 s a trial,
    # so their trials have a cap of their own, checked before the first trial
    from parshin import cli, verify

    runs = []
    monkeypatch.setattr(verify, "run_suite",
                        lambda name, **kw: runs.append((name, kw)) or verify.CheckReport(name))
    for suite in ("cocycle", "all"):
        for n in (1, 2, 3, 4):
            argv = ["verify", "--suite", suite, "--n", str(n), "--degree-bound", "1000", "--json"]
            largest = cli.MAX_TRIALS
            if n == cli.MAX_N:
                largest = cli.MAX_COCYCLE_TRIALS
                for trials in (largest + 1, 1000):
                    assert_error(capsys, [*argv, "--trials", str(trials)], "ArityError",
                                 f"--trials {trials} of the {suite} suite at n = {n}",
                                 f"cap {cli.MAX_COCYCLE_TRIALS}")
                assert not runs
            assert run_cli(capsys, *argv, "--trials", str(largest))[0] == 0
            assert runs.pop() == (suite, {"n": n, "seed": 1, "trials": largest, "degree_bound": 1000})
    # every run the former seconds estimate accepted stays accepted: it
    # allowed at most 221 cocycle and 139 all trials at n = 4
    assert cli.MAX_COCYCLE_TRIALS >= 221


def test_residue_caps_the_commutator_slab_width(tmp_path, capsys):
    # a trace sums one lattice point of a slab at a time: 3000000 took 7 s
    from parshin.opalg import MAX_SLAB_WIDTH

    for width in (MAX_SLAB_WIDTH + 1, 3_000_000, 10**9):
        code, out, _ = run_cli(capsys, "residue", "--form", f"t1^-{width} ; t1^{width}", "--json")
        assert code == 1 and out == ('{"error": {"message": "a commutator slab %d lattice points wide '
                                     'exceeds the cap %d", "type": "ArityError"}}\n' % (width, MAX_SLAB_WIDTH))
    # a scalar chain's words have constant weights, summed as their slab widths at any width
    chain = write_chain(tmp_path, [{"factors": [{"exp": [-10**9]}, {"exp": [10**9]}]}])
    code, out, _ = run_cli(capsys, "cocycle", "--input", chain, "--json")
    assert code == 0 and json.loads(out)["value"] == "-1000000000"
    # a vector field's weight lam is summed point by point
    chain = write_chain(tmp_path, [{"factors": [{"s": [10**9], "i": 1}, {"s": [2 - 10**9], "i": 1}]}])
    assert_error(capsys, ["cocycle", "--input", chain, "--json"], "ArityError", "slab")
    # the widest shift the benchmark's trace_wide workload draws
    code, out, _ = run_cli(capsys, "residue", "--form", "t1^-24003 ; t1^24003", "--json")
    assert code == 0 and json.loads(out)["residue"] == "24003"


def test_residue_refuses_nested_slabs_by_the_widest(capsys):
    # every slab of a multi-term form is within the cap or not on its own;
    # the form is refused by its widest slab, whatever the nesting
    from parshin.opalg import MAX_SLAB_WIDTH

    cap = MAX_SLAB_WIDTH
    form = f"t1^-{cap} + t1^-{2 * cap} ; t1^{cap} + t1^{2 * cap}"
    code, out, _ = run_cli(capsys, "residue", "--form", form, "--json")
    assert code == 1 and out == ('{"error": {"message": "a commutator slab %d lattice points wide '
                                 'exceeds the cap %d", "type": "ArityError"}}\n' % (2 * cap, cap))


def test_verify_caps_degree_bound(capsys):
    # only a negative bound is refused: a multiloop trial's words have
    # constant weights, whose box sums are their slab widths at any bound
    for n in (1, 2, 3, 4):
        assert_error(capsys, ["verify", "--suite", "cocycle", "--n", str(n), "--trials", "1",
                              "--degree-bound", "-1", "--json"], "ArityError", "--degree-bound must be at least 0")
    for n, trials, bound in ((1, 25, 10**9), (3, 5, 10**6)):
        code, out, _ = run_cli(capsys, "verify", "--suite", "cocycle", "--n", str(n), "--trials", str(trials),
                               "--degree-bound", str(bound), "--json")
        assert code == 0 and json.loads(out)["passed"]


def test_cocycle_caps_n(tmp_path, capsys):
    # n = 5 is pinned in tests/test_golden_outputs.py
    for n, code in ((4, 0), (6, 1)):
        exps = [[-1] * n] + [[int(i == j) for i in range(n)] for j in range(n)]
        path = tmp_path / f"chain{n}.json"
        path.write_text(json.dumps({"n": n, "algebra": "scalar",
                                    "terms": [{"factors": [{"exp": e} for e in exps]}]}))
        if code == 0:
            assert run_cli(capsys, "cocycle", "--input", str(path), "--json")[0] == 0
        else:
            assert_error(capsys, ["cocycle", "--input", str(path), "--json"],
                         "ArityError", f"n = {n}", "n <= 4")


def test_shared_parser_carries_no_state_between_calls(capsys):
    from parshin.cli import build_parser

    form = "t1^-1*t2^-1*t3^-2 ; t1 + t2 ; t2 ; t3^2"
    calls = [
        ("residue", "--form", form, "--cuts=1", "--json"),
        ("residue", "--form", form, "--json"),
        ("residue", "--form", "3/7*t1^-1 ; t1"),
        ("residue", "--form", form, "--bogus"),
        ("residue", "--form", "t1^^2", "--json"),
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 1]

    build_parser.cache_clear()
    assert [run(argv) for argv in calls] == alone
    assert build_parser.cache_info().misses == 1
    assert build_parser().parse_args(["residue", "--form", form]).cuts is None
