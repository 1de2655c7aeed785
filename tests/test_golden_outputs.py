"""The exact ``--json`` text of CLI commands.

Speed work on the operator kernel and the cube complex must leave every
printed byte unchanged.  The strings below were recorded from the CLI and
are compared verbatim, so a change in any value, key order, spacing or exit
code fails here.  The commands cover residue forms at n = 1..3 with and
without ``--cuts``, scalar, sl2 multiloop (n = 2..4, fractional factor
coefficients) and heisenberg3 and vector-field cocycle chains,
the cube suite at n = 2 and 3, the n = 2 lift suite, the cocycle suite at
n = 1 and 2 and at n = 3 with --degree-bound 1000, every suite at n = 1 and 2, the Virasoro table and the error
payloads, among them every flavor refusal of a cocycle chain.
"""

import importlib
import json
import sys

import pytest

from parshin.cli import main
from parshin.liealg import heisenberg3, sl2, to_json_dict
from parshin.verify import operator_vs_closed_form

SL2_CHAIN = {
    "n": 2,
    "terms": [
        {"coeff": "1",
         "factors": [{"Y": "E", "exp": [1, 0]}, {"Y": "F", "exp": [-1, 1]},
                     {"Y": "H", "exp": [0, -1]}]},
        {"coeff": "-2/3",
         "factors": [{"Y": "H", "exp": [2, -1]}, {"Y": "E", "exp": [-1, 1]},
                     {"Y": "F", "exp": [-1, 0], "coeff": "3"}]},
    ],
}

# the second term's exponent columns sum to (1, 2): it contributes 0
SL2_UNBALANCED_CHAIN = {
    "n": 2,
    "terms": [SL2_CHAIN["terms"][0],
              {"coeff": "5",
               "factors": [{"Y": "H", "exp": [1, 1]}, {"Y": "E", "exp": [-1, 1]},
                           {"Y": "F", "exp": [1, 0]}]},
              SL2_CHAIN["terms"][1]],
}

# "3/2" and "-5/3" factor coefficients over the three axes
SL2_N3_CHAIN = {
    "n": 3,
    "terms": [
        {"coeff": "1",
         "factors": [{"Y": "E", "exp": [1, 0, -1], "coeff": "3/2"}, {"Y": "H", "exp": [-1, 1, 0]},
                     {"Y": "H", "exp": [0, -1, 2], "coeff": "-5/3"}, {"Y": "F", "exp": [0, 0, -1]}]},
        {"coeff": "-2",
         "factors": [{"Y": "E", "exp": [2, -1, 0]}, {"Y": "F", "exp": [-1, 1, 1], "coeff": "-5/3"},
                     {"Y": "H", "exp": [-1, 1, 0]}, {"Y": "H", "exp": [0, -1, -1], "coeff": "3/2"}]},
    ],
}

SL2_N4_CHAIN = {
    "n": 4,
    "terms": [{"factors": [{"Y": "H", "exp": [-1, 0, -2, 1]}, {"Y": "H", "exp": [1, 1, 0, 0]},
                           {"Y": "E", "exp": [0, -1, 1, 0]}, {"Y": "F", "exp": [1, 0, 1, -2]},
                           {"Y": "H", "exp": [-1, 0, 0, 1]}]}],
}

# z spans the centre of heisenberg3, so ad(z) = 0 and the first term has a
# zero operator among its entries
HEISENBERG_CHAIN = {
    "n": 2,
    "terms": [
        {"factors": [{"Y": "x", "exp": [1, 0]}, {"Y": "z", "exp": [-1, 1]}, {"Y": "y", "exp": [0, -1]}]},
        {"coeff": "2",
         "factors": [{"Y": "x", "exp": [1, -1]}, {"Y": "y", "exp": [-1, 0]}, {"Y": "x", "exp": [0, 1]}]},
    ],
}

SCALAR_N5_CHAIN = {
    "n": 5,
    "algebra": "scalar",
    "terms": [{"factors": [{"exp": [-1] * 5}] + [{"exp": [int(i == j) for i in range(5)]}
                                                 for j in range(5)]}],
}

# n = 4 with 19 terms in each of f1..f4: 4! * 19^4 = 3127704 > MAX_WORK
OVER_THE_BOUND = " ; ".join(["t1^-1*t2^-1*t3^-1*t4^-1"] + [
    " + ".join(f"t{j}^{e}" for e in range(1, 20)) for j in range(1, 5)])

SCALAR_CHAIN = {
    "n": 1,
    "algebra": "scalar",
    "terms": [
        {"coeff": "5/2", "factors": [{"exp": [-3]}, {"exp": [3]}]},
        {"factors": [{"exp": [-1]}, {"exp": [1]}]},
    ],
}

# 3/2 phi(L_2 ^ L_-2) + phi(t^4 d/dt ^ t^-2 d/dt) = 3/2 (-1) + (-4) = -11/2
VECTORFIELD_CHAIN = {
    "n": 1,
    "terms": [
        {"coeff": "3/2", "factors": [{"s": [3], "i": 1}, {"s": [-1], "i": 1}]},
        {"factors": [{"s": [4]}, {"s": [-2]}]},
    ],
}

VECTORFIELD_N2_CHAIN = {
    "n": 2,
    "terms": [{"factors": [{"s": [1, 0], "i": 1}, {"s": [0, 1], "i": 2},
                           {"s": [-1, -1], "i": 1}]}],
}

MIXED_TERM_CHAIN = {
    "n": 1,
    "terms": [{"factors": [{"exp": [3]}, {"s": [-1], "i": 1}]}],
}

MIXED_CHAIN = {
    "n": 1,
    "terms": [{"factors": [{"exp": [3]}, {"exp": [-3]}]},
              {"factors": [{"s": [4]}, {"s": [-2]}]}],
}

# name -> (argv, exit code, stdout); "{sl2_chain}" and the other braced
# names are chain files written for the test
GOLDEN = {
    "residue_n1": (
        ("residue", "--form", "t1^-1 ; t1", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 1,\n  "oracle": "1",\n  "paper_res_star": "1",\n'
        '  "raw": "-1",\n  "residue": "1"\n}\n',
    ),
    "residue_n1_poly": (
        ("residue", "--form", "3/7*t1^-2 - t1^-1 + 2 ; t1^2 + 5*t1", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 1,\n  "oracle": "-29/7",\n'
        '  "paper_res_star": "-29/7",\n  "raw": "29/7",\n  "residue": "-29/7"\n}\n',
    ),
    "residue_n1_cuts": (
        ("residue", "--form", "t1^-3 ; t1^3", "--cuts=5", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 1,\n  "oracle": "3",\n  "paper_res_star": "3",\n'
        '  "raw": "-3",\n  "residue": "3"\n}\n',
    ),
    "residue_n2": (
        ("residue", "--form", "t1^-2*t2^-3 ; t1*t2 ; t1*t2^2", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 2,\n  "oracle": "1",\n  "paper_res_star": "1",\n'
        '  "raw": "1",\n  "residue": "1"\n}\n',
    ),
    "residue_n2_cuts": (
        ("residue", "--form", "t1^-2*t2^-3 ; t1*t2 ; t1*t2^2", "--cuts=-2,3", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 2,\n  "oracle": "1",\n  "paper_res_star": "1",\n'
        '  "raw": "1",\n  "residue": "1"\n}\n',
    ),
    "residue_n3": (
        ("residue", "--form", "t1^-1*t2^-1*t3^-2 ; t1 + t2 ; t2 ; t3^2", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 3,\n  "oracle": "2",\n  "paper_res_star": "-2",\n'
        '  "raw": "-2",\n  "residue": "2"\n}\n',
    ),
    "residue_n3_cuts": (
        ("residue", "--form", "t1^-1*t2^-1*t3^-2 ; t1 ; t2 ; t3^2", "--cuts=1", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 3,\n  "oracle": "2",\n  "paper_res_star": "-2",\n'
        '  "raw": "-2",\n  "residue": "2"\n}\n',
    ),
    "residue_n2_unbalanced": (
        ("residue", "--form", "2*t1^-2*t2 ; t1*t2^-1 ; t2^2", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 2,\n  "oracle": "0",\n  "paper_res_star": "0",\n'
        '  "raw": "0",\n  "residue": "0"\n}\n',
    ),
    "residue_n3_terms_cuts": (
        ("residue", "--form",
         "t1^-1*t2^-1*t3^-1 + 2*t1^-2*t2^-1*t3^-1 - t3^-2 ; t1 + t1^2 ; "
         "t2 - 3*t2*t3 + t3^-1 ; t3 + 1/2*t1*t3", "--cuts=1,-2,0", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 3,\n  "oracle": "6",\n  "paper_res_star": "-6",\n'
        '  "raw": "-6",\n  "residue": "6"\n}\n',
    ),
    # balanced tuples (t1, t2, t3) det 1, (2*t1*t2, t1, t3) det -1, and
    # (t1, t1, t3), (t1, t1, -t2*t3) det 0 against the t1^-2 terms of f0
    "residue_n3_det_zero_tuples": (
        ("residue", "--form",
         "t1^-1*t2^-1*t3^-1 + 3*t1^-2*t3^-1 - t1^-2*t2^-1*t3^-1 ; t1 + 2*t1*t2 ; "
         "t2 + t1 ; t3 - t2*t3", "--json"), 0,
        '{\n  "agrees": true,\n  "n": 3,\n  "oracle": "3",\n  "paper_res_star": "-3",\n'
        '  "raw": "-3",\n  "residue": "3"\n}\n',
    ),
    "cocycle_sl2_n2": (
        ("cocycle", "--input", "{sl2_chain}", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 2,\n  "value": "12"\n}\n',
    ),
    "cocycle_sl2_n2_cuts": (
        ("cocycle", "--input", "{sl2_chain}", "--cuts=1,-1", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 2,\n  "value": "12"\n}\n',
    ),
    "cocycle_sl2_n2_unbalanced_term": (
        ("cocycle", "--input", "{sl2_unbalanced_chain}", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 2,\n  "value": "12"\n}\n',
    ),
    "cocycle_sl2_n3_fraction_factors_cuts": (
        ("cocycle", "--input", "{sl2_n3_chain}", "--cuts=-2,1,3", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 3,\n  "value": "-100"\n}\n',
    ),
    "cocycle_sl2_n4": (
        ("cocycle", "--input", "{sl2_n4_chain}", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 4,\n  "value": "-48"\n}\n',
    ),
    "cocycle_heisenberg_zero_operator": (
        ("cocycle", "--input", "{heisenberg_chain}", "--json"), 0,
        '{\n  "flavor": "multiloop",\n  "n": 2,\n  "value": "0"\n}\n',
    ),
    "cocycle_scalar_n1": (
        ("cocycle", "--input", "{scalar_chain}", "--json"), 0,
        '{\n  "flavor": "scalar",\n  "n": 1,\n  "value": "-17/2"\n}\n',
    ),
    "cocycle_vectorfield_n1": (
        ("cocycle", "--input", "{vectorfield_chain}", "--json"), 0,
        '{\n  "flavor": "vectorfield",\n  "n": 1,\n  "value": "-11/2"\n}\n',
    ),
    "cocycle_vectorfield_as_multiloop": (
        ("cocycle", "--input", "{vectorfield_chain}", "--flavor", "multiloop", "--json"), 1,
        '{"error": {"message": "--flavor multiloop given, but the chain\'s entries are vectorfield", '
        '"type": "MixedFlavors"}}\n',
    ),
    "cocycle_term_mixes_flavors": (
        ("cocycle", "--input", "{mixed_term_chain}", "--json"), 1,
        '{"error": {"message": "entries mix flavors [\'scalar\', \'vectorfield\']", '
        '"type": "MixedFlavors"}}\n',
    ),
    "cocycle_terms_differ_in_flavor": (
        ("cocycle", "--input", "{mixed_chain}", "--json"), 1,
        '{"error": {"message": "chain terms must share one flavor, got [\'scalar\', \'vectorfield\']", '
        '"type": "MixedFlavors"}}\n',
    ),
    "cocycle_vectorfield_n2_refused": (
        ("cocycle", "--input", "{vectorfield_n2_chain}", "--json"), 1,
        '{"error": {"message": "the derivation flavor is restricted to n = 1", '
        '"type": "DimensionMismatch"}}\n',
    ),
    "verify_cube_n2": (
        ("verify", "--suite", "cube", "--n", "2", "--seed", "7", "--trials", "2", "--json"), 0,
        '{\n  "checks": 131,\n  "details": {},\n  "failures": [],\n'
        '  "name": "cube_identities_n2",\n  "passed": true\n}\n',
    ),
    # pins the check count of every identity the n = 3 battery records
    "verify_cube_n3": (
        ("verify", "--suite", "cube", "--n", "3", "--seed", "5", "--trials", "2", "--json"), 0,
        '{\n  "checks": 354,\n  "details": {},\n  "failures": [],\n'
        '  "name": "cube_identities_n3",\n  "passed": true\n}\n',
    ),
    "verify_lift_n2": (
        ("verify", "--suite", "lift", "--n", "2", "--seed", "3", "--trials", "2", "--json"), 0,
        '{\n  "checks": 26,\n  "details": {},\n  "failures": [],\n'
        '  "name": "lift_equivalence_n2",\n  "passed": true\n}\n',
    ),
    "verify_cocycle_n1": (
        ("verify", "--suite", "cocycle", "--n", "1", "--seed", "3", "--trials", "2", "--json"), 0,
        '{\n  "checks": 182,\n  "details": {\n    "cocycle_property_multiloop_n1": {\n'
        '      "degree_bound": 2,\n      "flavor": "multiloop",\n      "n": 1,\n'
        '      "nonzero": [],\n      "passed": true,\n      "seed": 3,\n      "trials": 2\n'
        '    },\n    "operator_vs_closed_form_n1": {\n      "mismatches": [],\n'
        '      "n": 1,\n      "passed": true,\n      "seed": 3,\n      "trials": 2\n    }\n'
        '  },\n  "failures": [],\n'
        '  "name": "heisenberg+kac_moody_sl2+virasoro+cocycle_property_multiloop_n1+operator_vs_closed_form_n1",\n'
        '  "passed": true\n}\n',
    ),
    "verify_cocycle_n2": (
        ("verify", "--suite", "cocycle", "--n", "2", "--seed", "3", "--trials", "2", "--json"), 0,
        '{\n  "checks": 182,\n  "details": {\n    "cocycle_property_multiloop_n2": {\n'
        '      "degree_bound": 2,\n      "flavor": "multiloop",\n      "n": 2,\n'
        '      "nonzero": [],\n      "passed": true,\n      "seed": 3,\n      "trials": 2\n'
        '    },\n    "operator_vs_closed_form_n2": {\n      "mismatches": [],\n'
        '      "n": 2,\n      "passed": true,\n      "seed": 3,\n      "trials": 2\n    }\n'
        '  },\n  "failures": [],\n'
        '  "name": "heisenberg+kac_moody_sl2+virasoro+cocycle_property_multiloop_n2+operator_vs_closed_form_n2",\n'
        '  "passed": true\n}\n',
    ),
    # exponents up to 1000: the word kernel's constant-weight box sums
    "verify_cocycle_n3_degree_bound_1000": (
        ("verify", "--suite", "cocycle", "--n", "3", "--degree-bound", "1000", "--trials", "3", "--json"), 0,
        '{\n  "checks": 182,\n  "details": {\n    "cocycle_property_multiloop_n3": {\n'
        '      "degree_bound": 1000,\n      "flavor": "multiloop",\n      "n": 3,\n'
        '      "nonzero": [],\n      "passed": true,\n      "seed": 1,\n      "trials": 3\n'
        '    },\n    "operator_vs_closed_form_n3": {\n      "mismatches": [],\n'
        '      "n": 3,\n      "passed": true,\n      "seed": 1,\n      "trials": 3\n    }\n'
        '  },\n  "failures": [],\n'
        '  "name": "heisenberg+kac_moody_sl2+virasoro+cocycle_property_multiloop_n3+operator_vs_closed_form_n3",\n'
        '  "passed": true\n}\n',
    ),
    # every suite, so check_liealg, check_laurent, check_opalg, check_chains,
    # the residue suite and choice independence run; --trials 3 gives check_chains a round
    "verify_all_n1": (
        ("verify", "--suite", "all", "--n", "1", "--seed", "3", "--trials", "3", "--json"), 0,
        '{\n  "checks": 584,\n  "details": {\n'
        '    "classical_residue+det_theorem_n1+oracle_agreement_n1+ack_formula": {\n'
        '      "det_theorem_n1": {\n        "values": [\n          "4",\n          "0",\n'
        '          "-3"\n        ]\n      },\n      "oracle_agreement_n1": {\n'
        '        "values": [\n          "1/3",\n          "0",\n          "0"\n        ]\n'
        '      }\n    },\n'
        '    "heisenberg+kac_moody_sl2+virasoro+cocycle_property_multiloop_n1+'
        'operator_vs_closed_form_n1": {\n      "cocycle_property_multiloop_n1": {\n'
        '        "degree_bound": 2,\n        "flavor": "multiloop",\n        "n": 1,\n'
        '        "nonzero": [],\n        "passed": true,\n        "seed": 3,\n'
        '        "trials": 3\n      },\n      "operator_vs_closed_form_n1": {\n'
        '        "mismatches": [],\n        "n": 1,\n        "passed": true,\n'
        '        "seed": 3,\n        "trials": 3\n      }\n    }\n  },\n  "failures": [],\n'
        '  "name": "liealg+laurent+opalg+chains+cube_identities_n1+rho_combinatorics+'
        'lift_equivalence_n1+classical_residue+det_theorem_n1+oracle_agreement_n1+'
        'ack_formula+choice_independence_n1+heisenberg+kac_moody_sl2+virasoro+'
        'cocycle_property_multiloop_n1+operator_vs_closed_form_n1",\n  "passed": true\n}\n'
    ),
    "verify_all_n2": (
        ("verify", "--suite", "all", "--n", "2", "--seed", "3", "--trials", "3", "--json"), 0,
        '{\n  "checks": 747,\n  "details": {\n'
        '    "classical_residue+det_theorem_n2+oracle_agreement_n2+ack_formula": {\n'
        '      "det_theorem_n2": {\n        "values": [\n          "3",\n          "0",\n'
        '          "-14"\n        ]\n      },\n      "oracle_agreement_n2": {\n'
        '        "values": [\n          "0",\n          "0",\n          "0"\n        ]\n'
        '      }\n    },\n'
        '    "heisenberg+kac_moody_sl2+virasoro+cocycle_property_multiloop_n2+'
        'operator_vs_closed_form_n2": {\n      "cocycle_property_multiloop_n2": {\n'
        '        "degree_bound": 2,\n        "flavor": "multiloop",\n        "n": 2,\n'
        '        "nonzero": [],\n        "passed": true,\n        "seed": 3,\n'
        '        "trials": 3\n      },\n      "operator_vs_closed_form_n2": {\n'
        '        "mismatches": [],\n        "n": 2,\n        "passed": true,\n'
        '        "seed": 3,\n        "trials": 3\n      }\n    }\n  },\n  "failures": [],\n'
        '  "name": "liealg+laurent+opalg+chains+cube_identities_n2+rho_combinatorics+'
        'lift_equivalence_n2+classical_residue+det_theorem_n2+oracle_agreement_n2+'
        'ack_formula+choice_independence_n2+heisenberg+kac_moody_sl2+virasoro+'
        'cocycle_property_multiloop_n2+operator_vs_closed_form_n2",\n  "passed": true\n}\n'
    ),
    "virasoro": (
        ("virasoro", "--max-m", "3", "--json"), 0,
        '{\n  "rows": [\n    {\n      "m": 1,\n      "phi": "0"\n    },\n    {\n'
        '      "m": 2,\n      "phi": "-1"\n    },\n    {\n      "m": 3,\n'
        '      "phi": "-4"\n    }\n  ]\n}\n',
    ),
    "residue_arity_error": (
        ("residue", "--form", "t1^-1 ; t1 ; t1", "--json"), 1,
        '{"error": {"message": "form mentions t1 so it needs 2 polynomials, got 3", "type": "ArityError"}}\n',
    ),
    "residue_work_refused": (
        ("residue", "--form", OVER_THE_BOUND, "--json"), 1,
        '{"error": {"message": "work n! * |f1| * ... * |fn| = 3127704 exceeds the limit 3000000", '
        '"type": "ArityError"}}\n',
    ),
    "cocycle_n5_refused": (
        ("cocycle", "--input", "{scalar_n5_chain}", "--json"), 1,
        '{"error": {"message": "n = 5 exceeds the cap n <= 4", "type": "ArityError"}}\n',
    ),
    "verify_unknown_suite": (
        ("verify", "--suite", "bogus", "--json"), 1,
        '{"error": {"message": "unknown suite \'bogus\'; choose from all, fixtures, chains, cocycle, '
        'cube, independence, laurent, liealg, lift, opalg, residue, rho", "type": "ArityError"}}\n',
    ),
    "verify_negative_degree_bound": (
        ("verify", "--degree-bound", "-1", "--json"), 1,
        '{"error": {"message": "--degree-bound must be at least 0", "type": "ArityError"}}\n',
    ),
}


@pytest.fixture
def chain_files(tmp_path):
    algebra = tmp_path / "sl2.json"
    algebra.write_text(json.dumps(to_json_dict(sl2())))
    sl2_chain = tmp_path / "sl2_chain.json"
    sl2_chain.write_text(json.dumps({**SL2_CHAIN, "algebra": str(algebra)}))
    heisenberg = tmp_path / "heisenberg3.json"
    heisenberg.write_text(json.dumps(to_json_dict(heisenberg3())))
    files = {"sl2_chain": str(sl2_chain)}
    for name, doc in (("sl2_unbalanced_chain", {**SL2_UNBALANCED_CHAIN, "algebra": str(algebra)}),
                      ("sl2_n3_chain", {**SL2_N3_CHAIN, "algebra": str(algebra)}),
                      ("sl2_n4_chain", {**SL2_N4_CHAIN, "algebra": str(algebra)}),
                      ("heisenberg_chain", {**HEISENBERG_CHAIN, "algebra": str(heisenberg)}),
                      ("scalar_chain", SCALAR_CHAIN), ("scalar_n5_chain", SCALAR_N5_CHAIN),
                      ("vectorfield_chain", VECTORFIELD_CHAIN),
                      ("vectorfield_n2_chain", VECTORFIELD_N2_CHAIN),
                      ("mixed_term_chain", MIXED_TERM_CHAIN), ("mixed_chain", MIXED_CHAIN)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_output_is_unchanged(name, chain_files, capsys):
    argv, code, expected = GOLDEN[name]
    argv = [arg.format(**chain_files) for arg in argv]
    assert main(argv) == code
    assert capsys.readouterr().out == expected


# one command of each kind, each run as its own process: a module the
# command imports in a function body must resolve there too
FRESH_PROCESS = ("residue_n3", "cocycle_scalar_n1", "cocycle_sl2_n3_fraction_factors_cuts",
                 "cocycle_vectorfield_n1", "virasoro", "verify_cube_n2", "verify_cocycle_n2",
                 "verify_unknown_suite", "residue_arity_error")


@pytest.mark.parametrize("name", FRESH_PROCESS)
def test_a_fresh_process_prints_the_same(name, chain_files, fresh_python):
    argv, code, expected = GOLDEN[name]
    run = fresh_python("-m", "parshin.cli", *(arg.format(**chain_files) for arg in argv))
    assert (run.returncode, run.stdout) == (code, expected), run.stderr


# -- which trace sum each command reaches -----------------------------------------
#
# phi traces chains of single-atom entries with the word kernel, while the
# residue command and every check against a closed form trace through the
# operator walk, so that they stay independent of the kernel.

def refuse_everywhere(monkeypatch, name):
    """Rebind every parshin binding of residue.<name> to a stub that raises."""
    original = getattr(importlib.import_module("parshin.residue"), name)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "parshin" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("name", sorted(name for name in GOLDEN if name.startswith("cocycle_sl2")))
def test_sl2_chains_never_reach_the_operator_walk(name, chain_files, capsys, monkeypatch):
    refuse_everywhere(monkeypatch, "raw_sum")
    argv, code, expected = GOLDEN[name]
    assert main([arg.format(**chain_files) for arg in argv]) == code
    assert capsys.readouterr().out == expected


def test_a_zero_entry_operator_falls_back_to_the_walk(chain_files, monkeypatch):
    refuse_everywhere(monkeypatch, "raw_sum")
    with pytest.raises(AssertionError, match="raw_sum was called"):
        main(["cocycle", "--input", chain_files["heisenberg_chain"], "--json"])


def test_the_oracle_checks_never_reach_the_word_kernel(chain_files, capsys, monkeypatch):
    refuse_everywhere(monkeypatch, "word_sum")
    for name in sorted(name for name in GOLDEN if GOLDEN[name][0][0] == "residue"):
        argv, code, expected = GOLDEN[name]
        assert main(list(argv)) == code
        assert capsys.readouterr().out == expected, name
    for suite in ("residue", "lift"):
        for n in ("1", "2", "3"):
            assert main(["verify", "--suite", suite, "--n", n, "--trials", "3", "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["passed"]
    for n in (1, 2, 3):
        assert operator_vs_closed_form(n, trials=8, seed=n).passed
