"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible with -v via the test name,
and echoed explicitly for log capture).  Stated wall-clock budgets are
asserted where the criterion pins one.
"""

import time
from fractions import Fraction

from parshin import verify as V
from parshin.cocycle import phi, virasoro_phi
from parshin.laurent import GLaurent, LaurentPoly
from parshin.liealg import from_json_dict, killing_nform, sl2
from parshin.verify import verify_cocycle


def _report(number, name, passed, elapsed=None):
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'}{stamp}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_01_classical_residue():
    start = time.time()
    report = V.check_classical_residue()
    elapsed = time.time() - start
    _report(1, "classical residue", report.passed and elapsed < 1.0, elapsed)


def test_criterion_02_determinant_theorem():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        t_n = time.time()
        report = V.check_det_theorem(n, trials=200, seed=20)
        ok = ok and report.passed
        if n == 3:
            ok = ok and (time.time() - t_n) < 30.0
    _report(2, "determinant theorem", ok, time.time() - start)


def test_criterion_03_oracle_agreement():
    start = time.time()
    ok = True
    for n in (1, 2):
        report = V.check_oracle_agreement(n, trials=200, seed=30, max_terms=3, exp_bound=3)
        ok = ok and report.passed
    elapsed = time.time() - start
    _report(3, "oracle agreement", ok and elapsed < 60.0, elapsed)


def test_criterion_04_ack_formula():
    start = time.time()
    report = V.check_ack_formula(trials=100, seed=40)
    _report(4, "ACK commutator formula", report.passed, time.time() - start)


def test_criterion_05_cube_identity_suite():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        report = V.check_cube_identities(n, trials=50, seed=50)
        ok = ok and report.passed
    elapsed = time.time() - start
    _report(5, "cube identity suite", ok and elapsed < 120.0, elapsed)


def test_criterion_06_lift_equivalence():
    start = time.time()
    report = V.check_lift_equivalence(trials=25, seed=60, n=2)
    _report(6, "lifting equivalence", report.passed, time.time() - start)


def test_criterion_07_kac_moody():
    start = time.time()
    alg = sl2()
    basis = [alg.by_name(nm) for nm in ("H", "E", "F")]
    ok = True
    for y0 in basis:
        for y1 in basis:
            b_val = killing_nform(y1, y0)
            for a in range(-3, 4):
                got = phi([GLaurent.monomial(1, y0, (a,)), GLaurent.monomial(1, y1, (-a,))])
                ok = ok and got == -(-a) * b_val
    e, f = alg.by_name("E"), alg.by_name("F")
    ok = ok and phi([GLaurent.monomial(1, e, (2,)), GLaurent.monomial(1, f, (-2,))]) == 8
    _report(7, "affine Kac-Moody values", ok, time.time() - start)


def test_criterion_08_heisenberg():
    start = time.time()
    ok = all(
        phi([LaurentPoly.monomial(1, (a,), 1), LaurentPoly.monomial(1, (-a,), 1)]) == a
        for a in range(-5, 6)
    )
    _report(8, "Heisenberg values", ok, time.time() - start)


def test_criterion_09_virasoro():
    start = time.time()
    ok = all(virasoro_phi(m) == Fraction(-(m**3 - m), 6) for m in range(-6, 7))
    ok = ok and all(virasoro_phi(m) != 0 for m in range(2, 7))
    shape = V.check_virasoro(max_m=6)
    _report(9, "Virasoro values and cubic shape", ok and shape.passed, time.time() - start)


def test_criterion_10_cocycle_property():
    start = time.time()
    ok = verify_cocycle("multiloop", 1, trials=100, seed=100).passed
    ok = ok and verify_cocycle("vectorfield", 1, trials=100, seed=100).passed
    ok = ok and verify_cocycle("multiloop", 2, trials=50, seed=100, degree_bound=2).passed
    elapsed = time.time() - start
    _report(10, "cocycle property", ok and elapsed < 300.0, elapsed)


def test_criterion_11_choice_independence():
    start = time.time()
    ok = True
    for n in (1, 2, 3):
        base = V.check_det_theorem(n, trials=200, seed=20)
        ok = ok and base.passed
        for m in (-2, 1, 3):
            rerun = V.check_det_theorem(n, trials=200, seed=20, cuts=(m,) * n)
            ok = ok and rerun.passed and rerun.details["values"] == base.details["values"]
    for n in (1, 2):
        base = V.check_oracle_agreement(n, trials=200, seed=30)
        for m in (-2, 1, 3):
            rerun = V.check_oracle_agreement(n, trials=200, seed=30, cuts=(m,) * n)
            ok = ok and rerun.passed and rerun.details["values"] == base.details["values"]
    _report(11, "idempotent choice independence", ok, time.time() - start)


def test_criterion_12_rho_combinatorics():
    start = time.time()
    report = V.check_rho(trials=500, seed=120)
    _report(12, "rho combinatorics", report.passed, time.time() - start)


def gl_document(n):
    """gl(n) on the matrix units E_ab (index a*n + b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    brackets = []
    for x in range(n * n):
        for y in range(x + 1, n * n):
            (a, b), (c, d) = divmod(x, n), divmod(y, n)
            coeffs = {}
            if b == c:
                coeffs[a * n + d] = coeffs.get(a * n + d, 0) + 1
            if d == a:
                coeffs[c * n + b] = coeffs.get(c * n + b, 0) - 1
            coeffs = {str(k): v for k, v in coeffs.items() if v}
            if coeffs:
                brackets.append({"i": x, "j": y, "coeffs": coeffs})
    return {"dim": n * n, "brackets": brackets}


def sl2_sum_document(copies, abelian):
    """copies of sl2 (basis H, E, F each) plus an abelian summand of dimension abelian."""
    brackets = []
    for c in range(copies):
        h, e, f = 3 * c, 3 * c + 1, 3 * c + 2
        brackets += [{"i": h, "j": e, "coeffs": {str(e): 2}},
                     {"i": h, "j": f, "coeffs": {str(f): -2}},
                     {"i": e, "j": f, "coeffs": {str(h): 1}}]
    return {"dim": 3 * copies + abelian, "brackets": brackets}


def test_criterion_13_lie_algebra_loading():
    # every cocycle call loads and validates its algebra; checking Jacobi with a
    # LieElement per basis triple took 0.70 s for gl(5) and 1.7 s at dim 32
    ok = True
    for doc in (gl_document(5), sl2_sum_document(10, 2)):
        start = time.perf_counter()
        alg = from_json_dict(doc)
        elapsed = time.perf_counter() - start
        ok = ok and alg.dim == doc["dim"] and elapsed <= 0.25
        print(f"dim {doc['dim']} loaded in {elapsed:.3f}s")
    _report(13, "Lie-algebra loading", ok)


def test_criterion_14_wide_cocycle_trials():
    # a word of constant weights sums its box as the product of its slab
    # widths, so exponents up to 1000 cost no more than small ones: 0.28-0.38 s
    # in process, against about 10 s when each box was summed point by point
    start = time.perf_counter()
    ok = verify_cocycle("multiloop", 3, degree_bound=1000, trials=3, seed=1).passed
    elapsed = time.perf_counter() - start
    _report(14, "wide cocycle trials", ok and elapsed < 3.0, elapsed)


def test_criterion_15_any_degree_bound():
    # a multiloop trial's words have constant weights, so no slab is summed
    # point by point and no degree bound is refused: three trials at n = 3
    # take 0.08-0.32 s in process at 10^6 and at 10^9 (seeds 1-3)
    start = time.perf_counter()
    ok = verify_cocycle("multiloop", 3, degree_bound=10**6, trials=3, seed=1).passed
    elapsed = time.perf_counter() - start
    _report(15, "any degree bound", ok and elapsed < 3.0, elapsed)
