"""Checks of the program's outputs against values computed here, apart from it.

* Residues of monomial forms: the product of the coefficients times the
  integer determinant of the exponent matrix, which is 0 when a column does
  not sum to zero.
* Kac-Moody values: the closed form
  (-1)^n sum_pi sgn(pi) prod_i c_(pi(i),i) tr(ad Y_pi(1) ... ad Y_pi(n) ad Y_0)
  with the sl2 ad matrices written out below.
* Cube suites: the report passes with the number of checks the identity
  battery makes, and the program's ``is_zero`` tells a nonzero element (found
  nonzero here by evaluating its atoms point by point) from zero.

Every ``check_*`` returns None when the output is right and a reason string
otherwise.  ``self_test`` runs each check on hand values and on negative
controls that a deliberately wrong value or a vacuous ``is_zero`` must fail.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction

# Matrices of x -> [Y, x] on the basis (H, E, F): column j holds [Y, e_j].
SL2_AD = {
    "H": ((0, 0, 0), (0, 2, 0), (0, 0, -2)),
    "E": ((0, 0, 1), (-2, 0, 0), (0, 0, 0)),
    "F": ((0, -1, 0), (0, 0, 0), (2, 0, 0)),
}


def det_int(rows):
    """Exact determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a:
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            total += (-1) ** j * a * det_int(minor)
    return total


def _perm_sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def _columns_balanced(rows):
    return all(sum(row[j] for row in rows) == 0 for j in range(len(rows[0])))


# ---------------------------------------------------------------------------
# Residues
# ---------------------------------------------------------------------------

def expected_residue(coeffs, rows):
    """Residue of c_0 t^(r_0) d(c_1 t^(r_1)) ... d(c_n t^(r_n))."""
    if not _columns_balanced(rows):
        return Fraction(0)
    scale = Fraction(1)
    for c in coeffs:
        scale *= c
    return scale * det_int([list(r) for r in rows[1:]])


def check_residue(expect, output):
    coeffs, rows = expect
    n = len(rows) - 1
    want = expected_residue(coeffs, rows)
    doc = json.loads(output)
    if doc.get("n") != n:
        return f"n = {doc.get('n')!r}, expected {n}"
    if Fraction(doc["residue"]) != want:
        return f"residue {doc['residue']}, expected {want}"
    if Fraction(doc["oracle"]) != want:
        return f"oracle {doc['oracle']}, expected {want}"
    if doc.get("agrees") is not True:
        return "agrees is not true"
    if Fraction(doc["raw"]) != (want if n % 2 == 0 else -want):
        return f"raw {doc['raw']} is not (-1)^n times {want}"
    return None


# ---------------------------------------------------------------------------
# Kac-Moody cocycle
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
                 for i in range(len(a)))


def _ad(factor):
    c = Fraction(factor.get("coeff", 1))
    return tuple(tuple(c * x for x in row) for row in SL2_AD[factor["Y"]])


def closed_form(factors):
    """The Killing-form value of one monomial wedge Y_0 t^(c_0) ^ ... ^ Y_n t^(c_n)."""
    rows = [list(f["exp"]) for f in factors]
    n = len(factors) - 1
    if not _columns_balanced(rows):
        return Fraction(0)
    total = Fraction(0)
    for perm in itertools.permutations(range(1, n + 1)):
        weight = _perm_sign(perm)
        for i in range(1, n + 1):
            weight *= rows[perm[i - 1]][i - 1]
        if weight == 0:
            continue
        prod = _ad(factors[perm[0]])
        for p in list(perm[1:]) + [0]:
            prod = _mat_mul(prod, _ad(factors[p]))
        total += weight * sum(prod[i][i] for i in range(len(prod)))
    return total if n % 2 == 0 else -total


def expected_cocycle(doc):
    return sum((Fraction(t.get("coeff", 1)) * closed_form(t["factors"]) for t in doc["terms"]),
               Fraction(0))


def check_cocycle(doc, output):
    want = expected_cocycle(doc)
    got = json.loads(output)
    if got.get("n") != doc["n"]:
        return f"n = {got.get('n')!r}, expected {doc['n']}"
    if got.get("flavor") != "multiloop":
        return f"flavor {got.get('flavor')!r}, expected 'multiloop'"
    if Fraction(got["value"]) != want:
        return f"value {got['value']}, expected {want}"
    return None


# ---------------------------------------------------------------------------
# Cube-complex identities
# ---------------------------------------------------------------------------

def expected_cube_checks(n, trials):
    """How many identities the cube battery checks, counted from its definition.

    Per element of degree p: H^2 = 0; d^2 = 0 (p >= 3); dhat d = 0 (p = 2);
    the homotopy identity; per axis i: the axis homotopy identity (p >= 2)
    and eps_i^2 = eps_i; per axis pair (i, j): H_i H_j anticommute,
    d_i d_j anticommute (p >= 3), d_i eps_j commute (p >= 2), d_i H_j
    anticommute (p >= 2, i != j), H_i eps_j commute; then the two closed
    forms.  One N^0 identity per degree.
    """
    total = 0
    for p in range(1, n + 2):
        per_element = 1 + (p >= 3) + (p == 2) + 1 + 2
        for i in range(n):
            per_element += (p >= 2) + 1
            for j in range(n):
                per_element += 1 + (p >= 3) + (p >= 2) + (p >= 2 and i != j) + 1
        total += trials * per_element + 1
    return total


def _probe_atoms(rng, d):
    """Two or three atoms with boxes inside [-3, 4)^2, as plain data."""
    atoms = []
    for _ in range(rng.randint(2, 3)):
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        matrix = tuple(tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d))
        weight = {(0, 0): rng.randint(-2, 2), (rng.randint(0, 1), 1): rng.randint(-2, 2)}
        bounds = []
        for _ in range(2):
            lo = rng.randint(-3, 2)
            bounds.append((lo, rng.randint(lo + 1, 4)))
        atoms.append((shift, matrix, weight, tuple(bounds)))
    return atoms


def _acts_nonzero(atoms, d):
    """Apply the atoms to every basis vector e_k (x) e_lam with lam in [-3, 4)^2."""
    for lam in itertools.product(range(-3, 4), repeat=2):
        for k in range(d):
            image = {}
            for shift, matrix, weight, bounds in atoms:
                if not all(lo <= x < hi for x, (lo, hi) in zip(lam, bounds)):
                    continue
                w = sum(c * lam[0] ** e0 * lam[1] ** e1 for (e0, e1), c in weight.items())
                target = (lam[0] + shift[0], lam[1] + shift[1])
                column = image.setdefault(target, [0] * d)
                for r in range(d):
                    column[r] += w * matrix[r][k]
            if any(any(column) for column in image.values()):
                return True
    return False


def cube_probe(seed, opalg, cube):
    """None if the program's is_zero separates a seeded nonzero element from zero."""
    rng = random.Random(f"probe:{seed}")
    d = 1 if seed % 2 else 3
    atoms = _probe_atoms(rng, d)
    while not _acts_nonzero(atoms, d):
        atoms = _probe_atoms(rng, d)
    op = opalg.LatticeOperator.make(2, d, [
        opalg.KernelAtom(shift, matrix, opalg.WeightPoly.make(2, weight), opalg.Box.of(bounds))
        for shift, matrix, weight, bounds in atoms
    ])
    element = cube.CubeElement.make(2, d, 1, {"++": op})
    if element.is_zero():
        return f"is_zero calls a nonzero element zero (probe seed {seed})"
    if not (element - element).is_zero():
        return f"is_zero calls x - x nonzero (probe seed {seed})"
    return None


def check_cube(expect, output, probe):
    """``probe`` is cube_probe's verdict for this operation's seed."""
    doc = json.loads(output)
    want = expected_cube_checks(expect["n"], expect["trials"])
    if doc.get("name") != f"cube_identities_n{expect['n']}":
        return f"suite name {doc.get('name')!r}"
    if doc.get("passed") is not True or doc.get("failures"):
        return f"identities failed: {doc.get('failures')}"
    if doc.get("checks") != want:
        return f"{doc.get('checks')} checks, expected {want}"
    return probe


# ---------------------------------------------------------------------------
# Hand values and negative controls
# ---------------------------------------------------------------------------

def _expect(label, ok, failures):
    if not ok:
        failures.append(label)


def self_test(program):
    """Run every check on hand values and negative controls; returns the failures."""
    failures = []
    F = Fraction
    _expect("det 2x2", det_int([[2, 1], [1, 3]]) == 5, failures)
    _expect("det 3x3", det_int([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3, failures)

    # res(t^-1 dt) = 1; res(-5/3 t1^-2 t2^-3 d(t1 t2) d(2 t1 t2^2)) = -10/3; unbalanced -> 0
    _expect("residue t^-1 dt", expected_residue((1, 1), ((-1,), (1,))) == 1, failures)
    _expect("residue n=2", expected_residue((F(-5, 3), 1, 2), ((-2, -3), (1, 1), (1, 2))) == F(-10, 3),
            failures)
    _expect("residue unbalanced", expected_residue((1, 1), ((-2,), (1,))) == 0, failures)
    good = {"agrees": True, "n": 1, "oracle": "7", "paper_res_star": "7", "raw": "-7", "residue": "7"}
    expect = ((F(1), F(1)), ((-7,), (7,)))
    _expect("residue check accepts", check_residue(expect, json.dumps(good)) is None, failures)
    for key, value in (("residue", "8"), ("oracle", "8"), ("raw", "7"), ("agrees", False)):
        bad = dict(good, **{key: value})
        _expect(f"residue check rejects wrong {key}", check_residue(expect, json.dumps(bad)) is not None,
                failures)

    def wedge(names, rows):
        return [{"Y": y, "exp": list(r)} for y, r in zip(names, rows)]

    # phi(E t^2 ^ F t^-2) = 8 and phi(H t ^ H t^-1) = B(H, H) = 8 at n = 1
    _expect("kac E,F", closed_form(wedge("EF", ((2,), (-2,)))) == 8, failures)
    _expect("kac H,H", closed_form(wedge("HH", ((1,), (-1,)))) == 8, failures)
    # n = 3, exponent rows (-1,-1,-1), e1, e2, e3: only pi = id survives,
    # tr(ad E ad F ad H ad H) = 8 and tr(ad H ^4) = 32, times (-1)^3
    unit = ((-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    _expect("kac n=3 H,E,F,H", closed_form(wedge("HEFH", unit)) == -8, failures)
    _expect("kac n=3 H^4", closed_form(wedge("HHHH", unit)) == -32, failures)
    _expect("kac n=3 unbalanced", closed_form(wedge("HHHH", ((0, -1, -1),) + unit[1:])) == 0, failures)
    doc = {"n": 3, "terms": [{"coeff": "1/2", "factors": wedge("HHHH", unit)}]}
    good = json.dumps({"flavor": "multiloop", "n": 3, "value": "-16"})
    _expect("cocycle check accepts", check_cocycle(doc, good) is None, failures)
    bad = json.dumps({"flavor": "multiloop", "n": 3, "value": "-15"})
    _expect("cocycle check rejects a wrong value", check_cocycle(doc, bad) is not None, failures)

    # the n = 2 battery makes 64 checks per trial plus one N^0 check per degree
    _expect("cube count trials=2", expected_cube_checks(2, 2) == 131, failures)
    _expect("cube count trials=1", expected_cube_checks(2, 1) == 67, failures)
    opalg, cube, cli = program.opalg, program.cube, program.cli
    _expect("cube probe", cube_probe(7, opalg, cube) is None, failures)
    expect = {"n": 2, "seed": 7, "trials": 1}
    argv = ["verify", "--suite", "cube", "--n", "2", "--seed", "7", "--trials", "1", "--json"]
    original = opalg.LatticeOperator.is_zero
    opalg.LatticeOperator.is_zero = lambda self: True
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        verdict = check_cube(expect, buf.getvalue(), cube_probe(7, opalg, cube))
    finally:
        opalg.LatticeOperator.is_zero = original
    _expect("cube check rejects an is_zero that always answers True", verdict is not None, failures)
    return failures
