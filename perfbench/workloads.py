"""Seeded inputs for the benchmark's workloads.

Each workload is one list of operations (a "pass").  An operation is the
argument list of one ``parshin`` command plus the data its checker needs.
Inputs depend only on the workload name and the seed.  Input classes are
laid out by position in the pass (stratified), so that every seed gives the
same mix of cheap and costly operations and only the values inside each
class are random.

Imports only the standard library: the program under test is not needed to
build the inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from checks import det_int

NAMES = ("residue_n3", "kac_moody_n3", "cube_n2", "trace_wide")

# sl2 with basis (H, E, F): [H,E] = 2E, [H,F] = -2F, [E,F] = H.
SL2_JSON = {
    "dim": 3,
    "basis": ["H", "E", "F"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"1": "2"}},
        {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
        {"i": 1, "j": 2, "coeffs": {"0": "1"}},
    ],
}
# Multisets of four basis names whose sl2 weights sum to zero; any other
# choice makes the trace of the ad product vanish.
WEIGHT_ZERO = (("E", "F", "H", "H"), ("E", "E", "F", "F"), ("H", "H", "H", "H"))
WEIGHT_NONZERO = (("E", "E", "F", "H"), ("E", "H", "H", "H"), ("F", "F", "H", "H"))

COEFFS = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(-5, 3))


@dataclass(frozen=True)
class Op:
    """One operation: the CLI argument list and what the checker needs."""

    kind: str  # "residue", "cocycle" or "cube"
    argv: tuple
    expect: object


def build(name, seed, workdir: Path):
    """The pass of operations for a workload; writes any input files into workdir."""
    rng = random.Random(f"{name}:{seed}")
    if name == "residue_n3":
        return _residue_n3(rng)
    if name == "kac_moody_n3":
        return _kac_moody_n3(rng, workdir)
    if name == "cube_n2":
        return _cube_n2(rng)
    if name == "trace_wide":
        return _trace_wide(rng)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# Residues of monomial forms
# ---------------------------------------------------------------------------

def monomial_text(coeff, exps):
    """``c*t1^a*t2^b`` with zero exponents left out (the coefficient alone if all are zero)."""
    factors = [f"t{i + 1}^{e}" for i, e in enumerate(exps) if e != 0]
    if not factors:
        return str(coeff)
    return ("" if coeff == 1 else f"{coeff}*") + "*".join(factors)


def _residue_op(coeffs, rows, cuts=None):
    form = " ; ".join(monomial_text(c, r) for c, r in zip(coeffs, rows))
    argv = ["residue", "--form", form, "--json"]
    if cuts is not None:
        argv.append("--cuts=" + ",".join(str(c) for c in cuts))
    return Op("residue", tuple(argv), (tuple(coeffs), tuple(tuple(r) for r in rows)))


def _exponent_rows(rng, n, bound, balanced):
    """An (n+1) x n exponent matrix; balanced ones have zero column sums and det != 0."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n + 1)]
        if balanced:
            for j in range(n):
                rows[0][j] = -sum(rows[i][j] for i in range(1, n + 1))
            if det_int(rows[1:]) == 0:
                continue
        elif all(sum(row[j] for row in rows) == 0 for j in range(n)):
            continue
        # every variable must appear, or the CLI infers a smaller n
        if all(any(row[j] for row in rows) for j in range(n)):
            return rows


def _residue_n3(rng):
    """96 forms: even positions balanced (nonzero residue), odd ones not.

    Positions 0 mod 6 carry per-axis cuts and 3 mod 6 a single cut value;
    the rest use the default cuts.
    """
    ops = []
    for i in range(96):
        rows = _exponent_rows(rng, 3, 3, balanced=(i % 2 == 0))
        coeffs = [rng.choice(COEFFS) for _ in range(4)]
        cuts = None
        if i % 6 == 0:
            cuts = [rng.randint(-3, 3) for _ in range(3)]
        elif i % 6 == 3:
            cuts = [rng.randint(-3, 3)]
        ops.append(_residue_op(coeffs, rows, cuts))
    return ops


def _trace_wide(rng):
    """32 balanced forms whose exponents run to the tens of thousands.

    Three positions in four hold ``c*t1^-a ; t1^a`` (residue c*a); the
    fourth holds a two-variable form with one large exponent per variable
    and small off-diagonal exponents, which costs more.  At three to one
    the median lies inside the one-variable class and the 90th percentile
    inside the two-variable one.  Within each class the large exponents
    are stratified over [8000, 24000) in steps of 2000 and drawn from the
    first 500 of each step, so every pass has the same spread of box
    widths.
    """
    ops = []
    for i in range(32):
        c = rng.choice(COEFFS)
        if i % 4 != 3:
            k = i - i // 4  # index within the one-variable class
            a = 8000 + 2000 * (k % 8) + rng.randrange(500)
            ops.append(_residue_op([c, Fraction(1)], [[-a], [a]]))
        else:
            stratum = i // 4
            a = 8000 + 2000 * stratum + rng.randrange(500)
            d = 8000 + 2000 * (7 - stratum) + rng.randrange(500)
            b, e = rng.randint(1, 3), rng.randint(1, 3)
            rows = [[-(a + b), -(e + d)], [a, e], [b, d]]
            ops.append(_residue_op([c, Fraction(1), Fraction(1)], rows))
    return ops


# ---------------------------------------------------------------------------
# Kac-Moody cocycle on sl2 multiloop wedges
# ---------------------------------------------------------------------------

def _kac_term(rng, index):
    """Term ``index`` of the pass: weight-zero and balanced except at 3 mod 8
    (nonzero weight) and 7 mod 8 (unbalanced columns), so most expected
    values are nonzero.  The basis-name multiset cycles with the index."""
    patterns = WEIGHT_NONZERO if index % 8 == 3 else WEIGHT_ZERO
    names = list(patterns[index % 3])
    rng.shuffle(names)
    rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(4)]
    if index % 8 != 7:
        for j in range(3):
            rows[0][j] = -sum(rows[i][j] for i in range(1, 4))
    elif all(sum(row[j] for row in rows) == 0 for j in range(3)):
        rows[0][0] += 1
    factors = []
    for name, row in zip(names, rows):
        factor = {"Y": name, "exp": row}
        if rng.random() < 0.25:
            factor["coeff"] = str(rng.choice(COEFFS))
        factors.append(factor)
    return {"coeff": str(rng.choice(COEFFS)), "factors": factors}


def _kac_moody_n3(rng, workdir: Path):
    """48 chain files over n = 3; every fourth chain has two terms."""
    algebra_path = workdir / "sl2.json"
    algebra_path.write_text(json.dumps(SL2_JSON, indent=1))
    ops = []
    term_index = 0
    for i in range(48):
        terms = []
        for _ in range(2 if i % 4 == 3 else 1):
            terms.append(_kac_term(rng, term_index))
            term_index += 1
        doc = {"n": 3, "algebra": str(algebra_path), "terms": terms}
        path = workdir / f"chain{i:02d}.json"
        path.write_text(json.dumps(doc, indent=1))
        ops.append(Op("cocycle", ("cocycle", "--input", str(path), "--json"), doc))
    return ops


# ---------------------------------------------------------------------------
# Cube-complex identities
# ---------------------------------------------------------------------------

def _cube_n2(rng):
    """24 seeded runs of the n = 2 cube suite.

    Positions 3 mod 4 use two trials, so their second trial draws d = 3
    cube elements; the others use one trial (d = 1 elements, plus the d = 3
    plain operator of the N^0 check).  One class in four keeps the median
    inside the one-trial class and the 90th percentile inside the other.
    """
    ops = []
    for i in range(24):
        seed = rng.randint(1, 10**6)
        trials = 2 if i % 4 == 3 else 1
        argv = ("verify", "--suite", "cube", "--n", "2", "--seed", str(seed),
                "--trials", str(trials), "--json")
        ops.append(Op("cube", argv, {"n": 2, "seed": seed, "trials": trials}))
    return ops
