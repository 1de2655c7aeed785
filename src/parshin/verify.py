"""Seeded verification suites over the library's algebraic identities.

Each check returns a :class:`CheckReport`; the CLI ``verify`` subcommand and
the acceptance tests are thin wrappers around these functions.  All suites
are deterministic in their seed (MT19937 via :mod:`random`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import cocycle as _cocycle
from . import cube as _cube
from . import liealg as _liealg
from .chains import TensorChain
from .errors import ArityError, MixedFlavors
from .laurent import GLaurent, LaurentPoly, _perm_sign, parshin_oracle, partial
from .opalg import mul_operator
from .residue import ack_residue_n1, raw_sum, residue, residue_det_monomial
from .sampling import (
    random_cube_element,
    random_exponent,
    random_laurent,
    random_lie_element,
    random_nonzero_fraction,
    random_operator,
)


@dataclass
class CheckReport:
    name: str
    passed: bool = True
    checks: int = 0
    failures: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def record(self, ok, context):
        self.checks += 1
        if not ok:
            self.passed = False
            if len(self.failures) < 20:
                self.failures.append(context)

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures,
            "details": self.details,
        }


# ---------------------------------------------------------------------------
# Residue suites
# ---------------------------------------------------------------------------

def check_classical_residue() -> CheckReport:
    """res(a t^c dt) = a when c = -1 and 0 otherwise, for small c and rational a."""
    report = CheckReport("classical_residue")
    t = LaurentPoly.variable(1, 1)
    for c in range(-5, 6):
        for alpha in (Fraction(1), Fraction(-2), Fraction(3, 7)):
            rep = residue(LaurentPoly.monomial(1, (c,), alpha), [t])
            want = alpha if c == -1 else Fraction(0)
            report.record(rep.residue == want and rep.agrees,
                          {"c": c, "alpha": str(alpha), "got": str(rep.residue)})
    return report


def _random_monomial_matrix(rng, n, bound, balanced):
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n + 1)]
    if balanced:
        for j in range(n):
            rows[0][j] = -sum(rows[i][j] for i in range(1, n + 1))
    return rows


def check_det_theorem(n, trials=200, seed=1, cuts=None) -> CheckReport:
    """Monomial forms: operator residue == determinant formula == oracle."""
    report = CheckReport(f"det_theorem_n{n}")
    rng = random.Random(seed)
    values = []
    for trial in range(trials):
        rows = _random_monomial_matrix(rng, n, 4, trial % 2 == 0)
        f0 = LaurentPoly.monomial(n, tuple(rows[0]), 1)
        fs = [LaurentPoly.monomial(n, tuple(r), 1) for r in rows[1:]]
        rep = residue(f0, fs, cuts)
        dv = residue_det_monomial(rows)
        values.append(rep.residue)
        report.record(rep.residue == dv == rep.oracle,
                      {"rows": rows, "residue": str(rep.residue),
                       "det": str(dv), "oracle": str(rep.oracle)})
    report.details["values"] = [str(v) for v in values]
    return report


def check_oracle_agreement(n, trials=200, seed=1, cuts=None, max_terms=3, exp_bound=3) -> CheckReport:
    """Random Laurent tuples: operator residue == coefficient-extraction oracle."""
    report = CheckReport(f"oracle_agreement_n{n}")
    rng = random.Random(seed)
    values = []
    for _ in range(trials):
        f0 = random_laurent(rng, n, max_terms, exp_bound)
        fs = [random_laurent(rng, n, max_terms, exp_bound) for _ in range(n)]
        rep = residue(f0, fs, cuts)
        values.append(rep.residue)
        report.record(rep.agrees, {"f0": str(f0), "fs": [str(f) for f in fs],
                                   "residue": str(rep.residue), "oracle": str(rep.oracle)})
    report.details["values"] = [str(v) for v in values]
    return report


def check_ack_formula(trials=100, seed=1) -> CheckReport:
    """tr([P+, f1] f0) equals the n = 1 residue on random Laurent pairs."""
    report = CheckReport("ack_formula")
    rng = random.Random(seed)
    for _ in range(trials):
        f0 = random_laurent(rng, 1)
        f1 = random_laurent(rng, 1)
        ack = ack_residue_n1(mul_operator(f0), mul_operator(f1))
        rep = residue(f0, [f1])
        report.record(ack == rep.residue and rep.agrees,
                      {"f0": str(f0), "f1": str(f1), "ack": str(ack), "residue": str(rep.residue)})
    return report


def check_choice_independence(n, trials=40, seed=1, cut_values=(-2, 1, 3)) -> CheckReport:
    """Shifting every idempotent cut point must not change any residue."""
    report = CheckReport(f"choice_independence_n{n}")
    base_det = check_det_theorem(n, trials, seed)
    base_orc = check_oracle_agreement(n, trials, seed)
    report.record(base_det.passed, {"stage": "base det"})
    report.record(base_orc.passed, {"stage": "base oracle"})
    for m in cut_values:
        cuts = (m,) * n
        det_m = check_det_theorem(n, trials, seed, cuts=cuts)
        orc_m = check_oracle_agreement(n, trials, seed, cuts=cuts)
        report.record(det_m.passed and det_m.details["values"] == base_det.details["values"],
                      {"cuts": m, "stage": "det values"})
        report.record(orc_m.passed and orc_m.details["values"] == base_orc.details["values"],
                      {"cuts": m, "stage": "oracle values"})
    # mixed per-axis cuts as well
    cuts = tuple(cut_values[i % len(cut_values)] for i in range(n))
    det_m = check_det_theorem(n, trials, seed, cuts=cuts)
    report.record(det_m.details["values"] == base_det.details["values"],
                  {"cuts": list(cuts), "stage": "mixed det values"})
    return report


# ---------------------------------------------------------------------------
# Cube suite
# ---------------------------------------------------------------------------

def check_cube_identities(n, trials=50, seed=1, cuts=None) -> CheckReport:
    """Differential/homotopy identity battery on random ideal-constrained elements."""
    report = CheckReport(f"cube_identities_n{n}")
    rng = random.Random(seed)
    for p in range(1, n + 2):
        for trial in range(trials):
            d = 1 if trial % 2 == 0 else 3
            f = random_cube_element(rng, n, p, d)
            ctx = {"p": p, "trial": trial, "d": d}
            f.check_ideals()
            # every map of f that the identities share, computed once;
            # homotopy_via_definition below stays an independent cross-check
            h = _cube.homotopy(f, cuts)
            eps_all = _cube.epsilon_all(f, cuts)
            eps = {i: _cube.epsilon(f, i, cuts) for i in range(1, n + 1)}
            h_ax = {i: _cube.homotopy_axis(f, i, cuts) for i in range(1, n + 1)}
            if p >= 2:
                df = _cube.boundary(f)
                d_ax = {i: _cube.boundary_axis(f, i) for i in range(1, n + 1)}
            report.record(_cube.homotopy(h, cuts).is_zero(), {**ctx, "identity": "H^2=0"})
            if p >= 3:
                report.record(_cube.boundary(df).is_zero(), {**ctx, "identity": "d^2=0"})
            if p == 2:
                report.record(_cube.boundary_hat(df).is_zero(), {**ctx, "identity": "dhat d=0"})
            if p >= 2:
                lhs = _cube.boundary(h) + _cube.homotopy(df, cuts)
                rhs = f - eps_all
                report.record((lhs - rhs).is_zero(), {**ctx, "identity": "dH+Hd=1-eps"})
            else:
                lhs = _cube.boundary(h) + _cube.homotopy_hat_boundary_hat(f, cuts)
                report.record((lhs - f).is_zero(), {**ctx, "identity": "dH+H^d^=1 (N^1)"})
            # pairwise relations
            for i in range(1, n + 1):
                if p >= 2:
                    diag = _cube.boundary_axis(h_ax[i], i) + _cube.homotopy_axis(d_ax[i], i, cuts)
                    report.record((diag - (f - eps[i])).is_zero(),
                                  {**ctx, "identity": f"d_{i}H_{i}+H_{i}d_{i}=1-eps_{i}"})
                report.record((_cube.epsilon(eps[i], i, cuts) - eps[i]).is_zero(),
                              {**ctx, "identity": f"eps_{i}^2=eps_{i}"})
                for j in range(1, n + 1):
                    anti = (_cube.homotopy_axis(h_ax[j], i, cuts)
                            + _cube.homotopy_axis(h_ax[i], j, cuts))
                    report.record(anti.is_zero(), {**ctx, "identity": f"H_{i}H_{j}+H_{j}H_{i}=0"})
                    if p >= 3:
                        anti = _cube.boundary_axis(d_ax[j], i) + _cube.boundary_axis(d_ax[i], j)
                        report.record(anti.is_zero(), {**ctx, "identity": f"d_{i}d_{j}+d_{j}d_{i}=0"})
                    if p >= 2:
                        comm = _cube.boundary_axis(eps[j], i) - _cube.epsilon(d_ax[i], j, cuts)
                        report.record(comm.is_zero(), {**ctx, "identity": f"d_{i}eps_{j}=eps_{j}d_{i}"})
                        if i != j:
                            anti = _cube.boundary_axis(h_ax[j], i) + _cube.homotopy_axis(d_ax[i], j, cuts)
                            report.record(anti.is_zero(),
                                          {**ctx, "identity": f"d_{i}H_{j}+H_{j}d_{i}=0"})
                    comm = _cube.homotopy_axis(eps[j], i, cuts) - _cube.epsilon(h_ax[i], j, cuts)
                    report.record(comm.is_zero(), {**ctx, "identity": f"H_{i}eps_{j}=eps_{j}H_{i}"})
            # epsilon product closed form
            prefix = eps[n]
            for ax in range(n - 1, 0, -1):
                prefix = _cube.epsilon(prefix, ax, cuts)
            report.record((prefix - eps_all).is_zero(),
                          {**ctx, "identity": "eps closed form"})
            # H closed form vs definition
            report.record((h - _cube.homotopy_via_definition(f, cuts)).is_zero(),
                          {**ctx, "identity": "H leftmost-zero form"})
        # N^0 identities once per degree loop (plain operators)
        g = random_operator(rng, n, 1 if p % 2 else 3)
        report.record((_cube.boundary_hat(_cube.homotopy_hat(g, cuts)) - g).is_zero(),
                      {"p": 0, "identity": "dhat Hhat = 1"})
    return report


def check_rho(trials=500, seed=1) -> CheckReport:
    """The inductive law and the permutation-sign relation for rho."""
    report = CheckReport("rho_combinatorics")
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randint(1, 6)
        pool = list(range(1, 10))
        rng.shuffle(pool)
        w = pool[:size]
        head, last = w[:-1], w[-1]
        if head:
            lhs = (-1) ** sum(1 for x in head if x < last) * _cube.rho(head)
            report.record(lhs == _cube.rho(w), {"w": w, "law": "inductive"})
    for n in range(1, 6):
        const = (-1) ** (n * (n - 1) // 2)
        for perm in itertools.permutations(range(1, n + 1)):
            report.record(_cube.rho(perm) == const * _perm_sign(perm),
                          {"perm": perm, "law": "sign"})
    return report


def check_lift_equivalence(trials=25, seed=1, n=2, cuts=None) -> CheckReport:
    """Closed-form lift components equal the iterative descent; bracket branch dies."""
    report = CheckReport(f"lift_equivalence_n{n}")
    rng = random.Random(seed)
    for trial in range(trials):
        fs = [mul_operator(LaurentPoly.monomial(n, random_exponent(rng, n, 2),
                                                random_nonzero_fraction(rng)))
              for _ in range(n + 1)]
        states = _cube.lift_iterative(fs, cuts)
        for p in range(0, n + 1):
            state = states[p]
            report.record(state.residual_is_zero(),
                          {"trial": trial, "p": p, "check": "bracket residual"})
            closed = _cube.lift_closed_form(fs, p, cuts)
            for omitted, head in closed.heads.items():
                it_head = state.term(omitted)
                for s, op in head.components.items():
                    report.record((it_head.component(s) - op).is_zero(),
                                  {"trial": trial, "p": p, "omitted": list(omitted), "s": s})
        # the final head reproduces the raw trace sum on the nose
        final = states[-1].term(tuple(range(1, n + 1)))
        tr = final.component("0" * n).trace()
        report.record(tr == raw_sum(fs, cuts), {"trial": trial, "check": "final trace vs raw"})
    return report


# ---------------------------------------------------------------------------
# Cocycle suites
# ---------------------------------------------------------------------------

def check_heisenberg() -> CheckReport:
    report = CheckReport("heisenberg")
    for a in range(-5, 6):
        got = _cocycle.phi([LaurentPoly.monomial(1, (a,), 1), LaurentPoly.monomial(1, (-a,), 1)])
        report.record(got == a, {"a": a, "got": str(got)})
        got = _cocycle.phi([LaurentPoly.monomial(1, (a,), 1), LaurentPoly.monomial(1, (-a + 1,), 1)])
        report.record(got == 0, {"a": a, "unbalanced": str(got)})
    return report


def check_kac_moody() -> CheckReport:
    """phi(Y0 t^a ^ Y1 t^b) = -b d_(a+b,0) B(Y1, Y0) on the sl2 basis grid."""
    report = CheckReport("kac_moody_sl2")
    alg = _liealg.sl2()
    basis = [alg.by_name(nm) for nm in ("H", "E", "F")]
    for y0 in basis:
        for y1 in basis:
            for a in range(-3, 4):
                b = -a
                got = _cocycle.phi([GLaurent.monomial(1, y0, (a,)), GLaurent.monomial(1, y1, (b,))])
                want = -b * _liealg.killing_nform(y1, y0)
                report.record(got == want, {"a": a, "got": str(got), "want": str(want)})
                got = _cocycle.phi([GLaurent.monomial(1, y0, (a,)), GLaurent.monomial(1, y1, (b + 1,))])
                report.record(got == 0, {"a": a, "unbalanced": str(got)})
    E, F = alg.by_name("E"), alg.by_name("F")
    spot = _cocycle.phi([GLaurent.monomial(1, E, (2,)), GLaurent.monomial(1, F, (-2,))])
    report.record(spot == 8, {"check": "phi(E t^2 ^ F t^-2) = 8", "got": str(spot)})
    return report


def check_virasoro(max_m=6) -> CheckReport:
    """phi(L_m ^ L_-m) = -(m^3 - m)/6, an odd cubic vanishing on {-1, 0, 1}."""
    report = CheckReport("virasoro")
    values = {m: _cocycle.virasoro_phi(m) for m in range(-max_m, max_m + 1)}
    for m, got in values.items():
        report.record(got == Fraction(-(m**3 - m), 6), {"m": m, "got": str(got)})
        if abs(m) >= 2:
            report.record(got != 0, {"m": m, "nonzero": str(got)})
    # exact cubic fit through 4 points, checked on 4 more
    coeffs = _fit_cubic([(m, values[m]) for m in (1, 2, 3, 4)])
    report.record(coeffs[0] == 0 and coeffs[2] == 0,
                  {"check": "odd polynomial", "coeffs": [str(c) for c in coeffs]})
    for m in (-4, -3, 5, 6):
        got = _cocycle.virasoro_phi(m) if abs(m) > max_m else values[m]
        predicted = sum(c * Fraction(m) ** k for k, c in enumerate(coeffs))
        report.record(got == predicted, {"m": m, "fit": str(predicted), "got": str(got)})
    for root in (-1, 0, 1):
        report.record(sum(c * Fraction(root) ** k for k, c in enumerate(coeffs)) == 0,
                      {"root": root})
    return report


def _fit_cubic(points):
    """Exact coefficients (c0..c3) of the cubic through four (x, y) points."""
    coeffs = [Fraction(0)] * 4
    for xi, yi in points:
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            denom *= xi - xj
            basis = [Fraction(0)] + basis[:]  # multiply by x
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
        scale = yi / denom
        for k in range(4):
            if k < len(basis):
                coeffs[k] += scale * basis[k]
    return coeffs


def _seeded(seed, algebra):
    """The trial generator for a seed, and the algebra, sl2 unless one is given."""
    return random.Random(seed), algebra or _liealg.sl2()


def _boundary_trial_entries(rng, flavor, n, degree_bound, algebra):
    """n + 2 random monomial entries; half the time their exponent columns sum to 0."""
    exps = [tuple(rng.randint(-degree_bound, degree_bound) for _ in range(n))
            for _ in range(n + 2)]
    if rng.random() < 0.5:
        # force total exponent zero per axis so individual phi terms are nonzero
        exps[-1] = tuple(-sum(e[j] for e in exps[:-1]) for j in range(n))
    if flavor == "multiloop":
        return [GLaurent.monomial(n, random_lie_element(rng, algebra), exp) for exp in exps]
    if flavor == "scalar":
        return [LaurentPoly.monomial(n, exp, 1) for exp in exps]
    # wedge the operators themselves so the differential brackets by commutator
    return [_cocycle.virasoro_generator(exp[0]) for exp in exps]


def verify_cocycle(flavor, n, degree_bound=2, trials=50, seed=1, algebra=None, cuts=None) -> CheckReport:
    """Evaluate phi on boundaries of random (n+2)-wedges; report any nonzero value.

    A boundary of f_0 ^ ... ^ f_(n+1) is a cycle with canonical lift
    delta(f_0 (x) f_1 ^ ... ^ f_(n+1)), and phi on a lifted cycle is by
    definition the trace formula on the lift.  The evaluation therefore goes
    through the tensor differential, which keeps the distinguished f_0 slot
    in place.  (Reading the raw wedge boundary with brackets in the first
    slot instead is *not* equivalent for n >= 2: the formula is not slot-0
    alternating off cycles; see :func:`naive_wedge_coboundary`.)

    The cocycle identity predicts zero on every trial; a nonzero value is
    surfaced as a finding, not an exception.
    """
    if flavor not in _cocycle.FLAVORS:
        raise MixedFlavors(f"unknown flavor {flavor!r}")
    rng, algebra = _seeded(seed, algebra)
    nonzero = []
    for trial in range(trials):
        entries = _boundary_trial_entries(rng, flavor, n, degree_bound, algebra)
        chain = TensorChain.single(entries[0], tuple(entries[1:]))
        value = _cocycle.phi_chain(chain.ce_diff(), cuts)
        if value != 0:
            nonzero.append({"trial": trial, "value": str(value)})
    report = CheckReport(f"cocycle_property_{flavor}_n{n}")
    report.record(not nonzero, {"nonzero": nonzero})
    report.details = {"flavor": flavor, "n": n, "trials": trials, "seed": seed,
                      "degree_bound": degree_bound, "passed": report.passed, "nonzero": nonzero}
    return report


def naive_wedge_coboundary(flavor, n, degree_bound=2, trials=10, seed=1, algebra=None, cuts=None):
    """Diagnostic: phi of raw wedge boundaries, first factor in the f_0 slot.

    For n = 1 this agrees with :func:`verify_cocycle` (the formula is fully
    alternating there); for n >= 2 it measures the slot-0 defect of the
    formula off cycles, and nonzero values are expected findings.
    """
    rng, algebra = _seeded(seed, algebra)
    values = []
    for _ in range(trials):
        wedge = TensorChain.single(Fraction(1), _boundary_trial_entries(rng, flavor, n, degree_bound, algebra))
        values.append(_cocycle.phi_chain(wedge.ce_diff(), cuts))
    return values


def operator_vs_closed_form(n, trials=25, seed=1, algebra=None, cuts=None) -> CheckReport:
    """Compare the operator-trace phi with the Killing-form closed form."""
    rng, algebra = _seeded(seed, algebra)
    mismatches = []
    for trial in range(trials):
        rows = _random_monomial_matrix(rng, n, 2, trial % 2 == 0)
        elements = [random_lie_element(rng, algebra) for _ in range(n + 1)]
        entries = [GLaurent.monomial(n, el, tuple(row)) for el, row in zip(elements, rows)]
        # the operator walk, not phi's set sum, which evaluates the closed
        # form's own Leibniz sum
        direct = raw_sum([mul_operator(e) for e in entries], cuts)
        closed = _cocycle.phi_closed_form(elements, rows)
        if direct != closed:
            mismatches.append({"trial": trial, "operator": str(direct),
                               "closed_form": str(closed), "exponents": rows})
    report = CheckReport(f"operator_vs_closed_form_n{n}")
    report.record(not mismatches, {"mismatches": mismatches})
    report.details = {"n": n, "trials": trials, "seed": seed, "passed": report.passed,
                      "mismatches": mismatches}
    return report


# ---------------------------------------------------------------------------
# Library-level suites (CLI convenience)
# ---------------------------------------------------------------------------

def check_liealg(seed=1, trials=30) -> CheckReport:
    report = CheckReport("liealg")
    rng = random.Random(seed)
    sl2 = _liealg.sl2()
    report.record(_liealg.is_centreless(sl2), {"check": "sl2 centreless"})
    report.record(not _liealg.is_centreless(_liealg.heisenberg3()), {"check": "heisenberg centre"})
    report.record(not _liealg.is_centreless(_liealg.abelian(3)), {"check": "abelian centre"})
    from .matrices import mat_mul

    for _ in range(trials):
        x = random_lie_element(rng, sl2)
        y = random_lie_element(rng, sl2)
        ax, ay = _liealg.ad(x), _liealg.ad(y)
        lhs = _liealg.ad(x.bracket(y))
        rhs = tuple(tuple(a - b for a, b in zip(ra, rb))
                    for ra, rb in zip(mat_mul(ax, ay), mat_mul(ay, ax)))
        report.record(lhs == rhs, {"check": "ad homomorphism"})
        # multilinearity of the n-form
        z = random_lie_element(rng, sl2)
        c = random_nonzero_fraction(rng)
        lhs = _liealg.killing_nform(x + z.scale(c), y)
        rhs = _liealg.killing_nform(x, y) + c * _liealg.killing_nform(z, y)
        report.record(lhs == rhs, {"check": "nform linear"})
    return report


def check_laurent(seed=1, trials=30) -> CheckReport:
    report = CheckReport("laurent")
    rng = random.Random(seed)
    for _ in range(trials):
        n = rng.randint(1, 3)
        f = random_laurent(rng, n)
        g = random_laurent(rng, n)
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        report.record(partial(partial(f, i), j) == partial(partial(f, j), i),
                      {"check": "partials commute"})
        report.record(partial(f * g, i) == partial(f, i) * g + f * partial(g, i),
                      {"check": "Leibniz"})
    # oracle multilinearity and alternation (n = 2)
    for _ in range(trials // 2):
        f0, f1, f2, g1 = (random_laurent(rng, 2, 2, 2) for _ in range(4))
        c = random_nonzero_fraction(rng)
        lhs = parshin_oracle(f0, [f1 + g1.scale(c), f2])
        rhs = parshin_oracle(f0, [f1, f2]) + c * parshin_oracle(f0, [g1, f2])
        report.record(lhs == rhs, {"check": "oracle multilinear"})
        report.record(parshin_oracle(f0, [f1, f2]) == -parshin_oracle(f0, [f2, f1]),
                      {"check": "oracle alternating"})
        report.record(parshin_oracle(f0, [f1, f1]) == 0, {"check": "oracle repeat"})
    return report


def check_opalg(seed=1, trials=25) -> CheckReport:
    report = CheckReport("opalg")
    rng = random.Random(seed)
    for trial in range(trials):
        n = rng.randint(1, 2)
        d = 1 if trial % 2 else 3
        a = random_operator(rng, n, d)
        b = random_operator(rng, n, d)
        c = random_operator(rng, n, d)
        report.record(a.compose(b.compose(c)) == a.compose(b).compose(c),
                      {"check": "associativity"})
        report.record(a.compose(b + c) == a.compose(b) + a.compose(c),
                      {"check": "distributivity"})
        jac = (a.commutator(b.commutator(c)) + b.commutator(c.commutator(a))
               + c.commutator(a.commutator(b)))
        report.record(jac.is_zero(), {"check": "Jacobi"})
        report.record(a.commutator(b).trace() == 0, {"check": "trace kills commutators"})
        report.record(a.compose(b).trace() == b.compose(a).trace(), {"check": "trace cyclic"})
        # decomposition into ideal members
        from .opalg import projector

        axis = rng.randint(1, n)
        plus = projector(n, axis, "+", d=d).compose(a)
        minus = projector(n, axis, "-", d=d).compose(a)
        report.record(plus.in_ideal(axis, "+") and minus.in_ideal(axis, "-")
                      and (plus + minus) == a,
                      {"check": "I+ + I- decomposition"})
    return report


def check_chains(seed=1, trials=25) -> CheckReport:
    report = CheckReport("chains")
    rng = random.Random(seed)
    for name, alg in (("sl2", _liealg.sl2()), ("heisenberg3", _liealg.heisenberg3()),
                      ("abelian3", _liealg.abelian(3))):
        for _ in range(trials // 3):
            def rnd():
                return GLaurent.monomial(1, random_lie_element(rng, alg),
                                         (rng.randint(-2, 2),))

            chain = TensorChain.single(rnd(), tuple(rnd() for _ in range(3)))
            report.record(chain.ce_diff().ce_diff().is_zero(),
                          {"algebra": name, "check": "dd=0 tensor"})
            wedge = TensorChain.single(Fraction(1), tuple(rnd() for _ in range(4)))
            report.record(wedge.ce_diff().ce_diff().is_zero(),
                          {"algebra": name, "check": "dd=0 trivial"})
            c2 = TensorChain.single(rnd(), (rnd(), rnd()))
            report.record((c2.ce_diff().map_I() - c2.map_I().ce_diff()).is_zero(),
                          {"algebra": name, "check": "map_I chain map"})
    return report


SUITES = {
    "liealg": lambda n, seed, trials, degree_bound: check_liealg(seed, trials),
    "laurent": lambda n, seed, trials, degree_bound: check_laurent(seed, trials),
    "opalg": lambda n, seed, trials, degree_bound: check_opalg(seed, trials),
    "chains": lambda n, seed, trials, degree_bound: check_chains(seed, trials),
    "cube": lambda n, seed, trials, degree_bound: check_cube_identities(n, trials, seed),
    "rho": lambda n, seed, trials, degree_bound: check_rho(max(trials, 100), seed),
    "lift": lambda n, seed, trials, degree_bound: check_lift_equivalence(trials, seed, n=n),
    "residue": lambda n, seed, trials, degree_bound: _merge(
        check_classical_residue(),
        check_det_theorem(n, trials, seed),
        check_oracle_agreement(min(n, 2), trials, seed),
        check_ack_formula(trials, seed),
    ),
    "independence": lambda n, seed, trials, degree_bound: check_choice_independence(n, trials, seed),
    "cocycle": lambda n, seed, trials, degree_bound: _merge(
        check_heisenberg(),
        check_kac_moody(),
        check_virasoro(),
        verify_cocycle("multiloop", n, degree_bound, trials, seed),
        operator_vs_closed_form(n, min(trials, 25), seed),
    ),
}


def _merge(*reports) -> CheckReport:
    merged = CheckReport("+".join(r.name for r in reports))
    for r in reports:
        merged.checks += r.checks
        if not r.passed:
            merged.passed = False
        merged.failures.extend(r.failures)
        if r.details:
            merged.details[r.name] = r.details
    return merged


def run_suite(name, n=2, seed=1, trials=25, degree_bound=2) -> CheckReport:
    """One seeded suite, ``"all"`` of them, or the seedless ``"fixtures"``."""
    if name == "fixtures":
        return _merge(check_classical_residue(), check_heisenberg(), check_kac_moody(),
                      check_virasoro(), check_rho(trials=100, seed=0))
    if name == "all":
        return _merge(*(SUITES[key](n, seed, trials, degree_bound) for key in SUITES))
    if name not in SUITES:
        names = ", ".join(("all", "fixtures", *sorted(SUITES)))
        raise ArityError(f"unknown suite {name!r}; choose from {names}")
    return SUITES[name](n, seed, trials, degree_bound)
