"""Command-line front end: residues, cocycles, Virasoro tables, verification.

All rationals are printed exactly, of any size, as strings "p/q" in lowest
terms ("p" when the denominator is 1; ``matrices.exact_text``), and JSON
output is byte-stable for a fixed invocation.

Each use of the console script starts a new process, so a command imports
only what it runs: ``cmd_cocycle`` imports the chain reader and
``cmd_verify`` the seeded suites when they run, and building the parser
imports neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import cocycle as _cocycle
from .errors import ArityError, MixedFlavors, ParseError, ParshinError, shown
from .laurent import _from_terms, _scan
from .liealg import load_algebra, read_json
from .matrices import exact_text
from .residue import residue

# the trace sum walks up to n! words per monomial tuple
MAX_N = 4

# the Virasoro table costs about max_m^2 (2.9-3.1 s at 1000 in process, up to
# 5.4 s on a loaded host)
MAX_M = 1000

# the slowest suite that only this caps is lift: one n = 4 lift trial takes
# about 0.12-0.19 s (seeds 1-2, in process), so 1000 take about 2-3 minutes
MAX_TRIALS = 1000

# the cocycle and all suites at n = MAX_N are the only ones whose MAX_TRIALS
# trials run past 300 s: one trial takes about 0.10-0.31 s (cocycle) and
# 0.21-0.46 s (all) there at --degree-bound 2 and 10^9 (seeds 1-2, in
# process), so 250 take about 2 minutes
MAX_COCYCLE_TRIALS = 250


def _check_n(n):
    if n > MAX_N:
        raise ArityError(f"n = {n} exceeds the cap n <= {MAX_N}")


def parse_form(text):
    """Parse "f0 ; f1 ; ... ; fn" into (f0, [f1..fn]) with a shared variable count."""
    parsed = []
    n = 1
    offset = 0
    for segment in text.split(";"):
        if not segment.strip():
            raise ParseError(offset, "empty polynomial in form")
        terms, top = _scan(segment, offset)
        parsed.append(terms)
        n = max(n, top)
        offset += len(segment) + 1
    if len(parsed) < 2:
        raise ArityError("a residue form needs at least two ';'-separated polynomials")
    if len(parsed) != n + 1:
        raise ArityError(
            f"form mentions t{n} so it needs {n + 1} polynomials, got {len(parsed)}"
        )
    f0, *fs = [_from_terms(terms, n) for terms in parsed]
    return f0, fs


def _emit(payload, as_json, text_lines):
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _read_form(args):
    if args.form is not None:
        return args.form
    if args.input is not None:
        with open(args.input) as handle:
            return handle.read().strip()
    raise ArityError("provide --form TEXT or --input PATH")


def _cuts_arg(args, n):
    if not args.cuts:
        return None
    cuts = []
    for piece in args.cuts.split(","):
        try:
            cuts.append(int(piece))
        except ValueError:
            raise ValueError(f"--cuts takes comma-separated integers of at most "
                             f"{sys.get_int_max_str_digits()} digits, got {shown(piece)}") from None
    if len(cuts) == 1:
        cuts = cuts * n
    return tuple(cuts)


def cmd_residue(args) -> int:
    f0, fs = parse_form(_read_form(args))
    _check_n(f0.n)
    report = residue(f0, fs, _cuts_arg(args, f0.n))
    payload = report.to_json_dict()
    _emit(payload, args.json, [
        f"n        = {report.n}",
        f"residue  = {payload['residue']}",
        f"oracle   = {payload['oracle']}",
        f"raw      = {payload['raw']}",
        f"res_star = {payload['paper_res_star']}",
        f"agrees   = {report.agrees}",
    ])
    return 0 if report.agrees else 1


def cmd_cocycle(args) -> int:
    from .chains import read_chain

    doc = read_json(args.input)
    algebra = None
    algebra_ref = doc.get("algebra", "scalar") if isinstance(doc, dict) else "scalar"
    if not isinstance(algebra_ref, str):
        raise ValueError(f"a chain's 'algebra' must be a string, got {shown(algebra_ref)}: "
                         "Lie-algebra factors need an algebra file path, other chains 'scalar'")
    if args.algebra:
        algebra = load_algebra(args.algebra)
    elif algebra_ref != "scalar":
        algebra = load_algebra(algebra_ref)
    n, terms = read_chain(doc, algebra, MAX_N)
    # the first factor is the distinguished f0 slot; order is preserved
    flavors = sorted({_cocycle.flavor(factors) for _, factors in terms})
    if len(flavors) != 1:
        raise MixedFlavors(f"chain terms must share one flavor, got {flavors or 'no terms'}")
    flavor = flavors[0]
    if args.flavor is not None and args.flavor != flavor:
        raise MixedFlavors(f"--flavor {args.flavor} given, but the chain's entries are {flavor}")
    cuts = _cuts_arg(args, n)
    total = sum((coeff * _cocycle.phi(factors, cuts) for coeff, factors in terms), Fraction(0))
    value = exact_text(total)
    payload = {"flavor": flavor, "n": n, "value": value}
    _emit(payload, args.json, [f"flavor = {flavor}", f"n      = {n}", f"value  = {value}"])
    return 0


def cmd_virasoro(args) -> int:
    if args.max_m < 1:
        raise ArityError("--max-m must be at least 1")
    if args.max_m > MAX_M:
        raise ArityError(f"--max-m {args.max_m} exceeds the cap {MAX_M}")
    rows = _cocycle.virasoro_table(args.max_m)
    payload = {"rows": [{"m": m, "phi": exact_text(v)} for m, v in rows]}
    _emit(payload, args.json, [f"m={r['m']}  phi(L_m ^ L_-m) = {r['phi']}" for r in payload["rows"]])
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ArityError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise ArityError(f"--trials {args.trials} exceeds the cap {MAX_TRIALS}")
    if args.degree_bound < 0:
        raise ArityError("--degree-bound must be at least 0")
    if args.suite in ("cocycle", "all") and args.n == MAX_N and args.trials > MAX_COCYCLE_TRIALS:
        raise ArityError(f"--trials {args.trials} of the {args.suite} suite at n = {args.n} "
                         f"exceeds the cap {MAX_COCYCLE_TRIALS}")
    from . import verify

    report = verify.run_suite(args.suite, n=args.n, seed=args.seed,
                               trials=args.trials, degree_bound=args.degree_bound)
    payload = report.to_json_dict()
    lines = [f"suite   = {report.name}",
             f"checks  = {report.checks}",
             f"passed  = {report.passed}"]
    if not report.passed:
        lines.append("failures:")
        lines.extend(f"  {failure}" for failure in report.failures)
    _emit(payload, args.json, lines)
    return 0 if report.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="parshin",
        description="Exact multidimensional residues and Tate-type Lie cocycles "
                    "via lattice operator traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cuts_help = "idempotent cut points, comma separated or a single value (use --cuts=-2,3 for negatives)"

    p = sub.add_parser("residue", help="residue of f0 df1 ... dfn with oracle cross-check")
    p.add_argument("--form", help="polynomials separated by ';', e.g. \"t1^-1 ; t1\"")
    p.add_argument("--input", help="path to a file holding the form text")
    p.add_argument("--cuts", help=cuts_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_residue)

    p = sub.add_parser("cocycle", help="evaluate the cocycle on a chain JSON file")
    p.add_argument("--input", required=True, help="chain JSON path")
    p.add_argument("--flavor", choices=_cocycle.FLAVORS,
                   help="expected flavor; an error if the chain's entries are another")
    p.add_argument("--algebra", help="Lie algebra JSON path (overrides the chain file)")
    p.add_argument("--cuts", help=cuts_help)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cocycle)

    p = sub.add_parser("virasoro", help="table of phi(L_m ^ L_-m) values")
    p.add_argument("--max-m", type=int, default=6, dest="max_m")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_virasoro)

    p = sub.add_parser("verify", help="run a seeded identity suite")
    p.add_argument("--suite", default="all",
                   help="a suite name, 'fixtures' or 'all' (the default); an unknown name is an error that lists them")
    p.add_argument("--n", type=int, default=2, choices=range(1, MAX_N + 1))
    p.add_argument("--seed", type=int, default=1,
                   help="PRNG seed of the random suites, 0 included; the fixtures suite ignores it")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--degree-bound", type=int, default=2, dest="degree_bound")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParshinError, OSError, ValueError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if getattr(args, "json", False):
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
