"""The cube complex of ideal intersections and its contracting homotopy.

Components of N^p are indexed by sign strings in {+,-,0}^n of degree
p = 1 + #zeros; the component at s lives in the intersection of the ideals
I_i^(s_i).  The module implements the differential, the idempotent-built
homotopies and averaging maps, the combinatorial sign function rho, and the
spectral-sequence lifting theta_(p,q) both iteratively (alternating the
Chevalley-Eilenberg differential with the homotopy) and in closed form.
A lift state holds plain dicts: its heads keyed by the consumed wedge slots,
and the homotopy images of the bracket-led terms that must die.

Everything is parametrized by the idempotent cut points: P_i^+ projects onto
lam_i >= cuts[i] (default 0).  Identities are expected to hold for any cuts.

Every map has the form "sum of sign * P_region * (a component of the input)",
so a component is held as signed region terms over normalized source
operators; a region is a box, the plain bounds tuple of ``opalg``.  Each
map's rule, the (output string, sign, input string, region) tuples, is built
once per (n, p, axis or prefix, cuts).  The maps, ``+``, ``-`` and ``scale``
only rewrite terms.  ``is_zero`` (and so ``==``) first sums each source's
region coefficients as a function on Z^n, expanded into signed lower-corner
steps (``_cancels``); when every such function vanishes, the element is zero
and nothing is normalized.  Otherwise, and whenever a component is read, it
is normalized by one ``LatticeOperator.combine``.  ``homotopy_hat_boundary_hat``
feeds d^'s term sum into H^'s formula with no read, and ``boundary_hat_equals``
decides d^ f = g on d^'s term sum with g entered as one more term over the
whole lattice, so every identity of the cube battery, on N^0 too, is decided
by coefficient cancellation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import DimensionMismatch, IdealViolation, RepeatedIndex
from .matrices import rational
from .opalg import Box, LatticeOperator, _cut, _cuts, projector_commutator, region

# ---------------------------------------------------------------------------
# Sign strings
# ---------------------------------------------------------------------------

SIGNS = "+-"


def degree(s) -> int:
    """deg(s_1 ... s_n) = 1 + #{i : s_i = 0}."""
    return 1 + s.count("0")


@lru_cache(maxsize=None)
def sign_strings(n, p):
    """All sign strings in {+,-,0}^n of degree p, in lexicographic order."""
    return tuple(s for s in map("".join, itertools.product("+-0", repeat=n)) if degree(s) == p)


def _sign_value(ch) -> int:
    """(-1)^s for s in {+,-}."""
    return 1 if ch == "+" else -1


def _minus_parity(s) -> int:
    """(-1)^(s_1 + ... + s_k) for a +/- word: parity of the minus count."""
    return -1 if s.count("-") % 2 else 1


def rho(w) -> int:
    """Sign function (-1)^(sum_k #{j < k : w_j < w_k}) on distinct index lists."""
    w = tuple(w)
    if len(set(w)) != len(w):
        raise RepeatedIndex(f"index list {w} has repeats")
    ascents = sum(1 for k in range(len(w)) for j in range(k) if w[j] < w[k])
    return -1 if ascents % 2 else 1


# ---------------------------------------------------------------------------
# Cube elements
# ---------------------------------------------------------------------------

class CubeElement:
    """Element of N^p: a map from degree-p sign strings to lattice operators.

    A component is held as signed region terms: ``terms[s]`` maps a key
    (id of a source operator, region box) to a nonzero coefficient c, and
    the component is the sum of c * P_region source.  Sources are normalized
    ``LatticeOperator``s, which are unhashable, so they are keyed by identity
    and ``sources`` holds a reference to each.  The maps below only rewrite
    terms; ``components`` turns each into an operator by one ``combine``, once.
    """

    __slots__ = ("n", "d", "p", "terms", "sources", "_components")
    __hash__ = None

    def __init__(self, n, d, p, terms, sources):
        self.n, self.d, self.p = n, d, p
        self.terms = terms
        self.sources = sources
        self._components = None

    @staticmethod
    def make(n, d, p, components) -> "CubeElement":
        clean = {}
        for s, op in components.items():
            if s not in sign_strings(n, p):
                raise DimensionMismatch(f"sign string {s!r} is not a degree-{p} string in {{+,-,0}}^{n}")
            if op.n != n or op.d != d:
                raise DimensionMismatch("component operator on the wrong space")
            if not op.is_structurally_zero():
                clean[s] = op
        whole = Box.full(n)
        element = _element(n, d, p, {s: [(1, op, whole)] for s, op in clean.items()})
        element._components = clean
        return element

    @staticmethod
    def zero(n, d, p) -> "CubeElement":
        return CubeElement(n, d, p, {}, {})

    @property
    def components(self) -> dict:
        """The nonzero components as operators, each normalized once and cached."""
        if self._components is None:
            self._components = {}
            for s, terms in self.terms.items():
                op = _read(self.n, self.d, terms, self.sources)
                if not op.is_structurally_zero():
                    self._components[s] = op
        return self._components

    def component(self, s) -> LatticeOperator:
        return self.components.get(s) or LatticeOperator.zero(self.n, self.d)

    def _check(self, other):
        if (self.n, self.d, self.p) != (other.n, other.d, other.p):
            raise DimensionMismatch("cube elements of different shape")

    def _plus(self, c, other):
        """self + c * other: coefficients of equal keys add, zeros dropped."""
        self._check(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for s, t in other.terms.items():
            acc = dict(terms.get(s, ()))
            for key, v in t.items():
                _add(acc, key, c * v)
            if acc:
                terms[s] = acc
            else:
                del terms[s]
        sources = self.sources if other.sources is self.sources else {**self.sources, **other.sources}
        return CubeElement(self.n, self.d, self.p, terms, sources)

    def __add__(self, other):
        return self._plus(1, other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(-1, other)

    def scale(self, c):
        c = rational(c)
        if c == 0:
            return CubeElement.zero(self.n, self.d, self.p)
        return CubeElement(self.n, self.d, self.p,
                           {s: {key: c * v for key, v in t.items()} for s, t in self.terms.items()},
                           self.sources)

    def bracket(self, f: LatticeOperator) -> "CubeElement":
        """Componentwise commutator [component, f]; the g-module action on N^p."""
        return CubeElement.make(self.n, self.d, self.p,
                                {s: op.commutator(f) for s, op in self.components.items()})

    def is_zero(self):
        """True iff every component is zero; the region coefficients are tried first.

        When each source's coefficients cancel as a function on Z^n (see
        ``_cancels``), the element is zero whatever the sources are, and no
        component is normalized.  Otherwise the components are read and each
        is tested semantically.
        """
        if all(_cancels(terms) for terms in self.terms.values()):
            return True
        return all(op.is_zero() for op in self.components.values())

    def __eq__(self, other):
        if not isinstance(other, CubeElement):
            return NotImplemented
        if (self.n, self.d, self.p) != (other.n, other.d, other.p):
            return False
        return (self - other).is_zero()

    def check_ideals(self):
        """Conservative membership check of every component; raises IdealViolation."""
        for s, op in self.components.items():
            for axis, sign in enumerate(s, start=1):
                want = "0" if sign == "0" else sign
                if not op.in_ideal(axis, want):
                    raise IdealViolation(
                        f"component {s!r} fails membership in I_{axis}^{want}"
                    )
        return self


# ---------------------------------------------------------------------------
# Signed region terms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _meet(a, b):
    """The bounds of the box a & b, or None when it is empty: P_a P_b = P_(a & b)."""
    return _cut(a, b, (0,) * len(a))


def _add(acc, key, c):
    """acc[key] += c for a nonzero c, dropping the key when the sum is zero."""
    c += acc.get(key, 0)
    if c:
        acc[key] = c
    else:
        del acc[key]


def _element(n, d, p, sums) -> CubeElement:
    """The element of N^p whose component at s is the sum of c * P_bounds op over sums[s]."""
    terms, sources = {}, {}
    for s, pieces in sums.items():
        acc = {}
        for c, op, bounds in pieces:
            if op.atoms:
                sources[id(op)] = op
                _add(acc, (id(op), bounds), c)
        if acc:
            terms[s] = acc
    return CubeElement(n, d, p, terms, sources)


def _apply(f: CubeElement, p, rule) -> CubeElement:
    """The element of N^p whose component at s sums sign * P_image f_(s_in) over ``rule``.

    ``rule`` is a tuple of (s, sign, s_in, image), with image the bounds of a
    region or None for no cut.  On f's terms, signs multiply, regions meet (an
    empty meet drops the term) and coefficients of equal keys add; a key whose
    sum is zero is dropped as it arises.
    """
    if not rule or not f.terms:
        return CubeElement(f.n, f.d, p, {}, f.sources)
    out = {}
    for s, sign, s_in, image in rule:
        src = f.terms.get(s_in)
        if src is None:
            continue
        acc = out.get(s)
        if acc is None:
            acc = out[s] = {}
        for (sid, bounds), c in src.items():
            if image is not None:
                bounds = _meet(bounds, image)
                if bounds is None:
                    continue
            key = (sid, bounds)
            c = sign * c + acc.get(key, 0)  # _add, inlined in this hot loop
            if c:
                acc[key] = c
            else:
                del acc[key]
    return CubeElement(f.n, f.d, p, {s: t for s, t in out.items() if t}, f.sources)


@lru_cache(maxsize=4096)
def _corners(bounds):
    """The box's indicator as signed lower-corner steps: a tuple of (corner, sign).

    Per axis 1_[lo,hi)(x) = H(x - lo) - H(x - hi), with H(y) = [y >= 0]; an
    unbounded lo is the step that is 1 everywhere (corner None), and an
    unbounded hi adds no step.  The box's indicator is the product over the
    axes, so it is the sum of sign * prod_i H(x_i - corner_i).
    """
    steps = [((), 1)]
    for lo, hi in bounds:
        axis = ((lo, 1),) if hi is None else ((lo, 1), (hi, -1))
        steps = [(corner + (a,), sign * s) for corner, sign in steps for a, s in axis]
    return tuple(steps)


def _cancels(terms):
    """True when, for every source, the sum of c * 1_region over its terms is 0 on Z^n.

    Then the component, the sum of c * P_region source, is that function
    applied after the source, so it is zero whatever the source is.  Each
    region is expanded into its lower-corner steps (``_corners``), and c *
    sign is summed per (source, corner).  The steps prod_i H(x_i - a_i) are
    linearly independent on Z^n for distinct corners a in (Z u {-inf})^n,
    so the function vanishes exactly when every such sum does.
    """
    acc = {}
    for (sid, bounds), c in terms.items():
        for corner, sign in _corners(bounds):
            _add(acc, (sid, corner), sign * c)
    return not acc


def _read(n, d, terms, sources) -> LatticeOperator:
    """The sum of c * P_region source over one component's terms, by one ``combine``.

    A term over the whole lattice is passed uncut (None).
    """
    whole = Box.full(n)
    return LatticeOperator.combine(n, d, [
        (c, sources[sid], None if bounds == whole else bounds) for (sid, bounds), c in terms.items()
    ])


# ---------------------------------------------------------------------------
# Differential and homotopies
# ---------------------------------------------------------------------------

def _flip(sign):
    return "-" if sign == "+" else "+"


def _zeros_after(s, i) -> int:
    """(-1)^(#{j > i : s_j = 0})."""
    return -1 if s[i + 1:].count("0") % 2 else 1


@lru_cache(maxsize=1024)
def _rule(build, *key):
    """The rule ``build(*key)`` of a map as a tuple, built once per key.

    A rule is a sequence of (s, sign, s_in, image): the map sends the
    component at s_in, cut to the region with bounds image (None: no cut) and
    times sign, into the component at s.
    """
    return tuple(build(*key))


def _boundary_rule(n, p, axis):
    """d from N^(p+1) to N^p, or d_axis when axis is not None."""
    for s in sign_strings(n, p):
        for i, ch in enumerate(s):
            if ch != "0" and axis in (None, i + 1):
                yield s, _zeros_after(s, i), s[:i] + "0" + s[i + 1:], None


def _epsilon_rule(n, p, axis, cuts):
    i = axis - 1
    for s in sign_strings(n, p):
        if s[i] != "0":
            image = region(cuts, ((axis, s[i]),))
            for g in SIGNS:
                yield s, _sign_value(s[i]) * _sign_value(g), s[:i] + g + s[i + 1:], image


def _epsilon_prefix_rule(n, p, upto, cuts):
    for s in sign_strings(n, p):
        if "0" not in s[:upto]:
            image = region(cuts, enumerate(s[:upto], 1))
            for word in sign_strings(upto, 1):
                yield s, _minus_parity(s[:upto]) * _minus_parity(word), word + s[upto:], image


def _homotopy_axis_rule(n, p, axis, cuts):
    """H_axis from N^(p-1) to N^p."""
    i = axis - 1
    for s in sign_strings(n, p):
        if s[i] == "0":
            for g in SIGNS:
                yield s, _zeros_after(s, i), s[:i] + g + s[i + 1:], region(cuts, ((axis, _flip(g)),))


def _homotopy_rule(n, p, cuts):
    """H from N^(p-1) to N^p, by the leftmost-zero formula of ``homotopy``."""
    for s in sign_strings(n, p):
        b = s.index("0")  # 0-based slot of the leftmost zero
        outer = (-1 if degree(s) % 2 else 1) * _minus_parity(s[:b])
        for word in sign_strings(b + 1, 1):
            image = region(cuts, enumerate(s[:b] + _flip(word[b]), 1))
            yield s, outer * _minus_parity(word[:b]), word + s[b + 1:], image


def boundary(f: CubeElement) -> CubeElement:
    """(d f)_s = sum over i with s_i in {+,-} of (-1)^(#{j>i: s_j=0}) f_(s with 0 at i)."""
    if f.p < 2:
        raise DimensionMismatch("boundary needs degree >= 2; use boundary_hat on N^1")
    return _apply(f, f.p - 1, _rule(_boundary_rule, f.n, f.p - 1, None))


def boundary_axis(f: CubeElement, axis) -> CubeElement:
    """(d_i f)_(..+-..) = (-1)^(#{j>i: s_j=0}) f_(s with 0 at i); zero on s_i = 0."""
    if f.p < 2:
        raise DimensionMismatch("boundary_axis needs degree >= 2")
    return _apply(f, f.p - 1, _rule(_boundary_rule, f.n, f.p - 1, axis))


def _boundary_hat_terms(f: CubeElement) -> dict:
    """d^ on f's terms: the sum over s in {+,-}^n of (-1)^(s_1+...+s_n) f_s, unread."""
    if f.p != 1:
        raise DimensionMismatch("boundary_hat is defined on N^1")
    acc = {}
    for s, terms in f.terms.items():
        sign = _minus_parity(s)
        for key, c in terms.items():
            _add(acc, key, sign * c)
    return acc


def boundary_hat(f: CubeElement) -> LatticeOperator:
    """N^1 -> N^0: sum over s in {+,-}^n of (-1)^(s_1+...+s_n) f_s."""
    return _read(f.n, f.d, _boundary_hat_terms(f), f.sources)


def boundary_hat_equals(f: CubeElement, g: LatticeOperator = None) -> bool:
    """Whether d^ f = g (g = 0 when None), decided on terms before any read.

    g enters d^'s term sum as the term (g, whole lattice) with coefficient
    -1; a structurally zero g adds nothing.  When the sum cancels (see
    ``_cancels``), d^ f = g whatever the sources are; only otherwise is it
    read by one ``combine`` and tested by ``LatticeOperator.is_zero``.
    """
    terms, sources = _boundary_hat_terms(f), f.sources
    if g is not None and g.atoms:
        sources = {**sources, id(g): g}
        _add(terms, (id(g), Box.full(f.n)), -1)
    return _cancels(terms) or _read(f.n, f.d, terms, sources).is_zero()


def epsilon(f: CubeElement, axis, cuts=None) -> CubeElement:
    """(eps_i f)_(..s_i..) = (-1)^(s_i) P_i^(s_i) sum_g (-1)^g f_(..g..); zero on s_i = 0."""
    return _apply(f, f.p, _rule(_epsilon_rule, f.n, f.p, axis, _cuts(f.n, cuts)))


def epsilon_prefix(f: CubeElement, upto, cuts=None) -> CubeElement:
    """Closed form of eps_1 ... eps_upto:

    (-1)^(s_1+...+s_upto) P_1^(s_1) ... P_upto^(s_upto)
    sum over g in {+,-}^upto of (-1)^(g_1+...+g_upto) f_(g s_(upto+1) ...),
    and zero wherever one of s_1..s_upto is 0.
    """
    return _apply(f, f.p, _rule(_epsilon_prefix_rule, f.n, f.p, upto, _cuts(f.n, cuts)))


def epsilon_all(f: CubeElement, cuts=None) -> CubeElement:
    return epsilon_prefix(f, f.n, cuts)


def homotopy_axis(f: CubeElement, axis, cuts=None) -> CubeElement:
    """(H_i f)_(..0..) = (-1)^(#{j>i: s_j=0}) sum_g P_i^(-g) f_(..g..); zero on s_i != 0."""
    return _apply(f, f.p + 1, _rule(_homotopy_axis_rule, f.n, f.p + 1, axis, _cuts(f.n, cuts)))


def homotopy(f: CubeElement, cuts=None) -> CubeElement:
    """H = H_1 + eps_1 H_2 + ... + eps_1 ... eps_(n-1) H_n, via the explicit formula.

    At an output string s of degree p + 1 with leftmost zero in slot b + 1:

      (Hf)_s = (-1)^(deg s) (-1)^(s_1+...+s_b) P_1^(s_1) ... P_b^(s_b)
               sum over g_1..g_(b+1) of (-1)^(g_1+...+g_b)
               P_(b+1)^(-g_(b+1)) f_(g_1..g_(b+1) s_(b+2)..s_n).
    """
    cuts = _cuts(f.n, cuts)
    if f.p >= f.n + 1:
        return CubeElement.zero(f.n, f.d, f.p + 1)
    return _apply(f, f.p + 1, _rule(_homotopy_rule, f.n, f.p + 1, cuts))


def homotopy_via_definition(f: CubeElement, cuts=None) -> CubeElement:
    """H as the literal sum H_1 + eps_1 H_2 + ...; cross-check for homotopy()."""
    total = CubeElement.zero(f.n, f.d, f.p + 1)
    for i in range(1, f.n + 1):
        piece = homotopy_axis(f, i, cuts)
        for axis in range(i - 1, 0, -1):
            piece = epsilon(piece, axis, cuts)
        total = total + piece
    return total


def _homotopy_hat(n, d, pieces, cuts) -> CubeElement:
    """H^ of the sum of c * P_bounds source over the (c, source, bounds) pieces.

    (H^ g)_s = (-1)^(s_1+...+s_n) P_1^(s_1) ... P_n^(s_n) g, so each piece's
    region meets the region of s; an empty meet drops the piece.
    """
    sums = {}
    for s in sign_strings(n, 1):
        sign, image = _minus_parity(s), region(cuts, enumerate(s, 1))
        sums[s] = [(sign * c, op, meet) for c, op, bounds in pieces
                   if (meet := _meet(bounds, image)) is not None]
    return _element(n, d, 1, sums)


def homotopy_hat(g: LatticeOperator, cuts=None) -> CubeElement:
    """N^0 -> N^1: (H^ g)_s = (-1)^(s_1+...+s_n) P_1^(s_1) ... P_n^(s_n) g."""
    return _homotopy_hat(g.n, g.d, [(1, g, Box.full(g.n))], _cuts(g.n, cuts))


def homotopy_hat_boundary_hat(f: CubeElement, cuts=None) -> CubeElement:
    """H^ d^ on N^1, with no component read: d^'s term sum fed into H^'s formula.

    Equals ``homotopy_hat(boundary_hat(f), cuts)``, but keeps f's sources,
    so an identity against f is decided by coefficient cancellation.
    """
    pieces = [(c, f.sources[sid], bounds) for (sid, bounds), c in _boundary_hat_terms(f).items()]
    return _homotopy_hat(f.n, f.d, pieces, _cuts(f.n, cuts))


# ---------------------------------------------------------------------------
# The spectral-sequence lifting
# ---------------------------------------------------------------------------

@dataclass
class LiftState:
    """theta_(p,q): the lift after p - 1 differential/homotopy rounds.

    ``heads`` maps the sorted, 1-based wedge slots already consumed to the
    cube element standing before the remaining wedge tail.  ``residual``
    maps (omitted, (a, b)) to the homotopy image of the [f_a, f_b]-led
    terms that the second half of the differential produced; they must die.
    """

    p: int
    q: int
    heads: dict
    residual: dict = field(default_factory=dict)

    def term(self, omitted) -> CubeElement:
        omitted = tuple(sorted(omitted))
        if omitted not in self.heads:
            raise KeyError(f"no term with omitted={omitted}")
        return self.heads[omitted]

    def residual_is_zero(self):
        return all(head.is_zero() for head in self.residual.values())


def _check_operator_family(fs):
    n, d = fs[0].n, fs[0].d
    for f in fs:
        if f.n != n or f.d != d:
            raise DimensionMismatch("lift inputs on different spaces")
    if len(fs) != n + 1:
        raise DimensionMismatch(f"need n+1 = {n + 1} operators, got {len(fs)}")
    return n, d


def lift_iterative(fs, cuts=None):
    """Run the descent theta_(1,n) -> ... -> theta_(n+1,0) for f_0 ... f_n.

    Each round applies the Chevalley-Eilenberg differential (with the
    commutator action on cube elements) and then the contracting homotopy.
    Bracket-led terms produced by the second half of the differential are
    recorded after the homotopy in ``residual`` (they vanish when the
    machinery is consistent) and are not propagated.
    """
    fs = list(fs)
    n, d = _check_operator_family(fs)
    cuts = _cuts(n, cuts)

    theta = {(): homotopy_hat(fs[0], cuts)}
    states = [LiftState(1, n, theta)]

    for p in range(2, n + 2):
        acc_plain = {}
        acc_bracket = {}
        for omitted, head in theta.items():
            remaining = [j for j in range(1, n + 1) if j not in omitted]
            for pos, w in enumerate(remaining, start=1):
                contrib = head.bracket(fs[w]).scale((-1) ** pos)
                key = tuple(sorted(omitted + (w,)))
                acc_plain[key] = acc_plain[key] + contrib if key in acc_plain else contrib
            for (pa, wa), (pb, wb) in itertools.combinations(enumerate(remaining, 1), 2):
                contrib = head.scale((-1) ** (pa + pb + 1))
                key = (omitted, (wa, wb))
                acc_bracket[key] = acc_bracket[key] + contrib if key in acc_bracket else contrib

        heads = {key: homotopy(acc_plain[key], cuts) for key in sorted(acc_plain)}
        theta = {key: head for key, head in heads.items() if head.components}
        residual = {key: homotopy(value, cuts) for key, value in sorted(acc_bracket.items())}
        states.append(LiftState(p, n + 1 - p, heads, residual))
    return states


def lift_closed_form(fs, p, cuts=None) -> LiftState:
    """theta_(p+1, n-p) per the explicit descent formula.

    For each ordered tuple (w_1 ... w_p) of distinct slots and each sign word
    g in {+,-}^(n-p), the component at  g 0...0  is

        (-1)^(p(p+1)/2) (-1)^(w_1+...+w_p) rho(w) (-1)^(g_1+...+g_(n-p))
        P_1^(g_1) ... P_(n-p)^(g_(n-p))
        [sum over g* of (-1)^(g*) (P_(n-p+1)^(-g*) f_(w_p) P^(g*)) ...
            (P_n^(-g*) f_(w_1) P^(g*))] f_0;

    tuples with the same underlying set share a wedge tail and are summed.
    The leading (-1)^(p(p+1)/2) differs from a verbatim reading of the
    source recursion, which is inconsistent at its base step; this is the
    prefactor the iterative descent actually produces.
    """
    fs = list(fs)
    n, d = _check_operator_family(fs)
    if not 0 <= p <= n:
        raise DimensionMismatch(f"stage p={p} outside 0..{n}")
    cuts = _cuts(n, cuts)

    prefactor = -1 if (p * (p + 1) // 2) % 2 else 1
    heads = {}
    for w_tuple in itertools.permutations(range(1, n + 1), p):
        base_sign = prefactor * ((-1) ** sum(w_tuple)) * rho(w_tuple)
        inner = fs[0]
        for axis in range(n, n - p, -1):  # axis n holds f_(w_1), axis n-p+1 holds f_(w_p)
            inner = projector_commutator(fs[w_tuple[n - axis]], axis, cuts).compose(inner)
        sums = heads.setdefault(tuple(sorted(w_tuple)), {})
        for word in sign_strings(n - p, 1):
            image = region(cuts, enumerate(word, 1))
            sums.setdefault(word + "0" * p, []).append((base_sign * _minus_parity(word), inner, image))

    heads = {key: _element(n, d, p + 1, sums) for key, sums in sorted(heads.items())}
    return LiftState(p + 1, n - p, heads)
