"""Chevalley-Eilenberg machinery: differentials, the map to trivial coefficients."""

import random
from fractions import Fraction

import pytest

from parshin.chains import TensorChain, bracket_of, read_chain
from parshin.errors import ModuleActionUndefined
from parshin.laurent import GLaurent, LaurentPoly
from parshin.liealg import abelian, heisenberg3, sl2
from parshin.opalg import derivation_operator
from parshin.sampling import random_lie_element


def wedge(factors, coeff=1):
    """The pure wedge coeff f_0 ^ ... ^ f_r: a chain with a scalar head (trivial module)."""
    return TensorChain.single(Fraction(coeff), tuple(factors))


def glaurent_sampler(alg, seed):
    rng = random.Random(seed)

    def rnd():
        return GLaurent.monomial(1, random_lie_element(rng, alg), (rng.randint(-2, 2),))

    return rnd


def test_abelian_differentials_vanish():
    rnd = glaurent_sampler(abelian(3), 0)
    chain = TensorChain.single(rnd(), (rnd(), rnd()))
    assert chain.ce_diff().is_zero()
    assert wedge((rnd(), rnd(), rnd())).ce_diff().is_zero()


def test_r1_rules():
    rnd = glaurent_sampler(sl2(), 1)
    f0, f1 = rnd(), rnd()
    # delta(f0 (x) f1) = -[f0, f1]
    assert (TensorChain.single(f0, (f1,)).ce_diff()
            - TensorChain.single(f0.bracket(f1).scale(-1), ())).is_zero()
    # trivial-coefficient: delta(f0 ^ f1) = [f0, f1]
    assert (wedge((f0, f1)).ce_diff() - wedge((f0.bracket(f1),))).is_zero()


def test_dd_zero_tensor_sl2():
    rnd = glaurent_sampler(sl2(), 2)
    for _ in range(12):
        chain = TensorChain.single(rnd(), (rnd(), rnd(), rnd()))
        assert chain.ce_diff().ce_diff().is_zero()


def test_dd_zero_trivial_heisenberg_and_sl2():
    for alg, seed in ((heisenberg3(), 3), (sl2(), 4)):
        rnd = glaurent_sampler(alg, seed)
        for _ in range(10):
            assert wedge(rnd() for _ in range(4)).ce_diff().ce_diff().is_zero()


def test_map_I_signs():
    rnd = glaurent_sampler(sl2(), 5)
    f0, f1 = rnd(), rnd()
    assert (TensorChain.single(f0, ()).map_I() - wedge((f0,))).is_zero()
    assert (TensorChain.single(f0, (f1,)).map_I() + wedge((f0, f1))).is_zero()


def test_map_I_is_chain_map():
    rnd = glaurent_sampler(sl2(), 6)
    for _ in range(15):
        chain = TensorChain.single(rnd(), (rnd(), rnd()))
        lhs = chain.ce_diff().map_I()
        rhs = chain.map_I().ce_diff()
        assert (lhs - rhs).is_zero()


def test_wedge_antisymmetry_and_repeats():
    rnd = glaurent_sampler(sl2(), 7)
    a, b, h = rnd(), rnd(), rnd()
    assert (TensorChain.single(h, (a, b)) + TensorChain.single(h, (b, a))).is_zero()
    assert TensorChain.single(h, (a, a)).is_zero()
    assert (wedge((a, b)) + wedge((b, a))).is_zero()


def test_multilinearity_in_factor_slots():
    rnd = glaurent_sampler(sl2(), 8)
    a, b, h = rnd(), rnd(), rnd()
    c = Fraction(2, 3)
    combined = wedge((h, a + b.scale(c)))
    split = wedge((h, a)) + wedge((h, b)).scale(c)
    assert (combined - split).is_zero()


def test_operator_coefficients():
    # lattice operators plug into the same machinery via commutators
    ops = [derivation_operator(1, (m + 1,), 1) for m in (-1, 0, 1, 2)]
    chain = TensorChain.single(ops[0], tuple(ops[1:]))
    assert chain.ce_diff().ce_diff().is_zero()
    assert bracket_of(ops[1], ops[2]) == ops[1].commutator(ops[2])


def test_scalar_heads_are_the_trivial_module():
    rnd = glaurent_sampler(sl2(), 9)
    f0, f1, f2 = rnd(), rnd(), rnd()
    assert bracket_of(Fraction(3), f0) == 0
    assert wedge((f0, f1), coeff=0).is_zero()
    # a scalar head is scaled as a number and kept as a Fraction
    half = wedge((f0, f1), coeff=3).scale(Fraction(1, 2))
    assert half.terms and all(isinstance(head, Fraction) for head, _ in half.terms)
    assert (half - wedge((f0, f1), coeff=Fraction(3, 2))).is_zero()
    # only the bracket-of-tails half of the differential survives
    chain = wedge((f0, f1, f2))
    want = (wedge((f0.bracket(f1), f2)) - wedge((f0.bracket(f2), f1))
            + wedge((f1.bracket(f2), f0)))
    assert (chain.ce_diff() - want).is_zero()


def test_scalar_action_is_abelian():
    f = LaurentPoly.monomial(1, (2,), 1)
    g = LaurentPoly.monomial(1, (-1,), 3)
    assert bracket_of(f, g).is_zero()


def test_action_undefined():
    with pytest.raises(ModuleActionUndefined):
        bracket_of(LaurentPoly.one(1), sl2().by_name("E"))


def test_wedge_from_json():
    alg = sl2()
    doc = {
        "n": 1,
        "algebra": "ignored-here",
        "terms": [{
            "coeff": "2",
            "factors": [{"Y": "E", "exp": [1]}, {"Y": "F", "exp": [-1]}],
        }],
    }
    _, terms = read_chain(doc, algebra=alg)
    chain = TensorChain.make(len(terms[0][1]), [(Fraction(c), fs) for c, fs in terms])
    want = wedge(
        (GLaurent.monomial(1, alg.by_name("E"), (1,)),
         GLaurent.monomial(1, alg.by_name("F"), (-1,))),
        coeff=2,
    )
    assert (chain - want).is_zero()


def test_wedge_from_json_scalar_and_vectorfield():
    doc = {
        "n": 1,
        "algebra": "scalar",
        "terms": [{"factors": [{"exp": [-1], "coeff": "1/2"}, {"s": [2], "i": 1}]}],
    }
    _, terms = read_chain(doc)
    chain = TensorChain.make(len(terms[0][1]), [(Fraction(c), fs) for c, fs in terms])
    (coeff, factors), = chain.terms
    assert {type(f).__name__ for f in factors} == {"LaurentPoly", "LatticeOperator"}
