"""Polynomial arithmetic and the coset-driven factorisation of X^n - 1."""

import random

import pytest

from addcyc import gf, polyring
from addcyc.errors import NotCoprimeError
from addcyc.polyring import Poly


F3 = gf.field(3, 1)
F9P = gf.field(3, 2, paper=True)


def rand_poly(field, deg, rng):
    return Poly(field, [rng.randrange(field.order) for _ in range(deg + 1)])


def test_step1_product():
    m0 = Poly.from_tokens(F3, "2,1")
    m1 = Poly.from_tokens(F3, "1,1,1,1,1,1,1")
    assert m0 * m1 == Poly.x_pow_n_minus_1(F3, 7)


def test_eval_defining_relation():
    mod_as_poly = Poly(F9P, (2, 2, 1))
    assert mod_as_poly.eval(F9P.generator) == 0


def test_divmod_random():
    rng = random.Random(2)
    for field in (F3, F9P, gf.field(2, 2)):
        for _ in range(40):
            a = rand_poly(field, rng.randrange(0, 7), rng)
            b = rand_poly(field, rng.randrange(0, 5), rng)
            if b.is_zero():
                continue
            quo, rem = divmod(a, b)
            assert quo * b + rem == a
            assert rem.degree < b.degree or rem.is_zero()


def test_splitting_data_cases():
    sd = polyring.splitting_data(7, F3, paper=True)
    assert sd.ord == 6
    assert sd.splitting_field.order == 3 ** 6
    big = sd.splitting_field
    assert sd.eta_prime == big.pow(big.generator, 104)
    sd2 = polyring.splitting_data(3, gf.field(2, 1))
    assert sd2.ord == 2 and sd2.splitting_field.order == 4
    sd3 = polyring.splitting_data(1, F3)
    assert sd3.ord == 1 and sd3.eta_prime == 1


def test_splitting_requires_coprime():
    with pytest.raises(NotCoprimeError):
        polyring.splitting_data(6, F3)
    # the one coprimality rule, shared with structure.check_parameters
    with pytest.raises(NotCoprimeError, match=r"gcd\(n, base\) = 1.*n=6, base=3"):
        polyring.splitting_data(6, gf.field(3, 1))
    with pytest.raises(NotCoprimeError, match=r"gcd\(n, base\) = 1.*n=6, base=3"):
        polyring.multiplicative_order(3, 6)
    with pytest.raises(NotCoprimeError):
        polyring.factor_xn_minus_1(9, F3)


def test_minimal_poly_reference_values():
    sd = polyring.splitting_data(7, F9P, paper=True)
    assert str(polyring.minimal_poly((0,), sd, F3)) == "2,1"
    assert str(polyring.minimal_poly((1, 2, 4), sd, F9P)) == "2,w^7,w,1"
    assert str(polyring.minimal_poly((3, 5, 6), sd, F9P)) == "2,w^5,w^3,1"


@pytest.mark.parametrize("n,field", [
    (7, F3), (7, F9P), (3, gf.field(2, 1)), (5, gf.field(2, 1)),
    (11, gf.field(2, 2, paper=True)), (5, gf.field(3, 2)), (9, gf.field(2, 1)),
    (8, gf.field(3, 1)), (13, gf.field(3, 1)), (15, gf.field(2, 2)),
])
def test_factor_multiply_back_and_degrees(n, field):
    factors = polyring.factor_xn_minus_1(n, field)
    prod = Poly.one(field)
    for poly, coset in factors:
        assert poly.degree == len(coset)
        assert poly.coeffs[-1] == 1  # monic
        prod = prod * poly
    assert prod == Poly.x_pow_n_minus_1(field, n)
    # first factor is X - 1 <-> {0}
    assert factors[0][1] == (0,)
    assert factors[0][0] == Poly(field, (field.neg(1), 1))
    # factors of degree <= 3 have no roots in the base field (spot
    # irreducibility; full irreducibility comes from the coset degrees)
    for poly, coset in factors:
        if 2 <= poly.degree <= 3:
            assert all(poly.eval(a) != 0 for a in field.elements())


def test_factor_3_over_f2():
    f2 = gf.field(2, 1)
    factors = polyring.factor_xn_minus_1(3, f2)
    assert [str(p) for p, _ in factors] == ["1,1", "1,1,1"]
    assert [c for _, c in factors] == [(0,), (1, 2)]


def test_fine_factor_count_matches_coset_split():
    # number of factors over GF(q^t) = sum_i gcd(t, d_i)
    from addcyc.structure import build_coset_table
    for n, q, t in [(7, 3, 2), (5, 2, 2), (11, 2, 2), (13, 3, 2)]:
        tab = build_coset_table(n, q, t)
        fqt = gf.field_of_order(q ** t)
        factors = polyring.factor_xn_minus_1(n, fqt)
        assert len(factors) == sum(tab.s)


def test_refinement_property_via_atlas():
    # the atlas forms each coarse factor as the product of its fine factors;
    # it must be the minimal polynomial over F_q of the whole q-coset
    from addcyc.structure import build_atlas
    for n, q, paper in [(7, 3, True), (7, 3, False), (5, 2, False), (5, 3, False),
                        (29, 3, False), (19, 3, False)]:
        atlas = build_atlas(n, q, 2, paper=paper)
        for i, coset in enumerate(atlas.table.cosets):
            assert atlas.m_poly[i] == polyring.minimal_poly(coset, atlas.sd, atlas.field_q)


def test_poly_tokens_roundtrip():
    s = "2,w^7,w,1"
    assert str(Poly.from_tokens(F9P, s)) == s
    assert str(Poly.zero(F3)) == "0"
