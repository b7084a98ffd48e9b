"""Field arithmetic, trace maps, the twist element and embeddings."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem

from addcyc import gf
from addcyc.errors import (
    CoercionError,
    InvalidParameterError,
    NotASubfieldError,
)
from addcyc.polyring import Poly
from addcyc.ring import cyclic_ring

F9 = gf.field(3, 2, paper=True)
W = F9.generator


def reduce_product_oracle(field, a, b):
    """Independent schoolbook oracle: multiply digit polynomials, reduce by
    long division against the modulus, all in plain integer arithmetic."""
    p, m = field.p, field.m
    da, db = field.decode(a), field.decode(b)
    prod = [0] * (2 * m - 1 if m > 1 else 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = list(field.modulus)
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    return field.encode(prod[:m])


def test_w_squared_is_w_plus_one():
    # x^2 = -2x - 2 = x + 1 under the reference modulus x^2 + 2x + 2
    assert F9.mul(W, W) == F9.encode((1, 1))
    assert F9.mul(W, W) == reduce_product_oracle(F9, W, W)


@pytest.mark.parametrize("field", [F9, gf.field(2, 2, paper=True),
                                   gf.field(5, 2, paper=True), gf.field(3, 6, paper=True),
                                   gf.field(2, 4), gf.field(7, 1)])
def test_field_axioms_random(field):
    rng = random.Random(20240501)
    for _ in range(200):
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == 0
        assert field.mul(a, 1) == a
        assert field.mul(a, b) == reduce_product_oracle(field, a, b)
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_pow_and_order():
    assert F9.element_order(W) == 8
    for a in range(1, 9):
        assert F9.pow(a, 8) == 1
        assert F9.pow(a, -1) == F9.inv(a)
    assert F9.pow(0, 5) == 0
    assert F9.pow(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        F9.pow(0, -2)
    with pytest.raises(ZeroDivisionError):
        F9.inv(0)


def test_trace_values():
    tp = gf.TraceParams(F9, 3, 2)
    assert gf.trace(0, tp) == 0
    assert gf.trace(1, tp) == 2  # 1 + 1 mod 3
    # independent evaluation: w + w^3 by repeated multiplication
    w3 = F9.mul(F9.mul(W, W), W)
    assert gf.trace(W, tp) == F9.add(W, w3) == 1


@pytest.mark.parametrize("p,m,Q,r", [(3, 2, 3, 2), (2, 4, 4, 2), (2, 4, 2, 4), (5, 2, 5, 2)])
def test_trace_lands_in_subfield_and_linear(p, m, Q, r):
    field = gf.field(p, m)
    tp = gf.TraceParams(field, Q, r)
    rng = random.Random(7)
    seen = set()
    for _ in range(100):
        x, y = rng.randrange(field.order), rng.randrange(field.order)
        tx = gf.trace(x, tp)
        assert field.pow(tx, Q) == tx  # in GF(Q)
        seen.add(tx)
        assert gf.trace(field.add(x, y), tp) == field.add(tx, gf.trace(y, tp))
        # F_Q-homogeneity for a subfield scalar
        lam = field.pow(field.generator, ((field.order - 1) // (Q - 1)) * rng.randrange(Q - 1))
        assert gf.trace(field.mul(lam, x), tp) == field.mul(lam, tx)
    assert len(seen) > 1  # onto more than {0}


def test_trace_params_validation():
    with pytest.raises(InvalidParameterError):
        gf.TraceParams(F9, 3, 3)


def test_find_gamma_values():
    assert gf.find_gamma(F9, 3) == F9.pow(W, 2)
    f4 = gf.field(2, 2, paper=True)
    assert gf.find_gamma(f4, 2) == 1
    f25 = gf.field(5, 2, paper=True)
    g = gf.find_gamma(f25, 5)
    assert f25.element_order(g) == 8
    assert f25.add(g, f25.pow(g, 5)) == 0


@pytest.mark.parametrize("p,q", [(3, 3), (5, 5), (7, 7)])
def test_gamma_solution_set_is_fq_line(p, q):
    # every nonzero solution of gamma + gamma^q = 0 is an F_q* multiple of
    # the designated one (the trace kernel is a 1-dim F_q-subspace)
    field = gf.field(p, 2, paper=True)
    g0 = gf.find_gamma(field, q)
    sols = {x for x in range(1, field.order) if field.add(x, field.pow(x, q)) == 0}
    assert sols == {field.mul(c, g0) for c in range(1, p)}


def test_psi_t2_is_frobenius():
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(9)
        assert gf.psi(a, F9, 3) == F9.pow(a, 3)
    assert gf.psi(0, F9, 3) == 0
    # exhaustive involution on all 9 elements
    for a in range(9):
        assert gf.psi(gf.psi(a, F9, 3), F9, 3) == a
        assert gf.psi_inverse(gf.psi(a, F9, 3), F9, 3) == a


@pytest.mark.parametrize("q,t,p,m", [(3, 2, 3, 2), (2, 2, 2, 2), (5, 2, 5, 2),
                                     (2, 4, 2, 4), (3, 4, 3, 4), (4, 2, 2, 4)])
def test_psi_bijective_and_linear(q, t, p, m):
    field = gf.field(p, m)
    if t % p == 1:
        with pytest.raises(InvalidParameterError, match="outside the supported range"):
            gf.psi(1, field, q)
        return
    images = {gf.psi(a, field, q) for a in field.elements()}
    assert len(images) == field.order  # bijective
    for a in list(field.elements())[:50]:
        assert gf.psi_inverse(gf.psi(a, field, q), field, q) == a
    rng = random.Random(11)
    # F_q-linearity: psi(lam*a + b) = lam*psi(a) + psi(b) for lam in F_q
    sub = [field.pow(field.generator, k * (field.order - 1) // (q - 1))
           for k in range(q - 1)] + [0]
    for _ in range(50):
        a, b = rng.randrange(field.order), rng.randrange(field.order)
        lam = rng.choice(sub)
        lhs = gf.psi(field.add(field.mul(lam, a), b), field, q)
        rhs = field.add(field.mul(lam, gf.psi(a, field, q)), gf.psi(b, field, q))
        assert lhs == rhs


def test_psi_rejects_bad_t():
    f81 = gf.field(3, 4)
    with pytest.raises(InvalidParameterError):
        gf.psi(1, f81, 3)  # t = 4 = 1 mod 3
    with pytest.raises(InvalidParameterError):
        gf.find_gamma(f81, 3)


def test_embed_basics():
    f36 = gf.field(3, 6, paper=True)
    sm = gf.subfield_map(F9, f36)
    assert sm.embed(0) == 0 and sm.embed(1) == 1
    img = sm.embed(W)
    assert f36.pow(img, 8) == 1 and f36.pow(img, 4) != 1
    assert f36.dlog(img) == 91
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(9), rng.randrange(9)
        assert sm.embed(F9.mul(a, b)) == f36.mul(sm.embed(a), sm.embed(b))
        # ring homomorphism, not just multiplicative:
        assert sm.embed(F9.add(a, b)) == f36.add(sm.embed(a), sm.embed(b))
    # injectivity, exhaustive
    assert len({sm.embed(a) for a in range(9)}) == 9
    # retraction inverts
    for a in range(9):
        assert sm.retract(sm.embed(a)) == a
    with pytest.raises(CoercionError):
        sm.retract(f36.generator)  # a generator of the big field is not in GF(9)


def test_embed_is_hom_for_default_moduli():
    # the incompatible-tower case: default moduli are not norm-compatible,
    # the root-based embedding must still be a homomorphism
    f9 = gf.field(3, 2)
    f36 = gf.field(3, 6)
    sm = gf.subfield_map(f9, f36)
    for a in range(9):
        for b in range(9):
            assert sm.embed(f9.add(a, b)) == f36.add(sm.embed(a), sm.embed(b))
            assert sm.embed(f9.mul(a, b)) == f36.mul(sm.embed(a), sm.embed(b))


def test_embed_prime_chain_commutes():
    f3 = gf.field(3, 1)
    f36 = gf.field(3, 6, paper=True)
    via9 = gf.subfield_map(F9, f36)
    to9 = gf.subfield_map(f3, F9)
    direct = gf.subfield_map(f3, f36)
    for a in range(3):
        assert direct.embed(a) == via9.embed(to9.embed(a))


def test_embed_rejects_non_subfield():
    with pytest.raises(NotASubfieldError):
        gf.subfield_map(gf.field(2, 2), gf.field(3, 2))
    with pytest.raises(NotASubfieldError):
        gf.subfield_map(gf.field(3, 4), gf.field(3, 6))


# -- the pinned choices against the element-wise definitions they replace -----

def reference_gamma(field_qt, q):
    """The least u with gamma = (g^step)^u, gamma + gamma^(q_A) = 0: a scan
    over the GF(q^(2^a)) subfield."""
    t = round(np.log(field_qt.order) / np.log(q))
    a = (t & -t).bit_length() - 1
    sub_order, qA = q ** (2 ** a), q ** (2 ** (a - 1))
    step = (field_qt.order - 1) // (sub_order - 1)
    for u in range(sub_order - 1):
        gamma = field_qt.pow(field_qt.generator, u * step)
        if field_qt.add(gamma, field_qt.pow(gamma, qA)) == 0:
            return gamma
    raise AssertionError("no twist element")


def reference_embedding(src, dst):
    """phi(g^k) = r^k for the least power r of dst.generator^ratio that is a
    root of the minimal polynomial of src.generator, element by element."""
    if src is dst:
        return list(range(src.order))
    # F_p's generator g is a root of X - g; elsewhere the generator is x
    minpoly = ((-src.generator) % src.p, 1) if src.m == 1 else src.modulus
    assert src.m == 1 or src.generator == src.p
    step = dst.pow(dst.generator, (dst.order - 1) // (src.order - 1))
    root = 1
    while True:
        acc = 0
        for c in reversed(minpoly):
            acc = dst.add(dst.mul(acc, root), c)
        if acc == 0:
            break
        root = dst.mul(root, step)
    image = [0] * src.order
    a, b = 1, 1
    for _ in range(src.order - 1):
        image[a] = b
        a, b = src.mul(a, src.generator), dst.mul(b, root)
    return image


def _fields(limit, paper):
    primes = [p for p in range(2, 257) if all(p % r for r in range(2, p))]
    return [gf.field(p, m, paper=paper) for p in primes for m in range(1, 17) if p ** m <= limit]


@pytest.mark.parametrize("paper", [False, True])
def test_gamma_closed_form_equals_the_scan(paper):
    checked = 0
    for f in _fields(1 << 12, paper):
        for t in (2, 4, 6):
            if f.m % t or t % f.p == 1:
                continue
            q = f.p ** (f.m // t)
            assert gf.find_gamma(f, q) == reference_gamma(f, q), (f, t)
            checked += 1
    assert checked == 35


@pytest.mark.parametrize("paper_src, paper_dst",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_subfield_map_equals_the_element_loop(paper_src, paper_dst):
    targets = _fields(1 << 16, paper_dst)
    for dst in targets:
        for m in (m for m in range(1, dst.m + 1) if dst.m % m == 0):
            src = gf.field(dst.p, m, paper=paper_src)
            sm = gf.subfield_map(src, dst)
            image = np.array(reference_embedding(src, dst))
            elems = np.arange(src.order)
            assert (sm.embed(elems) == image).all(), (src, dst)
            assert (sm.retract(image) == elems).all(), (src, dst)
            assert sm.embed(src.order - 1) == image[-1]
            assert sm.retract(int(image[-1])) == src.order - 1


def test_subfield_map_memory_stays_bounded_past_the_doubling_blocks():
    """GF(2^21) -> GF(2^42) finds phi(x) = g^204717, g = dst.generator^ratio,
    far past the last doubling block: its construction peaks below 64 MB
    under tracemalloc (315 MB when every power tested was kept), and its
    rows are the powers of that root, a root of the source modulus."""
    src, dst = gf.field(2, 21), gf.field(2, 42)
    tracemalloc.start()
    try:
        sm = gf.SubfieldMap(src, dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    root = dst.pow(dst.pow(dst.generator, (dst.order - 1) // (src.order - 1)), 204717)
    assert dst.vencode(sm.matrix).tolist() == [dst.pow(root, i) for i in range(21)]
    assert Poly(dst, src.modulus).eval(root) == 0


@pytest.mark.parametrize("p, m, M", [(3, 4, 8), (7, 3, 6), (2, 12, 24), (257, 2, 4)])
def test_subfield_map_blocks_do_not_change_the_map(p, m, M, monkeypatch):
    """The roots lie at k = 41, 79, 397 and 21559: the map is the same when
    the blocks stop doubling at 8 rows as at POWER_BLOCK."""
    src, dst = gf.field(p, m), gf.field(p, M)
    matrix = gf.SubfieldMap(src, dst).matrix
    monkeypatch.setattr(gf, "POWER_BLOCK", 8)
    assert (gf.SubfieldMap(src, dst).matrix == matrix).all()


def test_array_retract_refuses_elements_off_the_image():
    f36 = gf.field(3, 6, paper=True)
    sm = gf.subfield_map(F9, f36)
    inside = sm.embed(np.arange(9))
    assert (sm.retract(inside.reshape(3, 3)) == np.arange(9).reshape(3, 3)).all()
    for y in (f36.generator, f36.pow(f36.generator, 7)):
        with pytest.raises(CoercionError):
            sm.retract(np.append(inside, y))
    # GF(3^2) and GF(3^3) meet in GF(3) only
    with pytest.raises(CoercionError):
        gf.subfield_map(gf.field(3, 3), f36).retract(np.array([0, 1, F9.order]))


def test_least_primitive_modulus():
    assert gf.least_primitive_modulus(2, 2) == (1, 1, 1)
    mod = gf.least_primitive_modulus(3, 2)
    assert mod == (2, 1, 1)  # x^2 + x + 2
    f = gf.field(3, 2)
    # root of the modulus must generate all 8 nonzero elements
    assert f.element_order(f.generator) == 8
    # irreducibility checked independently via sympy
    x = sympy.symbols("x")
    poly = sum(int(c) * x ** i for i, c in enumerate(mod))
    assert sympy.Poly(poly, x, modulus=3).is_irreducible


def _least_primitive_by_trial_division(p, m):
    """The first candidate, in least_primitive_modulus's order, with no monic
    factor of degree <= m/2 over GF(p) and in which x has order p^m - 1."""
    fp = gf.field(p, 1)
    X = Poly.x(fp)
    monic = [[Poly(fp, tuple((c // p ** i) % p for i in range(d)) + (1,))
              for c in range(p ** d)] for d in range(m // 2 + 1)]
    for c in range(1, p ** m):
        coeffs = tuple((c // p ** i) % p for i in range(m)) + (1,)
        f = Poly(fp, coeffs)
        if any((f % g).is_zero() for d in range(1, m // 2 + 1) for g in monic[d]):
            continue
        order, cur = 1, X % f
        while cur != Poly.one(fp):
            cur, order = (cur * X) % f, order + 1
        if order == p ** m - 1:
            return coeffs
    raise AssertionError("no primitive polynomial found")


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7, 11, 13)
                                 for m in range(2, 8) if p ** m <= 3 ** 5])
def test_least_primitive_modulus_brute_force(p, m):
    assert gf.least_primitive_modulus(p, m) == _least_primitive_by_trial_division(p, m)


#: least_primitive_modulus values for splitting-field degrees and large p:
#: the first four as computed by the schoolbook F_p[x] search, the next seven
#: by the search that sieved candidates and proved them by Rabin's test
#: (sympy), the last four by the order test's binary square-and-multiply
RECORDED_MODULI = {
    (3, 18): (2, 2, 2, 0, 0, 1) + (0,) * 12 + (1,),
    (3, 28): (2, 2, 0, 0, 1, 1) + (0,) * 22 + (1,),
    (2, 23): (1, 0, 0, 0, 0, 1) + (0,) * 17 + (1,),
    (5, 20): (3, 2, 1) + (0,) * 17 + (1,),
    (3, 36): (2, 0, 0, 2, 1, 1) + (0,) * 30 + (1,),
    (3, 42): (2, 1, 1, 1, 1, 1) + (0,) * 36 + (1,),
    (2, 46): (1, 1, 1, 1, 0, 1, 0, 0, 1) + (0,) * 37 + (1,),
    (13, 4): (2, 1, 1, 0, 1),
    (17, 6): (12, 1, 0, 0, 0, 0, 1),
    (131, 2): (14, 1, 1),
    (257, 3): (5, 1, 0, 1),
    (4099, 2): (12, 1, 1),
    (16381, 2): (18, 1, 1),
    (2, 60): (1, 1) + (0,) * 58 + (1,),
    (3, 40): (2, 1) + (0,) * 38 + (1,),
}


@pytest.mark.parametrize("p,m", sorted(RECORDED_MODULI))
def test_least_primitive_modulus_recorded(p, m):
    assert gf.least_primitive_modulus(p, m) == RECORDED_MODULI[(p, m)]


def _monic(p, m):
    """Low coefficients of every monic polynomial of degree m over F_p."""
    return [[(c // p ** i) % p for i in range(m)] for c in range(p ** m)]


@pytest.mark.parametrize("p,m", [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 6)]
                         + [(5, 2), (5, 3)])
def test_sieve_against_rabin(p, m):
    """The sieve rejects exactly the polynomials with a monic factor of
    degree <= d0, and so never an irreducible one."""
    low = _monic(p, m)
    arr = gf._low_digits(p, m)
    assert arr.tolist() == low
    for d0 in range(1, m // 2 + 1):
        if p ** d0 > gf.SIEVE_LIMIT:
            break
        rejected = gf._has_small_factor(arr, p, d0).tolist()
        for digits, rej in zip(low, rejected):
            hi_lo = list(reversed(digits + [1]))
            if gf_irreducible_p(hi_lo, p, ZZ):
                assert not rej, (digits, d0)
            _, factors = gf_factor(hi_lo, p, ZZ)
            least = min(len(f) - 1 for f, _ in factors)
            assert rej == (least <= d0), (digits, d0)


def _norm_admissible(a0, p, m):
    """Whether the norm (-1)^m a_0 of x mod a monic f of degree m generates
    F_p^*, by sympy's multiplicative order."""
    c = (-1) ** m * int(a0) % p
    return c != 0 and sympy.n_order(c, p) == p - 1


@pytest.mark.parametrize("block", [gf.SIEVE_BLOCK, 4])
@pytest.mark.parametrize("p,m", [(2, 9), (2, 12), (3, 6), (3, 7), (5, 4), (17, 3), (257, 2)])
def test_block_sieve_keeps_what_the_sieve_keeps(p, m, block, monkeypatch):
    """The search's candidates, by the low digits' remainders and one row per
    block, are exactly, in order, those with no monic factor of degree <= d0
    and an admissible norm (-1)^m a_0; for m = 2 they start at x^2 + x, past
    the x^2 + a_0 that are never primitive."""
    monkeypatch.setattr(gf, "SIEVE_BLOCK", block)
    d0 = max(d for d in range(m // 2 + 1) if p ** d <= gf.SIEVE_LIMIT)
    cands = gf._low_digits(p, m)[p if m == 2 else 0:]
    cands = cands[[_norm_admissible(a0, p, m) for a0 in cands[:, 0]]]
    blocks = list(gf._sieved_candidates(p, m))
    assert max(len(b) for b in blocks) <= block
    kept = np.concatenate(blocks)
    assert kept.tolist() == cands[~gf._has_small_factor(cands, p, d0)].tolist()


@pytest.mark.parametrize("p, m", [(4099, 2), (65537, 2), (4099, 3)])
def test_sieve_blocks_stay_within_the_block_bound(p, m):
    """Above SIEVE_LIMIT, the candidates that differ only in a_0 come in
    blocks of at most SIEVE_BLOCK, in order, each of SIEVE_BLOCK
    consecutive values of a_0 less those whose norm is not a primitive root:
    x^2 + x + a_0 first at m = 2, x^3 + a_0 at m = 3."""
    blocks = list(itertools.islice(gf._sieved_candidates(p, m), 200))
    assert max(len(b) for b in blocks) <= gf.SIEVE_BLOCK
    start = p if m == 2 else 0
    values = (np.concatenate(blocks) @ p ** np.arange(m)).tolist()
    assert values[-1] - start > 100 * gf.SIEVE_BLOCK
    assert values == [v for v in range(start, values[-1] + 1) if _norm_admissible(v % p, p, m)]


@pytest.mark.parametrize("p,m", [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 6)]
                         + [(5, 2), (5, 3), (7, 2), (7, 3), (13, 2)])
def test_norm_filter_keeps_every_primitive_candidate(p, m):
    """Every monic f of degree m in which x has order p^m - 1 (the order test
    on all of them) has a norm (-1)^m a_0 that the search admits, and so the
    norm filter never drops a primitive candidate."""
    low = gf._low_digits(p, m)
    a0 = low[gf._x_has_full_order(low, p), 0]
    assert a0.size
    assert gf._admissible_norms(p, m, a0).all()
    assert all(_norm_admissible(a, p, m) for a in a0)


BIG_PRIME_SEARCH = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from addcyc import errors, gf
typed = tuple(v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception))
try:
    print(gf.least_primitive_modulus(4294967311, 2))
except typed as exc:
    print(type(exc).__name__)
"""


def test_modulus_search_for_a_large_prime_fits_in_4_gib():
    """GF(4294967311^2): the search under a 4 GiB address-space cap returns
    a proved modulus or raises a typed error; it used to ask numpy for one
    32 GiB block of all the candidates that differ only in a_0."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(pathlib.Path(gf.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", BIG_PRIME_SEARCH], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout.strip()
    if out.startswith("("):
        mod = tuple(int(c) for c in out.strip("()").split(","))
        assert len(mod) == 3 and mod[-1] == 1
        assert gf._x_has_full_order(np.array([mod[:-1]], dtype=np.int64), 4294967311)[0]


def _order_of_x(digits, p):
    """Multiplicative order of x modulo the monic polynomial with low
    coefficients ``digits``, by repeated multiplication; None when x is not
    a unit or its order exceeds p^m - 1."""
    m = len(digits)
    one = [1] + [0] * (m - 1)
    cur = list(one)
    for k in range(1, p ** m):
        # cur * x, with x^m = -(a_0 + ... + a_{m-1} x^{m-1})
        shifted, top = [0] + cur[:-1], cur[-1]
        cur = [(shifted[i] - top * digits[i]) % p for i in range(m)]
        if cur == one:
            return k
    return None


@pytest.mark.parametrize("p,m", [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 6)]
                         + [(5, m) for m in range(1, 4)]
                         + [(7, 2), (11, 2), (13, 2), (17, 2), (19, 2), (7, 3)])
def test_modulus_proofs_against_sympy(p, m):
    """The order test accepts exactly the irreducible polynomials (sympy's
    Rabin test) in which x has order p^m - 1 (by repeated multiplication),
    and Berlekamp's criterion accepts exactly the irreducible ones.  With
    p > m, the last six reach base-p digits outside the shift table."""
    low = _monic(p, m)
    order_test = gf._x_has_full_order(np.array(low, dtype=np.int64), p).tolist()
    for digits, accepted in zip(low, order_test):
        mod = tuple(digits) + (1,)
        irreducible = gf_irreducible_p(list(reversed(mod)), p, ZZ)
        assert accepted == (irreducible and _order_of_x(digits, p) == p ** m - 1), mod
        assert gf._is_irreducible(mod, p) == irreducible, mod


def _order_test_by_square_and_multiply(low, p):
    """The three conditions of the order test for each row of low
    coefficients (B, m), m >= 2, by schoolbook products and long division
    mod f, one binary square-and-multiply per exponent, with sympy's primes
    of p^m - 1: (f(0) != 0, x^(p^m) = x, x^((p^m-1)/r) != 1 for every r)."""
    low = np.asarray(low, dtype=np.int64)
    B, m = low.shape

    def mulmod(a, b):
        c = np.zeros((B, 2 * m - 1), dtype=np.int64)
        for i in range(m):
            c[:, i:i + m] = (c[:, i:i + m] + a[:, i:i + 1] * b) % p
        for k in range(2 * m - 2, m - 1, -1):  # x^k = -x^(k-m) (a_0 + ... + a_{m-1} x^(m-1))
            c[:, k - m:k] = (c[:, k - m:k] - c[:, k:k + 1] * low) % p
        return c[:, :m]

    def power(e):
        result, base = np.zeros((B, m), dtype=np.int64), x.copy()
        result[:, 0] = 1
        while e:
            if e & 1:
                result = mulmod(result, base)
            base, e = mulmod(base, base), e >> 1
        return result

    x = np.zeros((B, m), dtype=np.int64)
    x[:, 1] = 1
    q1 = p ** m - 1
    one = power(0)
    order_ok = np.ones(B, dtype=bool)
    for r in sympy.primefactors(q1):
        order_ok &= ~(power(q1 // r) == one).all(axis=1)
    return low[:, 0] != 0, (power(p ** m) == x).all(axis=1), order_ok


def _monic_product(*polys, p):
    """Low coefficients of the product of monic polynomials (low to high, monic)."""
    out = np.array([1], dtype=np.int64)
    for f in polys:
        out = np.convolve(out, np.array(f, dtype=np.int64)) % p
    return out[:-1].tolist()


def _reciprocal(f, p):
    """The monic reciprocal x^deg f(1/x) / f(0) of a monic f with f(0) != 0."""
    inv = pow(f[0], -1, p)
    return tuple(c * inv % p for c in reversed(f))


@pytest.mark.parametrize("p,m", [(2, 46), (3, 28), (5, 20), (131, 3), (16381, 2)])
def test_order_test_against_square_and_multiply(p, m):
    """The Horner order test agrees with a square-and-multiply reference on a
    seeded random stack that holds rows failing each of its three
    conditions, and primitive rows that pass them all."""
    rng = np.random.default_rng(p * 100 + m)
    prim = gf.least_primitive_modulus(p, m)
    rows = rng.integers(0, p, size=(12, m)).tolist()
    rows += [list(prim[:-1]), list(_reciprocal(prim, p)[:-1]), [0] + list(prim[1:-1])]
    if m % 2 == 0 and m > 2:
        # g g* for a primitive g of degree m/2: squarefree, its factors' degrees
        # divide m, and x has order dividing p^(m/2) - 1
        g = gf.least_primitive_modulus(p, m // 2)
        rows.append(_monic_product(g, _reciprocal(g, p), p=p))
    else:
        a, b, c = (int(v) for v in rng.choice(np.arange(1, p), size=3, replace=False))
        roots = [a, b, c][:m]
        rows.append(_monic_product(*[((-r) % p, 1) for r in roots], p=p))  # distinct roots in F_p*
        square = [((-a) % p, 1)] * 2 + [((-b) % p, 1)] * (m - 2)  # (x-a)^2 (x-b)^(m-2)
        rows.append(_monic_product(*square, p=p))
    nonzero, fixed, full = _order_test_by_square_and_multiply(rows, p)
    want = nonzero & fixed & full
    assert gf._x_has_full_order(np.array(rows, dtype=np.int64), p).tolist() == want.tolist()
    assert want.any()
    assert (~nonzero).any() and (nonzero & ~fixed).any() and (nonzero & fixed & ~full).any()


@pytest.mark.parametrize("p, m, tables", [(3, 6, True), (3, 6, False), (5, 6, False)])
def test_has_order_against_element_order(p, m, tables, monkeypatch):
    """Field.has_order through GF(3^6)'s discrete-log tables, and on digit
    rows: GF(3^6) with its tables hidden, and GF(5^6), above
    EAGER_TABLE_LIMIT.  For every divisor T of p^m - 1 it is given the
    inputs whose order divides T, random elements and elements of every
    proper subfield, and must be True exactly at those of order T, by
    element_order; at zero it is False."""
    f = gf.field(p, m)
    assert (f._exp is not None) == (f.order <= gf.EAGER_TABLE_LIMIT)
    if not tables:
        monkeypatch.setattr(f, "_exp", None)
        monkeypatch.setattr(f, "_log", None)
    q1, rng = f.order - 1, random.Random(p * 100 + m)
    elems = [rng.randrange(1, f.order) for _ in range(24)] + [1, f.generator]
    for d in sympy.divisors(m)[:-1]:
        sub = f.pow(f.generator, q1 // (p ** d - 1))
        elems += [f.pow(sub, k) for k in (1, 2, rng.randrange(p ** d))]
    rows = np.array([f.decode(a) for a in elems] + [[0] * m])
    orders = np.array([f.element_order(a) for a in elems] + [0])
    assert len(set(orders.tolist())) > 6
    for T in sympy.divisors(q1):
        inputs = T % np.maximum(orders, 1) == 0  # zero always
        got = f.has_order(rows[inputs], T)
        assert got.tolist() == (orders[inputs] == T).tolist(), T
    assert tables or (f._exp is None and f._log is None)  # the digit route built no tables


@pytest.mark.parametrize("p, m", [(2, 13), (1021, 2)], ids=["GF(2^13)", "GF(1021^2)"])
def test_dlog_leaves_the_scalar_route_alone(p, m):
    """Between EAGER_TABLE_LIMIT and TABLE_LIMIT a scalar's route depends
    only on the field's order: dlog, on powers on both sides of POWER_BLOCK,
    builds a log table that no other method reads, and afterwards mul, inv,
    pow and has_order agree with a field that never ran dlog."""
    modulus = gf.field(p, m).modulus
    f, fresh = gf.Field(p, m, modulus), gf.Field(p, m, modulus)
    assert gf.EAGER_TABLE_LIMIT < f.order <= gf.TABLE_LIMIT
    q1, g, block = f.order - 1, f.generator, gf.POWER_BLOCK
    ks = [1, 2, block - 1, block, block + 1, (q1 + block) // 2, q1 - 1]
    assert [f.dlog(f.pow(g, k)) for k in ks] == ks
    assert f._exp is None and f._log is not None
    rng = random.Random(p * 100 + m)
    elems = [rng.randrange(1, f.order) for _ in range(40)] + [1, g, f.order - 1]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        e = rng.randrange(-q1, 2 * q1)
        assert f.mul(a, b) == fresh.mul(a, b)
        assert f.inv(a) == fresh.inv(a)
        assert f.pow(a, e) == fresh.pow(a, e)
    for r in [1] + sympy.primefactors(q1):
        rows = np.array([f.decode(f.pow(a, r)) for a in elems])
        assert f.has_order(rows, q1 // r).tolist() == fresh.has_order(rows, q1 // r).tolist()
    assert f._exp is None and fresh._exp is None and fresh._log is None


def test_printing_one_token_builds_only_the_log_table():
    """format_element in a fresh GF(1021^2) prints w^k from dlog's log table
    alone: 8 MiB of int64, with no exp table beside it (31.9 MiB of peak
    before)."""
    f = gf.Field(1021, 2, gf.field(1021, 2).modulus)
    tracemalloc.start()
    try:
        token = gf.format_element(f, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert token == "w^131835" and gf.parse_element(f, token) == 5000
    assert peak < 12 << 20


def test_field_from_modulus_in_which_x_is_not_primitive():
    # x^2 + 1 is irreducible over F_3, and x has order 4 in it
    f = gf.field(3, 2, modulus=(1, 0, 1))
    assert f.generator == 4
    assert f.element_order(f.generator) == 8
    for a in range(9):
        for b in range(9):
            assert f.mul(a, b) == reduce_product_oracle(f, a, b)
    for reducible in [(1, 2, 1), (0, 1, 1)]:  # (x+1)^2 and x(x+1)
        with pytest.raises(InvalidParameterError):
            gf.field(3, 2, modulus=reducible)


def test_each_modulus_is_proved_once(monkeypatch):
    """Field runs no second order test on a modulus the search has proved;
    a new modulus is proved by one order test."""
    tested = []
    order_test = gf._x_has_full_order

    def counting(low, p):
        tested.append((p, len(low)))
        return order_test(low, p)

    monkeypatch.setattr(gf, "_PROVED", set())
    monkeypatch.setattr(gf, "_x_has_full_order", counting)
    mod = gf.least_primitive_modulus.__wrapped__(3, 18)  # the search, uncached
    searched = len(tested)
    assert gf.Field(3, 18, mod).generator == 3  # the element x
    assert len(tested) == searched
    gf.Field(3, 2, (2, 2, 1))
    gf.Field(3, 2, (2, 2, 1))
    assert tested[searched:] == [(3, 1)]


@pytest.mark.parametrize("m, batches", [(28, [4, 8, 16]), (18, [4, 8])])
def test_modulus_search_batches(m, batches, monkeypatch):
    """The uncached GF(3^m) searches for the splitting fields of (29, 3) and
    (19, 3) run order tests on these many rows: the norm filter leaves only
    a_0 = 2 at p = 3 and even m, so the sieve survivors reach the modulus
    sooner."""
    tested = []
    order_test = gf._x_has_full_order

    def counting(low, p):
        tested.append(len(low))
        return order_test(low, p)

    monkeypatch.setattr(gf, "_PROVED", set())
    monkeypatch.setattr(gf, "_x_has_full_order", counting)
    assert gf.least_primitive_modulus.__wrapped__(3, m) == RECORDED_MODULI[(3, m)]
    assert tested == batches


def test_linear_factor_product_against_scalar_products():
    rng = random.Random(13)
    for p, m in [(3, 28), (2, 4), (7, 1)]:
        f = gf.field(p, m)
        a = rng.randrange(1, f.order)
        ks = [rng.randrange(40) for _ in range(6)]
        want = Poly.one(f)
        for k in ks:
            want = want * Poly(f, (f.neg(f.pow(a, k)), 1))
        assert Poly(f, f.vencode(gf.linear_factor_product(f, a, ks))) == want
        assert f.vencode(gf.linear_factor_product(f, a, [])).tolist() == [1]


def test_small_irreducibles_are_the_irreducibles():
    for p, d in [(2, 8), (3, 5), (5, 3), (13, 2), (251, 1)]:
        got = gf._small_irreducibles(p, d).tolist()
        want = [c for c in _monic(p, d) if gf_irreducible_p(list(reversed(c + [1])), p, ZZ)]
        assert got == want


def _sympy_digits(f, a):
    return [int(c) for c in reversed(f.decode(a))]


def _from_sympy(f, poly):
    return f.encode(reversed(poly))


@pytest.mark.parametrize("p,m", [(3, 28), (2, 23), (5, 20), (65537, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_big_field_mul_pow_against_sympy(p, m, data):
    """Above the table limit, mul and pow (one convolution and the fold by
    the reduction matrix) agree with sympy's gf_mul + gf_rem, and so do
    vmul and vpow on arrays, element by element; none of them builds
    discrete-log tables."""
    f = gf.field(p, m)
    assert f.order > gf.TABLE_LIMIT and f._exp is None
    element = st.one_of(st.sampled_from([0, 1, p - 1, f.generator, f.order - 1]),
                        st.integers(0, f.order - 1))
    a, b = data.draw(element), data.draw(element)
    mod = list(reversed(f.modulus))

    def product(x, y):
        return _from_sympy(f, gf_rem(gf_mul(_sympy_digits(f, x), _sympy_digits(f, y), p, ZZ),
                                     mod, p, ZZ))

    def power(x, e):
        return _from_sympy(f, gf_pow_mod(_sympy_digits(f, x), e, mod, p, ZZ))

    assert f.mul(a, b) == product(a, b)
    e = data.draw(st.one_of(st.sampled_from([0, 1, p - 1, f.order - 2]),
                            st.integers(0, f.order)))
    assert f.pow(a, e) == power(a, e)
    xs = data.draw(st.lists(element, min_size=1, max_size=5))
    arr = np.array(xs, dtype=np.int64)
    assert f.vmul(arr, b).tolist() == [product(x, b) for x in xs]
    assert f.vmul(arr[:, None], arr).tolist() == [[product(x, y) for y in xs] for x in xs]
    assert f.vpow(arr, e).tolist() == [power(x, e) if x else 0 for x in xs]  # 0^e = 0
    assert f._exp is None


# ---------------------------------------------------------------------------
# the integer layer (primality, factoring, primitive roots), against sympy
# ---------------------------------------------------------------------------

PRIME_POWERS_TO_32 = [q for q in range(2, 33) if len(sympy.factorint(q)) == 1]


def test_order_factors_against_sympy():
    """Every q^m - 1 < 2^80 with q <= 32 a prime power: 482 cases."""
    cases = [(q, m) for q in PRIME_POWERS_TO_32 for m in range(1, 81) if q ** m - 1 < 2 ** 80]
    assert len(cases) == 482
    for q, m in cases:
        n = q ** m - 1
        assert gf._order_factors.__wrapped__(n) == tuple(sympy.primefactors(n)), (q, m)


def test_is_prime_against_sympy():
    assert [n for n in range(200_000) if gf._is_prime(n)] == list(sympy.primerange(200_000))


@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051,
                               318665857834031151167461, 3317044064679887385961981])
def test_is_prime_rejects_strong_pseudoprimes(n):
    """Strong pseudoprimes to the prime bases 2; 2..7; 2..23; 2..37; and
    2..41, the last the bound from which BPSW takes over."""
    assert not gf._is_prime(n)


@pytest.mark.parametrize("e", [61, 89, 127])
def test_is_prime_accepts_mersenne_primes(e):
    assert gf._is_prime(2 ** e - 1)


@pytest.mark.parametrize("r", [2 ** 31 - 1, 2 ** 61 - 1])
def test_order_factors_of_a_prime_square(r):
    assert gf._order_factors.__wrapped__(r * r) == (r,)
    assert gf._order_factors.__wrapped__(3 * r * r) == (3, r)


def test_least_primitive_root_against_sympy():
    """The modulus x - g of GF(p): g is the least primitive root."""
    for p in sympy.primerange(3, 1 << 16):
        mod = gf.least_primitive_modulus.__wrapped__(p, 1)
        assert mod == ((-sympy.primitive_root(p)) % p, 1), p


def test_prime_power():
    assert gf.prime_power(np.int64(9)) == (3, 2)
    for q in PRIME_POWERS_TO_32 + [2 ** 61 - 1, (2 ** 61 - 1) ** 3, 2 ** 127, 3 ** 80]:
        p, e = gf.prime_power(q)
        assert p ** e == q and sympy.isprime(p)
    for q in [-4, 0, 1, 6, 12, 36, (2 ** 61 - 1) * (2 ** 31 - 1), 3 * 2 ** 61]:
        with pytest.raises(InvalidParameterError):
            gf.prime_power(q)


def test_field_validation():
    with pytest.raises(InvalidParameterError):
        gf.field(4, 1)  # characteristic not prime
    with pytest.raises(InvalidParameterError):
        gf.field(3, 2, modulus=(0, 0, 1))  # x^2 reducible
    with pytest.raises(InvalidParameterError):
        gf.field_of_order(12)


def test_format_parse_roundtrip():
    for a in range(9):
        tok = gf.format_element(F9, a)
        assert gf.parse_element(F9, tok) == a
    assert gf.format_element(F9, 0) == "0"
    assert gf.format_element(F9, 2) == "2"
    assert gf.format_element(F9, W) == "w"
    assert gf.format_element(F9, F9.pow(W, 7)) == "w^7"


@pytest.mark.parametrize("token", ["9", "3", "-1"])
def test_integer_tokens_outside_the_prime_field_are_refused(token):
    """An integer token names an element of F_p only in [0, p): "9" used to
    read as 0 and "-1" as 2 in GF(9)."""
    with pytest.raises(CoercionError):
        gf.parse_element(F9, token)


@pytest.mark.parametrize("token", ["[5]", "[1,1,1]", "[0,3]", "[-1]"])
def test_digit_tokens_outside_the_field_are_refused(token):
    """A bracketed token holds at most m digits, each in [0, p): in GF(9),
    "[5]" used to read as 2 and "[1,1,1]" as 13, outside the field."""
    with pytest.raises(CoercionError):
        gf.parse_element(F9, token)
    assert gf.parse_element(F9, "[1,2]") == 7 and gf.parse_element(F9, "[2]") == 2


def test_printed_elements_above_the_tables_parse_back():
    """Above gf.TABLE_LIMIT an element prints as its bracketed digits; a
    comma inside the brackets does not split the tokens of a row."""
    f = gf.field(3, 13)
    assert f.order > gf.TABLE_LIMIT
    row = [0, 1, 2, f.p, f.order - 1, f.pow(f.p, 5_000)]
    text = ",".join(gf.format_element(f, a) for a in row)
    assert "[" in text and gf.parse_elements(f, text) == row
    ring = cyclic_ring(f, len(row))
    assert list(ring.from_tokens(text).coeffs) == row
    assert Poly.from_tokens(f, text).coeffs == tuple(row)
    assert gf.parse_elements(F9, "w,[1,2],2") == [W, 7, 2]


def test_field_spec_string():
    spec = F9.spec_string()
    assert spec == "3^2/2,2,1"
    again = gf.parse_field_spec(spec)
    assert again is F9  # cached construction
    assert gf.parse_field_spec("7") is gf.field(7, 1)
