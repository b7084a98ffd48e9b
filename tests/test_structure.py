"""Cosets, the negation involution, tau automorphisms and the ideal atlas."""

import itertools
import random

import numpy as np
import pytest
import sympy

from addcyc import gf, linalg
from addcyc.bilinear import context
from addcyc.errors import InvalidParameterError, NotCoprimeError, NotInIdealError
from addcyc.polyring import Poly
from addcyc.structure import build_atlas, build_coset_table, cyclotomic_cosets, tau_ideal_image


@pytest.fixture(scope="module")
def atlas73():
    return build_atlas(7, 3, 2, paper=True)


def test_cyclotomic_cosets_reference():
    assert cyclotomic_cosets(7, 3) == [(0,), (1, 2, 3, 4, 5, 6)]
    assert cyclotomic_cosets(7, 9) == [(0,), (1, 2, 4), (3, 5, 6)]
    assert cyclotomic_cosets(1, 5) == [(0,)]


def test_cyclotomic_cosets_partition_random():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 40)
        q = rng.choice([2, 3, 4, 5, 7, 9])
        if sympy.gcd(n, q) != 1:
            with pytest.raises(NotCoprimeError):
                cyclotomic_cosets(n, q)
            continue
        cosets = cyclotomic_cosets(n, q)
        flat = sorted(v for c in cosets for v in c)
        assert flat == list(range(n))
        for c in cosets:
            assert all((v * q) % n in c for v in c)  # closed under multiplication by q


def test_coset_split():
    tab = build_coset_table(7, 3, 2)
    assert tab.subcosets[1] == ((1, 2, 4), (3, 5, 6))
    assert tab.subcosets[0] == ((0,),)
    assert tab.s[1] == 2 and tab.D[1] == 3
    tab32 = build_coset_table(3, 2, 2)
    assert tab32.subcosets[1] == ((1,), (2,))


def test_mu_permutation():
    tab = build_coset_table(7, 3, 2)
    assert tab.mu == (0, 1) and tab.i_sharp is None
    assert tab.fixed == (1,) and tab.paired == ()
    tab32 = build_coset_table(3, 2, 2)
    assert tab32.mu == (0, 1)
    # a transposition: n = 7, q = 2 swaps the two big cosets
    tab72 = build_coset_table(7, 2, 2)
    assert tab72.mu == (0, 2, 1) and tab72.paired == (1,)
    # i# exists for even n
    tab83 = build_coset_table(8, 3, 2)
    assert tab83.i_sharp is not None
    assert tab83.cosets[tab83.i_sharp] == (4,)
    assert tab83.d[tab83.i_sharp] == 1 and tab83.mu[tab83.i_sharp] == tab83.i_sharp


def test_mu_zero_always_fixed():
    for n, q in [(5, 2), (9, 2), (13, 3), (11, 2), (4, 3)]:
        tab = build_coset_table(n, q, 2)
        assert tab.mu[0] == 0


def test_tau_identity_and_multiplicative(atlas73):
    rng = random.Random(13)
    ring = atlas73.ring
    for _ in range(50):
        a = ring.element(rng.randrange(9) for _ in range(7))
        b = ring.element(rng.randrange(9) for _ in range(7))
        assert a.tau(1, 1) == a
        for (w, u) in [(3, 1), (1, -1), (3, -1), (9, 2)]:
            assert (a * b).tau(w, u) == a.tau(w, u) * b.tau(w, u)
            assert (a + b).tau(w, u) == a.tau(w, u) + b.tau(w, u)


def test_tau_requires_unit_shift(atlas73):
    with pytest.raises(NotCoprimeError):
        atlas73.ring.one().tau(3, 7)  # u = 7 = 0 mod n


def test_tau_ideal_image_reference(atlas73):
    tab = atlas73.table
    # negation swaps the two fine ideals of the big class
    assert tau_ideal_image(tab, 0, -1, (1, 0)) == (1, 1)
    assert atlas73.tau_orientation == [None, "swaps"]
    # tau_{1,1} fixes everything
    for ij in [(0, 0), (1, 0), (1, 1)]:
        assert tau_ideal_image(tab, 0, 1, ij) == ij
    # coset-level image agrees with applying tau to the idempotent
    for ij in [(0, 0), (1, 0), (1, 1)]:
        img = tau_ideal_image(tab, 0, -1, ij)
        assert atlas73.idempotents[ij].tau(1, -1) == atlas73.idempotents[img]


def test_tau_coarse_image_is_mu(atlas73):
    # tau_{q^u,-1}(J_i) = J_mu(i), checked by mapping the J identities
    for n, q in [(7, 3), (7, 2), (5, 2), (13, 3)]:
        atlas = build_atlas(n, q, 2)
        tab = atlas.table
        for u in range(2):
            for i in range(tab.num_classes):
                img = atlas.j_idempotents[i].tau(q ** u, -1)
                assert img == atlas.j_idempotents[tab.mu[i]]


def test_atlas_reference_idempotents(atlas73):
    assert str(atlas73.idempotent(0, 0)) == "1,1,1,1,1,1,1"
    assert str(atlas73.idempotent(1, 0)) == "0,w^7,w^7,w^5,w^7,w^5,w^5"
    assert str(atlas73.idempotent(1, 1)) == "0,w^5,w^5,w^7,w^5,w^7,w^7"
    total = atlas73.ring.zero()
    for e in atlas73.idempotents.values():
        assert e * e == e
        total = total + e
    assert total == atlas73.ring.one()


def test_rho_orders_and_tau_compat():
    """rho_{i,j} lies in I_{i,j} and has order exactly q^(t D_i) - 1 there,
    the order taken from the coset table; tau_{q^j,1} carries rho_{i,0} to
    rho_{i,j}.  (23, 2) needs GF(2^22), (7, 2, 4) is a t = 4 atlas, and
    (3, 65537) has GF(65537^2), with no discrete-log tables."""
    for args in [(7, 3, 2), (13, 2, 2), (23, 2, 2), (7, 2, 4), (3, 65537, 2)]:
        atlas = build_atlas(*args)
        tab = atlas.table
        for i in range(tab.num_classes):
            order = tab.q ** (tab.t * tab.D[i]) - 1
            for j in range(tab.s[i]):
                e, rho = atlas.idempotent(i, j), atlas.rho(i, j)
                assert atlas.in_ideal(rho, i, j)
                assert rho.pow_with_identity(order, e) == e
                for r in sympy.primefactors(order):
                    assert rho.pow_with_identity(order // r, e) != e
                assert atlas.rho(i, 0).tau(tab.q ** j, 1) == rho


def _first_rho_by_ring_powers(atlas, i):
    """rho_{i,0} by its definition, in the ring alone: the first h * e_{i,0},
    h's coefficients read as a base-q^t integer counting up, whose order in
    I_{i,0}, by pow_with_identity, is q^(t D_i) - 1.  The count starts at
    h = 1, or at h = p when D_i = 1, where the elements of F_p (order
    dividing p - 1) are skipped, as the test below shows harmless."""
    Q, Di, n = atlas.field_qt.order, atlas.table.D[i], atlas.n
    order = Q ** Di - 1
    e = atlas.idempotent(i, 0)
    for c in itertools.count(atlas.field_qt.p if Di == 1 else 1):
        h = atlas.ring.element([c // Q ** k % Q for k in range(Di)] + [0] * (n - Di))
        cand = h * e
        if (all(cand.pow_with_identity(order // r, e) != e for r in sympy.primefactors(order))
                and cand.pow_with_identity(order, e) == e):
            return cand


@pytest.mark.parametrize("n, q, t, paper", [
    (7, 3, 2, True), (13, 2, 2, True), (15, 2, 2, False),      # splitting field with log tables
    (7, 5, 2, False), (23, 2, 2, False), (11, 5, 2, False),    # and without
    (41, 2, 2, False), (3, 65537, 2, False), (7, 2, 4, False)])
def test_rho_is_the_first_candidate_of_full_order_in_the_ring(n, q, t, paper):
    """Every rho_{i,j} equals its definition taken in the ring, and
    rho_{i,j} = tau_{q^j,1}(rho_{i,0}); so option labels and the order of
    enumeration do not depend on where the order is tested."""
    atlas = build_atlas(n, q, t, paper=paper)
    tab = atlas.table
    for i in range(tab.num_classes):
        ref = _first_rho_by_ring_powers(atlas, i)
        for j in range(tab.s[i]):
            assert atlas.rho(i, j) == ref.tau(q ** j, 1), (i, j)


@pytest.mark.parametrize("n, q", [(7, 5), (41, 2)])
def test_rho_builds_no_discrete_log_table(n, q, monkeypatch):
    """Above EAGER_TABLE_LIMIT the order test runs on digit rows: computing
    every rho builds no table of the splitting field."""
    atlas = build_atlas(n, q)
    split = atlas.sd.splitting_field
    assert split.order > gf.EAGER_TABLE_LIMIT
    monkeypatch.setattr(split, "_exp", None)
    monkeypatch.setattr(split, "_log", None)

    def refuse(self):
        raise AssertionError(f"{self} built its discrete-log tables")

    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    for ij in atlas.idempotents:
        atlas.rho(*ij)
    assert split._exp is None


@pytest.mark.parametrize("paper", [False, True])
@pytest.mark.parametrize("n, q", [(7, 3), (15, 2), (13, 3), (5, 9)])
def test_rho_of_a_one_dimensional_ideal_is_the_least_primitive_constant(n, q, paper):
    """When D_i = 1, rho_{i,0} = c * e_{i,0} for the least c of order
    q^t - 1 in GF(q^t): the search, which skips the constants of F_p, finds
    the same c as a search from c = 1."""
    atlas = build_atlas(n, q, paper=paper)
    f = atlas.field_qt
    c = next(c for c in range(1, f.order) if f.element_order(c) == f.order - 1)
    classes = [i for i in range(atlas.table.num_classes) if atlas.table.D[i] == 1]
    assert classes
    for i in classes:
        assert atlas.rho(i, 0) == atlas.idempotent(i, 0).scale(c)


def test_ideal_indices_outside_the_coset_table_are_refused():
    atlas = build_atlas(7, 3)
    for i, j in [(0, 1), (5, 0), (-1, 0)]:
        with pytest.raises(InvalidParameterError):
            atlas.rho(i, j)
    with pytest.raises(InvalidParameterError):
        atlas.idempotent(1, 2)
    x = atlas.ring.one()
    for call in (lambda: atlas.j_idempotent(-1), lambda: atlas.j_idempotent(5),
                 lambda: atlas.k_basis(-1), lambda: atlas.k_basis(5),
                 lambda: atlas.project(x, -1), lambda: atlas.project(x, 5),
                 lambda: atlas.in_ideal(x, -1), lambda: atlas.in_ideal(x, 5),
                 lambda: atlas.in_ideal(x, 1, 2), lambda: atlas.in_ideal(x, -1, 0)):
        with pytest.raises(InvalidParameterError):
            call()


def _in_ring(ring, poly):
    """poly reduced mod X^n - 1, as an element of ring."""
    rem = poly % Poly.x_pow_n_minus_1(poly.field, ring.n)
    return ring.element(rem.coeffs + (0,) * (ring.n - len(rem.coeffs)))


@pytest.mark.parametrize("n,q,t,paper", [
    (7, 3, 2, True), (5, 3, 2, False), (8, 3, 2, False), (13, 2, 2, False),
    (7, 2, 4, False), (2, 3, 6, False), (1, 3, 2, False), (47, 3, 2, False)])
def test_each_idempotent_annihilates_its_own_factor_only(n, q, t, paper):
    """e_{i,j} * M_{i',j'} = 0 in the ring exactly when (i', j') = (i, j),
    and f_i * m_i = 0.  This ties each idempotent to its factor: idempotents
    that are 1 at the roots of the wrong factors pass every check of
    idempotence, orthogonality and sum.  (47, 3) has a splitting field,
    GF(3^46), of more than 2^63 elements."""
    atlas = build_atlas(n, q, t, paper=paper)
    M = {ij: _in_ring(atlas.ring, poly) for ij, poly in atlas.M_poly.items()}
    for ij, e in atlas.idempotents.items():
        for kl, M_kl in M.items():
            assert (e * M_kl).is_zero() == (kl == ij), (ij, kl)
    emb = gf.subfield_map(atlas.field_q, atlas.field_qt).embed
    for i, m_i in enumerate(atlas.m_poly):
        m_i = _in_ring(atlas.ring, Poly(atlas.field_qt, [emb(c) for c in m_i.coeffs]))
        assert (atlas.j_idempotent(i) * m_i).is_zero()


K_BASIS_CASES = [(7, 3, 2, True), (13, 2, 2, False), (8, 3, 2, False), (7, 2, 4, False)]


@pytest.mark.parametrize("n,q,t,paper,i", [
    (*case, i) for case in K_BASIS_CASES
    for i in range(build_coset_table(*case[:3]).num_classes)])
def test_k_basis_and_fixed_subfield(n, q, t, paper, i):
    """k_basis(i) is d_i elements of J_i, fixed by tau_{q,1} and independent
    over F_q, so an F_q-basis of K_i."""
    ctx = context(n, q, t, paper=paper)
    basis = ctx.atlas.k_basis(i)
    assert len(basis) == ctx.table.d[i]
    rows = ctx.expand(np.array([b.coeffs for b in basis]))
    assert linalg.rank(ctx.field_q, rows) == ctx.table.d[i]
    for b in basis:
        assert ctx.atlas.fixed_subfield_check(i, b)


def test_fixed_subfield_check(atlas73):
    # e_{1,0} + e_{1,1} is tau-fixed, the lone idempotent is not
    f1 = atlas73.idempotent(1, 0) + atlas73.idempotent(1, 1)
    assert atlas73.fixed_subfield_check(1, f1)
    assert not atlas73.fixed_subfield_check(1, atlas73.rho(1, 0))
    assert atlas73.fixed_subfield_check(1, atlas73.ring.zero())
    with pytest.raises(NotInIdealError):
        atlas73.fixed_subfield_check(0, atlas73.idempotent(1, 0))


@pytest.mark.parametrize("n,q", [(5, 2), (5, 3), (4, 3), (8, 3), (9, 2), (13, 3)])
def test_atlas_builds_and_validates(n, q):
    atlas = build_atlas(n, q, 2)
    tab = atlas.table
    # structural invariants are asserted during construction; re-check dims
    for i in range(tab.num_classes):
        assert tab.d[i] == tab.s[i] * tab.D[i]
        if tab.mu[i] == i and i not in (0, tab.i_sharp):
            assert tab.d[i] % 2 == 0


def test_atlas_requires_coprime():
    with pytest.raises(NotCoprimeError):
        build_atlas(6, 3, 2)
    for n, t in [(-7, 2), (7, 0), (7, -2)]:
        with pytest.raises(InvalidParameterError):
            build_atlas(n, 3, t)
    assert build_atlas(7, 3, 3).table.t == 3  # the atlas accepts odd t


def test_atlas_to_dict(atlas73):
    d = atlas73.to_dict()
    assert d["mu"] == [0, 1]
    assert d["factors_q"] == ["2,1", "1,1,1,1,1,1,1"]
    assert d["idempotents"]["1,0"] == "0,w^7,w^7,w^5,w^7,w^5,w^5"
    assert d["tau_orientation"] == [None, "swaps"]
