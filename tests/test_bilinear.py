"""The twisted trace form: laws, the two-route cross-check, non-degeneracy."""

import random

import numpy as np
import pytest

from addcyc import gf, linalg
from addcyc.bilinear import DeltaContext, context, delta_form, delta_inner, \
    module_law_check, component_split_check
from addcyc.errors import (
    CoercionError,
    InvalidParameterError,
    LengthMismatchError,
    NotCoprimeError,
)


CTX73 = context(7, 3, 2, paper=True)

INSTANCES = [(3, 2), (5, 2), (7, 3), (5, 3), (3, 5)]


def rand_vec(ctx, rng):
    return ctx.ring.element(rng.randrange(ctx.field_qt.order) for _ in range(ctx.n))


def inline_inner(a, b, ctx, gamma):
    """Independent evaluation of the defining sum with an explicit twist."""
    fqt = ctx.field_qt
    total = 0
    for x, y in zip(a.coeffs, b.coeffs):
        conj = fqt.pow(y, ctx.q ** (ctx.t // 2))
        term = fqt.mul(gamma, fqt.mul(x, gf.psi(conj, fqt, ctx.q)))
        total = fqt.add(total, fqt.trace_map(term, ctx.q, ctx.t))
    return total


def test_context_validation():
    with pytest.raises(NotCoprimeError):
        DeltaContext(6, 3, 2)
    with pytest.raises(InvalidParameterError):
        DeltaContext(7, 3, 3)   # odd t
    with pytest.raises(InvalidParameterError):
        DeltaContext(7, 3, 4)   # t = 1 mod p
    with pytest.raises(InvalidParameterError):
        DeltaContext(5, 6, 2)   # q not a prime power
    for n, t in [(-7, 2), (7, 0), (7, -2)]:
        with pytest.raises(InvalidParameterError):
            DeltaContext(n, 3, t)


def test_zero_and_scalar_laws():
    rng = random.Random(23)
    for _ in range(30):
        b = rand_vec(CTX73, rng)
        assert delta_inner(CTX73.ring.zero(), b, CTX73) == 0
        a = rand_vec(CTX73, rng)
        alpha = rng.randrange(3)  # F_q scalar
        lhs = delta_inner(a.scale(alpha), b, CTX73)
        assert lhs == CTX73.field_q.mul(alpha, delta_inner(a, b, CTX73))
        assert lhs == delta_inner(a, b.scale(alpha), CTX73)


@pytest.mark.parametrize("n,q", INSTANCES)
def test_bilinearity_random(n, q):
    ctx = context(n, q, 2, paper=True)
    rng = random.Random(100 * n + q)
    for _ in range(200):
        a, b, c = (rand_vec(ctx, rng) for _ in range(3))
        ab = delta_inner(a, b, ctx)
        assert delta_inner(a, b + c, ctx) == ctx.field_q.add(ab, delta_inner(a, c, ctx))
        assert delta_inner(a + b, c, ctx) == ctx.field_q.add(
            delta_inner(a, c, ctx), delta_inner(b, c, ctx))
        # the value really lives in F_q (retraction succeeded) and matches
        # an inline evaluation of the defining sum
        assert ctx.embed_scalar(ab) == inline_inner(a, b, ctx, ctx.gamma)


def test_t2_conjugation_collapses():
    # for t = 2 the defining sum reduces to sum Tr(gamma a_j b_j)
    rng = random.Random(31)
    fqt = CTX73.field_qt
    for _ in range(100):
        a, b = rand_vec(CTX73, rng), rand_vec(CTX73, rng)
        total = 0
        for x, y in zip(a.coeffs, b.coeffs):
            total = fqt.add(total, fqt.trace_map(
                fqt.mul(CTX73.gamma, fqt.mul(x, y)), 3, 2))
        assert CTX73.embed_scalar(delta_inner(a, b, CTX73)) == total


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        delta_inner([0, 1], [0, 1, 2], CTX73)


@pytest.mark.parametrize("n,q", INSTANCES)
def test_master_cross_check(n, q):
    # coefficient k of the algebra form equals the scalar form at shift k
    ctx = context(n, q, 2, paper=True)
    rng = random.Random(7 * n + q)
    for _ in range(100):
        a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
        form = delta_form(a, b, ctx)
        for k in range(n):
            assert form.coeffs[k] == delta_inner(a, b.shift(k), ctx)


def test_form_zero_argument():
    rng = random.Random(41)
    a = rand_vec(CTX73, rng)
    assert delta_form(a, CTX73.ring.zero(), CTX73).is_zero()


def test_reference_idempotent_isotropic():
    e10 = CTX73.atlas.idempotent(1, 0)
    assert delta_form(e10, e10, CTX73).is_zero()


@pytest.mark.parametrize("n,q", [(7, 3), (5, 2), (5, 3)])
def test_module_laws(n, q):
    ctx = context(n, q, 2, paper=True)
    rng = random.Random(17 * n + q)
    one = ctx.ring_q.one()
    x = ctx.ring_q.x_power(1)
    for _ in range(60):
        a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
        f = ctx.ring_q.element(rng.randrange(q) for _ in range(n))
        assert module_law_check(one, a, b, ctx)
        assert module_law_check(x, a, b, ctx)
        assert module_law_check(f, a, b, ctx)


@pytest.mark.parametrize("n,q", [(7, 3), (5, 2), (3, 2)])
def test_component_split(n, q):
    ctx = context(n, q, 2, paper=True)
    rng = random.Random(3 * n + q)
    for _ in range(60):
        a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
        assert component_split_check(a, b, ctx)


def test_cross_component_orthogonality():
    # a supported in J_0, b supported in J_1: mu(0) = 0 != 1, so [a, b] = 0
    atlas = CTX73.atlas
    rng = random.Random(53)
    for _ in range(20):
        a = atlas.project(rand_vec(CTX73, rng), 0)
        b = atlas.project(rand_vec(CTX73, rng), 1)
        assert delta_form(a, b, CTX73).is_zero()
        assert delta_inner(a, b, CTX73) == 0


@pytest.mark.parametrize("n,q", INSTANCES)
def test_nondegenerate(n, q):
    # rank of the tn x tn Gram matrix equals tn: exactly the statement that
    # every nonzero vector has a non-orthogonal partner
    ctx = context(n, q, 2, paper=True)
    tn = ctx.t * n
    full = np.eye(tn, dtype=np.int64)
    G = ctx.gram_apply(full)
    assert linalg.rank(ctx.field_q, G) == tn
    # constructive witnesses for a sample of nonzero vectors
    rng = random.Random(n * q)
    for _ in range(20):
        a = rand_vec(ctx, rng)
        if a.is_zero():
            continue
        j = next(i for i, c in enumerate(a.coeffs) if c)
        found = None
        for d in range(1, ctx.field_qt.order):
            vec = [0] * n
            vec[j] = d
            if delta_inner(a.coeffs[j:j + 1], [d], _single(ctx)) != 0:
                found = vec
                break
        assert found is not None
        assert delta_inner(a, ctx.ring.element(found), ctx) != 0


def _single(ctx):
    return context(1, ctx.q, ctx.t, paper=ctx.paper)


def test_algebra_form_witness():
    # the single-position witness from the non-degeneracy argument: place
    # at position -j a value whose conjugate sum hits theta / a_j, so the
    # aligned coefficient of the form is Tr(gamma * theta) != 0
    ctx = CTX73
    fqt = ctx.field_qt
    rng = random.Random(77)
    theta = next(d for d in range(1, 9)
                 if fqt.trace_map(fqt.mul(ctx.gamma, d), 3, 2) != 0)
    target = ctx.retract_scalar(fqt.trace_map(fqt.mul(ctx.gamma, theta), 3, 2))
    for _ in range(30):
        vec = [0] * 7
        j = rng.randrange(7)
        vec[j] = rng.randrange(1, 9)
        a = ctx.ring.element(vec)
        val = fqt.mul(theta, fqt.inv(vec[j]))
        bvec = [0] * 7
        # psi(b^(q^(t/2))) = theta/a_j: invert the conjugate sum, then undo
        # the q^(t/2) conjugation (for t = 2 the Frobenius is an involution)
        bvec[(7 - j) % 7] = fqt.pow(gf.psi_inverse(val, fqt, 3), 3)
        b = ctx.ring.element(bvec)
        form = delta_form(a, b, ctx)
        assert not form.is_zero()
        # both supports align at shift 2j
        assert form.coeffs[(2 * j) % 7] == target


def test_gamma_scaling_invariance():
    # replacing gamma by c*gamma (c in F_q*) scales the form by c, so
    # orthogonality predicates do not depend on the twist choice
    rng = random.Random(99)
    for _ in range(50):
        a, b = rand_vec(CTX73, rng), rand_vec(CTX73, rng)
        base = inline_inner(a, b, CTX73, CTX73.gamma)
        for c in (1, 2):
            scaled = inline_inner(a, b, CTX73, CTX73.field_qt.mul(c, CTX73.gamma))
            assert scaled == CTX73.field_qt.mul(c, base)


def test_gram_block_matches_definition():
    rng = random.Random(111)
    for _ in range(50):
        a, b = rand_vec(CTX73, rng), rand_vec(CTX73, rng)
        ae = CTX73.expand(np.array([a.coeffs]))
        be = CTX73.expand(np.array([b.coeffs]))
        assert int(CTX73.pair_matrix(ae, be)[0, 0]) == delta_inner(a, b, CTX73)


def test_expand_compress_roundtrip():
    rng = random.Random(5)
    sym = np.array([[rng.randrange(9) for _ in range(7)] for _ in range(10)])
    assert (CTX73.compress(CTX73.expand(sym)) == sym).all()


@pytest.mark.parametrize("q", [2, 3, 4, 9, 25])
def test_expand_compress_roundtrip_whole_field(q):
    ctx = context(7, q, 2)
    sym = np.arange(ctx.field_qt.order, dtype=np.int64).reshape(-1, 1)
    coords = ctx.expand(sym)
    assert coords.shape == (q * q, 2) and coords.min() >= 0 and coords.max() < q
    assert (ctx.compress(coords) == sym).all()
    assert (ctx.compress(ctx.expand(sym.reshape(1, -1))) == sym.reshape(1, -1)).all()


def test_compress_rejects_out_of_range_coordinates():
    for bad in ([[0, 3]], [[-1, 0]], [[1, 2, 9, 0]]):
        with pytest.raises(CoercionError):
            CTX73.compress(np.array(bad))


def test_expand_rejects_symbols_outside_the_field():
    # -1 would index element 8 from the end, 9 past the end of GF(9)
    for bad in ([[-1]], [[9]], [[0, 1, 2, 3, 4, 5, 81]], 3):
        with pytest.raises(CoercionError):
            CTX73.expand(np.array(bad))
    assert CTX73.expand(np.zeros((0, 7), dtype=np.int64)).shape == (0, 14)


def test_compress_rejects_a_partial_symbol():
    for bad in ([[0, 1, 2]], [0], 1):
        with pytest.raises(CoercionError):
            CTX73.compress(np.array(bad))


def reference_coordinates(ctx):
    """(coordinates, elements): every F_q^t vector c and sum_s c_s * g^s,
    summed element by element with F_q embedded."""
    fqt = ctx.field_qt
    coords = np.indices((ctx.q,) * ctx.t).reshape(ctx.t, -1).T
    elems = []
    for c in coords:
        y = 0
        for c_s, g_s in zip(c, ctx.fq_basis):
            y = fqt.add(y, fqt.mul(ctx.embed_scalar(int(c_s)), g_s))
        elems.append(y)
    return coords, np.array(elems)


@pytest.mark.parametrize("paper", [False, True])
@pytest.mark.parametrize("params", [(7, 3), (7, 4), (5, 9), (13, 2), (7, 5), (5, 8), (3, 16),
                                    (7, 2, 4), (3, 5, 4), (2, 3, 6), (2, 27), (3, 25),
                                    (3, 49), (3, 64)])
def test_coordinates_equal_the_element_wise_reference(params, paper):
    ctx = DeltaContext(*params, paper=paper)
    coords, elems = reference_coordinates(ctx)
    assert sorted(elems.tolist()) == list(range(ctx.field_qt.order))
    assert (ctx.expand(elems[:, None]) == coords).all()
    assert (ctx.compress(coords) == elems[:, None]).all()


def test_wide_q_context_builds_no_field_sized_table():
    ctx = DeltaContext(3, 65537)
    assert ctx.gamma == ctx.field_qt.pow(ctx.field_qt.generator, 65538 // 2)
    sym = np.array([[0, 1, 65537], [65537 ** 2 - 1, 2 * 65537 + 5, 7]])
    coords = ctx.expand(sym)
    assert coords.tolist() == [[0, 0, 1, 0, 0, 1], [65536, 65536, 5, 2, 7, 0]]
    assert (ctx.compress(coords) == sym).all()


def test_vector_entries_outside_the_field_are_refused():
    """-1 read as element 8, 100 indexed past GF(9) and 1.5 truncated to 1."""
    zero = [0] * 7
    for bad in ([-1] + zero[1:], [100] + zero[1:], [1.5] + zero[1:]):
        with pytest.raises(CoercionError):
            delta_inner(bad, zero, CTX73)
        with pytest.raises(CoercionError):
            delta_inner(zero, bad, CTX73)
    # numpy integers are integers
    assert delta_inner(np.arange(1, 8), [1] * 7, CTX73) == delta_inner(
        CTX73.ring.element(range(1, 8)), CTX73.ring.element([1] * 7), CTX73)
