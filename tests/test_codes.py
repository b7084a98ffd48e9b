"""Additive codes: construction, duals, decomposition, minimum distance."""

import random

import numpy as np
import pytest

from addcyc import classify, codes, refdata
from addcyc.bilinear import context
from addcyc.codes import AdditiveCode, cyclic_span, dual_delta, is_cyclic, \
    is_self_dual, is_self_orthogonal, min_distance
from addcyc.errors import EmptyCodeError, NotCyclicError


CTX73 = context(7, 3, 2, paper=True)


def rand_code(ctx, rng, rows=None):
    rows = rows if rows is not None else rng.randrange(1, ctx.t * ctx.n)
    mat = [[rng.randrange(ctx.field_qt.order) for _ in range(ctx.n)]
           for _ in range(rows)]
    return codes.code_from_vectors(mat, ctx)


def rand_cyclic_code(ctx, rng):
    choices = [rng.choice(classify.all_subspace_choices(i, ctx))
               for i in range(ctx.atlas.table.num_classes)]
    rows = np.concatenate([classify.component_rows(c, ctx) for c in choices], axis=0)
    return AdditiveCode.from_expansion(ctx, rows)


def test_single_vector_and_scalar_dependence():
    v = [1, 0, CTX73.field_qt.generator, 0, 0, 0, 0]
    C = codes.code_from_vectors([v], CTX73)
    assert C.k == 1
    lam = 2  # F_3 scalar
    C2 = codes.code_from_vectors([v, CTX73.field_qt.vmul(np.int64(lam), np.array(v)).tolist()],
                                 CTX73)
    assert C2.k == 1 and C2 == C


def test_reference_generator_matrix():
    C = codes.code_from_vectors(refdata.WORKED_GOOD_MATRIX, CTX73)
    assert C.k == 6  # |C| = 3^6 = 9^3


def test_canonicalisation_invariance():
    rng = random.Random(2)
    for _ in range(20):
        C = rand_code(CTX73, rng)
        rows = C.basis_symbols().tolist()
        rng.shuffle(rows)
        scaled = []
        for r in rows:
            lam = rng.randrange(1, 3)
            scaled.append(CTX73.field_qt.vmul(np.int64(lam), np.array(r)).tolist())
        assert codes.code_from_vectors(scaled, CTX73) == C


def test_cyclic_span_reference():
    C = cyclic_span(CTX73.atlas.idempotent(1, 0), CTX73)
    assert C.k == 6 and is_cyclic(C)
    d, exact = min_distance(C)
    assert (d, exact) == (5, True)
    assert is_self_orthogonal(C) and not is_self_dual(C)


def test_cyclic_span_degenerate():
    Z = cyclic_span(CTX73.ring.zero(), CTX73)
    assert Z.k == 0
    O = cyclic_span(CTX73.ring.one(), CTX73)
    assert O.k == 7  # the F_q-span of all positions' unit vectors


def test_is_cyclic():
    assert is_cyclic(AdditiveCode.zero(CTX73))
    assert is_cyclic(AdditiveCode.full(CTX73))
    v = [1, CTX73.field_qt.generator, 0, 0, 0, 0, 0]
    assert not is_cyclic(codes.code_from_vectors([v], CTX73))


def test_is_cyclic_is_proved_once_per_code(monkeypatch):
    """cyclic_span and min_distance both ask; the code keeps the answer."""
    C = cyclic_span(refdata.row_for(3, 7).generator, CTX73)
    N = codes.code_from_vectors([[1, 2, 0, 0, 0, 0, 0]], CTX73)
    assert is_cyclic(C) and not is_cyclic(N)
    monkeypatch.setattr(AdditiveCode, "contains_expansion",
                        lambda *args: pytest.fail("cyclicity proved twice"))
    assert is_cyclic(C) and not is_cyclic(N)
    assert min_distance(C) == (refdata.row_for(3, 7).d, True)


def test_dual_reference():
    C = cyclic_span(CTX73.atlas.idempotent(1, 0), CTX73)
    D = dual_delta(C)
    assert D.k == 14 - 6
    assert C.is_subspace_of(D)
    assert dual_delta(AdditiveCode.zero(CTX73)) == AdditiveCode.full(CTX73)


@pytest.mark.parametrize("n,q", [(7, 3), (5, 2), (3, 5)])
def test_dual_dims_and_double_dual(n, q):
    ctx = context(n, q, 2, paper=True)
    rng = random.Random(10 * n + q)
    for _ in range(100):
        C = rand_code(ctx, rng)
        D = dual_delta(C)
        assert C.k + D.k == 2 * n
        assert dual_delta(D) == C


def test_dual_of_cyclic_is_cyclic():
    rng = random.Random(8)
    for _ in range(25):
        C = rand_cyclic_code(CTX73, rng)
        assert is_cyclic(C)
        assert is_cyclic(dual_delta(C))


def test_decompose_reference():
    C = cyclic_span(CTX73.atlas.idempotent(1, 0), CTX73)
    dec = codes.decompose(C)
    assert dec.k_over_K == [0, 1]
    F = AdditiveCode.full(CTX73)
    assert codes.decompose(F).k_over_K == [2, 2]
    Z = AdditiveCode.zero(CTX73)
    assert codes.decompose(Z).k_over_K == [0, 0]
    v = [1, CTX73.field_qt.generator, 0, 0, 0, 0, 0]
    with pytest.raises(NotCyclicError):
        codes.decompose(codes.code_from_vectors([v], CTX73))


def test_dual_component_dimension_identity():
    # K_i-dims of C_i and of (dual C)_mu(i) sum to t = 2 on cyclic codes
    rng = random.Random(12)
    tab = CTX73.atlas.table
    for _ in range(20):
        C = rand_cyclic_code(CTX73, rng)
        D = dual_delta(C)
        kc = codes.decompose(C).k_over_K
        kd = codes.decompose(D).k_over_K
        for i in range(tab.num_classes):
            assert kc[i] + kd[tab.mu[i]] == 2


def test_min_distance_repetition():
    rep = codes.code_from_vectors([[1] * 7], CTX73)
    assert min_distance(rep) == (7, True)


def test_min_distance_reference_rows():
    row = refdata.row_for(2, 11)
    ctx = context(11, 2, 2, paper=True)
    C = cyclic_span(row.generator, ctx)
    assert min_distance(C) == (6, True)


def test_min_distance_budget_one_bounds_the_exact_d():
    rng = random.Random(3)
    for _ in range(10):
        C = rand_code(CTX73, rng, rows=rng.randrange(2, 7))
        d_exact, flag = min_distance(C)
        assert flag
        cert = codes.distance_certificate(C, budget=1)
        assert cert.lb <= d_exact <= cert.ub
        assert min_distance(C, budget=1) == (cert.ub, cert.exact)


def brute_force_distance(code):
    """Minimum weight over every nonzero F_q-combination of the basis (prime q)."""
    ctx = code.ctx
    q, k = ctx.q, code.k
    coeffs = np.indices((q,) * k).reshape(k, -1).T[1:]
    words = (coeffs @ code.basis_exp) % q
    return int(words.reshape(len(words), ctx.n, ctx.t).any(axis=2).sum(axis=1).min())


@pytest.mark.parametrize("q", [131, 257])
def test_min_distance_wide_prime_matches_brute_force(q):
    # digit sums reach 2(q-1) > 255 here, beyond a uint8 digit
    ctx = context(3, q, 2)
    rng = np.random.default_rng(q)
    for _ in range(12):
        C = codes.code_from_vectors(rng.integers(0, q * q, size=(2, 3)).tolist(), ctx)
        want = brute_force_distance(C)
        assert min_distance(C) == (want, True)
        cert = codes.distance_certificate(C, budget=1)
        assert cert.lb <= want <= cert.ub and (cert.ub == want or not cert.exact)


def test_min_distance_empty():
    with pytest.raises(EmptyCodeError):
        min_distance(AdditiveCode.zero(CTX73))


def test_orthogonality_predicates():
    Z = AdditiveCode.zero(CTX73)
    assert is_self_orthogonal(Z) and not is_self_dual(Z)
    # a self-dual code from the classification: dimension must be 7
    sd = next(iter(classify.enumerate_codes(7, 3, "sd", CTX73)))
    assert sd.k == 7
    assert is_self_dual(sd)
    assert dual_delta(sd) == sd


def test_componentwise_orthogonality_matches_global():
    # C is self-orthogonal iff every component lands inside the matching
    # component of the dual
    rng = random.Random(21)
    for _ in range(40):
        C = rand_cyclic_code(CTX73, rng)
        D = dual_delta(C)
        comp_c = codes.decompose(C).components
        comp_d = codes.decompose(D).components
        componentwise = all(cc.is_subspace_of(dd) for cc, dd in zip(comp_c, comp_d))
        assert componentwise == is_self_orthogonal(C)
        if is_self_dual(C):
            assert all(cc == dd for cc, dd in zip(comp_c, comp_d))


def test_code_record_shape():
    C = cyclic_span(CTX73.atlas.idempotent(1, 0), CTX73)
    d, exact = codes.min_distance(C)
    rec = codes.code_record(C, d=d, d_exact=exact, d_lb=d)
    assert rec["n"] == 7 and rec["q"] == 3 and rec["t"] == 2
    assert rec["k_fq"] == 6 and rec["cardinality_log"] == 6
    assert rec["d"] == 5 and rec["d_exact"] is True and rec["d_lb"] == 5
    assert rec["self_orthogonal"] and not rec["self_dual"] and rec["cyclic"]
    assert len(rec["basis"]) == 6 and len(rec["basis"][0]) == 7
    text = codes.generator_matrix_text(C)
    assert len(text.splitlines()) == 6


def test_membership_api():
    C = cyclic_span(CTX73.atlas.idempotent(1, 0), CTX73)
    e10 = CTX73.atlas.idempotent(1, 0)
    assert C.contains(e10)
    assert C.contains(e10.shift(3))
    assert not C.contains(CTX73.ring.one())
