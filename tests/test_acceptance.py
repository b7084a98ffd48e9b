"""Acceptance suite: the binding checks of the deliverable.

Every entry of the reference-check registry (``verify.reference_checks``,
the same checks ``verify-paper`` runs) is one test case, which must PASS
within its time bound.  The registry checks the factorisation and
idempotents of the worked q = 3, n = 7 example, both of its counts, the
showcase code, every good-code row and a cross-check at (3, 2).  The worked
example's published case list gives 58 self-orthogonal / 28 self-dual codes;
the complete count is 87 / 56, which the brute-force oracle, covering all
4392 cyclic codes through its block tests, must reach with exactly the codes of
`enumerate_codes(complete=True)`.  The 29 / 28 extra codes are checked
isotropic through the defining trace sum (`delta_inner`), not through the
Gram matrix the oracle uses.  The property suites run separately below.
"""

import random
import time

import numpy as np
import pytest

from addcyc import classify, codes, gf, linalg, verify
from addcyc.bilinear import context, delta_form, delta_inner, \
    component_split_check, module_law_check

PROPERTY_INSTANCES = [(3, 2), (5, 2), (7, 3), (5, 3), (7, 5), (3, 5)]

CHECKS = verify.reference_checks()
#: seconds a check may take; a good-code row not listed here has 120 s
TIME_LIMITS = {"factorisation": 1.0, "idempotents": 1.0, "counts": 60.0,
               "oracle": 60.0, "showcase": 5.0, "row-q3-n19": 600.0,
               "cross-check": 1.0}


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def rand_vec(ctx, rng):
    return ctx.ring.element(rng.randrange(ctx.field_qt.order) for _ in range(ctx.n))


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.key)
def test_reference_check(check):
    result = check()
    limit = TIME_LIMITS.get(check.key, 120.0)
    report(check.key, result.passed and result.seconds < limit,
           f"{result.name}: {result.detail} in {result.seconds:.2f}s")
    assert result.passed, result.detail
    assert result.seconds < limit


def test_c7_property_suites():
    t0 = time.perf_counter()
    for (n, q) in PROPERTY_INSTANCES:
        ctx = context(n, q, 2, paper=True)
        fqt = ctx.field_qt
        rng = random.Random(1000 * n + q)

        # conjugate-sum bijection, exhaustive over the field
        images = {gf.psi(a, fqt, q) for a in fqt.elements()}
        assert len(images) == fqt.order
        for a in fqt.elements():
            assert gf.psi_inverse(gf.psi(a, fqt, q), fqt, q) == a

        # scalar-form bilinearity and F_q-valuedness, 1000 random triples
        for _ in range(1000):
            a, b, c = (rand_vec(ctx, rng) for _ in range(3))
            ab = delta_inner(a, b, ctx)
            assert delta_inner(a, b + c, ctx) == ctx.field_q.add(ab, delta_inner(a, c, ctx))
            assert delta_inner(a + b, c, ctx) == ctx.field_q.add(
                delta_inner(a, c, ctx), delta_inner(b, c, ctx))
            lam = rng.randrange(q)
            assert delta_inner(a.scale(lam), b, ctx) == ctx.field_q.mul(lam, ab)
            emb = ctx.embed_scalar(ab)
            assert fqt.pow(emb, q) == emb  # value lies in F_q

        # non-degeneracy: full-rank Gram matrix plus constructive witnesses
        tn = 2 * n
        assert linalg.rank(ctx.field_q, ctx.gram_apply(np.eye(tn, dtype=np.int64))) == tn
        for _ in range(25):
            a = rand_vec(ctx, rng)
            if a.is_zero():
                continue
            j = next(i for i, cc in enumerate(a.coeffs) if cc)
            hit = False
            for dval in range(1, fqt.order):
                vec = [0] * n
                vec[j] = dval
                if delta_inner(a, ctx.ring.element(vec), ctx) != 0:
                    hit = True
                    break
            assert hit

        # algebra form vs scalar form: coefficient identity, 500 pairs, all k
        for _ in range(500):
            a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
            form = delta_form(a, b, ctx)
            for k in range(n):
                assert form.coeffs[k] == delta_inner(a, b.shift(k), ctx)

        # module laws, 200 random (f, a, b)
        for _ in range(200):
            f = ctx.ring_q.element(rng.randrange(q) for _ in range(n))
            assert module_law_check(f, rand_vec(ctx, rng), rand_vec(ctx, rng), ctx)

        # component splitting, 200 random pairs
        for _ in range(200):
            assert component_split_check(rand_vec(ctx, rng), rand_vec(ctx, rng), ctx)

        # duality dimension identity on all enumerated codes
        tab = ctx.atlas.table
        for C in classify.enumerate_codes(n, q, "so", ctx):
            D = codes.dual_delta(C)
            kc = codes.decompose(C).k_over_K
            kd = codes.decompose(D).k_over_K
            assert all(kc[i] + kd[tab.mu[i]] == 2 for i in range(tab.num_classes))

        # idempotent laws, exhaustive per atlas
        items = sorted(ctx.atlas.idempotents.items())
        total = ctx.ring.zero()
        for (ij, e) in items:
            assert e * e == e
            total = total + e
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                assert (items[x][1] * items[y][1]).is_zero()
        assert total == ctx.ring.one()

        # automorphism law, 200 random pairs
        for _ in range(200):
            a, b = rand_vec(ctx, rng), rand_vec(ctx, rng)
            for (w, u) in [(q, 1), (1, -1)]:
                assert (a * b).tau(w, u) == a.tau(w, u) * b.tau(w, u)

        # dual dimensions on 100 random codes
        for _ in range(100):
            rows = [[rng.randrange(fqt.order) for _ in range(n)]
                    for _ in range(rng.randrange(1, 2 * n))]
            C = codes.code_from_vectors(rows, ctx)
            assert C.k + codes.dual_delta(C).k == 2 * n
    elapsed = time.perf_counter() - t0
    report(7, True, f"property suites on {PROPERTY_INSTANCES} in {elapsed:.0f}s")
