"""Minimum distance certificates against an independent brute force.

The brute force lists every nonzero F_q-combination of the canonical basis
(``linalg.matmul`` over F_q, so non-prime q is covered) and reads a GF(q^t)
symbol as nonzero when any of its t coordinates is.  It shares nothing with
the information-set enumeration, which works on base-p digits of the F_p
generator.  Cyclic codes are spans of a(X) * (X^n - 1) / m(X) for a small
product m of F_q-factors; non-cyclic codes are spans of sparse random rows.
A plain loop over the enumeration's words, in its order, pins what the
table kernel must reproduce: the same lightest word first and the same
count of words formed.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcyc import codes, linalg, polyring, refdata
from addcyc.bilinear import context
from addcyc.errors import InvalidParameterError, TooLargeError

PRIMES = [2, 3, 5, 7, 131, 257]
PRIME_POWERS = [4, 8, 9, 25]
#: a q whose GF(q^2) has no tables; WORDS keeps its codes at k_fq = 1
WIDE_Q = 65537
#: most codewords the brute force lists (prime q, then non-prime q)
WORDS = {True: 70_000, False: 5_000}


def lengths(q):
    cands = (2, 3) if q > 100 else (2, 3, 4, 5, 6, 7, 9)
    return [n for n in cands if math.gcd(n, q) == 1]


def brute_force_weights(code):
    """Weights of every nonzero codeword, from the F_q basis."""
    ctx = code.ctx
    k = code.k
    coeffs = np.indices((ctx.q,) * k).reshape(k, -1).T[1:]
    words = linalg.matmul(ctx.field_q, coeffs, code.basis_exp)
    return words.reshape(len(words), ctx.n, ctx.t).any(axis=2).sum(axis=1)


def weight(symbols):
    return sum(1 for s in symbols if s)


def cyclic_case(ctx, rng, limit):
    """Cyclic span of a(X) * (X^n - 1) / m(X), q^(t deg m) <= limit.  Where
    no factor fits (q^t > limit), m = X - 1: the span of a(1) times the
    all-ones word, k_fq <= 1, formed without a product in GF(q^t)."""
    factors = [f for f, _ in polyring.factor_xn_minus_1(ctx.n, ctx.field_q)]
    rng.shuffle(factors)
    m_deg, rest = 0, []
    for f in factors:
        if ctx.q ** (ctx.t * (m_deg + f.degree)) <= limit:
            m_deg += f.degree
        else:
            rest.append(f)
    if m_deg == 0:
        return codes.cyclic_span([int(rng.integers(0, ctx.field_qt.order))] * ctx.n, ctx)
    h = polyring.Poly.one(ctx.field_q)
    for f in rest:
        h = h * f
    lifted = ctx.lift_to_big_ring(ctx.ring_q.element(
        list(h.coeffs) + [0] * (ctx.n - len(h.coeffs))))
    a = ctx.ring.element(rng.integers(0, ctx.field_qt.order, size=ctx.n).tolist())
    return codes.cyclic_span(a * lifted, ctx)


def random_case(ctx, rng, limit):
    """F_q-span of sparse random rows; at most log_q(limit) rows."""
    rows = max(1, min(int(math.log(limit, ctx.q)), rng.integers(1, 2 * ctx.n)))
    mat = rng.integers(0, ctx.field_qt.order, size=(rows, ctx.n))
    mat[rng.random(mat.shape) < 0.4] = 0
    return codes.code_from_vectors(mat.tolist(), ctx)


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from(PRIMES + PRIME_POWERS + [WIDE_Q]), cyclic=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_certificate_matches_brute_force(q, cyclic, seed, data):
    n = data.draw(st.sampled_from(lengths(q)))
    ctx = context(n, q, 2)
    rng = np.random.default_rng(seed)
    limit = WORDS[ctx.e == 1]
    C = (cyclic_case if cyclic else random_case)(ctx, rng, limit)
    if C.k == 0:
        return
    if ctx.e == 1:
        # the F_p generator the certificate reads is the code's own basis
        assert codes._prime_generator_digits(C).tolist() == C.basis_exp.tolist()
    weights = brute_force_weights(C)
    d = int(weights.min())
    cert = codes.distance_certificate(C, budget=q ** C.k)
    assert (cert.ub, cert.exact) == (d, True)
    # the per-level counts predict the words formed from above, and below q^k
    info = codes._InformationSet(C)
    predicted = sum(info.counts)
    assert cert.words_examined <= predicted < q ** C.k
    assert codes.distance_certificate(C, budget=predicted + 1) == cert
    assert codes.distance_certificate(C) == cert
    assert cert.method == codes.INFO_SETS
    assert C.contains(list(cert.witness)) and weight(cert.witness) == d
    # one word per F_p* class at most
    assert 0 < cert.words_examined <= len(weights) // (ctx.p - 1)
    assert codes.min_distance(C) == (d, True)
    # budgets at every level boundary: the levels the budget lets run bound
    # d from below, the lightest word seen bounds it from above
    through = list(itertools.accumulate(info.counts))
    for budget in sorted({1} | {c + delta for c in through for delta in (-1, 0, 1)}):
        part = codes.distance_certificate(C, budget=budget)
        assert part.lb <= d <= part.ub, budget
        assert C.contains(list(part.witness)) and weight(part.witness) == part.ub
        assert part.exact == (part.lb == part.ub)
        assert not part.exact or part.ub == d
        # level 1 always runs; a later level only within the budget
        assert part.words_examined < max(budget, info.counts[0] + 1)


def row_code(q, n, permuted=False):
    """The table code of (q, n), or a column permutation of it, which is
    not cyclic but has the same d."""
    ctx = context(n, q, 2, paper=True)
    C = codes.cyclic_span(refdata.row_for(q, n).generator, ctx)
    if permuted:
        perm = np.random.default_rng(1).permutation(n)
        C = codes.code_from_vectors(C.basis_symbols()[:, perm], ctx)
    return C


@pytest.mark.parametrize("q, n", [(2, 19), (3, 7)])
def test_non_cyclic_code_is_enumerated_without_the_shift_bound(q, n):
    row = refdata.row_for(q, n)
    C, P = row_code(q, n), row_code(q, n, permuted=True)
    assert not codes.is_cyclic(P)
    cyc, non = codes.distance_certificate(C), codes.distance_certificate(P)
    assert (cyc.ub, non.ub, cyc.exact, non.exact) == (row.d, row.d, True, True)
    assert non.words_examined > cyc.words_examined
    assert P.contains(list(non.witness)) and weight(non.witness) == row.d


def test_budget_bounds_an_unproved_row_by_the_levels_it_completed():
    """Level 1 alone already reaches the claimed d of an unproved row, and
    proves d >= bound(1): every word of information weight 1 is seen."""
    row = refdata.row_for(13, 19)
    C = codes.cyclic_span(row.generator, context(19, 13, 2, paper=True))
    info = codes._InformationSet(C)
    cert = codes.distance_certificate(C, budget=1)
    assert (cert.lb, cert.ub, cert.method, cert.exact) == (info.bound(1), 11,
                                                          codes.INFO_SETS, False)
    assert cert.words_examined == info.counts[0]
    assert C.contains(list(cert.witness)) and weight(cert.witness) == 11


def test_default_budget_counts_the_words_formed_not_the_codewords():
    # 13^10 codewords, but the enumeration forms 23,590 words
    row = refdata.row_for(13, 11)
    C = codes.cyclic_span(row.generator, context(11, 13, 2, paper=True))
    assert codes.min_distance(C) == (7, True)
    assert codes.distance_certificate(C).words_examined == 23_590


def test_level_too_large_for_int64_counts_is_refused_only_when_needed(monkeypatch):
    monkeypatch.setattr(codes, "MAX_SUPPORT_WORDS", 1000)
    # (17, 7) stops after information weight 1 (18 words per support)
    row = refdata.row_for(17, 7)
    C = codes.cyclic_span(row.generator, context(7, 17, 2, paper=True))
    assert codes.min_distance(C) == (row.d, True)
    # (13, 11) needs weight 2: 14 * 168 words per support
    row = refdata.row_for(13, 11)
    C = codes.cyclic_span(row.generator, context(11, 13, 2, paper=True))
    with pytest.raises(TooLargeError):
        codes.distance_certificate(C, budget=13 ** C.k)


def test_negative_budget_is_refused():
    C = codes.cyclic_span(refdata.row_for(3, 7).generator, context(7, 3, 2, paper=True))
    with pytest.raises(InvalidParameterError):
        codes.distance_certificate(C, budget=-1)


#: (lb, ub, method, words_examined, witness) of the benchmark's rows and of
#: the permuted (2, 19) and (3, 7) codes, as the float64 product gave them
PINNED = [
    (2, 11, False, (6, 6, codes.INFO_SETS, 105, (1, 0, 0, 0, 0, 1, 3, 3, 0, 2, 2))),
    (2, 19, False, (8, 8, codes.INFO_SETS, 2619,
                    (0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 2, 2, 1, 1, 2, 0))),
    (3, 7, False, (5, 5, codes.INFO_SETS, 12, (1, 0, 0, 1, 5, 2, 6))),
    (5, 7, False, (5, 5, codes.INFO_SETS, 18, (1, 0, 0, 1, 9, 4, 20))),
    (17, 7, False, (5, 5, codes.INFO_SETS, 54, (1, 0, 0, 1, 165, 16, 140))),
    (2, 19, True, (8, 8, codes.INFO_SETS, 183_411,
                   (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3, 1, 3, 1, 1, 0, 3))),
    (3, 7, True, (5, 5, codes.INFO_SETS, 364, (1, 0, 0, 5, 7, 7, 4))),
]


@pytest.mark.parametrize("q, n, permuted, want", PINNED)
def test_certificates_are_pinned(q, n, permuted, want):
    cert = codes.distance_certificate(row_code(q, n, permuted))
    assert (cert.lb, cert.ub, cert.method, cert.words_examined, cert.witness) == want


def reference_certificate(info):
    """(ub, witness, words formed) of the enumeration, from a plain loop.

    Words come support by support (lexicographic), the first block's value
    normalised (highest nonzero digit 1), the last block's value fastest.
    A level is cut into chunks of ``ENUM_CHUNK`` words per batch of
    ``SUPPORT_BATCH`` supports, and stops after the chunk in which ub
    reaches the level's bound.  Each word is its coefficient vector times
    the F_p generator, mod p.
    """
    p, n, met = info.p, info.n, info.met
    blocks = list(zip(info.starts.tolist(), info.sizes.tolist()))

    def digits(v, z):
        return [v // p ** i % p for i in range(z)]

    def leading(v):
        while v >= p:
            v //= p
        return v

    def values(z, normalised):
        return [v for v in range(1, p ** z) if not normalised or leading(v) == 1]

    place = p ** np.arange(met)
    ub, witness, formed = n + 1, None, 0
    for w in range(1, len(blocks) + 1):
        if info.bound(w - 1) >= ub:
            break
        supports = list(itertools.combinations(range(len(blocks)), w))
        for s0 in range(0, len(supports), codes.SUPPORT_BATCH):
            batch = []
            for sup in supports[s0:s0 + codes.SUPPORT_BATCH]:
                choices = [values(blocks[b][1], slot == 0) for slot, b in enumerate(sup)]
                for combo in itertools.product(*choices):
                    coeffs = [0] * len(info.gen)
                    for b, v in zip(sup, combo):
                        start, z = blocks[b]
                        coeffs[start:start + z] = digits(v, z)
                    batch.append(coeffs)
            stop = False
            for c0 in range(0, len(batch), codes.ENUM_CHUNK):
                chunk = np.array(batch[c0:c0 + codes.ENUM_CHUNK]) @ info.gen % p
                symbols = chunk.reshape(len(chunk), n, met) @ place
                weights = (symbols != 0).sum(axis=1)
                formed += len(chunk)
                i = int(weights.argmin())
                if weights[i] < ub:
                    ub, witness = int(weights[i]), tuple(symbols[i].tolist())
                if info.bound(w - 1) >= ub:
                    stop = True
                    break
            if stop:
                break
    return ub, witness, formed


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(PRIMES + PRIME_POWERS), cyclic=st.booleans(),
       chunk=st.sampled_from([1, 2, 3, 8, 50]), batch=st.sampled_from([1, 3, 4096]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_small_chunks_and_split_blocks_keep_the_words_and_their_order(
        q, cyclic, chunk, batch, seed, data):
    """With ENUM_CHUNK small, levels take many chunks, a grid row can be cut
    by a chunk or be longer than one, and blocks whose tables would exceed
    ENUM_CHUNK rows are split into sub-blocks (every block at q = 3, 5, 7,
    131, 257 when ENUM_CHUNK < p^2)."""
    n = data.draw(st.sampled_from(lengths(q)))
    ctx = context(n, q, 2)
    rng = np.random.default_rng(seed)
    C = (cyclic_case if cyclic else random_case)(ctx, rng, max(q ** 2, 2_000))
    if C.k == 0:
        return
    d = int(brute_force_weights(C).min())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "ENUM_CHUNK", chunk)
        mp.setattr(codes, "SUPPORT_BATCH", batch)
        info = codes._InformationSet(C)
        cert = info.certify(codes.EXHAUSTIVE_BUDGET)
        assert (cert.ub, cert.witness, cert.words_examined) == reference_certificate(info)
    assert cert.ub == d


@pytest.mark.parametrize("chunk, batch", [(3, 1), (8, 4096), (50, 3)])
@pytest.mark.parametrize("q, n, permuted", [(2, 11, False), (3, 7, True), (5, 7, True)])
def test_small_chunks_on_deeper_levels(q, n, permuted, chunk, batch, monkeypatch):
    """Codes whose enumeration reaches information weight 3, in many chunks,
    with split blocks at p = 3 and 5 when ENUM_CHUNK < p^2."""
    monkeypatch.setattr(codes, "ENUM_CHUNK", chunk)
    monkeypatch.setattr(codes, "SUPPORT_BATCH", batch)
    info = codes._InformationSet(row_code(q, n, permuted))
    cert = info.certify(codes.EXHAUSTIVE_BUDGET)
    assert (cert.ub, cert.witness, cert.words_examined) == reference_certificate(info)
    assert cert.ub == refdata.row_for(q, n).d
