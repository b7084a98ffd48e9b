"""Vectorised field kernels against scalar references.

On every pair of elements of each listed field of order at most 2^9 (prime
fields and extension fields on both sides of ``gf.CAYLEY_LIMIT``),
``Field.vadd``, ``vsub``, ``vneg`` and ``vmul`` equal ``Field.add``, ``sub``,
``neg`` and ``mul``.  ``Field.vsub``, ``linalg.matmul`` (of matrices and of
stacks), ``DeltaContext.gram_apply`` and the group-algebra product are
checked element by element against ``Field.add`` / ``Field.mul`` and a
schoolbook cyclic convolution, over prime fields, extension fields of each
digit count up to four, and GF(2^8), GF(251), GF(257) and GF(17^2) on both
sides of ``gf.CAYLEY_LIMIT``.  ``linalg.inverse`` is checked against a
brute-force kernel search.  ``linalg.rref_batch``, the package's one row
reduction, and ``linalg.rref``, a stack of one through it, are checked
against a plain Gauss-Jordan on Python integers through ``Field.inv`` /
``mul`` / ``sub`` (on Cayley tables, on the digit kernel, and on integers
mod p in each integer dtype, above ``gf.TABLE_LIMIT`` too, with the refusal
past int64).  ``Field.vmul``/``vsub`` into buffers on uint8 operands are checked
against the unbuffered result, ``linalg.nullspace`` of a stack against each
of its matrices and their reference ranks, ``linalg.in_row_space`` /
``reduce_vector`` on stacks against the reference rank criterion and the
per-pivot elimination loop, and the prime-field products of ``matmul`` and
``Field.vmul`` at the largest p they take against Python integers, with
their refusal past it, and the digit-kernel ``vmul`` of extension fields at
its int64 edges.  The package's one square-and-multiply and one power
doubling (``gf._square_and_multiply``, ``gf._doubling``) are checked against
one product per factor on the digit rows of one modulus, on stacks with one
modulus per row, and on group-algebra rows from a non-unit identity.  On two
fields between the eager limit and ``gf.TABLE_LIMIT``, no vector operation
builds discrete-log tables.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcyc import gf, linalg
from addcyc.bilinear import DeltaContext
from addcyc.errors import InvalidParameterError, TooLargeError
from addcyc.ring import cyclic_ring
from addcyc.structure import build_atlas

FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (7, 2), (3, 4), (5, 4), (2, 8),
          (251, 1), (257, 1), (17, 2)]
IDS = [f"GF({p ** m})" for p, m in FIELDS]

KERNEL = settings(max_examples=15, deadline=None)


def elems(f, shape):
    """Strategy for int64 arrays of elements of ``f`` with the given shape."""
    size = int(np.prod(shape))
    return st.lists(st.integers(0, f.order - 1), min_size=size, max_size=size).map(
        lambda v: np.array(v, dtype=np.int64).reshape(shape))


def shapes(max_rows=5, max_cols=5):
    return st.tuples(st.integers(0, max_rows), st.integers(1, max_cols))


def scalar_sum(f, values):
    acc = 0
    for v in values:
        acc = f.add(acc, int(v))
    return acc


def scalar_matmul(f, A, B):
    return np.array([[scalar_sum(f, (f.mul(int(A[i, k]), int(B[k, j]))
                                     for k in range(A.shape[1])))
                      for j in range(B.shape[1])] for i in range(A.shape[0])],
                    dtype=np.int64).reshape(A.shape[0], B.shape[1])


def reference_rref(f, mat):
    """(R, pivots) of an (r, c) matrix by Gauss-Jordan a column at a time,
    on Python integers through the scalar ``Field.inv``/``mul``/``sub``;
    zero rows at the bottom."""
    R = np.asarray(mat, dtype=np.int64).tolist()
    pivots = []
    for col in range(np.shape(mat)[1]):
        top = len(pivots)
        below = [i for i in range(top, len(R)) if R[i][col]]
        if not below:
            continue
        R[top], R[below[0]] = R[below[0]], R[top]
        inv = f.inv(R[top][col])
        R[top] = [f.mul(inv, x) for x in R[top]]
        for i, row in enumerate(R):
            if i != top and row[col]:
                R[i] = [f.sub(x, f.mul(row[col], y)) for x, y in zip(row, R[top])]
        pivots.append(col)
    return np.array(R, dtype=np.int64).reshape(np.shape(mat)), pivots


def reference_rank(f, mat):
    return len(reference_rref(f, mat)[1])


SMALL = [(p, m) for p, m in FIELDS if p ** m <= 1 << 9]


@pytest.mark.parametrize("p, m", SMALL, ids=[f"GF({p ** m})" for p, m in SMALL])
def test_vector_ops_match_scalar_ops_on_every_pair(p, m):
    f = gf.field(p, m)
    a, b = (g.ravel() for g in np.meshgrid(np.arange(f.order), np.arange(f.order)))
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.vsub(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
    assert f.vmul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
    assert f.vneg(a).tolist() == [f.neg(x) for x in a.tolist()]
    for got in (f.vadd(a, b), f.vsub(a, b), f.vmul(a, b), f.vneg(a)):
        assert got.dtype == np.int64


@pytest.mark.parametrize("p, m", [(5, 2), (251, 1), (2, 8)], ids=["GF(25)", "GF(251)", "GF(256)"])
def test_buffered_gathers_take_uint8_operands(p, m):
    """vmul and vsub into ``out``/``index`` buffers, with every pair of
    operands in the field's own uint8 ``vdtype``, equal the unbuffered
    int64 results (a uint8 index a * order + b would wrap)."""
    f = gf.field(p, m)
    assert f.vdtype == np.uint8
    a, b = (g.astype(np.uint8) for g in np.meshgrid(np.arange(f.order), np.arange(f.order)))
    for op in (f.vmul, f.vsub):
        out, index = np.empty(a.shape, dtype=f.vdtype), np.empty(a.shape, dtype=np.intp)
        got = op(a, b, out=out, index=index)
        assert got is out
        assert got.tolist() == op(a.astype(np.int64), b.astype(np.int64)).tolist()


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_vsub_inverts_add(p, m, data):
    f = gf.field(p, m)
    shape = data.draw(shapes())
    a, b = data.draw(elems(f, shape)), data.draw(elems(f, shape))
    d = f.vsub(a, b)
    assert d.shape == a.shape
    assert all(f.add(int(x), int(y)) == int(z)
               for x, y, z in zip(d.ravel(), b.ravel(), a.ravel()))
    assert f.vneg(a).tolist() == f.vsub(np.zeros_like(a), a).tolist()


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_matmul_matches_scalar(p, m, data):
    f = gf.field(p, m)
    rows, inner = data.draw(shapes())
    A = data.draw(elems(f, (rows, inner)))
    B = data.draw(elems(f, (inner, data.draw(st.integers(1, 5)))))
    assert linalg.matmul(f, A, B).tolist() == scalar_matmul(f, A, B).tolist()
    # a stack of pairs multiplies pairwise
    stack = data.draw(st.integers(0, 3))
    As = data.draw(elems(f, (stack,) + A.shape))
    Bs = data.draw(elems(f, (stack,) + B.shape))
    got = linalg.matmul(f, As, Bs)
    assert got.shape == (stack, A.shape[0], B.shape[1])
    assert [g.tolist() for g in got] == [scalar_matmul(f, a, b).tolist() for a, b in zip(As, Bs)]


def test_prime_field_products_up_to_the_int64_edge():
    """At the largest p whose sums of k products below p^2 int64 holds,
    ``matmul`` (here the ring product, k = n = 3) and ``vmul`` (k = 1) equal
    Python integers; at a larger p they raise TooLargeError rather than
    wrap."""
    p = 1753413037  # the largest prime with 3 (p-1)^2 < 2^63
    assert 3 * (p - 1) ** 2 < 2 ** 63 <= 3 * (2147483647 - 1) ** 2
    x = [p - 1, p - 2, p - 3]
    a = cyclic_ring(gf.field(p), 3).element(x)
    square = a * a
    assert list(square.coeffs) == [sum(x[i] * x[(k - i) % 3] for i in range(3)) % p
                                   for k in range(3)]
    big = cyclic_ring(gf.field(2147483647), 3).element([2147483646, 2147483645, 2147483644])
    with pytest.raises(TooLargeError):
        big * big
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63
    a = [p - 1, p - 2, p - 3, 12345678901 % p]
    assert gf.field(p).vmul(np.array(a)[:, None], np.array(a)).tolist() == [
        [x * y % p for y in a] for x in a]
    with pytest.raises(TooLargeError):
        gf.field(4294967311).vmul(4294967309, 4294967308)


def test_extension_field_products_up_to_the_int64_edge():
    """Over GF(p^m), m > 1, above the Cayley tables ``vmul`` is the digit
    kernel: equal to the scalar product where its digit sums, below
    2m(p-1)^2, and the elements fit int64 (GF(2^63), and GF(p^2) at the
    largest such p), and a TooLargeError past either edge (GF(2^64), and
    GF(p^2) at the next prime)."""
    p = 1518500213  # the largest prime with 4 (p-1)^2 < 2^63
    assert 4 * (p - 1) ** 2 < 2 ** 63 <= 4 * (1518500279 - 1) ** 2
    for f in (gf.field(2, 63), gf.field(p, 2)):
        a = [f.order - 1, f.order - 2, f.generator, 12345678901 % f.order]
        assert f.vmul(np.array(a)[:, None], np.array(a)).tolist() == [
            [f.mul(x, y) for y in a] for x in a]
    for f in (gf.field(2, 64), gf.field(1518500279, 2)):
        with pytest.raises(TooLargeError):
            f.vmul(3, 5)


@pytest.mark.parametrize("p", [46349, 1048583, 3037000493])
def test_prime_field_powers_without_tables(p):
    """``vpow`` on a prime field above the Cayley tables (above the eager
    limit, and above TABLE_LIMIT) equals ``pow`` on Python integers, with
    0^e = 0, and builds no discrete-log table; past the int64 edge it
    raises TooLargeError."""
    f = gf.Field(p, 1, gf.field(p).modulus)
    a = np.array([0, 1, 2, p - 1, p - 2, 12345678901 % p])
    for e in (-1, 0, 1, 2, p - 2, 3 * p + 5):
        want = [0] + [pow(int(x), e % (p - 1), p) for x in a[1:]]
        assert f.vpow(a, e).tolist() == want and f._exp is None
    with pytest.raises(TooLargeError):
        gf.field(4294967311).vpow(4294967309, -1)


def test_matmul_matches_scalar_on_a_seeded_pair():
    """A seeded 7 x 4 by 4 x 3 product over GF(9) is the scalar product."""
    f = gf.field(3, 2)
    rng = np.random.default_rng(5)
    A = rng.integers(0, f.order, size=(7, 4))
    B = rng.integers(0, f.order, size=(4, 3))
    assert linalg.matmul(f, A, B).tolist() == scalar_matmul(f, A, B).tolist()


RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (131, 1), (257, 1), (3, 6),
               (46349, 1), (1048583, 1)]


@st.composite
def rref_stacks(draw, f):
    """(m, r, c) stacks with rank-deficient, all-zero members and zero
    columns."""
    m = draw(st.integers(0, 4))
    r = draw(st.integers(1, 5))
    c = draw(st.integers(1, 8))
    S = draw(elems(f, (m, r, c)))
    for b in range(m):
        if draw(st.integers(0, 5)) == 0:
            S[b] = 0
            continue
        if r > 1 and draw(st.booleans()):
            # the last row a combination of the others
            S[b, -1] = scalar_matmul(f, draw(elems(f, (1, r - 1))), S[b, :-1])[0]
        if draw(st.booleans()):
            S[b, :, draw(st.integers(0, c - 1))] = 0
    return S


@pytest.mark.parametrize("p, m", RREF_FIELDS, ids=[f"GF({p ** m})" for p, m in RREF_FIELDS])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_batch_matches_rref(p, m, data):
    """Each reduced matrix is byte-identical to the reference RREF, with its
    rank, and so is ``rref`` of it, with its pivots; a small chunk splits
    the stack into many blocks."""
    f = gf.field(p, m)
    S = data.draw(rref_stacks(f))
    chunk = data.draw(st.sampled_from([linalg.RREF_BLOCK, 1, 2 * S[0].size if len(S) else 1]))
    before = S.copy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "RREF_BLOCK", chunk)
        R, ranks = linalg.rref_batch(f, S)
    assert R.shape == S.shape and R.dtype == np.int64 and ranks.shape == (len(S),)
    assert (S == before).all()
    for b in range(len(S)):
        want, pivots = reference_rref(f, S[b])
        assert R[b].tobytes() == want.tobytes()
        assert ranks[b] == len(pivots)
        one, one_pivots = linalg.rref(f, S[b])
        assert one.tobytes() == want.tobytes() and one_pivots == pivots


#: (p, r, dtype): r * (p-1)^2 + p at the top of each integer dtype of a
#: prime-field block of r rows, and just past it
DTYPE_EDGES = [(7, 3, np.int8), (7, 4, np.int16), (181, 1, np.int16), (61, 10, np.int32),
               (16381, 8, np.int32), (16381, 9, np.int64), (46349, 1, np.int64)]


@pytest.mark.parametrize("p, r, dtype", DTYPE_EDGES,
                         ids=[f"GF({p})-r{r}" for p, r, _ in DTYPE_EDGES])
def test_rref_batch_at_the_dtype_edges(p, r, dtype):
    """A prime-field block takes the narrowest integer dtype that holds
    r*(p-1)^2 + p, and dense seeded stacks reduced in it, whole and split
    into one-matrix blocks, equal the reference RREF."""
    f = gf.field(p)
    assert linalg._block_dtype(f, r) == dtype
    rng = np.random.default_rng(p + r)
    S = rng.integers(0, p, size=(40, r, r + 3))
    S[::4] = (p - 1) * rng.integers(0, 2, size=(10, r, r + 3))
    if r > 1:
        # every fourth matrix rank-deficient: its last row a combination
        S[1::4, -1] = linalg.matmul(f, rng.integers(0, p, size=(10, 1, r - 1)), S[1::4, :-1])[:, 0]
    want = [reference_rref(f, M) for M in S]
    for block in (linalg.RREF_BLOCK, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "RREF_BLOCK", block)
            R, ranks = linalg.rref_batch(f, S)
        assert [M.tobytes() for M in R] == [w.tobytes() for w, _ in want]
        assert ranks.tolist() == [len(pivots) for _, pivots in want]


def test_rref_batch_refuses_what_int64_cannot_hold():
    """Where r*(p-1)^2 + p reaches 2^63 the kernel raises TooLargeError
    rather than wrap, and so do ``rref`` and ``rank``, which run on it; one
    row of the same field still reduces."""
    p = 2147483659  # the least prime above 2^31
    f = gf.field(p)
    S = np.array([[[0, p - 1, 5]], [[p - 2, 3, 0]]], dtype=np.int64)
    R, ranks = linalg.rref_batch(f, S)
    assert [M.tolist() for M in R] == [reference_rref(f, M)[0].tolist() for M in S]
    assert ranks.tolist() == [1, 1]
    assert linalg.rank(f, S[0]) == 1
    with pytest.raises(TooLargeError):
        linalg.rref_batch(f, np.concatenate([S, S], axis=1))
    with pytest.raises(TooLargeError):
        linalg.rank(f, S[:, 0])


@pytest.mark.parametrize("p, m", RREF_FIELDS, ids=[f"GF({p ** m})" for p, m in RREF_FIELDS])
@KERNEL
@given(data=st.data())
def test_nullspace_of_a_stack(p, m, data):
    """For each matrix of a stack, and for it alone, the nonzero rows of its
    null space are c - rank independent vectors that it maps to zero."""
    f = gf.field(p, m)
    S = data.draw(rref_stacks(f))
    null = linalg.nullspace(f, S)
    assert null.shape == (len(S),) + (S.shape[2],) * 2
    for M, Z in zip(S, null):
        assert linalg.nullspace(f, M).tolist() == Z.tolist()
        basis = Z[Z.any(axis=1)]
        assert len(basis) == S.shape[2] - reference_rank(f, M)
        assert not len(basis) or reference_rank(f, basis) == len(basis)
        assert not scalar_matmul(f, M, basis.T).any()


def reference_reduce_vector(f, R, pivots, v):
    """Elimination against the RREF rows R one pivot at a time."""
    v = np.array(v, dtype=np.int64)
    for r, pc in enumerate(pivots):
        c = int(v[pc])
        if c:
            v = f.vsub(v, f.vmul(np.int64(c), R[r]))
    return v


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_membership_of_a_stack(p, m, data):
    """For RREF rows R of every rank from zero rows to full, in_row_space on
    a stack is the rank criterion rank([R; v]) == rank(R) row by row, and
    reduce_vector is the per-pivot loop, on the stack and on one vector."""
    f = gf.field(p, m)
    c = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, c))
    # k RREF rows on k pivot columns drawn anywhere
    pivots = sorted(data.draw(st.sets(st.integers(0, c - 1), min_size=k, max_size=k)))
    R = data.draw(elems(f, (k, c)))
    for r, pc in enumerate(pivots):
        R[r, :pc] = 0
    R[:, pivots] = np.eye(k, dtype=np.int64)
    assert reference_rref(f, R)[1] == pivots
    V = data.draw(elems(f, (data.draw(st.integers(1, 6)), c)))
    # every other row a combination of the rows of R
    V[::2] = linalg.matmul(f, data.draw(elems(f, (len(V), k))), R)[::2]
    want = [reference_rank(f, np.vstack([R, v])) == k for v in V]
    assert linalg.in_row_space(f, R, V).tolist() == want
    assert [bool(linalg.in_row_space(f, R, v)) for v in V] == want
    reference = [reference_reduce_vector(f, R, pivots, v).tolist() for v in V]
    assert linalg.reduce_vector(f, R, V).tolist() == reference
    assert linalg.reduce_vector(f, R, V[0]).tolist() == reference[0]


def has_kernel_vector(f, A):
    """Brute force over F^n: is A x = 0 for some nonzero x?"""
    n = A.shape[1]
    return any(any(x) and not scalar_matmul(f, A, np.array(x).reshape(n, 1)).any()
               for x in itertools.product(range(f.order), repeat=n))


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (3, 2)],
                         ids=["GF(2)", "GF(3)", "GF(4)", "GF(9)"])
@KERNEL
@given(data=st.data())
def test_inverse_matches_brute_force(p, m, data):
    f = gf.field(p, m)
    n = data.draw(st.integers(1, 3))
    A = data.draw(elems(f, (n, n)))
    if n > 1 and data.draw(st.booleans()):
        # force a singular matrix: the last row a combination of the others
        A[-1] = scalar_matmul(f, data.draw(elems(f, (1, n - 1))), A[:-1])[0]
    inv = linalg.inverse(f, A)
    if has_kernel_vector(f, A):
        assert inv is None
    else:
        identity = np.eye(n, dtype=np.int64).tolist()
        assert linalg.matmul(f, A, inv).tolist() == identity
        assert linalg.matmul(f, inv, A).tolist() == identity


def test_inverse_rejects_non_square():
    with pytest.raises(InvalidParameterError):
        linalg.inverse(gf.field(3), np.ones((2, 3), dtype=np.int64))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 2)])
def test_rref_of_empty_and_zero_matrices(shape):
    """A matrix with no rows, no columns or no nonzero entry has no pivots."""
    f = gf.field(3)
    R, pivots = linalg.rref(f, np.zeros(shape, dtype=np.int64))
    assert R.shape == shape and not R.any() and pivots == []
    assert linalg.inverse(f, np.zeros((0, 0), dtype=np.int64)).shape == (0, 0)


def gram_host(f, t):
    # gram_apply reads only the field and t; skipping the coordinate tables
    # keeps GF(625)^2 (390,625 elements) cheap
    ctx = DeltaContext.__new__(DeltaContext)
    ctx.field_q, ctx.t = f, t
    return ctx


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_gram_apply_matches_scalar(p, m, data):
    f = gf.field(p, m)
    t = data.draw(st.sampled_from([2, 4]))
    npos = data.draw(st.integers(1, 3))
    G = data.draw(elems(f, (t, t)))
    rows = data.draw(st.integers(0, 4))
    B = data.draw(elems(f, (rows, npos * t)))
    got = gram_host(f, t).gram_apply(B, G)
    assert got.shape == B.shape
    for r in range(rows):
        for j in range(npos):
            block = B[r, j * t:(j + 1) * t].reshape(1, t)
            assert got[r, j * t:(j + 1) * t].tolist() == scalar_matmul(f, block, G)[0].tolist()


def test_gram_apply_on_a_context_uses_its_gram_block():
    ctx = DeltaContext(3, 4, 2)
    A = np.random.default_rng(2).integers(0, 4, size=(3, 6))
    for got, G in ((ctx.gram_apply(A), ctx.gram_block), (ctx.gram_apply_t(A), ctx.gram_block.T)):
        want = scalar_matmul(ctx.field_q, A.reshape(-1, 2), G).reshape(3, 6)
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_ring_product_matches_schoolbook(p, m, data):
    """Products of a stack of rows by one element and by a stack of
    elements (the circulant product) and of two elements."""
    f = gf.field(p, m)
    n = data.draw(st.integers(1, 7))
    R = cyclic_ring(f, n)
    rows = data.draw(elems(f, (data.draw(st.integers(0, 5)), n)))
    a = data.draw(elems(f, (n,))).tolist()
    b = data.draw(elems(f, (n,))).tolist()

    stack = data.draw(elems(f, rows.shape))

    def schoolbook(x, b=b):
        return [scalar_sum(f, (f.mul(int(x[i]), int(b[(k - i) % n])) for i in range(n)))
                for k in range(n)]

    got = R.mul_rows(rows, b)
    got_stack = R.mul_rows(rows[:, None], stack)[:, 0]
    assert got.shape == got_stack.shape == rows.shape
    assert got.tolist() == [schoolbook(x) for x in rows]
    assert got_stack.tolist() == [schoolbook(x, y) for x, y in zip(rows, stack)]
    assert list((R.element(a) * R.element(b)).coeffs) == schoolbook(a)
    diff = R.element(a) - R.element(b)
    assert [f.add(x, y) for x, y in zip(diff.coeffs, b)] == a


@pytest.mark.parametrize("p, m", FIELDS, ids=IDS)
@KERNEL
@given(data=st.data())
def test_ring_powers_match_repeated_products(p, m, data):
    """The shared square-and-multiply of ``CyclicRing.pow_rows`` against one
    ring product per factor, inside the subring of an arbitrary identity."""
    f = gf.field(p, m)
    n = data.draw(st.integers(1, 5))
    R = cyclic_ring(f, n)
    rows = data.draw(elems(f, (data.draw(st.integers(1, 4)), n)))
    identity = R.element(data.draw(elems(f, (n,))).tolist())
    exps = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=4))
    got = R.pow_rows(rows, exps, identity.coeffs)
    assert got.shape == (len(rows), len(exps), n)
    for a, row in enumerate(rows):
        for k, e in enumerate(exps):
            want = identity
            for _ in range(e):
                want = want * R.element(row.tolist())
            assert got[a, k].tolist() == list(want.coeffs)
            assert R.element(row.tolist()).pow_with_identity(e, identity) == want


# unsorted and repeated, with 0 and 1; and the counts of the doubling, 1 included
POWER_EXPONENTS = [5, 0, 1, 13, 2, 5, 8, 1, 0, 31]
POWER_COUNTS = [1, 2, 3, 8, 9, 17]


def one_by_one(prod, first, base, exponents):
    """first * base^e for each e in ``exponents``, one product per factor."""
    out = []
    for e in exponents:
        acc = first
        for _ in range(e):
            acc = prod(acc, base)
        out.append(acc)
    return np.array(out)


def check_power_helpers(mul, prod, one, first, base):
    """gf._square_and_multiply(base, ...) from ``one`` and gf._doubling(first,
    base, ...), on rows (w,) or on a stack of rows (B, w), against one
    product per factor: ``prod(x, y, b)`` multiplies one row by one row of
    stack entry b (of entry 0 without a stack), and ``mul`` is the stacked
    product that the helpers take."""
    w, K = base.shape[-1], len(POWER_EXPONENTS)
    got = gf._square_and_multiply(base, POWER_EXPONENTS, one, mul)
    assert got.shape == base.shape[:-1] + (K, w)
    doubled = [gf._doubling(first, base, count, mul) for count in POWER_COUNTS]
    assert [r.shape for r in doubled] == [first.shape[:-1] + (c, w) for c in POWER_COUNTS]
    starts = np.broadcast_to(one, base.shape).reshape(-1, w)
    for b, (x, y) in enumerate(zip(first.reshape(-1, w), base.reshape(-1, w))):
        def prod_b(u, v, b=b):
            return prod(u, v, b)

        want = one_by_one(prod_b, starts[b], y, POWER_EXPONENTS)
        assert got.reshape(-1, K, w)[b].tolist() == want.tolist()
        for count, rows in zip(POWER_COUNTS, doubled):
            want = one_by_one(prod_b, x, y, range(count))
            assert rows.reshape(-1, count, w)[b].tolist() == want.tolist()


@pytest.mark.parametrize("p, m", [(2, 1), (7, 1), (2, 5), (3, 4), (17, 2), (1021, 2)])
def test_power_helpers_on_digit_rows_of_one_modulus(p, m):
    """Digit rows over one field's modulus, with the product that
    ``_powmod`` and ``_power_rows`` pass, against one product per factor;
    ``_powmod`` against ``Field.pow``."""
    f = gf.field(p, m)
    red = f._red
    rng = np.random.default_rng(p * m)
    a, first = (f._digits(int(v)) for v in rng.integers(1, f.order, 2))
    one = f._digits(1)
    check_power_helpers(lambda rows, b: gf._mulmod(rows, b, red, p),
                        lambda x, y, _: gf._mulmod(x, y, red, p), one, first, a)
    assert gf._power_rows(a, 9, red, p).tolist() == one_by_one(
        lambda x, y: gf._mulmod(x, y, red, p), one, a, range(9)).tolist()
    for e in POWER_EXPONENTS:
        assert f.encode(gf._powmod(a, e, red, p)) == f.pow(f.encode(a), e)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 6), (3, 4), (5, 3), (13, 2)])
def test_power_helpers_on_modulus_stacks(p, m):
    """One monic modulus per row, as in the order test of a batch of
    candidates: the helpers on row blocks (B, r, m) by rows (B, m), each
    reduced by its own modulus, against one product per factor by that
    modulus alone; and the matrices of multiplication by x^d that
    ``_x_power_matrices`` forms from them, for d below and above m, alone
    and in the Frobenius pass, which forms x^p in the same square-and-
    multiply."""
    rng = np.random.default_rng(10 * p + m)
    low = rng.integers(0, p, (5, m))
    red = gf._reductions(low, p)
    base, first = rng.integers(0, p, (2, 5, m))
    check_power_helpers(lambda rows, b: gf._mulmod(rows, b[:, None], red[:, None], p),
                        lambda x, y, b: gf._mulmod(x, y, red[b], p),
                        np.eye(1, m, dtype=np.int64), first, base)
    ds = [0, m - 1, m, m + 2, 3 * m + 1, 40]
    E, x, _, _, merged = gf._frobenius(low, p, ds)
    mats = gf._x_power_matrices(ds, E, x, p)
    for b in range(len(low)):
        powers = one_by_one(lambda u, v: gf._mulmod(u, v, red[b], p),
                            np.eye(1, m, dtype=np.int64)[0], x[b], range(ds[-1] + m))
        want = [powers[d:d + m].tolist() for d in ds]
        assert mats[b].tolist() == merged[b].tolist() == want


@pytest.mark.parametrize("n, q, i", [(7, 2, 1), (5, 3, 1), (13, 3, 2)])
def test_power_helpers_on_group_algebra_rows(n, q, i):
    """Group-algebra rows through ``CyclicRing.mul_rows``, by one element
    and by a stack of elements, from the identity e_{i,0} of a minimal
    ideal, which is not the ring's one: the helpers and ``pow_rows`` against
    one ring product per factor."""
    atlas = build_atlas(n, q, 2)
    R, e = atlas.ring, np.array(atlas.idempotent(i, 0).coeffs)
    assert e.tolist() != list(R.one().coeffs)
    rng = np.random.default_rng(n * q)
    base = R.mul_rows(rng.integers(0, R.field.order, (4, n)), e)
    first = R.mul_rows(rng.integers(0, R.field.order, (4, n)), e)

    def prod(x, y, _):
        return np.array((R.element(x.tolist()) * R.element(y.tolist())).coeffs)

    check_power_helpers(R.mul_rows, prod, e, first, base)
    check_power_helpers(R.mul_rows, prod, e, first[0], base[0])
    assert (R.pow_rows(base, POWER_EXPONENTS, e)
            == gf._square_and_multiply(base, POWER_EXPONENTS, e, R.mul_rows)).all()


@pytest.mark.parametrize("p, m", [(2, 13), (17, 4)], ids=["GF(2^13)", "GF(17^4)"])
def test_vector_ops_build_no_discrete_log_tables(p, m):
    """On fields above the eager limit and below TABLE_LIMIT, where a lazy
    build of discrete-log tables would still succeed, ``vmul``, ``vpow``,
    ``linalg.matmul``, ``rref_batch`` and a ring product agree with the
    scalar references and leave the field without those tables."""
    f = gf.Field(p, m, gf.field(p, m).modulus)  # a fresh object: no earlier test built tables
    assert gf.EAGER_TABLE_LIMIT < f.order <= gf.TABLE_LIMIT and f._exp is None
    rng = np.random.default_rng(7)
    A, B = rng.integers(0, f.order, size=(3, 4)), rng.integers(0, f.order, size=(4, 5))
    A[0, 0] = B[1, 2] = 0
    assert f.vmul(A[:, :1], A).tolist() == [[f.mul(int(x[0]), int(y)) for y in x] for x in A]
    assert f.vpow(A, -1).tolist() == [[f.inv(int(x)) if x else 0 for x in row] for row in A]
    assert linalg.matmul(f, A, B).tolist() == scalar_matmul(f, A, B).tolist()
    R, ranks = linalg.rref_batch(f, np.stack([A, A[::-1]]))
    want = reference_rref(f, A)
    assert R[0].tolist() == want[0].tolist() and ranks.tolist() == [len(want[1])] * 2
    ring = cyclic_ring(f, 4)
    a, b = ring.element(A[1].tolist()), ring.element(B[:, 0].tolist())
    assert list((a * b).coeffs) == [
        scalar_sum(f, (f.mul(int(A[1, i]), int(B[(k - i) % 4, 0])) for i in range(4)))
        for k in range(4)]
    assert f._exp is None
