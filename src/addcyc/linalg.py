"""Exact linear algebra over a Field, vectorised with numpy.

Matrices are 2-D int64 arrays of field encodings.  :func:`rref_batch` is
the package's one row reduction: it reduces a stack of same-shape matrices
by Gauss-Jordan by rows, the batch axis innermost, and sorts each matrix's
rows by pivot column at the end.  :func:`rref` is a stack of one through
it, and :func:`row_space`, :func:`rank` and :func:`inverse` read
:func:`rref`.  Over a prime field the reduction works in machine
integers reduced mod p lazily, with no tables, wherever the lazy sums of r
rows fit int64 (r*(p-1)^2 + p < 2^63); over GF(p^m), m > 1, it goes
through the field's vector operations: Cayley-table gathers up to 2^8
elements, the digit kernel of :mod:`gf` above.  :func:`matmul` is the
package's one sum of products: the group-algebra product
(:meth:`ring.CyclicRing.mul_rows`, a product by a circulant), the Gram
products and the component subspaces of the classification all run on it.  Over a prime field it is an integer matmul
reduced mod p; over GF(p^m), m > 1, it is one integer matmul in F_p
coordinates (the regular representation of GF(p^m) by m x m matrices over
F_p), reduced mod p; where its sums could pass int64 it raises
TooLargeError.  :func:`nullspace` reads the null spaces of a whole stack
off one :func:`rref_batch`; :func:`in_row_space` tests a stack of vectors
by one :func:`matmul`, with the pivots read off the RREF rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError, TooLargeError

if TYPE_CHECKING:
    from .gf import Field


def rref(f: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Zero rows are kept at the bottom of R; the nonzero rows are the canonical
    basis of the row space (unique per subspace).  This is :func:`rref_batch`
    on a stack of one, with the pivots read off the rows.
    """
    R, ranks = rref_batch(f, np.asarray(mat, dtype=np.int64)[None])
    R, rank = R[0], ranks[0]
    return R, (R[:rank] != 0).argmax(axis=1).tolist() if rank else []


def row_space(f: Field, mat: np.ndarray) -> np.ndarray:
    R, pivots = rref(f, mat)
    return R[: len(pivots)]


def rank(f: Field, mat: np.ndarray) -> int:
    return len(rref(f, mat)[1])


def nullspace(f: Field, mat: np.ndarray) -> np.ndarray:
    """Null spaces {v : M v = 0} of a matrix M (r, c), or of every matrix of
    a stack (N, r, c), read off one :func:`rref_batch`.

    Returns a (c, c) matrix, or an (N, c, c) stack: row j is zero when
    column j of the RREF holds a pivot, and otherwise the basis vector of
    free column j (1 at j, minus column j of the RREF at the pivot columns).
    The nonzero rows are a basis of the null space.  With S the square matrix
    whose row at each pivot column is that pivot's RREF row, this is
    (I - S)^T.
    """
    mat = np.asarray(mat, dtype=np.int64)
    N, r, c = (mat if mat.ndim == 3 else mat[None]).shape
    R, ranks = rref_batch(f, mat.reshape(N, r, c))
    S = np.zeros((N, c, c), dtype=np.int64)
    b, k = np.nonzero(np.arange(r)[None, :] < ranks[:, None])
    S[b, (R[b, k] != 0).argmax(axis=1)] = R[b, k]
    null = f.vsub(np.eye(c, dtype=np.int64), S).transpose(0, 2, 1)
    return null if mat.ndim == 3 else null[0]


def reduce_vector(f: Field, R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Residual of v (c,), or of each row of a stack (..., c), after
    elimination against the nonzero RREF rows R: v - v[..., pivots] R, exact
    as the pivot columns of R are unit vectors."""
    v = np.asarray(v, dtype=np.int64)
    pivots = (R != 0).argmax(axis=1)
    return f.vsub(v, matmul(f, v[..., pivots], R))


def in_row_space(f: Field, R: np.ndarray, v) -> np.ndarray:
    """Whether v, or each row of a stack (..., c), lies in the row space of
    the nonzero RREF rows R."""
    return ~reduce_vector(f, R, v).any(axis=-1)


#: elements of one block of :func:`rref_batch`, at most.  A block and its
#: product buffer have this size, in the block's dtype (int8 over F_2 up to
#: 125 rows); the caller's whole stack and its int64 RREF are held besides.
#: With it the oracle workload's peak memory is 0.9 MB above the 41.4 MB of
#: the 2^14-element blocks that held int64.
RREF_BLOCK = 1 << 16


def matmul(f: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact A @ B over the field, for two matrices or for two stacks of m
    matrices, (m, r, k) and (m, k, c), multiplied pairwise.

    This is the package's one sum of products.  Over GF(p^m), m > 1, it is
    one integer product in F_p coordinates: the base-p digits of A, (.., r,
    k*m), times the F_p-expansion of B, (.., k*m, c*m), whose (l, j) block is
    the multiplication matrix of B[l, j] (row i: the digits of
    x^i * B[l, j], from one ``vmul`` of B by x^0, ..., x^(m-1)); the result
    is reduced mod p and encoded.  Where a sum of k*m products below p^2
    could reach 2^63, it raises TooLargeError rather than wrap.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    p, m = f.p, f.m
    k, c = B.shape[-2:]
    if k * m * (p - 1) ** 2 >= 2 ** 63:
        raise TooLargeError(f"a sum of {k * m} products over F_{p} could overflow int64")
    if m == 1:
        return _mod_p(A @ B, p)
    pows = p ** np.arange(m, dtype=np.int64)  # x^0, ..., x^(m-1), encoded
    digits = f.vdigits(A).reshape(A.shape[:-1] + (k * m,))
    E = np.swapaxes(f.vdigits(f.vmul(B[..., None], pows)), -3, -2)  # (.., k, i, c, digit)
    out = _mod_p(digits @ E.reshape(B.shape[:-2] + (k * m, c * m)), p)
    return out.reshape(A.shape[:-1] + (c, m)) @ pows


def rref_batch(f: Field, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of an (N, r, c) stack.

    Returns (R, ranks): R[b] is the int64 RREF of stack[b], zero rows at
    the bottom, and ranks[b] is its number of pivots.  The
    stack is reduced in blocks of at most ``RREF_BLOCK`` elements, each
    copied once into an (r, c, N') array with the batch axis innermost
    (:func:`_rref_block`), so that every step of Gauss-Jordan by rows is a
    few operations along N'.  Each row's leading column is fixed at its own
    step, and one stable sort on it, zero rows last, gives the RREF.  Over a
    prime field the block is integers reduced mod p lazily, for every p that
    int64 can hold; over GF(p^m), m > 1, it goes through the field's
    vector operations, which need no discrete-log tables.
    """
    stack = np.asarray(stack)
    N, r, c = stack.shape
    R = np.empty((N, r, c), dtype=np.int64)
    ranks = np.zeros(N, dtype=np.int64)
    if R.size == 0:
        return R, ranks
    dtype = _block_dtype(f, r)
    step = max(1, RREF_BLOCK // (r * c))
    for s in range(0, N, step):
        part = stack[s:s + step]
        B = np.empty((r, c, len(part)), dtype=dtype)
        B[...] = part.transpose(1, 2, 0)
        lead = _rref_block(f, B)
        order = np.argsort(lead, axis=0, kind="stable")
        R[s:s + step] = B[order, :, np.arange(len(part))].transpose(1, 0, 2)
        ranks[s:s + step] = (lead < c).sum(axis=0)
    return R, ranks


def _block_dtype(f: Field, r: int):
    """The dtype of an :func:`rref_batch` block with r rows: the field's
    ``vdtype`` over GF(p^m), m > 1; over a prime field the narrowest signed
    integer that holds r*(p-1)^2 + p, a bound on every entry of a block
    reduced lazily (see :func:`_rref_block`)."""
    if f.m > 1:
        return f.vdtype
    bound = r * (f.p - 1) ** 2 + f.p
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise TooLargeError(f"row reduction of {r} rows over F_{f.p} could overflow int64")


def _rref_block(f: Field, B: np.ndarray) -> np.ndarray:
    """Row-reduce the (r, c, N) block B in place, the batch axis innermost;
    returns the leading column of each row (r, N), c for a zero row.

    Step i scales row i, already reduced against the earlier pivots, by the
    inverse of its leading entry (``Field.vpow``) to a leading 1 (a zero row
    stays zero; over F_2 the entry is 1 already and nothing is scaled) and
    subtracts its multiples from every other row.  A pivot row stays zero
    left of its pivot and keeps its leading 1 (the later pivot rows are zero
    in its column), so its leading column is the one found at its step.

    Over a prime field only the pivot row and the coefficient column are
    reduced mod p at a step; the other entries take at most r - 1 products
    below p^2 and stay in (-r*(p-1)^2, p), the bound of :func:`_block_dtype`,
    until the one reduction at the end.
    """
    r, c, N = B.shape
    batch = np.arange(N)
    lead = np.empty((r, N), dtype=np.intp)
    prod = np.empty_like(B)
    prime = f.m == 1
    index = None if prime else np.empty(B.shape, dtype=np.intp)
    for i in range(r):
        row = B[i]
        if prime:
            _mod_p(row, f.p, prod[i])
        col = (row != 0).argmax(axis=0)
        # the pivot column of each matrix, as positions in a flat (c, N) row;
        # a take along it keeps the batch axis innermost
        at = col * N + batch
        value = row.reshape(-1).take(at)
        lead[i] = np.where(value != 0, col, c)
        if prime:
            if f.p > 2:               # over F_2 every leading entry is 1 already
                row *= f.vpow(value, -1).astype(B.dtype)
                _mod_p(row, f.p, prod[i])
            coef = _mod_p(B.reshape(r, -1).take(at, axis=1), f.p)
            coef[i] = 0
            np.multiply(coef[:, None], row, out=prod)
            B -= prod
        else:
            row[...] = f.vmul(f.vpow(value, -1), row)
            coef = B.reshape(r, -1).take(at, axis=1)
            coef[i] = 0
            f.vmul(coef[:, None], row, out=prod, index=index)
            f.vsub(B, prod, out=B, index=index)
    if prime:
        _mod_p(B, f.p, prod)
    return lead


def _mod_p(x: np.ndarray, p: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """x mod p in place, returned, as x - (x // p) * p, through ``scratch``
    when given: numpy's integer remainder is far slower than a floor
    division by a constant (520 us against 20 us on 65,400 int32 elements,
    on a 2-core Xeon)."""
    q = np.floor_divide(x, p, out=scratch)
    q *= p
    x -= q
    return x


def inverse(f: Field, A: np.ndarray) -> np.ndarray | None:
    """A^(-1) for a square A, read off the RREF of [A | I]; None when A is singular."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[0]
    if A.shape != (n, n):
        raise InvalidParameterError(f"inverse of a non-square {A.shape} matrix")
    R, pivots = rref(f, np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1))
    if pivots != list(range(n)):
        return None
    return R[:, n:]

