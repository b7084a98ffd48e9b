"""Exact linear algebra over a Field, vectorised with numpy.

Matrices are 2-D int64 arrays of field encodings.  Row reduction, null
spaces and membership tests all go through the field's table-backed vector
operations, so the same code path serves prime fields and extension
fields.  :func:`rref` reduces one matrix; :func:`rref_batch` reduces a stack
of same-shape matrices by Gauss-Jordan by rows, one vectorised step per row
of the stack, and sorts each matrix's rows by pivot column at the end; it is
the routine for callers that hold many matrices at once.  :func:`matmul` is
the package's one sum of products: the group-algebra product
(:meth:`ring.CyclicRing.mul_rows`, a product by a circulant), the Gram
products and the component subspaces of the classification all run on it.
Over a prime field it is an integer matmul reduced mod p; over GF(p^m),
m > 1, it is one integer matmul in F_p coordinates (the regular
representation of GF(p^m) by m x m matrices over F_p), reduced mod p.
:func:`nullspace` reads the null spaces of a whole stack off one
:func:`rref_batch`; :func:`in_row_space` tests a stack of vectors by one
:func:`matmul`, with the pivots read off the RREF rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidParameterError

if TYPE_CHECKING:
    from .gf import Field


def rref(f: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (R, pivot_columns).

    Zero rows are kept at the bottom of R; the nonzero rows are the canonical
    basis of the row space (unique per subspace).
    """
    R = np.array(mat, dtype=np.int64)
    if R.size == 0:
        return R, []
    nrows, ncols = R.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(R[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            R[[row, piv]] = R[[piv, row]]
        inv = f.inv(int(R[row, col]))
        if inv != 1:
            R[row] = f.vmul(R[row], np.int64(inv))
        coef = R[:, col].copy()
        coef[row] = 0
        mask = coef != 0
        if mask.any():
            R[mask] = f.vsub(R[mask], f.vmul(coef[mask, None], R[row][None, :]))
        pivots.append(col)
        row += 1
    return R, pivots


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


#: elements of one block of :func:`rref_batch` (128 KB of int64).  The steps
#: of a block work in two buffers of this size, made once per call; when each
#: step made several temporaries, 2^18 raised the peak memory of the batched
#: classification by 7-10 %.
MATMUL_CHUNK = 1 << 14


def matmul(f: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact A @ B over the field, for two matrices or for two stacks of m
    matrices, (m, r, k) and (m, k, c), multiplied pairwise.

    This is the package's one sum of products.  Over GF(p^m), m > 1, it is
    one integer product in F_p coordinates: the base-p digits of A, (.., r,
    k*m), times the F_p-expansion of B, (.., k*m, c*m), whose (l, j) block is
    the multiplication matrix of B[l, j] (row i: the digits of
    x^i * B[l, j], from one ``vmul`` of B by x^0, ..., x^(m-1)); the result
    is reduced mod p and encoded.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    p, m = f.p, f.m
    if m == 1:
        # entries < p <= 2^20 and desk-scale shapes keep int64 exact
        return (A @ B) % p
    pows = p ** np.arange(m, dtype=np.int64)  # x^0, ..., x^(m-1), encoded
    k, c = B.shape[-2:]
    digits = f.vdigits(A).reshape(A.shape[:-1] + (k * m,))
    E = np.swapaxes(f.vdigits(f.vmul(B[..., None], pows)), -3, -2)  # (.., k, i, c, digit)
    out = digits @ E.reshape(B.shape[:-2] + (k * m, c * m)) % p
    return out.reshape(A.shape[:-1] + (c, m)) @ pows


def rref_batch(f: Field, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of an (m, r, c) stack.

    Returns (R, ranks): R[b] is byte-identical to ``rref(f, stack[b])[0]``
    (zero rows at the bottom) and ranks[b] is its number of pivots.  The
    stack is reduced by rows, in blocks of at most ``MATMUL_CHUNK`` elements
    (:func:`_rref_block`), and each block's rows are sorted by pivot column
    at the end.  The field must be table-backed (pivots are inverted through
    ``Field.vpow``).
    """
    R = np.array(stack, dtype=np.int64)
    m, r, c = R.shape
    ranks = np.zeros(m, dtype=np.int64)
    if R.size == 0:
        return R, ranks
    step = max(1, MATMUL_CHUNK // (r * c))
    # the block-sized arrays of every step, made once: the products and the
    # index of the field's gathers
    prod = np.empty((min(step, m), r, c), dtype=f.vdtype)
    index = np.empty(prod.shape, dtype=np.intp)
    for s in range(0, m, step):
        block = R[s:s + step]
        ranks[s:s + step] = _rref_block(f, block, prod[:len(block)], index[:len(block)])
    return R, ranks


def _rref_block(f: Field, R: np.ndarray, prod: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Row-reduce the (m, r, c) block R in place, by rows; returns the ranks.

    Step i scales row i, already reduced against the earlier pivots, to a
    leading 1 (a zero row stays zero, as vpow(0, -1) = 0) and clears that
    column in every other row: the products go to ``prod`` and the
    differences back into R, through the gather buffer ``index``.  A pivot
    row stays zero left of its pivot, so one stable sort by pivot column,
    zero rows last, gives the RREF.
    """
    m, r, c = R.shape
    at = np.arange(m)
    for i in range(r):
        row = R[:, i]
        col = (row != 0).argmax(axis=1)
        pivot = f.vmul(f.vpow(row[at, col], -1)[:, None], row)
        coef = R[at, :, col]
        coef[:, i] = 0
        f.vmul(coef[:, :, None], pivot[:, None, :], out=prod, index=index)
        R[:] = f.vsub(R, prod, out=prod, index=index)
        R[:, i] = pivot
    nonzero = R.any(axis=2)
    lead = np.where(nonzero, (R != 0).argmax(axis=2), c)
    # row k moves to its place in the sort, through the product buffer
    prod[...] = R
    R[at[:, None], np.argsort(np.argsort(lead, axis=1, kind="stable"), axis=1)] = prod
    return nonzero.sum(axis=1)


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


def solve(f: Field, A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b, or None when inconsistent."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64).reshape(-1, 1)
    aug = np.concatenate([A, b], axis=1)
    R, pivots = rref(f, aug)
    ncols = A.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for r, pc in enumerate(pivots):
        x[pc] = R[r, ncols]
    return x
