"""F_q-linear codes over GF(q^t): subspaces of GF(q^t)^n closed under F_q.

A code is stored as the reduced row echelon form, over F_q, of its basis in
the tn-coordinate expansion (position-major, then basis component).  The
canonical form makes equality, hashing and set semantics exact.  Duality is
computed against the twisted trace form of the ambient DeltaContext; minimum
Hamming distance is exhaustive (meet-in-the-middle over the prime subfield)
up to a word budget and a seeded random-sampling upper bound beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .bilinear import DeltaContext
from .errors import (
    EmptyCodeError,
    FieldMismatchError,
    NotCyclicError,
)
from .ring import GroupAlgebraElement
from . import gf

#: exhaustive scan cap (codewords); above it min_distance samples instead
EXHAUSTIVE_BUDGET = 1 << 28
#: default number of random codewords for the sampled upper bound
SAMPLE_COUNT = 10_000_000
SAMPLE_SEED = 0


class AdditiveCode:
    """An F_q-linear subspace of GF(q^t)^n in canonical form."""

    __slots__ = ("ctx", "basis_exp", "pivots", "_d", "_d_exact")

    def __init__(self, ctx: DeltaContext, basis_exp: np.ndarray, pivots):
        self.ctx = ctx
        self.basis_exp = basis_exp
        self.basis_exp.setflags(write=False)
        self.pivots = tuple(pivots)
        self._d = None
        self._d_exact = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_expansion(cls, ctx: DeltaContext, rows) -> "AdditiveCode":
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, ctx.n * ctx.t)
        R, pivots = linalg.rref(ctx.field_q, rows)
        return cls(ctx, R[: len(pivots)], pivots)

    @classmethod
    def from_vectors(cls, ctx: DeltaContext, vectors) -> "AdditiveCode":
        """Build from GF(q^t) symbol vectors (ring elements, rows, or token strings)."""
        rows = []
        for v in vectors:
            if isinstance(v, GroupAlgebraElement):
                if v.ring.field is not ctx.field_qt:
                    raise FieldMismatchError("vector over a different field")
                rows.append(v.coeffs)
            elif isinstance(v, str):
                rows.append([gf.parse_element(ctx.field_qt, tok) for tok in v.split(",")])
            else:
                rows.append([int(c) for c in v])
        if not rows:
            return cls.from_expansion(ctx, np.zeros((0, ctx.n * ctx.t), dtype=np.int64))
        sym = np.array(rows, dtype=np.int64)
        if sym.shape[1] != ctx.n:
            raise FieldMismatchError(f"vectors must have length {ctx.n}")
        return cls.from_expansion(ctx, ctx.expand(sym))

    @classmethod
    def zero(cls, ctx: DeltaContext) -> "AdditiveCode":
        return cls.from_expansion(ctx, np.zeros((0, ctx.n * ctx.t), dtype=np.int64))

    @classmethod
    def full(cls, ctx: DeltaContext) -> "AdditiveCode":
        return cls.from_expansion(ctx, np.eye(ctx.n * ctx.t, dtype=np.int64))

    # -- basic queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ctx.n

    @property
    def k(self) -> int:
        """F_q-dimension; the cardinality is q^k."""
        return self.basis_exp.shape[0]

    def basis_symbols(self) -> np.ndarray:
        """Basis rows as GF(q^t) symbol vectors (k x n)."""
        if self.k == 0:
            return np.zeros((0, self.n), dtype=np.int64)
        return self.ctx.compress(self.basis_exp)

    def basis_elements(self) -> list[GroupAlgebraElement]:
        return [self.ctx.ring.element(row) for row in self.basis_symbols()]

    def contains_expansion(self, v) -> bool:
        return linalg.in_row_space(self.ctx.field_q, self.basis_exp, self.pivots, v)

    def contains(self, v) -> bool:
        if isinstance(v, GroupAlgebraElement):
            v = v.coeffs
        v_exp = self.ctx.expand(np.asarray(v, dtype=np.int64))
        return self.contains_expansion(v_exp)

    def is_subspace_of(self, other: "AdditiveCode") -> bool:
        return all(other.contains_expansion(row) for row in self.basis_exp)

    def __eq__(self, other):
        return (isinstance(other, AdditiveCode) and self.ctx is other.ctx
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        """Canonical hashable identity of the subspace."""
        return (self.basis_exp.shape, self.basis_exp.tobytes())

    def __repr__(self):
        return f"AdditiveCode(n={self.n}, q={self.ctx.q}, t={self.ctx.t}, k={self.k})"


@dataclass
class CodeDecomposition:
    """Componentwise view C = sum of C_i with C_i = C cap J_i (cyclic codes)."""

    components: list[AdditiveCode]
    k_over_K: list[int]


# ---------------------------------------------------------------------------
# construction and structural operations
# ---------------------------------------------------------------------------

def code_from_vectors(vectors, ctx: DeltaContext) -> AdditiveCode:
    return AdditiveCode.from_vectors(ctx, vectors)


def cyclic_span(g, ctx: DeltaContext) -> AdditiveCode:
    """The smallest cyclic F_q-linear code containing g: the span of its shifts."""
    if isinstance(g, str):
        g = ctx.ring.from_tokens(g)
    if not isinstance(g, GroupAlgebraElement):
        g = ctx.ring.element(g)
    rows = [g.shift(k) for k in range(ctx.n)]
    code = AdditiveCode.from_vectors(ctx, rows)
    assert is_cyclic(code)
    return code


def is_cyclic(code: AdditiveCode) -> bool:
    sym = code.basis_symbols()
    shifted = np.roll(sym, 1, axis=1)
    if code.k == 0:
        return True
    exp = code.ctx.expand(shifted)
    return all(code.contains_expansion(row) for row in exp)


def dual_delta(code: AdditiveCode, ctx: DeltaContext | None = None) -> AdditiveCode:
    """The dual code under the twisted trace form; dim C + dim dual = t*n."""
    ctx = ctx or code.ctx
    if code.k == 0:
        return AdditiveCode.full(ctx)
    M = ctx.gram_apply(code.basis_exp)
    null = linalg.nullspace(ctx.field_q, M)
    dual = AdditiveCode.from_expansion(ctx, null)
    assert code.k + dual.k == ctx.t * ctx.n, "non-degeneracy must force complementary dims"
    return dual


def is_self_orthogonal(code: AdditiveCode, ctx: DeltaContext | None = None) -> bool:
    ctx = ctx or code.ctx
    if code.k == 0:
        return True
    return not ctx.pair_matrix(code.basis_exp, code.basis_exp).any()


def is_self_dual(code: AdditiveCode, ctx: DeltaContext | None = None) -> bool:
    ctx = ctx or code.ctx
    return 2 * code.k == ctx.t * ctx.n and is_self_orthogonal(code, ctx)


def decompose(code: AdditiveCode, ctx: DeltaContext | None = None) -> CodeDecomposition:
    """Split a cyclic code into its components C_i = C * (J_i identity)."""
    ctx = ctx or code.ctx
    if not is_cyclic(code):
        raise NotCyclicError("decomposition requires a cyclic code")
    atlas = ctx.atlas
    tab = atlas.table
    comps, kks = [], []
    for i in range(tab.num_classes):
        f_i = atlas.j_idempotent(i)
        rows = [ctx.ring.element(row) * f_i for row in code.basis_symbols()]
        comp = AdditiveCode.from_vectors(ctx, rows)
        assert all(code.contains(r) for r in comp.basis_elements())
        di = tab.d[i]  # F_q-dimension of K_i
        assert comp.k % di == 0, "component dimension must be a K_i multiple"
        comps.append(comp)
        kks.append(comp.k // di)
    assert sum(c.k for c in comps) == code.k, "components must sum to the code"
    return CodeDecomposition(comps, kks)


# ---------------------------------------------------------------------------
# minimum distance
# ---------------------------------------------------------------------------

def _prime_generator_digits(code: AdditiveCode) -> np.ndarray:
    """F_p generator matrix of the code, as per-position digit blocks.

    Rows: basis rows scaled by each F_p-basis element of F_q.  Columns:
    n * (e*t) base-p digits, position-major.
    """
    ctx = code.ctx
    fqt = ctx.field_qt
    sym = code.basis_symbols()
    rows = []
    for u in range(ctx.e):
        w_u = ctx.embed_scalar(ctx.field_q.encode([0] * u + [1]))
        scaled = fqt.vmul(np.int64(w_u), sym)
        rows.append(scaled)
    stacked = np.concatenate(rows, axis=0) if rows else sym
    p = ctx.p
    met = fqt.m
    digs = np.stack([(stacked // p ** i) % p for i in range(met)], axis=2)
    return digs.reshape(stacked.shape[0], -1).astype(_digit_dtype(p))


def _digit_dtype(p: int) -> np.dtype:
    """Smallest unsigned dtype that holds the sum of two digits mod p, 2(p-1)."""
    return np.min_scalar_type(2 * (p - 1))


def _weights(block: np.ndarray, n: int, met: int) -> np.ndarray:
    """Hamming weights (nonzero GF(q^t) symbols) of digit-matrix rows."""
    resh = block.reshape(block.shape[:-1] + (n, met))
    nz = resh[..., 0] != 0 if met == 1 else resh.max(axis=-1) != 0
    return nz.sum(axis=-1)


def _span_table(rows_fp: np.ndarray, p: int) -> np.ndarray:
    """All p^k combinations of the given digit rows (mod p)."""
    table = np.zeros((1, rows_fp.shape[1]), dtype=rows_fp.dtype)
    for row in rows_fp:
        stacked = [table]
        cur = table
        for _ in range(p - 1):
            cur = (cur + row) % p
            stacked.append(cur)
        table = np.concatenate(stacked, axis=0)
    return table


def min_distance(code: AdditiveCode, *, budget: int = EXHAUSTIVE_BUDGET,
                 samples: int = SAMPLE_COUNT, seed: int = SAMPLE_SEED) -> tuple[int, bool]:
    """Minimum Hamming distance; returns (d, exact_flag).

    Exhaustive (exact) when the code has at most ``budget`` words, via a
    meet-in-the-middle scan over the prime-subfield span; otherwise a seeded
    random-combination upper bound flagged exact=False.
    """
    ctx = code.ctx
    if code.k == 0:
        raise EmptyCodeError("the zero code has no minimum distance")
    rows_fp = _prime_generator_digits(code)
    p = ctx.p
    k_p = rows_fp.shape[0]
    met = ctx.field_qt.m
    n = ctx.n
    if p ** k_p <= budget:
        k1 = k_p // 2
        table_a = _span_table(rows_fp[:k1], p)
        table_b = _span_table(rows_fp[k1:], p)
        best = n + 1
        # block the outer table so each broadcast add stays a few MB
        blk = max(1, (1 << 23) // max(table_b.shape[0] * rows_fp.shape[1], 1))
        for s in range(0, table_a.shape[0], blk):
            chunk = (table_a[s:s + blk, None, :] + table_b[None, :, :]) % p
            w = _weights(chunk, n, met)
            nz = w[w > 0]
            if nz.size:
                best = min(best, int(nz.min()))
        return best, True
    rng = np.random.default_rng(seed)
    # float64 holds every dot product exactly: (p-1)^2 * k_p < 2^53 for each p
    # the field tables admit
    gen = rows_fp.astype(np.float64)
    best = n + 1
    chunk = 1 << 18
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        coeffs = rng.integers(0, p, size=(take, k_p), dtype=rows_fp.dtype)
        words = (coeffs.astype(np.float64) @ gen).astype(np.int64) % p
        w = _weights(words, n, met)
        nz = w[w > 0]
        if nz.size:
            best = min(best, int(nz.min()))
        done += take
    return best, False


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def generator_matrix_text(code: AdditiveCode) -> str:
    fqt = code.ctx.field_qt
    lines = []
    for row in code.basis_symbols():
        lines.append(" ".join(gf.format_element(fqt, int(c)) for c in row))
    return "\n".join(lines)


def code_record(code: AdditiveCode, *, d: int | None = None,
                d_exact: bool | None = None) -> dict:
    ctx = code.ctx
    if d is None and code._d is not None:
        d, d_exact = code._d, code._d_exact
    rec = {
        "n": ctx.n,
        "q": ctx.q,
        "t": ctx.t,
        "k_fq": code.k,
        "cardinality_log": code.k,  # |C| = q^k_fq
        "d": d,
        "d_exact": d_exact,
        "basis": [[gf.format_element(ctx.field_qt, int(c)) for c in row]
                  for row in code.basis_symbols()],
        "self_orthogonal": is_self_orthogonal(code),
        "self_dual": is_self_dual(code),
        "cyclic": is_cyclic(code),
    }
    return rec


def cached_min_distance(code: AdditiveCode, **kw) -> tuple[int, bool]:
    if code._d is None:
        d, exact = min_distance(code, **kw)
        code._d, code._d_exact = d, exact
    return code._d, code._d_exact
