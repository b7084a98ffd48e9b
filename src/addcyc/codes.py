"""F_q-linear codes over GF(q^t): subspaces of GF(q^t)^n closed under F_q.

A code is stored as the nonzero rows of the reduced row echelon form, over
F_q, of its basis in the tn-coordinate expansion (position-major, then basis
component); their pivots are read off the rows.  The canonical form makes
equality, hashing and set semantics exact.  Duality is always computed
against the twisted trace form of the code's own DeltaContext.  The
minimum Hamming distance is certified exactly by Brouwer-Zimmermann
enumeration of one information set by information weight (as extended to
additive codes by White and Grassl), with the cyclic-shift bound on cyclic
codes.  A level runs only while the words formed through it stay below a
budget; a code the budget stops is bounded below by the levels it completed
and above by the lightest word seen.  Each block of the information
set has a table of the symbol rows of its coefficient combinations, built
by one exact integer product.  A word is the field sum of one table row
per block of its support.  Its weight counts the positions where the last
block's row differs from the negated sum of the other rows, for all of the
last block's rows at once.  The enumeration uses no floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import linalg
from .bilinear import DeltaContext
from .errors import (
    EmptyCodeError,
    FieldMismatchError,
    InvalidParameterError,
    NotCyclicError,
    TooLargeError,
)
from .ring import GroupAlgebraElement
from . import gf

#: default cap, in words the information-set enumeration may form: a level
#: past the first runs only if the words formed through it stay below it
EXHAUSTIVE_BUDGET = 1 << 28
#: words per chunk of the information-set enumeration, and the most rows of
#: one sub-block's symbol table
ENUM_CHUNK = 1 << 15
#: support sets drawn at once from one information-weight level
SUPPORT_BATCH = 1 << 12
#: refuse a level whose single support set has more words than this, so the
#: int64 word counts of a batch of SUPPORT_BATCH supports cannot wrap
MAX_SUPPORT_WORDS = 1 << 50
#: DistanceCertificate.method value
INFO_SETS = "information sets"


class AdditiveCode:
    """An F_q-linear subspace of GF(q^t)^n, held as its nonzero RREF rows."""

    __slots__ = ("ctx", "basis_exp", "_cyclic")

    def __init__(self, ctx: DeltaContext, basis_exp: np.ndarray):
        self.ctx = ctx
        self.basis_exp = basis_exp
        self.basis_exp.setflags(write=False)
        self._cyclic = None           # is_cyclic, proved on first use

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_expansion(cls, ctx: DeltaContext, rows) -> "AdditiveCode":
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, ctx.n * ctx.t)
        return cls(ctx, linalg.row_space(ctx.field_q, rows))

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
                rows.append(gf.parse_elements(ctx.field_qt, v))
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
        """Whether v, or every row of a stack v, is in the code."""
        return bool(linalg.in_row_space(self.ctx.field_q, self.basis_exp, v).all())

    def contains(self, v) -> bool:
        if isinstance(v, GroupAlgebraElement):
            v = v.coeffs
        v_exp = self.ctx.expand(np.asarray(v, dtype=np.int64))
        return self.contains_expansion(v_exp)

    def is_subspace_of(self, other: "AdditiveCode") -> bool:
        return other.contains_expansion(self.basis_exp)

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
    """Whether the code is closed under the cyclic shift; computed once per code."""
    if code._cyclic is None:
        code._cyclic = code.k == 0 or code.contains_expansion(
            code.ctx.expand(np.roll(code.basis_symbols(), 1, axis=1)))
    return code._cyclic


def dual_delta(code: AdditiveCode) -> AdditiveCode:
    """The dual code under its own trace form; dim C + dim dual = t*n."""
    ctx = code.ctx
    if code.k == 0:
        return AdditiveCode.full(ctx)
    M = ctx.gram_apply(code.basis_exp)
    null = linalg.nullspace(ctx.field_q, M)
    dual = AdditiveCode.from_expansion(ctx, null)
    assert code.k + dual.k == ctx.t * ctx.n, "non-degeneracy must force complementary dims"
    return dual


def is_self_orthogonal(code: AdditiveCode) -> bool:
    if code.k == 0:
        return True
    return not code.ctx.pair_matrix(code.basis_exp, code.basis_exp).any()


def is_self_dual(code: AdditiveCode) -> bool:
    return 2 * code.k == code.ctx.t * code.n and is_self_orthogonal(code)


def decompose(code: AdditiveCode) -> CodeDecomposition:
    """Split a cyclic code into its components C_i = C * (J_i identity)."""
    ctx = code.ctx
    if not is_cyclic(code):
        raise NotCyclicError("decomposition requires a cyclic code")
    atlas = ctx.atlas
    tab = atlas.table
    comps, kks = [], []
    for i in range(tab.num_classes):
        rows = ctx.ring.mul_rows(code.basis_symbols(), atlas.j_idempotent(i).coeffs)
        comp = AdditiveCode.from_expansion(ctx, ctx.expand(rows))
        assert comp.is_subspace_of(code)
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
    sym = code.basis_symbols()
    # the F_p-basis x^u of F_q, encoded p^u, embedded in GF(q^t)
    w = ctx.embed_scalar(ctx.field_q.p ** np.arange(ctx.e, dtype=np.int64))
    stacked = ctx.field_qt.vmul(w[:, None, None], sym).reshape(-1, sym.shape[-1])
    return ctx.field_qt.vdigits(stacked).reshape(stacked.shape[0], -1)


def _weights(block: np.ndarray, n: int, met: int) -> np.ndarray:
    """Hamming weights (nonzero GF(q^t) symbols) of digit-matrix rows."""
    resh = block.reshape(block.shape[:-1] + (n, met))
    nz = resh[..., 0]
    for i in range(1, met):
        nz = nz | resh[..., i]       # digits are >= 0: OR is 0 iff all are
    return (nz != 0).sum(axis=-1)


@dataclass(frozen=True)
class DistanceCertificate:
    """Evidence for a minimum distance: lb <= d <= ub, and a codeword of weight ub.

    ``witness`` is that codeword as GF(q^t) symbols.  ``words_examined``
    counts the codewords the information-set enumeration formed, one per
    F_p* class.
    """

    lb: int
    ub: int
    witness: tuple[int, ...]
    method: str
    words_examined: int

    @property
    def exact(self) -> bool:
        """True when the bounds meet, so d = lb = ub is proved."""
        return self.lb == self.ub


def _normalised_value(i: np.ndarray, lead: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The i-th nonzero base-p digit vector whose highest nonzero digit is 1.

    Vectors are read as integers; those with leading digit at position j are
    p^j + [0, p^j), indexed from (p^j - 1)/(p - 1) on: ``lead`` and
    ``first`` hold these two for every position a vector may lead at.
    """
    j = np.searchsorted(first, i, side="right") - 1
    return lead[j] + (i - first[j])


class _Blocks(NamedTuple):
    """How the blocks of an information set read their symbol tables.

    Block b's coefficients are the base-p digits of a value v < p^z_b.  Its
    digits are split, low first, into J sub-blocks of at most as many digits
    as keep a table within ``ENUM_CHUNK`` rows (one digit when p alone
    exceeds it); J = 1 when every block fits, and a block with fewer digits
    gets empty sub-blocks, which read the zero row 0.  Row off + u of a
    sub-block's table is the word whose coefficients on its generator rows
    are the digits of u, and v reads row off + v // div % mod.
    """

    taps: int               # digits of the widest sub-block
    norm: np.ndarray        # (s,) normalised nonzero values, (p^z - 1)/(p - 1)
    nonzero: np.ndarray     # (s,) p^z - 1
    lead: np.ndarray        # p^j for j < max z, and
    first: np.ndarray       # (p^j - 1)/(p - 1): see _normalised_value
    off: np.ndarray         # (s, J) first table row of each sub-block
    div: np.ndarray         # (s, J) p^(its lowest digit)
    mod: np.ndarray         # (s, J) p^(its digits), 1 when empty
    row: np.ndarray         # (S,) generator row of each sub-block's lowest digit
    start: np.ndarray       # (S,) its first table row, in table order
    size: int               # table rows in all
    # the last slot's low sub-block spans the columns of a grid row: cols
    # of them from u = c0 (1 when the block is whole, as v = 0 is no word),
    # and high grid rows per value of the other slots
    c0: np.ndarray
    cols: np.ndarray
    high: np.ndarray

    def rows_of(self, b: np.ndarray, v: np.ndarray) -> np.ndarray:
        """(len(v), J) table rows that value v of block b reads."""
        if self.off.shape[1] == 1:
            return (self.off[b, 0] + v)[:, None]
        return self.off[b] + v[:, None] // self.div[b] % self.mod[b]


def _information_weight_level(w: int, blocks: _Blocks):
    """The words of information weight w as sums of table rows, in chunks.

    A word is nonzero on exactly w blocks, and its first nonzero block is
    normalised (leading digit 1), so each F_p* class appears once.  Supports
    come in lexicographic order, and within one the last slot runs fastest.
    A chunk is ``ENUM_CHUNK`` consecutive words of a batch of
    ``SUPPORT_BATCH`` supports, or the rest of the batch.  It is laid out as
    a grid: a grid row fixes the value of every slot but the low sub-block
    of the last slot's, whose table rows are the row's columns.  At w = 1 a
    grid row is one word.

    Yields (terms, last, valid, count): the (P, j) table rows whose sum is
    each grid row's partial word; the block (P,) whose columns each row
    reads, None at w = 1; the (P, K) cells that are words of the chunk, in
    order row by row, None when all are; and the number of words.
    """
    s = len(blocks.norm)
    norm, nonzero = blocks.norm, blocks.nonzero
    if int(norm.max()) * int(nonzero.max()) ** (w - 1) > MAX_SUPPORT_WORDS:
        raise TooLargeError(f"information weight {w} has more than "
                            f"{MAX_SUPPORT_WORDS} words per support")
    K = int(blocks.cols.max())
    ragged = int(blocks.cols.min()) < K      # rows of fewer than K words
    combos = itertools.combinations(range(s), w)
    while True:
        sup = np.array(list(itertools.islice(combos, SUPPORT_BATCH)),
                       dtype=np.int64).reshape(-1, w)
        if not len(sup):
            return
        count = norm[sup[:, 0]]
        for slot in range(1, w):
            count = count * nonzero[sup[:, slot]]
        ends = np.cumsum(count)
        begins = ends - count
        total = int(ends[-1])
        if w == 1:
            for g0 in range(0, total, ENUM_CHUNK):
                g = np.arange(g0, min(g0 + ENUM_CHUNK, total))
                i = np.searchsorted(ends, g, side="right")
                v = _normalised_value(g - begins[i], blocks.lead, blocks.first)
                yield blocks.rows_of(sup[i, 0], v), None, None, len(g)
            continue
        last = sup[:, -1]
        # per support: words per value of the other slots (span), the last
        # block's low sub-block (columns u = c0 .. low - 1), grid rows per
        # value of the other slots (high) and in all (rows)
        span, low, high, c0 = (nonzero[last], blocks.mod[last, 0], blocks.high[last],
                               blocks.c0[last])
        rows = count // span * high
        row_ends = np.cumsum(rows)

        def cell(g):
            """(grid row, column) of the batch's word g."""
            i = int(np.searchsorted(ends, g, side="right"))
            head, v = divmod(g - int(begins[i]), int(span[i]))
            hi, u = divmod(v + 1, int(low[i]))
            return int(row_ends[i] - rows[i]) + head * int(high[i]) + hi, u - int(c0[i])

        for g0 in range(0, total, ENUM_CHUNK):
            g1 = min(g0 + ENUM_CHUNK, total)
            (r0, k0), (r1, k1) = cell(g0), cell(g1 - 1)
            grid = np.arange(r0, r1 + 1)
            i = np.searchsorted(row_ends, grid, side="right")
            head, hi = np.divmod(grid - (row_ends[i] - rows[i]), high[i])
            # the last slot reads its high sub-blocks here, its low one in columns
            terms = [blocks.rows_of(last[i], hi * low[i])[:, 1:]]
            rest = head
            for slot in range(w - 2, 0, -1):
                b = sup[i, slot]
                terms.append(blocks.rows_of(b, rest % nonzero[b] + 1))
                rest = rest // nonzero[b]
            v = _normalised_value(rest, blocks.lead, blocks.first)
            terms.append(blocks.rows_of(sup[i, 0], v))
            valid = None
            if ragged or k0 > 0 or k1 < K - 1:
                k = np.arange(K)
                word = (begins[i] + head * span[i] + hi * low[i] + c0[i] - 1)[:, None] + k
                # a split block's cell v = 0 is the partial word alone, a
                # word of level w - 1: it weighs at least ub, so it is never
                # the witness, and it is not counted
                valid = (k < blocks.cols[last[i], None]) & (word >= g0) & (word < g1)
            yield np.concatenate(terms[::-1], axis=1), last[i], valid, g1 - g0


class _InformationSet:
    """The F_p generator, reduced once, and one information set of it.

    Its pivots fall into per-position blocks of sizes z_b; a nonzero block
    forces a nonzero symbol, so a word of information weight w has weight
    >= w.  Once all words of information weight <= w are seen, an unseen
    word has weight >= bound(w): w + 1, or for a cyclic code ceil((w+1) n / s),
    as some shift puts at most floor(d s / n) of it on the s positions.
    """

    def __init__(self, code: AdditiveCode):
        ctx = code.ctx
        self.field = ctx.field_qt
        self.p, self.n, self.met = ctx.p, ctx.n, ctx.field_qt.m
        # over a prime field the expansion basis is 1, x, ..., x^(t-1) (x
        # generates every field a context builds), so the F_p generator is
        # the base-p digits of the basis rows: basis_exp, already reduced
        self.gen = (code.basis_exp if ctx.e == 1 else
                    linalg.row_space(gf.field(self.p), _prime_generator_digits(code)))
        position = (self.gen != 0).argmax(axis=1) // self.met
        self.starts = np.flatnonzero(np.diff(position, prepend=-1))
        self.sizes = np.diff(self.starts, append=len(self.gen))
        self.cyclic = is_cyclic(code)
        # words certify() forms at most, one per F_p* class: level w has
        # counts[w - 1] = e_w(p^z_b - 1) / (p - 1), e_w the elementary
        # symmetric sum over the blocks.  Level 1 always runs and sees every
        # generator row, so after it ub <= ub0, their least weight; a level
        # w > 1 runs only if bound(w - 1) < ub0.
        ub0 = int(_weights(self.gen, self.n, self.met).min())
        levels = 1
        while levels < len(self.sizes) and self.bound(levels) < ub0:
            levels += 1
        self.levels = levels
        e = [1] + [0] * levels            # exact integers: no int64 wrap
        for z in self.sizes.tolist():
            for w in range(levels, 0, -1):
                e[w] += e[w - 1] * (self.p ** z - 1)
        self.counts = [e_w // (self.p - 1) for e_w in e[1:]]

    def bound(self, w: int) -> int:
        """Least weight of a word unseen once information weights <= w are done."""
        return -(-(w + 1) * self.n // len(self.starts)) if self.cyclic else w + 1

    def _layout(self) -> _Blocks:
        """The sub-blocks of every block and where their tables lie."""
        p = self.p
        width = 1
        while p ** (width + 1) <= ENUM_CHUNK:
            width += 1
        sizes = self.sizes.tolist()
        J = -(-max(sizes) // width)
        subs, row, start, size = [], [], [], 0
        for b, z in zip(self.starts.tolist(), sizes):
            for d in range(0, J * width, width):
                part = min(width, max(0, z - d))
                subs.append((size if part else 0, p ** d, p ** part))
                if part:
                    row.append(b + d)
                    start.append(size)
                    size += p ** part
        off, div, mod = np.array(subs).reshape(len(sizes), J, 3).transpose(2, 0, 1)
        whole = [int(z <= width) for z in sizes]
        norm, nonzero, c0, cols, high = np.array(
            [((p ** z - 1) // (p - 1), p ** z - 1, c, p ** min(z, width) - c,
              p ** max(0, z - width)) for z, c in zip(sizes, whole)]).T
        lead = p ** np.arange(max(sizes))
        return _Blocks(taps=min(width, max(sizes)), norm=norm, nonzero=nonzero, lead=lead,
                       first=(lead - 1) // (p - 1), off=off, div=div, mod=mod,
                       row=np.array(row), start=np.array(start), size=size,
                       c0=c0, cols=cols, high=high)

    def _rows(self, blocks: _Blocks, t: np.ndarray) -> np.ndarray:
        """Rows t of the sub-block tables, as symbols.  Row off + u of a
        sub-block is the digits of u times its generator rows, in one exact
        integer product, mod p."""
        p = self.p
        sub = np.searchsorted(blocks.start, t, side="right") - 1
        taps = np.arange(blocks.taps)
        gen = self.gen[np.minimum(blocks.row[sub, None] + taps, len(self.gen) - 1)]
        digits = (t - blocks.start[sub])[:, None] // p ** taps % p
        words = np.einsum("rz,rzc->rc", digits, gen) % p
        symbols = words.reshape(len(t), self.n, self.met) @ p ** np.arange(self.met)
        return symbols.astype(self.field.vdtype)

    def certify(self, budget: int) -> DistanceCertificate:
        """Brouwer-Zimmermann: enumerate the information set by information
        weight, each word a sum of block-table rows.

        Level 1 always runs; a later level w runs only if bound(w - 1) < ub
        and the words formed through level w stay below ``budget``.  Once
        the bound stops the loop, or every level has run, lb = ub = d; a
        budget stop leaves lb = bound(w - 1), w - 1 the last level completed.

        A grid row's words are its partial word plus each of its columns.
        Symbol j of such a sum is zero exactly where the column's symbol j is
        the negation of the partial word's, so a row's weights are counted
        against that negation, and only the lightest word is summed.
        """
        n, f = self.n, self.field
        blocks = self._layout()
        # the last level the budget lets run
        top = max(1, sum(1 for c in itertools.accumulate(self.counts) if c < budget))
        weight = np.min_scalar_type(n + 1)
        ub, lb, best, examined = n + 1, None, None, 0
        for w in range(1, len(self.starts) + 1):
            if self.bound(w - 1) >= ub:
                break
            if w > top:
                lb = self.bound(w - 1)
                break
            if w == 1:
                # level 1 reads each normalised row once: the tables are
                # built only when a later level may run (see __init__)
                read = partial(self._rows, blocks)
                if min(self.levels, top) > 1:
                    table = self._rows(blocks, np.arange(blocks.size))
                    read = table.__getitem__
            if w == 2:
                k = np.minimum(np.arange(int(blocks.cols.max())), blocks.cols[:, None] - 1)
                columns = table[(blocks.off[:, 0] + blocks.c0)[:, None] + k]    # (s, K, n)
            for terms, last, valid, count in _information_weight_level(w, blocks):
                part = read(terms[:, 0])
                index = np.empty(part.shape, dtype=np.intp)
                for j in range(1, terms.shape[1]):
                    f.vadd(part, read(terms[:, j]), out=part, index=index)
                if last is None:
                    wt = np.count_nonzero(part, axis=1).astype(weight)[:, None]
                else:
                    grid = columns[last]
                    neg = f.vsub(0, part, out=np.empty_like(part), index=index)
                    wt = (grid != neg[:, None, :]).sum(axis=2, dtype=weight)
                    if valid is not None:
                        wt[~valid] = n + 1
                i = int(wt.argmin())
                examined += count
                if wt.flat[i] < ub:
                    r, k = divmod(i, wt.shape[1])
                    ub, best = int(wt.flat[i]), (
                        part[r] if last is None else f.vadd(part[r], grid[r, k]))
                if self.bound(w - 1) >= ub:
                    break
        return DistanceCertificate(ub if lb is None else lb, ub, tuple(best.tolist()),
                                   INFO_SETS, examined)


def distance_certificate(code: AdditiveCode, *,
                         budget: int = EXHAUSTIVE_BUDGET) -> DistanceCertificate:
    """Bounds on the minimum Hamming distance, with a witness codeword.

    The F_p generator is reduced once and one information set of it is
    enumerated by information weight.  A level past the first runs only if
    the words formed through it stay below ``budget``.  An enumeration that
    finishes proves d (lb = ub); one the budget stops gives the bound of the
    levels it completed as lb and the lightest word seen as ub.
    """
    if budget < 0:
        raise InvalidParameterError("budget must be >= 0")
    if code.k == 0:
        raise EmptyCodeError("the zero code has no minimum distance")
    return _InformationSet(code).certify(budget)


def min_distance(code: AdditiveCode, *,
                 budget: int = EXHAUSTIVE_BUDGET) -> tuple[int, bool]:
    """Minimum Hamming distance; returns (d, exact_flag).

    d is the certificate's ub: proved when the enumeration finishes within
    ``budget``, otherwise an upper bound flagged exact=False.  See
    :func:`distance_certificate` for the evidence.
    """
    cert = distance_certificate(code, budget=budget)
    return cert.ub, cert.exact


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def generator_matrix_text(code: AdditiveCode) -> str:
    fqt = code.ctx.field_qt
    return "\n".join(" ".join(gf.format_element(fqt, int(c)) for c in row)
                     for row in code.basis_symbols())


def code_record(code: AdditiveCode, *, d: int | None = None,
                d_exact: bool | None = None, d_lb: int | None = None) -> dict:
    """JSON-ready record of a code; ``d_lb`` <= d is the proved lower bound."""
    ctx = code.ctx
    return {
        "n": ctx.n,
        "q": ctx.q,
        "t": ctx.t,
        "k_fq": code.k,
        "cardinality_log": code.k,  # |C| = q^k_fq
        "d": d,
        "d_exact": d_exact,
        "d_lb": d_lb,
        "basis": [[gf.format_element(ctx.field_qt, int(c)) for c in row]
                  for row in code.basis_symbols()],
        "self_orthogonal": is_self_orthogonal(code),
        "self_dual": is_self_dual(code),
        "cyclic": is_cyclic(code),
    }

