"""F_q-linear codes over GF(q^t): subspaces of GF(q^t)^n closed under F_q.

A code is stored as the nonzero rows of the reduced row echelon form, over
F_q, of its basis in the tn-coordinate expansion (position-major, then basis
component); their pivots are read off the rows.  The canonical form makes
equality, hashing and set semantics exact.  Duality is always computed
against the twisted trace form of the code's own DeltaContext.  The
minimum Hamming distance is certified exactly by Brouwer-Zimmermann
enumeration of one information set by information weight (as extended to
additive codes by White and Grassl), with the cyclic-shift bound on cyclic
codes, when the words that enumeration will form fit a budget; beyond it a
seeded random sample gives an upper bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

#: exact certification cap, in words the information-set enumeration may
#: form: a code whose enumeration needs fewer gets its d proved, the rest
#: are sampled
EXHAUSTIVE_BUDGET = 1 << 28
#: coefficient vectors per float64 product in the information-set enumeration
ENUM_CHUNK = 1 << 15
#: support sets drawn at once from one information-weight level
SUPPORT_BATCH = 1 << 12
#: refuse a level whose single support set has more words than this, so the
#: int64 word counts of a batch of SUPPORT_BATCH supports cannot wrap
MAX_SUPPORT_WORDS = 1 << 50
#: DistanceCertificate.method values
INFO_SETS = "information sets"
SAMPLING = "random sampling"
#: default number of random codewords for the sampled upper bound
SAMPLE_COUNT = 10_000_000
SAMPLE_SEED = 0


class AdditiveCode:
    """An F_q-linear subspace of GF(q^t)^n, held as its nonzero RREF rows."""

    __slots__ = ("ctx", "basis_exp")

    def __init__(self, ctx: DeltaContext, basis_exp: np.ndarray):
        self.ctx = ctx
        self.basis_exp = basis_exp
        self.basis_exp.setflags(write=False)

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
    if code.k == 0:
        return True
    shifted = code.ctx.expand(np.roll(code.basis_symbols(), 1, axis=1))
    return code.contains_expansion(shifted)


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
    stacked = np.concatenate([
        ctx.field_qt.vmul(np.int64(ctx.embed_scalar(ctx.field_q.encode([0] * u + [1]))), sym)
        for u in range(ctx.e)])
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
    counts the codewords formed: one per F_p* class for the information-set
    enumeration, one per draw for sampling.
    """

    lb: int
    ub: int
    witness: tuple[int, ...]
    method: str
    words_examined: int

    @property
    def exact(self) -> bool:
        """True for an enumeration that proved lb = ub; sampling never claims it."""
        return self.method == INFO_SETS


def _normalised_value(i: np.ndarray, p: int) -> np.ndarray:
    """The i-th nonzero base-p digit vector whose highest nonzero digit is 1.

    Vectors are read as integers; those with leading digit at position j are
    p^j + [0, p^j), indexed from (p^j - 1)/(p - 1) on.
    """
    first = np.zeros_like(i)          # (p^j - 1)/(p - 1)
    lead = np.ones_like(i)            # p^j
    while True:
        up = i >= first + lead
        if not up.any():
            return lead + (i - first)
        first = np.where(up, first + lead, first)
        lead = np.where(up, lead * p, lead)


def _information_weight_level(w: int, starts: np.ndarray, sizes: np.ndarray, p: int):
    """Coefficient vectors of information weight w, in row chunks.

    Block b is coefficients starts[b] .. starts[b] + sizes[b] - 1.  A vector
    of weight w is nonzero on exactly w blocks, and its first nonzero block
    is normalised (leading digit 1), so each F_p* class appears once.
    Yields float64 arrays of at most ``ENUM_CHUNK`` rows.
    """
    s = len(starts)
    nonzero = p ** sizes - 1
    normalised = nonzero // (p - 1)
    if int(normalised.max()) * int(nonzero.max()) ** (w - 1) > MAX_SUPPORT_WORDS:
        raise TooLargeError(f"information weight {w} has more than "
                            f"{MAX_SUPPORT_WORDS} words per support")
    # coefficient c is digit c - starts[b] of block b's value
    block_of = np.repeat(np.arange(s), sizes)
    place = p ** (np.arange(len(block_of)) - starts[block_of])
    combos = itertools.combinations(range(s), w)
    while True:
        sup = np.array(list(itertools.islice(combos, SUPPORT_BATCH)),
                       dtype=np.int64).reshape(-1, w)
        if not len(sup):
            return
        count = normalised[sup[:, 0]] * np.prod(nonzero[sup[:, 1:]], axis=1)
        ends = np.cumsum(count)
        for g0 in range(0, int(ends[-1]), ENUM_CHUNK):
            g = np.arange(g0, min(g0 + ENUM_CHUNK, int(ends[-1])))
            which = np.searchsorted(ends, g, side="right")
            rest = g - (ends[which] - count[which])
            values = np.zeros((len(g), s), dtype=np.int64)   # per block
            rows = np.arange(len(g))
            for slot in range(w - 1, 0, -1):
                b = sup[which, slot]
                values[rows, b] = rest % nonzero[b] + 1
                rest //= nonzero[b]
            values[rows, sup[which, 0]] = _normalised_value(rest, p)
            yield (values[:, block_of] // place % p).astype(np.float64)


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
        # e_w(p^z_b - 1) / (p - 1), e_w the elementary symmetric sum over the
        # blocks.  Level 1 always runs and sees every generator row, so after
        # it ub <= ub0, their least weight; a level w > 1 runs only if
        # bound(w - 1) < ub0.
        ub0 = int(_weights(self.gen, self.n, self.met).min())
        levels = 1
        while levels < len(self.sizes) and self.bound(levels) < ub0:
            levels += 1
        e = [1] + [0] * levels            # exact integers: no int64 wrap
        for z in self.sizes.tolist():
            for w in range(levels, 0, -1):
                e[w] += e[w - 1] * (self.p ** z - 1)
        self.words = sum(e[1:]) // (self.p - 1)

    def bound(self, w: int) -> int:
        """Least weight of a word unseen once information weights <= w are done."""
        return -(-(w + 1) * self.n // len(self.starts)) if self.cyclic else w + 1

    def certify(self) -> DistanceCertificate:
        """Brouwer-Zimmermann: enumerate the information set by information weight."""
        p, n, met = self.p, self.n, self.met
        gen = self.gen.astype(np.float64)
        # the exact float64 product fits this integer type
        itype = np.int32 if (p - 1) ** 2 * len(gen) < 2 ** 31 else np.int64
        ub, best, examined = n + 1, None, 0
        for w in range(1, len(self.starts) + 1):
            if self.bound(w - 1) >= ub:
                break
            for X in _information_weight_level(w, self.starts, self.sizes, p):
                words = (X @ gen).astype(itype) % p
                wt = _weights(words, n, met)
                i = int(wt.argmin())
                examined += len(X)
                if wt[i] < ub:
                    ub, best = int(wt[i]), words[i]
                if self.bound(w - 1) >= ub:
                    break
        return DistanceCertificate(ub, ub, _symbols(best, n, met, p), INFO_SETS, examined)

    def sample(self, samples: int, seed: int) -> DistanceCertificate:
        """Upper bound from the lightest reduced generator row and seeded
        random combinations of the reduced rows."""
        p, n, met = self.p, self.n, self.met
        rng = np.random.default_rng(seed)
        wt = _weights(self.gen, n, met)
        best, witness, done = int(wt.min()), self.gen[wt.argmin()], 0
        # float64 holds every dot product exactly: (p-1)^2 * len(gen) < 2^53
        # for each p the field tables admit
        gen = self.gen.astype(np.float64)
        while done < samples:
            take = min(1 << 18, samples - done)
            coeffs = rng.integers(0, p, size=(take, len(gen))).astype(np.float64)
            words = (coeffs @ gen).astype(np.int64) % p
            w = _weights(words, n, met)
            w[w == 0] = n + 1
            i = int(w.argmin())
            if w[i] < best:
                best, witness = int(w[i]), words[i]
            done += take
        return DistanceCertificate(1, best, _symbols(witness, n, met, p), SAMPLING, samples)


def _symbols(word: np.ndarray, n: int, met: int, p: int) -> tuple[int, ...]:
    """GF(q^t) symbols of a digit row (position-major, base-p digits)."""
    digits = np.asarray(word, dtype=np.int64).reshape(n, met)
    return tuple(int(v) for v in digits @ p ** np.arange(met, dtype=np.int64))


def distance_certificate(code: AdditiveCode, *, budget: int = EXHAUSTIVE_BUDGET,
                         samples: int = SAMPLE_COUNT,
                         seed: int = SAMPLE_SEED) -> DistanceCertificate:
    """Bounds on the minimum Hamming distance, with a witness codeword.

    The F_p generator is reduced once.  When the information-set
    enumeration will form fewer than ``budget`` words, it certifies d
    exactly (lb = ub); otherwise ``samples`` seeded random combinations give
    an upper bound and lb is 1.
    """
    if budget < 0 or samples < 0:
        raise InvalidParameterError("budget and samples must be >= 0")
    if code.k == 0:
        raise EmptyCodeError("the zero code has no minimum distance")
    info = _InformationSet(code)
    return info.certify() if info.words < budget else info.sample(samples, seed)


def min_distance(code: AdditiveCode, *, budget: int = EXHAUSTIVE_BUDGET,
                 samples: int = SAMPLE_COUNT, seed: int = SAMPLE_SEED) -> tuple[int, bool]:
    """Minimum Hamming distance; returns (d, exact_flag).

    Exact when the information-set enumeration forms fewer than ``budget``
    words; otherwise a seeded random-combination upper bound flagged
    exact=False.  See :func:`distance_certificate` for the evidence.
    """
    cert = distance_certificate(code, budget=budget, samples=samples, seed=seed)
    return cert.ub, cert.exact


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def generator_matrix_text(code: AdditiveCode) -> str:
    fqt = code.ctx.field_qt
    return "\n".join(" ".join(gf.format_element(fqt, int(c)) for c in row)
                     for row in code.basis_symbols())


def code_record(code: AdditiveCode, *, d: int | None = None,
                d_exact: bool | None = None) -> dict:
    ctx = code.ctx
    return {
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

