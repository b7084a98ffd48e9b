"""Classification of cyclic self-orthogonal and self-dual codes at t = 2.

A cyclic F_q-linear code over GF(q^2) splits across the minimal-ideal
components J_i; self-orthogonality constrains each component independently
(fixed classes of the negation involution mu) or in pairs (transposed
classes).  This module enumerates the component choices:

* fixed classes get the closed-form option lists (exponent progressions of
  the designated primitive elements, plus idempotent bases for the split
  orientation);
* transposed pairs are enumerated from first principles: for every choice
  on one side, the orthogonal partner subspace on the other side is computed
  by exact linear algebra, all choices in one batch, and checked to be one
  of the listed subspaces.

The closed-form counting formulas are kept alongside, and an independent
brute-force oracle covers every cyclic code, as a direct sum of arbitrary
K_i-subspaces of the J_i, with a direct orthogonality test; it is the ground
truth the formulas and the enumeration are compared against.  The oracle's
Gram matrix of a combination is the block matrix of the pairwise blocks
[rows_i(a), rows_j(b)] of its components, so it computes each block once: one
product per ordered class pair i != j (all choices of class i against all of
class j), and each choice's own block.  A combination is accepted when all of
its blocks vanish, a broadcast AND over the grid of combinations.

Every component subspace (a 1-dimensional choice or the full J_i) and every
fixed-class option is built by group-algebra products
(:meth:`ring.CyclicRing.mul_rows`, one :func:`linalg.matmul` by a
circulant): a class's choices of one kind are built as one stack
(:func:`component_stack`) and row-reduced by one :func:`linalg.rref_batch`,
and assembled codes are put in canonical form a stack per dimension, with
their Gram matrices from one batched product.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import linalg
from .bilinear import DeltaContext, context
from .codes import AdditiveCode
from .errors import InvalidParameterError, TooLargeError
from .ring import GroupAlgebraElement
from .structure import build_coset_table, check_parameters

#: most cyclic codes :func:`brute_force_oracle` scans
ORACLE_LIMIT = 1_000_000


@dataclass(frozen=True)
class SubcodeChoice:
    """One admissible component subspace C_i of J_i.

    ``kind`` is "zero", "full" or "dim1"; for dim1 the K_i-basis vector and a
    human-readable label (e.g. "e3,0+rho3,1^28") are carried along.
    """

    index: int
    kind: str
    vector: GroupAlgebraElement | None = None
    label: str = ""


def _check_mode(t: int, mode: str) -> str:
    """The classification mode, lowercased ("so" or "sd"), once t is
    checked to be 2."""
    if t != 2:
        raise InvalidParameterError("classification is implemented for t = 2 only")
    low = mode.lower() if isinstance(mode, str) else mode
    if low not in ("so", "sd"):
        raise InvalidParameterError(f"mode must be 'so' or 'sd', got {mode!r}")
    return low


def _checked_context(n: int, q: int, mode: str,
                     ctx: DeltaContext | None) -> tuple[DeltaContext, str]:
    """The context of (n, q) at t = 2 -- ``ctx`` when given, which must be
    for the same (n, q) -- and the checked mode."""
    ctx = ctx or context(n, q, 2)
    if (ctx.n, ctx.q) != (n, q):
        raise InvalidParameterError(f"context is for (n, q) = ({ctx.n}, {ctx.q}), "
                                    f"not ({n}, {q})")
    return ctx, _check_mode(ctx.t, mode)


# ---------------------------------------------------------------------------
# component subspaces as row blocks
# ---------------------------------------------------------------------------

def component_rows(choice: SubcodeChoice, ctx: DeltaContext) -> np.ndarray:
    """F_q-expanded basis rows of the chosen component subspace."""
    if choice.kind == "zero":
        return np.zeros((0, ctx.n * ctx.t), dtype=np.int64)
    return component_stack(choice.index, _k_bases([choice], ctx), ctx)[0]


def component_stack(i: int, V: np.ndarray, ctx: DeltaContext) -> np.ndarray:
    """F_q-expanded rows of the subspaces of J_i with K_i-bases V (N, r, n):
    entry a holds kappa * v for the F_q-basis kappa of K_i and the rows v of
    V[a], by one :meth:`CyclicRing.mul_rows` per kappa."""
    sym = np.stack([ctx.ring.mul_rows(V.reshape(-1, ctx.n), kappa.coeffs)
                    for kappa in ctx.atlas.k_basis(i)], axis=1)
    return ctx.expand(sym.reshape(len(V), -1, ctx.n))


def _k_bases(choices: list[SubcodeChoice], ctx: DeltaContext) -> np.ndarray:
    """The K_i-bases (N, r, n) of nonzero choices of one class and one kind:
    each choice's vector (dim1), or x * f_i for x in ``ctx.fq_basis`` (full;
    f_i the identity of J_i)."""
    if choices[0].kind == "full":
        f_i = ctx.atlas.j_idempotent(choices[0].index)
        return np.array([[f_i.scale(x).coeffs for x in ctx.fq_basis]] * len(choices))
    return np.array([[c.vector.coeffs] for c in choices], dtype=np.int64)


def _reduced_rows(i: int, V: np.ndarray, ctx: DeltaContext) -> tuple[np.ndarray, np.ndarray]:
    """Reduced rows (RREF, zero rows dropped) of the subspaces of J_i with
    K_i-bases V (N, r, n) stacked in one matrix, and the number of each."""
    R, ranks = linalg.rref_batch(ctx.field_q, component_stack(i, V, ctx))
    return R[np.arange(R.shape[1]) < ranks[:, None]], ranks


def _reduce_choices(choices: list[SubcodeChoice], ctx: DeltaContext) -> list[np.ndarray]:
    """Reduced basis rows (RREF, zero rows dropped) of each choice of one
    class, a list in the order of ``choices``; the choices of each nonzero
    kind are reduced together."""
    out = [component_rows(c, ctx) if c.kind == "zero" else None for c in choices]
    for kind in ("full", "dim1"):
        at = [a for a, c in enumerate(choices) if c.kind == kind]
        if at:
            flat, ranks = _reduced_rows(choices[at[0]].index,
                                        _k_bases([choices[a] for a in at], ctx), ctx)
            for a, rows in zip(at, np.split(flat, np.cumsum(ranks)[:-1])):
                out[a] = rows
    return out


def _times_powers(first: GroupAlgebraElement, base: GroupAlgebraElement,
                  count: int) -> np.ndarray:
    """Coefficient rows (count, n) of first * base^k, k < count, by doubling:
    about log2(count) batched ring products of the rows built so far by
    base^(2^j)."""
    ring = first.ring
    rows = np.array([first.coeffs], dtype=np.int64)
    step = base
    while len(rows) < count:
        rows = np.concatenate([rows, ring.mul_rows(rows[:count - len(rows)], step.coeffs)])
        step = step * step
    return rows


def _dim1_choices(i: int, ctx: DeltaContext, rows: np.ndarray, label: str,
                  step: int = 1) -> list[SubcodeChoice]:
    """The 1-dimensional choices of class i spanned by coefficient rows; row
    k is labelled ``label`` followed by k * step."""
    return [SubcodeChoice(i, "dim1", GroupAlgebraElement(ctx.ring, tuple(v.tolist())),
                          f"{label}{k * step}")
            for k, v in enumerate(rows)]


def _one_dim_rows(i: int, ctx: DeltaContext) -> np.ndarray:
    """Coefficient rows (N, n) of the K_i-basis vectors of the 1-dimensional
    K_i-subspaces of J_i, in the order of :func:`one_dim_subspaces`."""
    atlas, count = ctx.atlas, ctx.q ** ctx.table.d[i]
    if ctx.table.s[i] == 1:
        return _times_powers(atlas.idempotent(i, 0), atlas.rho(i, 0), count + 1)
    e0, e1 = atlas.idempotent(i, 0), atlas.idempotent(i, 1)
    rows = ctx.field_qt.vadd(np.array(e0.coeffs), _times_powers(e1, atlas.rho(i, 1), count - 1))
    return np.vstack([e0.coeffs, e1.coeffs, rows])


def one_dim_subspaces(i: int, ctx: DeltaContext):
    """All 1-dimensional K_i-subspaces of J_i, as SubcodeChoice values.

    For an unsplit class (s_i = 1) the ideal is a field and the projective
    representatives are rho^k, 0 <= k <= q^(d_i); for a split class the
    representatives are the two idempotents and e_0 + rho_1^k,
    0 <= k <= q^(d_i) - 2.  The powers are formed by doubling
    (:func:`_times_powers`).
    """
    rows = _one_dim_rows(i, ctx)
    if ctx.table.s[i] == 1:
        return _dim1_choices(i, ctx, rows, f"rho{i}^")
    return (_dim1_choices(i, ctx, rows[:2], f"e{i},")
            + _dim1_choices(i, ctx, rows[2:], f"e{i},0+rho{i},1^"))


def all_subspace_choices(i: int, ctx: DeltaContext):
    """Every K_i-subspace of J_i: zero, full, and the 1-dimensional ones."""
    return ([SubcodeChoice(i, "zero", None, "0"), SubcodeChoice(i, "full", None, "J")]
            + one_dim_subspaces(i, ctx))


# ---------------------------------------------------------------------------
# closed-form option lists for the mu-fixed classes
# ---------------------------------------------------------------------------

def subcode_options(i: int, mode: str, ctx: DeltaContext,
                    complete: bool = False) -> list[SubcodeChoice]:
    """Admissible C_i for a mu-fixed class, per the t = 2 classification.

    ``mode`` is "so" (self-orthogonal: the zero component is admissible) or
    "sd" (self-dual: the component dimension over K_i is forced to 1).

    The published case list for the identity class (i = 0, and i# when n is
    even) names only the exponent (q+1)/2 when q is odd, but k = 0 solves
    the same congruence 2k = 0 (mod q+1): the prime-subfield component
    K_i * e_{i,0} is isotropic because Tr(gamma) = 0, which the brute-force
    oracle confirms.  ``complete=True`` includes that omitted option; the
    default reproduces the published classification.
    """
    mode = _check_mode(ctx.t, mode)
    tab = ctx.table
    q = ctx.q
    if tab.mu[i] != i:
        raise InvalidParameterError(f"class {i} is paired; use pair_options")
    atlas = ctx.atlas
    opts: list[SubcodeChoice] = []
    if mode == "so":
        opts.append(SubcodeChoice(i, "zero", None, "0"))
    if i == 0 or i == tab.i_sharp:
        e = atlas.idempotent(i, 0)
        if complete and q % 2 == 1:
            opts.append(SubcodeChoice(i, "dim1", e, f"rho{i}^0"))
        k = 0 if q % 2 == 0 else (q + 1) // 2
        v = atlas.rho(i, 0).pow_with_identity(k, e) if k else e
        opts.append(SubcodeChoice(i, "dim1", v, f"rho{i}^{k}"))
        return opts
    half = q ** (tab.d[i] // 2)
    e0, e1 = atlas.idempotent(i, 0), atlas.idempotent(i, 1)
    # e_0 + rho_1^(k * step): k <= half for "fixes", k < half - 1 for "swaps"
    if atlas.tau_orientation[i] == "fixes":
        step, count = half - 1, half + 1
    else:
        opts.append(SubcodeChoice(i, "dim1", e0, f"e{i},0"))
        opts.append(SubcodeChoice(i, "dim1", e1, f"e{i},1"))
        step, count = half + 1, half - 1
    powers = _times_powers(e1, atlas.rho(i, 1).pow_with_identity(step, e1), count)
    rows = ctx.field_qt.vadd(np.array(e0.coeffs), powers)
    return opts + _dim1_choices(i, ctx, rows, f"e{i},0+rho{i},1^", step)


# ---------------------------------------------------------------------------
# transposed pairs: orthogonal partners by exact linear algebra
# ---------------------------------------------------------------------------

def _partners(stack: np.ndarray, full_mu: np.ndarray, ctx: DeltaContext) -> list[np.ndarray]:
    """Reduced basis rows of {v in J_mu : [c, v] = 0 = [v, c] for all c in
    the span of stack[a]}, for each choice a of a stack (N, r, n*t) of
    reduced rows; ``full_mu`` is the reduced basis of the whole J_mu.

    One product per form gives the stack of [A1; A2] = [G c, G^T c] against
    J_mu, one :func:`linalg.nullspace` their null spaces, and one product by
    ``full_mu`` and one :func:`linalg.rref_batch` the partners.
    """
    fq = ctx.field_q
    flat = stack.reshape(-1, stack.shape[-1])
    A = [linalg.matmul(fq, form(flat), full_mu.T).reshape(len(stack), -1, len(full_mu))
         for form in (ctx.gram_apply, ctx.gram_apply_t)]
    null = linalg.nullspace(fq, np.concatenate(A, axis=1))
    R, ranks = linalg.rref_batch(fq, linalg.matmul(fq, null, full_mu))
    return [Ra[:k] for Ra, k in zip(R, ranks)]


def pair_options(j: int, mode: str, ctx: DeltaContext, *, rows: list | None = None):
    """Admissible (C_j, C_mu(j)) pairs for a transposed class pair.

    A class fixed by mu has no partner and raises InvalidParameterError;
    its options come from :func:`subcode_options`.

    Every pair is backed by an exact orthogonality computation; for "sd" the
    K-dimensions must additionally sum to 2.  The partners of all the
    1-dimensional choices of side j are computed together
    (:func:`_partners`), and each is checked to be 1-dimensional over K and
    one of the listed subspaces of side mu(j).  When ``rows`` is given, it
    is extended with the reduced basis rows of the two components of each
    pair, in order, so a caller assembling codes from the pairs reuses them.
    """
    mode = _check_mode(ctx.t, mode)
    tab = ctx.table
    mu_j = tab.mu[j]
    if mu_j == j:
        raise InvalidParameterError(f"class {j} is fixed by mu; use subcode_options")
    d_fq = tab.d[j]  # F_q-dimension of a 1-dim K-subspace
    side_j = all_subspace_choices(j, ctx)
    side_mu = all_subspace_choices(mu_j, ctx)
    rows_j, rows_mu = _reduce_choices(side_j, ctx), _reduce_choices(side_mu, ctx)
    by_key = {(R.shape, R.tobytes()): b for b, R in enumerate(rows_mu)}
    assert len(by_key) == len(side_mu), "listed subspaces must be distinct"
    # pairs of positions; each side lists the zero choice, the full one, then
    # the 1-dim ones
    zero, full = 0, 1
    pairs = [(zero, b) for b in (range(len(side_mu)) if mode == "so" else [full])]
    pairs.append((full, zero))
    partners = _partners(np.stack(rows_j[2:]), rows_mu[full], ctx)
    for a, partner in enumerate(partners, start=2):
        assert partner.shape[0] == d_fq, \
            "orthogonal partner of a 1-dim component must be 1-dim over K"
        match = by_key.get((partner.shape, partner.tobytes()))
        assert match is not None, "partner subspace must be one of the listed subspaces"
        pairs.extend((a, b) for b in ([zero, match] if mode == "so" else [match]))
    if rows is not None:
        rows.extend((rows_j[a], rows_mu[b]) for a, b in pairs)
    return [(side_j[a], side_mu[b]) for a, b in pairs]


# ---------------------------------------------------------------------------
# enumeration, counting, oracle
# ---------------------------------------------------------------------------

def _canonical_stacks(ctx: DeltaContext, dims: np.ndarray, stack_of):
    """Canonical forms of direct sums of row blocks, a stack per dimension.

    Code k is the sum of reduced row blocks, of total dimension ``dims[k]``;
    ``stack_of(idx, dim)`` gives the concatenated blocks of the codes idx,
    all of dimension dim, as a stack (len(idx), dim, width).  Yields (idx,
    R) once per dimension: R[b] is the RREF of matrix b of the whole group's
    stack, from one :func:`linalg.rref_batch`, which bounds its own blocks.
    The sum is checked to be direct (rank == dimension).
    """
    for dim in sorted(set(dims.tolist())):
        idx = np.flatnonzero(dims == dim)
        R, ranks = linalg.rref_batch(ctx.field_q, stack_of(idx, dim))
        assert (ranks == dim).all(), "component sum must be direct"
        yield idx, R


def _assemble(ctx: DeltaContext, row_lists: list[list[np.ndarray]], mode: str):
    """The codes spanned by the block lists, in order, each checked to be
    self-orthogonal (and self-dual for "sd") by its Gram matrix."""
    out = [None] * len(row_lists)
    dims = np.array([sum(b.shape[0] for b in blocks) for blocks in row_lists])

    def stack_of(part, dim):
        stack = np.empty((len(part), dim, ctx.n * ctx.t), dtype=np.int64)
        for b, k in enumerate(part):
            np.concatenate(row_lists[k], axis=0, out=stack[b])
        return stack

    for idx, R in _canonical_stacks(ctx, dims, stack_of):
        _, dim, width = R.shape
        assert mode == "so" or 2 * dim == width, "self-dual codes have dimension t*n/2"
        if dim:
            G = ctx.gram_apply(R.reshape(-1, width)).reshape(R.shape)
            M = linalg.matmul(ctx.field_q, G, R.transpose(0, 2, 1))
            assert not M.any(), "assembled profile failed the direct orthogonality check"
        for b, k in enumerate(idx):
            out[k] = AdditiveCode(ctx, R[b])
    return out


def enumerate_codes(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                    complete: bool = False):
    """All cyclic self-orthogonal ("so") or self-dual ("sd") codes, exactly once.

    Yields canonical AdditiveCode values; every emitted code passes the
    direct orthogonality check, and a canonical-form dedup guards against
    double emission (it must never fire).  ``complete`` is forwarded to
    :func:`subcode_options` (see there: the default follows the published
    case lists, complete=True adds the verified omitted identity-class
    option for odd q).  Profiles are taken in product order a bounded chunk
    at a time, so the generator stays lazy per chunk.
    """
    ctx, mode = _checked_context(n, q, mode, ctx)
    tab = ctx.table
    # each option of a class or pair as the reduced rows of its components,
    # by position, so that a profile is assembled without a lookup
    blocks: list[list[tuple[np.ndarray, ...]]] = []
    singles = [0] + ([tab.i_sharp] if tab.i_sharp is not None else []) + list(tab.fixed)
    for i in sorted(singles):
        opts = subcode_options(i, mode, ctx, complete)
        blocks.append([(rows,) for rows in _reduce_choices(opts, ctx)])
    for j in tab.paired:
        blocks.append([])
        pair_options(j, mode, ctx, rows=blocks[-1])
    profiles = itertools.product(*blocks)
    # profiles per batch: as many n*t x n*t matrices as fit in RREF_BLOCK
    chunk = max(1, linalg.RREF_BLOCK // (n * 2) ** 2)
    seen = set()
    while batch := list(itertools.islice(profiles, chunk)):
        row_lists = [[rows for group in profile for rows in group] for profile in batch]
        for code in _assemble(ctx, row_lists, mode):
            key = code.key()
            assert key not in seen, "profile enumeration emitted a duplicate subspace"
            seen.add(key)
            yield code


def count_codes(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                complete: bool = False) -> int:
    """Closed-form count of cyclic self-orthogonal / self-dual codes (t = 2).

    Exact integer arithmetic on the coset table alone: no DeltaContext (a
    given ``ctx`` is only checked to be for (n, q)), ideal atlas or splitting
    field of X^n - 1 is built.  The default evaluates the published formulas
    (a' * prod(q^(d_i/2)+2) * prod(3q^(d_j)+b') for "so" with a' = 2 or 4 and
    b' = 6 or 2 by the parity of d_j; prod(q^(d_i/2)+1) * prod(q^(d_j)+b')
    for "sd" with b' = 3 or 1).  ``complete=True`` evaluates the corrected
    count that the enumeration and the brute-force oracle verify: each
    identity class contributes one more option when q is odd, and a
    transposed pair contributes 3q^(d_j)+6 ("so") / q^(d_j)+3 ("sd")
    regardless of the parity of d_j.
    """
    if ctx is None:
        check_parameters(n, q, 2)
        mode = _check_mode(2, mode)
    else:
        mode = _checked_context(n, q, mode, ctx)[1]
    tab = build_coset_table(n, q, 2)
    n_identity = 1 + (1 if tab.i_sharp is not None else 0)
    if mode == "so":
        per_identity = 3 if (complete and q % 2 == 1) else 2
        total = per_identity ** n_identity
        for i in tab.fixed:
            total *= q ** (tab.d[i] // 2) + 2
        for j in tab.paired:
            b = 6 if (complete or tab.d[j] % 2) else 2
            total *= 3 * q ** tab.d[j] + b
        return total
    per_identity = 2 if (complete and q % 2 == 1) else 1
    total = per_identity ** n_identity
    for i in tab.fixed:
        total *= q ** (tab.d[i] // 2) + 1
    for j in tab.paired:
        b = 3 if (complete or tab.d[j] % 2) else 1
        total *= q ** tab.d[j] + b
    return total


def _block_nonzero(M: np.ndarray, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """bad[a, b]: M has a nonzero entry in row block a and column block b.

    The blocks are consecutive, of sizes ``rows_a`` and ``rows_b``; an empty
    block gives False.
    """
    bad = np.zeros((len(rows_a), len(rows_b)), dtype=bool)
    nz_a, nz_b = rows_a > 0, rows_b > 0
    if nz_a.any() and nz_b.any():
        red = np.logical_or.reduceat(M != 0, (np.cumsum(rows_a) - rows_a)[nz_a], axis=0)
        red = np.logical_or.reduceat(red, (np.cumsum(rows_b) - rows_b)[nz_b], axis=1)
        bad[np.ix_(nz_a, nz_b)] = red
    return bad


def _class_rows(i: int, ctx: DeltaContext) -> tuple[np.ndarray, np.ndarray]:
    """The reduced rows of every K_i-subspace of J_i, in the order of
    :func:`all_subspace_choices`, stacked in one matrix, and the number of
    rows of each; the 1-dimensional ones from coefficient rows alone."""
    full, full_dim = _reduced_rows(i, _k_bases([SubcodeChoice(i, "full")], ctx), ctx)
    dim1, dim1_dims = _reduced_rows(i, _one_dim_rows(i, ctx)[:, None], ctx)
    return np.concatenate([full, dim1]), np.concatenate([[0], full_dim, dim1_dims])


def brute_force_oracle(n: int, q: int, mode: str, ctx: DeltaContext | None = None):
    """Independent check: test ALL cyclic codes for orthogonality directly.

    Every cyclic code is a direct sum of arbitrary K_i-subspaces of the J_i,
    one choice per class.  The Gram matrix of such a combination is the
    block matrix of the pairwise blocks [rows_i(a), rows_j(b)], so each block
    is computed once: for every ordered class pair i != j one product of all
    class-i Gram rows with all class-j rows, reduced to a table over (a, b),
    and for i = j each choice's own block, batched by row count.  A
    combination is accepted when all its blocks are zero (for "sd" also when
    its dimension is t*n/2): a broadcast AND over the grid of combinations.
    No mu-pairing or case list is used; every class pair is tested.  Every
    accepted combination is checked to be a direct sum and put in canonical
    form, its rows gathered by index from one stack of all class rows.
    Returns (count, set of canonical keys).
    """
    ctx, mode = _checked_context(n, q, mode, ctx)
    tab = ctx.table
    sizes = [q ** d + 3 for d in tab.d]
    if math.prod(sizes) > ORACLE_LIMIT:
        raise TooLargeError(f"{math.prod(sizes)} cyclic codes exceed the oracle limit {ORACLE_LIMIT}")
    fq = ctx.field_q
    k = tab.num_classes
    # class i: choice a has the rows starts[i][a] : starts[i][a] + dims[i][a]
    # of flat[i]
    flat, dims = zip(*(_class_rows(i, ctx) for i in range(k)))
    starts = [np.cumsum(d) - d for d in dims]
    gram = [ctx.gram_apply(rows) for rows in flat]

    def on_axes(table, *axes):
        shape = [1] * k
        for ax, size in zip(axes, table.shape):
            shape[ax] = size
        return table.reshape(shape)

    ok = np.ones(sizes, dtype=bool)
    for i in range(k):
        self_bad = np.zeros(sizes[i], dtype=bool)
        for r in sorted(set(dims[i].tolist()) - {0}):
            idx = np.flatnonzero(dims[i] == r)
            at = starts[i][idx, None] + np.arange(r)   # the rows of each choice
            M = linalg.matmul(fq, gram[i][at], flat[i][at].transpose(0, 2, 1))
            self_bad[idx] = M.any(axis=(1, 2))
        ok &= on_axes(~self_bad, i)
        for j in range(k):
            if j != i:
                P = linalg.matmul(fq, gram[i], flat[j].T)
                bad = _block_nonzero(P, dims[i], dims[j])   # axes (i, j)
                ok &= on_axes(~bad, i, j) if i < j else on_axes(~bad.T, j, i)
    if mode == "sd":
        total_dim = sum(on_axes(d, i) for i, d in enumerate(dims))
        ok &= total_dim == n  # t*n/2, with t = 2
    combos = np.argwhere(ok)
    code_dim = sum(dims[i][combos[:, i]] for i in range(k))
    # rows_of[i][a, j] = offsets[i] + starts[i][a] + j, the row of every_row
    # that is row j of choice a of class i, or -1 for j >= dims[i][a]; the
    # rows are kept in the field's narrowest dtype, so the stacks gathered
    # from them are small
    every_row = np.concatenate(flat).astype(fq.vdtype)
    offsets = np.cumsum([0] + [len(rows) for rows in flat])
    rows_of = []
    for i in range(k):
        j = np.arange(dims[i].max())
        rows_of.append(np.where(j < dims[i][:, None], offsets[i] + starts[i][:, None] + j, -1))

    def stack_of(part, dim):
        rows = np.concatenate([rows_of[i][combos[part, i]] for i in range(k)], axis=1)
        return every_row[rows[rows >= 0].reshape(len(part), dim)]

    matched = set()
    for _, R in _canonical_stacks(ctx, code_dim, stack_of):
        shape = R.shape[1:]
        matched.update((shape, R[b].tobytes()) for b in range(R.shape[0]))
    return len(combos), matched


def good_code_report(n: int, q: int, ctx: DeltaContext | None = None, *,
                     budget: int = codes_mod.EXHAUSTIVE_BUDGET,
                     mode: str = "so", limit: int | None = None) -> list[dict]:
    """Records for the classified codes with (exact or bounded) min distances.

    d is the certificate's ub and d_lb its lb.  Sorted by (k ascending, d
    descending, canonical key); the zero code is reported with d = None.
    """
    out = []
    for idx, code in enumerate(enumerate_codes(n, q, mode, ctx)):
        if limit is not None and idx >= limit:
            break
        if code.k == 0:
            rec = codes_mod.code_record(code)
        else:
            cert = codes_mod.distance_certificate(code, budget=budget)
            rec = codes_mod.code_record(code, d=cert.ub, d_exact=cert.exact, d_lb=cert.lb)
        rec["basis_key"] = "|".join(",".join(r) for r in rec["basis"])
        out.append(rec)
    out.sort(key=lambda r: (r["k_fq"], -(r["d"] or 0), r["basis_key"]))
    for r in out:
        r.pop("basis_key")
    return out
