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
[rows_i(a), rows_j(b)] of its components, and such a block vanishes wherever
the block [J_i, J_j] of the whole components does.  So the oracle factorises:
it reads the interaction graph off one product of the stacked bases of all
the J_i, tests each choice's own block, and builds a table over the choice
pairs only for the ordered class pairs whose full block is nonzero.  The
accepted codes are the product of the accepted choices of each connected
component (one class or a pair), never a grid over all combinations.

Each mu-fixed class and transposed pair of the enumeration, and each class
of the oracle, is one group: rows spanning each of its options stacked in
one matrix, and the row count of each.  The F_q-basis of K_i is X^l * f_i,
l < d_i, so the K_i-span of a vector v of J_i is spanned over F_q by its
cyclic shifts X^l * v: component rows are shifts, never ring products
(:func:`component_stack`).  The enumeration lists its subspaces by powers
of the designated primitive elements rho, which give its labels and its
order.  The oracle lists them independently of rho: J_i is a free
K_i-module of rank 2 with basis {f_i, g * f_i}, so its lines are the
q^d_i + 1 points of P^1(K_i), K_i * f_i and K_i * (g * f_i + c) for c in
K_i, each spanned by the column rolls of one vector (:func:`_choice_rows`).
The enumeration reduces each kind by one :func:`linalg.rref_batch`, which
its partner search needs; the oracle keeps the spanning rows (the full J_i
rows once per context), since whether a Gram block vanishes does not depend
on the rows that span a choice.  A code is a vector of option indices, one
per group; both assemble codes by :func:`_canonical_stacks`, which reduces
each code once.  The SubcodeChoice lists of the public option functions
label the same rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import gf, linalg
from .bilinear import DeltaContext, context
from .codes import AdditiveCode
from .errors import InvalidParameterError, TooLargeError
from .ring import GroupAlgebraElement
from .structure import build_coset_table, check_parameters

#: the longest option list of one group the enumeration builds rows for,
#: and in :func:`brute_force_oracle` the largest table, the choices of one
#: class or the choice pairs of two interacting ones, and the most codes it
#: assembles, all those that pass the block tests (for "sd", before the
#: dimension filter); each is checked before it is built
CHOICE_LIMIT = 1_000_000


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


def _check_list_lengths(ctx: DeltaContext, mode: str, classes: list[int]):
    """Refuse with TooLargeError, before any row is built, a group whose
    list is longer than :data:`CHOICE_LIMIT`, its length read off the coset
    table: q^(d_i/2) + 2 ("so") or + 1 ("sd") options of a mu-fixed class
    i, and the q^d_j + 3 subspaces on each side of a transposed pair j,
    which the partner search builds rows for."""
    tab = ctx.table
    for i in classes:
        if tab.mu[i] == i:
            _check_length(i, ctx.q ** (tab.d[i] // 2) + (2 if mode == "so" else 1), "options")
        else:
            _check_length(i, ctx.q ** tab.d[i] + 3, "subspaces on each side of its pair")


def _check_length(i: int, size: int, what: str):
    """Refuse with TooLargeError a list of class i longer than
    :data:`CHOICE_LIMIT`."""
    if size > CHOICE_LIMIT:
        raise TooLargeError(f"class {i} lists {size} {what}, over the choice limit "
                            f"{CHOICE_LIMIT}")


# ---------------------------------------------------------------------------
# component subspaces as row blocks
# ---------------------------------------------------------------------------

def component_rows(choice: SubcodeChoice, ctx: DeltaContext) -> np.ndarray:
    """F_q-expanded basis rows of the chosen component subspace."""
    if choice.kind == "zero":
        return np.zeros((0, ctx.n * ctx.t), dtype=np.int64)
    V = (_full_basis(choice.index, ctx) if choice.kind == "full"
         else np.array([[choice.vector.coeffs]], dtype=np.int64))
    return component_stack(choice.index, V, ctx)[0]


def component_stack(i: int, V: np.ndarray, ctx: DeltaContext) -> np.ndarray:
    """F_q-expanded rows of the subspaces of J_i with K_i-bases V (N, r, n),
    whose rows must lie in J_i: entry a holds X^l * v for the rows v of V[a]
    and, within each, l < d_i.  These are the products kappa_l * v by the
    F_q-basis kappa_l = X^l * f_i of K_i (:meth:`IdealAtlas.k_basis`), as
    f_i * v = v in J_i, so they are cyclic shifts, taken by one index gather
    before :meth:`DeltaContext.expand`."""
    shift = (np.arange(ctx.n) - np.arange(ctx.table.d[i])[:, None]) % ctx.n
    rows = np.asarray(V, dtype=np.int64)[..., shift]   # (N, r, d_i, n)
    return ctx.expand(rows.reshape(len(rows), -1, ctx.n))


def _full_basis(i: int, ctx: DeltaContext) -> np.ndarray:
    """The K_i-basis (1, t, n) of the whole J_i: x * f_i for x in
    ``ctx.fq_basis``, f_i the identity of J_i."""
    f_i = np.array(ctx.atlas.j_idempotent(i).coeffs, dtype=np.int64)
    return np.array([[ctx.field_qt.vmul(np.int64(x), f_i) for x in ctx.fq_basis]])


def _full_rows(i: int, ctx: DeltaContext) -> np.ndarray:
    """The F_q-expanded rows (t * d_i, n * t) spanning the whole J_i,
    unreduced: the :func:`component_stack` of its K_i-basis
    (:func:`_full_basis`), built once per context, in ``ctx.derived``."""
    full = ctx.derived.setdefault("full_rows", {})
    if i not in full:
        full[i] = component_stack(i, _full_basis(i, ctx), ctx)[0]
    return full[i]


def _choice_rows(i: int, ctx: DeltaContext) -> tuple[np.ndarray, np.ndarray]:
    """Rows spanning every K_i-subspace of J_i, unreduced, stacked in one
    matrix in the field's narrowest dtype, and the number of rows of each:
    none for zero, the t * d_i rows of :func:`_full_rows` for J_i, and d_i
    for each line, the q^d_i + 1 points of P^1(K_i).

    J_i is a free K_i-module with basis {f_i, g * f_i}, g the generator of
    GF(q^t) (:func:`_full_basis`), so its lines are K_i * f_i and
    K_i * (g * f_i + c) for c = sum_l c_l X^l f_i in K_i, c over F_q^d_i in
    the order of ``np.indices``.  Their vectors come from one
    :func:`linalg.matmul` of their coordinates (1, 0, ..., 0 | 0) and
    (c | 1) by the expanded X^l * f_i, l < d_i, and g * f_i, the first d_i
    + 1 rows of :func:`_full_rows`; each line is spanned by the d_i shifts
    X^l * v of its vector v, column rolls by l * t of the expansion.  No
    primitive element and no group-algebra product is used."""
    q, t, d = ctx.q, ctx.t, ctx.table.d[i]
    full = _full_rows(i, ctx)
    coords = np.zeros((q ** d + 1, d + 1), dtype=np.int64)
    coords[0, 0] = 1
    coords[1:, :d] = np.indices((q,) * d).reshape(d, -1).T
    coords[1:, d] = 1
    lines = linalg.matmul(ctx.field_q, coords, full[:d + 1])
    flat = np.empty((len(full) + len(lines) * d, full.shape[1]), dtype=ctx.field_q.vdtype)
    flat[:len(full)] = full
    _roll_into(flat[len(full):], lines, d, t)
    return flat, np.array([0, len(full)] + [d] * len(lines))


def _roll_into(out: np.ndarray, vectors: np.ndarray, d: int, t: int):
    """Write the column rolls by l * t, l < d, of each row of ``vectors``
    (N, c) into ``out`` (N * d, c), d consecutive rows per vector: the
    expansions of X^l * v."""
    width = vectors.shape[1]
    out = out.reshape(len(vectors), d, width)
    for l in range(d):
        out[:, l, l * t:] = vectors[:, :width - l * t]
        out[:, l, :l * t] = vectors[:, width - l * t:]


def _choice_gram(ctx: DeltaContext, flat: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """``ctx.gram_apply(flat)`` for the rows of :func:`_choice_rows`, those
    of each line rolled from the Gram row of its vector: the Gram matrix
    acts position by position, so it commutes with the shifts."""
    full, d = dims[1], dims[2]
    gram = np.empty(flat.shape, dtype=np.int64)
    gram[:full] = ctx.gram_apply(flat[:full])
    _roll_into(gram[full:], ctx.gram_apply(flat[full::d]), d, ctx.t)
    return gram


def _reduced(fq: gf.Field, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced rows (RREF, zero rows dropped) of the matrices of a stack
    (N, r, c) stacked in one matrix, and the number of each."""
    R, ranks = linalg.rref_batch(fq, stack)
    return R[np.arange(R.shape[1]) < ranks[:, None]], ranks


def _class_rows(i: int, ctx: DeltaContext,
                coeffs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The reduced rows of every K_i-subspace of J_i, in the order of
    :func:`all_subspace_choices`, stacked in one matrix, and the number of
    rows of each: the rows of :func:`_full_rows`, and those of the
    1-dimensional ones from their coefficient rows ``coeffs``
    (:func:`_one_dim_rows`, built here unless given) by one
    :func:`component_stack`, each kind reduced by one
    :func:`linalg.rref_batch`."""
    coeffs = _one_dim_rows(i, ctx) if coeffs is None else coeffs
    full, full_dim = _reduced(ctx.field_q, _full_rows(i, ctx)[None])
    dim1, dim1_dims = _reduced(ctx.field_q, component_stack(i, coeffs[:, None], ctx))
    return np.concatenate([full, dim1]), np.concatenate([[0], full_dim, dim1_dims])


def _dim1_choices(i: int, ctx: DeltaContext, rows: np.ndarray,
                  labels: list[str]) -> list[SubcodeChoice]:
    """The 1-dimensional choices of class i spanned by coefficient rows,
    with their labels."""
    return [SubcodeChoice(i, "dim1", GroupAlgebraElement(ctx.ring, tuple(v.tolist())), label)
            for v, label in zip(rows, labels)]


def _one_dim_rows(i: int, ctx: DeltaContext) -> np.ndarray:
    """Coefficient rows (N, n) of the K_i-basis vectors of the 1-dimensional
    K_i-subspaces of J_i, in the order of :func:`one_dim_subspaces`."""
    atlas, count = ctx.atlas, ctx.q ** ctx.table.d[i]
    e0 = atlas.idempotent(i, 0).coeffs
    if ctx.table.s[i] == 1:
        return gf._doubling(e0, atlas.rho(i, 0).coeffs, count + 1, ctx.ring.mul_rows)
    e1 = atlas.idempotent(i, 1).coeffs
    powers = gf._doubling(e1, atlas.rho(i, 1).coeffs, count - 1, ctx.ring.mul_rows)
    rows = ctx.field_qt.vadd(np.array(e0), powers)
    return np.vstack([e0, e1, rows])


def one_dim_subspaces(i: int, ctx: DeltaContext):
    """All 1-dimensional K_i-subspaces of J_i, as SubcodeChoice values.

    For an unsplit class (s_i = 1) the ideal is a field and the projective
    representatives are rho^k, 0 <= k <= q^(d_i); for a split class the
    representatives are the two idempotents and e_0 + rho_1^k,
    0 <= k <= q^(d_i) - 2.  The powers are formed by doubling
    (:func:`gf._doubling`).
    """
    return all_subspace_choices(i, ctx)[2:]


def all_subspace_choices(i: int, ctx: DeltaContext):
    """Every K_i-subspace of J_i: zero, full, and the 1-dimensional ones.
    A list longer than :data:`CHOICE_LIMIT`, q^(d_i) + 3 subspaces, is
    refused with TooLargeError before any row is built."""
    _check_length(i, ctx.q ** ctx.table.d[i] + 3, "subspaces")
    return _subspace_choices(i, ctx, _one_dim_rows(i, ctx))


def _subspace_choices(i: int, ctx: DeltaContext, rows: np.ndarray) -> list[SubcodeChoice]:
    """:func:`all_subspace_choices`, the 1-dimensional ones labelled from
    their coefficient rows (:func:`_one_dim_rows`)."""
    if ctx.table.s[i] == 1:
        labels = [f"rho{i}^{k}" for k in range(len(rows))]
    else:
        labels = [f"e{i},0", f"e{i},1"] + [f"e{i},0+rho{i},1^{k}" for k in range(len(rows) - 2)]
    return ([SubcodeChoice(i, "zero", None, "0"), SubcodeChoice(i, "full", None, "J")]
            + _dim1_choices(i, ctx, rows, labels))


# ---------------------------------------------------------------------------
# closed-form option lists for the mu-fixed classes
# ---------------------------------------------------------------------------

def subcode_options(i: int, mode: str, ctx: DeltaContext,
                    complete: bool = False) -> list[SubcodeChoice]:
    """Admissible C_i for a mu-fixed class, per the t = 2 classification.

    ``mode`` is "so" (self-orthogonal: the zero component is admissible,
    listed first) or "sd" (self-dual: the component dimension over K_i is
    forced to 1).  The 1-dimensional options are those of
    :func:`_fixed_options`.
    """
    mode = _check_mode(ctx.t, mode)
    _check_list_lengths(ctx, mode, [i])
    rows, labels = _fixed_options(i, ctx, complete)
    zero = [SubcodeChoice(i, "zero", None, "0")] if mode == "so" else []
    return zero + _dim1_choices(i, ctx, rows, labels)


def _fixed_options(i: int, ctx: DeltaContext, complete: bool) -> tuple[np.ndarray, list[str]]:
    """Coefficient rows (N, n) of the K_i-basis vectors of the 1-dimensional
    admissible C_i of a mu-fixed class, and their labels.

    The published case list for the identity class (i = 0, and i# when n is
    even) names only the exponent (q+1)/2 when q is odd, but k = 0 solves
    the same congruence 2k = 0 (mod q+1): the prime-subfield component
    K_i * e_{i,0} is isotropic because Tr(gamma) = 0, which the brute-force
    oracle confirms.  ``complete=True`` includes that omitted option; the
    default reproduces the published classification.
    """
    tab, q, atlas, ring = ctx.table, ctx.q, ctx.atlas, ctx.ring
    if tab.mu[i] != i:
        raise InvalidParameterError(f"class {i} is paired; use pair_options")
    if i == 0 or i == tab.i_sharp:
        exps = ([0] if complete and q % 2 == 1 else []) + [0 if q % 2 == 0 else (q + 1) // 2]
        rows = ring.pow_rows([atlas.rho(i, 0).coeffs], exps, atlas.idempotent(i, 0).coeffs)[0]
        return rows, [f"rho{i}^{k}" for k in exps]
    half = q ** (tab.d[i] // 2)
    e0, e1 = atlas.idempotent(i, 0).coeffs, atlas.idempotent(i, 1).coeffs
    # e_0 + rho_1^(k * step): k <= half for "fixes", k < half - 1 for "swaps",
    # which lists e_0 and e_1 first
    swaps = atlas.tau_orientation[i] == "swaps"
    step, count = (half + 1, half - 1) if swaps else (half - 1, half + 1)
    powers = gf._doubling(e1, ring.pow_rows([atlas.rho(i, 1).coeffs], [step], e1)[0, 0], count,
                          ring.mul_rows)
    rows = ctx.field_qt.vadd(np.array(e0), powers)
    labels = [f"e{i},0+rho{i},1^{k * step}" for k in range(count)]
    if swaps:
        return np.vstack([e0, e1, rows]), [f"e{i},0", f"e{i},1"] + labels
    return rows, labels


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


def pair_options(j: int, mode: str, ctx: DeltaContext):
    """Admissible (C_j, C_mu(j)) pairs for a transposed class pair.

    A class fixed by mu has no partner and raises InvalidParameterError;
    its options come from :func:`subcode_options`.  The pairs are those of
    :func:`_pairs`, labelled as in :func:`all_subspace_choices` from the
    coefficient rows that :func:`_pairs` built for each side.
    """
    mode = _check_mode(ctx.t, mode)
    _check_list_lengths(ctx, mode, [j])
    pairs, _, rows = _pairs(j, mode, ctx)
    side_j, side_mu = (_subspace_choices(i, ctx, r) for i, r in zip((j, ctx.table.mu[j]), rows))
    return [(side_j[a], side_mu[b]) for a, b in pairs]


def _pairs(j: int, mode: str, ctx: DeltaContext):
    """The admissible pairs of a transposed class pair as positions (a, b)
    in the subspace lists of j and mu(j), the class rows
    (:func:`_class_rows`) of the two sides, and their 1-dimensional
    coefficient rows (:func:`_one_dim_rows`).

    Every pair is backed by an exact orthogonality computation; for "sd" the
    K-dimensions must additionally sum to 2.  The partners of all the
    1-dimensional choices of side j are computed together
    (:func:`_partners`), and each is checked to be 1-dimensional over K and
    one of the listed subspaces of side mu(j).
    """
    tab = ctx.table
    mu_j = tab.mu[j]
    if mu_j == j:
        raise InvalidParameterError(f"class {j} is fixed by mu; use subcode_options")
    rows = _one_dim_rows(j, ctx), _one_dim_rows(mu_j, ctx)
    sides = _class_rows(j, ctx, rows[0]), _class_rows(mu_j, ctx, rows[1])
    (flat_j, dims_j), (flat_mu, dims_mu) = sides
    blocks_mu = np.split(flat_mu, np.cumsum(dims_mu)[:-1])
    by_key = {(R.shape, R.tobytes()): b for b, R in enumerate(blocks_mu)}
    assert len(by_key) == len(blocks_mu), "listed subspaces must be distinct"
    # each side lists the zero choice, the full one, then the 1-dim ones,
    # each spanning d_j = dim_Fq K rows
    zero, full = 0, 1
    pairs = [(zero, b) for b in (range(len(blocks_mu)) if mode == "so" else [full])]
    pairs.append((full, zero))
    dim1_j = flat_j[dims_j[full]:].reshape(len(dims_j) - 2, tab.d[j], -1)
    for a, partner in enumerate(_partners(dim1_j, blocks_mu[full], ctx), start=2):
        assert partner.shape[0] == tab.d[j], \
            "orthogonal partner of a 1-dim component must be 1-dim over K"
        match = by_key.get((partner.shape, partner.tobytes()))
        assert match is not None, "partner subspace must be one of the listed subspaces"
        pairs.extend((a, b) for b in ([zero, match] if mode == "so" else [match]))
    return pairs, sides, rows


# ---------------------------------------------------------------------------
# enumeration, counting, oracle
# ---------------------------------------------------------------------------

def _row_table(dims: np.ndarray, offset: int = 0) -> np.ndarray:
    """at[a, r] = offset + the row of a stack that is row r of option a, the
    options' rows consecutive with the row counts ``dims``; -1 for r >=
    dims[a]."""
    r = np.arange(dims.max())
    return np.where(r < dims[:, None], offset + (np.cumsum(dims) - dims)[:, None] + r, -1)


def _canonical_stacks(ctx: DeltaContext, groups: list[tuple[np.ndarray, np.ndarray]]):
    """Canonical forms of direct sums of options, one option per group.

    Each group is (flat, dims): independent rows spanning each of its
    options, stacked in one matrix, and the row count of each.  The groups'
    rows go into one stack in the field's narrowest dtype, and their index
    tables (:func:`_row_table`) are built once.  Returns
    ``stacks(combos)``: for an (N, len(groups)) array of option indices,
    one code per row, it yields (idx, R) once per code dimension, the codes
    idx of that dimension gathered by index and reduced by one
    :func:`linalg.rref_batch`, which bounds its own blocks.  The sum is
    checked to be direct (rank == dimension).
    """
    every_row = np.concatenate([flat for flat, _ in groups]).astype(ctx.field_q.vdtype)
    offsets = np.cumsum([0] + [len(flat) for flat, _ in groups])
    tables = [_row_table(dims, off) for (_, dims), off in zip(groups, offsets)]

    def stacks(combos: np.ndarray):
        code_dim = sum(dims[combos[:, g]] for g, (_, dims) in enumerate(groups))
        for dim in sorted(set(code_dim.tolist())):
            idx = np.flatnonzero(code_dim == dim)
            at = np.concatenate([tab[combos[idx, g]] for g, tab in enumerate(tables)], axis=1)
            R, ranks = linalg.rref_batch(ctx.field_q,
                                         every_row[at[at >= 0].reshape(len(idx), dim)])
            assert (ranks == dim).all(), "component sum must be direct"
            yield idx, R

    return stacks


def enumerate_codes(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                    complete: bool = False):
    """All cyclic self-orthogonal ("so") or self-dual ("sd") codes, exactly once.

    Yields canonical AdditiveCode values; every emitted code passes the
    direct orthogonality check, and a canonical-form dedup guards against
    double emission (it must never fire).  ``complete`` is forwarded to
    :func:`subcode_options` (see there: the default follows the published
    case lists, complete=True adds the verified omitted identity-class
    option for odd q).  A profile is a vector of option indices, one per
    mu-fixed class (in class order, options as :func:`subcode_options`
    lists them) and one per transposed pair (as :func:`pair_options` lists
    them); profiles are taken in product order a bounded chunk at a time,
    so the generator stays lazy per chunk.
    """
    ctx, mode = _checked_context(n, q, mode, ctx)
    tab = ctx.table
    groups = []
    singles = [0] + ([tab.i_sharp] if tab.i_sharp is not None else []) + list(tab.fixed)
    _check_list_lengths(ctx, mode, singles + list(tab.paired))
    for i in sorted(singles):
        stack = component_stack(i, _fixed_options(i, ctx, complete)[0][:, None], ctx)
        flat, dims = _reduced(ctx.field_q, stack)
        groups.append((flat, np.concatenate([[0], dims]) if mode == "so" else dims))
    for j in tab.paired:
        pairs, ((flat_j, dims_j), (flat_mu, dims_mu)), _ = _pairs(j, mode, ctx)
        a, b = np.array(pairs).T
        at = np.concatenate([_row_table(dims_j)[a], _row_table(dims_mu, len(flat_j))[b]], axis=1)
        groups.append((np.concatenate([flat_j, flat_mu])[at[at >= 0]], dims_j[a] + dims_mu[b]))
    stacks = _canonical_stacks(ctx, groups)
    profiles = itertools.product(*(range(len(dims)) for _, dims in groups))
    # profiles per batch: as many n*t x n*t matrices as fit in RREF_BLOCK
    chunk = max(1, linalg.RREF_BLOCK // (n * 2) ** 2)
    seen = set()
    while batch := list(itertools.islice(profiles, chunk)):
        out = [None] * len(batch)
        for idx, R in stacks(np.array(batch)):
            _, dim, width = R.shape
            assert mode == "so" or 2 * dim == width, "self-dual codes have dimension t*n/2"
            if dim:
                G = ctx.gram_apply(R.reshape(-1, width)).reshape(R.shape)
                M = linalg.matmul(ctx.field_q, G, R.transpose(0, 2, 1))
                assert not M.any(), "assembled profile failed the direct orthogonality check"
            for b, k in enumerate(idx):
                out[k] = AdditiveCode(ctx, R[b])
        for code in out:
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


def _full_block_hits(ctx: DeltaContext) -> np.ndarray:
    """hits[i, j]: the Gram block [J_i, J_j] of the whole components is
    nonzero, read off one product of the stacked F_q-bases of all the J_i
    (:func:`_full_rows`).  Where it is zero, so is the block of every pair
    of their subspaces."""
    full = [_full_rows(i, ctx) for i in range(ctx.table.num_classes)]
    rows, sizes = np.concatenate(full), np.array([len(f) for f in full])
    return _block_nonzero(ctx.pair_matrix(rows, rows), sizes, sizes)


def _components(hits: np.ndarray) -> list[tuple[int, ...]]:
    """The classes linked by a nonzero block hits[i, j], i != j, in either
    order, as connected components: single classes and pairs.  A larger
    component raises TooLargeError."""
    linked = (hits | hits.T) & ~np.eye(len(hits), dtype=bool)
    comps = []
    for i, row in enumerate(linked):
        others = np.flatnonzero(row).tolist()
        if len(others) > 1:
            raise TooLargeError(f"class {i} interacts with classes {others}; the oracle "
                                "factorises over single classes and pairs only")
        if not others or i < others[0]:
            comps.append((i, *others))
    return comps


def _self_ok(fq: gf.Field, flat: np.ndarray, dims: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """ok[a]: the Gram block of choice a with itself is zero, for the rows
    ``flat`` of a class's choices, their row counts and their Gram rows; one
    batched product per row count."""
    ok, rows_of = np.ones(len(dims), dtype=bool), _row_table(dims)
    for r in sorted(set(dims.tolist()) - {0}):
        idx = np.flatnonzero(dims == r)
        at = rows_of[idx, :r]   # the rows of each choice
        ok[idx] = ~linalg.matmul(fq, gram[at], flat[at].transpose(0, 2, 1)).any(axis=(1, 2))
    return ok


def _cross_bad(i: int, j: int, fq: gf.Field, groups, gram) -> np.ndarray:
    """bad[a, b]: the Gram block of choice a of class i with choice b of
    class j is nonzero, from one product of all class-i Gram rows with all
    class-j rows."""
    (_, dims_i), (flat_j, dims_j) = groups[i], groups[j]
    return _block_nonzero(linalg.matmul(fq, gram[i], flat_j.T), dims_i, dims_j)


def _oracle_scan(ctx: DeltaContext):
    """The class rows of :func:`brute_force_oracle`, (flat, dims) in the
    field's narrowest dtype, the combinations (N, classes) of choice
    indices whose Gram blocks all vanish, and the dimension of each; built
    once per context, in ``ctx.derived``, for both modes.  A class's rows
    are the spanning rows of its choices (:func:`_choice_rows`): zero, J_i
    and the lines of P^1(K_i) over the basis {f_i, g * f_i}, each line
    spanned by the shifts of one vector, with no primitive element and no
    group-algebra product.  They are never reduced: whether a Gram block
    vanishes does not depend on the rows that span the choices, and each
    accepted code is reduced once, when it is assembled.  Their Gram rows
    are rolled from those of the lines' vectors (:func:`_choice_gram`), and
    every block test is a direct product of Gram rows by rows."""
    if "oracle_scan" in ctx.derived:
        return ctx.derived["oracle_scan"]
    tab, fq = ctx.table, ctx.field_q
    hits = _full_block_hits(ctx)
    comps = _components(hits)
    sizes = [ctx.q ** d + 3 for d in tab.d]
    for comp in comps:
        size = math.prod(sizes[i] for i in comp)
        if size > CHOICE_LIMIT:
            raise TooLargeError(f"a table of {size} choices of classes {list(comp)} exceeds "
                                f"the choice limit {CHOICE_LIMIT}")
    groups = [_choice_rows(i, ctx) for i in range(tab.num_classes)]
    gram = [_choice_gram(ctx, flat, dims) if hits[i].any() else None
            for i, (flat, dims) in enumerate(groups)]
    ok = [_self_ok(fq, flat, dims, gram[i]) if hits[i, i] else np.ones(len(dims), dtype=bool)
          for i, (flat, dims) in enumerate(groups)]
    accepted = []
    for comp in comps:
        table = ok[comp[0]]
        if len(comp) == 2:
            i, j = comp
            table = ok[i][:, None] & ok[j]
            if hits[i, j]:
                table &= ~_cross_bad(i, j, fq, groups, gram)
            if hits[j, i]:
                table &= ~_cross_bad(j, i, fq, groups, gram).T
        accepted.append(np.argwhere(table))
    count = math.prod(len(acc) for acc in accepted)
    if count > CHOICE_LIMIT:
        raise TooLargeError(f"{count} codes pass the block tests, over the choice limit "
                            f"{CHOICE_LIMIT}")
    pick = np.indices([len(acc) for acc in accepted]).reshape(len(accepted), -1)
    combos = np.empty((count, tab.num_classes), dtype=np.intp)
    for comp, acc, at in zip(comps, accepted, pick):
        combos[:, list(comp)] = acc[at]
    code_dim = sum(dims[combos[:, i]] for i, (_, dims) in enumerate(groups))
    scan = groups, combos, code_dim
    ctx.derived["oracle_scan"] = scan
    return scan


def brute_force_oracle(n: int, q: int, mode: str, ctx: DeltaContext | None = None):
    """Independent check: test ALL cyclic codes for orthogonality directly.

    Every cyclic code is a direct sum of arbitrary K_i-subspaces of the J_i,
    one choice per class, and its Gram matrix is the block matrix of the
    pairwise blocks [rows_i(a), rows_j(b)].  The subspaces are listed from
    the K_i-basis {f_i, g * f_i} of J_i and spanned by cyclic shifts, with
    no primitive element, no power of one and no ring product, so the
    oracle does not share the enumeration's listing.  A block vanishes
    wherever [J_i, J_j] does, so the interaction graph is read off the full
    blocks (:func:`_full_block_hits`), never from mu.  Each choice's own block is
    tested where [J_i, J_i] is nonzero, and a table over the choice pairs
    (a, b) is built, by one product of all class-i Gram rows with all
    class-j rows, only for the ordered pairs (i, j) whose full block is
    nonzero.  The accepted combinations are the product of the accepted
    choices of each connected component, one class or a pair (a larger one
    raises TooLargeError); for "sd" those of dimension t*n/2.  Both modes
    share one scan per context (:func:`_oracle_scan`), which tests the
    choices' spanning rows as built and reduces none of them.  Every
    accepted combination is checked to be a direct sum and put in canonical
    form, its rows gathered by index from one stack of all class rows and
    reduced once.  Returns (count, set of canonical keys).
    """
    ctx, mode = _checked_context(n, q, mode, ctx)
    groups, combos, code_dim = _oracle_scan(ctx)
    if mode == "sd":
        combos = combos[code_dim == n]  # t*n/2, with t = 2
    matched = set()
    for _, R in _canonical_stacks(ctx, groups)(combos):
        matched.update(zip(itertools.repeat(R.shape[1:]), _matrix_bytes(R)))
    return len(combos), matched


def _matrix_bytes(R: np.ndarray) -> list[bytes]:
    """The bytes of each matrix of a C-contiguous stack (N, r, c), from one
    view of each as a single void scalar."""
    if not R[0].nbytes:
        return [b""] * len(R)
    return R.reshape(len(R), -1).view(np.dtype((np.void, R[0].nbytes))).ravel().tolist()


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
