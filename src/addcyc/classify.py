"""Classification of cyclic self-orthogonal and self-dual codes at t = 2.

A cyclic F_q-linear code over GF(q^2) splits across the minimal-ideal
components J_i; self-orthogonality constrains each component independently
(fixed classes of the negation involution mu) or in pairs (transposed
classes).  This module enumerates the component choices:

* fixed classes get the closed-form option lists (exponent progressions of
  the designated primitive elements, plus idempotent bases for the split
  orientation);
* transposed pairs are enumerated from first principles: for each choice on
  one side, the orthogonal partner subspace on the other side is computed by
  exact linear algebra and validated by a direct orthogonality check.

The closed-form counting formulas are kept alongside, and an independent
brute-force oracle enumerates every cyclic code by choosing arbitrary
K_i-subspaces per component and testing orthogonality directly, which is the
ground truth the formulas and the enumeration are compared against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import codes as codes_mod
from . import linalg
from .bilinear import DeltaContext, context
from .codes import AdditiveCode
from .errors import InvalidParameterError, TooLargeError
from .ring import GroupAlgebraElement


@dataclass(frozen=True)
class SubcodeChoice:
    """One admissible component subspace C_i of J_i.

    ``kind`` is "zero", "full" or "dim1"; for dim1 the K_i-basis vector and a
    human-readable label (e.g. "e0+rho1^28") are carried along.
    """

    index: int
    kind: str
    vector: GroupAlgebraElement | None = None
    label: str = ""


def _require_t2(ctx: DeltaContext):
    if ctx.t != 2:
        raise InvalidParameterError("classification is implemented for t = 2 only")


# ---------------------------------------------------------------------------
# component subspaces as row blocks
# ---------------------------------------------------------------------------

def component_rows(choice: SubcodeChoice, ctx: DeltaContext) -> np.ndarray:
    """F_q-expanded basis rows of the chosen component subspace."""
    atlas = ctx.atlas
    i = choice.index
    if choice.kind == "zero":
        return np.zeros((0, ctx.n * ctx.t), dtype=np.int64)
    if choice.kind == "full":
        span = atlas.j_spanning(i)
        rows = [v.scale(x) for v in span for x in ctx.fq_basis]
    else:
        rows = [kappa * choice.vector for kappa in atlas.k_basis(i)]
    sym = np.array([r.coeffs for r in rows], dtype=np.int64)
    return ctx.expand(sym)


def _reduced_component(choice: SubcodeChoice, ctx: DeltaContext) -> np.ndarray:
    R, piv = linalg.rref(ctx.field_q, component_rows(choice, ctx))
    return R[: len(piv)]


def one_dim_subspaces(i: int, ctx: DeltaContext):
    """All 1-dimensional K_i-subspaces of J_i, as SubcodeChoice values.

    For an unsplit class (s_i = 1) the ideal is a field and the projective
    representatives are rho^k, 0 <= k <= q^(d_i); for a split class the
    representatives are the two idempotents and e_0 + rho_1^k,
    0 <= k <= q^(d_i) - 2.
    """
    atlas = ctx.atlas
    tab = atlas.table
    q = ctx.q
    s_i, d_i = tab.s[i], tab.d[i]
    out = []
    if s_i == 1:
        rho = atlas.rho(i, 0)
        e = atlas.idempotent(i, 0)
        cur = e
        for k in range(q ** d_i + 1):
            out.append(SubcodeChoice(i, "dim1", cur, f"rho{i}^{k}"))
            cur = cur * rho
    else:
        e0, e1 = atlas.idempotent(i, 0), atlas.idempotent(i, 1)
        rho1 = atlas.rho(i, 1)
        out.append(SubcodeChoice(i, "dim1", e0, f"e{i},0"))
        out.append(SubcodeChoice(i, "dim1", e1, f"e{i},1"))
        cur = e1
        for k in range(q ** d_i - 1):
            out.append(SubcodeChoice(i, "dim1", e0 + cur, f"e{i},0+rho{i},1^{k}"))
            cur = cur * rho1
    return out


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
    _require_t2(ctx)
    mode = mode.lower()
    if mode not in ("so", "sd"):
        raise InvalidParameterError(f"mode must be 'so' or 'sd', got {mode!r}")
    atlas = ctx.atlas
    tab = atlas.table
    q = ctx.q
    if tab.mu[i] != i:
        raise InvalidParameterError(f"class {i} is paired; use pair_options")
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
    d_i = tab.d[i]
    half = q ** (d_i // 2)
    e0 = atlas.idempotent(i, 0)
    e1 = atlas.idempotent(i, 1)
    rho1 = atlas.rho(i, 1)
    if atlas.tau_orientation[i] == "fixes":
        step = rho1.pow_with_identity(half - 1, e1)
        cur = e1
        for _ in range(half + 1):
            opts.append(SubcodeChoice(i, "dim1", e0 + cur, "e0+rho1^k"))
            cur = cur * step
    else:
        opts.append(SubcodeChoice(i, "dim1", e0, f"e{i},0"))
        opts.append(SubcodeChoice(i, "dim1", e1, f"e{i},1"))
        step = rho1.pow_with_identity(half + 1, e1)
        cur = e1
        for _ in range(half - 1):
            opts.append(SubcodeChoice(i, "dim1", e0 + cur, "e0+rho1^k"))
            cur = cur * step
    return opts


# ---------------------------------------------------------------------------
# transposed pairs: orthogonal partners by exact linear algebra
# ---------------------------------------------------------------------------

def _partner_subspace(rows_j: np.ndarray, full_mu: np.ndarray, ctx: DeltaContext) -> np.ndarray:
    """Basis rows of {v in J_mu : [c, v] = 0 = [v, c] for all c in the span of rows_j}.

    ``full_mu`` is the reduced basis of the whole component J_mu.
    """
    if rows_j.shape[0] == 0:
        return full_mu
    fq = ctx.field_q
    A1 = linalg.matmul(fq, ctx.gram_apply(rows_j), full_mu.T)
    A2 = linalg.matmul(fq, ctx.gram_apply_t(rows_j), full_mu.T)
    N = linalg.nullspace(fq, np.concatenate([A1, A2], axis=0))
    if N.shape[0] == 0:
        return np.zeros((0, ctx.n * ctx.t), dtype=np.int64)
    return linalg.row_space(fq, linalg.matmul(fq, N, full_mu))


def pair_options(j: int, mode: str, ctx: DeltaContext):
    """Admissible (C_j, C_mu(j)) pairs for a transposed class pair.

    Every pair is backed by an exact orthogonality computation; for "sd" the
    K-dimensions must additionally sum to 2.
    """
    _require_t2(ctx)
    atlas = ctx.atlas
    tab = atlas.table
    mu_j = tab.mu[j]
    d_fq = tab.d[j]  # F_q-dimension of a 1-dim K-subspace
    side_j = all_subspace_choices(j, ctx)
    side_mu = all_subspace_choices(mu_j, ctx)
    mu_rows = {id(c): _reduced_component(c, ctx) for c in side_mu}
    pairs = []
    zero_mu = side_mu[0]
    full_mu = side_mu[1]
    for cj in side_j:
        rows_j = _reduced_component(cj, ctx)
        if cj.kind == "zero":
            targets = side_mu if mode == "so" else [full_mu]
        elif cj.kind == "full":
            targets = [zero_mu]
        else:
            partner = _partner_subspace(rows_j, mu_rows[id(full_mu)], ctx)
            assert partner.shape[0] == d_fq, \
                "orthogonal partner of a 1-dim component must be 1-dim over K"
            key = (partner.shape, partner.tobytes())
            match = [c for c in side_mu
                     if (mu_rows[id(c)].shape, mu_rows[id(c)].tobytes()) == key]
            assert len(match) == 1, "partner subspace must be one of the listed subspaces"
            targets = ([zero_mu, match[0]] if mode == "so" else [match[0]])
        pairs.extend((cj, t) for t in targets)
    return pairs


# ---------------------------------------------------------------------------
# enumeration, counting, oracle
# ---------------------------------------------------------------------------

def enumerate_codes(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                    complete: bool = False):
    """All cyclic self-orthogonal ("so") or self-dual ("sd") codes, exactly once.

    Yields canonical AdditiveCode values; every emitted code passes the
    direct orthogonality check, and a canonical-form dedup guards against
    double emission (it must never fire).  ``complete`` is forwarded to
    :func:`subcode_options` (see there: the default follows the published
    case lists, complete=True adds the verified omitted identity-class
    option for odd q).
    """
    ctx = ctx or context(n, q, 2)
    _require_t2(ctx)
    mode = mode.lower()
    atlas = ctx.atlas
    tab = atlas.table
    blocks: list[list[tuple[SubcodeChoice, ...]]] = []
    singles = [0] + ([tab.i_sharp] if tab.i_sharp is not None else []) + list(tab.fixed)
    for i in sorted(singles):
        blocks.append([(c,) for c in subcode_options(i, mode, ctx, complete)])
    for j in tab.paired:
        blocks.append(pair_options(j, mode, ctx))
    # a component's rows depend only on its choice: reduce each once
    choices = dict.fromkeys(c for block in blocks for group in block for c in group)
    reduced = {c: _reduced_component(c, ctx) for c in choices}
    empty = np.zeros((0, n * 2), dtype=np.int64)
    seen = set()
    for profile in itertools.product(*blocks):
        rows = [reduced[c] for group in profile for c in group]
        code = AdditiveCode.from_expansion(ctx, np.concatenate([empty] + rows, axis=0))
        ok = (codes_mod.is_self_dual(code, ctx) if mode == "sd"
              else codes_mod.is_self_orthogonal(code, ctx))
        assert ok, "assembled profile failed the direct orthogonality check"
        key = code.key()
        assert key not in seen, "profile enumeration emitted a duplicate subspace"
        seen.add(key)
        yield code


def count_codes(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                complete: bool = False) -> int:
    """Closed-form count of cyclic self-orthogonal / self-dual codes (t = 2).

    Exact integer arithmetic.  The default evaluates the published formulas
    (a' * prod(q^(d_i/2)+2) * prod(3q^(d_j)+b') for "so" with a' = 2 or 4 and
    b' = 6 or 2 by the parity of d_j; prod(q^(d_i/2)+1) * prod(q^(d_j)+b')
    for "sd" with b' = 3 or 1).  ``complete=True`` evaluates the corrected
    count that the enumeration and the brute-force oracle verify: each
    identity class contributes one more option when q is odd, and a
    transposed pair contributes 3q^(d_j)+6 ("so") / q^(d_j)+3 ("sd")
    regardless of the parity of d_j.
    """
    ctx = ctx or context(n, q, 2)
    _require_t2(ctx)
    mode = mode.lower()
    tab = ctx.atlas.table
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
    if mode == "sd":
        per_identity = 2 if (complete and q % 2 == 1) else 1
        total = per_identity ** n_identity
        for i in tab.fixed:
            total *= q ** (tab.d[i] // 2) + 1
        for j in tab.paired:
            b = 3 if (complete or tab.d[j] % 2) else 1
            total *= q ** tab.d[j] + b
        return total
    raise InvalidParameterError(f"mode must be 'so' or 'sd', got {mode!r}")


def brute_force_oracle(n: int, q: int, mode: str, ctx: DeltaContext | None = None,
                       *, limit: int = 1_000_000):
    """Independent check: scan ALL cyclic codes and test orthogonality directly.

    Every cyclic code is a direct sum of arbitrary K_i-subspaces of the J_i;
    the scan assembles each combination and applies the Gram-matrix
    orthogonality test, independent of the classification case lists.  Returns
    (count, set of canonical keys).
    """
    ctx = ctx or context(n, q, 2)
    _require_t2(ctx)
    mode = mode.lower()
    tab = ctx.atlas.table
    sizes = [q ** d + 3 for d in tab.d]
    total = 1
    for s in sizes:
        total *= s
    if total > limit:
        raise TooLargeError(f"{total} cyclic codes exceed the oracle limit {limit}")
    per_class = [[_reduced_component(c, ctx) for c in all_subspace_choices(i, ctx)]
                 for i in range(tab.num_classes)]
    per_gram = [[ctx.gram_apply(rows) for rows in cls] for cls in per_class]
    fq = ctx.field_q
    prime = fq.m == 1
    matched = set()
    count = 0
    target_dim = n  # t*n/2, with t = 2
    checked_direct_sum = 0
    ranges = [range(len(cls)) for cls in per_class]
    for combo in itertools.product(*ranges):
        blocks = [per_class[i][c] for i, c in enumerate(combo)]
        dim = sum(b.shape[0] for b in blocks)
        if mode == "sd" and dim != target_dim:
            continue
        rows = np.concatenate(blocks, axis=0)
        grows = np.concatenate([per_gram[i][c] for i, c in enumerate(combo)], axis=0)
        M = (grows @ rows.T) % fq.p if prime else linalg.matmul(fq, grows, rows.T)
        if M.any():
            continue
        code = AdditiveCode.from_expansion(ctx, rows)
        if checked_direct_sum < 64:
            assert code.k == dim, "component sum must be direct"
            checked_direct_sum += 1
        count += 1
        matched.add(code.key())
    return count, matched


def good_code_report(n: int, q: int, ctx: DeltaContext | None = None, *,
                     budget: int = codes_mod.EXHAUSTIVE_BUDGET,
                     samples: int = codes_mod.SAMPLE_COUNT,
                     seed: int = codes_mod.SAMPLE_SEED,
                     mode: str = "so", limit: int | None = None) -> list[dict]:
    """Records for the classified codes with (exact or bounded) min distances.

    Sorted by (k ascending, d descending, canonical key); the zero code is
    reported with d = None.
    """
    ctx = ctx or context(n, q, 2)
    out = []
    for idx, code in enumerate(enumerate_codes(n, q, mode, ctx)):
        if limit is not None and idx >= limit:
            break
        if code.k == 0:
            rec = codes_mod.code_record(code)
        else:
            d, exact = codes_mod.min_distance(code, budget=budget,
                                              samples=samples, seed=seed)
            rec = codes_mod.code_record(code, d=d, d_exact=exact)
        rec["basis_key"] = "|".join(",".join(r) for r in rec["basis"])
        out.append(rec)
    out.sort(key=lambda r: (r["k_fq"], -(r["d"] or 0), r["basis_key"]))
    for r in out:
        r.pop("basis_key")
    return out
