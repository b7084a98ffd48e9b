"""The twisted trace bilinear form on GF(q^t)^n and on the group algebra.

Two deliberately independent implementations are kept side by side:

* ``delta_inner`` evaluates the defining sum
  (a, b) = sum_j Tr_{q,t}(gamma * a_j * psi(b_j^(q^(t/2)))) position by
  position, producing a scalar in F_q;
* ``delta_form`` evaluates the polynomial-valued expression
  [a, b] = sum_u tau_{q^u,1}(gamma * a(X) * sum_w tau_{q^(t/2+w),-1}(b(X)))
  inside the group algebra, producing an element with F_q coefficients.

The coefficient of X^k in the second equals (a, sigma^k(b)) under the first,
which the test suite exercises as the master cross-check between the two.

The context also holds the coordinate expansion GF(q^t)^n = F_q^(tn) and
the t x t block Gram matrix of the form, which back the vectorised bulk
operations the code layers run on.  The expansion is F_p-linear on base-p
digits and builds no table of GF(q^t): over a prime field the coordinates in
the basis 1, g, ..., g^(t-1) are the digits themselves (g = x), and over
GF(p^e), e > 1, one change of basis maps them to groups of e digits, each
packed into an element of F_q.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from . import gf, linalg
from .errors import CoercionError, FieldMismatchError, LengthMismatchError
from .ring import GroupAlgebraElement, cyclic_ring
from .structure import build_atlas, build_coset_table, check_field_order, check_parameters


class DeltaContext:
    """Ambient data for the twisted trace form on GF(q^t)^n.

    Holds the two fields, the twist element gamma, the embedding of F_q in
    GF(q^t), the change of basis of the F_q coordinate expansion, the coset
    table, and (lazily) the ideal atlas for the same parameters, which
    shares that table (``ctx.table is ctx.atlas.table``).  Only the atlas
    needs the splitting field of X^n - 1; nothing else holds an array with
    q or q^t entries.
    """

    def __init__(self, n: int, q: int, t: int = 2, *, paper: bool = False):
        p, e = check_parameters(n, q, t)
        gf._check_t(t, p)
        check_field_order(q, t)
        self.n, self.q, self.t = n, q, t
        self.p, self.e = p, e
        self.paper = paper
        self.field_q = gf.field(p, e, paper=paper)
        self.field_qt = gf.field(p, e * t, paper=paper)
        self.gamma = gf.find_gamma(self.field_qt, q)
        self.ring = cyclic_ring(self.field_qt, n)
        self.ring_q = cyclic_ring(self.field_q, n)
        self._embed_q = gf.subfield_map(self.field_q, self.field_qt)
        self.table = build_coset_table(n, q, t)
        self._build_expansion()
        self._build_gram()
        self._atlas = None
        #: what other layers derive from this context alone, by name, built
        #: once per context (the oracle's class rows and block tests)
        self.derived = {}

    # -- lazy atlas ---------------------------------------------------------------

    @property
    def atlas(self):
        if self._atlas is None:
            self._atlas = build_atlas(self.n, self.q, self.t, paper=self.paper)
        return self._atlas

    # -- F_q coordinates on GF(q^t) -------------------------------------------------

    def _build_expansion(self):
        """The F_q-basis g^0, ..., g^(t-1) of GF(q^t) and its change of basis
        on base-p digits."""
        fqt = self.field_qt
        # the generator g is primitive, so its minimal polynomial over F_q has
        # degree t and 1, g, ..., g^(t-1) are F_q-independent
        self.fq_basis = [fqt.pow(fqt.generator, s) for s in range(self.t)]
        self._basis = self._basis_matrix()
        if self.e == 1:
            # over a prime field g = x, so the basis is the polynomial basis
            assert (self._basis == np.eye(self.t)).all()
        else:
            self._Minv = linalg.inverse(gf.field(self.p), self._basis)
            assert self._Minv is not None, "1, g, ..., g^(t-1) must be an F_q-basis of GF(q^t)"

    def _basis_matrix(self) -> np.ndarray:
        """Columns are the digits of embed(w_u) * g^s, s < t, u < e, for the
        F_p basis w_u = x^u of F_q."""
        fqt = self.field_qt
        w = fqt.vencode(self._embed_q.matrix)
        return np.array([fqt.decode(fqt.mul(int(w_u), g_s))
                         for g_s in self.fq_basis for w_u in w], dtype=np.int64).T

    def expand(self, symbols) -> np.ndarray:
        """GF(q^t) symbol array (..., n) -> F_q coordinate array (..., n*t).

        Over a prime field the coordinates are the base-p digits; over
        GF(p^e), e > 1, the digits go through the change of basis and each
        group of e of them is packed into an element of F_q."""
        arr = np.asarray(symbols, dtype=np.int64)
        order = self.field_qt.order
        if arr.ndim == 0 or (arr.size and (arr.min() < 0 or arr.max() >= order)):
            raise CoercionError(f"symbols must be an array of GF({order}) "
                                f"elements in [0, {order})")
        out = self.field_qt.vdigits(arr)      # (..., n, e*t)
        if self.e > 1:
            coords = out @ self._Minv.T % self.p
            out = self.field_q.vencode(coords.reshape(arr.shape + (self.t, self.e)))
        return out.reshape(arr.shape[:-1] + (arr.shape[-1] * self.t,))

    def compress(self, coords) -> np.ndarray:
        """F_q coordinate array (..., n*t) -> GF(q^t) symbol array (..., n),
        the inverse of :meth:`expand`."""
        arr = np.asarray(coords, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.q):
            raise CoercionError(f"F_q coordinates must lie in [0, {self.q})")
        if arr.ndim == 0 or arr.shape[-1] % self.t:
            raise CoercionError(f"the last axis must hold t = {self.t} coordinates "
                                f"per symbol; got shape {arr.shape}")
        digits = arr.reshape(arr.shape[:-1] + (-1, self.t))
        if self.e > 1:
            coords_p = self.field_q.vdigits(digits).reshape(digits.shape[:-1] + (-1,))
            digits = coords_p @ self._basis.T % self.p
        return self.field_qt.vencode(digits)

    def retract_scalar(self, y):
        return self._embed_q.retract(y)

    def embed_scalar(self, c):
        return self._embed_q.embed(c)

    def lift_to_big_ring(self, a: GroupAlgebraElement) -> GroupAlgebraElement:
        """R_n over F_q -> R_n over F_{q^t}, embedding coefficients."""
        return self.ring.element(self._embed_q.embed(np.array(a.coeffs)))

    # -- Gram data -------------------------------------------------------------------

    def _build_gram(self):
        """t x t position-block Gram matrix of the form, over F_q."""
        vals = [[self._inner_term(x, y) for y in self.fq_basis] for x in self.fq_basis]
        self.gram_block = self.retract_scalar(np.array(vals))

    def _inner_term(self, x: int, y: int) -> int:
        """Tr_{q,t}(gamma * x * psi(y^(q^(t/2)))) as an element of GF(q^t)."""
        fqt = self.field_qt
        q, t = self.q, self.t
        conj = fqt.pow(y, q ** (t // 2))
        val = fqt.mul(self.gamma, fqt.mul(x, gf.psi(conj, fqt, q)))
        return fqt.trace_map(val, q, t)

    def gram_apply(self, B_exp: np.ndarray, gram: np.ndarray | None = None) -> np.ndarray:
        """Right-multiply each position block of B_exp by the Gram block."""
        G = self.gram_block if gram is None else gram
        B = np.asarray(B_exp, dtype=np.int64)
        rows = B.shape[0]
        if rows == 0:
            return B.copy()
        blocks = B.reshape(-1, self.t)
        return linalg.matmul(self.field_q, blocks, G).reshape(rows, -1)

    def gram_apply_t(self, B_exp: np.ndarray) -> np.ndarray:
        """Like gram_apply but with the transposed block (the reversed-argument form)."""
        return self.gram_apply(B_exp, self.gram_block.T)

    def pair_matrix(self, A_exp: np.ndarray, B_exp: np.ndarray) -> np.ndarray:
        """Matrix of form values between the rows of two F_q-expanded matrices."""
        return linalg.matmul(self.field_q, self.gram_apply(A_exp), np.asarray(B_exp).T)


def _coerce_vector(v, ctx: DeltaContext) -> tuple[int, ...]:
    if isinstance(v, GroupAlgebraElement):
        if v.ring.field is not ctx.field_qt:
            raise FieldMismatchError("vector over a different field")
        return v.coeffs
    coeffs = tuple(v)
    order = ctx.field_qt.order
    if not all(isinstance(c, numbers.Integral) and 0 <= c < order for c in coeffs):
        raise CoercionError(f"vector entries must be integers in [0, {order})")
    return tuple(int(c) for c in coeffs)


def delta_inner(a, b, ctx: DeltaContext) -> int:
    """The scalar form (a, b) in F_q, via the defining trace sum."""
    av = _coerce_vector(a, ctx)
    bv = _coerce_vector(b, ctx)
    if len(av) != len(bv):
        raise LengthMismatchError(f"lengths differ: {len(av)} vs {len(bv)}")
    fqt = ctx.field_qt
    total = 0
    for x, y in zip(av, bv):
        total = fqt.add(total, ctx._inner_term(x, y))
    return ctx.retract_scalar(total)


def delta_form(a: GroupAlgebraElement, b: GroupAlgebraElement,
               ctx: DeltaContext) -> GroupAlgebraElement:
    """The algebra-valued form [a, b], an element of R_n over F_q."""
    if a.ring.n != b.ring.n:
        raise LengthMismatchError("operands of different length")
    q, t = ctx.q, ctx.t
    inner = ctx.ring.zero()
    for w in range(1, t):
        inner = inner + b.tau(q ** (t // 2 + w), -1)
    prod = (a * inner).scale(ctx.gamma)
    acc = ctx.ring.zero()
    for u in range(t):
        acc = acc + prod.tau(q ** u, 1)
    return ctx.ring_q.element(ctx.retract_scalar(np.array(acc.coeffs)))


def module_law_check(f: GroupAlgebraElement, a: GroupAlgebraElement,
                     b: GroupAlgebraElement, ctx: DeltaContext) -> bool:
    """Both module laws of the algebra form, for f with F_q coefficients.

    [f a, b] = f [a, b] and [a, f b] = tau_{1,-1}(f) [a, b].
    """
    f_big = ctx.lift_to_big_ring(f)
    base = delta_form(a, b, ctx)
    left = delta_form(f_big * a, b, ctx)
    if left != f * base:
        return False
    right = delta_form(a, f_big * b, ctx)
    return right == f.tau(1, -1) * base


def component_split_check(a: GroupAlgebraElement, b: GroupAlgebraElement,
                          ctx: DeltaContext) -> bool:
    """[a, b] equals the sum over components of [a_i, b_mu(i)]; cross terms vanish."""
    atlas = ctx.atlas
    tab = atlas.table
    comps_a = [atlas.project(a, i) for i in range(tab.num_classes)]
    comps_b = [atlas.project(b, i) for i in range(tab.num_classes)]
    total = ctx.ring_q.zero()
    for i in range(tab.num_classes):
        total = total + delta_form(comps_a[i], comps_b[tab.mu[i]], ctx)
        for j in range(tab.num_classes):
            if j != tab.mu[i]:
                if not delta_form(comps_a[i], comps_b[j], ctx).is_zero():
                    return False
    return total == delta_form(a, b, ctx)


@functools.lru_cache(maxsize=None)
def context(n: int, q: int, t: int = 2, *, paper: bool = False) -> DeltaContext:
    """Cached DeltaContext constructor (the common entry point)."""
    return DeltaContext(n, q, t, paper=paper)
