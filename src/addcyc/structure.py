"""Cyclotomic cosets and the minimal-ideal structure of F_q[X]/(X^n - 1).

For gcd(n, q) = 1 the group algebras R_n over F_q and over F_{q^t} are
semisimple and split into minimal ideals indexed by cyclotomic cosets.  The
IdealAtlas bundles everything downstream layers need: the cosets with their
dimension data, the negation-induced involution mu on coset indices, the
irreducible factors of X^n - 1 over both fields, the primitive idempotents
of the minimal ideals, designated primitive elements of each ideal-as-field,
and the orientation of the ideals under the coefficient-conjugating
automorphisms tau.

The idempotents come from the same pinned root eta' as the factors, by one
inverse discrete Fourier transform (:func:`polyring.idempotents`): e_{i,j}
is 1 at the roots of M_{i,j} and 0 at the other n-th roots of unity, and the
J_i identity f_i = sum_j e_{i,j} is the transform of the whole q-coset.  No
polynomial is divided.  K_i, the small-algebra part of J_i, is
F_q[X]/(m_i) with f_i as its 1, spanned by X^k * f_i, k < d_i.

Each minimal ideal I_{i,j} of the big algebra is a finite field of
q^(t*D_i) elements: it is GF(q^t)[Y]/(M_{i,j}) through Y -> X * e_{i,j}.
The designated primitive element rho_{i,0} is the first h(X) * e_{i,0}
(deg h < D_i, in a fixed order) of order q^(t*D_i) - 1.  Its order is tested
on the value h(eta'^u), u in the subcoset (i, 0), in the splitting field:
evaluation there is an injective ring map of I_{i,0}, so it keeps orders.
Only the candidate that passes is multiplied out in the ring.  Primitive
elements of the sibling ideals are derived through tau so that
tau_{q^j,1}(rho_{i,0}) = rho_{i,j}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import InvalidParameterError, NotCoprimeError, NotInIdealError, TooLargeError
from .polyring import Poly, idempotents, minimal_poly, require_coprime, splitting_data
from .ring import GroupAlgebraElement, cyclic_ring

#: candidates in the first block of the primitive-element search; each later
#: block takes twice as many
RHO_BLOCK = 8


def _check_length(n: int, base: int):
    if n < 1:
        raise InvalidParameterError(f"length n = {n} must be >= 1")
    require_coprime(n, base)


def check_parameters(n: int, q: int, t: int) -> tuple[int, int]:
    """Validate the standing hypotheses on (n, q, t); returns (p, e) with q = p^e.

    Requires n >= 1, t >= 1, q a prime power and gcd(n, q) = 1.  The trace
    form additionally needs t even and t != 1 (mod p), see ``gf._check_t``.
    """
    if t < 1:
        raise InvalidParameterError(f"degree t = {t} must be >= 1")
    p, e = gf.prime_power(q)
    _check_length(n, q)
    return p, e


def check_field_order(q: int, t: int):
    """Refuse GF(q^t) above 2^63 elements, the bound of ``gf.Field.vmul``;
    counting builds no GF(q^t), so :func:`check_parameters` does not."""
    if q ** t > 2 ** 63:
        raise TooLargeError(f"GF({q}^{t}) has more than 2^63 elements")


def cyclotomic_cosets(n: int, base: int) -> list[tuple[int, ...]]:
    """All base-cyclotomic cosets mod n, sorted by least representative."""
    _check_length(n, base)
    seen = [False] * n
    cosets = []
    for l in range(n):
        if seen[l]:
            continue
        orbit = []
        k = l
        while not seen[k]:
            seen[k] = True
            orbit.append(k)
            k = (k * base) % n
        cosets.append(tuple(sorted(orbit)))
    assert sum(len(c) for c in cosets) == n
    return cosets


@dataclass(frozen=True)
class CosetTable:
    """Coset bookkeeping for length n with base cardinality q and degree t."""

    n: int
    q: int
    t: int
    cosets: tuple[tuple[int, ...], ...]        # q-cosets, by least representative
    reps: tuple[int, ...]                      # l_i = min of coset i
    d: tuple[int, ...]                         # d_i = |coset i|
    s: tuple[int, ...]                         # s_i = gcd(t, d_i)
    D: tuple[int, ...]                         # D_i = d_i / s_i
    subcosets: tuple[tuple[tuple[int, ...], ...], ...]  # q^t-cosets, j-indexed
    mu: tuple[int, ...]
    i_sharp: int | None
    fixed: tuple[int, ...]                     # fixed points of mu, excluding 0 and i_sharp
    paired: tuple[int, ...]                    # least index of each mu-transposition

    @property
    def num_classes(self) -> int:
        return len(self.cosets)

    def subindex_of(self, value: int) -> tuple[int, int]:
        value %= self.n
        for i, subs in enumerate(self.subcosets):
            for j, c in enumerate(subs):
                if value in c:
                    return i, j
        raise AssertionError("subcosets do not partition Z_n")


@functools.lru_cache(maxsize=None)
def build_coset_table(n: int, q: int, t: int) -> CosetTable:
    """The coset table of (n, q, t), built once per process (it is frozen)."""
    cosets = tuple(cyclotomic_cosets(n, q))
    cosets_qt = cyclotomic_cosets(n, pow(q, t, n) if n > 1 else q)
    by_value = {}
    for c in cosets_qt:
        for v in c:
            by_value[v] = c
    reps, d, s, D, subcosets = [], [], [], [], []
    for c in cosets:
        l = c[0]
        di = len(c)
        si = math.gcd(t, di)
        reps.append(l)
        d.append(di)
        s.append(si)
        D.append(di // si)
        subs = []
        for j in range(si):
            sub = by_value[(l * q ** j) % n]
            assert sub not in subs, "subcosets of one q-coset must be disjoint"
            assert len(sub) == di // si
            subs.append(sub)
        assert sorted(v for sub in subs for v in sub) == list(c)
        subcosets.append(tuple(subs))
    mu = []
    for i, c in enumerate(cosets):
        target = (-reps[i]) % n
        mu_i = next(k for k, ck in enumerate(cosets) if target in ck)
        mu.append(mu_i)
    assert mu[0] == 0
    assert all(mu[mu[i]] == i for i in range(len(cosets)))
    i_sharp = None
    if n % 2 == 0:
        i_sharp = next(i for i, c in enumerate(cosets) if c == (n // 2,))
        assert d[i_sharp] == 1 and s[i_sharp] == 1 and mu[i_sharp] == i_sharp
    fixed = tuple(i for i in range(len(cosets))
                  if mu[i] == i and i != 0 and i != i_sharp)
    paired = tuple(sorted(i for i in range(len(cosets)) if mu[i] > i))
    return CosetTable(n, q, t, cosets, tuple(reps), tuple(d), tuple(s), tuple(D),
                      tuple(subcosets), tuple(mu), i_sharp, fixed, paired)


def tau_ideal_image(table: CosetTable, w: int, u: int, ij: tuple[int, int]) -> tuple[int, int]:
    """Index of tau_{q^w,u}(I_{i,j}), computed purely from coset arithmetic."""
    n, q = table.n, table.q
    if math.gcd(u % n, n) != 1:
        raise NotCoprimeError(f"requires gcd(u, n) = 1; got u={u}, n={n}")
    i, j = ij
    l = (table.reps[i] * q ** j) % n
    u_inv = pow(u % n, -1, n)
    return table.subindex_of(l * u_inv * pow(q, w, n))


class IdealAtlas:
    """Ideal decomposition data for R_n over F_q and F_{q^t}; built by build_atlas."""

    def __init__(self, n, q, t, *, paper=False):
        p, e = check_parameters(n, q, t)
        check_field_order(q, t)
        self.n, self.q, self.t = n, q, t
        self.paper = paper
        self.field_q = field_q = gf.field(p, e, paper=paper)
        self.field_qt = field_qt = gf.field(p, e * t, paper=paper)
        self.ring = cyclic_ring(field_qt, n)
        self.table = build_coset_table(n, q, t)
        self.sd = splitting_data(n, field_qt, paper=paper)

        # irreducible factors over both fields, from the same splitting-field
        # root: the fine factors M_{i,j} are minimal polynomials over F_{q^t},
        # and the coarse factor m_i, whose roots are theirs, is their product
        # (M_{i,0} when s_i = 1), which keeps the coset <-> factor
        # associations of the two factorisations mutually consistent; its
        # retraction to F_q raises if a coefficient is not in F_q.
        self.M_poly: dict[tuple[int, int], Poly] = {
            (i, j): minimal_poly(sub, self.sd, field_qt)
            for i, subs in enumerate(self.table.subcosets) for j, sub in enumerate(subs)}
        to_q = gf.subfield_map(field_q, field_qt)
        self.m_poly: list[Poly] = []
        for i, subs in enumerate(self.table.subcosets):
            m_i = math.prod((self.M_poly[(i, j)] for j in range(len(subs))),
                            start=Poly.one(field_qt))
            self.m_poly.append(Poly(field_q, to_q.retract(np.array(m_i.coeffs))))
            assert self.m_poly[i].degree == self.table.d[i]
        check = Poly.one(field_q)
        for p_i in self.m_poly:
            check = check * p_i
        assert check == Poly.x_pow_n_minus_1(field_q, n), \
            "coarse factors must multiply back to X^n - 1"

        # the primitive idempotents e_{i,j} (one per subcoset) and the J_i
        # identities f_i (one per q-coset, tau_{q,1}-fixed, so they live in
        # the small algebra too), by one inverse DFT at the pinned root
        subcosets = [sub for subs in self.table.subcosets for sub in subs]
        rows = idempotents(subcosets + list(self.table.cosets), self.sd, field_qt)
        self.idempotents: dict[tuple[int, int], GroupAlgebraElement] = {
            ij: self.ring.element(row) for ij, row in zip(self.M_poly, rows)}
        self.j_idempotents: list[GroupAlgebraElement] = [
            self.ring.element(row) for row in rows[len(subcosets):]]
        self._validate_idempotents()

        # orientation of tau_{1,-1} on the split fixed classes (t = 2 only)
        self.tau_orientation: list[str | None] = []
        for i in range(self.table.num_classes):
            if (t == 2 and self.table.mu[i] == i and i != 0 and i != self.table.i_sharp
                    and self.table.s[i] == 2):
                _, j1 = tau_ideal_image(self.table, 0, -1, (i, 0))
                self.tau_orientation.append("fixes" if j1 == 0 else "swaps")
            else:
                self.tau_orientation.append(None)

        self._rho: dict[tuple[int, int], GroupAlgebraElement] = {}
        self._validate_structure()

    # -- validation ------------------------------------------------------------

    def _validate_idempotents(self):
        """The e_{i,j} are idempotent, annihilate one another and sum to 1:
        the product of the whole stack E by each e_a must hold e_a in row a
        and zeros elsewhere."""
        E = np.array([e.coeffs for e in self.idempotents.values()], dtype=np.int64)
        for a, ij in enumerate(self.idempotents):
            prod = self.ring.mul_rows(E, E[a])
            assert (prod[a] == E[a]).all(), f"e_{ij} is not idempotent"
            prod[a] = 0
            assert not prod.any(), "distinct primitive idempotents must annihilate"
        total = functools.reduce(self.ring.field.vadd, E)
        assert (total == self.ring.one().coeffs).all(), "idempotents must sum to 1"

    def _validate_structure(self):
        tab = self.table
        for i in range(tab.num_classes):
            if tab.mu[i] == i and i not in (0, tab.i_sharp) and self.t == 2:
                assert tab.d[i] % 2 == 0, "fixed classes away from 0/i# need even d_i"
            if (self.t == 2 and i not in (0, tab.i_sharp)
                    and self.tau_orientation[i] == "fixes"):
                # negation fixes I_{i,0} only when it acts as the middle
                # Frobenius power q^(t*D_i/2) on the coset
                Di = tab.D[i]
                assert Di % 2 == 0 or self.t % 2 == 0
                assert ((-tab.reps[i]) % tab.n
                        == (tab.reps[i] * self.q ** (self.t * Di // 2)) % tab.n)
        # negation acts trivially on J_0 (and J_{i#})
        trivial = [0] + ([tab.i_sharp] if tab.i_sharp is not None else [])
        for i in trivial:
            for j in range(tab.s[i]):
                e = self.idempotents[(i, j)]
                assert e.tau(1, -1) == e

    # -- component access --------------------------------------------------------

    def _check_index(self, i: int, j: int):
        if not (0 <= i < self.table.num_classes and 0 <= j < self.table.s[i]):
            raise InvalidParameterError(f"no minimal ideal I_{{{i},{j}}} at n = {self.n}")

    def idempotent(self, i: int, j: int = 0) -> GroupAlgebraElement:
        self._check_index(i, j)
        return self.idempotents[(i, j)]

    def j_idempotent(self, i: int) -> GroupAlgebraElement:
        self._check_index(i, 0)
        return self.j_idempotents[i]

    def project(self, a: GroupAlgebraElement, i: int) -> GroupAlgebraElement:
        """Component of a in J_i (multiplication by the J_i identity)."""
        return a * self.j_idempotent(i)

    def in_ideal(self, a: GroupAlgebraElement, i: int, j: int | None = None) -> bool:
        e = self.j_idempotent(i) if j is None else self.idempotent(i, j)
        return a * e == a

    def fixed_subfield_check(self, i: int, c: GroupAlgebraElement) -> bool:
        """True iff c (an element of J_i) lies in the small-algebra part K_i."""
        if not self.in_ideal(c, i):
            raise NotInIdealError(f"element is not in the component J_{i}")
        return c.tau(self.q, 1) == c

    def rho(self, i: int, j: int = 0) -> GroupAlgebraElement:
        """Designated primitive element of I_{i,j} (order q^(t*D_i) - 1).

        rho_{i,0} is the first h(X) * e_{i,0}, deg h < D_i, whose order in
        I_{i,0} = GF(q^t)[Y]/(M_{i,0}) (Y -> X * e_{i,0}) is q^(t*D_i) - 1,
        the h taken in the order of their coefficients read as a base-q^t
        integer.  Constants have order dividing q^t - 1, so the search starts
        at h = Y when D_i > 1, and otherwise at h = p: a constant of F_p has
        order dividing p - 1.

        The order is tested in the splitting field: evaluation at eta'^u, u
        in the subcoset (i, 0), is an injective ring map of I_{i,0} into it
        that takes h(X) * e_{i,0} to h(eta'^u), so it keeps orders.  The
        value is F_p-linear in h's digits: block k of the map is the
        embedding of GF(q^t) times eta'^(u*k).  Candidates are evaluated and
        tested (:meth:`gf.Field.has_order`) a block at a time, each block
        twice the last, and only the first to pass is multiplied out by
        e_{i,0}.  rho_{i,j} is tau_{q^j,1}(rho_{i,0}).
        """
        self._check_index(i, j)
        if (i, j) not in self._rho:
            fqt, split = self.field_qt, self.sd.splitting_field
            Q, Di, p = fqt.order, self.table.D[i], split.p
            # L (Di*m, M): row k*m + a holds the digits of phi(x)^a * eta'^(u*k),
            # phi the embedding of GF(q^t).  L takes the splitting field's
            # dtype, whose sums stay exact below 2M(p-1)^2, and Di*m <= M
            u = self.table.subcosets[i][0][0]
            step = gf._powmod(split._digits(self.sd.eta_prime), u, split._red, p)
            powers = gf._power_rows(step, Di, split._red, p)
            L = gf._mulmod(gf.subfield_map(fqt, split).matrix, powers[:, None, :],
                           split._red, p).reshape(Di * fqt.m, split.m)
            start, size = (Q if Di > 1 else fqt.p), RHO_BLOCK
            passed = np.zeros(0, dtype=bool)
            while not passed.any():
                h = np.array([[c // Q ** k % Q for k in range(Di)]
                              for c in range(start, start + size)], dtype=np.int64)
                values = fqt.vdigits(h).reshape(size, -1) @ L % p
                passed = split.has_order(values, Q ** Di - 1)
                start, size = start + size, 2 * size
            h = list(h[passed.argmax()]) + [0] * (self.n - Di)
            base = self.ring.element(h) * self.idempotents[(i, 0)]
            for jj in range(self.table.s[i]):
                self._rho[(i, jj)] = base.tau(self.q ** jj, 1)
        return self._rho[(i, j)]

    def k_basis(self, i: int) -> list[GroupAlgebraElement]:
        """An F_q-basis of K_i, lifted into the big algebra: X^k * f_i,
        k < d_i, as K_i = F_q[X]/(m_i) with the J_i identity f_i as its 1.
        The classification spans K_i * v by the shifts X^k * v instead; its
        tests take the products by these elements as the reference route."""
        f_i = self.j_idempotent(i)
        return [f_i.shift(k) for k in range(self.table.d[i])]

    # -- rendering ----------------------------------------------------------------

    def to_dict(self) -> dict:
        tab = self.table
        d = {
            "n": self.n, "q": self.q, "t": self.t,
            "field_q": self.field_q.spec_string(),
            "field_qt": self.field_qt.spec_string(),
            "splitting_field": self.sd.splitting_field.spec_string(),
            "eta_prime_log": (self.sd.splitting_field.order - 1) // self.n,
            "cosets": [list(c) for c in tab.cosets],
            "subcosets": [[list(c) for c in subs] for subs in tab.subcosets],
            "d": list(tab.d), "s": list(tab.s), "D": list(tab.D),
            "mu": list(tab.mu),
            "i_sharp": tab.i_sharp,
            "fixed_classes": list(tab.fixed),
            "paired_classes": list(tab.paired),
            "tau_orientation": list(self.tau_orientation),
            "factors_q": [str(p) for p in self.m_poly],
            "factors_qt": {f"{i},{j}": str(self.M_poly[(i, j)])
                           for (i, j) in sorted(self.M_poly)},
            "idempotents": {f"{i},{j}": str(e)
                            for (i, j), e in sorted(self.idempotents.items())},
        }
        return d


def build_atlas(n: int, q: int, t: int = 2, *, paper: bool = False) -> IdealAtlas:
    """Construct the full ideal atlas for R_n over F_q and F_{q^t}."""
    return IdealAtlas(n, q, t, paper=paper)
