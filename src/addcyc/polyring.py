"""Dense polynomials over a Field and the factorisation of X^n - 1.

Coefficients are stored low-to-high as field encodings with no trailing
zeros; the zero polynomial has an empty coefficient tuple.  X^n - 1 is
factored through its roots: the coset structure of the exponents of a fixed
primitive n-th root of unity in a splitting field yields the irreducible
factors together with the coset associated to each, which is the association
everything downstream keys on, and the same root gives the idempotent of each
coset by an inverse discrete Fourier transform.  The splitting field and the
root are pinned deterministically (default or reference modulus,
generator^((Q^ord-1)/n)), so factor labels are reproducible.  Products of
polynomials form a factor over a subfield from its factors over the larger
field (the atlas's m_i from its M_{i,j}) and check that the factors
multiply back to X^n - 1; division with remainder and sums remain for checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gf
from .errors import FieldMismatchError, NotCoprimeError


class Poly:
    """A polynomial over a fixed Field, in canonical (trimmed) form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: gf.Field, coeffs=()):
        self.field = field
        coeffs = tuple(int(c) for c in coeffs)
        i = len(coeffs)
        while i > 0 and coeffs[i - 1] == 0:
            i -= 1
        self.coeffs = coeffs[:i]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def x_pow_n_minus_1(cls, field, n):
        return cls(field, (field.neg(1),) + (0,) * (n - 1) + (1,))

    @classmethod
    def from_tokens(cls, field, text: str):
        return cls(field, gf.parse_elements(field, text))

    # -- basic queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field is other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        return ",".join(gf.format_element(self.field, c) for c in self.coeffs)

    def __repr__(self):
        return f"Poly({self})"

    def _check(self, other: "Poly"):
        if self.field is not other.field:
            raise FieldMismatchError("polynomials over different fields")

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(f, (f.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                        for i in range(n)))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def __divmod__(self, other: "Poly"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = f.inv(other.coeffs[-1])
        quo = [0] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = f.mul(c, lead_inv)
                quo[i - d] = q
                for j in range(d + 1):
                    rem[i - d + j] = f.sub(rem[i - d + j], f.mul(q, other.coeffs[j]))
        return Poly(f, quo), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def eval(self, point: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, point), c)
        return acc


# ---------------------------------------------------------------------------
# splitting data and the coset-driven factorisation of X^n - 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingData:
    """A splitting field of X^n - 1 over a base field, with a pinned root.

    ``ord`` is the multiplicative order of |base| mod n, ``eta_prime`` the
    primitive n-th root generator^((|base|^ord - 1)/n) of the splitting field.
    """

    n: int
    base_field: gf.Field
    ord: int
    splitting_field: gf.Field
    eta_prime: int


def require_coprime(n: int, base: int) -> None:
    """The standing hypothesis gcd(n, base) = 1: the group algebra is semisimple."""
    if math.gcd(n, base) != 1:
        raise NotCoprimeError(
            f"requires gcd(n, base) = 1 (semisimple group algebra); got n={n}, base={base}")


def multiplicative_order(q: int, n: int) -> int:
    # without coprimality the powers of q never reach 1 mod n
    require_coprime(n, q)
    if n == 1:
        return 1
    e, cur = 1, q % n
    while cur != 1:
        cur = (cur * q) % n
        e += 1
    return e


def splitting_data(n: int, base_field: gf.Field, *, paper: bool = False) -> SplittingData:
    ord_ = multiplicative_order(base_field.order, n)
    split = gf.field(base_field.p, base_field.m * ord_, paper=paper)
    eta_prime = split.pow(split.generator, (split.order - 1) // n)
    return SplittingData(n, base_field, ord_, split, eta_prime)


def minimal_poly(coset, sd: SplittingData, target: gf.Field) -> Poly:
    """The monic irreducible factor of X^n - 1 whose roots are eta'^k, k in coset.

    All coefficients must land in ``target`` (a subfield of the splitting
    field); a CoercionError signals a malformed coset.
    """
    split = sd.splitting_field
    rows = gf.linear_factor_product(split, sd.eta_prime, coset)
    return Poly(target, target.vencode(gf.subfield_map(target, split).retract_digits(rows)))


def idempotents(cosets, sd: SplittingData, target: gf.Field) -> list[tuple[int, ...]]:
    """For each coset C, the idempotent e_C of F[X]/(X^n - 1) that is 1 at the
    roots eta'^s, s in C, and 0 at the other n-th roots of unity: the inverse
    discrete Fourier transform e_C[k] = n^(-1) * sum_{s in C} eta'^(-k*s),
    k < n (MacWilliams and Sloane, ch. 8), as n coefficients in ``target``.

    The powers of eta' are the digit rows of one doubling in the splitting
    field; each coset sums |C| of them, gathered at the exponents -k*s mod n,
    and scales the sum by n^(-1) in F_p, so no field product is made.  The
    digit rows of all cosets go down to ``target`` in one retraction; a
    CoercionError signals a coset that is not closed under |target|.
    """
    split, n = sd.splitting_field, sd.n
    p = split.p
    powers = gf._power_rows(split._digits(sd.eta_prime), n, split._red, p)
    k, n_inv = np.arange(n), pow(n, -1, p)
    totals = np.stack([sum(powers[-k * s % n] for s in coset) for coset in cosets])
    digits = gf.subfield_map(target, split).retract_digits(totals % p * n_inv % p)
    return [tuple(row) for row in target.vencode(digits).tolist()]


def factor_xn_minus_1(n: int, f: gf.Field, *, paper: bool = False):
    """Factor X^n - 1 over ``f`` into monic irreducibles, paired with cosets.

    Returns a list of (Poly, coset) ordered by least coset representative,
    so the factor X - 1 <-> {0} always comes first.  The degree of each
    factor equals its coset size, and the product of all factors is checked
    to reproduce X^n - 1 exactly.
    """
    from .structure import cyclotomic_cosets

    cosets = cyclotomic_cosets(n, f.order)
    sd = splitting_data(n, f, paper=paper)
    factors = [(minimal_poly(c, sd, f), c) for c in cosets]
    check = Poly.one(f)
    for poly, coset in factors:
        if poly.degree != len(coset):
            raise AssertionError("factor degree does not match its coset size")
        check = check * poly
    if check != Poly.x_pow_n_minus_1(f, n):
        raise AssertionError("factor product does not reproduce X^n - 1")
    return factors
