"""The group algebra F[X]/(X^n - 1) over a finite field F.

Elements carry a fixed-length coefficient tuple (a_0, ..., a_{n-1}) of field
encodings and are read interchangeably as the vector (a_0, ..., a_{n-1}) in
F^n and the polynomial a(X).  Multiplication is cyclic convolution; the
shift sigma corresponds to multiplication by X.

The convolution is a matrix product: a * b is the row a times the circulant
of b, the n x n matrix B[i, k] = b_{(k-i) mod n}, and :meth:`CyclicRing.mul_rows`
multiplies a whole stack of rows by it with one :func:`linalg.matmul`, the
package's one sum of products over the field (no loop over positions): over
GF(p^m), m > 1, one integer product of the rows' base-p digits by the
(n*m, n*m) F_p-expansion of the circulant.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import gf, linalg
from .errors import FieldMismatchError, LengthMismatchError, NotCoprimeError


class CyclicRing:
    """Context object for F[X]/(X^n - 1); produces GroupAlgebraElement values.

    Obtain instances through :func:`cyclic_ring` so equal parameters share
    one object.
    """

    def __init__(self, field: gf.Field, n: int):
        self.field = field
        self.n = n
        # circulant index table: _rot[i, k] = (k - i) mod n
        idx = np.arange(n)
        self._rot = (idx[None, :] - idx[:, None]) % n

    def element(self, coeffs) -> "GroupAlgebraElement":
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.n:
            raise LengthMismatchError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return GroupAlgebraElement(self, coeffs)

    def zero(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self, (0,) * self.n)

    def one(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self, (1,) + (0,) * (self.n - 1))

    def x_power(self, k: int) -> "GroupAlgebraElement":
        coeffs = [0] * self.n
        coeffs[k % self.n] = 1
        return GroupAlgebraElement(self, tuple(coeffs))

    def circulant(self, b) -> np.ndarray:
        """The circulant B[i, k] = b[(k - i) mod n] of an element b (n,), or
        of each element of a stack (..., n): row a * B is the product a * b."""
        return np.asarray(b, dtype=np.int64)[..., self._rot]

    def mul_rows(self, rows: np.ndarray, b) -> np.ndarray:
        """Products by the circulant of b (:meth:`circulant`): a stack (N, n)
        of coefficient rows times one element b (n,), or a stack (N, r, n)
        of row blocks times a stack of elements b (N, n), block a by b[a];
        ``linalg.matmul(rows, B)`` either way."""
        return linalg.matmul(self.field, rows, self.circulant(b))

    def pow_rows(self, rows: np.ndarray, exponents, identity) -> np.ndarray:
        """Powers rows[a]^k for a stack (N, n) of rows and each k in
        ``exponents``, as an (N, K, n) stack, inside the subring whose
        multiplicative identity is ``identity``: one
        :func:`gf._square_and_multiply` over :meth:`mul_rows`, shared by all
        rows and all exponents."""
        return gf._square_and_multiply(np.asarray(rows, dtype=np.int64), exponents, identity,
                                       self.mul_rows)

    def from_tokens(self, text: str) -> "GroupAlgebraElement":
        vals = gf.parse_elements(self.field, text)
        return self.element(vals + [0] * (self.n - len(vals)))


@functools.lru_cache(maxsize=None)
def cyclic_ring(field: gf.Field, n: int) -> CyclicRing:
    return CyclicRing(field, n)


class GroupAlgebraElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: CyclicRing, coeffs: tuple[int, ...]):
        self.ring = ring
        self.coeffs = coeffs

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "GroupAlgebraElement"):
        if self.ring is not other.ring:
            if self.ring.n != other.ring.n:
                raise LengthMismatchError("elements of different length")
            if self.ring.field is not other.ring.field:
                raise FieldMismatchError("elements over different fields")

    def __add__(self, other):
        self._check(other)
        f = self.ring.field
        return GroupAlgebraElement(
            self.ring, tuple(f.vadd(np.array(self.coeffs), np.array(other.coeffs)).tolist()))

    def __neg__(self):
        f = self.ring.field
        return GroupAlgebraElement(self.ring, tuple(f.vneg(np.array(self.coeffs)).tolist()))

    def __sub__(self, other):
        self._check(other)
        f = self.ring.field
        return GroupAlgebraElement(
            self.ring, tuple(f.vsub(np.array(self.coeffs), np.array(other.coeffs)).tolist()))

    def __mul__(self, other):
        self._check(other)
        out = self.ring.mul_rows([self.coeffs], other.coeffs)[0]
        return GroupAlgebraElement(self.ring, tuple(out.tolist()))

    def scale(self, c: int) -> "GroupAlgebraElement":
        f = self.ring.field
        return GroupAlgebraElement(
            self.ring, tuple(f.vmul(np.int64(c), np.array(self.coeffs)).tolist()))

    def shift(self, k: int = 1) -> "GroupAlgebraElement":
        """Multiplication by X^k: the cyclic coordinate shift sigma^k."""
        k %= self.ring.n
        return GroupAlgebraElement(self.ring, self.coeffs[-k:] + self.coeffs[:-k])

    def pow_with_identity(self, k: int, identity: "GroupAlgebraElement") -> "GroupAlgebraElement":
        """Power inside a subring whose multiplicative identity is ``identity``."""
        if k < 0:
            raise ValueError("negative powers are not supported here")
        out = self.ring.pow_rows([self.coeffs], [k], identity.coeffs)[0, 0]
        return GroupAlgebraElement(self.ring, tuple(out.tolist()))

    def tau(self, frob_card: int, u: int) -> "GroupAlgebraElement":
        """The ring automorphism sum a_k X^k -> sum a_k^frob_card X^(u k mod n)."""
        n = self.ring.n
        if math.gcd(u % n, n) != 1:
            raise NotCoprimeError(f"requires gcd(u, n) = 1; got u={u}, n={n}")
        f = self.ring.field
        powered = f.vpow(np.array(self.coeffs, dtype=np.int64), frob_card)
        out = np.zeros(n, dtype=np.int64)
        idx = (np.arange(n) * (u % n)) % n
        out[idx] = powered
        return GroupAlgebraElement(self.ring, tuple(int(v) for v in out))

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, GroupAlgebraElement)
                and self.ring.field is other.ring.field
                and self.ring.n == other.ring.n
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.ring.field), self.ring.n, self.coeffs))

    def __str__(self):
        return ",".join(gf.format_element(self.ring.field, c) for c in self.coeffs)

    def __repr__(self):
        return f"GroupAlgebraElement({self})"
