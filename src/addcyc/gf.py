"""Exact arithmetic in finite fields GF(p^m).

An element of GF(p^m) is a plain Python int in [0, p^m): its base-p digits,
least significant first, are the coordinates in the polynomial basis
{1, x, ..., x^(m-1)} of F_p[x] modulo ``modulus``.  The zero element is 0 and
the prime subfield occupies 0..p-1.

Each field designates a primitive element ``generator``.  By default the
modulus is the lexicographically least monic primitive polynomial of degree m
over F_p (so x itself generates); a built-in table of reference moduli is
selected with ``paper=True`` for fields that appear in the bundled reference
data.  A modulus is proved once, by the order of x: when f(0) != 0 and x has
order exactly p^m - 1 modulo f, f is irreducible and x is primitive.  The
powers of x the proof needs come from linear maps over F_p: the Frobenius
matrix Q of f (z -> z^p) and the matrices of multiplication by x^d, read from
a table of x^0, ..., x^(2m-2) mod f, so that x^e is m steps of Horner's rule
on the base-p digits of e.  Only a modulus in which x is not primitive is
proved irreducible another way, by Berlekamp's rank criterion on the same
Frobenius matrix.  The primes of
p^m - 1 that the order test needs come from the module's own trial division,
Brent's rho and BPSW primality test.

Vector (numpy) operations take one of two routes.  Fields with at most 2^8
elements, prime or not, add, subtract, negate and multiply by one gather
from a Q x Q Cayley table.  Above them every vector operation works on
base-p digits: a sum digit by digit, and a product (mod p over a prime
field) as one convolution of the digit rows, folded below degree m by a
matrix of the reductions of x^m, ..., x^(2m-2).  The same kernel works on
stacks of digit rows: it runs the order test on many candidate moduli at
once, builds the discrete-log tables and multiplies out the factors of
X^n - 1.  A scalar operation's route is fixed by the field's order.  Fields
with at most 2^12 elements build exp and log tables at construction, and
these serve the scalar products, powers and inverses, the Cayley tables,
dlog and the order test :meth:`Field.has_order`.  Above 2^12 the products,
powers, inverses and order test run on digit rows, and up to 2^20
:meth:`Field.dlog` builds a log table of its own on first use, which no
other method reads.  No vector operation reads a log table.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    CoercionError,
    InvalidParameterError,
    NotASubfieldError,
    TooLargeError,
)

#: fields whose modulus the bundled reference data pins down, keyed by (p, m);
#: coefficients low-to-high, monic.
PAPER_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),                # x^2 + x + 1
    (3, 2): (2, 2, 1),                # x^2 + 2x + 2
    (3, 6): (2, 2, 1, 0, 2, 0, 1),    # x^6 + 2x^4 + x^2 + 2x + 2
    (5, 2): (2, 4, 1),                # x^2 + 4x + 2
    (7, 2): (3, 6, 1),                # x^2 + 6x + 3
    (11, 2): (2, 7, 1),               # x^2 + 7x + 2
    (13, 2): (2, 12, 1),              # x^2 + 12x + 2
    (17, 2): (3, 16, 1),              # x^2 + 16x + 3
    (19, 2): (2, 18, 1),              # x^2 + 18x + 2
}

#: largest field in which :meth:`Field.dlog` answers, so that elements
#: print as w^k; above EAGER_TABLE_LIMIT it reads a log table that it alone
#: builds and reads.
TABLE_LIMIT = 1 << 20

#: fields at most this big, prime fields included, also get Q x Q Cayley
#: tables of +, - and *, so that vadd, vsub, vneg and vmul are each one
#: gather; their entries fit in one byte.
CAYLEY_LIMIT = 1 << 8

#: fields at most this big build exp and log tables at construction, the
#: route of their scalar mul, inv, pow, has_order and dlog; larger ones
#: compute mul, inv, pow and has_order on digit rows.
EAGER_TABLE_LIMIT = 1 << 12

#: rows of the largest block of consecutive powers that dlog's log table and
#: the subfield maps form at a time
POWER_BLOCK = 1 << 12


# ---------------------------------------------------------------------------
# F_p[x]/(f) arithmetic on digit rows (coefficients low-to-high)
#
# A kernel takes one digit row (m,) or a stack (..., m).  The reduction matrix
# is one (m-1, m) for a single modulus, or one per row (..., m-1, m) when the
# rows of a stack belong to different moduli (the modulus search).
# ---------------------------------------------------------------------------

def _digit_dtype(p: int, m: int):
    """int64 when the sums of a product and its fold, below 2m*(p-1)^2, are
    exact in it; Python ints otherwise."""
    return np.int64 if 2 * m * (p - 1) ** 2 < 2 ** 63 else object


def _reductions(low: np.ndarray, p: int) -> np.ndarray:
    """Reduction matrices (B, m-1, m) of the monic polynomials whose low
    coefficients are the rows of ``low`` (B, m): row i of each holds the
    digits of x^(m+i) mod f, so the coefficients of degree >= m of a product
    fold below m by one matrix product."""
    B, m = low.shape
    red = np.zeros((B, max(m - 1, 0), m), dtype=low.dtype)
    cur = (-low) % p  # x^m
    for i in range(m - 1):
        red[:, i] = cur
        cur = (np.concatenate([np.zeros_like(cur[:, :1]), cur[:, :-1]], axis=1)
               + cur[:, -1:] * red[:, 0]) % p
    return red


def _reduction_matrix(mod: tuple[int, ...], p: int) -> np.ndarray:
    m = len(mod) - 1
    return _reductions(np.array([mod[:m]], dtype=_digit_dtype(p, m)), p)[0]


@functools.lru_cache(maxsize=None)
def _shift_index(m: int) -> np.ndarray:
    """idx[i, k] = k - i + m - 1: row i of a zero-padded row b read at idx is
    b shifted up by i places."""
    return np.arange(2 * m - 1)[None, :] - np.arange(m)[:, None] + m - 1


def _shifted(b: np.ndarray) -> np.ndarray:
    """The coefficients (..., m, 2m-1) of b x^0, ..., b x^(m-1) in F_p[x],
    unreduced, for rows b (..., m)."""
    m = b.shape[-1]
    pad = np.zeros(b.shape[:-1] + (m - 1,), dtype=b.dtype)
    return np.concatenate([pad, b, pad], axis=-1)[..., _shift_index(m)]


def _conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients (..., 2m-1) of the products a * b in F_p[x], unreduced:
    a (..., m) times one row b (m,), or row by row times a stack b."""
    if a.ndim == 1 and b.ndim == 1:
        return np.convolve(a, b)
    shifted = _shifted(b)
    return a @ shifted if b.ndim == 1 else (a[..., None, :] @ shifted)[..., 0, :]


def _fold(c: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """Reduce the coefficients (..., 2m-1) of a product to digits (..., m)."""
    m = red.shape[-1]
    high = c[..., m:] % p
    folded = high @ red if red.ndim == 2 else (high[..., None, :] @ red)[..., 0, :]
    return (c[..., :m] + folded) % p


def _mulmod(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    return _fold(_conv(a, b), red, p)


# Every power in the package comes from one of the next two, given the
# product of a stack of rows by one row: digit rows over one modulus
# (Field.pow, the log tables, the roots of X^n - 1), the order test's stacks
# with one modulus per candidate, Field.vpow's rows of width 1, and group-
# algebra rows (CyclicRing.pow_rows and the classification's options).

def _square_and_multiply(base: np.ndarray, exponents, one, mul) -> np.ndarray:
    """The powers base^e for each int e >= 0 in ``exponents``, stacked on a
    new second-to-last axis (..., K, w) of rows of width w, starting from
    ``one``, the identity broadcast to that shape.  ``mul(rows, b)`` is the
    product of a stack of rows (..., r, w) by one row b (..., w) each.  Bit
    by bit, one stacked product takes the partial powers whose exponent has
    the bit, and the square of the base."""
    base = np.asarray(base)
    out = np.array(np.broadcast_to(one, base.shape[:-1] + (len(exponents), base.shape[-1])),
                   dtype=base.dtype)
    for bit in range(max(exponents, default=0).bit_length()):
        sel = [k for k, e in enumerate(exponents) if e >> bit & 1]
        prod = mul(np.concatenate([out[..., sel, :], base[..., None, :]], axis=-2), base)
        out[..., sel, :], base = prod[..., :-1, :], prod[..., -1, :]
    return out


def _doubling(first: np.ndarray, base: np.ndarray, count: int, mul) -> np.ndarray:
    """The rows first * base^k, k < count, stacked on a new second-to-last
    axis, with ``mul`` as for :func:`_square_and_multiply`: each step is one
    stacked product, of the rows formed so far and of base^(2^j), by
    base^(2^j), so about log2(count) products."""
    rows, step = np.asarray(first)[..., None, :], np.asarray(base)
    while rows.shape[-2] < count:
        prod = mul(np.concatenate([rows[..., :count - rows.shape[-2], :], step[..., None, :]],
                                  axis=-2), step)
        rows, step = np.concatenate([rows, prod[..., :-1, :]], axis=-2), prod[..., -1, :]
    return rows


def _powmod(a: np.ndarray, e: int, red: np.ndarray, p: int) -> np.ndarray:
    """a^e for one digit row a, e >= 0."""
    one = np.eye(1, a.shape[-1], dtype=a.dtype)
    return _square_and_multiply(a, [e], one, lambda rows, b: _mulmod(rows, b, red, p))[0]


def _power_rows(a: np.ndarray, count: int, red: np.ndarray, p: int) -> np.ndarray:
    """Digit rows (count, m) of a^0, ..., a^(count-1) for one digit row a."""
    one = np.eye(1, a.shape[-1], dtype=a.dtype)[0]
    return _doubling(one, a, count, lambda rows, b: _mulmod(rows, b, red, p))


# ---------------------------------------------------------------------------
# integers.  Every field order, splitting field and minimal ideal needs the
# primes of some p^m - 1: trial division by the primes below 1000, Brent's
# rho on what is left (R. P. Brent, BIT 20, 1980), and a primality test that
# is Miller-Rabin with the 13 prime bases 2..41, deterministic below
# _MR_BOUND (Sorenson and Webster, Math. Comp. 86, 2017), and BPSW above it
# (Baillie and Wagstaff, Math. Comp. 35, 1980): Miller-Rabin to base 2 and a
# strong Lucas test with Selfridge's parameters.
# ---------------------------------------------------------------------------

_SMALL_PRIMES = tuple(r for r in range(2, 1000) if all(r % s for s in range(2, math.isqrt(r) + 1)))
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin to base a, for odd n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with P = 1 and Q = (1 - D)/4, D the first of
    5, -7, 9, -11, ... with (D/n) = -1, for odd n that is not a square."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # D and n share a factor, and n > |D|
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    for r in _SMALL_PRIMES:
        if n % r == 0:
            return n == r
    if n < 1000 ** 2:
        return n > 1
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and math.isqrt(n) ** 2 != n
            and _strong_lucas_probable_prime(n))


def _integer_root(n: int, e: int) -> int:
    """The largest r with r^e <= n (Newton's method on integers)."""
    r = 1 << -(-n.bit_length() // e)  # r^e > n
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _rho(n: int) -> int:
    """A proper factor of the odd composite n, which is not a perfect power:
    Brent's cycle-finding on x -> x^2 + c, gcds taken over 128 steps at a
    time, with c = 1, 2, ... until one splits n."""
    for c in itertools.count(1):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step it again one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@functools.lru_cache(maxsize=None)
def _order_factors(q_minus_1: int) -> tuple[int, ...]:
    """The primes dividing q_minus_1 >= 1, in increasing order.

    Cofactors left by trial division are split by Brent's rho, after a check
    for exact powers.  Reach, on the 443 distinct q^m - 1 < 2^110 with q <= 32
    a prime power (one run, 2-core Xeon VM, Python 3.11.7): those below 2^96
    take 0.6 s in all (sympy's primefactors 1.6 s), the 61 above 7.0 s (sympy
    4.4 s).  The longest is 2^101 - 1 at 3.4 s (sympy 0.2 s), whose smaller
    prime, near 7.4e12, costs rho about 2.7e6 steps; rho's time grows as the
    square root of the second largest prime factor.
    """
    n, primes = q_minus_1, set()
    for r in _SMALL_PRIMES:
        if n % r == 0:
            primes.add(r)
            while n % r == 0:
                n //= r
    rest = [n] if n > 1 else []
    while rest:
        n = rest.pop()
        if _is_prime(n):
            primes.add(n)
            continue
        # n has no factor below 1000, so it is at most a (log_1000 n)-th power
        root = next((r for e in range(n.bit_length() // 9, 1, -1)
                     if (r := _integer_root(n, e)) ** e == n), None)
        if root is not None:
            rest.append(root)
        else:
            f = _rho(n)
            rest += [f, n // f]
    return tuple(sorted(primes))


# ---------------------------------------------------------------------------
# the proof of a modulus.  If f(0) != 0 and x has multiplicative order
# exactly p^m - 1 modulo f, then F_p[x]/(f) has p^m - 1 units, so it is a
# field: f is irreducible and primitive.  The test and Berlekamp's criterion
# both start from the Frobenius matrix Q of f (row i: x^(ip) mod f); z -> z^p
# is F_p-linear, so the test forms every power by products with Q (von zur
# Gathen and Gerhard, Modern Computer Algebra, ch. 14).  The search runs it
# only on candidates that nothing cheaper rules out: the norm of x,
# (-1)^m f(0), must be a primitive root mod p, and f must have no small
# irreducible factor.
# ---------------------------------------------------------------------------

#: the sieve divides by the irreducibles of degree d0 at most, p^d0 <= this
SIEVE_LIMIT = 256

#: candidates the modulus search sieves at a time, at most, for p below it
SIEVE_BLOCK = 1 << 6

#: sieve survivors in the modulus search's first order test; each later test
#: takes twice as many
FIRST_CHUNK = 4

#: (p, modulus) pairs the order test has accepted, so that each modulus is
#: proved once per process
_PROVED: set[tuple[int, tuple[int, ...]]] = set()


def _frobenius(low: np.ndarray, p: int, ds=()):
    """For the monic f of degree m with low coefficients ``low`` (B, m):

    - the shift table E (B, 2m-1, m), row k the digits of x^k mod f, that is
      the identity over the reduction matrix; its slice E[:, d:d+m] is the
      matrix of multiplication by x^d for d < m;
    - the digits of x mod f;
    - the Frobenius matrices Q (B, m, m), row i = x^(ip) mod f, so that a row
      z times Q is z^p;
    - whether x^(p^m) = x mod f, computed as x Q^m;
    - the matrices (B, len(ds), m, m) of multiplication by x^d for the
      increasing ints d >= 0 in ``ds`` (:func:`_x_power_matrices`).

    The rows of Q with ip <= 2m - 2 are read from E; each later row is the
    one before it times the matrix of multiplication by x^p, which comes from
    the same square-and-multiply as the x^d with d >= m.
    """
    B, m = low.shape
    low = low.astype(_digit_dtype(p, m))
    eye = np.broadcast_to(np.eye(m, dtype=low.dtype), (B, m, m))
    E = np.concatenate([eye, _reductions(low, p)], axis=1)
    x = np.zeros_like(low)
    if m > 1:
        x[:, 1] = 1
    else:
        x[:, 0] = (-low[:, 0]) % p
    known = min(m, (2 * m - 2) // p + 1)
    exps = sorted(set(ds) | ({p} if known < m else set()))
    mats = _x_power_matrices(exps, E, x, p)
    Q = np.empty_like(eye)
    Q[:, :known] = E[:, : p * known : p]
    if known < m:
        x_p = mats[:, exps.index(p)]
        for i in range(known, m):
            Q[:, i] = (Q[:, i - 1, None] @ x_p)[:, 0] % p
    y = x
    for _ in range(m):
        y = (y[:, None, :] @ Q)[:, 0] % p
    return E, x, Q, (y == x).all(axis=1), mats[:, [exps.index(d) for d in ds]]


def _x_power_matrices(ds, E: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """The matrices (B, len(ds), m, m) of multiplication by x^d mod each f,
    for the increasing ints d >= 0 in ``ds``, given the shift tables E and
    the digits x of x mod f.

    For d < m the matrix is a slice of E.  A larger d (only when p >= m) gets
    x^d from one square-and-multiply shared by all of them, and its matrix,
    row i = x^d x^i, from x^d's shifted coefficients read through E.
    """
    m = E.shape[-1]
    small = [d for d in ds if d < m]
    large = ds[len(small):]
    mats = E[:, np.array(small, dtype=np.intp)[:, None] + np.arange(m)]
    if not large:
        return mats
    # one modulus per candidate: row blocks (B, r, m) times rows (B, m)
    powers = _square_and_multiply(x, large, np.eye(1, m, dtype=x.dtype),
                                  lambda rows, b: _mulmod(rows, b[:, None], E[:, None, m:], p))
    return np.concatenate([mats, _shifted(powers) @ E[:, None] % p], axis=1)


def _x_has_full_order(low: np.ndarray, p: int) -> np.ndarray:
    """The order test, for each row of low coefficients (B, m) of a monic f:
    f(0) != 0, x^(p^m) = x, and x^((p^m-1)/r) != 1 mod f for every prime
    r | p^m - 1.

    The powers are formed by linear maps, for all r together, over the rows
    that pass the first two conditions: with the base-p digits e_{m-1} ...
    e_0 of an exponent, Horner's rule z -> z^p x^(e_i) runs from z = 1 down
    the m digits, and each step is one product by M_d = Q X_d, Q the
    Frobenius matrix and X_d the matrix of multiplication by x^d, formed
    once for each distinct digit d.
    """
    m = low.shape[1]
    q1 = p ** m - 1
    digits = [[e // p ** i % p for i in range(m)] for e in (q1 // r for r in _order_factors(q1))]
    ds = sorted({d for row in digits for d in row})
    _, x, Q, ok, mats = _frobenius(low, p, ds)
    ok &= low[:, 0] != 0
    rows = np.flatnonzero(ok)
    if rows.size and digits:
        where = {d: k for k, d in enumerate(ds)}
        index = np.array([[where[d] for d in row] for row in digits], dtype=np.intp)
        steps = Q[rows, None] @ mats[rows] % p
        z = np.zeros((rows.size, len(digits), m), dtype=x.dtype)
        z[..., 0] = 1
        for i in reversed(range(m)):
            z = (z[..., None, :] @ steps[:, index[:, i]])[..., 0, :] % p
        one = np.zeros(m, dtype=x.dtype)
        one[0] = 1
        ok[rows] = ~(z == one).all(axis=2).any(axis=1)
    return ok


def _x_is_primitive(mod: tuple[int, ...], p: int) -> bool:
    """The order test on one monic modulus, at most once per process."""
    if (p, mod) not in _PROVED:
        if not _x_has_full_order(np.array([mod[:-1]], dtype=np.int64), p)[0]:
            return False
        _PROVED.add((p, mod))
    return True


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Berlekamp's criterion.  When x^(p^m) = x mod f, f divides x^(p^m) - x
    and is squarefree, and then it has m - rank(Q - I) irreducible factors."""
    m = len(mod) - 1
    _, _, Q, fixed, _ = _frobenius(np.array([mod[:-1]], dtype=np.int64), p)
    kernel = (Q[0].astype(np.int64) - np.eye(m, dtype=np.int64)) % p
    return bool(fixed[0]) and linalg.rank(field(p), kernel) == m - 1


def _low_digits(p: int, j: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The digit vectors of length j of c = start, ..., stop - 1, one row
    each, low digit first; all p^j of them by default."""
    c = np.arange(start, p ** j if stop is None else stop, dtype=np.int64)
    return c[:, None] // p ** np.arange(j, dtype=np.int64) % p


@functools.lru_cache(maxsize=None)
def _small_irreducibles(p: int, d: int) -> np.ndarray:
    """Low coefficients (k, d) of the monic irreducibles of degree d over F_p.

    A monic polynomial of degree d is irreducible exactly when it has no
    factor of degree <= d/2, so these come from the sieve itself.
    """
    cands = _low_digits(p, d)
    return cands[~_has_small_factor(cands, p, d // 2)]


@functools.lru_cache(maxsize=None)
def _sieve_matrix(p: int, m: int, d0: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """The digits of x^i mod g, i = 0..m, for every monic irreducible g of
    degree 1..d0: an (m+1, sum k*d) matrix, d columns per g, grouped by
    degree, with the (k, d) of each group.

    The powers of every g come from one pass over i: each g is stored as
    d0 + 1 digits with its leading 1, so that x * cur - top * g, top the
    digit of cur at the degree of g, is one step for all degrees."""
    gs = [_small_irreducibles(p, d) for d in range(1, d0 + 1)]
    deg = np.repeat(np.arange(1, d0 + 1), [len(g) for g in gs])
    rows = np.arange(len(deg))
    used = np.arange(d0 + 1) < deg[:, None]
    g = np.zeros((len(deg), d0 + 1), dtype=np.int64)
    g[used] = np.concatenate([g_d.ravel() for g_d in gs])
    g[rows, deg] = 1
    powers = np.zeros((m + 1, len(deg), d0 + 1), dtype=np.int64)
    powers[0, :, 0] = 1
    for i in range(m):
        powers[i + 1, :, 1:] = powers[i, :, :-1]
        powers[i + 1] = (powers[i + 1] - powers[i + 1, rows, deg, None] * g) % p
    return powers[:, used], tuple((len(g_d), d) for d, g_d in enumerate(gs, 1))


def _has_small_factor(low: np.ndarray, p: int, d0: int) -> np.ndarray:
    """For each row of low coefficients (B, m) of a monic polynomial of degree
    m > d0: whether a monic irreducible of degree 1..d0 divides it exactly."""
    B, m = low.shape
    if d0 < 1:
        return np.zeros(B, dtype=bool)
    R, groups = _sieve_matrix(p, m, d0)
    rem = np.concatenate([low, np.ones((B, 1), dtype=np.int64)], axis=1) @ R
    return _divisible(rem % p == 0, groups)


def _divisible(zero: np.ndarray, groups) -> np.ndarray:
    """Whether some g of the sieve divides each row: all d digits of its
    remainder mod g are zero, ``zero`` (B, sum k*d) marking the zero digits."""
    out = np.zeros(len(zero), dtype=bool)
    col = 0
    for k, d in groups:
        out |= zero[:, col:col + k * d].reshape(-1, k, d).all(axis=2).any(axis=1)
        col += k * d
    return out


def _admissible_norms(p: int, m: int, a0: np.ndarray) -> np.ndarray:
    """Whether (-1)^m a_0 is a primitive root mod p, for each constant
    coefficient a_0 in ``a0`` of a monic f of degree m.

    It is the norm x^((p^m-1)/(p-1)) of x mod f, the product of the roots of
    f; when f is primitive, x generates GF(p^m)^* and the norm, a surjective
    homomorphism onto F_p^*, takes it to a generator (Lidl and Niederreiter,
    Finite Fields, ch. 3)."""
    rs = _order_factors(p - 1)
    norms = ((-a0 if m % 2 else a0) % p).tolist()
    return np.array([c != 0 and all(pow(c, (p - 1) // r, p) != 1 for r in rs)
                     for c in norms], dtype=bool)


def _sieved_candidates(p: int, m: int):
    """The candidates of :func:`least_primitive_modulus` in order, as blocks
    of at most SIEVE_BLOCK digit rows, less three kinds that are never
    primitive:

    - those whose norm (-1)^m a_0 is not a primitive root mod p
      (:func:`_admissible_norms`); at p = 3 and even m only a_0 = 2 is left;
    - those with a monic irreducible factor g of degree d0 or less
      (p^d0 <= SIEVE_LIMIT, d0 <= m/2);
    - for m = 2, x^2 + a_0, the integers below p: x^2 = -a_0 lies in F_p,
      so the order of x divides 2(p - 1) < p^2 - 1.

    A block holds candidates that share their high digits and differ in
    their low j digits, p^j <= SIEVE_BLOCK or j = 1.  For p <= SIEVE_LIMIT
    the low digit rows with an admissible a_0 are picked once, before their
    remainders are formed, and a block is SIEVE_BLOCK of them at most.  A
    candidate is its low j digits plus its high part, so g divides it when
    their remainders mod g are opposite: the low remainders are formed
    once, and a block compares them with one row.  Above SIEVE_LIMIT there
    is no sieve: a block is SIEVE_BLOCK consecutive values of a_0, less
    those whose norm fails ``pow``'s test.
    """
    d0 = max(d for d in range(m // 2 + 1) if p ** d <= SIEVE_LIMIT)
    j = max(i for i in range(1, m + 1) if i == 1 or p ** i <= SIEVE_BLOCK)
    size = p ** j
    start = p if m == 2 else 0
    if d0:  # p <= SIEVE_LIMIT, so the p^j low rows are few
        low = _low_digits(p, j)
        low = low[_admissible_norms(p, m, low[:, 0])]
        position = low @ p ** np.arange(j, dtype=np.int64)
        R, groups = _sieve_matrix(p, m, d0)
        low_rem = (low @ R[:j] % p).astype(np.uint8)
    for high in range(start // size, p ** (m - j)):
        top = np.array([(high // p ** i) % p for i in range(m - j)], dtype=np.int64)
        first = max(start - high * size, 0)
        if d0:
            opposite = (-(top @ R[j:m] + R[m]) % p).astype(np.uint8)
            for lo in range(np.searchsorted(position, first), len(low), SIEVE_BLOCK):
                rows = slice(lo, lo + SIEVE_BLOCK)
                kept = ~_divisible(low_rem[rows] == opposite, groups)
                yield np.concatenate([low[rows], np.tile(top, (len(kept), 1))], axis=1)[kept]
        else:
            for lo in range(first, size, SIEVE_BLOCK):
                low = _low_digits(p, j, lo, min(lo + SIEVE_BLOCK, size))
                low = low[_admissible_norms(p, m, low[:, 0])]
                yield np.concatenate([low, np.tile(top, (len(low), 1))], axis=1)


@functools.lru_cache(maxsize=None)
def least_primitive_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically least monic primitive polynomial of degree m over F_p.

    Candidates x^m + a_{m-1} x^{m-1} + ... + a_0 are ordered by the integer
    sum(a_i p^i); for m = 1 this yields x - g with g the least primitive root.
    The candidates that the norm filter and the sieve leave
    (:func:`_sieved_candidates`: (-1)^m a_0 a primitive root mod p, no small
    irreducible factor, and for m = 2 not x^2 + a_0) go, in order, through
    batched order tests of FIRST_CHUNK, then twice as many, and so on.  The
    first that passes is the modulus.  Only candidates that are not
    primitive are dropped, so the least one is the same as without them.
    """
    if m == 1:
        # the least g with g^((p-1)/r) != 1 for every prime r | p - 1: the
        # order test on x - g
        g = next(g for g in range(1, p) if all(pow(g, (p - 1) // r, p) != 1
                                                 for r in _order_factors(p - 1)))
        _PROVED.add((p, ((-g) % p, 1)))
        return ((-g) % p, 1)
    pending = np.zeros((0, m), dtype=np.int64)
    chunk = FIRST_CHUNK
    blocks = _sieved_candidates(p, m)
    while (block := next(blocks, None)) is not None or len(pending):
        if block is not None:
            pending = np.concatenate([pending, block])
        while len(pending) >= chunk or (block is None and len(pending)):
            ok = _x_has_full_order(pending[:chunk], p)
            if ok.any():
                digits = tuple(int(c) for c in pending[ok.argmax()]) + (1,)
                _PROVED.add((p, digits))
                return digits
            pending, chunk = pending[chunk:], 2 * chunk
    raise AssertionError(f"no primitive polynomial of degree {m} over F_{p}")


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """The finite field GF(p^m) in a fixed polynomial-basis representation.

    Immutable after construction; obtain instances through :func:`field` so
    that equal parameters yield the identical object.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        if not _is_prime(p):
            raise InvalidParameterError(f"characteristic {p} is not prime")
        if m < 1:
            raise InvalidParameterError("extension degree must be >= 1")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise InvalidParameterError("modulus must be monic of degree m")
        # one order test proves the modulus and makes x the generator; only a
        # modulus in which x is not primitive needs Berlekamp's criterion
        x_primitive = _x_is_primitive(modulus, p)
        if not x_primitive and not _is_irreducible(modulus, p):
            raise InvalidParameterError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = modulus
        self._red = _reduction_matrix(modulus, p)
        self._weights = np.array([p ** i for i in range(m)],
                                 dtype=np.int64 if self.order <= 2 ** 63 else object)
        # tables up to EAGER_TABLE_LIMIT; above it only dlog sets _log, never _exp
        self._exp: np.ndarray | None = None
        self._log: np.ndarray | None = None
        self._pow_luts: dict[int, np.ndarray] = {}
        # the small extension fields' flat Q x Q Cayley tables (uint8) and
        # the (Q, m) table of their elements' digits
        self._add = self._sub = self._mul = self._digit_table = None
        x = p if m > 1 else (-modulus[0]) % p  # the element x
        self.generator = x if x_primitive else self._least_generator()
        if self.order <= EAGER_TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers -------------------------------------------------

    def _least_generator(self) -> int:
        q1 = self.order - 1
        for cand in range(1, self.order):
            if all(self.pow(cand, q1 // r) != 1 for r in _order_factors(q1)):
                return cand
        raise AssertionError("no generator found")

    # -- encode / decode ------------------------------------------------------

    def decode(self, a: int) -> tuple[int, ...]:
        p = self.p
        return tuple((a // p ** i) % p for i in range(self.m))

    def _digits(self, a: int) -> np.ndarray:
        return np.array(self.decode(a), dtype=self._red.dtype)

    def encode(self, digits) -> int:
        p = self.p
        return sum(int(d) % p * p ** i for i, d in enumerate(digits))

    def elements(self) -> range:
        return range(self.order)

    # -- scalar arithmetic ----------------------------------------------------

    def _digitwise(self, a, b, sign: int):
        """a + sign*b digit by digit mod p: on ints, or on int64 arrays."""
        p = self.p
        if self.m == 1:
            return (a + sign * b) % p
        out, mult = 0, 1
        for _ in range(self.m):
            out += (a + sign * b) % p * mult
            a, b = a // p, b // p
            mult *= p
        return out

    def add(self, a: int, b: int) -> int:
        return self._digitwise(a, b, 1)

    def sub(self, a: int, b: int) -> int:
        return self._digitwise(a, b, -1)

    def neg(self, a: int) -> int:
        return self._digitwise(0, a, -1)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            q1 = self.order - 1
            return int(self._exp[(int(self._log[a]) + int(self._log[b])) % q1])
        return self.encode(_mulmod(self._digits(a), self._digits(b), self._red, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("zero to a negative power")
        q1 = self.order - 1
        e %= q1
        if self._exp is not None:
            return int(self._exp[(int(self._log[a]) * e) % q1])
        return self.encode(_powmod(self._digits(a), e, self._red, self.p))

    def trace_map(self, a: int, sub_order: int, r: int) -> int:
        """sum of a^(sub_order^w) for w in 0..r-1."""
        acc = 0
        cur = a
        for _ in range(r):
            acc = self.add(acc, cur)
            cur = self.pow(cur, sub_order)
        return acc

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("discrete log of zero")
        if self._log is None:
            self._log = self._log_table()
        return int(self._log[a])

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("order of zero")
        q1 = self.order - 1
        o = q1
        for r in _order_factors(q1):
            while o % r == 0 and self.pow(a, o // r) == 1:
                o //= r
        return o

    def has_order(self, digits, order: int) -> np.ndarray:
        """For digit rows (..., m) of elements whose order divides ``order``:
        whether each has order exactly ``order``; False at zero.

        With the construction-time tables, g^l has order
        (p^m - 1)/gcd(l, p^m - 1).  Above EAGER_TABLE_LIMIT the powers to
        the exponents order/r, r a prime of ``order``, come from one
        square-and-multiply on digit rows, and none may be 1."""
        digits = np.asarray(digits, dtype=self._red.dtype)
        nonzero = digits.any(axis=-1)
        if self._exp is not None:
            q1 = self.order - 1
            logs = self._log[self.vencode(digits)]
            return nonzero & (np.gcd(logs, q1) == q1 // order)
        one = np.eye(1, self.m, dtype=digits.dtype)
        powers = _square_and_multiply(
            digits, [order // r for r in _order_factors(order)], one,
            lambda rows, b: _mulmod(rows, b[..., None, :], self._red, self.p))
        return nonzero & ~(powers == one).all(axis=-1).any(axis=-1)

    # -- tables and vector operations -----------------------------------------

    def _build_tables(self):
        """At construction, below EAGER_TABLE_LIMIT: the exp and log tables
        of the scalar route, from one block of powers g^0..g^(q-2), and the
        Cayley tables."""
        q1 = self.order - 1
        exp = self.vencode(_power_rows(self._digits(self.generator), q1, self._red, self.p))
        log = np.full(self.order, -1, dtype=np.int64)
        log[exp] = np.arange(q1)
        self._exp = exp
        self._log = log
        if self.order <= CAYLEY_LIMIT:
            self._digit_table = self.vdigits(np.arange(self.order))
            mul = exp[(log[:, None] + log) % q1]
            mul[0] = mul[:, 0] = 0
            tables = self._digit_sum_table(1), self._digit_sum_table(-1), mul
            self._add, self._sub, self._mul = (t.astype(np.uint8).ravel() for t in tables)

    def _log_table(self) -> np.ndarray:
        """dlog's table above EAGER_TABLE_LIMIT, read by no other method:
        each block of POWER_BLOCK generator powers, the previous one times
        g^POWER_BLOCK, is written straight into it."""
        if self.order > TABLE_LIMIT:
            raise TooLargeError(
                f"field of order {self.order} exceeds the {TABLE_LIMIT} table limit")
        q1 = self.order - 1
        p, red = self.p, self._red
        g = self._digits(self.generator)
        block = _power_rows(g, POWER_BLOCK, red, p)
        step = _mulmod(block[-1], g, red, p)
        log = np.full(self.order, -1, dtype=np.int64)
        for start in range(0, q1, POWER_BLOCK):
            if start:
                block = _mulmod(block, step, red, p)
            log[self.vencode(block[:q1 - start])] = np.arange(start, min(q1, start + POWER_BLOCK))
        return log

    def _digit_sum_table(self, sign: int) -> np.ndarray:
        """The Q x Q table of a + sign*b from the p x p table of F_p, one low
        digit more per step (a Kronecker sum, no division)."""
        p, e = self.p, np.arange(self.p)
        base, out = np.add.outer(e, sign * e) % p, np.zeros((1, 1), dtype=np.int64)
        for _ in range(self.m):
            out = (p * out[:, None, :, None] + base[:, None]).reshape(len(out) * p, -1)
        return out

    def vdigits(self, a) -> np.ndarray:
        """The base-p digits (..., m) of an array of elements (...)."""
        if self._digit_table is not None:
            return self._digit_table.take(a, axis=0)
        return np.asarray(a, dtype=np.int64)[..., None] // self.p ** np.arange(self.m) % self.p

    def vencode(self, digits):
        """The elements of base-p digit rows (..., m), the inverse of
        :meth:`vdigits`; an int for one row."""
        out = np.asarray(digits) @ self._weights
        return int(out) if out.ndim == 0 else out

    @property
    def vdtype(self):
        """The dtype of the ``out`` buffers of vmul and vsub: that of the
        Cayley tables when the field has them."""
        return np.int64 if self._mul is None else self._mul.dtype

    def _gather(self, table: np.ndarray, a, b, out, index) -> np.ndarray:
        """a op b read from a flat Cayley table, entry a * order + b; with the
        buffers ``out`` and ``index``, the result and the index are written
        there."""
        if out is None:
            idx = np.asarray(a, dtype=np.int64) * self.order + np.asarray(b, dtype=np.int64)
            return table.take(idx).astype(np.int64)
        # the index is formed in intp whatever the operands' dtype: in a
        # uint8 operand's own dtype, a * order would wrap
        np.add(np.multiply(a, self.order, out=index, dtype=np.intp), b, out=index, dtype=np.intp)
        return table.take(index, out=out, mode="clip")

    def vadd(self, a, b, out=None, index=None) -> np.ndarray:
        """a + b; see :meth:`vmul` for ``out`` and ``index``."""
        if self._add is not None:
            return self._gather(self._add, a, b, out, index)
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return self._into(out, self._digitwise(a, b, 1))

    def vsub(self, a, b, out=None, index=None) -> np.ndarray:
        """a - b; see :meth:`vmul` for ``out`` and ``index``."""
        if self._sub is not None:
            return self._gather(self._sub, a, b, out, index)
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        return self._into(out, self._digitwise(a, b, -1))

    def vneg(self, a) -> np.ndarray:
        return self.vsub(0, a)

    def vmul(self, a, b, out=None, index=None) -> np.ndarray:
        """a * b.  Given ``out``, an array of the broadcast shape and dtype
        ``vdtype``, and ``index``, an intp array of that shape, the product is
        written to ``out`` and returned; through the Cayley tables nothing of
        that shape is allocated.  Above them it is a product mod p over a
        prime field, and otherwise the digit kernel on the broadcast digit
        rows; where their int64 sums, or the elements themselves, could wrap
        it raises TooLargeError."""
        if self._mul is not None:
            return self._gather(self._mul, a, b, out, index)
        if (self.p - 1) ** 2 >= 2 ** 63 or self.order > 2 ** 63 or (
                self.m > 1 and self._red.dtype == object):
            raise TooLargeError(f"elements or products of GF({self.p}^{self.m}) overflow int64")
        if self.m == 1:
            a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            return self._into(out, a * b % self.p)
        product = _mulmod(self.vdigits(a), self.vdigits(b), self._red, self.p)
        return self._into(out, self.vencode(product))

    @staticmethod
    def _into(out, result: np.ndarray) -> np.ndarray:
        if out is None:
            return result
        out[...] = result
        return out

    def vpow(self, a, e: int) -> np.ndarray:
        """Element-wise a^e for a fixed exponent, 0^e = 0, by square-and-
        multiply through :meth:`vmul`.  A Cayley field runs it once per
        exponent on every element and then reads a^e by one gather from that
        table."""
        e %= self.order - 1
        lut = self._pow_luts.get(e)
        if lut is not None:
            return lut.take(a)
        x = np.arange(self.order) if self._mul is not None else np.asarray(a, dtype=np.int64)
        # rows of width 1, starting from 1 at x != 0 and 0 at x = 0
        out = _square_and_multiply(x[..., None], [e], (x != 0)[..., None, None],
                                   lambda rows, b: self.vmul(rows, b[..., None, :]))[..., 0, 0]
        if self._mul is None:
            return out
        self._pow_luts[e] = out
        return out.take(a)

    # -- misc -----------------------------------------------------------------

    def spec_string(self) -> str:
        coeffs = ",".join(str(c) for c in self.modulus)
        return f"{self.p}^{self.m}/{coeffs}"

    def __repr__(self):
        return f"Field(GF({self.p}^{self.m}), modulus={list(self.modulus)})"


@functools.lru_cache(maxsize=None)
def _field_cached(p: int, m: int, modulus: tuple[int, ...] | None) -> Field:
    if modulus is None:
        modulus = least_primitive_modulus(p, m)
    return Field(p, m, modulus)


def field(p: int, m: int = 1, *, modulus=None, paper: bool = False) -> Field:
    """Construct (or fetch the cached) GF(p^m).

    ``paper=True`` selects the bundled reference modulus when one exists for
    (p, m); otherwise the lexicographically least primitive modulus is used.
    """
    if modulus is None and paper and (p, m) in PAPER_MODULI:
        modulus = PAPER_MODULI[(p, m)]
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _field_cached(p, m, modulus)


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; InvalidParameterError unless q is a prime power.

    Only the exact e-th roots of q, e <= log2 q, are tested for primality,
    so a large q is never factored."""
    q = operator.index(q)
    for e in range(1, q.bit_length()):
        p = _integer_root(q, e)
        if p ** e == q and _is_prime(p):
            return p, e
    raise InvalidParameterError(f"q = {q} is not a prime power")


def field_of_order(q: int, *, paper: bool = False) -> Field:
    return field(*prime_power(q), paper=paper)


def parse_field_spec(spec: str) -> Field:
    """Parse a "p^m/c0,c1,...,cm" field description (see Field.spec_string)."""
    head, _, tail = spec.partition("/")
    if "^" in head:
        p_s, _, m_s = head.partition("^")
        p, m = int(p_s), int(m_s)
    else:
        p, m = int(head), 1
    modulus = tuple(int(c) for c in tail.split(",")) if tail else None
    return field(p, m, modulus=modulus)


def linear_factor_product(f: Field, a: int, exponents) -> np.ndarray:
    """The base-p digit rows of the coefficients, low to high, of the
    product of X - a^k over ``exponents``.

    The powers of a come from one doubling, and each linear factor costs one
    product of all the coefficient rows (base-p digits) by its root, so no
    scalar field product is made.
    """
    p, red = f.p, f._red
    exponents = list(exponents)
    powers = _power_rows(f._digits(a), max(exponents, default=0) + 1, red, p)
    coeffs = np.zeros((1, f.m), dtype=red.dtype)
    coeffs[0, 0] = 1
    for k in exponents:
        # c(X) (X - r): every coefficient moves up one degree, minus r times itself
        nxt = np.concatenate([np.zeros_like(coeffs[:1]), coeffs])
        nxt[:-1] -= _mulmod(coeffs, powers[k], red, p)
        coeffs = nxt % p
    return coeffs


# ---------------------------------------------------------------------------
# trace maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceParams:
    """Parameters of the relative trace from GF(Q^r) onto GF(Q).

    ``owner`` is the big field GF(Q^r) the argument lives in.
    """

    owner: Field
    Q: int
    r: int

    def __post_init__(self):
        if self.Q < 2 or self.r < 1 or self.owner.order != self.Q ** self.r:
            raise InvalidParameterError(
                f"field of order {self.owner.order} is not GF({self.Q}^{self.r})")


def trace(b: int, params: TraceParams) -> int:
    """Relative trace: sum of the Q-power conjugates b^(Q^w), w = 0..r-1.

    The result lies in the GF(Q) subfield (checked by the caller's tests via
    result^Q == result); it is returned in the owner field's encoding.
    """
    return params.owner.trace_map(b, params.Q, params.r)


# ---------------------------------------------------------------------------
# the twist element and the conjugate-sum bijection
# ---------------------------------------------------------------------------

def _check_t(t: int, p: int):
    """The form-degree rule: t even and t != 1 (mod p), so psi is a bijection."""
    if t < 2 or t % 2 != 0:
        raise InvalidParameterError(f"degree t={t} must be an even integer >= 2")
    if t % p == 1:
        raise InvalidParameterError(
            f"t={t} with t = 1 (mod {p}) is outside the supported range")


def find_gamma(field_qt: Field, q: int) -> int:
    """The designated twist element of GF(q^t).

    With t = 2^a * m_odd and q_A = q^(2^(a-1)), gamma is a nonzero element of
    the GF(q_A^2) subfield with gamma^(q_A) = -gamma.  For even q, gamma = 1.
    For odd q, h = generator^((q^t - 1)/(q_A^2 - 1)) generates GF(q_A^2)^*,
    and h^u solves the equation exactly when u = (q_A + 1)/2 (mod q_A + 1),
    since h^(u (q_A - 1)) must be -1 = h^((q_A^2 - 1)/2); the least such u
    is taken, so gamma = generator^((q^t - 1)/(2 (q_A - 1))).  Orthogonality predicates are invariant under rescaling
    gamma by GF(q)*, so any deterministic choice works.
    """
    t = _degree_over(field_qt, q)
    _check_t(t, field_qt.p)
    if q % 2 == 0:
        return 1
    qA = q ** ((t & -t) // 2)
    return field_qt.pow(field_qt.generator, (field_qt.order - 1) // (2 * (qA - 1)))


def _degree_over(field_qt: Field, q: int) -> int:
    t = 0
    order = field_qt.order
    cur = 1
    while cur < order:
        cur *= q
        t += 1
    if cur != order:
        raise InvalidParameterError(f"|field| = {order} is not a power of q = {q}")
    return t


def psi(alpha: int, field_qt: Field, q: int) -> int:
    """The conjugate-sum bijection a -> a^q + a^(q^2) + ... + a^(q^(t-1)).

    Equals Tr_{q,t}(a) - a; an F_q-linear bijection of GF(q^t) whenever t is
    even and t != 1 (mod p).  For t = 2 it is simply the q-power Frobenius.
    """
    t = _degree_over(field_qt, q)
    _check_t(t, field_qt.p)
    tr = field_qt.trace_map(alpha, q, t)
    return field_qt.sub(tr, alpha)


@functools.lru_cache(maxsize=None)
def _psi_inverse_matrix(field_qt: Field, q: int) -> np.ndarray:
    """Matrix of psi^(-1) on the F_p polynomial basis (columns = images)."""
    p, m = field_qt.p, field_qt.m
    cols = []
    for i in range(m):
        img = psi(field_qt.encode([0] * i + [1]), field_qt, q)
        cols.append(field_qt.decode(img))
    mat = np.array(cols, dtype=np.int64).T % p  # psi as m x m matrix over F_p
    inv = linalg.inverse(field(p), mat)
    if inv is None:
        raise AssertionError("conjugate-sum map is singular; hypotheses violated")
    return inv


def psi_inverse(beta: int, field_qt: Field, q: int) -> int:
    """Inverse of :func:`psi`; for t = 2 this is again the Frobenius."""
    t = _degree_over(field_qt, q)
    _check_t(t, field_qt.p)
    if t == 2:
        return field_qt.pow(beta, q)
    inv = _psi_inverse_matrix(field_qt, q)
    vec = np.array(field_qt.decode(beta), dtype=np.int64)
    out = (inv @ vec) % field_qt.p
    return field_qt.encode(out.tolist())


# ---------------------------------------------------------------------------
# subfield embeddings
# ---------------------------------------------------------------------------

class SubfieldMap:
    """The designated field embedding phi: GF(p^m) -> GF(p^M), m | M, as an
    F_p-linear map on base-p digits.

    Row i of ``matrix`` (m x M) holds the digits of phi(x)^i, so the digits
    of phi(a) are those of a times ``matrix``.  phi(x) is the least power of
    dst.generator^ratio, ratio = (p^M - 1)/(p^m - 1), that is a root of
    src.modulus, which makes phi a ring homomorphism and the choice
    deterministic; under the default and reference moduli x is the
    generator.  F_p is fixed pointwise, and a field maps to itself by the
    identity.  The inverse on the image reads the source digits off m pivot
    columns of ``matrix`` and checks that they map back.
    """

    def __init__(self, src: Field, dst: Field):
        if src.p != dst.p or dst.m % src.m != 0:
            raise NotASubfieldError(
                f"GF({src.p}^{src.m}) is not a subfield of GF({dst.p}^{dst.m})")
        self.src = src
        self.dst = dst
        self._fp = field(src.p)
        self.matrix = self._image_powers()
        # the RREF of [matrix | I] is T [matrix | I] with T matrix = I on the
        # pivot columns: T inverts the matrix there
        R, self._pivots = linalg.rref(
            self._fp, np.concatenate([self.matrix, np.eye(src.m, dtype=np.int64)], axis=1))
        self._lift = R[:, dst.m:]

    def _image_powers(self) -> np.ndarray:
        """The digit rows of phi(x)^0, ..., phi(x)^(m-1).

        The candidates g^k, g = dst.generator^ratio, are tested in blocks of
        consecutive k, from k = 1 (g^0 = 1 lies in F_p, where src.modulus,
        irreducible of degree m > 1, has no root), each block twice the last.
        Each term a_j y^j of src.modulus with a_j != 0, j > 0, is the
        sequence g^(j k), extended by doubling: the block k = 1 is the g^j,
        and the block 2^l <= k < 2^(l+1) is the rows so far times the
        multiplication matrix of g^(j 2^l), for all those j by one stacked
        product, each matrix the square of the last.  From k = POWER_BLOCK
        on, each block is the last one times the fixed matrices of
        g^(j POWER_BLOCK), so no more than two blocks of POWER_BLOCK rows
        are held.  The block's values are the terms' sum with a_0, and the
        first zero is the root."""
        src, dst = self.src, self.dst
        if src.m == 1 or src is dst:
            return np.eye(src.m, dst.m, dtype=np.int64)
        p, red, count = dst.p, dst._red, src.order - 1
        g = dst._digits(dst.pow(dst.generator, (dst.order - 1) // count))
        coeffs = np.array(src.modulus, dtype=np.int64)
        terms = np.flatnonzero(coeffs[1:]) + 1

        def mulmod(rows, b):
            return _mulmod(rows, b, red, p)

        def matmul(rows, b):
            return linalg.matmul(self._fp, rows, b)

        one = np.eye(1, dst.m, dtype=np.int64)
        step = _square_and_multiply(g, terms.tolist(), one, mulmod)       # g^j
        powers, block = one[None].repeat(len(terms), axis=0), step[:, None]  # k < 1, k = 1
        done = 1                                     # the block holds done <= k < next
        while block.shape[1]:
            value = (coeffs[terms] @ block.reshape(len(terms), -1)).reshape(-1, dst.m)
            value[:, 0] += coeffs[0]
            roots = np.flatnonzero(~(value % p).any(axis=1))
            if roots.size:  # g^k itself is the term j = 1 where a_1 != 0
                k = done + int(roots[0])
                root = block[0, roots[0]] if terms[0] == 1 else _powmod(g, k, red, p)
                return _power_rows(root, src.m, red, p)
            if done == 1:                            # the multiplication matrices of g^j
                mats = _fold(_shifted(step), red, p)
            done += block.shape[1]
            if done <= POWER_BLOCK:                  # the rows k < done times g^(j done)
                powers, mats = np.concatenate([powers, block], axis=1), matmul(mats, mats)
                block = powers
            block = matmul(block[:, :max(count - done, 0)], mats)
        raise AssertionError("the source modulus has no root in the target")

    def embed(self, a):
        """phi, element-wise on an int or an array."""
        return self.dst.vencode(linalg.matmul(self._fp, self.src.vdigits(a), self.matrix))

    def retract_digits(self, y) -> np.ndarray:
        """The source digits (..., m) of target digit rows (..., M); raises
        CoercionError when a row is outside the image."""
        y = np.asarray(y, dtype=np.int64)
        digits = linalg.matmul(self._fp, y[..., self._pivots], self._lift)
        if (linalg.matmul(self._fp, digits, self.matrix) != y).any():
            raise CoercionError(
                f"an element of GF({self.dst.p}^{self.dst.m}) does not lie in "
                f"the GF({self.src.p}^{self.src.m}) subfield")
        return digits

    def retract(self, y):
        """Inverse of embed, element-wise on an int or an array; raises
        CoercionError when an element is outside the image."""
        return self.src.vencode(self.retract_digits(self.dst.vdigits(y)))


@functools.lru_cache(maxsize=None)
def subfield_map(src: Field, dst: Field) -> SubfieldMap:
    return SubfieldMap(src, dst)


def embed(x: int, src: Field, dst: Field) -> int:
    return subfield_map(src, dst).embed(x)


# ---------------------------------------------------------------------------
# element text format ("0", prime-subfield integers, or generator powers w^k)
# ---------------------------------------------------------------------------

def format_element(f: Field, a: int) -> str:
    if a == 0:
        return "0"
    if a < f.p:
        return str(a)
    if f.order <= TABLE_LIMIT:
        k = f.dlog(a)
        return "w" if k == 1 else f"w^{k}"
    return "[" + ",".join(str(d) for d in f.decode(a)) + "]"


def parse_element(f: Field, token: str) -> int:
    token = token.strip()
    if token in ("w", "W"):
        return f.generator
    if token.startswith(("w^", "W^")):
        return f.pow(f.generator, int(token[2:]))
    if token.startswith("[") and token.endswith("]"):
        digits = [int(c) for c in token[1:-1].split(",")]
        if len(digits) > f.m or not all(0 <= d < f.p for d in digits):
            raise CoercionError(f"digit token {token!r}: not {f.m} or fewer digits in [0, {f.p})")
        return f.encode(digits)
    val = int(token)
    if not 0 <= val < f.p:
        raise CoercionError(f"integer token {token!r} is outside [0, {f.p})")
    return val


def parse_elements(f: Field, text: str) -> list[int]:
    """Comma-separated tokens; a comma inside a bracketed token does not split."""
    return [parse_element(f, tok) for tok in re.split(r",(?![^\[]*\])", text)]
