"""Small finite fields GF(q), q = r^k <= 64.

Elements are encoded as integers 0..q-1 whose base-r digits are the
polynomial coefficients (constant digit first).  The modulus is the
lexicographically least irreducible monic polynomial of degree k over
GF(r), found by trial division, so construction is deterministic.  The
arithmetic reads tables built once per field (see :class:`Field`).
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimePower, TooLarge

MAX_Q = 64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(q: int) -> tuple[int, int]:
    """(r, k) with q = r^k and r prime; raises NotPrimePower otherwise."""
    fac = factorize(q) if q > 1 else {}
    if len(fac) != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    ((r, k),) = fac.items()
    return r, k


def _poly_digits(code: int, r: int, length: int) -> list[int]:
    digits = []
    for _ in range(length):
        digits.append(code % r)
        code //= r
    return digits


class Field:
    """GF(r^k) with integer-coded elements.

    The modulus and a primitive element are found with polynomial
    arithmetic (:meth:`_poly_add`, :meth:`_poly_mul`).  From them, once
    per field, come the tables the arithmetic reads: a q x q table of sums,
    and the powers of the primitive element with their logarithms, so that
    a product is exp[log a + log b] and an inverse exp[-log a]."""

    def __init__(self, q: int):
        if q > MAX_Q:
            raise TooLarge(f"field size {q} > {MAX_Q}")
        r, k = prime_power(q)
        self.q = q
        self.char = r
        self.deg = k
        self.modulus = self._least_irreducible(r, k)
        # Sanity: the multiplicative group must be cyclic of order q-1.
        self.primitive = self._find_primitive()
        self._sum = [[self._poly_add(a, b) for b in range(q)] for a in range(q)]
        self._exp = [1]  # _exp[i] is primitive^i
        for _ in range(q - 2):
            self._exp.append(self._poly_mul(self._exp[-1], self.primitive))
        self._log = [0] * q  # _log[0] is never read
        for i, x in enumerate(self._exp):
            self._log[x] = i

    # -- construction helpers ------------------------------------------

    @staticmethod
    def _poly_mul_mod_r(a: list[int], b: list[int], r: int) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % r
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    @staticmethod
    def _poly_rem(a: list[int], m: list[int], r: int) -> list[int]:
        a = a[:]
        inv_lead = pow(m[-1], -1, r)
        while len(a) >= len(m) and any(a):
            if a[-1] == 0:
                a.pop()
                continue
            factor = a[-1] * inv_lead % r
            shift = len(a) - len(m)
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - factor * mi) % r
            while len(a) > 1 and a[-1] == 0:
                a.pop()
        while len(a) > 1 and a[-1] == 0:
            a.pop()
        return a

    @classmethod
    def _is_irreducible(cls, poly: list[int], r: int) -> bool:
        deg = len(poly) - 1
        for d in range(1, deg // 2 + 1):
            for code in range(r**d, 2 * r**d):
                div = _poly_digits(code, r, d + 1)
                rem = cls._poly_rem(poly, div, r)
                if not any(rem):
                    return False
        return True

    @classmethod
    def _least_irreducible(cls, r: int, k: int) -> tuple[int, ...]:
        if k == 1:
            return (0, 1)
        for code in range(r**k):
            poly = _poly_digits(code, r, k) + [1]
            if cls._is_irreducible(poly, r):
                return tuple(poly)
        raise AssertionError(f"no irreducible polynomial of degree {k} over GF({r})")

    def _find_primitive(self) -> int:
        target = self.q - 1
        for a in range(1, self.q):
            x, n = a, 1
            while x != 1:
                x = self._poly_mul(x, a)
                n += 1
                if n > target:
                    raise AssertionError("multiplicative order overflow")
            if n == target:
                return a
        raise AssertionError(f"GF({self.q}): no primitive element found")

    def _poly_add(self, a: int, b: int) -> int:
        """a + b, coefficient by coefficient mod r."""
        r = self.char
        out, mult = 0, 1
        for _ in range(self.deg):
            out += ((a + b) % r) * mult
            a //= r
            b //= r
            mult *= r
        return out

    def _poly_mul(self, a: int, b: int) -> int:
        """a * b as polynomials over GF(r), reduced by the modulus."""
        r = self.char
        pa = _poly_digits(a, r, self.deg)
        pb = _poly_digits(b, r, self.deg)
        prod = self._poly_mul_mod_r(pa, pb, r)
        rem = self._poly_rem(prod, list(self.modulus), r)
        out = 0
        for i, c in enumerate(rem):
            out += c * r**i
        return out

    # -- arithmetic ----------------------------------------------------

    def _check(self, *els: int) -> None:
        for a in els:
            if not (0 <= a < self.q):
                raise ValueError(f"element {a} out of range for GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return self._sum[a][b]

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a field")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    return Field(q)
