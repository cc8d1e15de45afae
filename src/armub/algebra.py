"""Exact arithmetic foundations.

The package certifies in Q(sqrt(c)) on integer keys: ``epsh`` holds each
exact value as (p, q, L), the value (p + q*sqrt(c))/L, and decides every
order and bound by integer sign tests.  This module gives the scalars that
show such values and the finite fields of the designs:

* arbitrary-precision rationals -- ``fractions.Fraction`` (always reduced,
  positive denominator, so the required invariants hold by construction);
* the real quadratic field Q(sqrt(m)) -- :class:`QuadNum`, values a + b*sqrt(m)
  with rational a, b and a squarefree radicand m >= 2;
* finite fields GF(p^e) for odd p -- :class:`GfField`.

No floating point is used anywhere in a certification path; floats appear
only in rendered reports via :func:`quad_to_float`.

Radicand convention: a requested radicand is reduced to its squarefree core
(sqrt(80) = 4*sqrt(5) is stored over m = 5), so values arising from sqrt(4n)
and sqrt(n) are directly comparable.  Perfect-square radicands are rejected:
such values are plain rationals and must be ``Fraction``s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import DomainError, ExactArithmeticError, StructuralError

Scalar = Union[int, Fraction, "QuadNum"]

MAX_FIELD_SIZE = 1 << 14


def _factor(n: int) -> dict[int, int]:
    """{p: e} with n = prod p**e over the primes p dividing n >= 1, in
    ascending p: the power of 2 from the lowest set bit, then trial division
    by odd d."""
    out = {}
    e = (n & -n).bit_length() - 1
    if e:
        out[2] = e
        n >>= e
    d = 3
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out[d] = e
        d += 2
    if n > 1:
        out[n] = 1
    return out


@lru_cache(maxsize=64)
def square_free_split(n: int) -> tuple[int, int]:
    """Return (f, core) with n = f*f*core and core squarefree."""
    if n <= 0:
        raise DomainError(f"radicand must be positive, got {n}")
    f = core = 1
    for p, e in _factor(n).items():
        f *= p ** (e >> 1)
        if e & 1:
            core *= p
    return f, core


def exact_sqrt(n: int) -> Scalar:
    """sqrt(n) as a Fraction (perfect square) or canonical QuadNum."""
    f, core = square_free_split(n)
    if core == 1:
        return Fraction(f)
    return QuadNum(0, f, core)


class QuadNum:
    """An element a + b*sqrt(m) of Q(sqrt(m)), m squarefree and >= 2.

    Immutable; mixes freely with int and Fraction.  Two QuadNums are
    operable only if their radicands agree after canonicalization.
    Equality is componentwise on (a, b, m); a QuadNum with b == 0 also
    compares equal to the rational a.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b, m: int):
        f, core = square_free_split(m)
        if core == 1:
            raise StructuralError(f"radicand {m} is a perfect square; use Fraction")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b) * f)
        object.__setattr__(self, "m", core)

    def __setattr__(self, name, value):
        raise AttributeError("QuadNum is immutable")

    def _coerce(self, other) -> "QuadNum | None":
        if isinstance(other, QuadNum):
            if other.m != self.m:
                raise StructuralError(f"mixed radicands {self.m} and {other.m}")
            return other
        if isinstance(other, (int, Fraction)):
            return _rational_in(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.a - o.a, self.b - o.b, self.m)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(o.a - self.a, o.b - self.b, self.m)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _make(self.a * other, self.b * other, self.m)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(
            self.a * o.a + self.b * o.b * self.m,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # conjugate: 1/(c + d*sqrt(m)) = (c - d*sqrt(m)) / (c^2 - m*d^2)
        norm = o.a * o.a - self.m * o.b * o.b
        if norm == 0:
            raise ExactArithmeticError("division by zero in Q(sqrt(m))")
        return _make(
            (self.a * o.a - self.m * self.b * o.b) / norm,
            (self.b * o.a - self.a * o.b) / norm,
            self.m,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _make(-self.a, -self.b, self.m)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            return NotImplemented
        out: Scalar = Fraction(1)
        for _ in range(exp):
            out = self * out
        return out

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(m)."""
        sa = _frac_sign(self.a)
        sb = _frac_sign(self.b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite rational signs: compare a^2 against m*b^2
        cmp = _frac_sign(self.a * self.a - self.m * self.b * self.b)
        # a^2 == m*b^2 is impossible for nonzero a, b over squarefree m >= 2
        return sa * cmp

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return self.m == other.m and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other) -> int | None:
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, {self.m})"

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.m})"

    def __float__(self):
        return quad_to_float(self)


def _make(a: Fraction, b: Fraction, m: int) -> QuadNum:
    out = object.__new__(QuadNum)
    object.__setattr__(out, "a", a)
    object.__setattr__(out, "b", b)
    object.__setattr__(out, "m", m)
    return out


def _rational_in(m: int, value) -> QuadNum:
    return _make(Fraction(value), Fraction(0), m)


def _frac_sign(x: Fraction) -> int:
    n = x.numerator
    return (n > 0) - (n < 0)


def quad_to_float(x: Scalar, precision: int = 53) -> float:
    """Render a scalar as a float with error <= 2**-precision + 1 ulp
    (``key_to_float`` of its key).  Report-rendering only -- certification
    paths never call this."""
    if isinstance(x, (int, Fraction)):
        return float(Fraction(x))
    scale = math.lcm(x.a.denominator, x.b.denominator)
    return key_to_float((int(x.a * scale), int(x.b * scale), scale), x.m, precision)


def key_to_float(key: tuple, core: int, precision: int = 53) -> float:
    """Render the value (p + q*sqrt(c))/L, L > 0, of an integer key as a
    float with error <= 2**-precision + 1 ulp.

    sqrt(c) is approximated by isqrt on a scaled integer so the rational
    intermediate is within 2**-(precision+2) of the true value; one
    correctly rounded division of integers adds at most one ulp, so equal
    values render equal floats however their keys are scaled.
    """
    p, q, scale = key
    if not q:
        return p / scale
    shift = precision + 8
    root = math.isqrt(core << (2 * shift))  # floor(sqrt(c) * 2**shift)
    return ((p << shift) + q * root) / (scale << shift)


# ---------------------------------------------------------------------------
# Finite fields GF(p^e), p odd
# ---------------------------------------------------------------------------

def prime_power_split(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e, or None if q is not a prime power."""
    factors = _factor(q) if q >= 2 else {}
    return next(iter(factors.items())) if len(factors) == 1 else None


class GfField:
    """GF(p^e) with log/exp tables over the smallest monic irreducible.

    Elements are integer codes: the code's base-p digits are the polynomial
    coefficients, digit j being the coefficient of x^j, and ascending code
    order is the canonical enumeration of field elements.  The modulus is the
    lexicographically smallest monic irreducible polynomial of degree e,
    found by exhaustive search, so field tables are reproducible across
    runs.  Construct via :func:`gf_make`.
    """

    def __init__(self, p: int, e: int):
        if p == 2 or prime_power_split(p) != (p, 1):
            raise DomainError(f"p={p} is not an odd prime")
        if e < 1:
            raise DomainError(f"degree must be >= 1, got {e}")
        q = p**e
        if q > MAX_FIELD_SIZE:
            raise DomainError(f"field size {q} exceeds budget {MAX_FIELD_SIZE}")
        self.p, self.e, self.q = p, e, q
        self.modulus = self._find_modulus()
        self._build_log_tables()

    # -- construction ------------------------------------------------------

    def _find_modulus(self) -> tuple[int, ...]:
        p, e = self.p, self.e
        if e == 1:
            return (0, 1)  # x - 0 is enough: arithmetic is plain mod p
        for low in range(p**e):
            coeffs = []
            c = low
            for _ in range(e):
                coeffs.append(c % p)
                c //= p
            poly = tuple(coeffs) + (1,)
            if self._is_irreducible(poly):
                return poly
        raise DomainError(f"no irreducible polynomial of degree {e} over GF({p})")

    def _is_irreducible(self, poly: tuple[int, ...]) -> bool:
        p, e = self.p, self.e
        # degree <= 3: reducible iff it has a root
        for r in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * r + c) % p
            if acc == 0:
                return False
        if e <= 3:
            return True
        # Rabin: x^(p^e) == x mod poly, and gcd(x^(p^(e/r)) - x, poly) = 1
        x = (0, 1)
        frob = self._poly_powmod(x, p**e, poly)
        if frob != x:
            return False
        for r in _factor(e):
            g = self._poly_gcd(
                self._poly_sub(self._poly_powmod(x, p ** (e // r), poly), x), poly
            )
            if len(g) > 1:
                return False
        return True

    # polynomial helpers on coefficient tuples (little-endian, normalized)

    def _poly_trim(self, a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    def _poly_sub(self, a, b):
        p = self.p
        n = max(len(a), len(b))
        return self._poly_trim(
            [( (a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
             for i in range(n)]
        )

    def _poly_mulmod(self, a, b, mod):
        p = self.p
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % p
        return self._poly_rem(tuple(out), mod)

    def _poly_rem(self, a, mod):
        p = self.p
        a = list(a)
        dm = len(mod) - 1
        inv_lead = pow(mod[-1], p - 2, p)
        while len(a) - 1 >= dm and a:
            if a[-1] == 0:
                a.pop()
                continue
            factor = (a[-1] * inv_lead) % p
            shift = len(a) - 1 - dm
            for i, c in enumerate(mod):
                a[shift + i] = (a[shift + i] - factor * c) % p
            a.pop()
        return self._poly_trim(a)

    def _poly_powmod(self, base, k, mod):
        result = (1,)
        base = self._poly_rem(base, mod)
        while k:
            if k & 1:
                result = self._poly_mulmod(result, base, mod)
            base = self._poly_mulmod(base, base, mod)
            k >>= 1
        return result

    def _poly_gcd(self, a, b):
        while b:
            a, b = b, self._poly_rem(a, b)
        return a

    def _code_to_poly(self, code: int) -> tuple[int, ...]:
        out, p = [], self.p
        while code:
            out.append(code % p)
            code //= p
        return tuple(out)

    def _poly_to_code(self, poly) -> int:
        code = 0
        for c in reversed(poly):
            code = code * self.p + c
        return code

    def _mul_codes_poly(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        mod = self.modulus
        return self._poly_to_code(
            self._poly_mulmod(self._code_to_poly(a), self._code_to_poly(b), mod)
        )

    def _build_log_tables(self):
        import numpy as np

        q = self.q
        order_factors = _factor(q - 1)
        gen = None
        for g in range(1, q):
            if all(self._pow_poly(g, (q - 1) // r) != 1 for r in order_factors):
                gen = g
                break
        assert gen is not None, "every finite field has a generator"
        self.generator = gen
        exp = np.zeros(q - 1, dtype=np.int64)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            acc = self._mul_codes_poly(acc, gen)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp, log

    def _pow_poly(self, a: int, k: int) -> int:
        result, base = 1, a
        while k:
            if k & 1:
                result = self._mul_codes_poly(result, base)
            base = self._mul_codes_poly(base, base)
            k >>= 1
        return result

    # -- scalar operations on codes -----------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.e):
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.e == 1:
            return (-a) % self.p
        p, out, mult = self.p, 0, 1
        for _ in range(self.e):
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ExactArithmeticError("inverse of zero in GF")
        return int(self._exp[(self.q - 1 - int(self._log[a])) % (self.q - 1)])

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ExactArithmeticError("inverse of zero in GF")
            return 0
        ex = (int(self._log[a]) * k) % (self.q - 1)
        return int(self._exp[ex])

    # -- bulk operations (numpy code arrays) --------------------------------

    def mul_arr(self, a, b):
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        la = self._log[np.broadcast_to(a, out.shape)[nz]]
        lb = self._log[np.broadcast_to(b, out.shape)[nz]]
        out[nz] = self._exp[(la + lb) % (self.q - 1)]
        return out

    def add_arr(self, a, b):
        import numpy as np

        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (a + b) % self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mult = 1
        for _ in range(self.e):
            out += ((a + b) % self.p) * mult
            a, b = a // self.p, b // self.p
            mult *= self.p
        return out

    def __repr__(self):
        return f"GfField(p={self.p}, e={self.e})"


@lru_cache(maxsize=None)
def gf_make(p: int, e: int) -> GfField:
    """Field descriptor for GF(p^e), p an odd prime (cached)."""
    return GfField(p, e)


def gf_from_order(q: int) -> GfField:
    """GF(q) for an odd prime power q."""
    split = prime_power_split(q)
    if split is None:
        raise DomainError(f"{q} is not a prime power")
    return gf_make(*split)
