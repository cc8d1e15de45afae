"""Exact arithmetic foundations: integer keys over Q(sqrt(c)) and the
finite fields of the designs.

The package certifies in Q(sqrt(c)), c squarefree, with one exact medium:
the integer key (p, q, L), L > 0, stands for the value (p + q*sqrt(c))/L.
This module owns that representation:

* every order and bound is an integer sign test (``_quad_sign`` of
  p + q*sqrt(c), ``_key_cmp`` of two keys, ``_eps_side`` of k*a^2 - r);
* ``_magnitudes`` is the one route from values to their distinct
  magnitudes, as ascending keys in lowest terms;
* ``key_to_float`` renders a key for reports, and ``key_str`` shows it as
  ``a`` or ``a + b*sqrt(c)`` with rationals a, b in lowest terms.

Floats appear only in rendered reports, and in ``_magnitudes`` as a
proposed order that integers certify.  A radicand M = f^2*c is carried by
its squarefree core c (``square_free_split``), so values arising from
sqrt(4n) and sqrt(n) share one c; c = 1 means every value is rational.

Finite fields GF(p^e) for odd p are :class:`GfField`.
"""

from __future__ import annotations

import math
from functools import cmp_to_key, lru_cache

# numpy is imported inside the functions that use it: imported here, it
# would load before the package's larger modules compile, and a process
# that compiles its sources (no cached bytecode) peaks about 2 MB higher.

from .errors import DomainError, ExactArithmeticError

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


def key_str(key: tuple, core: int) -> str:
    """The value (p + q*sqrt(c))/L, L > 0, of a key as text: p/L, then
    ``+ q/L*sqrt(c)`` unless q = 0, each rational in lowest terms with its
    sign on the numerator and no denominator 1 (``13/11 + -4/11*sqrt(3)``)."""

    def ratio(n: int) -> str:
        g = math.gcd(n, scale)
        return f"{n // g}" if g == scale else f"{n // g}/{scale // g}"

    p, q, scale = key
    return f"{ratio(p)} + {ratio(q)}*sqrt({core})" if q else ratio(p)


def _quad_sign(p: int, q: int, core: int) -> int:
    """Exact sign of p + q*sqrt(c) for integers p, q and squarefree c: the
    sign of p and q where they agree, else that of p^2 - c*q^2, which is
    nonzero for q != 0 and c > 1 (for c = 1, q is folded into p)."""
    if core == 1:
        p, q = p + q, 0
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > core * q * q else sq


def _key_cmp(x: tuple, y: tuple, core: int) -> int:
    """Sign of x - y for keys (p, q, L) of values (p + q*sqrt(c))/L, L > 0:
    one integer sign test on the cross difference."""
    return _quad_sign(x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], core)


def _eps_side(key: tuple, k: int, core: int, r: int = 1) -> int:
    """Sign of k*a^2 - r for the value a of a key (p, q, L), one integer sign
    test; with r = 1, the side of the epsilon |sqrt(k)*a - 1| of a magnitude a."""
    p, q, scale = key
    return _quad_sign(k * (p * p + core * q * q) - r * scale * scale, 2 * k * p * q, core)


def _magnitudes(values, core: int) -> tuple:
    """(ids, keys) for exact values (p + q*sqrt(c))/L given as integer
    triples (p, q, L): keys lists the distinct |value| ascending, as triples
    in lowest terms with L > 0, and ids, an int64 array, holds at i the
    index in keys of the magnitude of values[i].  The one route from a value
    to its magnitude, for built matrices, the split screen and the
    cross-basis products.  A value's sign is one integer sign test
    (``_quad_sign``).  Floats only propose the order and integers certify
    it: it stands if ``_key_cmp`` finds each adjacent pair ascending
    (distinct keys are distinct values), else ``_key_cmp`` sorts."""
    import numpy as np

    index: dict = {}
    ids = []
    for p, q, scale in values:
        if _quad_sign(p, q, core) < 0:
            p, q = -p, -q
        g = math.gcd(p, q, scale)
        ids.append(index.setdefault((p // g, q // g, scale // g), len(index)))
    try:
        keys = sorted(index, key=lambda x, r=math.sqrt(core): (x[0] + x[1] * r) / x[2])
    except OverflowError:  # a key too large for a float
        keys = None
    if keys is None or any(_key_cmp(x, y, core) >= 0 for x, y in zip(keys, keys[1:])):
        keys = sorted(index, key=cmp_to_key(lambda x, y: _key_cmp(x, y, core)))
    order = np.empty(len(keys), dtype=np.int64)
    order[[index[key] for key in keys]] = np.arange(len(keys))
    return order[np.array(ids, dtype=np.int64)], keys


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
