"""Independent oracles used by the test suite.

Everything here recomputes expected values through routes that do not share
code with the paths under test: sympy radical arithmetic for small exact
matrices, dense integer Gram matrices in int64, per-term-pair Gram matrices
with exact scalar coefficients, one cross-statistics contraction per basis
pair, hand-built designs as explicit class arrays with mu from direct set
arithmetic, epsilon entry by entry, and Paley matrices from scalar field
operations.  The coefficient matrix C of a reduction comes from exact
Gauss-Jordan elimination of (I +/- U/sqrt(M)) (``elimination_coeffs``),
where the library takes the Cayley-Hamilton closed form.

``DenseEpsHadamard`` is the dense oracle: the route the library's
EpsHadamard took before it certified from magnitude codes.  Y is the k x k
integer form L*Y = P + Q*sqrt(c), its entries are the distinct (P_ij, Q_ij)
pairs, every distinct magnitude's epsilon and window verdict is computed,
and Y Y^T = I is checked by k x k integer Gram products, in float64 BLAS
only under the bound of ``_float_exact`` and on Python ints beyond it.
``dense_reduction`` builds it for a split from the library's closed-form C,
which ``elimination_coeffs`` pins.  It shares with the library only the
route from a value to its magnitude (``_magnitudes``).  ``lemma_inverse``
evaluates the library's polynomial-inverse coefficients as the published
displays write them, so that tests can compare those displays.
The Scalars are the tests' exact medium: ``Fraction`` for Q and
``QuadNum`` for Q(sqrt(m)), with ``exact_sqrt`` and ``quad_to_float``; the
library holds every value as an integer key (p, q, L), and ``key_scalar``,
``scalar_rows``, ``abs_scalars`` and ``scalar_terms`` turn its keys into
Scalars.  ``ScalarEps``, ``window``, ``ip_le_eps_square``, ``scalar_float``,
``sign_of``, ``cmp_values`` and ``sqrt_minus_cmp`` are the Scalar reference
for the library's decisions on integer keys: epsilon, the window, the sign
tests and the floats as the library made them on Fraction and QuadNum
before it held keys.  ``DenseEpsHadamard`` selects its epsilons with them
and hands them over as the library's ExactEps of the selected magnitudes;
like the library's EpsHadamard, it gives its entries and magnitudes as keys.
``SparseBasis`` walks the vectors of one basis of a basis set, for the
dense cross-product oracle.
``row_permuted`` builds the row-permuted H of the benchmark's seeded
reduction workloads.  ``eps_table_per_code`` builds the split screen's
magnitude table one U code at a time, from each code's own C, as the screen
did before it worked per relation class.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Union

import numpy as np
import sympy

from armub.algebra import _magnitudes, gf_from_order, key_to_float, square_free_split
from armub.epsh import (
    BlockSplit,
    ExactEps,
    Provenance,
    _code_values,
    _coefficient_form,
    _corner_form,
    _negated_params,
    _T2_PREFER_Y1,
    _T2_PREFER_Y2,
    _T3_PREFER_Y1,
    _T3_PREFER_Y2,
    _poly_inverse_coeffs,
    classify_u,
    corner_split,
    reduce_split,
)
from armub.errors import (
    CertificationError,
    DomainError,
    ExactArithmeticError,
    ResourceLimitError,
    StructuralError,
)
from armub.hadamard import SignMatrix

Scalar = Union[int, Fraction, "QuadNum"]


# ---------------------------------------------------------------------------
# Scalars: Fraction for Q and QuadNum for Q(sqrt(m))
# ---------------------------------------------------------------------------

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
    """Render a scalar as a float with error <= 2**-precision + 1 ulp: the
    library's ``key_to_float`` of its key."""
    if isinstance(x, (int, Fraction)):
        return float(Fraction(x))
    scale = math.lcm(x.a.denominator, x.b.denominator)
    return key_to_float((int(x.a * scale), int(x.b * scale), scale), x.m, precision)


# ---------------------------------------------------------------------------
# Scalar reference: comparisons, epsilon and the window on Fraction/QuadNum
# ---------------------------------------------------------------------------

def sign_of(x: Scalar) -> int:
    """Exact sign of any supported scalar (int, Fraction, QuadNum)."""
    return x.sign() if isinstance(x, QuadNum) else (x > 0) - (x < 0)


def cmp_values(x: Scalar, y: Scalar) -> int:
    """Exact three-way comparison of scalar values."""
    return sign_of(_sub(x, y))


def _sub(x: Scalar, y: Scalar) -> Scalar:
    if isinstance(x, int):
        x = Fraction(x)
    return x - y


def sqrt_minus_cmp(radicand: Scalar, rhs: Scalar) -> int:
    """Exact sign of sqrt(radicand) - rhs, for radicand >= 0.

    Both arguments live in the same quadratic field (or Q); since only one
    square root is nested the comparison reduces to one extra squaring.
    """
    if sign_of(radicand) < 0:
        raise DomainError("negative value under square root")
    sr = sign_of(rhs)
    if sr < 0:
        return 1
    return sign_of(_sub(radicand, rhs * rhs))


def as_key(x: Scalar) -> tuple[int, int, int]:
    """The key (p, q, L), L > 0, of a rational or a QuadNum."""
    if isinstance(x, QuadNum):
        scale = math.lcm(x.a.denominator, x.b.denominator)
        return int(x.a * scale), int(x.b * scale), scale
    x = Fraction(x)
    return x.numerator, 0, x.denominator


def key_scalar(key: tuple, core: int) -> Scalar:
    """The Fraction or QuadNum of a key (p, q, L) over sqrt(core)."""
    p, q, scale = key
    return QuadNum(Fraction(p, scale), Fraction(q, scale), core) if q else Fraction(p, scale)


def entry(y, i: int, j: int) -> tuple[int, int, int]:
    """Y_ij of an EpsHadamard or a DenseEpsHadamard as its key (p, q, L) in
    lowest terms.  An EpsHadamard's entry is derived from its source H, its
    split and its terms: Y_ij = D_ij/sqrt(M) + w_i^T C v_j, with w_i row i
    of W and v_j column j of V, negations applied, and C = (A' + B'*sqrt(c))/L
    over the common denominator L of the terms."""
    if isinstance(y, DenseEpsHadamard):
        return y.entry(i, j)
    prov, h = y.provenance, y.source.rows

    def rest(index, selected):  # the index-th row or column of H not selected
        for x in selected:  # ascending
            index += x <= index
        return index

    r, c = rest(i, prov.row_select), rest(j, prov.col_select)
    w = [int(h[r, x]) * (-1 if neg else 1) for x, neg in zip(prov.col_select, prov.col_negate)]
    v = [int(h[x, c]) * (-1 if neg else 1) for x, neg in zip(prov.row_select, prov.row_negate)]
    (p, q, scale), _ = y.terms[0]
    p, q = int(h[r, c]) * p, int(h[r, c]) * q
    for (unit_p, unit_q, _), x in y.terms[1:]:
        value = sum(w[a] * int(x[a, b]) * v[b] for a in range(len(w)) for b in range(len(v)))
        p, q = p + unit_p * value, q + unit_q * value
    g = math.gcd(p, q, scale)
    return p // g, q // g, scale // g


def scalar_rows(y) -> list[list[Scalar]]:
    """The entries of Y (an EpsHadamard or a DenseEpsHadamard) as Scalars."""
    core, k = square_free_split(y.radicand)[1], y.order
    return [[key_scalar(entry(y, i, j), core) for j in range(k)] for i in range(k)]


def abs_scalars(y) -> list[Scalar]:
    """The distinct entry magnitudes of Y, ascending, as Scalars."""
    core = square_free_split(y.radicand)[1]
    return [key_scalar(key, core) for key in y.distinct_abs_values()]


def scalar_terms(y) -> list[tuple[Scalar, object]]:
    """The terms of an EpsHadamard with each coefficient key as a Scalar."""
    core = square_free_split(y.radicand)[1]
    return [(key_scalar(c, core), x) for c, x in y.terms]


class ScalarEps:
    """epsilon = |sqrt(q) - 1| held as the Scalar q = k * Y_ij^2 at the
    extremum: the library's ExactEps before it held keys.

    ``side`` is the sign of sqrt(q) - 1 (equivalently of q - 1).  All
    comparisons are exact; at most one square root is nested, so
    mixed-side comparisons reduce to a single extra squaring.  ``cmp`` also
    takes a library ``ExactEps``, through the Scalar of its q.
    """

    __slots__ = ("q", "side")

    def __init__(self, q: Scalar):
        if sign_of(q) < 0:
            raise DomainError("k*Y^2 cannot be negative")
        self.q = q if not isinstance(q, int) else Fraction(q)
        self.side = sign_of(self.q - 1)

    @classmethod
    def zero(cls) -> "ScalarEps":
        return cls(Fraction(1))

    @classmethod
    def of(cls, eps: ExactEps) -> "ScalarEps":
        """The ScalarEps of a library ExactEps."""
        return cls(key_scalar(eps.ksq, eps.core))

    def cmp(self, other) -> int:
        if isinstance(other, ExactEps):
            other = ScalarEps.of(other)
        s1, s2 = self.side, other.side
        if s1 == 0:
            return 0 if s2 == 0 else -1
        if s2 == 0:
            return 1
        if s1 > 0 and s2 > 0:
            return cmp_values(self.q, other.q)
        if s1 < 0 and s2 < 0:
            return cmp_values(other.q, self.q)
        # mixed sides: sign of sqrt(q1) + sqrt(q2) - 2
        mixed = sqrt_minus_cmp(4 * self.q * other.q, 4 - self.q - other.q)
        return mixed if s1 > 0 else -mixed

    def le_bound(self, bound: Scalar) -> bool:
        """Exact epsilon <= bound, for a scalar bound."""
        if sign_of(bound) < 0:
            return False
        if self.side == 0:
            return True
        if self.side > 0:
            return cmp_values(self.q, (1 + bound) * (1 + bound)) <= 0
        low = 1 - bound
        if sign_of(low) <= 0:
            return True
        return cmp_values(self.q, low * low) >= 0

    def lt_bound(self, bound: Scalar) -> bool:
        if sign_of(bound) <= 0:
            return False
        if self.side == 0:
            return True
        if self.side > 0:
            return cmp_values(self.q, (1 + bound) * (1 + bound)) < 0
        # 1 - sqrt(q) < bound <=> sqrt(q) > 1 - bound
        low = 1 - bound
        slow = sign_of(low)
        if slow < 0:
            return True
        if slow == 0:
            return sign_of(self.q) > 0
        return cmp_values(self.q, low * low) > 0

    def __lt__(self, other):
        return self.cmp(other) < 0


def scalar_float(x: Scalar, precision: int = 53) -> float:
    """The float the library rendered a Scalar as before it rendered keys:
    a + b * floor(sqrt(m) * 2^s) / 2^s, s = precision + 8, in Fractions."""
    if isinstance(x, (int, Fraction)):
        return float(Fraction(x))
    shift = precision + 8
    return float(x.a + x.b * Fraction(math.isqrt(x.m << (2 * shift)), 1 << shift))


def window(t: int, m: int):
    """Closed interval of the reduction theorem for the entry magnitudes of
    a reduction of order m by t, as Scalars, or None where it does not
    apply: the theorem's (1 -/+ t/(sqrt(M) - t))/sqrt(M)."""
    if t < 1 or t * t >= m:
        return None
    sqrt_m = exact_sqrt(m)
    return (
        (1 - Fraction(t) / (sqrt_m - t)) / sqrt_m,
        (1 + Fraction(t) / (sqrt_m - t)) / sqrt_m,
    )


def ip_le_eps_square(max_ip: Scalar, eps: ScalarEps, k: int) -> bool:
    """Exact k * max_ip <= (1 + eps)^2 on Scalars."""
    lhs = k * max_ip
    if eps.side >= 0:
        return cmp_values(lhs, eps.q) <= 0
    # (1+eps)^2 = (2 - sqrt(q))^2 = 4 + q - 4 sqrt(q)
    return sqrt_minus_cmp(16 * eps.q, 4 + eps.q - lhs) <= 0


# ---------------------------------------------------------------------------
# Bases, one per parallel class
# ---------------------------------------------------------------------------

class SparseBasis:
    """One orthonormal basis of a basis set in sparse block form (k nonzeros
    per vector): block b of class ``class_index`` (points ascending) gives k
    vectors, vector i carrying Y_ij at coordinate b_j, indexed
    block * k + row."""

    __slots__ = ("rbd", "y", "class_index")

    def __init__(self, rbd, y, class_index: int):
        self.rbd = rbd
        self.y = y
        self.class_index = class_index

    @property
    def d(self) -> int:
        return self.rbd.d

    @property
    def k(self) -> int:
        return self.rbd.k

    @property
    def blocks(self) -> np.ndarray:
        return self.rbd.class_blocks(self.class_index)

    def block_of_vector(self, index: int) -> int:
        return index // self.k

    def vector(self, index: int) -> list[tuple[int, Scalar]]:
        """(coordinate, value) pairs of the addressed vector."""
        if not 0 <= index < self.d:
            raise DomainError(f"vector index {index} outside [0, {self.d})")
        block, row = divmod(index, self.k)
        pts, core = self.blocks[block], square_free_split(self.y.radicand)[1]
        return [(int(pts[j]), key_scalar(entry(self.y, row, j), core)) for j in range(self.k)]

    def support(self, index: int) -> tuple[int, ...]:
        block = self.block_of_vector(index)
        return tuple(int(p) for p in self.blocks[block])


def bases_of(bs) -> list[SparseBasis]:
    """The bases of a basis set, one per parallel class of its design."""
    return [SparseBasis(bs.rbd, bs.y, l) for l in range(bs.num_bases)]


# ---------------------------------------------------------------------------
# sympy bridge
# ---------------------------------------------------------------------------

def scalar_to_sympy(v):
    if isinstance(v, QuadNum):
        return sympy.Rational(v.a) + sympy.Rational(v.b) * sympy.sqrt(v.m)
    return sympy.Rational(Fraction(v))


def sympy_reduction(split: BlockSplit, variant: str) -> sympy.Matrix:
    """Y1/Y2 of a split computed entirely in sympy.

    The split's negations flip the selected full rows and columns of H, and
    its index sets cut out U, V, W and D.  (I +/- U^)^-1 is the adjugate
    over the determinant with its radical cleared, so every entry of the
    result expands to a + b*sqrt(m).
    """
    h = sympy.Matrix(split.source.rows.tolist())
    m = h.rows
    for i, neg in zip(split.row_select, split.row_negate):
        if neg:
            h[i, :] = -h[i, :]
    for j, neg in zip(split.col_select, split.col_negate):
        if neg:
            h[:, j] = -h[:, j]
    rows, cols = list(split.row_select), list(split.col_select)
    rest_rows = [i for i in range(m) if i not in rows]
    rest_cols = [j for j in range(m) if j not in cols]
    h = h / sympy.sqrt(m)
    sign = 1 if variant == "Y1" else -1
    a = sympy.eye(len(rows)) + sign * h.extract(rows, cols)
    inv = (a.adjugate() * sympy.radsimp(1 / sympy.expand(a.det()))).expand()
    y = h.extract(rest_rows, rest_cols) - sign * h.extract(rest_rows, cols) * inv \
        * h.extract(rows, rest_cols)
    return y.expand()


def assert_matches_sympy(y, sym_matrix):
    k, rows = y.order, scalar_rows(y)
    assert sym_matrix.shape == (k, k)
    for i in range(k):
        for j in range(k):
            got = scalar_to_sympy(rows[i][j])
            assert sympy.expand(got - sym_matrix[i, j]) == 0, (i, j, got, sym_matrix[i, j])


# ---------------------------------------------------------------------------
# Exact sign/magnitude over integer pairs (independent re-derivation)
# ---------------------------------------------------------------------------

def int_pair_sign(pa: int, ra: int, m: int) -> int:
    """Sign of pa + ra*sqrt(m) using only integer comparisons."""
    if ra == 0:
        return (pa > 0) - (pa < 0)
    if pa == 0:
        return (ra > 0) - (ra < 0)
    sa = 1 if pa > 0 else -1
    sb = 1 if ra > 0 else -1
    if sa == sb:
        return sa
    diff = pa * pa - m * ra * ra
    return sa * ((diff > 0) - (diff < 0))


# ---------------------------------------------------------------------------
# Dense Gram oracle
# ---------------------------------------------------------------------------

def _exact_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer matrix product in int64 (numpy's integer matmul, not BLAS).

    Exact: every partial sum is at most n*max|a|*max|b|, asserted below 2^63.
    Object arrays of Python ints give the same result about 50x slower.
    """
    bound = a.shape[1] * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    assert bound < 2**63, "dense oracle would overflow int64"
    return a.astype(np.int64) @ b.astype(np.int64)


def dense_cross_oracle(bs):
    """Brute-force dense Gram over all cross-basis pairs.

    Returns (value_counts, max_key) where value_counts maps the canonical
    magnitude key (a, b, m) of each |<u, v>| (exact Fractions) to its count
    over ordered vector pairs of unordered basis pairs, and max_key is the
    largest magnitude.  Vectors are materialized via basis.vector, then the
    Grams are dense integer matmuls after clearing denominators.
    """
    d = bs.d
    core = 1
    dens = set()
    for b in bases_of(bs):
        for i in range(d):
            for _, v in b.vector(i):
                if isinstance(v, QuadNum):
                    core = v.m
                    dens.add(v.a.denominator)
                    dens.add(v.b.denominator)
                else:
                    dens.add(Fraction(v).denominator)
    q = 1
    for den in dens:
        q = q * den // gcd(q, den)

    def dense_pair(b):
        p = np.zeros((d, d), dtype=np.int64)
        r = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            for coord, v in b.vector(i):
                if isinstance(v, QuadNum):
                    p[i, coord] = int(v.a * q)
                    r[i, coord] = int(v.b * q)
                else:
                    p[i, coord] = int(Fraction(v) * q)
        return p, r

    mats = [dense_pair(b) for b in bases_of(bs)]
    q2 = q * q
    counts: dict = {}

    def magnitude_key(pa: int, ra: int):
        if int_pair_sign(pa, ra, core) < 0:
            pa, ra = -pa, -ra
        return (Fraction(pa, q2), Fraction(ra, q2), core if ra else 1)

    for l in range(len(mats)):
        pl, rl = mats[l]
        for m in range(l + 1, len(mats)):
            pm, rm = mats[m]
            rational = _exact_int_matmul(pl, pm.T) + core * _exact_int_matmul(rl, rm.T)
            radical = _exact_int_matmul(pl, rm.T) + _exact_int_matmul(rl, pm.T)
            pairs, cnts = np.unique(
                np.stack([rational.reshape(-1), radical.reshape(-1)], axis=1),
                axis=0,
                return_counts=True,
            )
            for (pa, ra), cnt in zip(pairs, cnts):
                key = magnitude_key(int(pa), int(ra))
                counts[key] = counts.get(key, 0) + int(cnt)
    max_key = None
    for key in counts:
        if max_key is None or _key_less(max_key, key):
            max_key = key
    return counts, max_key


def dense_columns(basis):
    """Column vectors of a basis as dense exact lists (small d only)."""
    cols = []
    for i in range(basis.d):
        col = [Fraction(0)] * basis.d
        for coord, val in basis.vector(i):
            col[coord] = val
        cols.append(col)
    return cols


def sparse_orthonormality_check(basis) -> bool:
    """Literal exact B^T B = I using only coordinate-sharing vector pairs.

    Vectors of different blocks never share coordinates, so only the
    s within-block k x k Grams contribute.  Quadratic in k per block.
    """
    k = basis.k
    for b in range(basis.rbd.s):  # s blocks in this class
        for i in range(k):
            vi = dict(basis.vector(b * k + i))
            for j in range(i, k):
                acc = Fraction(0)
                for coord, val in basis.vector(b * k + j):
                    if coord in vi:
                        acc = acc + vi[coord] * val
                if cmp_values(acc, Fraction(int(i == j))) != 0:
                    return False
    return True


def _key_less(k1, k2) -> bool:
    """k1 < k2 for magnitude keys (both nonnegative values)."""
    a1, b1, m1 = k1
    a2, b2, m2 = k2
    m = max(m1, m2, 2)
    # sign of (a2 - a1) + (b2 - b1) sqrt(m); b terms vanish unless m matches
    da, db = a2 - a1, b2 - b1
    return int_pair_sign(da.numerator * db.denominator,
                         db.numerator * da.denominator, m) > 0


def report_value_key(value, core_hint=1):
    """Canonical (a, b, m) key of a nonnegative scalar magnitude."""
    if isinstance(value, QuadNum):
        return (value.a, value.b, value.m if value.b else 1)
    return (Fraction(value), Fraction(0), 1)


def report_delta_dict(report):
    core = square_free_split(report.radicand)[1]
    return {report_value_key(key_scalar(dv.key, core)): dv.count for dv in report.delta}


def oracle_classification(counts: dict, d: int) -> str:
    """Classification rules re-derived from the magnitude keys."""
    keys = list(counts)
    nonzero = [k for k in keys if k[0] != 0 or k[1] != 0]
    if len(keys) == 1 and len(nonzero) == 1:
        a, b, m = keys[0]
        # d * v^2 == 1 with v = a + b sqrt(m)
        sq_rat = d * (a * a + m * b * b)
        sq_rad = d * 2 * a * b
        if sq_rad == 0 and sq_rat == 1:
            return "MUB"
    if len(keys) == 2 and any(k[0] == 0 and k[1] == 0 for k in keys):
        a, b, m = nonzero[0]
        # beta <= 2 <=> d * v^2 <= 4
        lhs_rat = d * (a * a + m * b * b) - 4
        lhs_rad = d * 2 * a * b
        if int_pair_sign(lhs_rat.numerator * lhs_rad.denominator,
                         lhs_rad.numerator * lhs_rat.denominator, m) <= 0:
            return "APMUB"
    return "beta-ARMUB"


# ---------------------------------------------------------------------------
# Designs as explicit class arrays
# ---------------------------------------------------------------------------

def set_intersection_mu(design) -> int:
    """Max cross-class block intersection, by sets of points."""
    blocks = [[set(int(p) for p in blk) for blk in design.class_blocks(l)]
              for l in range(design.r)]
    return max((len(a & b)
                for l, m in itertools.combinations(range(design.r), 2)
                for a in blocks[l] for b in blocks[m]), default=0)


class ClassArrayDesign:
    """A hand-built resolvable design as its r x s x k class array, with
    what ``assemble``, ``BasisSet`` and ``SparseBasis`` read of a design: d, k, s, r, mu
    and ``class_blocks``.  mu comes from ``set_intersection_mu``."""

    def __init__(self, classes):
        self.classes = np.array(classes, dtype=np.int64)
        self.r, self.s, self.k = self.classes.shape
        self.d = self.k * self.s
        self.mu = set_intersection_mu(self)

    def class_blocks(self, class_index: int) -> np.ndarray:
        return self.classes[class_index]


def affine_classes(k: int, s: int) -> list:
    """The s non-vertical classes of AG(2, s) on the rows a < k, by scalar
    field operations: block c of slope l holds a*s + (c + l*a) for a < k."""
    f = gf_from_order(s)
    return [[[a * s + f.add(c, f.mul(l, a)) for a in range(k)] for c in range(s)]
            for l in range(s)]


def paper_d4_design() -> ClassArrayDesign:
    """The paper's d = 4 fixture: three classes of two blocks of R^4, which
    with Y = H_2/sqrt(2) give the three real MUBs of R^4."""
    return ClassArrayDesign([[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]])


def affine_plane_3_design(relabel=None) -> ClassArrayDesign:
    """All four parallel classes of AG(2, 3), the vertical one included
    (k = s = 3, d = 9, r = 4); ``relabel`` renames the points."""
    classes = affine_classes(3, 3)
    classes.append([[a * 3 + b for b in range(3)] for a in range(3)])  # x = a
    if relabel is not None:
        classes = [[sorted(relabel[p] for p in blk) for blk in cls] for cls in classes]
    return ClassArrayDesign(classes)


# ---------------------------------------------------------------------------
# Cross statistics, one contraction per basis pair
# ---------------------------------------------------------------------------

def _class_maps(design, class_index: int) -> tuple[np.ndarray, np.ndarray]:
    """(point -> index of its block, point -> position in its block) of one
    class, from the class's blocks."""
    blocks = design.class_blocks(class_index).reshape(-1)
    block_of = np.full(design.d, -1, dtype=np.int64)
    pos_of = np.full(design.d, -1, dtype=np.int64)
    block_of[blocks] = np.repeat(np.arange(design.s), design.k)
    pos_of[blocks] = np.tile(np.arange(design.k), design.s)
    return block_of, pos_of


def cross_stats_pairwise(bs):
    """One cross-statistics contraction per basis pair, with the block and
    position maps of each class derived from its blocks, and a per-pair mu
    check.  Works for any design with ``class_blocks``, the hand-built
    class arrays included.

    Returns (value_counts, zeros, pairs_checked): value_counts maps the
    magnitude key of each |<u, v>| to its count over all vector pairs of all
    basis pairs (as ``report_delta_dict`` keys a report), zeros counts the
    pairs whose supports share no coordinate, and pairs_checked is the
    number of vector pairs accounted for.
    """
    r = bs.rbd
    d, s, k = r.d, r.s, r.k
    col_counts, vals = bs.y.abs_value_counts(), abs_scalars(bs.y)
    vv_total = np.zeros((len(vals), len(vals)), dtype=np.int64)
    zeros = 0
    pairs = 0
    for bl, bm in itertools.combinations(bases_of(bs), 2):
        l, m = bl.class_index, bm.class_index
        (block_l, pos_l), (block_m, pos_m) = _class_maps(r, l), _class_maps(r, m)
        joint = np.bincount(block_l * s + block_m, minlength=s * s)
        if int(joint.max()) > 1:
            raise CertificationError(
                f"support law violated between classes {l} and {m} (mu > 1)"
            )
        cp = np.bincount(pos_l * k + pos_m, minlength=k * k)
        vv_total += col_counts.T @ cp.reshape(k, k) @ col_counts
        zeros += (s * s - int(cp.sum())) * k * k
        pairs += d * d
    counts: dict = {}
    if zeros:
        counts[report_value_key(Fraction(0))] = zeros
    for v, w in zip(*np.nonzero(vv_total)):
        key = report_value_key(vals[v] * vals[w])
        counts[key] = counts.get(key, 0) + int(vv_total[v, w])
    return counts, zeros, pairs


# ---------------------------------------------------------------------------
# Orthogonality by per-term-pair Gram matrices
# ---------------------------------------------------------------------------

def term_gram_orthogonal(k: int, terms) -> bool:
    """Exact Y Y^T == I for Y = sum_r c_r * A_r, by one int64 Gram A_r A_s^T
    per ordered term pair, summed with the exact scalars c_r * c_s over each
    distinct combination of Gram entries (the check EpsHadamard made before
    the integer form of ``DenseEpsHadamard``).  Memory and time grow with R^2: small k only."""
    coeffs = [c for c, _ in terms]
    mats = [np.asarray(m, dtype=np.int64) for _, m in terms]
    grams, scalars = [], []
    for cr, ar in zip(coeffs, mats):
        for cs, as_ in zip(coeffs, mats):
            grams.append((ar @ as_.T).reshape(k * k))
            scalars.append(cr * cs)
    diag = np.eye(k, dtype=np.int64).reshape(k * k, 1)
    combos = np.unique(np.hstack([np.stack(grams).T, diag]), axis=0)
    for row in combos:
        total: Scalar = Fraction(0)
        for c, m in zip(scalars, row[:-1]):
            if m:
                total = total + c * int(m)
        if cmp_values(total, Fraction(int(row[-1]))) != 0:
            return False
    return True


def _scalar_key(v: Scalar):
    """A hashable key of an exact scalar: equal values, equal keys."""
    if isinstance(v, QuadNum):
        if v.b == 0:
            return (v.a.numerator, v.a.denominator)
        return (v.a.numerator, v.a.denominator, v.b.numerator, v.b.denominator, v.m)
    f = Fraction(v)
    return (f.numerator, f.denominator)


def from_scalar_rows(rows, radicand: int, provenance) -> "DenseEpsHadamard":
    """DenseEpsHadamard of explicit entries: one indicator term per distinct
    value."""
    k = len(rows)
    index: dict = {}
    values = []
    ids = np.zeros((k, k), dtype=np.int64)
    for i, row in enumerate(rows):
        assert len(row) == k, "entry rows must form a square matrix"
        for j, v in enumerate(row):
            key = _scalar_key(v)
            if key not in index:
                index[key] = len(values)
                values.append(v)
            ids[i, j] = index[key]
    terms = [(v, ids == vi) for vi, v in enumerate(values)
             if sign_of(v) != 0 or len(values) == 1]
    return DenseEpsHadamard(k, radicand, terms, provenance)


# ---------------------------------------------------------------------------
# Dense EpsHadamard: Y as one k x k integer form
# ---------------------------------------------------------------------------

class DenseEpsHadamard:
    """An orthogonal matrix of order k certified through its k x k integer
    form, with the attributes and accessors of ``armub.epsh.EpsHadamard``,
    so that cross statistics, assembly and the tests read either.

    Y is a sum of terms (c_r, A_r): exact scalar coefficients c_r in
    Q(sqrt(c)) and integer k x k matrices A_r.  With c_r = a_r + b_r*sqrt(c)
    and L the lcm of every denominator of the a_r and b_r,

        L*Y = P + Q*sqrt(c),   P = sum_r (L*a_r)*A_r,   Q = sum_r (L*b_r)*A_r,

    (Q is None when every c_r is rational).  The distinct entries are the
    distinct (P_ij, Q_ij) pairs, and Y Y^T = I is the pair of integer
    identities P P^T + c*Q Q^T = L^2 * I and P Q^T + Q P^T = 0: at most
    three k x k products for any number of terms.  The products run in
    float64 BLAS only under the bound of ``_float_exact``, which keeps
    every partial sum an integer below 2^53; otherwise on Python ints.
    """

    def __init__(self, order, radicand, terms, provenance, source=None):
        self.order = int(order)
        self.radicand = int(radicand)
        self.terms = tuple((c, _frozen(m)) for c, m in terms)
        self.provenance = provenance
        self.source = source
        self._scale, self._core, self._p, self._q = _integer_form(self.terms)
        self._scan_entries()
        self._certify_window()
        self.verify_orthogonal()

    def _scan_entries(self):
        """Distinct entries, their magnitudes and epsilon, from the distinct
        (P_ij, Q_ij) pairs: the entry is (P_ij + Q_ij*sqrt(c)) / L."""
        k, scale, core = self.order, self._scale, self._core
        pairs, self._entry_combo_ids = _distinct_pairs(self._p, self._q)
        self._combo_keys = [_lowest_terms(p, q, scale) for p, q in pairs]
        self._combo_abs, self._keys = _magnitudes([(p, q, scale) for p, q in pairs], core)
        mags = [QuadNum(Fraction(p, s), Fraction(q, s), core) if q else Fraction(p, s)
                for p, q, s in self._keys]
        self._mags, top, hits, up = _eps_selection(
            tuple(mags), k, self.provenance.t, self.radicand)
        # the library's ExactEps of the magnitudes the Scalar reference selects
        core = square_free_split(self.radicand)[1]
        g = None
        if top.side != 0:
            abs_ids, _ = self.abs_value_ids()
            g = abs_ids[divmod(int(np.argmax(np.isin(abs_ids, hits))), k)]
        self.epsilon = ExactEps(None if g is None else self._keys[g], k, core)
        self.epsilon_upper = ExactEps(None if up is None else self._keys[up], k, core)
        self.is_eps_hadamard = top.lt_bound(Fraction(1))

    def verify_orthogonal(self):
        found = _gram_violation(self._scale, self._core, self._p, self._q)
        if found is not None:
            (i, j), got = found
            raise CertificationError(
                f"orthogonality violated at {(i, j)}: "
                f"got {got}, expected {int(i == j)}"
            )

    def _certify_window(self):
        self.window_ok = True
        for av, _, outside in self._mags:
            if outside:
                self.window_ok = False
                lo, hi = window(self.provenance.t, self.radicand)
                raise CertificationError(
                    f"entry magnitude {av} outside window [{lo}, {hi}]"
                )

    def entry(self, i: int, j: int) -> tuple[int, int, int]:
        """Y_ij as its key (p, q, L) in lowest terms."""
        return self._combo_keys[int(self._entry_combo_ids[i, j])]

    def distinct_abs_values(self) -> list[tuple[int, int, int]]:
        """The distinct magnitudes, ascending, as keys (p, q, L) in lowest
        terms, value (p + q*sqrt(c))/L."""
        assert self._core in (1, square_free_split(self.radicand)[1])
        return list(self._keys)

    def abs_value_ids(self) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        """(ids, keys): ids[i, j] indexes the magnitude of Y_ij in keys."""
        return self._combo_abs[self._entry_combo_ids], self.distinct_abs_values()

    def abs_value_counts(self) -> np.ndarray:
        """(k, number of magnitudes): per column, the count of each."""
        ids, vals = self.abs_value_ids()
        return np.stack([np.bincount(ids[:, c], minlength=len(vals))
                         for c in range(self.order)]).astype(np.int64)

    @property
    def variant(self):
        return self.provenance.variant


@functools.lru_cache(maxsize=None)
def _eps_selection(mags: tuple, k: int, t: int, m: int):
    """(rows, top, hits, up) for distinct magnitudes of a Y of order k
    reduced from order m by t, every magnitude compared as a ScalarEps:
    rows lists (magnitude, epsilon, outside the window), top is the largest
    epsilon, hits the indices of the magnitudes attaining it and up the
    index of the largest upward epsilon (None if none).  Cached, since the
    magnitude sets recur across the splits of one matrix."""
    bounds = window(t, m)
    rows = [(av, ScalarEps(k * av * av), bounds is not None and (
        cmp_values(av, bounds[0]) < 0 or cmp_values(av, bounds[1]) > 0)) for av in mags]
    top = ScalarEps.zero()
    for _, cand, _ in rows:
        if top.cmp(cand) < 0:
            top = cand
    hits = [gi for gi, (_, cand, _) in enumerate(rows) if cand.cmp(top) == 0]
    up, best = None, ScalarEps.zero()
    for gi, (_, cand, _) in enumerate(rows):
        if cand.side > 0 and best.cmp(cand) < 0:
            up, best = gi, cand
    return rows, top, hits, up


def _integer_form(terms):
    """(L, c, P, Q) with L*Y = P + Q*sqrt(c) for Y = sum_r c_r * A_r.

    L is the lcm of the denominators of the rational and radical parts of
    the c_r, and Q is None when every c_r is rational (c = 1).
    """
    core = 1
    parts = []
    for coeff, _ in terms:
        if isinstance(coeff, QuadNum):
            a, b = coeff.a, coeff.b
        else:
            a, b = Fraction(coeff), Fraction(0)
        if b:
            if core not in (1, coeff.m):
                raise StructuralError(f"mixed radicands {core} and {coeff.m}")
            core = coeff.m
        parts.append((a, b))
    scale = math.lcm(*(x.denominator for pair in parts for x in pair))
    mats = [m for _, m in terms]
    p = _int_combination([int(a * scale) for a, _ in parts], mats)
    q = _int_combination([int(b * scale) for _, b in parts], mats) if core > 1 else None
    return scale, core, p, q


def _int_combination(weights, mats) -> np.ndarray:
    """sum_r weights[r] * mats[r] exactly: in int64 when the bound
    sum_r |weights[r]| * max|mats[r]| keeps every partial sum below 2^63,
    in Python ints (an object array) otherwise."""
    used = [(w, m) for w, m in zip(weights, mats) if w and m.any()]
    bound = sum(abs(w) * int(np.abs(m).max()) for w, m in used)
    dtype = np.int64 if bound < 2**63 else object
    out = np.zeros(mats[0].shape, dtype=dtype)
    for w, m in used:
        out += w * m.astype(dtype, copy=False)
    return out


def _abs_max(a) -> int:
    return 0 if a is None else int(np.abs(a).max())


def _float_exact(k: int, scale: int, core: int, p, q) -> bool:
    """Whether float64 products of the integer form are provably exact:
    k*(max|P|^2 + c*max|Q|^2) < 2^53 and L^2 < 2^53.  Every entry of P, Q
    and L^2 * I is then an integer below 2^53, and so is every partial sum
    of P P^T (at most k*max|P|^2), of c*Q Q^T (at most c*k*max|Q|^2) and of
    P Q^T + Q P^T (at most 2k*max|P|*max|Q| <= k*(max|P|^2 + max|Q|^2))."""
    pmax, qmax = _abs_max(p), _abs_max(q)
    return k * (pmax * pmax + core * qmax * qmax) < 2**53 and scale * scale < 2**53


def _gram_violation(scale: int, core: int, p, q):
    """((i, j), Y Y^T at (i, j)) for the first (i, j) in row-major order
    where Y Y^T differs from I, given L*Y = P + Q*sqrt(c); None if none does.

    float64 BLAS under the bound of ``_float_exact``, Python ints otherwise.
    """
    k = p.shape[0]
    dtype = np.float64 if _float_exact(k, scale, core, p, q) else object
    p = p.astype(dtype)
    rational = p @ p.T
    radical = None
    if q is not None:
        q = q.astype(dtype)
        rational = rational + core * (q @ q.T)
        cross = p @ q.T
        radical = cross + cross.T
    want = np.zeros((k, k), dtype=dtype)
    np.fill_diagonal(want, scale * scale)
    bad = rational != want
    if radical is not None:
        bad |= radical != 0
    if not bad.any():
        return None
    i, j = divmod(int(np.argmax(bad)), k)
    got = Fraction(int(rational[i, j]), scale * scale)
    if radical is not None and radical[i, j]:
        got = QuadNum(got, Fraction(int(radical[i, j]), scale * scale), core)
    return (i, j), got


def _lowest_terms(p: int, q: int, scale: int) -> tuple[int, int, int]:
    """The key (p, q, L) of (p + q*sqrt(c))/L, L > 0, in lowest terms."""
    g = math.gcd(p, q, scale)
    return p // g, q // g, scale // g


def _distinct_pairs(p, q) -> tuple[list, np.ndarray]:
    """(pairs, ids): the distinct (P_ij, Q_ij) as pairs of Python ints, and
    the k x k array of the index of each entry's pair (Q_ij = 0 when Q is
    None)."""
    if q is None:
        q = np.zeros_like(p)
    if p.dtype != object and q.dtype != object:
        plo, qlo = int(p.min()), int(q.min())
        span = int(q.max()) - qlo + 1
        if (int(p.max()) - plo + 1) * span < 2**63:
            codes, ids = np.unique((p - plo) * span + (q - qlo), return_inverse=True)
            pairs = [divmod(int(x), span) for x in codes]
            return [(a + plo, b + qlo) for a, b in pairs], ids.reshape(p.shape)
    index: dict = {}
    ids = np.array(
        [index.setdefault((int(a), int(b)), len(index)) for a, b in zip(p.flat, q.flat)],
        dtype=np.int64,
    )
    return list(index), ids.reshape(p.shape)


def _frozen(m) -> np.ndarray:
    """A read-only copy in int64, or of Python ints when given those."""
    m = np.asarray(m)
    arr = m.astype(object if m.dtype == object else np.int64)
    arr.setflags(write=False)
    return arr


def split_blocks(split: BlockSplit):
    """(U, V, W, D) of a split as int64 arrays, its negations applied: a
    negated selected row flips the rows of U and V, a negated selected
    column the columns of U and W."""
    h = split.source.rows.astype(np.int64).copy()
    h[list(split.row_select)] *= np.where(split.row_negate, -1, 1)[:, None]
    h[:, list(split.col_select)] *= np.where(split.col_negate, -1, 1)[None, :]
    rest_r = [i for i in range(split.source.order) if i not in split.row_select]
    rest_c = [j for j in range(split.source.order) if j not in split.col_select]
    rows, cols = list(split.row_select), list(split.col_select)
    return (h[np.ix_(rows, cols)], h[np.ix_(rows, rest_c)],
            h[np.ix_(rest_r, cols)], h[np.ix_(rest_r, rest_c)])


def dense_reduction(split: BlockSplit, variant: str) -> DenseEpsHadamard:
    """Y1 or Y2 of a split as the k x k terms (1/sqrt(M), D), (1/L, W A V)
    and, unless B = 0, (sqrt(c)/L, W B V), for the library's closed form
    C = (A + B*sqrt(c))/L (which ``elimination_coeffs`` pins); the
    provenance is the one ``reduce_split`` records."""
    m, t = split.source.order, split.t
    u, v, w, d = split_blocks(split)
    uclass = classify_u(u)
    scale, core, a, b = _coefficient_form(u, uclass, variant, m)
    w, v = w.astype(object), v.astype(object)
    terms = [(1 / exact_sqrt(m), d), (Fraction(1, scale), w @ a @ v)]
    if b.any():
        terms.append((QuadNum(0, Fraction(1, scale), core), w @ b @ v))
    prov = Provenance(split.source.label, m, t, split.row_select, split.col_select,
                      split.row_negate, split.col_negate, variant, "closed-form", uclass)
    return DenseEpsHadamard(m - t, m, terms, prov, source=split.source)


# ---------------------------------------------------------------------------
# Neumann series of (I + sign*U^)^-1
# ---------------------------------------------------------------------------

@dataclass
class SeriesCheck:
    residual: Scalar  # max |exact inverse - truncated series| over entries
    tail_bound: Scalar  # geometric bound on the dropped tail
    within_bound: bool
    terms: int


def _kmat_identity(t: int) -> list[list[Scalar]]:
    return [[Fraction(int(i == j)) for j in range(t)] for i in range(t)]


def _kmat_inverse(a) -> list[list[Scalar]]:
    """Gauss-Jordan with exact scalars and first-nonzero pivoting."""
    t = len(a)
    work = [list(row) + ident for row, ident in zip(a, _kmat_identity(t))]
    for col in range(t):
        pivot = next(
            (r for r in range(col, t) if sign_of(work[r][col]) != 0), None
        )
        if pivot is None:
            raise ExactArithmeticError("singular matrix in exact elimination")
        work[col], work[pivot] = work[pivot], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(t):
            if r != col and sign_of(work[r][col]) != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[t:] for row in work]


def form_scalars(form) -> list[list[Scalar]]:
    """The matrix (A + B*sqrt(c))/L of an integer form (L, c, A, B), entry
    by entry."""
    scale, core, a, b = form
    root = exact_sqrt(core)
    return [[(int(x) + int(y) * root) / scale for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def elimination_coeffs(u, variant: str, m: int) -> list[list[Scalar]]:
    """The t x t matrix C with Y = D/sqrt(M) + W C V, by exact Gauss-Jordan
    elimination of (I +/- U/sqrt(M)): C = -/+ (I +/- U/sqrt(M))^-1 / M."""
    u = np.asarray(u, dtype=np.int64)
    t = u.shape[0]
    sqrt_m = exact_sqrt(m)
    sign = 1 if variant == "Y1" else -1
    a = [
        [
            Fraction(int(i == j)) + sign * int(u[i, j]) / sqrt_m
            for j in range(t)
        ]
        for i in range(t)
    ]
    x = _kmat_inverse(a)
    return [[(-sign) * x[i][j] / m for j in range(t)] for i in range(t)]


def _kmat_mul(a, b):
    t, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(t):
        row = []
        for j in range(cols):
            acc: Scalar = Fraction(0)
            for x in range(mid):
                acc = acc + a[i][x] * b[x][j]
            row.append(acc)
        out.append(row)
    return out


def _pow_scalar(x: Scalar, e: int) -> Scalar:
    out: Scalar = Fraction(1)
    for _ in range(e):
        out = out * x
    return out


def series_inverse_check(u_hat, terms: int, sign: int = 1) -> SeriesCheck:
    """Compare the truncated Neumann series of (I + sign*U^)^-1 with the
    exact inverse.

    ``u_hat`` is the normalized t x t block (entries of magnitude
    1/sqrt(4n)); convergence requires t * max|entry| < 1.
    """
    t = len(u_hat)
    rows = [[v if not isinstance(v, int) else Fraction(v) for v in row] for row in u_hat]
    cmax: Scalar = Fraction(0)
    for row in rows:
        for v in row:
            av = abs(v) if isinstance(v, QuadNum) else abs(Fraction(v))
            if cmp_values(av, cmax) > 0:
                cmax = av
    if cmp_values(t * cmax, Fraction(1)) >= 0:
        raise DomainError("series diverges: t * max|entry| >= 1")
    ident = _kmat_identity(t)
    a = [
        [ident[i][j] + sign * rows[i][j] for j in range(t)]
        for i in range(t)
    ]
    exact = _kmat_inverse(a)
    # truncated sum of (-sign * U^)^j
    neg = [[-sign * v for v in row] for row in rows]
    acc = _kmat_identity(t)
    total = _kmat_identity(t)
    for _ in range(terms):
        acc = _kmat_mul(acc, neg)
        total = [
            [total[i][j] + acc[i][j] for j in range(t)] for i in range(t)
        ]
    residual: Scalar = Fraction(0)
    for i in range(t):
        for j in range(t):
            dv = exact[i][j] - total[i][j]
            av = abs(dv) if isinstance(dv, QuadNum) else abs(Fraction(dv))
            if cmp_values(av, residual) > 0:
                residual = av
    # sum_{j > terms} t^(j-1) * cmax^j = t^terms * cmax^(terms+1) / (1 - t*cmax)
    tail = (t**terms) * _pow_scalar(cmax, terms + 1) / (1 - t * cmax)
    return SeriesCheck(
        residual=residual,
        tail_bound=tail,
        within_bound=cmp_values(residual, tail) <= 0,
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Placement of a target U on a Hadamard matrix
# ---------------------------------------------------------------------------

def _canon_signs(sub: np.ndarray) -> np.ndarray:
    x = sub.copy()
    neg_rows = x[:, 0] < 0
    x[neg_rows] = -x[neg_rows]
    neg_cols = x[0, :] < 0
    x[:, neg_cols] = -x[:, neg_cols]
    return x


def find_placements(h, targets) -> dict:
    """First (lexicographic) BlockSplit realizing each target U on h.

    Searches row/column index sets; sign toggles on the selected rows and
    columns bridge the gap between the submatrix and the target.  Returns
    {target bytes: BlockSplit}, possibly missing unreachable targets.
    """
    targets = [np.asarray(u, dtype=np.int64) for u in targets]
    t = targets[0].shape[0]
    by_canon: dict[bytes, list[np.ndarray]] = {}
    for u in targets:
        by_canon.setdefault(_canon_signs(u).tobytes(), []).append(u)
    found: dict[bytes, BlockSplit] = {}
    rows_src = h.rows.astype(np.int64)
    for rows in itertools.combinations(range(h.order), t):
        for cols in itertools.combinations(range(h.order), t):
            sub = rows_src[np.ix_(rows, cols)]
            cb = _canon_signs(sub).tobytes()
            if cb not in by_canon:
                continue
            for u in by_canon[cb]:
                key = u.tobytes()
                if key in found:
                    continue
                for rbits in itertools.product((1, -1), repeat=t):
                    sr = np.array(rbits, dtype=np.int64)
                    flipped = sr[:, None] * sub
                    sc = flipped[0, :] * u[0, :]  # entries +-1
                    if np.array_equal(flipped * sc[None, :], u):
                        split = BlockSplit(
                            h, rows, cols,
                            row_negate=[b < 0 for b in rbits],
                            col_negate=[c < 0 for c in sc],
                        )
                        assert np.array_equal(split.u_matrix(), u)
                        found[key] = split
                        break
            if len(found) == len(targets):
                return found
    return found


# ---------------------------------------------------------------------------
# Split search, one EpsHadamard per candidate
# ---------------------------------------------------------------------------

def best_reduction_loop(h, t, search_scope="corner-only", cap=100_000):
    """Reference split search: builds every candidate (both variants of each
    split) as an EpsHadamard and keeps the first minimum epsilon in the
    order (rows, cols, row negations, col negations), Y2 before Y1.  Same
    contract as ``armub.epsh.best_reduction``, including ``cap``."""
    if t * t >= h.order:
        raise DomainError(f"t={t} must satisfy t < sqrt({h.order})")
    if search_scope == "corner-only":
        splits = iter([corner_split(h, t)])
        size = 1
    else:
        negs = (
            list(itertools.product((False, True), repeat=t))
            if search_scope == "permutations-and-negations"
            else [(False,) * t]
        )
        combos = list(itertools.combinations(range(h.order), t))
        splits = (
            BlockSplit(h, rows, cols, rn, cn)
            for rows in combos for cols in combos for rn in negs for cn in negs
        )
        size = math.comb(h.order, t) ** 2 * len(negs) ** 2
    best = None
    for split in itertools.islice(splits, max(cap, 0)):
        for variant in ("Y2", "Y1"):
            cand = reduce_split(split, variant)
            if best is None or cand.epsilon.cmp(best.epsilon) < 0:
                best = cand
    if best is None:
        raise DomainError("no candidate splits in scope")
    p = best.provenance
    final = reduce_split(
        BlockSplit(h, p.row_select, p.col_select, p.row_negate, p.col_negate),
        p.variant,
    )
    if size > cap:
        raise ResourceLimitError(
            f"search scope exceeds cap of {cap} splits", partial_best=final
        )
    return final


def eps_table_per_code(u_codes, t: int, m: int) -> tuple[list[tuple], np.ndarray]:
    """(keys, mag_ids) of the split screen's table by the per-code route:
    for each U code and variant (Y2, Y1), C from ``_coefficient_form``, its
    corner form and its code values (``_code_values``), then
    ``_magnitudes`` over every value; mag_ids[u, vi, b] is the magnitude
    of index b."""
    index, value_ids = {}, []
    for uc in u_codes:
        u = np.array([[-1 if uc >> (a * t + b) & 1 else 1 for b in range(t)]
                      for a in range(t)], dtype=np.int64)
        uclass = classify_u(u)
        for variant in ("Y2", "Y1"):
            form = _corner_form(_coefficient_form(u, uclass, variant, m), m)
            value_ids.append([index.setdefault((p, q, form[0]), len(index))
                              for p, q in _code_values(form, t)])
    ids, keys = _magnitudes(list(index), square_free_split(m)[1])
    return keys, ids[np.array(value_ids)].reshape(len(u_codes), 2, -1)


def occurrence_masks(rows, t, sel, bases):
    """(masks, U codes) of the first ``bases`` (rows sel[b // n], columns
    sel[b % n]) splits of a sign matrix, entry by entry.  Bit (w' << t) | v
    of a mask is set when some D_ij has w' = w_i xor (2^t - 1)*[D_ij = -1]
    and v = v_j, where bit a of w_i (of v_j) is set when W_ia (V_aj) is -1;
    bit a*t+b of a U code is set when U_ab = -1."""
    neg = np.asarray(rows) < 0
    m, full = neg.shape[0], (1 << t) - 1
    masks, codes = [], []
    for b in range(bases):
        r, c = sel[b // len(sel)], sel[b % len(sel)]
        rest_r = [i for i in range(m) if i not in r]
        rest_c = [j for j in range(m) if j not in c]
        w = sum(neg[rest_r, c[a]].astype(int) << a for a in range(t))
        v = sum(neg[r[a], rest_c].astype(int) << a for a in range(t))
        index = ((w[:, None] ^ (full * neg[np.ix_(rest_r, rest_c)])) << t) | v[None, :]
        masks.append(sum(1 << int(x) for x in np.unique(index)))
        codes.append(sum(int(neg[r[a], c[e]]) << (a * t + e)
                         for a in range(t) for e in range(t)))
    return masks, codes


# ---------------------------------------------------------------------------
# Published U configurations
# ---------------------------------------------------------------------------

def paper_listed_configs(t: int) -> tuple[tuple, ...]:
    """The published U configurations of size t, in paper order."""
    if t == 1:
        return (((1,),), ((-1,),))
    if t == 2:
        return _T2_PREFER_Y2 + _T2_PREFER_Y1
    if t == 3:
        return _T3_PREFER_Y1 + _T3_PREFER_Y2
    raise DomainError(f"t must be in {{1,2,3}}, got {t}")


# ---------------------------------------------------------------------------
# Epsilon entry by entry
# ---------------------------------------------------------------------------

def epsilon_of(rows) -> ScalarEps:
    """Exact epsilon of an orthogonal matrix given by its scalar rows, from
    the definition entry by entry, with the q of the first extremal entry in
    row-major order."""
    k = len(rows)
    best = ScalarEps.zero()
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            cand = ScalarEps(k * v * v)
            if best.cmp(cand) < 0:
                best = cand
    return best


# ---------------------------------------------------------------------------
# Displayed polynomial-in-U inverses
# ---------------------------------------------------------------------------

def lemma_inverse(u, radicand: int, sign: int = 1) -> tuple[list[list[Scalar]], Scalar]:
    """Exact (I + sign * U/sqrt(radicand))^-1 as a polynomial in U, with its
    non-vanishing denominator.  The inverse of (I + U/alpha) equals
    alpha * (alpha*I + U)^-1, and (alpha*I + U')^-1 = x*I + y*U' + z*U'^2
    for U' = sign * U by the relation of U'."""
    u = np.asarray(u, dtype=np.int64)
    uclass = classify_u(u)
    params = (uclass.kappa, uclass.gamma, uclass.vartheta)
    params = params if sign == 1 else _negated_params(params)
    alpha = exact_sqrt(radicand)
    nums, (d0, d1) = _poly_inverse_coeffs(*params, radicand)
    den = d0 + d1 * alpha
    x, y, z = ((r + s * alpha) / den for r, s in nums)
    uu = sign * u
    uu2 = uu @ uu
    t = u.shape[0]
    inv = [
        [
            alpha * (x * int(i == j) + y * int(uu[i, j]) + z * int(uu2[i, j]))
            for j in range(t)
        ]
        for i in range(t)
    ]
    return inv, den


# ---------------------------------------------------------------------------
# Paley matrices from scalar field operations
# ---------------------------------------------------------------------------

def paley_scalar(q: int) -> np.ndarray:
    """Rows of the Paley matrix of GF(q), q an odd prime power, with its
    first row and column made all +1: Q[a, b] is the quadratic character of
    a - b, computed as add(a, neg(b)) and looked up among the nonzero
    squares.  q = 3 mod 4 gives I + [[0, 1^T], [-1, Q]] (type I); q = 1 mod 4
    gives S (x) [[1, 1], [1, -1]] + I (x) [[1, -1], [-1, -1]] with
    S = [[0, 1^T], [1, Q]] (type II)."""
    f = gf_from_order(q)
    squares = {f.mul(x, x) for x in range(1, q)}
    chi = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            diff = f.add(a, f.neg(b))
            if diff:
                chi[a, b] = 1 if diff in squares else -1
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 1:] = chi
    if q % 4 == 3:
        s[1:, 0] = -1
        h = s + np.eye(q + 1, dtype=np.int64)
    else:
        s[1:, 0] = 1
        h = (np.kron(s, [[1, 1], [1, -1]])
             + np.kron(np.eye(q + 1, dtype=np.int64), [[1, -1], [-1, -1]]))
    h = h * h[:, :1]
    return h * h[:1, :]


def row_permuted(h, t: int, seed: int):
    """h with rows t..M-1 permuted by the seeded permutation and labelled
    ``<label>+permutation(<seed>)``, as the benchmark's reduction workloads
    vary their input for a nonzero seed.  No constructor builds this matrix,
    so its artifact holds packed rows."""
    rng = np.random.default_rng(seed)
    rows_at = np.concatenate([np.arange(t), t + rng.permutation(h.order - t)])
    return SignMatrix(h.rows[rows_at], verified=True, label=f"{h.label}+permutation({seed})")
