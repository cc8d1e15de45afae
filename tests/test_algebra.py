import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from armub.algebra import _quad_sign, gf_make, prime_power_split, square_free_split
from armub.errors import DomainError, ExactArithmeticError, StructuralError
from oracles import QuadNum, exact_sqrt, quad_to_float, sign_of, sqrt_minus_cmp


def test_square_free_split():
    assert square_free_split(80) == (4, 5)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(7) == (1, 7)


def test_exact_sqrt_square_collapses_to_rational():
    assert exact_sqrt(16) == Fraction(4)
    assert isinstance(exact_sqrt(16), Fraction)
    v = exact_sqrt(80)
    assert isinstance(v, QuadNum)
    assert (v.a, v.b, v.m) == (0, 4, 5)


def test_conjugate_product():
    # (1 + sqrt(2)) * (1 - sqrt(2)) = 1 - 2 = -1
    assert QuadNum(1, 1, 2) * QuadNum(1, -1, 2) == Fraction(-1)


def test_square_radicand_rejected():
    with pytest.raises(StructuralError):
        QuadNum(0, 1, 4)


def test_division_with_verification():
    # (1 + 0*sqrt(5)) / (1 + sqrt(5)) = -1/4 + (1/4) sqrt(5); multiply back
    z = QuadNum(1, 0, 5) / QuadNum(1, 1, 5)
    assert z == QuadNum(Fraction(-1, 4), Fraction(1, 4), 5)
    assert z * QuadNum(1, 1, 5) == 1


def test_division_by_zero():
    with pytest.raises(ExactArithmeticError):
        QuadNum(1, 0, 2) / QuadNum(0, 0, 2)


def test_mixed_radicands_rejected():
    with pytest.raises(StructuralError):
        QuadNum(1, 1, 2) + QuadNum(1, 1, 3)
    # canonicalization makes sqrt(8) and sqrt(2) compatible
    assert QuadNum(0, 1, 8) == QuadNum(0, 2, 2)


def test_quad_sign_examples():
    assert sign_of(QuadNum(1, -1, 2)) == -1
    assert sign_of(QuadNum(0, 0, 5)) == 0
    # 7 - 2*sqrt(12): 49 > 4*12 = 48 by cross multiplication
    assert sign_of(QuadNum(7, -2, 12)) == 1
    assert sign_of(QuadNum(-7, 2, 12)) == -1
    assert sign_of(Fraction(-3, 7)) == -1 and sign_of(0) == 0


def test_integer_quad_sign():
    """algebra._quad_sign(p, q, c), the sign of p + q*sqrt(c) on integers,
    agrees with sign_of on QuadNum for squarefree c > 1, and folds q into p
    for c = 1, where p + q can vanish with p and q of opposite signs."""
    assert _quad_sign(28, -28, 1) == 0 and _quad_sign(-3, 3, 1) == 0
    assert _quad_sign(5, -3, 1) == 1 and _quad_sign(3, -5, 1) == -1
    assert _quad_sign(0, 0, 1) == 0 and _quad_sign(0, -2, 1) == -1
    for c in (2, 3, 6, 7):
        for p in range(-9, 10):
            for q in range(-4, 5):
                assert _quad_sign(p, q, c) == sign_of(QuadNum(p, q, c)), (p, q, c)


def test_comparison_operators():
    assert QuadNum(1, 1, 2) < QuadNum(2, 1, 2)
    assert QuadNum(1, 1, 5) > 3
    assert QuadNum(3, 0, 5) == 3
    with pytest.raises(StructuralError):
        QuadNum(0, 1, 2) < QuadNum(0, 1, 3)  # mixed radicands are inoperable


def test_quad_to_float():
    assert quad_to_float(QuadNum(1, 0, 2)) == 1.0
    assert abs(quad_to_float(QuadNum(0, 1, 2), 53) - math.sqrt(2)) < 2**-50
    # epsilon of the order-4, t=1 reduction: 2/sqrt(3) - 1
    eps = 2 / QuadNum(0, 1, 3) - 1
    oracle = float(2 / sympy.sqrt(3) - 1)
    assert abs(quad_to_float(eps, 60) - oracle) < 2**-50


def test_sqrt_minus_cmp():
    # sqrt(2) vs 3/2: 2 < 9/4
    assert sqrt_minus_cmp(Fraction(2), Fraction(3, 2)) == -1
    assert sqrt_minus_cmp(Fraction(4), Fraction(2)) == 0
    assert sqrt_minus_cmp(Fraction(2), Fraction(-1)) == 1


@given(
    a=st.fractions(min_value=-50, max_value=50, max_denominator=20),
    b=st.fractions(min_value=-50, max_value=50, max_denominator=20),
    m=st.sampled_from([2, 3, 5, 7, 13]),
)
def test_field_inverse_roundtrip(a, b, m):
    x = QuadNum(a, b, m)
    if sign_of(x) == 0:
        return
    assert x * (1 / x) == 1


@given(
    a=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    b=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    c=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    d=st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
@settings(max_examples=60)
def test_ring_axioms_sampled(a, b, c, d):
    x, y = QuadNum(a, b, 5), QuadNum(c, d, 5)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x


def test_results_stay_reduced():
    x = QuadNum(Fraction(6, 4), Fraction(10, 15), 5)
    assert x.a == Fraction(3, 2) and x.b == Fraction(2, 3)
    y = x * x
    assert math.gcd(y.a.numerator, y.a.denominator) == 1
    assert math.gcd(y.b.numerator, y.b.denominator) == 1


def test_sign_consistent_with_float_rendering():
    # spec invariant: exact sign agrees with the rendered value on 10^4
    # pseudo-random elements at >= 64 bits of precision
    rng = random.Random(0)
    for _ in range(10_000):
        a = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        b = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        m = rng.choice([2, 3, 5, 6, 7, 10])
        x = QuadNum(a, b, m)
        f = quad_to_float(x, 64)
        assert sign_of(x) == (f > 0) - (f < 0)


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

def test_gf_prime_field():
    f = gf_make(3, 1)
    assert f.q == 3
    assert f.add(2, 2) == 1 and f.mul(2, 2) == 1
    assert f.pow(2, -1) == 2
    with pytest.raises(ExactArithmeticError):
        f.pow(0, -1)


def test_gf_rejects_non_odd_prime():
    with pytest.raises(DomainError):
        gf_make(2, 3)
    with pytest.raises(DomainError):
        gf_make(9, 1)


def test_gf9_axioms_exhaustive():
    f = gf_make(3, 2)
    q = f.q
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in range(q):
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    for a in range(1, q):
        assert f.mul(a, f.pow(a, -1)) == 1


def test_gf_fermat_exhaustive_to_81():
    for (p, e) in [(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (3, 4)]:
        f = gf_make(p, e)
        for a in range(1, f.q):
            assert f.pow(a, f.q - 1) == 1


def test_gf81_modulus_is_smallest_irreducible():
    f = gf_make(3, 4)
    assert f.q == 81
    x = sympy.Symbol("x")
    # every lexicographically earlier monic candidate factors; this one not
    code = sum(c * 3**i for i, c in enumerate(f.modulus[:-1]))
    for low in range(code + 1):
        coeffs = [(low // 3**i) % 3 for i in range(4)]
        poly = sympy.Poly(
            x**4 + sum(c * x**i for i, c in enumerate(coeffs)), x, modulus=3
        )
        factors = sympy.factor_list(poly.as_expr(), modulus=3)[1]
        irreducible = len(factors) == 1 and factors[0][1] == 1
        assert irreducible == (low == code)


def test_gf_bulk_matches_scalar():
    import numpy as np

    f = gf_make(3, 2)
    a = np.arange(f.q)
    b = np.arange(f.q)[::-1].copy()
    add = f.add_arr(a, b)
    mul = f.mul_arr(a, b)
    for i in range(f.q):
        assert add[i] == f.add(int(a[i]), int(b[i]))
        assert mul[i] == f.mul(int(a[i]), int(b[i]))


ODD_PRIME_POWERS_TO_125 = [
    q for q in range(3, 126, 2)
    if prime_power_split(q) is not None
]


@pytest.mark.parametrize("q", ODD_PRIME_POWERS_TO_125)
def test_gf_tables_satisfy_the_line_theorem_axioms(q):
    """The premise of mu = 1 for the affine design: two lines c + l*a and
    c' + l'*a with l != l' meeting at rows a1 and a2 give
    (l - l')*(a1 - a2) = 0, so a1 = a2.  That needs distributivity,
    additive inverses and no zero divisors of the bulk tables the design
    generator uses, checked here over every element triple."""
    import numpy as np

    f = gf_make(*prime_power_split(q))
    x = np.arange(q, dtype=np.int64)
    add = f.add_arr(x[:, None], x[None, :])  # add[b, c] = b + c
    mul = f.mul_arr(x[:, None], x[None, :])  # mul[a, b] = a * b
    assert np.array_equal(add[0], x) and np.array_equal(mul[1], x)
    # a*(b + c) == a*b + a*c, indexed [a, b, c]
    assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
    # additive inverses: each a has exactly one b with a + b = 0
    assert np.all((add == 0).sum(axis=1) == 1)
    # no zero divisors: a*b = 0 only when a = 0 or b = 0
    assert np.array_equal(mul == 0, (x[:, None] == 0) | (x[None, :] == 0))


def test_prime_power_split():
    assert prime_power_split(81) == (3, 4)
    assert prime_power_split(79) == (79, 1)
    assert prime_power_split(12) is None
    assert prime_power_split(1) is None
