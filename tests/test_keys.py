"""The certificate's decisions on integer keys against the Scalar reference.

Every decision the library makes on keys (p, q, L), the value
(p + q*sqrt(c))/L, is checked against the same decision taken on Fraction
and QuadNum by ``oracles``: the epsilon order, epsilon < 1 and
epsilon <= rho_t/sqrt(n), window membership, beta against 2,
k * max_ip <= (1 + eps)^2 and the MUB test d * v^2 = 1.  The keys are those
of every corner reduction of order M <= 128 with t^2 < M, both variants,
and of the winners of the H_16 searches, with the exact ties added by hand.
"""

import itertools
import math
from fractions import Fraction

import pytest

import oracles
from armub import algebra, epsh, verify
from armub.algebra import key_to_float, square_free_split
from armub.epsh import EpsHadamard, ExactEps, best_reduction, corner_split, reduce_split
from armub.errors import NotConstructibleError, StructuralError
from armub.hadamard import find_hadamard, sylvester
from armub.verify import ExactBeta, DeltaValue, classify_delta
from oracles import ScalarEps, cmp_values, exact_sqrt, key_scalar, quad_to_float, scalar_float

ORDERS = []
for _order in [2] + list(range(4, 129, 4)):
    try:
        ORDERS.append(find_hadamard(_order).order)
    except NotConstructibleError:
        pass


def _products(keys, core):
    """The distinct products of two magnitudes, as cross_stats forms them."""
    products = [(p1 * p2 + core * q1 * q2, p1 * q2 + p2 * q1, l1 * l2)
                for (p1, q1, l1), (p2, q2, l2) in itertools.combinations_with_replacement(keys, 2)]
    return algebra._magnitudes(products, core)[1]


def _near(value, r):
    """d >= 1 about r / value^2, where d * value^2 - r changes sign."""
    x = float(value)
    guess = r / (x * x) if x else 1.0
    return sorted({max(1, int(guess) + e) for e in (-1, 0, 1)})


def assert_decisions_match(y):
    """Every key decision on the magnitudes of y agrees with the Scalar
    reference."""
    keys, k, t, m = y.distinct_abs_values(), y.order, y.provenance.t, y.radicand
    core = square_free_split(m)[1]
    values = [key_scalar(key, core) for key in keys]
    eps = [ExactEps(key, k, core) for key in keys] + [ExactEps(None, k, core)]
    ref = [ScalarEps(k * a * a) for a in values] + [ScalarEps.zero()]
    # the epsilon order between every two magnitudes, and the zero epsilon
    for (e1, r1), (e2, r2) in itertools.product(zip(eps, ref), repeat=2):
        assert e1.cmp(e2) == r1.cmp(r2), (m, t, e1.key, e2.key)
    # epsilon < 1, epsilon <= rho_t/sqrt(n) at n = M/4 and at square n
    ns = ([m // 4] if m % 4 == 0 else []) + [1, 4, 9, 16]
    for e, r in zip(eps, ref):
        assert e.lt_one() == r.lt_bound(Fraction(1)), (m, t, e.key)
        assert float(e) == abs(math.sqrt(scalar_float(r.q, 70)) - 1.0), (m, t, e.key)
        assert cmp_values(key_scalar(e.ksq, core), r.q) == 0, (m, t, e.key)
        for rho, n in itertools.product(((1, 2), (2, 1), (4, 1)), ns):
            want = r.le_bound(Fraction(*rho) / exact_sqrt(n))
            assert verify._eps_le_rho(e, rho, n) == want, (m, t, e.key, rho, n)
    # window membership, and the window's keys are the theorem's values
    window, bounds = epsh._window(t, m), oracles.window(t, m)
    assert (window is None) == (bounds is None)
    if window is not None:
        assert [key_scalar(x, core) for x in window] == list(bounds)
        for key, a in zip(keys, values):
            want = cmp_values(a, bounds[0]) < 0 or cmp_values(a, bounds[1]) > 0
            assert epsh._outside(key, window, core) == want, (m, t, key)
    # beta against 2, the MUB and APMUB tests and k * max_ip <= (1 + eps)^2
    chain = {y.epsilon.key, y.epsilon_upper.key, keys[0], keys[-1]}
    zero = DeltaValue((0, 0, 1), 1)
    for v in _products(keys, core):
        a = key_scalar(v, core)
        for d in _near(a, 4) + _near(a, 1):
            beta = ExactBeta(v, d, core)
            square = d * a * a
            assert beta.cmp_two() == cmp_values(square, Fraction(4)), (m, t, v, d)
            assert float(beta) == math.sqrt(d) * scalar_float(a, 70)
            mub = classify_delta([DeltaValue(v, 1)], beta, d) == "MUB"
            assert mub == (cmp_values(square, Fraction(1)) == 0), (m, t, v, d)
            apmub = classify_delta([zero, DeltaValue(v, 1)], beta, d) == "APMUB"
            assert apmub == (cmp_values(square, Fraction(4)) <= 0), (m, t, v, d)
        for key in chain:
            e = ExactEps(key, k, core)
            want = oracles.ip_le_eps_square(a, ScalarEps.of(e), k)
            assert verify._ip_le_eps_square(v, e) == want, (m, t, v, key)


@pytest.mark.parametrize("order", ORDERS)
def test_key_decisions_match_scalar_reference(order):
    """Every corner reduction of the order, t in {1, 2, 3} with t^2 < M and
    both variants."""
    h = find_hadamard(order)
    for t in (t for t in (1, 2, 3) if t * t < order):
        for variant in epsh._VARIANTS:
            assert_decisions_match(reduce_split(corner_split(h, t), variant))


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("scope", ["row-col-permutations", "permutations-and-negations"])
def test_key_decisions_match_on_h16_search_winners(t, scope):
    assert_decisions_match(best_reduction(find_hadamard(16), t, scope, cap=10**9))


def test_key_decisions_at_exact_ties():
    """The ties by hand: epsilon = 0, epsilon = 1 from a zero entry, equal
    epsilons across the two sides, beta = 2, d * v^2 = 1 and
    k * max_ip = (1 + eps)^2 on both sides."""
    # epsilon = 0: Y = H/sqrt(8), and the zero epsilon
    y = EpsHadamard.from_sign_hadamard(sylvester(3))
    assert y.epsilon.side == 0 and y.epsilon.cmp(ExactEps(None, 8, 2)) == 0
    assert y.epsilon.lt_one() and verify._eps_le_rho(y.epsilon, (1, 2), 1)
    assert y.epsilon.ksq[0] == y.epsilon.ksq[2] and y.epsilon.ksq[1] == 0  # q = 1
    assert_decisions_match(y)
    # epsilon = 1 from a zero entry: Y2 of H_4, t = 1; bound 2/sqrt(4) = 1 holds, 1/2 not
    y2 = reduce_split(corner_split(sylvester(2), 1), "Y2")
    assert y2.epsilon.key == (0, 0, 1) and float(y2.epsilon) == 1.0
    assert not y2.epsilon.lt_one()
    assert verify._eps_le_rho(y2.epsilon, (2, 1), 4)
    assert not verify._eps_le_rho(y2.epsilon, (1, 2), 1)
    # equal epsilons across the sides: 3/4 and 1/4 at k = 4; (+-1 + 2*sqrt(2))/4 at k = 2
    for (above, below, k, core) in (((3, 0, 4), (1, 0, 4), 4, 1),
                                    ((1, 2, 4), (-1, 2, 4), 2, 2)):
        e1, e2 = ExactEps(above, k, core), ExactEps(below, k, core)
        assert (e1.side, e2.side) == (1, -1) and e1.cmp(e2) == 0 == e2.cmp(e1)
        assert ScalarEps.of(e1).cmp(ScalarEps.of(e2)) == 0
    # epsilons compare only at the same k and c
    with pytest.raises(StructuralError):
        ExactEps((1, 0, 3), 4, 1).cmp(ExactEps((1, 0, 3), 8, 1))
    # beta = 2 and d * v^2 = 1, rational and radical
    for v, core, d4, d1 in (((1, 0, 2), 1, 16, 4), ((0, 1, 4), 2, 32, 8), ((1, 0, 3), 1, 36, 9)):
        assert ExactBeta(v, d4, core).cmp_two() == 0
        assert classify_delta([DeltaValue((0, 0, 1), 1), DeltaValue(v, 1)],
                              ExactBeta(v, d4, core), d4) == "APMUB"
        assert classify_delta([DeltaValue(v, 1)], ExactBeta(v, d1, core), d1) == "MUB"
        assert classify_delta([DeltaValue(v, 1)], ExactBeta(v, d1 + 1, core), d1 + 1) != "MUB"
    # k * max_ip = (1 + eps)^2: above, max_ip = a^2 (k*a^2 = q); below, k = 4,
    # a = 1/4: (1 + 1/2)^2 = 9/4 = 4 * 9/16
    e = ExactEps((2, 0, 5), 21, 1)  # sqrt(21) * 2/5 > 1
    assert e.side == 1 and verify._ip_le_eps_square((4, 0, 25), e)
    assert not verify._ip_le_eps_square((4 * 10**6 + 1, 0, 25 * 10**6), e)
    e = ExactEps((1, 0, 4), 4, 1)
    assert e.side == -1 and verify._ip_le_eps_square((9, 0, 16), e)
    assert not verify._ip_le_eps_square((9 * 10**6 + 1, 0, 16 * 10**6), e)
    for v in ((9, 0, 16), (9 * 10**6 + 1, 0, 16 * 10**6), (4, 0, 25)):
        assert verify._ip_le_eps_square(v, e) == oracles.ip_le_eps_square(
            key_scalar(v, 1), ScalarEps.of(e), 4)


def test_key_floats_match_scalar_floats():
    """A key renders the float its Scalar rendered, at 53 and 70 bits, also
    for keys not in lowest terms and with negative parts, and so does the
    Scalar through ``quad_to_float``."""
    for key, core in (((1, 1, 3), 2), ((-7, 5, 12), 3), ((10**30 + 1, -(10**30), 7), 5),
                      ((3, 0, 9), 1), ((0, 2, 6), 6), ((-5, 0, 7), 2), ((1, -1, 1), 2)):
        for precision in (53, 70):
            want = scalar_float(key_scalar(key, core), precision)
            assert key_to_float(key, core, precision) == want, (key, core, precision)
            assert quad_to_float(key_scalar(key, core), precision) == want, (key, core)
