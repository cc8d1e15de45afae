import functools
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from armub import algebra, epsh, jsonio
from armub.algebra import square_free_split
from armub.bases import assemble
from armub.epsh import (
    BlockSplit,
    EpsHadamard,
    ExactEps,
    best_reduction,
    classify_u,
    corner_split,
    reduce_split,
)
from armub.errors import (CertificationError, DomainError, NotConstructibleError,
                          ResourceLimitError)
from armub.hadamard import SignMatrix, find_hadamard, is_hadamard, sylvester
from armub.rbd import build_affine_rbd
from oracles import (
    QuadNum,
    ScalarEps,
    abs_scalars,
    assert_matches_sympy,
    best_reduction_loop,
    cmp_values,
    epsilon_of,
    exact_sqrt,
    find_placements,
    from_scalar_rows,
    lemma_inverse,
    paper_listed_configs,
    row_permuted,
    scalar_rows,
    scalar_terms,
    series_inverse_check,
    sign_of,
    sympy_reduction,
    term_gram_orthogonal,
)

H4_T1_SMALL_VARIANT = [
    [Fraction(-2, 3), Fraction(1, 3), Fraction(-2, 3)],
    [Fraction(1, 3), Fraction(-2, 3), Fraction(-2, 3)],
    [Fraction(-2, 3), Fraction(-2, 3), Fraction(1, 3)],
]


def test_h4_t1_exact_matrix():
    # order-4, U = [1]: the variant with the (sqrt(4n)+1) denominator is
    # D^ - W^(I+U^)^-1 V^, i.e. Y1 under this package's labeling
    h4 = sylvester(2)
    y1 = reduce_split(corner_split(h4, 1), "Y1")
    assert scalar_rows(y1) == H4_T1_SMALL_VARIANT
    assert sorted(map(abs, {v for row in scalar_rows(y1) for v in row})) == [
        Fraction(1, 3),
        Fraction(2, 3),
    ]


def test_h4_t1_sympy_oracle():
    h4 = sylvester(2)
    for variant in ("Y1", "Y2"):
        split = corner_split(h4, 1)
        assert_matches_sympy(reduce_split(split, variant), sympy_reduction(split, variant))


def test_h8_t2_sympy_oracle():
    h8 = sylvester(3)
    for variant in ("Y1", "Y2"):
        split = corner_split(h8, 2)
        assert_matches_sympy(reduce_split(split, variant), sympy_reduction(split, variant))


def test_h4_t1_epsilon_values():
    h4 = sylvester(2)
    y1 = reduce_split(corner_split(h4, 1), "Y1")
    y2 = reduce_split(corner_split(h4, 1), "Y2")
    # definitional epsilon takes the larger, downward deviation:
    # |sqrt(3)*(1/3) - 1| = 1 - 1/sqrt(3) > 2/sqrt(3) - 1
    assert ScalarEps(Fraction(1, 3)).cmp(y1.epsilon) == 0
    assert ScalarEps(Fraction(4, 3)).cmp(y1.epsilon_upper) == 0
    assert abs(float(y1.epsilon) - 0.42264973) < 1e-7
    assert abs(float(y1.epsilon_upper) - 0.15470054) < 1e-7
    # the other variant has zero entries, hence epsilon = 1 exactly
    assert ScalarEps(Fraction(0)).cmp(y2.epsilon) == 0
    assert float(y2.epsilon) == 1.0
    assert y1.epsilon < y2.epsilon
    assert y1.is_eps_hadamard and not y2.is_eps_hadamard


def test_epsilon_comparisons():
    small = ScalarEps(Fraction(11, 10))
    big = ScalarEps(Fraction(2))
    low = ScalarEps(Fraction(1, 2))  # |sqrt(1/2)-1| ~ 0.293
    zero = ScalarEps.zero()
    assert zero < small < big
    assert small < low  # 0.0488... < 0.2928...
    assert low.le_bound(Fraction(3, 10))
    assert not low.le_bound(Fraction(1, 4))
    assert big.lt_bound(QuadNum(0, 1, 2))  # sqrt(2)-1 ~ 0.414 < sqrt(2)


def test_classify_u_examples():
    uc = classify_u([[1, -1], [1, 1]])
    assert (uc.kappa, uc.gamma) == (-2, 2)
    assert uc.paper_listed and uc.preferred_variant == "Y2"
    uc = classify_u([[-1, -1], [1, -1]])
    assert (uc.kappa, uc.gamma) == (-2, -2)
    assert uc.preferred_variant == "Y1"
    uc = classify_u([[1, 1], [1, 1]])
    assert (uc.kappa, uc.gamma) == (0, 2)
    assert not uc.paper_listed and uc.preferred_variant is None
    uc = classify_u([[1]])
    assert (uc.kappa, uc.gamma) == (0, 1)


def test_classify_u_t3():
    for u in paper_listed_configs(3)[:12]:
        uc = classify_u(u)
        assert (uc.kappa, uc.gamma, uc.vartheta) == (4, 4, -1)
        assert uc.preferred_variant == "Y1"
    for u in paper_listed_configs(3)[12:]:
        uc = classify_u(u)
        assert (uc.kappa, uc.gamma, uc.vartheta) == (-4, 4, 1)
        assert uc.preferred_variant == "Y2"
    # an unlisted configuration: the relation holds all the same
    uc = classify_u([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    assert (uc.kappa, uc.gamma, uc.vartheta) == (0, 0, 3)
    assert not uc.paper_listed and uc.preferred_variant is None


def test_classify_u_domain_errors():
    with pytest.raises(DomainError):
        classify_u([[1, 2], [1, 1]])
    with pytest.raises(DomainError):
        classify_u(np.ones((4, 4), dtype=np.int64))


def _h16_listed_t3():
    h16 = find_hadamard(16)
    return next(iter(find_placements(h16, [paper_listed_configs(3)[0]]).values()))


@pytest.mark.parametrize("variant", ["Y1", "Y2"])
@pytest.mark.parametrize("make, method", [
    (_h16_listed_t3, "closed-form"),
    (lambda: corner_split(find_hadamard(12), 3), "closed-form"),
    (lambda: BlockSplit(find_hadamard(12), (1, 5), (2, 7), (True, False), (False, True)),
     "closed-form"),
], ids=["h16-listed-t3", "h12-corner-t3", "h12-negated-t2"])
def test_reduce_split_matches_sympy(make, method, variant):
    """The closed form of C gives the Y of an independent sympy reduction,
    entry by entry: for a published t = 3 U, for an unlisted t = 3 U, and
    for a split with negated rows and columns."""
    split = make()
    y = reduce_split(split, variant)
    assert y.provenance.method == method
    assert_matches_sympy(y, sympy_reduction(split, variant))


@pytest.mark.parametrize("t, orders", [(1, (8, 12, 16)), (2, (8, 12, 16)), (3, (12, 16))])
def test_closed_form_matches_elimination_for_every_u(t, orders):
    """The Cayley-Hamilton closed form of C equals C by exact Gauss-Jordan
    elimination of (I +/- U/sqrt(M)), for every t x t sign matrix U, both
    variants and several orders: listed and unlisted U alike."""
    for code in range(1 << (t * t)):
        u = np.array([[-1 if code >> (a * t + b) & 1 else 1 for b in range(t)]
                      for a in range(t)], dtype=np.int64)
        uclass = classify_u(u)
        for m in orders:
            for variant in ("Y1", "Y2"):
                got = oracles.form_scalars(epsh._coefficient_form(u, uclass, variant, m))
                assert _kmat_eq(got, oracles.elimination_coeffs(u, variant, m)), (u, m, variant)


# -- paper-displayed inverse formulas --------------------------------------

def _kmat_eq(a, b) -> bool:
    return all(
        cmp_values(x, y) == 0 for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def _expected_inverse_quadratic(u, m, sign, lead_num, lead_den, inner_den):
    """lead * (I - U / inner_den) style expressions from the t=2 display."""
    t = len(u)
    lead = lead_num / lead_den
    return [
        [
            lead * (Fraction(int(i == j)) - sign * int(u[i][j]) / inner_den)
            for j in range(t)
        ]
        for i in range(t)
    ]


@pytest.mark.parametrize("m", [8, 12, 16, 20, 80])
def test_t2_displayed_inverses(m):
    r = exact_sqrt(m)
    for u in paper_listed_configs(2)[:2]:  # U^2 = 2U - 2I
        got_plus, den_plus = lemma_inverse(u, m, sign=1)
        want_plus = _expected_inverse_quadratic(
            u, m, 1, m + 2 * r, m + 2 * r + 2, r + 2
        )
        assert _kmat_eq(got_plus, want_plus)
        assert sign_of(den_plus) != 0
        got_minus, den_minus = lemma_inverse(u, m, sign=-1)
        want_minus = _expected_inverse_quadratic(
            u, m, -1, m - 2 * r, m - 2 * r + 2, r - 2
        )
        assert _kmat_eq(got_minus, want_minus)
        assert sign_of(den_minus) != 0
    for u in paper_listed_configs(2)[2:]:  # U^2 = -2U - 2I
        got_plus, _ = lemma_inverse(u, m, sign=1)
        want_plus = _expected_inverse_quadratic(
            u, m, 1, m - 2 * r, m - 2 * r + 2, r - 2
        )
        assert _kmat_eq(got_plus, want_plus)
        got_minus, _ = lemma_inverse(u, m, sign=-1)
        want_minus = _expected_inverse_quadratic(
            u, m, -1, m + 2 * r, m + 2 * r + 2, r + 2
        )
        assert _kmat_eq(got_minus, want_minus)


def _expected_inverse_cubic(u, m, sign, lead_num, lead_den, c1, c2):
    """lead * (I - c1 * sign * U + c2 * U^2) from the t=3 display."""
    t = len(u)
    uu = np.asarray(u, dtype=np.int64)
    u2 = uu @ uu
    lead = lead_num / lead_den
    out = []
    for i in range(t):
        row = []
        for j in range(t):
            val = Fraction(int(i == j)) - sign * c1 * int(uu[i, j]) + c2 * int(u2[i, j])
            row.append(lead * val)
        out.append(row)
    return out


@pytest.mark.parametrize("m", [12, 16, 20, 80])
def test_t3_displayed_inverses(m):
    r = exact_sqrt(m)
    den_a = m * r - m - 4 * r + 4
    den_b = m * r + m - 4 * r - 4
    for u in paper_listed_configs(3)[:12]:  # U^3 = -U^2 + 4U + 4I
        got, dp = lemma_inverse(u, m, sign=1)
        want = _expected_inverse_cubic(
            u, m, 1, m * r - m - 4 * r, den_a, (r - 1) / (m - r - 4), 1 / (m - r - 4)
        )
        assert _kmat_eq(got, want)
        assert sign_of(dp) != 0
        got, dm = lemma_inverse(u, m, sign=-1)
        want = _expected_inverse_cubic(
            u, m, -1, m * r + m - 4 * r, den_b, (r + 1) / (m + r - 4), 1 / (m + r - 4)
        )
        assert _kmat_eq(got, want)
        assert sign_of(dm) != 0
    for u in paper_listed_configs(3)[12:]:  # U^3 = U^2 + 4U - 4I
        got, _ = lemma_inverse(u, m, sign=1)
        want = _expected_inverse_cubic(
            u, m, 1, m * r + m - 4 * r, den_b, (r + 1) / (m + r - 4), 1 / (m + r - 4)
        )
        assert _kmat_eq(got, want)
        got, _ = lemma_inverse(u, m, sign=-1)
        want = _expected_inverse_cubic(
            u, m, -1, m * r - m - 4 * r, den_a, (r - 1) / (m - r - 4), 1 / (m - r - 4)
        )
        assert _kmat_eq(got, want)


def test_lemma_inverse_identity():
    # (I + sign*U/sqrt(m)) times the claimed inverse is the identity
    for m in (8, 16, 20):
        r = exact_sqrt(m)
        for t in (1, 2, 3):
            for u in paper_listed_configs(t):
                uu = np.asarray(u, dtype=np.int64)
                for sign in (1, -1):
                    inv, den = lemma_inverse(uu, m, sign)
                    assert sign_of(den) != 0
                    for i in range(t):
                        for j in range(t):
                            acc = Fraction(0)
                            for x in range(t):
                                aix = Fraction(int(i == x)) + sign * int(uu[i, x]) / r
                                acc = acc + aix * inv[x][j]
                            assert cmp_values(acc, Fraction(int(i == j))) == 0


def test_t3_closed_form_coefficients_at_order_16():
    """The closed-form coefficients of I, U and U^2 at 4n = 16 are the
    displayed fractions, with alternating signs for Y1 and all-positive
    signs for Y2, and C is their sum over the powers of U (Y1) or -U
    (Y2)."""
    u = np.array(paper_listed_configs(3)[0], dtype=np.int64)
    uclass = classify_u(u)
    expect = {
        "Y1": [Fraction(-1, 18), Fraction(1, 48), Fraction(-1, 144)],
        "Y2": [Fraction(1, 15), Fraction(1, 48), Fraction(1, 240)],
    }
    for variant, want in expect.items():
        flip = 1 if variant == "Y1" else -1  # Y2's powers are of -U
        params = (uclass.kappa, uclass.gamma, uclass.vartheta)
        scale, coeffs = epsh._relation_coeffs(params, variant, 16)
        assert all(b == 0 for _, b in coeffs)  # sqrt(16) is rational
        assert [flip**p * Fraction(a, scale) for p, (a, _) in enumerate(coeffs)] == want
        _, _, a, _ = epsh._coefficient_form(u, uclass, variant, 16)
        c = sum(Fraction(ap, scale) * np.linalg.matrix_power(flip * u, p).astype(object)
                for p, (ap, _) in enumerate(coeffs))
        assert (a == c * scale).all()


# -- epsilon ----------------------------------------------------------------

def test_epsilon_of_exact_hadamard_is_zero():
    y = EpsHadamard.from_sign_hadamard(sylvester(3))
    assert epsilon_of(scalar_rows(y)).side == 0
    assert float(y.epsilon) == 0.0


def test_epsilon_of_scalar_rows():
    h4 = sylvester(2)
    y = reduce_split(corner_split(h4, 1), "Y1")
    eps = epsilon_of(scalar_rows(y))
    assert eps.cmp(y.epsilon) == 0


def test_window_certified_on_pool(sweep_reductions):
    assert all(y.window_ok for y in sweep_reductions.values())


def test_window_violation_detected():
    h12 = find_hadamard(12)
    y = oracles.dense_reduction(corner_split(h12, 1), "Y1")
    bad_terms = [(coeff * 3 if i == 0 else coeff, mat)
                 for i, (coeff, mat) in enumerate(y.terms)]
    with pytest.raises(CertificationError, match="outside window"):
        oracles.DenseEpsHadamard(y.order, y.radicand, bad_terms, y.provenance)


def test_orthogonality_violation_detected():
    h4 = sylvester(2)
    y = reduce_split(corner_split(h4, 1), "Y1")
    rows = scalar_rows(y)
    rows[0][0] = -rows[0][0] + Fraction(1, 7)
    with pytest.raises(CertificationError):
        from_scalar_rows(rows, y.radicand, y.provenance)


def test_wxv_exact_beyond_int64():
    """W X V takes int64 while t^2 * max|X| < 2^63 and Python ints beyond."""
    w = np.array([[1, -1], [1, 1], [-1, 1]], dtype=np.int64)
    v = w.T.copy()
    for top, dtype in ((2**60, np.int64), (2**61, object)):
        x = np.array([[top, -top], [3, top]], dtype=object)
        got = epsh._wxv(w, x, v)
        assert got.dtype == dtype
        want = [[sum(int(w[i, a]) * x[a, b] * int(v[b, j]) for a in range(2) for b in range(2))
                 for j in range(3)] for i in range(3)]
        assert got.tolist() == want
    # a term of Python ints stays exact inside the dense oracle
    big = 2**70
    prov = epsh.Provenance("I", 2, 0, (), (), (), (), None, "exact-hadamard")
    y = oracles.DenseEpsHadamard(
        2, 2, [(Fraction(1, big), np.array([[big, 0], [0, big]], dtype=object))], prov)
    assert scalar_rows(y) == [[1, 0], [0, 1]]


# -- the dense oracle's integer-form Gram kernel ----------------------------------

def _one_entry_perturbed(y):
    """y's terms plus one more that adds 1/(7k) to the entry (k//2, k//3)."""
    k = y.order
    unit = np.zeros((k, k), dtype=np.int64)
    unit[k // 2, k // 3] = 1
    return [*y.terms, (Fraction(1, 7 * k), unit)]


def _split_of(y) -> BlockSplit:
    p = y.provenance
    return BlockSplit(y.source, p.row_select, p.col_select, p.row_negate, p.col_negate)


@pytest.mark.parametrize("form", ["built", "parsed", "indicator"])
def test_gram_kernel_matches_term_oracle(sweep_reductions, form):
    """The dense oracle's integer-form kernel and the per-term-pair Gram
    oracle accept every swept Y, as the k x k terms of its split, as derived
    again from its artifact, and as one indicator term per distinct entry,
    and both reject it with one entry perturbed; the kernel names the first
    violation in row-major order."""
    for (m, t), y in sweep_reductions.items():
        if form == "parsed":
            text = jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y))
            y = jsonio.parse_eps_hadamard(json.loads(text))
        if form == "indicator":
            y = from_scalar_rows(scalar_rows(y), y.radicand, y.provenance)
        else:
            y = oracles.dense_reduction(_split_of(y), y.variant)
        k = y.order
        assert term_gram_orthogonal(k, y.terms), (m, t)
        assert oracles._gram_violation(*oracles._integer_form(y.terms)) is None, (m, t)
        bad = _one_entry_perturbed(y)
        assert not term_gram_orthogonal(k, bad), (m, t)
        found = oracles._gram_violation(*oracles._integer_form(bad))
        assert found is not None, (m, t)
        if oracles.entry(y, 0, k // 3)[:2] != (0, 0):  # row 0 meets the changed row first
            assert found[0] == (0, k // 2), (m, t)


def test_float_route_bound_is_strict():
    """float64 only while k*(max|P|^2 + c*max|Q|^2) and L^2 stay below 2^53."""
    below, above = math.isqrt(2**53 - 1), math.isqrt(2**53 - 1) + 1
    assert below * below < 2**53 <= above * above
    one = np.ones((1, 1), dtype=np.int64)
    assert oracles._float_exact(1, 1, 1, below * one, None)
    assert not oracles._float_exact(1, 1, 1, above * one, None)
    assert not oracles._float_exact(1, above, 1, one, None)
    assert not oracles._float_exact(1, 1, 2, one, below * one)
    # a product outside the bound still certifies, on Python ints
    assert oracles._gram_violation(above, 1, above * one, None) is None
    assert oracles._gram_violation(above, 1, (above + 1) * one, None)[0] == (0, 0)


def test_sign_mixed_entries_verify():
    """Negating rows and columns of the order-256, t = 3 Y makes every
    magnitude occur with both signs: 24 indicator terms instead of 14, one
    Gram product either way, and the same epsilon."""
    y = best_reduction(find_hadamard(256), 3)
    rows = scalar_rows(y)
    plain = from_scalar_rows(rows, y.radicand, y.provenance)
    rng = np.random.default_rng(0)
    row_neg, col_neg = rng.random(y.order) < 0.5, rng.random(y.order) < 0.5
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if row_neg[i] != col_neg[j]:
                row[j] = -v
    flipped = from_scalar_rows(rows, y.radicand, y.provenance)
    assert (len(plain.terms), len(flipped.terms)) == (14, 24)
    assert flipped._q is None  # rational: one product P P^T
    assert flipped.epsilon.cmp(y.epsilon) == 0
    assert flipped.epsilon_upper.cmp(y.epsilon_upper) == 0
    assert flipped.distinct_abs_values() == y.distinct_abs_values()


# -- the magnitude-code certificate against the dense oracle --------------------

def _routes_agree(split, variant):
    """reduce_split and the dense oracle give the same Y, exactly: epsilon,
    epsilon_upper, the window verdict, the distinct magnitudes and their
    integer keys, the column histogram and every entry (or both raise the
    same CertificationError)."""
    outcomes = []
    for build in (reduce_split, oracles.dense_reduction):
        try:
            outcomes.append(build(split, variant))
        except CertificationError as err:
            outcomes.append(str(err))
    y, dense = outcomes
    if isinstance(y, str) or isinstance(dense, str):
        assert y == dense, (split, variant)
        return
    assert y.provenance == dense.provenance
    assert y.epsilon.cmp(dense.epsilon) == 0, (split, variant)
    assert y.epsilon_upper.cmp(dense.epsilon_upper) == 0, (split, variant)
    assert y.window_ok and dense.window_ok
    assert y.distinct_abs_values() == dense.distinct_abs_values(), (split, variant)
    assert np.array_equal(y.abs_value_counts(), dense.abs_value_counts()), (split, variant)
    assert scalar_rows(y) == scalar_rows(dense), (split, variant)


def _one_split_per_u_code(h, t):
    """{U code: a split of h whose U has that code}, walking the row and
    column selections in order and, for each U not met before, the
    negation masks of its split; bit a*t+b of a code is set where
    U_ab = -1."""
    sel = np.array(list(itertools.combinations(range(h.order), t)))
    sub = (h.rows < 0)[sel[:, None, :, None], sel[None, :, None, :]]  # (rows, cols, a, b)
    weights = 1 << np.arange(t * t).reshape(t, t)
    codes = np.einsum("rcab,ab->rc", sub.astype(np.int16), weights.astype(np.int16))
    masks = list(itertools.product((False, True), repeat=t))
    found = {}
    for code, base in zip(*(x.tolist() for x in np.unique(codes, return_index=True))):
        rows, cols = sel[base // len(sel)], sel[base % len(sel)]
        for rn, cn in itertools.product(masks, masks):
            flipped = code ^ sum((rn[a] ^ cn[b]) << (a * t + b)
                                 for a in range(t) for b in range(t))
            if flipped not in found:
                found[flipped] = BlockSplit(h, rows, cols, rn, cn)
    return found


@pytest.mark.parametrize("order, t", [(8, 1), (8, 2), (12, 1), (12, 2), (12, 3),
                                      (16, 1), (16, 2), (16, 3)])
def test_code_route_matches_dense_oracle_for_every_u(order, t):
    """For one split per U code that the matrix reaches (every code of
    t <= 2; 512 codes of t = 3 are reached at 12 and 16), both variants
    certify exactly as the dense oracle does."""
    found = _one_split_per_u_code(find_hadamard(order), t)
    assert len(found) == 1 << (t * t)
    for code, split in found.items():
        u = split.u_matrix()
        assert code == sum(int(u[a, b] < 0) << (a * t + b) for a in range(t) for b in range(t))
        for variant in ("Y1", "Y2"):
            _routes_agree(split, variant)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_code_route_matches_dense_oracle_on_equivalent_matrices(data):
    """On a random row and column permutation and sign flip of a Hadamard
    matrix, any split and variant certify exactly as the dense oracle
    does."""
    m = data.draw(st.sampled_from([8, 12, 16, 20]))
    t = data.draw(st.integers(1, 3 if m > 9 else 2))
    rows = find_hadamard(m).rows.astype(np.int64)
    rows = rows[data.draw(st.permutations(range(m)))][:, data.draw(st.permutations(range(m)))]
    signs = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=2 * m, max_size=2 * m)))
    h = SignMatrix(rows * signs[:m, None] * signs[None, m:], label="equivalent", verified=True)
    assert is_hadamard(h).ok
    pick = st.lists(st.integers(0, m - 1), min_size=t, max_size=t, unique=True).map(sorted)
    flags = st.lists(st.booleans(), min_size=t, max_size=t)
    split = BlockSplit(h, data.draw(pick), data.draw(pick), data.draw(flags), data.draw(flags))
    _routes_agree(split, data.draw(st.sampled_from(["Y1", "Y2"])))


def test_terms_are_t_by_t():
    """A reduction's terms are its t x t derivation: D's coefficient, then
    1/L with A and, when C has a radical part, sqrt(c)/L with B."""
    for m, t, count in ((16, 3, 2), (12, 2, 3), (8, 1, 3)):
        y = reduce_split(corner_split(find_hadamard(m), t), "Y1")
        assert len(y.terms) == count
        assert scalar_terms(y)[0] == (1 / exact_sqrt(m), None)
        assert all(x.shape == (t, t) for _, x in y.terms[1:])
    assert len(EpsHadamard.from_sign_hadamard(find_hadamard(8)).terms) == 1


@pytest.mark.parametrize("m, t", [(16, 3), (12, 2), (8, 1)])
def test_perturbed_c_fails_orthogonality(m, t):
    """C = (A + B*sqrt(c))/L scaled by 1 + 1/L leaves X != 0, and
    verify_orthogonal names the first nonzero entry of X."""
    split = corner_split(find_hadamard(m), t)
    y = reduce_split(split, "Y1")
    c = scale, core, a, b = epsh._coefficient_form(split.u_matrix(), y.provenance.uclass, "Y1", m)
    bad = (scale * scale, core, a * (scale + 1), b * (scale + 1))
    assert cmp_values(oracles.form_scalars(bad)[0][0],
                      oracles.form_scalars(c)[0][0] * (1 + Fraction(1, scale))) == 0
    with pytest.raises(CertificationError,
                       match=r"orthogonality violated: Y Y\^T - I = W X W\^T with X\(0, 0\)"):
        EpsHadamard(y.source, y.provenance, bad)
    EpsHadamard(y.source, y.provenance, c)  # the closed form itself certifies


def test_orthogonality_checks_the_radical_part_of_x():
    """C = 1/21 + 11/84*sqrt(2) on the corner of H_8 with t = 1 zeroes the
    rational part of X = 7 C^2 - 2 C/sqrt(8) - 1/8, as (1/21)^2*7 +
    2*(11/84)^2*7 - 11/84 - 1/8 = 0, and leaves its radical part
    (14*(1/21)*(11/84) - 1/42)*sqrt(2) = 4/63*sqrt(2): only the radical
    identity S = 0 fails."""
    split = corner_split(find_hadamard(8), 1)
    assert split.u_matrix().tolist() == [[1]]
    y = reduce_split(split, "Y1")
    c = (84, 2, np.array([[4]], dtype=object), np.array([[11]], dtype=object))
    x = QuadNum(0, Fraction(4, 63), 2)
    with pytest.raises(CertificationError, match=re.escape(f"X(0, 0) = {x}, expected 0")):
        EpsHadamard(y.source, y.provenance, c)


def test_code_route_window_violation_raises(monkeypatch):
    """An occurring magnitude outside the window fails the construction and
    is named, the smallest such first."""
    split = corner_split(find_hadamard(12), 2)
    y = reduce_split(split, "Y2")
    mags = abs_scalars(y)
    lo, hi = epsh._window(2, 12)
    monkeypatch.setattr(epsh, "_window", lambda t, m: (oracles.as_key(mags[1]), hi))
    with pytest.raises(CertificationError, match=re.escape(f"magnitude {mags[0]} outside")):
        reduce_split(split, "Y2")
    monkeypatch.setattr(epsh, "_window", lambda t, m: (lo, oracles.as_key(mags[-2])))
    with pytest.raises(CertificationError, match=re.escape(f"magnitude {mags[-1]} outside")):
        reduce_split(split, "Y2")


# -- Neumann series diagnostic ----------------------------------------------

def test_series_inverse_check_geometric_bound():
    # 4n = 16, t = 1: residual of a 10-term series under (1/4)^10
    u_hat = [[Fraction(1, 4)]]
    chk = series_inverse_check(u_hat, terms=10, sign=1)
    assert chk.within_bound
    assert cmp_values(chk.residual, Fraction(1, 4**10)) <= 0


def test_series_inverse_check_zero_terms():
    u_hat = [[Fraction(1, 4)]]
    chk = series_inverse_check(u_hat, terms=0, sign=1)
    # exact inverse is 4/5; |4/5 - 1| = 1/5
    assert cmp_values(chk.residual, Fraction(1, 5)) == 0


def test_series_inverse_check_quadnum_entries():
    m = 8
    r = exact_sqrt(m)
    u = [[1, 1], [1, -1]]
    u_hat = [[int(u[i][j]) / r for j in range(2)] for i in range(2)]
    chk = series_inverse_check(u_hat, terms=12, sign=-1)
    assert chk.within_bound


def test_series_diverges_outside_domain():
    with pytest.raises(DomainError):
        series_inverse_check([[Fraction(1, 2), Fraction(1, 2)],
                              [Fraction(1, 2), Fraction(1, 2)]], terms=3)


# -- best_reduction ----------------------------------------------------------

def test_best_reduction_corner_deterministic():
    h4 = sylvester(2)
    a = best_reduction(h4, 1)
    b = best_reduction(h4, 1)
    assert scalar_rows(a) == scalar_rows(b)
    assert a.variant == "Y1"
    assert scalar_rows(a) == H4_T1_SMALL_VARIANT


def test_best_reduction_wide_scope_not_worse():
    h8 = find_hadamard(8)
    corner = best_reduction(h8, 1)
    wide = best_reduction(h8, 1, search_scope="row-col-permutations")
    assert wide.epsilon.cmp(corner.epsilon) <= 0


def test_best_reduction_cap():
    h8 = find_hadamard(8)
    with pytest.raises(ResourceLimitError) as err:
        best_reduction(h8, 1, search_scope="row-col-permutations", cap=5)
    partial = err.value.partial_best
    assert partial is not None and partial.order == 7


def _search(fn, h, t, scope, cap):
    """(result, whether the cap was hit) of a split search."""
    try:
        return fn(h, t, scope, cap), False
    except ResourceLimitError as err:
        return err.partial_best, True


# Full scopes, then the first `cap` splits of scopes too large for the
# per-candidate loop.  The capped t = 3 scopes reach U outside the published
# lists as well as listed ones.  A cap of 200 at order 12 ends inside the
# second row selection.
@pytest.mark.parametrize("order, t, scope, cap", [
    (8, 1, "corner-only", 100_000),
    (12, 2, "corner-only", 1),
    (16, 3, "corner-only", 100_000),
    (8, 1, "row-col-permutations", 100_000),
    (8, 2, "row-col-permutations", 100_000),
    (12, 1, "row-col-permutations", 100_000),
    (8, 1, "permutations-and-negations", 100_000),
    (12, 1, "permutations-and-negations", 100_000),
    (12, 2, "row-col-permutations", 60),
    (12, 2, "row-col-permutations", 200),
    (8, 2, "permutations-and-negations", 60),
    (12, 3, "permutations-and-negations", 8),
    (16, 3, "permutations-and-negations", 32),
    (68, 1, "row-col-permutations", 300),
    (72, 2, "permutations-and-negations", 48),
])
def test_screen_matches_candidate_loop(order, t, scope, cap):
    h = find_hadamard(order)
    got, got_capped = _search(best_reduction, h, t, scope, cap)
    want, want_capped = _search(best_reduction_loop, h, t, scope, cap)
    assert got_capped == want_capped
    assert got.provenance == want.provenance  # split, negations, variant
    assert got.epsilon.cmp(want.epsilon) == 0
    assert jsonio.dumps_canonical(jsonio.eps_hadamard_obj(got)) == \
        jsonio.dumps_canonical(jsonio.eps_hadamard_obj(want))


CORNER_ORDERS = []
for _order in range(4, 257, 4):
    try:
        CORNER_ORDERS.append(find_hadamard(_order).order)
    except NotConstructibleError:
        pass


@pytest.mark.parametrize("order", CORNER_ORDERS)
def test_corner_route_matches_screen_and_candidate_loop(order):
    """For every t with t^2 < M, the corner search picks the candidate
    loop's split and variant and the split screen's candidate, with the same
    exact epsilon and the same epsh.json, on H and on the benchmark's
    row-permuted H."""
    for t in (t for t in (1, 2, 3) if t * t < order):
        for h in (find_hadamard(order), row_permuted(find_hadamard(order), t, order)):
            got, want = best_reduction(h, t), best_reduction_loop(h, t)
            screen = epsh._SplitScreen(h, t, "corner-only", 1)
            rank, i = screen.best()
            split, variant = screen.candidate(i)
            p = got.provenance
            assert p == want.provenance, (order, t, h.label)
            assert (p.row_select, p.col_select, p.row_negate, p.col_negate, p.variant) == \
                (split.row_select, split.col_select, split.row_negate, split.col_negate, variant)
            assert got.epsilon.cmp(want.epsilon) == 0
            assert got.epsilon.cmp(screen.table.eps[rank]) == 0
            assert jsonio.dumps_canonical(jsonio.eps_hadamard_obj(got)) == \
                jsonio.dumps_canonical(jsonio.eps_hadamard_obj(want))


def test_corner_search_builds_no_screen(monkeypatch):
    """A corner search builds one EpsHadamard and no split screen; with no
    split under the cap it fails as a searched scope does."""
    inits = []
    original = EpsHadamard.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        inits.append(self.order)

    def no_screen(*args, **kwargs):
        raise AssertionError("split screen built for one split")

    monkeypatch.setattr(EpsHadamard, "__init__", counting)
    monkeypatch.setattr(epsh, "_SplitScreen", no_screen)
    h = find_hadamard(64)
    for t in (1, 2, 3):
        best_reduction(h, t)
    assert inits == [63, 62, 61]
    for scope in epsh.SEARCH_SCOPES:
        with pytest.raises(DomainError, match="no candidate splits in scope"):
            best_reduction(h, 1, scope, cap=0)
    assert inits == [63, 62, 61]


def _occurrence(rows, t, sel, bases, start=0):
    """(masks, U codes) of the bases start..bases-1 in base order, put
    together from the screen's blocks, each base taken exactly once."""
    occ = np.zeros(bases - start, dtype=np.uint64)
    u = np.full(bases - start, -1, dtype=np.int64)
    for origin, stride, masks, codes in epsh._occurrence_blocks(rows, t, sel, bases, start):
        at = origin - start + stride * np.arange(masks.shape[0])[:, None] + np.arange(masks.shape[1])
        assert (u[at] == -1).all()
        occ[at], u[at] = masks, codes
    assert (u >= 0).all()
    return occ, u


@pytest.mark.parametrize("t", [1, 2, 3])
def test_occurrence_masks_match_entries(t):
    """Each split's occurrence mask and U code, against the entry-by-entry
    oracle, on a sign matrix that is not Hadamard.  Columns 0-63 are +1, so
    every magnitude index with D_ij = -1 or v_j != 0 rests on the counts of
    the 8 random columns 64-71, and a count that misses or keeps one column
    of C shows as a wrong bit."""
    rng = np.random.default_rng(t)
    rows = np.ones((72, 72), dtype=np.int64)
    rows[:, 64:] = rng.choice([1, -1], size=(72, 8))
    combos = list(itertools.combinations(range(72), t))
    picks = sorted(rng.choice(len(combos), size=12, replace=False))
    sel = np.array([combos[i] for i in picks])
    occ, u = _occurrence(rows, t, sel, 144)
    masks, codes = oracles.occurrence_masks(rows, t, sel, 144)
    assert occ.tolist() == masks
    assert u.tolist() == codes


@pytest.mark.parametrize("m, t", [(m, t) for m in (8, 12, 16, 20) for t in (1, 2, 3)])
def test_occurrence_matches_oracle_on_hadamard_scopes(m, t, monkeypatch):
    """Masks and U codes equal the oracle's over the first bases of a full
    scope of H_m, at most 2,000, ending partway through a row selection,
    and read again as two ranges cut partway through a row selection.  With
    the screen's budget the bases end partway through a tile of row
    selections, and at t = 3 partway through a column sub-block as well; a
    budget of 2^10 gives tiles of a few row selections and sub-blocks of a
    few columns, many to a range."""
    rows = find_hadamard(m).rows
    sel = np.array(list(itertools.combinations(range(m), t)), dtype=np.intp)
    n = len(sel)
    bases = min(n * n - 1, 2000)
    cut = n + n // 2
    assert bases % n and cut < bases
    masks, codes = oracles.occurrence_masks(rows, t, sel, bases)
    for budget in (epsh._SCREEN_BUDGET, 1 << 10):
        monkeypatch.setattr(epsh, "_SCREEN_BUDGET", budget)
        occ, u = _occurrence(rows, t, sel, bases)
        assert occ.tolist() == masks and u.tolist() == codes, budget
        parts = [_occurrence(rows, t, sel, cut), _occurrence(rows, t, sel, bases, cut)]
        assert np.concatenate([p[0] for p in parts]).tolist() == masks, budget
        assert np.concatenate([p[1] for p in parts]).tolist() == codes, budget


def test_occurrence_one_base_corner_at_order_256():
    rows = find_hadamard(256).rows
    sel = np.array([[0, 1, 2]], dtype=np.intp)
    occ, u = _occurrence(rows, 3, sel, 1)
    assert (occ.tolist(), u.tolist()) == oracles.occurrence_masks(rows, 3, sel, 1)


def test_occurrence_asserts_the_float32_bound():
    """The count products are exact while (M - t)*M < 2^24; at order 4097
    the kernel refuses before it forms any product."""
    with pytest.raises(AssertionError, match="exact float32 range"):
        _occurrence(np.ones((4097, 4097), dtype=np.int8), 1,
                         np.array([[0]], dtype=np.intp), 1)


SCREEN_ORDERS = [2] + [m for m in CORNER_ORDERS if m <= 32]


def _signed_permutation(h, seed):
    """The rows of h under a seeded row and column permutation and sign
    flip, a Hadamard matrix again."""
    rng = np.random.default_rng(seed)
    rows = h.rows[rng.permutation(h.order)][:, rng.permutation(h.order)]
    flip = np.array([1, -1], dtype=np.int8)
    return rows * rng.choice(flip, h.order)[:, None] * rng.choice(flip, h.order)


def _first_bases(masks, codes):
    """{(mask, U code): least base} of per-base masks and U codes."""
    first = {}
    for b, pair in enumerate(zip(masks, codes)):
        first.setdefault(pair, b)
    return first


@pytest.mark.parametrize("m, t", [(m, t) for m in SCREEN_ORDERS for t in (1, 2) if t * t < m])
def test_orthogonal_pairs_match_counted_masks(m, t):
    """For t <= 2 the distinct (mask, U code) pairs and their first bases,
    read from U and the V-codes (``_pairs``), equal those of the count
    kernel (``_occurrence_blocks``), and of the entry-by-entry oracle up to
    800 bases, over the full scope and a cap partway through the second row
    selection, on H, on the benchmark's row-permuted H and on a seeded
    signed row and column permutation of H; ``_base_pair`` gives the pair
    of single bases.  At (8, 2), M/2^t = t: two rows of R can take all M/4
    rows of a code, and the mask drops it."""
    h = find_hadamard(m)
    sel = np.array(list(itertools.combinations(range(m), t)), dtype=np.intp)
    n = len(sel)
    for rows in (h.rows, row_permuted(h, t, 5).rows, _signed_permutation(h, m)):
        for bases in (n * n, n + n // 2):
            occ, u = _occurrence(rows, t, sel, bases)
            if bases <= 800:
                assert oracles.occurrence_masks(rows, t, sel, bases) == (occ.tolist(), u.tolist())
            got = epsh._pairs(rows, t, sel, bases)
            want = _first_bases(occ.tolist(), u.tolist())
            assert dict(zip(zip(got[0].tolist(), got[1].tolist()), got[2].tolist())) == want
            assert len(got[0]) == len(want), (m, t, bases)
            for b in {0, bases // 2, bases - 1}:
                mask, code = epsh._base_pair(rows, t, sel, b)
                assert (mask.tolist(), code.tolist()) == ([int(occ[b])], [int(u[b])])
    if (m, t) == (8, 2):
        taken = [sum(int(x) >> (w << t | v) & 1 for w in range(4)) for x in occ for v in range(4)]
        assert 0 < min(c for c in taken if c) < 4


@pytest.mark.parametrize("order", [m for m in CORNER_ORDERS if m <= 64])
def test_orthogonal_scan_matches_dense_reduction(order):
    """For t in {1, 2} the code scan counts each magnitude from U and the
    V-codes alone (``_CodeScan``): on random selections and negations of
    H_order both variants' magnitudes and column histograms equal those of
    the dense reduction; at t = 0 (all M rows count) those of
    EpsHadamard.from_sign_hadamard equal those of the one dense term H/sqrt(M)."""
    h = find_hadamard(order)
    rng = np.random.default_rng(order)
    for t in (t for t in (1, 2) if t * t < order):
        for _ in range(2):
            rows, cols = (sorted(rng.choice(order, t, replace=False)) for _ in range(2))
            negate = (rng.integers(0, 2, t).astype(bool).tolist() for _ in range(2))
            split = BlockSplit(h, rows, cols, *negate)
            for variant in ("Y1", "Y2"):
                y, dense = reduce_split(split, variant), oracles.dense_reduction(split, variant)
                assert y.distinct_abs_values() == dense.distinct_abs_values(), (split, variant)
                assert np.array_equal(y.abs_value_counts(), dense.abs_value_counts())
    y = EpsHadamard.from_sign_hadamard(h)
    dense = oracles.DenseEpsHadamard(order, order, [(1 / exact_sqrt(order), h.rows)],
                                     y.provenance)
    assert y.distinct_abs_values() == dense.distinct_abs_values()
    assert np.array_equal(y.abs_value_counts(), dense.abs_value_counts())
    assert y.abs_value_counts().tolist() == [[order]] * order


def test_screen_memory_does_not_grow_with_the_scope(monkeypatch):
    """The screen forms its masks block by block and keeps only the distinct
    (mask, U code) pairs: its traced peak, pairs and ranking together, over
    the full H_16, t = 3 scope (313,600 splits) stays under twice that at a
    cap of 10,000, and so does that of the full H_32, t = 2 scope (246,016
    splits), whose masks come from U and the V-codes tile by tile.  At the
    default budget a t = 2 tile takes 128 of H_32's 496 row selections,
    more than a cap of 10,000 needs (21), so the t = 2 runs take a budget
    of 2^12 (8 row selections a tile) and both span several tiles.  Both
    runs of a case share one code table, built beforehand for the full
    scope, so only what depends on the splits is measured."""
    build = epsh._EpsScreen
    for order, t, size, budget in ((16, 3, 313_600, epsh._SCREEN_BUDGET),
                                   (32, 2, 246_016, 1 << 12)):
        monkeypatch.setattr(epsh, "_SCREEN_BUDGET", budget)
        monkeypatch.setattr(epsh, "_EpsScreen", build)
        h = find_hadamard(order)
        table = epsh._SplitScreen(h, t, "row-col-permutations", 10**9).table
        monkeypatch.setattr(epsh, "_EpsScreen", lambda u_codes, t, m: table)
        peaks = []
        for cap in (10_000, 10**9):
            tracemalloc.start()
            try:
                search = epsh._SplitScreen(h, t, "row-col-permutations", cap)
                _, i = search.best()
                assert search.splits == min(cap, size) and i < 2 * search.splits
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], (order, t, peaks)


@pytest.mark.parametrize("order, t, cap", [(8, 2, 64), (16, 3, 16), (68, 2, 40)])
def test_screen_ranks_every_candidate(order, t, cap):
    """Each candidate's screened epsilon, ranked from its own base's mask and
    U code, equals that of its EpsHadamard, not only the winner's; the
    screen holds exactly the first base of each distinct pair of the bases
    with every negation pair under the cap, then a last base the cap cuts
    (none, one alone and one after two full bases here), and its best is
    the first minimum of the per-candidate ranks."""
    h = find_hadamard(order)
    search = epsh._SplitScreen(h, t, "permutations-and-negations", cap)
    full, rem = divmod(cap, search.nneg2)
    occ, u = _occurrence(h.rows, t, search.sel, full + (rem > 0))
    ranks = search.ranks(occ, u).reshape(-1)[:2 * cap]
    for i, rank in enumerate(ranks):
        split, variant = search.candidate(i)
        y = reduce_split(split, variant)
        assert search.table.eps[rank].cmp(y.epsilon) == 0, (split, variant)
    want = {}
    for b, pair in enumerate(zip(occ[:full].tolist(), u[:full].tolist())):
        want.setdefault(pair, b)
    got = list(zip(zip(search.occ.tolist(), search.u.tolist()), search.first.tolist()))
    if rem:
        assert got.pop() == ((int(occ[full]), int(u[full])), full)
    assert dict(got) == want and len(got) == len(want)
    assert search.best() == (ranks.min(), ranks.argmin())


def test_screen_best_at_every_cap():
    """At every cap over the first six bases of H_8, t = 2 with negations,
    most ending inside a base's 16 negation pairs, the screen's best is the
    first minimum of the per-candidate ranks under that cap."""
    h = find_hadamard(8)
    full = epsh._SplitScreen(h, 2, "permutations-and-negations", 10**9)
    occ, u = _occurrence(h.rows, 2, full.sel, 6)
    ranks = full.ranks(occ, u).reshape(-1)
    for cap in range(1, 6 * 16 + 1):
        search = epsh._SplitScreen(h, 2, "permutations-and-negations", cap)
        rank, i = search.best()
        assert i == int(np.argmin(ranks[:2 * cap])), cap
        assert search.table.eps[rank].cmp(full.table.eps[ranks[i]]) == 0, cap


def _exact_eps_ranks(keys, k, core, window):
    """Oracle ranks of magnitude keys: the epsilons of their Scalars sorted
    with cmp_to_key(ScalarEps.cmp), equal epsilons sharing a rank, and one
    past the last rank for a magnitude outside the Scalar window by
    cmp_values."""
    mags = [QuadNum(Fraction(p, s), Fraction(q, s), core) if q else Fraction(p, s)
            for p, q, s in keys]
    eps = [ScalarEps(k * av * av) for av in mags]
    order = sorted(range(len(eps)), key=functools.cmp_to_key(lambda x, y: eps[x].cmp(eps[y])))
    ranks = [0] * len(eps)
    for prev, i in zip(order, order[1:]):
        ranks[i] = ranks[prev] + (eps[prev].cmp(eps[i]) != 0)
    sentinel = ranks[order[-1]] + 1
    outside = [window is not None and (cmp_values(av, window[0]) < 0
                                       or cmp_values(av, window[1]) > 0) for av in mags]
    return [sentinel if out else r for r, out in zip(ranks, outside)], sentinel, eps


def _assert_screen_ranks(table, t, m, window=None):
    """The screen's integer ranks and window verdicts equal the oracle's (on
    the theorem's window, or the given Scalar one), each rank's ExactEps
    equals that of every magnitude holding the rank, and the integer
    comparison of the corner search (``_eps_cmp``) orders every two
    magnitudes as ScalarEps.cmp; returns the number of ranks shared by two
    magnitudes."""
    ranks, sentinel, eps = _exact_eps_ranks(table.keys, m - t, table.core,
                                            window or oracles.window(t, m))
    assert table.key_ranks.tolist() == ranks, (t, m)
    assert table.sentinel == sentinel, (t, m)
    for g, r in enumerate(ranks):
        if r != sentinel:
            assert eps[g].cmp(table.eps[r]) == 0, (t, m, table.keys[g])
    every = _exact_eps_ranks(table.keys, m - t, table.core, None)[0]  # no window
    sided = [(key, algebra._eps_side(key, m - t, table.core)) for key in table.keys]
    for x, rx in zip(sided, every):
        for y, ry in zip(sided, every):
            assert epsh._eps_cmp(x, y, m - t, table.core) == (rx > ry) - (rx < ry), (t, m, x, y)
    inside = [r for r in ranks if r != sentinel]
    return len(inside) - len(set(inside))


@pytest.mark.parametrize("m, ts", [(8, (1, 2)), (12, (1, 2, 3)), (16, (1, 2, 3))])
def test_integer_eps_rank_matches_exact_eps_every_u(m, ts):
    """Over the magnitudes of every U code and both variants, the integer
    merge rank and window test give the order and verdicts of ExactEps.cmp
    and cmp_values (c = 2, 3 and 1), ties included."""
    ties = sum(_assert_screen_ranks(epsh._EpsScreen(np.arange(1 << (t * t)), t, m), t, m)
               for t in ts)
    assert (ties > 0) == (m == 12)  # of these orders, equal epsilons meet at 12


def _assert_table_matches_per_code_route(table, u_codes, t, m):
    """keys, mag_ids, levels and level_masks of the class-batched table
    equal the per-code route's; the levels and their index masks come from
    the per-code magnitudes and the ScalarEps.cmp ranks of ``_exact_eps_ranks``."""
    keys, mag_ids = oracles.eps_table_per_code(u_codes, t, m)
    assert table.keys == keys, (t, m)
    assert table.mag_ids.tolist() == mag_ids.tolist(), (t, m)
    ranks, _, _ = _exact_eps_ranks(keys, m - t, table.core, oracles.window(t, m))
    levels = [[sorted({ranks[g] for g in row}, reverse=True) for row in per_u]
              for per_u in mag_ids.tolist()]
    width = max(len(row) for per_u in levels for row in per_u)
    assert table.levels.shape[-1] == width, (t, m)
    for ui, per_u in enumerate(levels):
        for vi, row in enumerate(per_u):
            masks = [sum(1 << b for b, g in enumerate(mag_ids[ui, vi]) if ranks[g] == r)
                     for r in row]
            assert table.levels[ui, vi].tolist() == row + [0] * (width - len(row)), (t, m, ui)
            assert table.level_masks[ui, vi].tolist() == masks + [0] * (width - len(row)), \
                (t, m, ui)


@pytest.mark.parametrize("m", [8, 12, 16, 20, 28, 64])
def test_class_table_matches_per_code_route(m):
    """The table formed once per relation class, from one batched S U^p S^T,
    equals the per-code route for every U code, t = 1, 2, 3 with t^2 < M
    (c = 2, 3, 1, 5, 7, 1)."""
    for t in (t for t in (1, 2, 3) if t * t < m):
        u_codes = np.arange(1 << (t * t))
        _assert_table_matches_per_code_route(epsh._EpsScreen(u_codes, t, m), u_codes, t, m)


def test_class_table_matches_per_code_route_at_order_4096():
    """At M = 4096, t = 3, the largest order the screen takes, for the corner
    U of H_4096, the class route gives the per-code route's table."""
    u = find_hadamard(4096).rows[:3, :3]
    code = np.array([sum(int(u[a, e] < 0) << (3 * a + e) for a in range(3) for e in range(3))])
    _assert_table_matches_per_code_route(epsh._EpsScreen(code, 3, 4096), code, 3, 4096)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_distinct_pairs_keeps_the_least_base(t):
    """Each distinct (mask, U code) pair once, at its least base, whether the
    bases are close (ranked in place) or far apart (ranked by sorting), and
    across parts whose bases interleave."""
    rng = np.random.default_rng(t)
    top = 2 ** (1 << (2 * t))
    for spread in (10**6, 2**62):
        occ = rng.integers(0, min(top, 2**63), size=3000, dtype=np.uint64) % np.uint64(7)
        occ = occ * np.uint64(top // 7 - 1)  # few masks, high bits set at t = 3
        u = rng.integers(0, 1 << (t * t), size=3000).astype(np.int16) % 5
        base = rng.choice(spread, size=3000, replace=False).astype(np.int64)
        want = {}
        for key, b in sorted(zip(zip(occ.tolist(), u.tolist()), base.tolist()),
                             key=lambda kb: kb[1]):
            want.setdefault(key, b)
        parts = [(occ[i::3], u[i::3], base[i::3]) for i in range(3)]
        got = epsh._distinct_pairs(parts, t)
        assert dict(zip(zip(got[0].tolist(), got[1].tolist()), got[2].tolist())) == want
        assert len(got[0]) == len(want)


def test_full_h16_t3_scopes_agree():
    """Both full H_16, t = 3 scopes, 313,600 and 20,070,400 splits, reach
    the same exact epsilon, 0.6394, with max|Y|^2 = 4/25."""
    h = find_hadamard(16)
    plain = best_reduction(h, 3, "row-col-permutations", cap=10**9)
    signed = best_reduction(h, 3, "permutations-and-negations", cap=10**9)
    assert plain.epsilon.cmp(signed.epsilon) == 0
    assert round(float(plain.epsilon), 4) == 0.6394
    assert abs_scalars(plain)[-1] ** 2 == abs_scalars(signed)[-1] ** 2 == Fraction(4, 25)
    p, s = plain.provenance, signed.provenance
    assert (p.row_select, p.col_select, p.variant) == ((0, 1, 2), (3, 4, 5), "Y1")
    assert (s.row_select, s.col_select, s.row_negate, s.col_negate, s.variant) == \
        ((0, 1, 2), (0, 1, 3), (False,) * 3, (False, True, True), "Y1")


@pytest.mark.parametrize("m", [28, 64, 96, 256])
def test_integer_eps_rank_matches_exact_eps_corner(m):
    """The same in corner scope at larger orders (c = 7, 1, 6 and 1)."""
    for t in (1, 2, 3):
        _assert_screen_ranks(epsh._SplitScreen(find_hadamard(m), t, "corner-only", 1).table, t, m)


def test_integer_window_test_matches_exact_on_narrow_window(monkeypatch):
    """With the window narrowed to the middle third of the magnitudes, the
    keys outside it take the sentinel exactly where cmp_values puts them
    outside."""
    keys = epsh._EpsScreen(np.arange(16), 2, 12).keys
    lo, hi = (oracles.key_scalar(keys[g], 3) for g in (len(keys) // 3, 2 * len(keys) // 3))
    monkeypatch.setattr(epsh, "_window", lambda t, m: (oracles.as_key(lo), oracles.as_key(hi)))
    table = epsh._EpsScreen(np.arange(16), 2, 12)
    _assert_screen_ranks(table, 2, 12, (lo, hi))
    assert 0 < sum(table.outside) < len(keys) - 1


def test_screen_builds_exact_objects_only_for_the_winner(monkeypatch):
    """From the magnitude codes to the winner the search uses integers
    only: a corner search builds exactly the ExactEps of the winner's own
    construction, and the screen of a searched scope those plus the
    ExactEps of its rank, however many magnitudes the screen ranks.  The
    certificate of (93, 97, 3) builds none: its report and ledger decide
    and write on keys."""
    cases = []
    for h, t, scope, extra in ((find_hadamard(96), 3, "corner-only", 0),
                               (find_hadamard(12), 2, "row-col-permutations", 1)):
        y = best_reduction(h, t, scope)
        split = BlockSplit(h, y.provenance.row_select, y.provenance.col_select)
        magnitudes = len(epsh._SplitScreen(h, t, scope, 100_000).table.keys)
        cases.append((h, t, scope, extra, split, y.variant, magnitudes))
    built = []

    def counting(self, *args, _init=ExactEps.__init__):
        built.append(args)
        _init(self, *args)

    monkeypatch.setattr(ExactEps, "__init__", counting)
    for h, t, scope, extra, split, variant, magnitudes in cases:
        built.clear()
        reduce_split(split, variant)
        own = len(built)
        built.clear()
        best_reduction(h, t, scope)
        assert len(built) == own + extra, scope
        assert len(built) < magnitudes, scope
    bs = assemble(build_affine_rbd(93, 97), best_reduction(cases[0][0], 3))
    built.clear()
    jsonio.certificate_obj(bs, 3, "corner-only", {"file": "epsh.json", "sha256": "0"})
    assert built == []


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_screen_matches_loop_on_equivalent_matrices(data):
    """On a random row and column permutation and sign flip of a Hadamard
    matrix, with negations and a small cap, the screen picks the candidate
    loop's split with the same exact epsilon."""
    m = data.draw(st.sampled_from([8, 12, 16]))
    t = data.draw(st.integers(1, 3 if m > 9 else 2))
    rows = find_hadamard(m).rows.astype(np.int64)
    rows = rows[data.draw(st.permutations(range(m)))][:, data.draw(st.permutations(range(m)))]
    signs = np.array(data.draw(st.lists(st.sampled_from([1, -1]), min_size=2 * m, max_size=2 * m)))
    h = SignMatrix(rows * signs[:m, None] * signs[None, m:], label="equivalent", verified=True)
    assert is_hadamard(h).ok
    cap = data.draw(st.integers(1, 40))
    got, got_capped = _search(best_reduction, h, t, "permutations-and-negations", cap)
    want, want_capped = _search(best_reduction_loop, h, t, "permutations-and-negations", cap)
    assert got_capped == want_capped
    assert got.provenance == want.provenance
    assert got.epsilon.cmp(want.epsilon) == 0


def test_screen_builds_only_the_winner(monkeypatch):
    inits = []
    original = EpsHadamard.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        inits.append(self.order)

    monkeypatch.setattr(EpsHadamard, "__init__", counting)
    y = best_reduction(find_hadamard(16), 2, search_scope="row-col-permutations")
    assert inits == [14]  # one (verified) build of order 14 for 14,400 splits
    p = y.provenance
    assert (p.row_select, p.col_select, p.variant) == ((0, 1), (1, 2), "Y1")


def test_screen_window_violation_raises(monkeypatch):
    """A code whose magnitude lies outside the window fails the search, as
    the candidate's own construction would."""
    h = find_hadamard(8)
    y = best_reduction(h, 1)
    lo, _ = epsh._window(1, 8)
    top = abs_scalars(y)[-1]
    monkeypatch.setattr(epsh, "_window",
                        lambda t, m: (lo, oracles.as_key(top - Fraction(1, 10**6))))
    with pytest.raises(CertificationError, match=r"outside window .* rows=\(0,\), cols=\(0,\)"):
        best_reduction(h, 1)


@pytest.mark.parametrize("outside", ["Y2", "Y1"])
def test_corner_window_violation_matches_screen(monkeypatch, outside):
    """With the window narrowed to the other variant's magnitudes, only one
    variant of the corner split of H_16, t = 3, falls outside it, and the
    corner search fails with the split screen's message for that variant."""
    h = find_hadamard(16)
    inside = reduce_split(corner_split(h, 3), "Y1" if outside == "Y2" else "Y2")
    window = inside.distinct_abs_values()[0], inside.distinct_abs_values()[-1]
    monkeypatch.setattr(epsh, "_window", lambda t, m: window)
    reduce_split(corner_split(h, 3), inside.variant)  # within the window
    with pytest.raises(CertificationError) as want:
        epsh._SplitScreen(h, 3, "corner-only", 1).best()
    assert str(want.value).endswith(f"rows=(0, 1, 2), cols=(0, 1, 2)) {outside}")
    with pytest.raises(CertificationError) as got:
        best_reduction(h, 3)
    assert str(got.value) == str(want.value)


def test_screen_window_violation_with_negations(monkeypatch):
    """With negations, the search fails at the candidate where the candidate
    loop first fails, and names its split, negations and variant."""
    h = find_hadamard(8)
    _, hi = epsh._window(2, 8)
    lo = QuadNum(Fraction(1, 3), Fraction(-1, 6), 2)  # above some candidates' least |Y_ij|
    monkeypatch.setattr(epsh, "_window", lambda t, m: (oracles.as_key(lo), hi))
    tried = []

    def recording(split, variant):
        tried.append((split, variant))
        return reduce_split(split, variant)

    monkeypatch.setattr(oracles, "reduce_split", recording)
    with pytest.raises(CertificationError) as want:
        best_reduction_loop(h, 2, "permutations-and-negations", 32)
    split, variant = tried[-1]
    assert len(tried) > 1 and any(split.row_negate + split.col_negate)
    with pytest.raises(CertificationError) as got:
        best_reduction(h, 2, "permutations-and-negations", 32)
    assert str(got.value) == f"{want.value} in {split!r} {variant}"


def test_best_reduction_rejects_large_t():
    with pytest.raises(DomainError):
        best_reduction(sylvester(2), 2)  # t = 2 >= sqrt(4)


def test_paired_class_symmetry_t2():
    """Negating the selected rows swaps the two published t=2 classes and
    exchanges the variants; the matrices coincide entrywise, hence have
    equal epsilon."""
    h8 = find_hadamard(8)
    placed = find_placements(h8, [paper_listed_configs(2)[0]])
    split = next(iter(placed.values()))
    assert classify_u(split.u_matrix()).preferred_variant == "Y2"
    flipped = BlockSplit(
        h8, split.row_select, split.col_select,
        row_negate=tuple(not b for b in split.row_negate),
        col_negate=split.col_negate,
    )
    assert classify_u(flipped.u_matrix()).preferred_variant == "Y1"
    y2 = reduce_split(split, "Y2")
    y1 = reduce_split(flipped, "Y1")
    assert scalar_rows(y2) == scalar_rows(y1)
    assert y2.epsilon.cmp(y1.epsilon) == 0


def test_paired_class_symmetry_t3():
    # negating the selected rows flips the relation between the two t=3
    # families; the published lists are not closed under negation, so only
    # the relation parameters (not listedness) are asserted for -U
    h16 = find_hadamard(16)
    placed = find_placements(h16, [paper_listed_configs(3)[0]])
    split = next(iter(placed.values()))
    flipped = BlockSplit(
        h16, split.row_select, split.col_select,
        row_negate=tuple(not b for b in split.row_negate),
        col_negate=split.col_negate,
    )
    uc = classify_u(flipped.u_matrix())
    assert (uc.kappa, uc.gamma, uc.vartheta) == (-4, 4, 1)
    assert scalar_rows(reduce_split(split, "Y1")) == scalar_rows(reduce_split(flipped, "Y2"))


# -- serialization ------------------------------------------------------------

def test_eps_json_roundtrip_byte_identical():
    h12 = find_hadamard(12)
    y = best_reduction(h12, 2)
    text = jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y))
    parsed = jsonio.parse_eps_hadamard(json.loads(text))
    assert jsonio.dumps_canonical(jsonio.eps_hadamard_obj(parsed)) == text


def test_eps_json_tamper_detected():
    """One flipped bit of the packed source H fails its Hadamard check.  A
    row-permuted H_8, which no constructor builds, is stored as rows."""
    h8 = row_permuted(find_hadamard(8), 1, 1234567890)
    y = best_reduction(h8, 1)
    obj = json.loads(jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y)))
    rows = obj["hadamard"]["rows"]
    rows[2] = f"{int(rows[2], 16) ^ 0x10:02x}"  # entry (2, 3)
    with pytest.raises(CertificationError, match="hadamard re-check failed"):
        jsonio.parse_eps_hadamard(obj)


def test_eps_json_stores_h_and_split():
    """The artifact holds the source H as its recipe and the split, and a
    parse derives a Y with the same entries."""
    h12 = find_hadamard(12)
    y = best_reduction(h12, 2, search_scope="row-col-permutations")
    obj = jsonio.eps_hadamard_obj(y)
    assert "entries" not in obj
    assert obj["hadamard"] == {"kind": "hadamard", "label": "paley1(11)", "order": 12}
    parsed = jsonio.parse_eps_hadamard(json.loads(jsonio.dumps_canonical(obj)))
    assert parsed.source == h12 and parsed.provenance == y.provenance
    assert scalar_rows(parsed) == scalar_rows(y)
    exact = EpsHadamard.from_sign_hadamard(find_hadamard(8))
    assert jsonio.parse_eps_hadamard(jsonio.eps_hadamard_obj(exact)).source == exact.source


def test_eps_json_stored_epsilon_mismatch():
    h8 = find_hadamard(8)
    y = best_reduction(h8, 1)
    obj = json.loads(jsonio.dumps_canonical(jsonio.eps_hadamard_obj(y)))
    obj["epsilon"]["ksq"]["a"] = ["9", "1"]
    with pytest.raises(CertificationError):
        jsonio.parse_eps_hadamard(obj)


@pytest.mark.parametrize("order", CORNER_ORDERS)
def test_key_eps_matches_scalar_eps(order):
    """The ExactEps of a magnitude key has the q = k*a^2 (compared exactly)
    and the side of k*a^2 formed in Scalars, for every magnitude a that
    occurs in either variant of every corner reduction with t^2 < M."""
    h, core = find_hadamard(order), square_free_split(order)[1]
    for t in (t for t in (1, 2, 3) if t * t < order):
        for variant in epsh._VARIANTS:
            y = reduce_split(corner_split(h, t), variant)
            k = y.order
            for key, value in zip(y.distinct_abs_values(), abs_scalars(y)):
                got, want = ExactEps(key, k, core), ScalarEps(k * value * value)
                assert cmp_values(oracles.key_scalar(got.ksq, core), want.q) == 0, \
                    (order, t, variant, key)
                assert got.side == want.side, (order, t, variant, key)


def _magnitudes_by_comparison(values, core):
    """Oracle for ``_magnitudes``: each |value| in lowest terms, the
    distinct keys sorted by the exact comparison alone."""
    norm = []
    for p, q, scale in values:
        if algebra._quad_sign(p, q, core) < 0:
            p, q = -p, -q
        g = math.gcd(p, q, scale)
        norm.append((p // g, q // g, scale // g))
    keys = sorted(set(norm), key=functools.cmp_to_key(lambda x, y: algebra._key_cmp(x, y, core)))
    return [keys.index(key) for key in norm], keys


def _pell(n):
    """The first n solutions (p, q) of p^2 - 2 q^2 = +-1: p/q -> sqrt(2)
    closer than any float resolves."""
    out, (p, q) = [], (1, 1)
    for _ in range(n):
        out.append((p, q))
        p, q = p + 2 * q, p + q
    return out


ADVERSARIAL_MAGNITUDES = {
    # floats 1 ulp apart: the float order is right and is certified
    "ulp": (1, [(2**53, 0, 2**53), (2**53 + 2, 0, 2**53), (2**53 - 1, 0, 2**53),
                (2**52 + 3, 0, 2**52), (2**51 + 1, 0, 2**51)]),
    # float ties and inversions between different keys: p/q and sqrt(2),
    # and p - q*sqrt(2), whose float cancels to noise
    "pell": (2, [(0, 1, 1), (0, -3, 2)] + [(p, 0, q) for p, q in _pell(40)]
             + [(p, -q, 1) for p, q in _pell(40)] + [(-p, q, 7) for p, q in _pell(40)]),
    # ints too large for a float
    "huge": (3, [(10**400, 1, 3), (10**400 + 1, 0, 3), (1, 0, 10**400), (2, 1, 10**401),
                 (5, -2, 7), (-(10**309), 10**309, 1)]),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL_MAGNITUDES))
def test_magnitudes_certify_the_float_order(case):
    """``_magnitudes`` gives the ids and keys of the exact sort wherever the
    float order ties, inverts or overflows; the cases do all three."""
    core, values = ADVERSARIAL_MAGNITUDES[case]
    ids, keys = algebra._magnitudes(values + values[::-1], core)
    want_ids, want_keys = _magnitudes_by_comparison(values + values[::-1], core)
    assert keys == want_keys
    assert ids.tolist() == want_ids
    try:
        floats = [(p + q * math.sqrt(core)) / scale for p, q, scale in keys]
        exact = all(x < y for x, y in zip(floats, floats[1:]))
    except OverflowError:
        exact = False
    assert exact == (case == "ulp")  # the other cases need the integer sort


def test_corner_route_evaluates_each_variant_once(monkeypatch):
    """The one-split route hands the winner's evaluated codes to EpsHadamard:
    one ``_magnitudes`` per variant, none in the construction."""
    calls = []
    original = epsh._magnitudes

    def counting(values, core):
        calls.append(len(values))
        return original(values, core)

    monkeypatch.setattr(epsh, "_magnitudes", counting)
    h = find_hadamard(64)
    for t in (1, 2, 3):
        calls.clear()
        y = best_reduction(h, t)
        assert len(calls) == 2, t
        assert y.distinct_abs_values() == reduce_split(
            corner_split(h, t), y.variant).distinct_abs_values()


def test_eps_hadamard_takes_c_or_its_evaluation():
    """EpsHadamard takes C or its ``_evaluate``, exactly one of the two."""
    split = corner_split(find_hadamard(16), 2)
    y = reduce_split(split, "Y1")
    c = epsh._coefficient_form(split.u_matrix(), y.provenance.uclass, "Y1", 16)
    scan = epsh._CodeScan(y.source, y.provenance, split.u_matrix())
    evaluated = epsh._evaluate(c, 16, 2, scan)
    for args in ((), (c, evaluated)):
        with pytest.raises(TypeError):
            EpsHadamard(y.source, y.provenance, *args)
    assert EpsHadamard(y.source, y.provenance, evaluated=evaluated).distinct_abs_values() == (
        y.distinct_abs_values())
