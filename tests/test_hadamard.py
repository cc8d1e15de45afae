import functools
import itertools
import re
import types

import numpy as np
import pytest

from armub import hadamard, jsonio
from armub.errors import CertificationError, DomainError, NotConstructibleError, ResourceLimitError
from armub.hadamard import (
    SignMatrix,
    find_hadamard,
    from_label,
    is_hadamard,
    kronecker,
    normalize_signs,
    paley,
    sylvester,
)
from oracles import paley_scalar

# order-4 complex-MUB companion matrix, scaled by 2 (paper background fixture)
M4_1_TIMES_2 = [
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
]

# the transformed real pair of the dimension-4 example, scaled by 2
M_DPRIME_2_TIMES_2 = [
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
]


def gram_oracle(m: SignMatrix) -> bool:
    a = m.rows.astype(np.int64)
    return np.array_equal(a @ a.T, m.order * np.eye(m.order, dtype=np.int64))


def test_sylvester_small():
    assert sylvester(0).rows.tolist() == [[1]]
    assert sylvester(1).rows.tolist() == [[1, 1], [1, -1]]
    h8 = sylvester(3)
    assert h8.order == 8 and gram_oracle(h8)
    for doublings in range(7):
        n = 1 << doublings
        # Sylvester entry (i, j) = (-1)^popcount(i & j)
        popcount = [[(-1) ** bin(i & j).count("1") for j in range(n)] for i in range(n)]
        assert sylvester(doublings).rows.tolist() == popcount


def test_sylvester_rejects_negative():
    with pytest.raises(DomainError):
        sylvester(-1)


@pytest.mark.parametrize("q,order", [(3, 4), (7, 8), (11, 12), (5, 12), (9, 20), (13, 28)])
def test_paley_orders(q, order):
    h = paley(q)
    assert h.order == order
    assert h.hadamard_verified and gram_oracle(h)


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 25, 27, 49, 81, 121, 125, 243, 343])
def test_paley_matches_scalar_oracle(q):
    """The array difference table gives the rows that scalar field
    subtraction does, for prime and prime-power q of both types."""
    assert np.array_equal(paley(q).rows, paley_scalar(q))


def test_paley_rejects_bad_q():
    for q in (2, 4, 12, 15):
        with pytest.raises(DomainError):
            paley(q)


def test_paley_row_sums_bounded():
    h = paley(11)
    sums = np.abs(h.rows.astype(np.int64).sum(axis=1))
    assert sums.max() <= h.order
    assert np.all(h.rows[0] == 1) and np.all(h.rows[:, 0] == 1)


def test_kronecker_reproduces_paper_order4():
    h2 = sylvester(1)
    h4 = kronecker(h2, h2)
    assert h4.rows.tolist() == M4_1_TIMES_2


def test_kronecker_identity():
    one = SignMatrix([[1]], verified=True)
    h8 = sylvester(3)
    assert kronecker(one, h8) == h8


def test_kronecker_requires_verified():
    unverified = SignMatrix([[1, 1], [1, -1]])
    with pytest.raises(DomainError):
        kronecker(unverified, sylvester(1))


def test_kronecker_pool_exhaustive():
    pool = [sylvester(1), sylvester(2), sylvester(3), paley(11)]
    for a, b in itertools.product(pool, pool):
        if a.order * b.order > 200:
            continue
        assert is_hadamard(kronecker(a, b)).ok


def test_is_hadamard_detects_flip():
    h = sylvester(2)
    rows = h.rows.astype(np.int64).copy()
    rows[2, 3] *= -1
    check = is_hadamard(SignMatrix(rows))
    assert not check.ok
    assert check.first_violation is not None
    i, j, value = check.first_violation
    assert value != (4 if i == j else 0)


def test_is_hadamard_names_the_first_violation():
    """The float32 Gram finds the first violation in row-major order, with
    the value of the exact integer Gram there."""
    rng = np.random.default_rng(7)
    for h in (paley(11), find_hadamard(64), find_hadamard(256)):
        rows = h.rows.astype(np.int64).copy()
        for i, j in rng.integers(0, h.order, size=(3, 2)):
            rows[i, j] *= -1
        gram = rows @ rows.T
        bad = np.argwhere(gram != h.order * np.eye(h.order, dtype=np.int64))
        i, j = map(int, bad[0])
        check = is_hadamard(SignMatrix(rows))
        assert not check.ok and check.first_violation == (i, j, int(gram[i, j]))


def test_gram_float32_bound_is_2_24():
    """H H^T runs in float32, whose partial sums are integers of magnitude
    at most the order: 2^24 is exact and 2^24 + 1 is the first integer
    float32 rounds, so orders from 2^24 up are refused.  The refusal comes
    before the rows are read, so no matrix of that order is built."""
    assert int(np.float32(2**24)) == 2**24 and int(np.float32(2**24 + 1)) != 2**24 + 1
    with pytest.raises(AssertionError, match="exact float32 range"):
        is_hadamard(types.SimpleNamespace(order=2**24, rows=None))


def test_is_hadamard_paper_fixtures():
    assert is_hadamard(SignMatrix(M_DPRIME_2_TIMES_2)).ok
    assert is_hadamard(SignMatrix(M4_1_TIMES_2)).ok


def test_normalize_signs():
    h = paley(19)
    assert np.all(h.rows[0] == 1) and np.all(h.rows[:, 0] == 1)
    scr = h.rows.astype(np.int64).copy()
    scr[3] *= -1
    scr[:, 5] *= -1
    renorm = normalize_signs(SignMatrix(scr))
    assert np.all(renorm.rows[0] == 1) and np.all(renorm.rows[:, 0] == 1)
    assert is_hadamard(renorm).ok


def test_find_hadamard_basics():
    assert find_hadamard(1).order == 1
    assert find_hadamard(2).order == 2
    for order in (4, 8, 12, 16, 20, 24, 32, 48, 64, 80):
        h = find_hadamard(order)
        assert h.order == order and h.hadamard_verified


def test_find_hadamard_80_single_generator():
    assert find_hadamard(80).label == "paley1(79)"


def test_find_hadamard_domain_errors():
    for order in (6, 10, 3, 7, 0):
        with pytest.raises(DomainError):
            find_hadamard(order)


def test_find_hadamard_not_constructible():
    with pytest.raises(NotConstructibleError) as err:
        find_hadamard(92)
    assert err.value.target == 92
    assert 4 in err.value.attempted  # 92 = 4 * 23, but 23 is unreachable


def test_size_budget():
    """Orders above 4096 are refused before any matrix is built."""
    with pytest.raises(ResourceLimitError, match="order 8192 exceeds size budget 4096"):
        sylvester(13)
    with pytest.raises(ResourceLimitError, match="order 8192 exceeds size budget 4096"):
        find_hadamard(8192)


def test_json_roundtrip_byte_identical():
    h = paley(11)
    text = jsonio.dumps_canonical(jsonio.sign_matrix_obj(h))
    import json

    parsed = jsonio.parse_sign_matrix(json.loads(text))
    assert parsed.hadamard_verified
    again = jsonio.dumps_canonical(jsonio.sign_matrix_obj(parsed))
    assert again == text


# -- labels as recipes, certified by structure -------------------------------

REACHABLE_512 = []
for _order in range(4, 513, 4):
    try:
        REACHABLE_512.append(find_hadamard(_order).label)
    except NotConstructibleError:
        pass


def _generators(label):
    """The generator labels of a product label, left to right."""
    return re.findall(r"(sylvester|paley1|paley2)\((\d+)\)", label)


def _dense(label, flip=None):
    """The rows a label names, as the Kronecker product of its generators
    from the popcount and scalar-field oracles, with one sign flipped in H_2
    (flip "sylvester") or in the Paley generator of GF(q) (flip q)."""
    h2 = np.array([[1, 1], [1, 1 if flip == "sylvester" else -1]])
    leaves = []
    for name, arg in _generators(label):
        if name == "sylvester":
            leaves.append(functools.reduce(np.kron, [h2] * int(arg), np.ones((1, 1), int)))
        else:
            rows = paley_scalar(int(arg)).copy()
            if flip == int(arg):
                rows[1, 1] *= -1
            leaves.append(rows)
    return functools.reduce(np.kron, leaves)


def test_reachable_orders_to_512():
    """105 of the 128 orders 4, 8, ..., 512, from generators of all three
    kinds and from products of two of them."""
    assert len(REACHABLE_512) == 105
    kinds = {name for label in REACHABLE_512 for name, _ in _generators(label)}
    assert kinds == {"sylvester", "paley1", "paley2"}
    assert max(label.count("kron(") for label in REACHABLE_512) == 1


def test_structural_certificate_agrees_with_gram(monkeypatch):
    """For every order up to 512 that find_hadamard reaches: the matrix it
    certifies by structure passes the Gram check, equals the product of the
    oracle generators, and its label alone builds the same rows again.
    Only generator Grams run: one per Paley generator and one for H_2."""
    grams = []
    gram = hadamard.is_hadamard
    monkeypatch.setattr(hadamard, "is_hadamard", lambda m: grams.append(m.order) or gram(m))
    for label in REACHABLE_512:
        from_label.cache_clear()
        del grams[:]
        h = from_label(label)
        assert h.hadamard_verified and h.label == label
        assert sorted(grams) == sorted(
            2 if name == "sylvester" else int(arg) + 1 if name == "paley1" else 2 * int(arg) + 2
            for name, arg in _generators(label))
        assert gram(h).ok and np.array_equal(h.rows, _dense(label))
        from_label.cache_clear()
        assert find_hadamard(h.order) == h and find_hadamard(h.order) is not h
    from_label.cache_clear()


def test_flipped_generator_sign_fails_both_checks(monkeypatch):
    """One sign flipped in H_2, or in a Paley generator, fails the
    generator's Gram check, so the structural certificate of every product
    it enters fails; the dense Gram of that product fails as well."""
    verified = hadamard._verified

    def flipped(target):
        def check(rows, label):
            if label == target:
                rows = np.array(rows)
                rows[1, 1] *= -1
            return verified(rows, label)
        return check

    checked = 0
    for label in REACHABLE_512:
        for name, arg in set(_generators(label)):
            target, flip = ("sylvester(1)", "sylvester") if name == "sylvester" else (
                f"{name}({arg})", int(arg))
            from_label.cache_clear()
            with monkeypatch.context() as patch:
                patch.setattr(hadamard, "_verified", flipped(target))
                with pytest.raises(CertificationError, match=f"generator {re.escape(target)} "
                                                             "is not Hadamard"):
                    from_label(label)
            assert not is_hadamard(SignMatrix(_dense(label, flip))).ok
            checked += 1
    from_label.cache_clear()
    assert checked > len(REACHABLE_512)


def test_from_label_grammar():
    assert from_label("kron(paley2(5),kron(sylvester(1),paley1(3)))").order == 96
    assert from_label("sylvester(5)") is from_label("sylvester(5)")
    assert find_hadamard(96) is from_label(find_hadamard(96).label)
    for label in ("paley1(5)", "sylvester(03)", "kron(sylvester(1),x)", "sylvester(1) "):
        with pytest.raises(DomainError):
            from_label(label)
    with pytest.raises(ResourceLimitError, match="order 8192 exceeds size budget 4096"):
        from_label("kron(sylvester(1),sylvester(12))")


def test_find_hadamard_searches_each_order_once(monkeypatch):
    """The factorization search runs once per order; an order with no
    factorization raises NotConstructibleError on every call."""
    calls = []
    original = hadamard._generator_labels

    def counting(limit):
        calls.append(limit)
        return original(limit)

    monkeypatch.setattr(hadamard, "_generator_labels", counting)
    hadamard._order_label.cache_clear()
    assert find_hadamard(1024) is find_hadamard(1024)
    assert calls == [1024]
    for _ in range(2):
        with pytest.raises(NotConstructibleError):
            find_hadamard(92)
    assert calls == [1024, 92, 92]
