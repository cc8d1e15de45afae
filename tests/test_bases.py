from fractions import Fraction

import pytest

from armub.bases import assemble
from armub.epsh import EpsHadamard, best_reduction
from armub.errors import DomainError
from armub.hadamard import find_hadamard, sylvester
from armub.rbd import Rbd, build_affine_rbd
from oracles import (QuadNum, bases_of, cmp_values, dense_columns, paper_d4_design,
                     scalar_rows, sign_of, sparse_orthonormality_check)

INV_SQRT2 = QuadNum(0, Fraction(1, 2), 2)  # 1/sqrt(2) = sqrt(2)/2

# the three order-4 real MUB matrices, columns as vectors, times sqrt(2)
M1_COLS = [
    [1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1],
]
M2_COLS = [
    [1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1],
]
M3_COLS = [
    [1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0],
]


def paper_d4_basis_set():
    return assemble(paper_d4_design(), EpsHadamard.from_sign_hadamard(sylvester(1)))


def test_paper_d4_reproduces_mub_matrices():
    bs = paper_d4_basis_set()
    for basis, cols in zip(bases_of(bs), (M1_COLS, M2_COLS, M3_COLS)):
        dense = dense_columns(basis)
        for i, col in enumerate(cols):
            want = [INV_SQRT2 * c for c in col]
            assert all(
                cmp_values(got, expect) == 0
                for got, expect in zip(dense[i], want)
            ), (basis.class_index, i)


def test_vector_at_first_and_last():
    bs = paper_d4_basis_set()
    v0 = bases_of(bs)[0].vector(0)
    assert v0 == [(0, INV_SQRT2), (1, INV_SQRT2)]
    vlast = bases_of(bs)[0].vector(3)
    # last row of Y on the last block: (1/sqrt2)(e2 - e3)
    assert vlast[0] == (2, INV_SQRT2)
    assert vlast[1][0] == 3 and cmp_values(vlast[1][1], -INV_SQRT2) == 0


def test_vector_at_out_of_range():
    bs = paper_d4_basis_set()
    with pytest.raises(DomainError):
        bases_of(bs)[0].vector(4)
    with pytest.raises(DomainError):
        bases_of(bs)[0].vector(-1)


def test_support_matches_block():
    r = build_affine_rbd(3, 5)
    y = best_reduction(find_hadamard(4), 1)
    bs = assemble(r, y)
    for basis in bases_of(bs):
        for i in range(bs.d):
            block = basis.block_of_vector(i)
            assert basis.support(i) == tuple(int(p) for p in basis.blocks[block])
            assert [c for c, _ in basis.vector(i)] == list(basis.support(i))


def test_assemble_order_mismatch():
    r = build_affine_rbd(3, 5)
    y = EpsHadamard.from_sign_hadamard(sylvester(1))
    with pytest.raises(DomainError):
        assemble(r, y)


def test_assemble_requires_certified_mu():
    r = Rbd(2, 3)  # mu not certified
    y = EpsHadamard.from_sign_hadamard(sylvester(1))
    with pytest.raises(DomainError):
        assemble(r, y)


def test_sparse_orthonormality():
    r = build_affine_rbd(3, 5)
    y = best_reduction(find_hadamard(4), 1)
    bs = assemble(r, y)
    assert all(sparse_orthonormality_check(b) for b in bases_of(bs))


def test_cross_products_single_entry_products():
    """With mu = 1 every cross inner product is one product of two Y
    entries (or zero): check literally on d = 15."""
    r = build_affine_rbd(3, 5)
    y = best_reduction(find_hadamard(4), 1)
    bs = assemble(r, y)
    y_values = {abs(v) for row in scalar_rows(y) for v in row}
    products = {a * b for a in y_values for b in y_values} | {Fraction(0)}
    for l in range(3):
        for m in range(l + 1, 5):
            for i in range(0, bs.d, 4):
                vi = dict(bases_of(bs)[l].vector(i))
                for j in range(0, bs.d, 3):
                    acc = Fraction(0)
                    shared = 0
                    for coord, val in bases_of(bs)[m].vector(j):
                        if coord in vi:
                            acc = acc + vi[coord] * val
                            shared += 1
                    assert shared <= 1
                    mag = abs(acc) if sign_of(acc) else Fraction(0)
                    assert any(cmp_values(mag, p) == 0 for p in products)


def test_max_cross_product_bound_small():
    # |<u,v>| <= mu * max|Y|^2 = (2/3)^2 on the (3, 5) construction
    r = build_affine_rbd(3, 5)
    y = best_reduction(find_hadamard(4), 1)
    bs = assemble(r, y)
    bound = Fraction(4, 9)
    for i in range(bs.d):
        vi = dict(bases_of(bs)[0].vector(i))
        for j in range(bs.d):
            acc = Fraction(0)
            for coord, val in bases_of(bs)[1].vector(j):
                if coord in vi:
                    acc = acc + vi[coord] * val
            assert cmp_values(abs(acc) if sign_of(acc) else Fraction(0), bound) <= 0


def test_dense_columns_are_unit_vectors():
    bs = paper_d4_basis_set()
    for basis in bases_of(bs):
        for col in dense_columns(basis):
            norm = sum((v * v for v in col), start=Fraction(0))
            assert cmp_values(norm, Fraction(1)) == 0
