"""Real Hadamard matrices: Sylvester, Paley I/II, Kronecker, order search.

A matrix is flagged ``hadamard_verified`` only once H * H^T = order * I is
certified exactly; the flag is enforced, never assumed.  H_2 and every
Paley generator are certified by their integer Gram (``is_hadamard``), a
Kronecker product of verified factors by structure, since
(A (x) B)(A (x) B)^T = A A^T (x) B B^T, so no Gram runs on a product;
``sylvester(m)`` is m such products with H_2.  Constructors return
sign-normalized matrices (first row and first column all +1), which keeps
the certificate and gives the block-selection search a canonical start.
The label of a constructed matrix is its recipe (``from_label``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Optional

import numpy as np

from .algebra import gf_from_order, prime_power_split
from .errors import CertificationError, DomainError, NotConstructibleError, ResourceLimitError

SIZE_BUDGET = 4096  # maximum matrix order


class SignMatrix:
    """A square matrix with entries in {+1, -1}.

    ``hadamard_verified`` is True only once H * H^T = order * I is
    certified exactly: by the Gram check, by the structure of the
    construction, or by the caller that passes ``verified=True``.  The
    entry array is frozen after construction.
    """

    __slots__ = ("order", "rows", "hadamard_verified", "label")

    def __init__(self, rows, label: str = "", verified: bool = False):
        arr = np.array(rows, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.abs(arr) == 1):
            raise DomainError("entries must be +1 or -1")
        arr.setflags(write=False)
        self.order = arr.shape[0]
        self.rows = arr
        self.label = label
        self.hadamard_verified = bool(verified)

    def __eq__(self, other):
        return (
            isinstance(other, SignMatrix)
            and self.order == other.order
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self):
        return hash((self.order, self.rows.tobytes()))

    def __repr__(self):
        tag = self.label or "?"
        return f"SignMatrix(order={self.order}, label={tag!r})"


@dataclass(frozen=True)
class HadamardCheck:
    ok: bool
    order: int
    first_violation: Optional[tuple[int, int, int]]  # (i, j, gram entry)

    def __bool__(self):
        return self.ok


def is_hadamard(m: SignMatrix) -> HadamardCheck:
    """Exact check of H * H^T = order * I; locates the first violation in
    row-major order.  The product runs in float32 BLAS: every partial sum
    is an integer of magnitude at most the order, and float32 holds every
    integer below 2^24 exactly."""
    n = m.order
    assert n < 2**24, f"order {n} is outside the exact float32 range"
    rows = m.rows.astype(np.float32)
    gram = rows @ rows.T
    gram[np.diag_indices(n)] -= n  # H H^T - n I in place, no second n x n array
    bad = gram != 0
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), n)
        return HadamardCheck(False, n, (i, j, int(gram[i, j]) + n * (i == j)))
    return HadamardCheck(True, n, None)


def _verified(rows: np.ndarray, label: str) -> SignMatrix:
    """The generator of these rows, certified by its Gram and normalized."""
    m = SignMatrix(rows, label=label)
    check = is_hadamard(m)
    if not check.ok:
        raise CertificationError(f"generator {label} is not Hadamard at {check.first_violation}")
    return normalize_signs(SignMatrix(m.rows, label=label, verified=True))


def normalize_signs(m: SignMatrix) -> SignMatrix:
    """Flip rows/columns so the first row and column are all +1.

    Row/column negation preserves the Hadamard property, so the flag is
    kept.
    """
    rows = m.rows.astype(np.int8).copy()
    rows *= rows[0:1, :]  # flip columns where first row is -1
    rows *= rows[:, 0:1]  # then rows where first column is -1
    return SignMatrix(rows, label=m.label, verified=m.hadamard_verified)


def _check_budget(order: int):
    if order > SIZE_BUDGET:
        raise ResourceLimitError(f"order {order} exceeds size budget {SIZE_BUDGET}")


def sylvester(doublings: int) -> SignMatrix:
    """H of order 2**doublings by doubling H -> [[H, H], [H, -H]] = H_2 (x) H:
    H_2 is checked by its Gram, each doubling by structure."""
    if doublings < 0:
        raise DomainError("doublings must be >= 0")
    if doublings > SIZE_BUDGET.bit_length():
        raise ResourceLimitError(f"order 2**{doublings} exceeds size budget {SIZE_BUDGET}")
    _check_budget(1 << doublings)
    h2 = _verified(np.array([[1, 1], [1, -1]]), "sylvester(1)").rows
    rows = np.ones((1, 1), dtype=np.int8)
    for _ in range(doublings):
        rows = np.kron(h2, rows)
    return SignMatrix(rows, label=f"sylvester({doublings})", verified=True)


def paley(q: int) -> SignMatrix:
    """Paley construction from quadratic residues of GF(q), q an odd prime power.

    q = 3 mod 4 gives type I of order q+1; q = 1 mod 4 gives type II of
    order 2(q+1).  The order is bounded before q is factored.
    """
    order = q + 1 if q % 4 == 3 else 2 * (q + 1)
    _check_budget(order)
    split = prime_power_split(q)
    if split is None or split[0] == 2:
        raise DomainError(f"{q} is not an odd prime power")
    field = gf_from_order(q)
    codes = np.arange(q, dtype=np.int64)
    # a - b as a + (p-1)*b: the code p - 1 is the field element -1
    diff = field.add_arr(codes[:, None], field.mul_arr(field.p - 1, codes)[None, :])
    chi = np.zeros((q, q), dtype=np.int64)
    nz = diff != 0
    logs = field._log[diff[nz]]
    chi[nz] = np.where(logs % 2 == 0, 1, -1)

    if q % 4 == 3:
        s = np.zeros((order, order), dtype=np.int64)
        s[0, 1:] = 1
        s[1:, 0] = -1
        s[1:, 1:] = chi
        rows = s + np.eye(order, dtype=np.int64)
        return _verified(rows, f"paley1({q})")

    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = 1
    s[1:, 1:] = chi
    plus = np.array([[1, 1], [1, -1]], dtype=np.int64)
    diag = np.array([[1, -1], [-1, -1]], dtype=np.int64)
    rows = np.kron(s, plus)
    for i in range(q + 1):
        rows[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = diag
    return _verified(rows, f"paley2({q})")


def kronecker(h1: SignMatrix, h2: SignMatrix) -> SignMatrix:
    """Kronecker product of two verified Hadamard matrices, certified by
    structure: (A (x) B)(A (x) B)^T = A A^T (x) B B^T."""
    if not (h1.hadamard_verified and h2.hadamard_verified):
        raise DomainError("kronecker requires hadamard-verified operands")
    _check_budget(h1.order * h2.order)
    rows = np.kron(h1.rows, h2.rows)
    return normalize_signs(SignMatrix(rows, label=f"kron({h1.label},{h2.label})", verified=True))


# ---------------------------------------------------------------------------
# Labels as recipes
# ---------------------------------------------------------------------------

_GENERATOR_LABEL = re.compile(r"(sylvester|paley1|paley2)\((0|[1-9][0-9]{0,17})\)")


def _kron_operands(label: str) -> tuple[str, str]:
    """(A, B) of the label kron(A,B), split at its top-level comma."""
    if label.startswith("kron(") and label.endswith(")"):
        depth = 0
        for i, c in enumerate(label[5:-1], start=5):
            depth += (c == "(") - (c == ")")
            if depth < 0:
                break
            if c == "," and depth == 0:
                return label[5:i], label[i + 1:-1]
    raise DomainError(f"unknown Hadamard label {label!r}")


@lru_cache(maxsize=16)
def from_label(label: str) -> SignMatrix:
    """The verified matrix that a label names, built by the constructors:
    ``sylvester(m)``, ``paley1(q)``, ``paley2(q)``, or ``kron(A,B)`` of such
    labels, nested.  The built matrix must carry the label, so ``paley1(5)``
    (of type II) is refused.  A label outside the grammar raises
    DomainError, one past the size budget ResourceLimitError."""
    # a product within the budget has at most log2(SIZE_BUDGET) factors of order >= 2
    if label.count("kron(") >= SIZE_BUDGET.bit_length():
        raise DomainError(f"Hadamard label with {label.count('kron(')} Kronecker products")
    leaf = _GENERATOR_LABEL.fullmatch(label)
    if leaf:
        name, arg = leaf.groups()
        h = sylvester(int(arg)) if name == "sylvester" else paley(int(arg))
    else:
        a, b = _kron_operands(label)
        h = kronecker(from_label(a), from_label(b))
    if h.label != label:
        raise DomainError(f"label {label!r} builds the matrix {h.label!r}")
    return h


# ---------------------------------------------------------------------------
# Order search
# ---------------------------------------------------------------------------

def _generator_labels(limit: int) -> dict[int, str]:
    """Orders reachable by a single generator, mapped to its label.

    Builder preference per order: Sylvester power, then Paley I, then
    Paley II (fixed, for determinism).
    """
    gens: dict[int, str] = {2: "sylvester(1)"}
    power = 4
    while power <= limit:
        gens[power] = f"sylvester({power.bit_length() - 1})"
        power *= 2
    for order in range(4, limit + 1, 4):
        if order in gens:
            continue
        q = order - 1
        split = prime_power_split(q)
        if split and split[0] != 2 and q % 4 == 3:
            gens[order] = f"paley1({q})"
            continue
        q = order // 2 - 1
        split = prime_power_split(q)
        if split and split[0] != 2 and q % 4 == 1:
            gens[order] = f"paley2({q})"
    return gens


def find_hadamard(target_order: int) -> SignMatrix:
    """Search generator factorizations for a verified matrix of the order.

    Dynamic programming over divisors, minimizing the Kronecker factor
    count with deterministic tie-breaking (largest factor first).  The
    matrix is ``from_label`` of the left-nested product's label.  Orders
    where no real Hadamard matrix exists raise DomainError; reachable-in-
    principle orders with no factorization raise NotConstructibleError.
    """
    if target_order < 1:
        raise DomainError("order must be positive")
    if target_order > 2 and target_order % 4 != 0:
        raise DomainError(
            f"no real Hadamard matrix of order {target_order} exists "
            "(order > 2 and not divisible by 4)"
        )
    _check_budget(target_order)
    return from_label(_order_label(target_order))


@cache
def _order_label(target_order: int) -> str:
    """The label ``find_hadamard`` picks for an order, searched once (a raise is not cached)."""
    if target_order == 1:
        return "sylvester(0)"
    gens = _generator_labels(target_order)
    usable = sorted((g for g in gens if target_order % g == 0), reverse=True)

    @cache
    def best(remaining: int) -> tuple[int, ...] | None:
        if remaining == 1:
            return ()
        found = None
        for g in usable:
            if remaining % g:
                continue
            sub = best(remaining // g)
            if sub is not None:
                cand = (g,) + sub
                if found is None or len(cand) < len(found):
                    found = cand
        return found

    factors = best(target_order)
    if factors is None:
        raise NotConstructibleError(target_order, usable)
    label = gens[factors[0]]
    for g in factors[1:]:
        label = f"kron({label},{gens[g]})"
    return label
