"""Reduction of Hadamard matrices to epsilon-Hadamard (orthogonal) matrices.

A Hadamard matrix H of order M = 4n, split as [[U, V], [W, D]] with U of
size t x t (t in {1, 2, 3}), reduces to orthogonal matrices of order M - t:

    Y1 = D^ - W^ (I + U^)^-1 V^        Y2 = D^ + W^ (I - U^)^-1 V^

where hatted blocks carry the 1/sqrt(M) normalization.  Every sign matrix
U satisfies its Cayley-Hamilton relation (``classify_u``), which writes
(alpha*I + U)^-1 as x*I + y*U + z*U^2 whenever det(alpha*I + U) != 0, as
it is for every U with t < sqrt(M).

Representation: both variants read Y = D/sqrt(M) + W C V with the t x t
matrix C of that closed form (``Provenance.method`` "closed-form").
``reduce_split`` writes C = (A + B*sqrt(c))/L with integer t x t matrices
A and B and builds Y from at most three terms (c_r, A_r): (1/sqrt(M), D),
(1/L, W A V) and, unless B = 0, (sqrt(c)/L, W B V).  EpsHadamard takes
any sum of terms with exact scalar coefficients c_r in Q(sqrt(c)) and
integer matrices A_r, and turns them into one exact integer form,
L*Y = P + Q*sqrt(c) with integer P and Q and L the lcm of the coefficient
denominators.  The distinct entries are the distinct (P_ij, Q_ij) pairs,
and Y Y^T = I is the pair of integer identities P P^T + c*Q Q^T = L^2 * I
and P Q^T + Q P^T = 0: at most three k x k products for any number of
terms.  The products run in float64 BLAS only under an asserted bound that
keeps every partial sum an integer below 2^53, where float64 is exact;
inputs outside it take the same formulas on Python ints.

Epsilon is computed from the definition: the maximum over entries of
|sqrt(k)*|Y_ij| - 1|, held exactly as the pair (q, side) with
q = k*Y_ij^2; deviations below 1/sqrt(k) count.  The maximum upward
deviation alone is kept as a separate diagnostic (`epsilon_upper`)
because several reported per-case expressions track only that side.

Split search (`best_reduction`) scores candidates without building them.
For a fixed U (signs applied) and variant, Y_ij = D_ij/sqrt(M) + w_i^T C v_j
with the C that ``reduce_split`` builds from, where w_i is row i of W and
v_j column j of V.  So |Y_ij| = |1/sqrt(M) + (D_ij w_i)^T C v_j| is fixed by
the magnitude index (D_ij w_i, v_j), one of 2^(2t) <= 64, and the indices a
split's entries take fit one 64-bit occurrence mask.  The masks come from
the rows of H held as column bitsets, one AND-NOT per split and row; a
negation of the selected rows or columns permutes the mask's bits by XOR.
The screen computes each index's exact magnitude, epsilon and window check
once per (U, variant) that occurs, from the integer form of C, and ranks
every epsilon exactly on one scale.  A candidate's epsilon is the largest
among the indices in its mask, which is exactly the epsilon its EpsHadamard
would certify, so the screen picks the same split as building every
candidate would; only the winner is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    QuadNum,
    Scalar,
    cmp_values,
    exact_sqrt,
    quad_to_float,
    sign_of,
    sqrt_minus_cmp,
    square_free_split,
)
from .errors import (
    CertificationError,
    DomainError,
    ExactArithmeticError,
    ResourceLimitError,
    StructuralError,
)
from .hadamard import SignMatrix

# ---------------------------------------------------------------------------
# U configurations with published closed forms
# ---------------------------------------------------------------------------

_T2_PREFER_Y2 = (
    ((1, -1), (1, 1)),
    ((1, 1), (-1, 1)),
)  # U^2 = 2U - 2I
_T2_PREFER_Y1 = (
    ((-1, -1), (1, -1)),
    ((-1, 1), (-1, -1)),
)  # U^2 = -2U - 2I
_T3_PREFER_Y1 = (  # U^3 = -U^2 + 4U + 4I
    ((1, 1, 1), (1, -1, 1), (1, 1, -1)),
    ((-1, 1, 1), (1, 1, 1), (1, 1, -1)),
    ((-1, 1, 1), (1, -1, 1), (1, 1, 1)),
    ((-1, -1, 1), (-1, 1, -1), (1, -1, -1)),
    ((1, -1, 1), (-1, -1, -1), (1, -1, -1)),
    ((-1, -1, 1), (-1, -1, -1), (1, -1, 1)),
    ((1, 1, -1), (1, -1, -1), (-1, -1, -1)),
    ((-1, 1, -1), (1, -1, -1), (-1, -1, 1)),
    ((-1, 1, -1), (1, 1, -1), (-1, -1, -1)),
    ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1)),
    ((-1, -1, -1), (-1, 1, 1), (-1, 1, -1)),
    ((1, -1, -1), (-1, -1, 1), (-1, 1, -1)),
)
_T3_PREFER_Y2 = (  # U^3 = U^2 + 4U - 4I
    ((1, -1, 1), (-1, 1, 1), (1, 1, -1)),
    ((1, 1, 1), (1, 1, -1), (1, -1, -1)),
    ((1, 1, -1), (1, 1, 1), (-1, 1, -1)),
    ((1, -1, -1), (-1, 1, -1), (-1, -1, -1)),
    ((1, -1, 1), (-1, -1, 1), (1, 1, 1)),
    ((1, 1, 1), (1, -1, -1), (1, -1, 1)),
    ((1, 1, -1), (1, -1, 1), (-1, 1, 1)),
    ((1, -1, -1), (-1, -1, -1), (-1, -1, 1)),
)

_PAPER_PREFERRED: dict[tuple, str] = {((1,),): "Y1", ((-1,),): "Y2"}
for _u in _T2_PREFER_Y2:
    _PAPER_PREFERRED[_u] = "Y2"
for _u in _T2_PREFER_Y1:
    _PAPER_PREFERRED[_u] = "Y1"
for _u in _T3_PREFER_Y1:
    _PAPER_PREFERRED[_u] = "Y1"
for _u in _T3_PREFER_Y2:
    _PAPER_PREFERRED[_u] = "Y2"


def paper_listed_configs(t: int) -> tuple[tuple, ...]:
    """The published U configurations of size t, in paper order."""
    if t == 1:
        return (((1,),), ((-1,),))
    if t == 2:
        return _T2_PREFER_Y2 + _T2_PREFER_Y1
    if t == 3:
        return _T3_PREFER_Y1 + _T3_PREFER_Y2
    raise DomainError(f"t must be in {{1,2,3}}, got {t}")


@dataclass(frozen=True)
class UClass:
    """Polynomial relation satisfied by a sign matrix U.

    For t <= 2 the relation is U^2 = kappa*I + gamma*U; for t = 3 it is
    U^3 = kappa*I + gamma*U + vartheta*U^2.  ``preferred_variant`` is set
    for the published configurations (the variant reported closest to a
    Hadamard matrix).  The relation holds for every sign matrix, listed
    or not, and gives the closed-form inverse of every U.
    """

    t: int
    kappa: int
    gamma: int
    vartheta: Optional[int]
    paper_listed: bool
    preferred_variant: Optional[str]

    def relation_holds(self, u: np.ndarray) -> bool:
        u = np.asarray(u, dtype=np.int64)
        eye = np.eye(self.t, dtype=np.int64)
        if self.t <= 2:
            return bool(np.array_equal(u @ u, self.kappa * eye + self.gamma * u))
        u2 = u @ u
        return bool(
            np.array_equal(u2 @ u, self.kappa * eye + self.gamma * u + self.vartheta * u2)
        )


def _int_det(u: np.ndarray) -> int:
    t = u.shape[0]
    if t == 1:
        return int(u[0, 0])
    if t == 2:
        return int(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0])
    return int(
        u[0, 0] * (u[1, 1] * u[2, 2] - u[1, 2] * u[2, 1])
        - u[0, 1] * (u[1, 0] * u[2, 2] - u[1, 2] * u[2, 0])
        + u[0, 2] * (u[1, 0] * u[2, 1] - u[1, 1] * u[2, 0])
    )


def classify_u(u) -> UClass:
    """Compute and verify the polynomial relation of a t x t sign matrix.

    t = 1 uses the linear identity U^2 = U[0,0] * U; t = 2 uses trace and
    determinant; t = 3 uses trace, the sum of the off-diagonal 2x2 minor
    complements, and the determinant.
    """
    u = np.asarray(u, dtype=np.int64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"U must be square, got shape {u.shape}")
    t = u.shape[0]
    if t not in (1, 2, 3):
        raise DomainError(f"t must be in {{1,2,3}}, got {t}")
    if not np.all(np.abs(u) == 1):
        raise DomainError("U entries must be +1 or -1")
    if t == 1:
        kappa, gamma, vartheta = 0, int(u[0, 0]), None
    elif t == 2:
        kappa, gamma, vartheta = -_int_det(u), int(np.trace(u)), None
    else:
        vartheta = int(np.trace(u))
        gamma = int(
            sum(
                u[i, j] * u[j, i] - u[i, i] * u[j, j]
                for i in range(3)
                for j in range(i + 1, 3)
            )
        )
        kappa = _int_det(u)
    key = tuple(tuple(int(x) for x in row) for row in u)
    preferred = _PAPER_PREFERRED.get(key)
    cls = UClass(
        t=t,
        kappa=kappa,
        gamma=gamma,
        vartheta=vartheta,
        paper_listed=preferred is not None,
        preferred_variant=preferred,
    )
    assert cls.relation_holds(u), "Cayley-Hamilton relation must hold"
    return cls


# ---------------------------------------------------------------------------
# Exact epsilon
# ---------------------------------------------------------------------------

class ExactEps:
    """epsilon = |sqrt(q) - 1| held exactly, q = k * Y_ij^2 at the extremum.

    ``side`` is the sign of sqrt(q) - 1 (equivalently of q - 1): +1 for an
    upward deviation, -1 downward, 0 for an exact Hadamard entry.  All
    comparisons are exact; at most one square root is nested, so mixed-side
    comparisons reduce to a single extra squaring.
    """

    __slots__ = ("q", "side", "location")

    def __init__(self, q: Scalar, location=None):
        if sign_of(q) < 0:
            raise DomainError("k*Y^2 cannot be negative")
        self.q = q if not isinstance(q, int) else Fraction(q)
        self.side = sign_of(self.q - 1)
        self.location = location

    @classmethod
    def zero(cls) -> "ExactEps":
        return cls(Fraction(1))

    def is_zero(self) -> bool:
        return self.side == 0

    def cmp(self, other: "ExactEps") -> int:
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

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __eq__(self, other):
        return isinstance(other, ExactEps) and self.cmp(other) == 0

    def __float__(self):
        return abs(math.sqrt(quad_to_float(self.q, 70)) - 1.0)

    def expr(self) -> str:
        return f"|sqrt({self.q}) - 1|"

    def __repr__(self):
        return f"ExactEps({float(self):.6g}, side={self.side})"


def _entry_eps(k: int, value: Scalar, location) -> ExactEps:
    return ExactEps(k * value * value, location=location)


# ---------------------------------------------------------------------------
# Block splits
# ---------------------------------------------------------------------------

def _as_index_tuple(idx, order: int, t: int, name: str) -> tuple[int, ...]:
    out = tuple(int(i) for i in idx)
    if len(out) != t:
        raise DomainError(f"{name} must select {t} indices")
    if any(not 0 <= i < order for i in out):
        raise DomainError(f"{name} out of range for order {order}")
    if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
        raise DomainError(f"{name} must be strictly increasing")
    return out


class BlockSplit:
    """Index-set selection of the [[U, V], [W, D]] partition of a Hadamard
    matrix, with optional lazy sign toggles on the selected rows/columns.

    Negating a selected full row of H flips the corresponding rows of U
    and V; negating a selected column flips columns of U and W.  D is
    never touched, and each toggle preserves the Hadamard property.
    """

    __slots__ = ("source", "t", "row_select", "col_select", "row_negate", "col_negate")

    def __init__(self, source: SignMatrix, row_select, col_select,
                 row_negate=None, col_negate=None):
        if not source.hadamard_verified:
            raise DomainError("split source must be hadamard-verified")
        t = len(tuple(row_select))
        if t not in (1, 2, 3):
            raise DomainError(f"t must be in {{1,2,3}}, got {t}")
        self.source = source
        self.t = t
        self.row_select = _as_index_tuple(row_select, source.order, t, "row_select")
        self.col_select = _as_index_tuple(col_select, source.order, t, "col_select")
        self.row_negate = tuple(bool(b) for b in (row_negate or (False,) * t))
        self.col_negate = tuple(bool(b) for b in (col_negate or (False,) * t))
        if len(self.row_negate) != t or len(self.col_negate) != t:
            raise DomainError("negation masks must have length t")

    def _signs(self, mask) -> np.ndarray:
        return np.array([-1 if b else 1 for b in mask], dtype=np.int64)

    def _complement(self, selected) -> np.ndarray:
        keep = np.ones(self.source.order, dtype=bool)
        keep[list(selected)] = False
        return np.flatnonzero(keep)

    def u_matrix(self) -> np.ndarray:
        h = self.source.rows.astype(np.int64)
        u = h[np.ix_(self.row_select, self.col_select)]
        return u * self._signs(self.row_negate)[:, None] * self._signs(self.col_negate)[None, :]

    def v_matrix(self) -> np.ndarray:
        h = self.source.rows.astype(np.int64)
        v = h[np.ix_(self.row_select, self._complement(self.col_select))]
        return v * self._signs(self.row_negate)[:, None]

    def w_matrix(self) -> np.ndarray:
        h = self.source.rows.astype(np.int64)
        w = h[np.ix_(self._complement(self.row_select), self.col_select)]
        return w * self._signs(self.col_negate)[None, :]

    def d_matrix(self) -> np.ndarray:
        h = self.source.rows.astype(np.int64)
        return h[np.ix_(self._complement(self.row_select), self._complement(self.col_select))]

    def __repr__(self):
        negate = (f", row_negate={self.row_negate}, col_negate={self.col_negate}"
                  if any(self.row_negate + self.col_negate) else "")
        return (
            f"BlockSplit({self.source!r}, rows={self.row_select}, "
            f"cols={self.col_select}{negate})"
        )


def corner_split(source: SignMatrix, t: int) -> BlockSplit:
    """U = leading t x t block, no negations."""
    return BlockSplit(source, tuple(range(t)), tuple(range(t)))


@dataclass(frozen=True)
class Provenance:
    source_label: str
    source_order: int
    t: int
    row_select: tuple[int, ...]
    col_select: tuple[int, ...]
    row_negate: tuple[bool, ...]
    col_negate: tuple[bool, ...]
    variant: Optional[str]
    method: str  # "closed-form" for a reduction; "exact-hadamard" for H/sqrt(k)
    uclass: Optional[UClass] = None


# ---------------------------------------------------------------------------
# EpsHadamard
# ---------------------------------------------------------------------------

class EpsHadamard:
    """An exactly-orthogonal matrix of order k with certified epsilon.

    Given as a sum of terms (c_r, A_r): exact scalar coefficients c_r in
    Q(sqrt(c)), c the square-free core of the radicand (c = 1 and plain
    rationals when the radicand is a perfect square), and integer matrices
    A_r.  Construction turns the terms into one exact integer form: with
    c_r = a_r + b_r*sqrt(c) and L the lcm of every denominator of the a_r
    and b_r,

        L*Y = P + Q*sqrt(c),   P = sum_r (L*a_r)*A_r,   Q = sum_r (L*b_r)*A_r,

    with P and Q integer matrices (Q is None when every c_r is rational).
    The entry scan, the window check and the orthogonality check all read
    P and Q, so their cost does not grow with the number of terms.  All
    three run at construction, so every EpsHadamard is certified; epsilon
    < 1 is recorded rather than enforced, since it is only guaranteed for
    t < sqrt(n).

    ``source`` is the Hadamard matrix Y was derived from, None for a Y
    given by its terms alone.
    """

    __slots__ = (
        "order",
        "radicand",
        "terms",
        "provenance",
        "source",
        "epsilon",
        "epsilon_upper",
        "window_ok",
        "is_eps_hadamard",
        "_scale",
        "_core",
        "_p",
        "_q",
        "_mags",
        "_combo_abs",
        "_entry_combo_ids",
        "_combo_values",
    )

    def __init__(self, order, radicand, terms, provenance,
                 source: Optional[SignMatrix] = None):
        self.order = int(order)
        self.radicand = int(radicand)
        self.terms = tuple((c, _frozen(m)) for c, m in terms)
        self.provenance = provenance
        self.source = source
        self._scale, self._core, self._p, self._q = _integer_form(self.terms)
        self._scan_entries()
        self._certify_window()
        self.verify_orthogonal()

    # -- construction helpers ----------------------------------------------

    def _scan_entries(self):
        """Distinct entries, their magnitudes and epsilon, from the distinct
        (P_ij, Q_ij) pairs: the entry is (P_ij + Q_ij*sqrt(c)) / L."""
        k, scale, core = self.order, self._scale, self._core
        pairs, self._entry_combo_ids = _distinct_pairs(self._p, self._q)
        self._combo_values = [
            QuadNum(Fraction(p, scale), Fraction(q, scale), core) if q
            else Fraction(p, scale)
            for p, q in pairs
        ]
        # distinct absolute values, ascending, with epsilon and window verdict
        self._combo_abs, self._mags = _magnitudes(
            [(p, q, scale) for p, q in pairs], core, k,
            _window(self.provenance.t, self.radicand))
        group_eps = [eps for _, eps, _ in self._mags]
        top = ExactEps.zero()
        for cand in group_eps:
            if top.cmp(cand) < 0:
                top = cand
        eps = ExactEps.zero()
        if not top.is_zero():
            # located at the first entry, in row-major order, attaining it;
            # two magnitudes can tie (one on each side), so q is that entry's
            abs_ids, _ = self.abs_value_ids()
            hits = [gi for gi, cand in enumerate(group_eps) if cand.cmp(top) == 0]
            first = divmod(int(np.argmax(np.isin(abs_ids, hits))), k)
            eps = ExactEps(group_eps[abs_ids[first]].q, location=first)
        self.epsilon = eps
        # largest upward deviation alone (0 if no entry exceeds 1/sqrt(k))
        up = ExactEps.zero()
        for cand in group_eps:
            if cand.side > 0 and up.cmp(cand) < 0:
                up = cand
        self.epsilon_upper = up
        self.is_eps_hadamard = self.epsilon.lt_bound(Fraction(1))

    def verify_orthogonal(self):
        """Exact check of Y Y^T = I on the integer form L*Y = P + Q*sqrt(c).

        Y Y^T = I holds exactly when P P^T + c*Q Q^T = L^2 * I and
        P Q^T + Q P^T = 0: one k x k product when Q is None, three
        otherwise, whatever the number of terms.  Y is square, so
        Y Y^T = I makes Y^T the inverse of Y, and Y^T Y = I follows.

        The products run in float64 BLAS only when
        k*(max|P|^2 + c*max|Q|^2) < 2^53 and L^2 < 2^53.  Every entry of
        P, Q and L^2 * I is then an integer below 2^53, and so is every
        partial sum of every product and of the combinations above: a
        partial sum of P P^T is at most k*max|P|^2, one of c*Q Q^T at most
        c*k*max|Q|^2, and one of P Q^T + Q P^T at most
        2k*max|P|*max|Q| <= k*(max|P|^2 + max|Q|^2).  Integers below 2^53
        are exact in float64, so the result is exact in any summation
        order.  Otherwise the same formulas run on Python ints.
        """
        found = _gram_violation(self._scale, self._core, self._p, self._q)
        if found is not None:
            (i, j), got = found
            raise CertificationError(
                f"orthogonality violated at {(i, j)}: "
                f"got {got}, expected {int(i == j)}"
            )

    def _certify_window(self):
        """Entry magnitudes must lie in the closed interval of the reduction
        theorem whenever 1 <= t and t < sqrt(M)."""
        self.window_ok = True
        for av, _, outside in self._mags:
            if outside:
                self.window_ok = False
                lo, hi = _window(self.provenance.t, self.radicand)
                raise CertificationError(
                    f"entry magnitude {av} outside window [{lo}, {hi}]"
                )

    # -- accessors -----------------------------------------------------------

    def entry(self, i: int, j: int) -> Scalar:
        return self._combo_values[int(self._entry_combo_ids[i, j])]

    def scalar_rows(self) -> list[list[Scalar]]:
        k = self.order
        return [[self.entry(i, j) for j in range(k)] for i in range(k)]

    def distinct_abs_values(self) -> list[Scalar]:
        """Distinct entry magnitudes, ascending."""
        return [av for av, _, _ in self._mags]

    def max_abs_entry(self) -> Scalar:
        return self._mags[-1][0]

    def abs_value_ids(self) -> tuple[np.ndarray, list[Scalar]]:
        """(ids, values): ids[i, j] indexes the magnitude of Y_ij in values."""
        return self._combo_abs[self._entry_combo_ids], self.distinct_abs_values()

    @property
    def variant(self) -> Optional[str]:
        return self.provenance.variant

    def __repr__(self):
        return (
            f"EpsHadamard(k={self.order}, m={self.radicand}, "
            f"eps~{float(self.epsilon):.4f}, via={self.provenance.method})"
        )

    # -- alternative constructors -------------------------------------------

    @classmethod
    def from_sign_hadamard(cls, h: SignMatrix) -> "EpsHadamard":
        """Exact Y = H / sqrt(k) for a verified Hadamard matrix (epsilon = 0)."""
        if not h.hadamard_verified:
            raise DomainError("matrix is not hadamard-verified")
        k = h.order
        coeff = 1 / exact_sqrt(k) if k > 1 else Fraction(1)
        prov = Provenance(
            source_label=h.label,
            source_order=k,
            t=0,
            row_select=(),
            col_select=(),
            row_negate=(),
            col_negate=(),
            variant=None,
            method="exact-hadamard",
        )
        return cls(k, k, [(coeff, h.rows.astype(np.int64))], prov, source=h)


def _integer_form(terms) -> tuple[int, int, np.ndarray, Optional[np.ndarray]]:
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


def _int_combination(weights: Sequence[int], mats: Sequence[np.ndarray]) -> np.ndarray:
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


def _abs_max(a: Optional[np.ndarray]) -> int:
    return 0 if a is None else int(np.abs(a).max())


def _float_exact(k: int, scale: int, core: int, p: np.ndarray,
                 q: Optional[np.ndarray]) -> bool:
    """Whether float64 products of the integer form are provably exact:
    k*(max|P|^2 + c*max|Q|^2) < 2^53 and L^2 < 2^53 (see
    EpsHadamard.verify_orthogonal)."""
    pmax, qmax = _abs_max(p), _abs_max(q)
    return k * (pmax * pmax + core * qmax * qmax) < 2**53 and scale * scale < 2**53


def _gram_violation(scale: int, core: int, p: np.ndarray, q: Optional[np.ndarray]):
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


def _distinct_pairs(p: np.ndarray, q: Optional[np.ndarray]) -> tuple[list, np.ndarray]:
    """(pairs, ids): the distinct (P_ij, Q_ij) as pairs of Python ints, and
    the k x k array of the index of each entry's pair (Q_ij = 0 when Q is
    None)."""
    if q is None:
        q = np.zeros_like(p)
    if p.dtype != object and q.dtype != object:
        plo, qlo = int(p.min()), int(q.min())
        span = int(q.max()) - qlo + 1
        if (int(p.max()) - plo + 1) * span < 2**63:
            # one 1-D int64 code per entry
            codes, ids = np.unique((p - plo) * span + (q - qlo), return_inverse=True)
            pairs = [divmod(int(x), span) for x in codes]
            return [(a + plo, b + qlo) for a, b in pairs], ids.reshape(p.shape)
    index: dict = {}
    ids = np.array(
        [index.setdefault((int(a), int(b)), len(index)) for a, b in zip(p.flat, q.flat)],
        dtype=np.int64,
    )
    return list(index), ids.reshape(p.shape)


def _quad_sign(p: int, q: int, core: int) -> int:
    """Exact sign of p + q*sqrt(c) for integers p, q and squarefree c."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    # opposite signs; p^2 == c*q^2 is impossible for q != 0 and c squarefree
    return sp if p * p > core * q * q else sq


def _magnitudes(values, core: int, k: int, window) -> tuple[np.ndarray, list]:
    """(ids, mags) for exact values (p + q*sqrt(c))/L given as integer
    triples (p, q, L): mags lists the distinct |value|, ascending, each as
    (magnitude, epsilon in order k, outside ``window``), and ids[i] indexes
    the magnitude of values[i].  The one route from an entry value to its
    epsilon and window verdict, for built matrices and the split screen."""
    index: dict = {}
    ids = []
    for p, q, scale in values:
        if _quad_sign(p, q, core) < 0:
            p, q = -p, -q
        g = math.gcd(p, q, scale)
        ids.append(index.setdefault((p // g, q // g, scale // g), len(index)))
    keys = sorted(index, key=functools.cmp_to_key(lambda x, y: _quad_sign(
        x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], core)))
    mags = []
    for p, q, scale in keys:
        av = QuadNum(Fraction(p, scale), Fraction(q, scale), core) if q else Fraction(p, scale)
        outside = window is not None and (
            cmp_values(av, window[0]) < 0 or cmp_values(av, window[1]) > 0)
        mags.append((av, _entry_eps(k, av, None), outside))
    order = np.empty(len(keys), dtype=np.int64)
    order[[index[key] for key in keys]] = np.arange(len(keys))
    return order[np.array(ids, dtype=np.int64)], mags


@functools.lru_cache(maxsize=64)
def _window(t: int, m: int) -> Optional[tuple[Scalar, Scalar]]:
    """Closed interval of the reduction theorem for the entry magnitudes of
    a reduction of order m by t, or None where it does not apply."""
    if t < 1 or t * t >= m:
        return None
    sqrt_m = exact_sqrt(m)
    return (
        (1 - Fraction(t) / (sqrt_m - t)) / sqrt_m,
        (1 + Fraction(t) / (sqrt_m - t)) / sqrt_m,
    )


def _frozen(m) -> np.ndarray:
    """A read-only copy in int64, or of Python ints when given those."""
    m = np.asarray(m)
    arr = m.astype(object if m.dtype == object else np.int64)
    arr.setflags(write=False)
    return arr


def _scalar_key(v: Scalar):
    if isinstance(v, QuadNum):
        if v.b == 0:
            return (v.a.numerator, v.a.denominator)
        return (v.a.numerator, v.a.denominator, v.b.numerator, v.b.denominator, v.m)
    f = Fraction(v)
    return (f.numerator, f.denominator)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _poly_inverse_coeffs(kappa: int, gamma: int, vartheta: Optional[int],
                         alpha: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Coefficients (x, y, z) with (alpha*I + U)^-1 = x*I + y*U + z*U^2,
    given the relation of U; returns (x, y, z, denominator)."""
    if vartheta is None:
        den = alpha * alpha + gamma * alpha - kappa
        if sign_of(den) == 0:
            raise ExactArithmeticError("vanishing denominator in closed form")
        return (alpha + gamma) / den, -1 / den, Fraction(0), den
    den = alpha * alpha * alpha + vartheta * alpha * alpha - gamma * alpha + kappa
    if sign_of(den) == 0:
        raise ExactArithmeticError("vanishing denominator in closed form")
    z = 1 / den
    y = -(alpha + vartheta) / den
    x = (alpha * (alpha + vartheta) - gamma) / den
    return x, y, z, den


def _negated_params(uclass: UClass) -> tuple[int, int, Optional[int]]:
    """Relation parameters of -U given those of U."""
    if uclass.vartheta is None:
        return uclass.kappa, -uclass.gamma, None
    return -uclass.kappa, uclass.gamma, -uclass.vartheta


def _closed_form_coeffs(u: np.ndarray, uclass: UClass, variant: str,
                       m: int) -> list[tuple[Scalar, np.ndarray]]:
    """[(c_p, U_eff^p)] for p = 0, 1, 2 with C = sum_p c_p U_eff^p, the
    polynomial-in-U inverse that the relation of U gives (the published
    closed form for a listed U), where U_eff = U for Y1 and -U for Y2."""
    alpha = exact_sqrt(m)
    if variant == "Y1":
        kappa, gamma, vartheta = uclass.kappa, uclass.gamma, uclass.vartheta
        outer_sign, u_eff = -1, u
    else:
        kappa, gamma, vartheta = _negated_params(uclass)
        outer_sign, u_eff = 1, -u
    x, y, z, _den = _poly_inverse_coeffs(kappa, gamma, vartheta, alpha)
    powers = (np.eye(u.shape[0], dtype=np.int64), u_eff, u_eff @ u_eff)
    return [(outer_sign * c / alpha, p) for c, p in zip((x, y, z), powers)]


def _coefficient_matrix(u: np.ndarray, uclass: UClass, variant: str,
                        m: int) -> list[list[Scalar]]:
    """The t x t matrix C with Y = D/sqrt(M) + W C V, entry by entry from
    the closed form of ``_closed_form_coeffs``."""
    t = u.shape[0]
    coeffs = _closed_form_coeffs(u, uclass, variant, m)
    return [
        [sum((c * int(p[a, b]) for c, p in coeffs), Fraction(0)) for b in range(t)]
        for a in range(t)
    ]


def _wxv(w: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W X V exactly for sign matrices W, V and an integer t x t matrix X:
    in int64 when t^2 * max|X| < 2^63 bounds every partial sum, on Python
    ints (an object array) otherwise."""
    dtype = np.int64 if x.shape[0] ** 2 * _abs_max(x) < 2**63 else object
    return w.astype(dtype) @ x.astype(dtype) @ v.astype(dtype)


def reduce_split(split: BlockSplit, variant: str) -> EpsHadamard:
    """Y1 or Y2 of a split, built as Y = D/sqrt(M) + W C V.

    C is the closed form of (I +/- U/sqrt(M))^-1 from the Cayley-Hamilton
    relation of U, for every U; ``Provenance.method`` reads "closed-form".
    The inverse exists for every U with t < sqrt(M), by diagonal
    dominance.  Writing C = (A + B*sqrt(c))/L with integer t x t matrices
    A and B, Y is the sum of the terms (1/sqrt(M), D), (1/L, W A V) and,
    when B != 0, (sqrt(c)/L, W B V).
    """
    m, t = split.source.order, split.t
    if t * t >= m:
        raise DomainError(f"t={t} must satisfy t < sqrt(order) for order {m}")
    if variant not in ("Y1", "Y2"):
        raise DomainError(f"variant must be Y1 or Y2, got {variant!r}")
    u = split.u_matrix()
    uclass = classify_u(u)
    coeffs = _coefficient_matrix(u, uclass, variant, m)
    # (L, c, A, B) is the integer form of C as a sum of t x t unit matrices
    units = np.eye(t * t, dtype=np.int64).reshape(t * t, t, t)
    scale, core, a, b = _integer_form(list(zip(itertools.chain(*coeffs), units)))
    w, v = split.w_matrix(), split.v_matrix()
    terms = [(1 / exact_sqrt(m), split.d_matrix()), (Fraction(1, scale), _wxv(w, a, v))]
    if b is not None:
        terms.append((QuadNum(0, Fraction(1, scale), core), _wxv(w, b, v)))
    prov = Provenance(
        source_label=split.source.label,
        source_order=m,
        t=t,
        row_select=split.row_select,
        col_select=split.col_select,
        row_negate=split.row_negate,
        col_negate=split.col_negate,
        variant=variant,
        method="closed-form",
        uclass=uclass,
    )
    return EpsHadamard(m - t, m, terms, prov, source=split.source)


# ---------------------------------------------------------------------------
# Search over splits: the exact epsilon screen
# ---------------------------------------------------------------------------

SEARCH_SCOPES = ("corner-only", "row-col-permutations", "permutations-and-negations")
_VARIANTS = ("Y2", "Y1")  # evaluation order of the two variants of a split
_SCREEN_BUDGET = 1 << 16  # elements per working array of the screen


def _scope_size(order: int, t: int, scope: str) -> int:
    if scope == "corner-only":
        return 1
    pairs = math.comb(order, t) ** 2
    if scope == "permutations-and-negations":
        pairs *= 4**t
    return pairs


def _scope_axes(order: int, t: int, scope: str):
    """(index selections as an (n, t) array, negation masks), each in search
    order; rows and columns share the selections.  Bit a of a mask negates
    selected row/column a."""
    if scope == "corner-only":
        selections = [tuple(range(t))]
    else:
        selections = list(itertools.combinations(range(order), t))
    if scope == "permutations-and-negations":
        masks = [
            sum(int(b) << a for a, b in enumerate(neg))
            for neg in itertools.product((False, True), repeat=t)
        ]
    else:
        masks = [0]
    return np.array(selections, dtype=np.intp), masks


def _mask_tuple(mask: int, t: int) -> tuple[bool, ...]:
    return tuple(bool(mask >> a & 1) for a in range(t))


def _bitsets(cells: np.ndarray) -> np.ndarray:
    """Bitsets over the last axis of a boolean array, as words of the
    smallest unsigned type that holds M bits, or ceil(M/64) uint64 words;
    only used through AND, AND-NOT and tests for zero."""
    packed = np.packbits(cells, axis=-1, bitorder="little")
    size = packed.shape[-1]
    word = 8 if size > 4 else 1 << (size - 1).bit_length()
    out = np.zeros(packed.shape[:-1] + (-(-size // word) * word,), dtype=np.uint8)
    out[..., :size] = packed
    return out.view(f"u{word}")


def _xor_permuted(masks: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """(n, len(flips)) uint64: bit b of out[:, f] is bit b ^ flips[f] of
    masks, built by one delta swap per bit of the flips."""
    out = masks[:, None]
    for j in range(int(flips.max()).bit_length()):
        step = 1 << j  # low: the bits b with bit j of b clear
        low = np.uint64((2**64 - 1) // (2 ** (2 * step) - 1) * (2**step - 1))
        out = np.concatenate([out, (out & low) << step | (out >> step) & low], axis=1)
    return out[:, flips]


def _occurrence(signs: np.ndarray, t: int, sel: np.ndarray,
                bases: int) -> tuple[np.ndarray, np.ndarray]:
    """(occ, u) of the first ``bases`` bases (rows sel[b // n], columns
    sel[b % n]) of the sign matrix ``signs``, no negations applied: bit
    (w' << t) | v of occ[b] is set when an entry has that magnitude index,
    and bit a*t+b of u[b] when U_ab = -1.

    For rows R, a[i, d, v] holds the columns where row i of H has sign d
    and v_j = v; one AND-NOT with the bitset of columns C leaves the
    (d, v) that row i takes, at index w' = w_i(C) xor d*(2^t - 1).
    Bases are batched in search order across row selections.
    """
    m, span = len(signs), 1 << t
    bits = (signs < 0).astype(np.uint8)  # bits[i, j]: H_ij = -1
    halves = _bitsets(np.stack([bits == 0, bits == 1], axis=1))  # (i, d, word)
    drop = np.bitwise_or.reduce(_bitsets(np.eye(m, dtype=bool))[sel], axis=1)
    u_weights = (1 << np.arange(t * t)).reshape(t, t)
    chunk = max(1, _SCREEN_BUDGET // (m * 2 * span))
    occ = np.empty(bases, dtype=np.uint64)
    u = np.empty(bases, dtype=np.int16)
    for start in range(0, bases, chunk):
        base = np.arange(start, min(start + chunk, bases))
        n = len(base)
        r, c = np.divmod(base, len(sel))
        rsel, r = np.unique(r, return_inverse=True)
        rows, cols = sel[rsel], sel[c]
        v = sum(bits[rows[:, a]] << a for a in range(t))  # (rows, j)
        groups = _bitsets(v[:, None, :] == np.arange(span)[:, None])  # (rows, v, word)
        a = halves[None, :, :, None] & groups[:, None, None]  # (rows, i, d, v, word)
        a[np.arange(len(rows))[:, None], rows] = 0  # rows of U and V hold no entry
        a = np.moveaxis(a, -1, 0).reshape(a.shape[-1], len(rows), -1)
        for word, (part, gone) in enumerate(zip(a, drop[c].T)):
            x = part[r]
            x &= ~gone[:, None]
            live = x != 0 if word == 0 else live | (x != 0)
        # the span-bit field of surviving v of each (base, i, d), in order
        packed = np.packbits(live, bitorder="little")[:, None]
        seen = (packed >> np.arange(0, 8, span, dtype=np.uint8)) & (2**span - 1)
        w = sum(bits[:, cols[:, b]].T << b for b in range(t))  # (base, i)
        shift = np.stack([w, w ^ (span - 1)], axis=-1) << t
        occ[base] = np.bitwise_or.reduce(
            seen.reshape(n, -1).astype(np.uint64) << shift.reshape(n, -1), axis=1)
        u[base] = np.einsum("nab,ab->n", bits[rows[r][:, :, None], cols[:, None, :]],
                            u_weights)
    return occ, u


class _EpsScreen:
    """Exact epsilon and window check of every magnitude index (w' << t) | v,
    bit a of w' (of v) set when D_ij W_ia (V_aj) is -1, for each U that
    occurs and each variant, ranked on one global scale.

    [[1/sqrt(M), 0], [0, C]] is written as (A + B*sqrt(c))/L, as
    ``reduce_split`` writes C; with S the rows (1, s_x) for every sign
    vector s_x, S A S^T and S B S^T give every index's value exactly.
    ``eps[r]`` is the epsilon of rank r (equal epsilons share a rank), and
    ``sentinel`` ranks a magnitude outside the reduction window.
    ``levels[lut[u], vi]`` lists the ranks of U code u and variant index vi
    in descending order, ``level_masks`` the indices of each.
    """

    def __init__(self, u_codes: np.ndarray, t: int, m: int):
        self.window = _window(t, m)
        self.lut = np.full(1 << (t * t), -1, dtype=np.intp)
        self.lut[u_codes] = np.arange(len(u_codes))
        signs = np.array([[1] + [-1 if x >> a & 1 else 1 for a in range(t)]
                          for x in range(1 << t)], dtype=np.int64)
        units = np.eye((t + 1) ** 2, dtype=np.int64).reshape(-1, t + 1, t + 1)
        corner = (1 / exact_sqrt(m), units[0])
        index: dict = {}  # (p, q, L) -> position in ``index``
        value_ids = []  # per (u, variant), magnitude index order
        known: dict = {}  # C(-U, Y1) = -C(U, Y2) and C(-U, Y2) = -C(U, Y1)
        for uc in u_codes.tolist():
            u = np.array([[-1 if uc >> (a * t + b) & 1 else 1 for b in range(t)]
                          for a in range(t)], dtype=np.int64)
            uclass = classify_u(u)
            for vi, variant in enumerate(_VARIANTS):
                mirror = known.get((uc ^ (1 << t * t) - 1, 1 - vi))
                c = known[uc, vi] = (_coefficient_matrix(u, uclass, variant, m) if mirror is None
                                     else [[-x for x in row] for row in mirror])
                scale, _, pa, pb = _integer_form([corner] + [
                    (c[a][b], units[(a + 1) * (t + 1) + b + 1]) for a in range(t) for b in range(t)])
                ps = _wxv(signs, pa, signs.T).ravel().tolist()
                qs = [0] * len(ps) if pb is None else _wxv(signs, pb, signs.T).ravel().tolist()
                value_ids.append([index.setdefault((p, q, scale), len(index))
                                  for p, q in zip(ps, qs)])
        mag_of_value, self.mags = _magnitudes(
            list(index), square_free_split(m)[1], m - t, self.window)
        self.mag_ids = mag_of_value[np.array(value_ids)].reshape(len(u_codes), 2, -1)
        # one exact global order; equal epsilons (cmp == 0) share a rank
        order = sorted(range(len(self.mags)), key=functools.cmp_to_key(
            lambda x, y: self.mags[x][1].cmp(self.mags[y][1])))
        rank_of = np.empty(len(self.mags), dtype=np.int64)
        self.eps: list[ExactEps] = []
        for mi in order:
            eps = self.mags[mi][1]
            if not self.eps or self.eps[-1].cmp(eps) != 0:
                self.eps.append(eps)
            rank_of[mi] = len(self.eps) - 1
        self.sentinel = len(self.eps)
        rank_of[np.array([outside for _, _, outside in self.mags])] = self.sentinel
        ranks = rank_of[self.mag_ids]  # (u, variant, magnitude index)
        # per (u, variant): distinct ranks descending, and their bits
        bit = np.argsort(-ranks, axis=-1, kind="stable")
        desc = np.take_along_axis(ranks, bit, axis=-1)
        level = np.cumsum(np.diff(desc, prepend=desc[..., :1] + 1) != 0, axis=-1) - 1
        at = (*np.indices(level.shape)[:2], level)
        self.levels = np.zeros(level.shape[:2] + (int(level.max()) + 1,), dtype=np.int64)
        self.levels[at] = desc
        self.level_masks = np.zeros(self.levels.shape, dtype=np.uint64)
        np.bitwise_or.at(self.level_masks, at, np.uint64(1) << bit.astype(np.uint64))

    def ranks(self, occ: np.ndarray, ui: np.ndarray) -> np.ndarray:
        """Candidate ranks (..., variant) from occurrence masks (...) and
        table indices of U (...), negations applied to both."""
        masks = self.level_masks[ui]
        masks &= occ[..., None, None]
        return self.levels[ui[..., None], [0, 1], (masks != 0).argmax(-1)]

    def violation(self, occ: int, ui: int, vi: int) -> Scalar:
        """The smallest out-of-window magnitude among the occurring indices."""
        ids = [int(mi) for b, mi in enumerate(self.mag_ids[ui, vi])
               if occ >> b & 1 and self.mags[mi][2]]
        return self.mags[min(ids)][0]


class _SplitScreen:
    """The first ``cap`` splits of a scope, each with one 64-bit occurrence
    mask, and the exact epsilon rank of each of their candidates.

    Splits are (rows, cols, negation pair) in search order; base b =
    (rows, cols) is row selection b // n, column selection b % n.  Candidate
    i is split i // 2 with variant _VARIANTS[i % 2], and split s is base
    s // nneg2 with negation pair s % nneg2.
    """

    def __init__(self, h: SignMatrix, t: int, scope: str, cap: int):
        self.h, self.t = h, t
        self.sel, masks = _scope_axes(h.order, t, scope)
        self.nneg2 = len(masks) ** 2
        self.rn = np.repeat(masks, len(masks))  # row mask of negation pair index
        self.cn = np.tile(masks, len(masks))  # column mask of negation pair index
        self.u_flip = sum(  # U_ab -> rn_a U_ab cn_b
            (((self.rn >> a) ^ (self.cn >> b)) & 1) << (a * t + b)
            for a, b in itertools.product(range(t), repeat=2))
        self.flips = (self.cn << t) | self.rn  # W -> W * cn, V -> rn * V; D unchanged
        self.splits = min(cap, len(self.sel) ** 2 * self.nneg2)
        if self.splits <= 0:
            raise DomainError("no candidate splits in scope")
        self.occ, self.u = _occurrence(h.rows, t, self.sel, -(-self.splits // self.nneg2))
        u_codes = (self.u[:, None] ^ self.u_flip).reshape(-1)[: self.splits]
        self.table = _EpsScreen(np.unique(u_codes), t, h.order)

    def candidate(self, i: int) -> tuple[BlockSplit, str]:
        s, vi = divmod(i, 2)
        base, ni = divmod(s, self.nneg2)
        r, c = divmod(base, len(self.sel))
        split = BlockSplit(self.h, self.sel[r], self.sel[c],
                           _mask_tuple(int(self.rn[ni]), self.t),
                           _mask_tuple(int(self.cn[ni]), self.t))
        return split, _VARIANTS[vi]

    def ranks(self):
        """(start, ranks) in search order: the rank of every candidate, in
        chunks of bases; raises CertificationError for the first candidate
        with a magnitude outside the window."""
        table, per_base = self.table, self.nneg2 * 2
        chunk = max(1, _SCREEN_BUDGET // (per_base * table.levels.shape[-1]))
        for start in range(0, len(self.occ), chunk):
            occ = _xor_permuted(self.occ[start:start + chunk], self.flips)  # (n, negations)
            ui = table.lut[self.u[start:start + chunk, None] ^ self.u_flip]
            # candidates past the cap (U codes outside the table) are cut off
            ranks = table.ranks(occ, ui).reshape(-1)[: 2 * self.splits - start * per_base]
            hits = np.flatnonzero(ranks == table.sentinel)
            if hits.size:
                i = int(hits[0])
                split, variant = self.candidate(start * per_base + i)
                b, ni = divmod(i // 2, self.nneg2)
                av = table.violation(int(occ[b, ni]), int(ui[b, ni]), i % 2)
                lo, hi = table.window
                raise CertificationError(
                    f"entry magnitude {av} outside window [{lo}, {hi}] "
                    f"in {split!r} {variant}"
                )
            yield start * per_base, ranks


def best_reduction(h: SignMatrix, t: int, search_scope: str = "corner-only",
                   cap: int = 100_000) -> EpsHadamard:
    """Minimum-epsilon reduction over the splits in scope.

    Both variants of every candidate split are scored exactly, without
    building them: for a fixed U (signs applied) and variant, an entry of Y
    is D_ij/sqrt(M) + w_i^T C v_j, where C is the t x t coefficient matrix
    ``reduce_split`` builds from (the closed form of every U).  So
    |Y_ij| depends only on the magnitude index (D_ij w_i, v_j), one of
    2^(2t) <= 64, and a candidate's epsilon is the largest epsilon among the
    indices its entries take.  The screen evaluates each index's exact
    |value|, epsilon and window check once per (U, variant) that occurs,
    ranks all epsilons with ``ExactEps.cmp``, and per split computes only
    one 64-bit mask of the indices that occur, by bitset AND-NOT over the
    rows of H, batched across row selections.  It is exact: two candidates
    compare as their rebuilt ``EpsHadamard`` epsilons would, and an
    occurring index outside the reduction window raises CertificationError
    as the candidate's construction would.

    Splits are searched in the order (rows, cols, row negations, col
    negations), variant Y2 before Y1, and the first minimum wins: ties break
    to the lexicographically smallest index sets and negation masks, then
    Y2.  Only the winner is built, once, with orthogonality verified.  If
    the scope holds more than ``cap`` splits, the first ``cap`` are searched
    and a ResourceLimitError carrying the partial best is raised.
    """
    if not h.hadamard_verified:
        raise DomainError("best_reduction requires a hadamard-verified matrix")
    if search_scope not in SEARCH_SCOPES:
        raise DomainError(f"unknown search scope {search_scope!r}")
    if t not in (1, 2, 3):
        raise DomainError(f"t must be in {{1,2,3}}, got {t}")
    if t * t >= h.order:
        raise DomainError(f"t={t} must satisfy t < sqrt({h.order})")

    search = _SplitScreen(h, t, search_scope, cap)
    best = None  # (rank, candidate index)
    for start, ranks in search.ranks():
        i = int(np.argmin(ranks))
        if best is None or ranks[i] < best[0]:
            best = (int(ranks[i]), start + i)

    rank, i = best
    split, variant = search.candidate(i)
    y = reduce_split(split, variant)
    if y.epsilon.cmp(search.table.eps[rank]) != 0:
        raise CertificationError(
            f"screened epsilon {search.table.eps[rank]!r} != rebuilt {y.epsilon!r}"
        )
    if _scope_size(h.order, t, search_scope) > cap:
        raise ResourceLimitError(
            f"search scope exceeds cap of {cap} splits", partial_best=y
        )
    return y

