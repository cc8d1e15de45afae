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
EpsHadamard certifies Y from H, the split and C, and never forms Y.  With
w_i row i of W and v_j column j of V, Y_ij = D_ij * (1/sqrt(M) +
(D_ij w_i)^T C v_j), so |Y_ij| is fixed by the magnitude code
(D_ij w_i, v_j), one of at most 2^(2t) <= 64.  The codes come from H's
sign bits, and only the codes that occur are evaluated: they give the
distinct magnitudes, epsilon, the window check and the per-column
magnitude histogram.  Y Y^T = I is a t x t fact:
H H^T = M*I gives Y Y^T - I = W X W^T with

    X = -I/M - (U^T C^T + C U)/sqrt(M) + C (M*I - U U^T) C^T,

and X = 0 is a pair of integer t x t identities checked on Python ints
(``EpsHadamard.verify_orthogonal``).

Exact values are integer keys (``algebra``): (p, q, L) stands for
(p + q*sqrt(c))/L, L > 0, with c the squarefree part of M.  Every order,
bound and window test on them is one integer sign test (``_quad_sign``),
and ``key_str`` shows them in messages.  Epsilon is computed from the
definition: the maximum over entries of |sqrt(k)*|Y_ij| - 1|, held exactly
as the key of the extremal |Y_ij| (``ExactEps``); deviations below
1/sqrt(k) count.  The maximum upward deviation alone is kept as a separate
diagnostic (`epsilon_upper`) because several reported per-case expressions
track only that side.

Split search (`best_reduction`) scores candidates without building them.
A scope of one split (corner-only) needs no screen: one code scan
(``_CodeScan``) serves both variants, their occurring codes give their
epsilons, compared by integer sign tests, and the winner is built from
that scan.  In a larger scope, for a fixed U (signs applied) and variant,
the magnitude codes a split's
entries take fit one 64-bit occurrence mask.  The masks are read off exact
counts of the codes, formed for blocks of splits at a time as float32
products of 0/1 arrays whose every partial sum is an integer below 2^24; a
negation of the selected rows or columns permutes the mask's bits by XOR
and flips signs of U.  So a base, a row and a column selection with no
negations, is ranked at all its negations by its (mask, U code) pair, and
across a scope few pairs are distinct (20 over the 14,400 bases of H_16
with t = 2): each distinct pair is kept with the first base where it
occurs and ranked once.  The screen evaluates each code's exact magnitude
once per relation class of U and variant, by the closed form EpsHadamard
takes, as an integer key (p, q, L) for (p + q*sqrt(c))/L, and ranks every
epsilon exactly on one scale and checks the window on those keys, with
integer sign tests only.  A candidate's epsilon is the largest among the
codes in its mask, which is exactly the epsilon its EpsHadamard would
certify, so the screen picks the same split as building every candidate
would; only the winner is built, and only its epsilons become ExactEps.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algebra import (
    _eps_side,
    _key_cmp,
    _magnitudes,
    _quad_sign,
    key_str,
    key_to_float,
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
        return _relation_holds(np.asarray(u, dtype=np.int64),
                               self.kappa, self.gamma, self.vartheta or 0)


def _relations(u: np.ndarray) -> tuple:
    """(kappa, gamma, vartheta) of each t x t sign matrix of u, shape
    (..., t, t), each an int64 array of shape (...), vartheta 0 for t <= 2:
    t = 1 uses the linear identity U^2 = U[0,0] * U; t = 2 uses trace and
    determinant; t = 3 uses trace, the sum of the off-diagonal 2x2 minor
    complements, and the determinant."""
    t = u.shape[-1]
    e = [[u[..., i, j] for j in range(t)] for i in range(t)]
    trace = sum(e[i][i] for i in range(t))
    if t == 1:
        return 0 * trace, trace, 0 * trace
    if t == 2:
        return e[0][1] * e[1][0] - e[0][0] * e[1][1], trace, 0 * trace
    gamma = sum(e[i][j] * e[j][i] - e[i][i] * e[j][j] for i, j in ((0, 1), (0, 2), (1, 2)))
    det = (e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
           - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
           + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0]))
    return det, gamma, trace


def _relation_holds(u: np.ndarray, kappa, gamma, vartheta) -> bool:
    """Whether every sign matrix of u (..., t, t) satisfies its relation
    (kappa, gamma, vartheta), each an int or an array of shape (..., 1, 1)."""
    eye = np.eye(u.shape[-1], dtype=np.int64)
    u2 = u @ u
    if u.shape[-1] <= 2:
        return bool(np.array_equal(u2, kappa * eye + gamma * u))
    return bool(np.array_equal(u2 @ u, kappa * eye + gamma * u + vartheta * u2))


def classify_u(u) -> UClass:
    """Compute and verify the polynomial relation of a t x t sign matrix
    (``_relations``)."""
    u = np.asarray(u, dtype=np.int64)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError(f"U must be square, got shape {u.shape}")
    t = u.shape[0]
    if t not in (1, 2, 3):
        raise DomainError(f"t must be in {{1,2,3}}, got {t}")
    if not np.all(np.abs(u) == 1):
        raise DomainError("U entries must be +1 or -1")
    kappa, gamma, vartheta = (int(x) for x in _relations(u))
    if t <= 2:
        vartheta = None
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
    """epsilon = |sqrt(k)*a - 1| held exactly by the integer key (p, q, L) of
    the magnitude a = (p + q*sqrt(c))/L at the extremum, with k and the
    squarefree c; the key None is the zero epsilon.

    ``side`` is the sign of sqrt(k)*a - 1 (equivalently of q - 1, with
    q = k*a^2): +1 for an upward deviation, -1 downward, 0 for an exact
    Hadamard entry.  ``ksq`` is the key of q, which the wire writes.  Every
    comparison is an integer sign test (``_eps_cmp``); epsilons compare only
    at the same k and c.
    """

    __slots__ = ("key", "k", "core", "side", "ksq", "_float")

    def __init__(self, key: Optional[tuple], k: int, core: int):
        self.key, self.k, self.core = key, k, core
        self.side, self.ksq = 0, (1, 0, 1)  # the zero epsilon: q = 1
        if key is not None:
            p, q, scale = key
            self.side = _eps_side(key, k, core)
            self.ksq = (k * (p * p + core * q * q), 2 * k * p * q, scale * scale)
        self._float = abs(math.sqrt(key_to_float(self.ksq, core, 70)) - 1.0)

    def cmp(self, other: "ExactEps") -> int:
        if self.side and other.side and (self.k, self.core) != (other.k, other.core):
            raise StructuralError(f"epsilons of k={self.k}, c={self.core} and "
                                  f"k={other.k}, c={other.core} do not compare")
        return _eps_cmp((self.key, self.side), (other.key, other.side), self.k, self.core)

    def lt_one(self) -> bool:
        """epsilon < 1: below 1/sqrt(k) unless a = 0, above it when q < 4."""
        if self.side <= 0:
            return self.side == 0 or _quad_sign(self.key[0], self.key[1], self.core) > 0
        p, q, scale = self.ksq
        return _quad_sign(p - 4 * scale, q, self.core) < 0

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __eq__(self, other):
        return isinstance(other, ExactEps) and self.cmp(other) == 0

    def __float__(self):
        return self._float

    def expr(self) -> str:
        return f"|sqrt({key_str(self.ksq, self.core)}) - 1|"

    def __repr__(self):
        return f"ExactEps({float(self):.6g}, side={self.side})"


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

    def u_matrix(self) -> np.ndarray:
        u = self.source.rows[np.ix_(self.row_select, self.col_select)].astype(np.int64)
        return u * self._signs(self.row_negate)[:, None] * self._signs(self.col_negate)[None, :]

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


class _CodeScan:
    """What a reduction reads of H, the same for both variants of a split:
    U, as the caller formed it; the W- and V-codes (bit a of w_i, v_j set
    where W_ia, V_aj is -1, negations applied); and, per column j, the
    count of each magnitude code (w' << t) | v_j, with the codes that
    occur.  With w' = w_i xor (2^t - 1)*[D_ij = -1], column j takes code
    (x << t) | v_j once per row with w_i = x and D_ij = +1 or
    w_i = x xor (2^t - 1) and D_ij = -1; the -1s are counted from sums of
    whole rows of H, read contiguously."""

    __slots__ = ("u", "count", "codes", "occurring")

    def __init__(self, source: SignMatrix, provenance: Provenance, u: np.ndarray):
        m, t = source.order, provenance.t
        rows, cols = list(provenance.row_select), list(provenance.col_select)
        keep_r, keep_c = np.ones((2, m), dtype=bool)
        keep_r[rows], keep_c[cols] = False, False
        rest_r, rest_c = np.flatnonzero(keep_r), np.flatnonzero(keep_c)
        rn, cn = np.array(provenance.row_negate, bool), np.array(provenance.col_negate, bool)
        h = source.rows
        self.u = u.astype(object)
        bit = 1 << np.arange(t, dtype=np.uint8)
        w = ((h[:, cols] < 0)[keep_r] ^ cn) @ bit
        v = ((h[rows] < 0)[:, keep_c] ^ rn[:, None]).T @ bit
        span, full = 1 << t, (1 << t) - 1
        ones = np.stack([(len(r) - np.take(h, r, axis=0).sum(axis=0, dtype=np.int64)[rest_c]) // 2
                         for r in (rest_r[w == x] for x in range(span))])  # w_i = x, D_ij = -1
        self.count = np.bincount(w, minlength=span)[:, None] - ones + ones[np.arange(span) ^ full]
        self.codes = np.arange(span)[:, None] << t | v  # (w', j) -> code
        self.occurring = np.flatnonzero(np.bincount(self.codes[self.count > 0],
                                                    minlength=span * span))


# ---------------------------------------------------------------------------
# EpsHadamard
# ---------------------------------------------------------------------------

class EpsHadamard:
    """An exactly-orthogonal matrix of order k with certified epsilon.

    Y = D/sqrt(M) + W C V for the split [[U, V], [W, D]] of a certified
    Hadamard matrix H of order M that ``provenance`` names (negations
    applied), and a t x t matrix C passed as its integer form (L, c, A, B),
    C = (A + B*sqrt(c))/L: k = M - t, and t = 0 gives Y = H/sqrt(M).  Y is
    never formed.  With w_i row i of W and v_j column j of V,
    Y_ij = D_ij * (1/sqrt(M) + (D_ij w_i)^T C v_j): entry (i, j) is D_ij
    times the value of its magnitude code (D_ij w_i, v_j), one of at most
    2^(2t).  The codes that occur give the distinct magnitudes, epsilon,
    the window check and the per-column magnitude histogram, counted from
    sums of rows of H (``_CodeScan``), whose int8 copies are the largest arrays.
    C's ``_evaluate`` on a scan of the same split (``evaluated``) may replace C.
    Orthogonality is H's certified Hadamard property plus the exact t x t
    identity X = 0, by which Y Y^T - I = W X W^T vanishes
    (``verify_orthogonal``).  All checks run at construction, so every
    EpsHadamard is certified; epsilon < 1 is recorded rather than
    enforced, since it is only guaranteed for t < sqrt(n).

    ``terms`` is the derivation at t x t level, each coefficient a key:
    (1/sqrt(M), None) for D, then (1/L, A) and, unless B = 0,
    (sqrt(c)/L, B), with L the common denominator of C and 1/sqrt(M).
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
        "_form",
        "_scan",
        "_keys",
        "_counts",
    )

    def __init__(self, source: SignMatrix, provenance: Provenance, c=None, evaluated=None):
        if not source.hadamard_verified:
            raise DomainError("source must be hadamard-verified")
        if (c is None) == (evaluated is None):
            raise TypeError("EpsHadamard takes C or its evaluation, not both")
        m, t = source.order, provenance.t
        self.order, self.radicand = m - t, m
        self.source, self.provenance = source, provenance
        if evaluated is None:
            p = provenance
            u = BlockSplit(source, p.row_select, p.col_select, p.row_negate,
                           p.col_negate).u_matrix() if t else np.zeros((0, 0), dtype=np.int64)
            evaluated = _evaluate(c, m, t, _CodeScan(source, p, u))
        self._scan, self._form, mag_ids, self._keys = evaluated
        scale, core, a, b = self._form
        terms = [((a[0, 0], b[0, 0], scale), None)]
        if t:
            terms.append(((1, 0, scale), a[1:, 1:]))
        if np.count_nonzero(b[1:, 1:]):
            terms.append(((0, 1, scale), b[1:, 1:]))
        self.terms = tuple(terms)
        self.verify_orthogonal()
        self._scan_entries(mag_ids)
        # entry magnitudes lie in the closed interval of the reduction theorem
        error = _window_error(self._keys, t, m, core)
        if error:
            raise CertificationError(error)
        self.window_ok = True

    # -- construction helpers ----------------------------------------------

    def _scan_entries(self, mag_ids: np.ndarray):
        """Epsilon and the column histogram from the occurring codes' magnitude ids."""
        scan, k, keys, core = self._scan, self.order, self._keys, self._form[1]
        mag_of_code = np.full(1 << 2 * self.provenance.t, -1, dtype=np.intp)
        mag_of_code[scan.occurring] = mag_ids
        live = scan.count > 0
        self._counts = np.zeros((k, len(keys)), dtype=np.int64)
        np.add.at(self._counts, (np.nonzero(live)[1], mag_of_code[scan.codes[live]]),
                  scan.count[live])
        self._counts.setflags(write=False)
        g, _ = _eps_extreme(keys, k, core)
        self.epsilon = ExactEps(keys[g], k, core)
        # largest upward deviation alone (0 if no entry exceeds 1/sqrt(k))
        self.epsilon_upper = self.epsilon if g else ExactEps(
            keys[-1] if _eps_side(keys[-1], k, core) > 0 else None, k, core)
        self.is_eps_hadamard = self.epsilon.lt_one()

    def verify_orthogonal(self):
        """Exact check of Y Y^T = I as the t x t identity X = 0.

        H is certified Hadamard, and negating selected rows and columns
        keeps it so.  H H^T = M*I gives V V^T = M*I - U U^T,
        D V^T = -W U^T and W W^T + D D^T = M*I, hence

            Y Y^T - I = W X W^T,
            X = -I/M - (U^T C^T + C U)/sqrt(M) + C (M*I - U U^T) C^T,

        and X = 0 makes Y Y^T = I.  Y is square, so Y^T Y = I follows.
        For t = 0, X is empty and Y Y^T = H H^T/M = I.

        In the integer form [[1/sqrt(M), 0], [0, C]] = (A + B*sqrt(c))/L,
        1/sqrt(M) = (a + b*sqrt(c))/L with a = A_00, b = B_00, and
        C = (A' + B'*sqrt(c))/L with A', B' the trailing t x t blocks.  Then
        L^2 X = R + S*sqrt(c) with the integer t x t matrices

            R = -(a^2 + c*b^2) I - a G - c*b G' + A' N A'^T + c B' N B'^T,
            S = -2ab I - b G - a G' + A' N B'^T + B' N A'^T,

        N = M*I - U U^T, G = U^T A'^T + A' U and G' = U^T B'^T + B' U.  X = 0
        is the pair of identities R = 0 and S = 0 (S = 0 holds trivially
        when c = 1, where b = 0 and B' = 0), checked on Python ints.
        """
        scale, core, a, b = self._form
        a0, b0, a, b = a[0, 0], b[0, 0], a[1:, 1:], b[1:, 1:]
        u = self._scan.u
        eye = np.identity(len(u), dtype=object)
        n = self.radicand * eye - u @ u.T
        g, g2 = u.T @ a.T + a @ u, u.T @ b.T + b @ u
        r = (-(a0 * a0 + core * b0 * b0) * eye - a0 * g - core * b0 * g2
             + a @ n @ a.T + core * (b @ n @ b.T))
        s = -2 * a0 * b0 * eye - b0 * g - a0 * g2 + a @ n @ b.T + b @ n @ a.T
        bad = (r != 0) | (s != 0)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(u))
            x = key_str((int(r[i, j]), int(s[i, j]), scale * scale), core)
            raise CertificationError(
                f"orthogonality violated: Y Y^T - I = W X W^T with X{(i, j)} = {x}, "
                "expected 0"
            )

    # -- accessors -----------------------------------------------------------

    def distinct_abs_values(self) -> list[tuple[int, int, int]]:
        """The distinct entry magnitudes, ascending, as keys (p, q, L) in
        lowest terms over the squarefree part c of the radicand."""
        return list(self._keys)

    def abs_value_counts(self) -> np.ndarray:
        """The column histogram of magnitudes, read-only int64 of shape
        (k, len(distinct_abs_values())): entry [j, g] counts the rows i with
        |Y_ij| the value of distinct_abs_values()[g]."""
        return self._counts

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
        """Exact Y = H / sqrt(k) for a verified Hadamard matrix: the split
        with t = 0, one magnitude and epsilon = 0."""
        if not h.hadamard_verified:
            raise DomainError("matrix is not hadamard-verified")
        prov = Provenance(
            source_label=h.label,
            source_order=h.order,
            t=0,
            row_select=(),
            col_select=(),
            row_negate=(),
            col_negate=(),
            variant=None,
            method="exact-hadamard",
        )
        empty = np.zeros((0, 0), dtype=object)
        return cls(h, prov, (1, 1, empty, empty))


def _corner(scale: int, m: int) -> tuple[int, int, int]:
    """(L', p, q) with L' the lcm of L = ``scale`` and the denominator of
    1/sqrt(M) = sqrt(c)/(f*c), M = f^2*c, and 1/sqrt(M) = (p + q*sqrt(c))/L'."""
    f, m_core = square_free_split(m)
    corner = math.lcm(scale, f * m_core)
    root = corner // (f * m_core)
    return (corner, root, 0) if m_core == 1 else (corner, 0, root)


def _corner_form(c, m: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(L', c, A', B') with [[1/sqrt(M), 0], [0, C]] = (A' + B'*sqrt(c))/L'
    for C given by its integer form (L, c, A, B) (``_corner``)."""
    scale, core, a, b = c
    m_core = square_free_split(m)[1]
    if core not in (1, m_core) or (m_core == 1 and np.count_nonzero(b)):
        raise StructuralError(f"C in Q(sqrt({core})) for M = {m}")
    corner, p, q = _corner(scale, m)
    t = a.shape[0]
    a2, b2 = (np.zeros((t + 1, t + 1), dtype=object) for _ in range(2))
    a2[1:, 1:], b2[1:, 1:] = a * (corner // scale), b * (corner // scale)
    a2[0, 0], b2[0, 0] = p, q
    return corner, m_core, a2, b2


def _evaluate(c, m: int, t: int, scan: _CodeScan) -> tuple:
    """(scan, form, ids, keys) of C on a scan: ``_corner_form`` and the
    ``_magnitudes`` of the ``_code_values`` of the codes that occur."""
    form = _corner_form(c, m)
    values = _code_values(form, t)
    ids, keys = _magnitudes([(*values[x], form[0]) for x in scan.occurring], form[1])
    return scan, form, ids, keys


def _code_values(form, t: int) -> list[tuple[int, int]]:
    """(p, q) per magnitude code (w' << t) | v, whose value
    1/sqrt(M) + s(w')^T C s(v) is (p + q*sqrt(c))/L for the integer form
    ``form`` of ``_corner_form``; component a of the sign vector s(x) is -1
    where bit a of x is set.  With S the rows (1, s(x)), the p are S A S^T
    and the q are S B S^T."""
    _, _, a, b = form
    signs = np.array([[1] + [-1 if x >> e & 1 else 1 for e in range(t)]
                      for x in range(1 << t)], dtype=np.int64)
    ps, qs = (_wxv(signs, x, signs.T).ravel().tolist() for x in (a, b))
    return list(zip(ps, qs))


def _eps_mixed(above: tuple, below: tuple, k: int, core: int) -> int:
    """Sign of eps(a1) - eps(a2) for magnitudes a1 above and a2 below
    1/sqrt(k): (sqrt(k)*a1 - 1) - (1 - sqrt(k)*a2) has the sign of
    k*(a1 + a2)^2 - 4."""
    return _eps_side((above[0] * below[2] + below[0] * above[2],
                      above[1] * below[2] + below[1] * above[2], above[2] * below[2]), k, core, 4)


def _eps_extreme(keys: list[tuple], k: int, core: int) -> tuple[int, int]:
    """(g, side) of the largest epsilon |sqrt(k)*a - 1| among ascending
    magnitude keys: it falls as a rises to 1/sqrt(k) and rises beyond, so it
    is the smallest key's (g = 0, also on a tie) or the largest's (g = -1)."""
    low, high = ((key, _eps_side(key, k, core)) for key in (keys[0], keys[-1]))
    return (-1, high[1]) if _eps_cmp(high, low, k, core) > 0 else (0, low[1])


def _eps_cmp(x: tuple, y: tuple, k: int, core: int) -> int:
    """Sign of eps(a) - eps(b) for magnitudes given as (key, side of its
    epsilon), the order of ``ExactEps``: on one side the keys' order, across
    the sides ``_eps_mixed``, and a side 0 (whose key may be None) is least."""
    (a, sa), (b, sb) = x, y
    if sa == 0 or sb == 0:
        return (sa != 0) - (sb != 0)
    if sa == sb:
        return _key_cmp(a, b, core) * sa
    return _eps_mixed(a, b, k, core) if sa > 0 else -_eps_mixed(b, a, k, core)


def _eps_ranks(keys: list[tuple], k: int, core: int) -> tuple[list[int], list[tuple]]:
    """(rank of each key, one key per rank) for the epsilons |sqrt(k)*a - 1|
    of ascending magnitude keys, equal epsilons sharing a rank.

    Below 1/sqrt(k), epsilon falls as a rises, and above it rises: the
    below-side keys read descending and the above-side keys read ascending
    each have ascending epsilon, and a key with side 0 has epsilon 0 and
    takes rank 0.  The two lists merge by ``_eps_mixed``; equal epsilons can
    only meet across the two sides.  This is the order of ``_eps_cmp``.
    """
    sides = [_eps_side(key, k, core) for key in keys]
    below = [i for i in reversed(range(len(keys))) if sides[i] < 0]
    above = [i for i in range(len(keys)) if sides[i] > 0]
    ranks = [0] * len(keys)
    reps = [keys[i] for i in range(len(keys)) if sides[i] == 0]  # at most one
    a = b = 0
    while a < len(above) or b < len(below):
        if a == len(above) or b == len(below):
            c = 1 if a == len(above) else -1
        else:
            c = _eps_mixed(keys[above[a]], keys[below[b]], k, core)
        reps.append(keys[below[b]] if c >= 0 else keys[above[a]])
        if c >= 0:  # the below-side key's epsilon is not larger
            ranks[below[b]] = len(reps) - 1
            b += 1
        if c <= 0:
            ranks[above[a]] = len(reps) - 1
            a += 1
    return ranks, reps


def _outside(key: tuple, window, core: int) -> bool:
    """Whether a magnitude key lies outside window keys (never when None)."""
    return window is not None and (_key_cmp(key, window[0], core) < 0
                                   or _key_cmp(key, window[1], core) > 0)


def _window_error(keys: list[tuple], t: int, m: int, core: int) -> Optional[str]:
    """The failure, naming the smallest magnitude outside the window of a
    reduction of order m by t (``_window``), of ascending magnitude keys,
    or None; the smallest and the largest key decide."""
    window = _window(t, m)
    if not (_outside(keys[0], window, core) or _outside(keys[-1], window, core)):
        return None
    key = next(key for key in keys if _outside(key, window, core))
    low, high = (key_str(x, core) for x in window)
    return f"entry magnitude {key_str(key, core)} outside window [{low}, {high}]"


def _window(t: int, m: int) -> Optional[tuple[tuple, tuple]]:
    """Closed interval of the reduction theorem for the entry magnitudes of
    a reduction of order m by t, as keys over the core c of m = f^2*c, or
    None where it does not apply: (1 -/+ t/(sqrt(M) - t))/sqrt(M) is
    ((M - 2t^2)*sqrt(M) - t*M)/(M*(M - t^2)) below and
    (t + sqrt(M))/(M - t^2) above."""
    if t < 1 or t * t >= m:
        return None
    f, core = square_free_split(m)
    low, high = ((-t * m, (m - 2 * t * t) * f), (t, f))
    if core == 1:
        low, high = (sum(low), 0), (sum(high), 0)
    return (*low, m * (m - t * t)), (*high, m - t * t)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def _poly_inverse_coeffs(kappa: int, gamma: int, vartheta: Optional[int],
                         m: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    """Numerators (x, y, z) and denominator den with (alpha*I + U)^-1 =
    (x*I + y*U + z*U^2)/den, alpha = sqrt(M), given the relation of U; each
    as an integer pair (r, s), the value r + s*alpha (alpha^2 = M)."""
    if vartheta is None:  # den = alpha^2 + gamma*alpha - kappa
        return [(gamma, 1), (-1, 0), (0, 0)], (m - kappa, gamma)
    # den = alpha^3 + vartheta*alpha^2 - gamma*alpha + kappa
    return [(m - gamma, vartheta), (-vartheta, -1), (1, 0)], (vartheta * m + kappa, m - gamma)


def _negated_params(params: tuple) -> tuple[int, int, Optional[int]]:
    """Relation parameters (kappa, gamma, vartheta) of -U given those of U."""
    kappa, gamma, vartheta = params
    if vartheta is None:
        return kappa, -gamma, None
    return -kappa, gamma, -vartheta


def _relation_coeffs(params: tuple, variant: str, m: int) -> tuple[int, list[tuple[int, int]]]:
    """(L, [(a_p, b_p)]) for p = 0, 1, 2 with C = sum_p c_p U_eff^p,
    c_p = (a_p + b_p*sqrt(c))/L, the polynomial-in-U inverse that the
    relation params = (kappa, gamma, vartheta) of U gives (the published
    closed form for a listed U), where U_eff = U for Y1 and -U for Y2 and
    M = f^2*c.  The c_p depend on U only through its relation.

    c_p = -x_p/(den*alpha) for Y1 and +x_p/(den*alpha) for Y2, with x_p
    and den from ``_poly_inverse_coeffs``.  Every product is taken on
    integer pairs in Z[alpha] and written in Z[sqrt(c)] (for c = 1,
    alpha = f is an integer), and the one division multiplies by the
    conjugate of den*alpha over its integer norm.  L > 0 and the gcd of L
    and the a_p and b_p is 1, so the c_p are the same rationals in lowest
    terms over their common denominator."""
    if variant == "Y1":
        outer_sign = -1
    else:
        params, outer_sign = _negated_params(params), 1
    nums, (d0, d1) = _poly_inverse_coeffs(*params, m)
    f, core = square_free_split(m)

    def in_root_c(r: int, s: int) -> tuple[int, int]:  # r + s*f*sqrt(c)
        return (r + s * f, 0) if core == 1 else (r, s * f)

    e0, e1 = in_root_c(d1 * m, d0)  # den*alpha
    norm = e0 * e0 - core * e1 * e1  # (den*alpha) * conjugate
    if norm == 0:
        raise ExactArithmeticError("vanishing denominator in closed form")
    parts = []
    for r, s in nums:
        n0, n1 = in_root_c(r, s)
        parts += [outer_sign * (n0 * e0 - core * n1 * e1), outer_sign * (n1 * e0 - n0 * e1)]
    g = math.gcd(norm, *parts) * (1 if norm > 0 else -1)
    return norm // g, [(parts[2 * p] // g, parts[2 * p + 1] // g) for p in range(3)]


def _coefficient_form(u: np.ndarray, uclass: UClass, variant: str,
                      m: int) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The t x t matrix C with Y = D/sqrt(M) + W C V as its integer form
    (L, c, A, B), C = (A + B*sqrt(c))/L with A and B integer matrices of
    Python ints: A = sum_p a_p U_eff^p and B = sum_p b_p U_eff^p for the
    closed form of ``_relation_coeffs``, U_eff = U for Y1 and -U for Y2,
    all on integers (c = 1 and B = 0 when M is a perfect square)."""
    scale, coeffs = _relation_coeffs((uclass.kappa, uclass.gamma, uclass.vartheta), variant, m)
    u_eff = u if variant == "Y1" else -u
    powers = (np.eye(len(u), dtype=np.int64), u_eff, u_eff @ u_eff)
    a, b = (sum(pair[e] * power.astype(object) for pair, power in zip(coeffs, powers))
            for e in (0, 1))
    return scale, square_free_split(m)[1], a, b


def _class_form(params: tuple, variant: str, m: int) -> tuple[int, tuple, tuple]:
    """(L', a, b): for every U with relation params, the value of magnitude
    index (w', v) is (a.x + (b.x)*sqrt(c))/L' with x = (1, X_0, X_1, X_2) at
    (w', v), X_p = S U^p S^T.  That is the corner form of
    C = sum_p c_p U_eff^p (``_relation_coeffs``), since
    U_eff^p = (+/-1)^p U^p."""
    scale, coeffs = _relation_coeffs(params, variant, m)
    corner, p, q = _corner(scale, m)
    sign = 1 if variant == "Y1" else -1
    a, b = ([c * sign**e * (corner // scale) for e, c in enumerate(part)]
            for part in zip(*coeffs))
    return corner, (p, *a), (q, *b)


def _wxv(w: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """W X V exactly for sign matrices W, V and an integer t x t matrix X:
    in int64 when t^2 * max|X| < 2^63 bounds every partial sum, on Python
    ints (an object array) otherwise."""
    dtype = np.int64 if x.shape[0] ** 2 * int(np.abs(x).max()) < 2**63 else object
    return w.astype(dtype) @ x.astype(dtype) @ v.astype(dtype)


def reduce_split(split: BlockSplit, variant: str) -> EpsHadamard:
    """Y1 or Y2 of a split, certified as Y = D/sqrt(M) + W C V.

    C is the closed form of (I +/- U/sqrt(M))^-1 from the Cayley-Hamilton
    relation of U, for every U; ``Provenance.method`` reads "closed-form".
    The inverse exists for every U with t < sqrt(M), by diagonal
    dominance.
    """
    m, t = split.source.order, split.t
    if t * t >= m:
        raise DomainError(f"t={t} must satisfy t < sqrt(order) for order {m}")
    if variant not in ("Y1", "Y2"):
        raise DomainError(f"variant must be Y1 or Y2, got {variant!r}")
    u = split.u_matrix()
    prov = _provenance(split, variant, classify_u(u))
    c = _coefficient_form(u, prov.uclass, variant, m)
    scan = _CodeScan(split.source, prov, u)
    return EpsHadamard(split.source, prov, evaluated=_evaluate(c, m, t, scan))


def _provenance(split: BlockSplit, variant: Optional[str], uclass: UClass) -> Provenance:
    return Provenance(split.source.label, split.source.order, split.t, split.row_select,
                      split.col_select, split.row_negate, split.col_negate, variant,
                      "closed-form", uclass)


def _reduce_one_split(split: BlockSplit) -> EpsHadamard:
    """The variant of a split with the smaller epsilon, Y2 on a tie, built
    from one code scan; the first variant with a magnitude outside the
    window raises the split screen's CertificationError."""
    h, m, t = split.source, split.source.order, split.t
    u = split.u_matrix()
    prov = _provenance(split, None, classify_u(u))
    scan, best = _CodeScan(h, prov, u), None
    for variant in _VARIANTS:
        c = _coefficient_form(u, prov.uclass, variant, m)
        _, (_, core, _, _), _, keys = evaluated = _evaluate(c, m, t, scan)
        error = _window_error(keys, t, m, core)
        if error:
            raise CertificationError(f"{error} in {split!r} {variant}")
        g, side = _eps_extreme(keys, m - t, core)
        if best is None or _eps_cmp((keys[g], side), best[0], m - t, core) < 0:
            best = (keys[g], side), variant, evaluated
    return EpsHadamard(h, replace(prov, variant=best[1]), evaluated=best[2])


# ---------------------------------------------------------------------------
# Search over splits: the exact epsilon screen
# ---------------------------------------------------------------------------

SEARCH_SCOPES = ("corner-only", "row-col-permutations", "permutations-and-negations")
_VARIANTS = ("Y2", "Y1")  # evaluation order of the two variants of a split
_SCREEN_BUDGET = 1 << 16  # elements per working array of the screen


def _scope_axes(order: int, t: int, scope: str):
    """(index selections as an (n, t) array, negations as t-tuples of
    bools), each in search order; rows and columns share both."""
    selections = ([tuple(range(t))] if scope == "corner-only"
                  else list(itertools.combinations(range(order), t)))
    negs = (list(itertools.product((False, True), repeat=t))
            if scope == "permutations-and-negations" else [(False,) * t])
    return np.array(selections, dtype=np.intp), negs


def _xor_permuted(masks: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """(n, len(flips)) uint64: bit b of out[:, f] is bit b ^ flips[f] of
    masks, built by one delta swap per bit of the flips."""
    out = masks[:, None]
    for j in range(int(flips.max()).bit_length()):
        step = 1 << j  # low: the bits b with bit j of b clear
        low = np.uint64((2**64 - 1) // (2 ** (2 * step) - 1) * (2**step - 1))
        out = np.concatenate([out, (out & low) << step | (out >> step) & low], axis=1)
    return out[:, flips]


def _codes(signs: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """(len(sel), M) uint8: bit a of out[r, j] is set where row sel[r, a] is
    -1 in column j (of H, V-codes; of H^T, the W-codes of columns)."""
    return sum((signs[sel[:, a]] < 0).astype(np.uint8) << a for a in range(sel.shape[1]))


def _tiles(sel: np.ndarray, start: int, stop: int, size: int):
    """(lo, rsel, cols) per tile of the bases start..stop-1: rsel by cols,
    row by row, are the bases from lo on; whole row selections within
    ``size`` bases, else a run of at most ``size`` in one."""
    n = len(sel)
    while start < stop:
        r, c = divmod(start, n)
        if c == 0 and n <= min(size, stop - start):
            rsel, cols = sel[r:r + min(size, stop - start) // n], sel
        else:
            rsel, cols = sel[r:r + 1], sel[c:min(n, c + stop - start, c + size)]
        yield start, rsel, cols
        start += len(rsel) * len(cols)


def _occurrence_blocks(signs: np.ndarray, t: int, sel: np.ndarray, bases: int,
                       start: int = 0):
    """The occurrence masks and U codes of the bases start..bases-1 (rows
    sel[b // n], columns sel[b % n]) of ``signs``, no negations applied, as
    blocks (origin, stride, occ, u): occ[i, j] and u[i, j] belong to base
    origin + i*stride + j.  Bit (w' << t) | v of a mask is set when an entry
    has that magnitude index, and bit a*t+e of a U code when U_ae = -1.

    For rows R with V-codes y_j, K[(d, i), v] counts the columns j with
    sign bit d in row i and y_j = v, rows of R zeroed.  For columns C with
    W-codes x_i, N[w', v] = sum_(d, i) [x_i xor d*(2^t - 1) = w'] K[(d, i), v]
    less, per column c_a of C, the rows i outside R with z_a(x_i) = w' at
    v = y_(c_a), z_a(x) = x xor bit_a(x)*(2^t - 1); the bit is set where
    N > 0.  K and N are float32 products of 0/1 arrays and counts whose
    partial sums are integers of at most (M - t)*M < 2^24, exact in any
    order.  The rows outside R are a second 0/1 array beside K, whose
    product counts the rows at x_i = w' or w' xor (2^t - 1).  K is formed
    once per tile of row selections, as many as the budget allows, and the
    column side once per tile and sub-block of column selections, whose
    masks and U codes are one block; U_ae is bit e of the W-code of row
    r_a.  H stays int8, read in row blocks, and no working array holds more
    than _SCREEN_BUDGET elements.
    """
    m, n, span = len(signs), len(sel), 1 << t
    assert (m - t) * m < 2**24, f"order {m} is outside the exact float32 range"
    levels = np.arange(span, dtype=np.uint8)
    clear = ((levels[:, None] >> np.arange(t) & 1) == 0).astype(np.float32)  # [w', a]
    weight = (1 << levels).astype(np.float32)  # of v in a span of the mask
    shift = np.arange(span, dtype=np.uint64)[:, None, None] * np.uint64(span)  # of w'
    step = max(1, _SCREEN_BUDGET // m)  # rows of H per product
    rows = max(1, _SCREEN_BUDGET // (2 * m * (span + 1)))  # of K and the rows outside R
    for lo, rsel, cols in _tiles(sel, start, bases, rows * n):
        nr = len(rsel)
        hot = (_codes(signs, rsel).T[..., None] == levels).astype(np.float32)  # [j, r, v]
        k = np.empty((2, m, nr, span), dtype=np.float32)  # [d, i, r, v]
        for i0 in range(0, m, step):  # the columns with sign bit 1, then those with 0
            k[1, i0:i0 + step] = ((signs[i0:i0 + step] < 0).astype(np.float32)
                                  @ hot.reshape(m, -1)).reshape(-1, nr, span)
        k[0] = hot.sum(axis=0) - k[1]
        outside = np.ones((2, m, nr), dtype=np.float32)  # [d, i, r]: i not in R
        k[:, rsel.T, np.arange(nr)] = outside[:, rsel.T, np.arange(nr)] = 0  # U and V rows
        per = max(1, _SCREEN_BUDGET // (span * max(2 * m, (span + 1) * nr)))
        for c0 in range(0, len(cols), per):
            csel = cols[c0:c0 + per]
            nc = len(csel)
            x = _codes(signs.T, csel)  # [c, i]: W-code x_i; bit e of x_(r_a) is U_ae = -1
            is_w = levels[:, None, None] == x  # [w', c, i]: x_i = w'
            both = np.concatenate([is_w, is_w[::-1]], axis=2).astype(np.float32).reshape(
                span * nc, 2 * m)  # d = 0, 1
            counts = (both @ k.reshape(2 * m, -1)).reshape(span, nc, nr, span)
            rest = (both @ outside.reshape(2 * m, -1)).reshape(span, nc, nr, 1)
            # rows outside R at x_i = w' or w' xor (2^t - 1) have z_a(x_i) = w' for a clear in w'
            taken = (clear @ hot[csel.T].reshape(t, -1)).reshape(span, nc, nr, span)
            seen = (counts > taken * rest).astype(np.float32) @ weight  # [w', c, r]
            occ = np.bitwise_or.reduce(seen.astype(np.uint64) << shift, axis=0)  # [c, r]
            u = sum(x[:, rsel[:, a]].astype(np.int16) << a * t for a in range(t))
            yield lo + c0, len(cols), occ.T, u.T


def _distinct_pairs(parts: list, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(occ, u, first): each distinct (mask, U code) pair among the parts
    (occ, u, base), once, with the least base where it occurs.

    A mask has 2^(2t) bits and a code t^2; at t = 3 the mask is replaced by
    its index among the distinct masks.  Each pair packs into one uint64
    with the rank of its base in the low bits, so one plain sort puts the
    least base of every pair at the head of its run."""
    if not parts:
        return np.empty(0, np.uint64), np.empty(0, np.int16), np.empty(0, np.int64)
    occ, u, base = (np.concatenate(x) for x in zip(*parts))
    masks = np.unique(occ) if t == 3 else None
    pair = (np.searchsorted(masks, occ).astype(np.uint64) if t == 3 else occ) << np.uint64(t * t)
    pair |= u.astype(np.uint64)
    bases, rank = None, base - base.min()
    if int(pair.max()).bit_length() + int(rank.max()).bit_length() > 64:  # rank far-apart bases
        bases = np.sort(base)
        rank = np.searchsorted(bases, base)
    low = np.uint64(int(rank.max()).bit_length())
    key = pair << low | rank.astype(np.uint64)
    key.sort()
    pair = key >> low
    head = np.flatnonzero(np.diff(pair, prepend=~pair[:1]))
    pair, rank = pair[head], (key[head] & (np.uint64(1) << low) - np.uint64(1)).astype(np.int64)
    occ = pair >> np.uint64(t * t)
    return (masks[occ.astype(np.intp)] if t == 3 else occ,
            (pair & np.uint64((1 << t * t) - 1)).astype(np.int16),
            rank + base.min() if bases is None else bases[rank])


def _pairs(signs: np.ndarray, t: int, sel: np.ndarray,
           bases: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(occ, u, first): each distinct (occurrence mask, U code) pair of the
    bases 0..bases-1 and the first base where it occurs, in no set order.
    The blocks of ``_occurrence_blocks`` are reduced to their distinct
    pairs whenever they hold more than a sixteenth of the budget or twice
    the pairs the last reduction kept."""
    parts, held, kept = [], 0, 0
    for origin, stride, occ, u in _occurrence_blocks(signs, t, sel, bases):
        base = origin + stride * np.arange(len(occ))[:, None] + np.arange(occ.shape[1])
        parts.append((occ.ravel(), u.ravel(), base.ravel()))
        held += occ.size
        if held > max(_SCREEN_BUDGET // 16, 2 * kept):
            parts = [_distinct_pairs(parts, t)]
            held = kept = len(parts[0][0])
    return parts[0] if held == 1 else _distinct_pairs(parts, t)  # one base is distinct


class _EpsScreen:
    """Exact epsilon and window check of every magnitude index (w' << t) | v,
    bit a of w' (of v) set when D_ij W_ia (V_aj) is -1, for the given U codes
    and each variant, ranked on one global scale.

    The value of an index is 1/sqrt(M) + s(w')^T C s(v), and C's closed
    form is sum_p c_p U_eff^p, U_eff = U (Y1) or -U (Y2), with c_p that
    depend only on U's relation (kappa, gamma, vartheta) and the variant.
    So the table is built per relation class: one batched product
    X_p = S U^p S^T (p = 0, 1, 2, S the rows s(x)) gives every U's X_p at
    every index, small int64 with |X_p| <= t^(p+1); the distinct
    (relation, variant, X_0, X_1, X_2) are found on arrays; and only those
    are evaluated, on Python ints, by the class's corner form
    (``_class_form``) as integer triples (p, q, L) for (p + q*sqrt(c))/L.
    The result is the value EpsHadamard's ``_code_values`` gives the index.

    ``keys`` lists the distinct magnitudes as ascending integer keys
    (``_magnitudes``) and ``mag_ids[lut[u], vi]`` the magnitude of each
    index.  From the keys to the ranks only integers are used: each
    epsilon's side, each comparison of two epsilons (``_eps_ranks``) and
    each window test (``_outside``) is one integer sign test.
    ``key_ranks[g]`` is the rank of key g (equal epsilons share a rank), or
    ``sentinel`` for a magnitude outside the reduction window; ``eps[r]`` is
    the ExactEps of rank r, built from one key of that rank where it is read.
    ``levels[lut[u], vi]`` lists the ranks of U code u and variant index vi
    in descending order, ``level_masks`` the indices of each.
    """

    def __init__(self, u_codes: np.ndarray, t: int, m: int):
        self.core = square_free_split(m)[1]
        self.lut = np.full(1 << (t * t), -1, dtype=np.intp)
        self.lut[u_codes] = np.arange(len(u_codes))
        u = 1 - 2 * (u_codes[:, None] >> np.arange(t * t) & 1).reshape(-1, t, t)
        rel = _relations(u)
        assert _relation_holds(u, *(x[:, None, None] for x in rel)), \
            "Cayley-Hamilton relation must hold"
        s = 1 - 2 * (np.arange(1 << t)[:, None] >> np.arange(t) & 1)  # rows s(x)
        x = [s @ s.T, s @ u @ s.T, s @ (u @ u) @ s.T]  # X_0 is the same for every U
        top = t**3
        assert all(int(np.abs(xp).max()) <= top for xp in x), "|X_p| exceeds t^(p+1)"
        # one int64 per (U, variant, index): the relation, in base-64 digits
        # (each parameter is at most 6 in size), the variant and the X_p
        radix = 2 * top + 1
        code = ((x[0] + top) * radix + x[1] + top) * radix + x[2] + top
        relation = (rel[0] + 32 << 12) + (rel[1] + 32 << 6) + rel[2] + 32
        key = ((relation.reshape(-1, 1, 1) * 2 + np.arange(2)[:, None]) * radix**3
               + code.reshape(len(u), 1, -1))
        distinct = np.unique(key)
        forms: dict = {}
        values = []
        for k in distinct.tolist():
            c, k = divmod(k, radix**3)
            if c not in forms:
                rc, vi = divmod(c, 2)
                kappa, gamma, vartheta = ((rc >> shift & 63) - 32 for shift in (12, 6, 0))
                forms[c] = _class_form((kappa, gamma, vartheta if t == 3 else None),
                                       _VARIANTS[vi], m)
            corner, a, b = forms[c]
            xs = (1, k // radix**2 - top, k // radix % radix - top, k % radix - top)
            values.append((sum(map(operator.mul, a, xs)), sum(map(operator.mul, b, xs)), corner))
        mag_of_value, self.keys = _magnitudes(values, self.core)
        self.mag_ids = mag_of_value[np.searchsorted(distinct, key)]
        key_ranks, reps = _eps_ranks(self.keys, m - t, self.core)
        self.eps = _RankEps(reps, m - t, self.core)
        self.sentinel = len(reps)
        window = _window(t, m)
        self.outside = [_outside(key, window, self.core) for key in self.keys]
        self.key_ranks = np.array(key_ranks, dtype=np.int64)
        self.key_ranks[np.array(self.outside, dtype=bool)] = self.sentinel
        ranks = self.key_ranks[self.mag_ids]  # (u, variant, magnitude index)
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

    def violation(self, occ: int, ui: int, vi: int, t: int, m: int) -> str:
        """The window failure (``_window_error``) of the occurring indices."""
        ids = sorted({int(g) for b, g in enumerate(self.mag_ids[ui, vi]) if occ >> b & 1})
        return _window_error([self.keys[g] for g in ids], t, m, self.core)


class _RankEps:
    """The ExactEps of each rank of an _EpsScreen, built from the rank's key
    where it is read: a search reads only the winner's."""

    def __init__(self, reps: list[tuple], k: int, core: int):
        self._reps, self._k, self._core = reps, k, core

    def __getitem__(self, rank: int) -> ExactEps:
        return ExactEps(self._reps[rank], self._k, self._core)


class _SplitScreen:
    """The first ``cap`` >= 1 splits of a scope, ranked through their distinct
    (occurrence mask, U code) pairs; no array it holds grows with the
    number of splits, only with the number of distinct pairs.

    Splits are (rows, cols, negation pair) in search order; base b =
    (rows, cols) is row selection b // n, column selection b % n.  Candidate
    i is split i // 2 with variant _VARIANTS[i % 2], and split s is base
    s // nneg2 with negation pair s % nneg2.  Two bases with the same mask
    and U code, no negations applied, have the same rank at every negation
    pair and variant.  So ``occ``, ``u`` and ``first`` hold each distinct
    pair of the bases whose every negation pair is under the cap and the
    first base where it occurs (``_pairs``), and, when the cap ends partway
    through a base's negation pairs, that base as a pair of its own.
    ``table`` covers their U codes under the negation pairs (the last base's
    only under those within the cap), and ``best`` ranks every pair once.
    """

    def __init__(self, h: SignMatrix, t: int, scope: str, cap: int):
        self.h, self.t = h, t
        self.sel, self.negs = _scope_axes(h.order, t, scope)
        masks = [sum(b << a for a, b in enumerate(neg)) for neg in self.negs]  # bit a: negate a
        self.nneg2 = len(masks) ** 2
        self.rn = np.repeat(masks, len(masks))  # row mask of negation pair index
        self.cn = np.tile(masks, len(masks))  # column mask of negation pair index
        self.u_flip = sum(  # U_ab -> rn_a U_ab cn_b
            (((self.rn >> a) ^ (self.cn >> b)) & 1) << (a * t + b)
            for a, b in itertools.product(range(t), repeat=2))
        self.flips = (self.cn << t) | self.rn  # W -> W * cn, V -> rn * V; D unchanged
        self.size = len(self.sel) ** 2 * self.nneg2  # splits in scope
        self.splits = min(cap, self.size)
        full, rem = divmod(self.splits, self.nneg2)  # bases with every negation pair; the rest
        self.occ, self.u, self.first = _pairs(h.rows, t, self.sel, full)
        u_codes = (self.u[:, None] ^ self.u_flip).ravel()
        if rem:
            (_, _, occ, u), = _occurrence_blocks(h.rows, t, self.sel, full + 1, full)
            self.occ, self.u = np.append(self.occ, occ[0]), np.append(self.u, u[0])
            self.first = np.append(self.first, full)
            u_codes = np.append(u_codes, u[0, 0] ^ self.u_flip[:rem])
        self.table = _EpsScreen(np.unique(u_codes), t, h.order)

    def candidate(self, i: int) -> tuple[BlockSplit, str]:
        s, vi = divmod(i, 2)
        base, ni = divmod(s, self.nneg2)
        r, c = divmod(base, len(self.sel))
        row_negate, col_negate = divmod(ni, len(self.negs))
        split = BlockSplit(self.h, self.sel[r], self.sel[c], self.negs[row_negate],
                           self.negs[col_negate])
        return split, _VARIANTS[vi]

    def ranks(self, occ: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(len(occ), 2 * nneg2) ranks, in search order, of the candidates of
        a base with each occurrence mask and U code (no negations applied),
        for U codes whose every negation is in the table."""
        ui = self.table.lut[u[:, None] ^ self.u_flip]
        return self.table.ranks(_xor_permuted(occ, self.flips), ui).reshape(len(occ), -1)

    def best(self) -> tuple[int, int]:
        """(rank, candidate index) of the first minimum in search order: the
        least rank, at the least first base of a pair that takes it, at
        that pair's first negation pair and variant that takes it.  Raises
        CertificationError for the first candidate, found the same way, with
        a magnitude outside the window."""
        table, per_base, stop = self.table, 2 * self.nneg2, 2 * self.splits
        chunk = max(1, _SCREEN_BUDGET // (per_base * table.levels.shape[-1]))
        best, bad = (table.sentinel + 1, stop), stop
        for at in range(0, len(self.occ), chunk):
            index = self.first[at:at + chunk, None] * per_base + np.arange(per_base)
            ranks = self.ranks(self.occ[at:at + chunk], self.u[at:at + chunk])
            ranks[index >= stop] = table.sentinel + 1  # past the cap
            low = int(ranks.min())
            best = min(best, (low, int(index[ranks == low].min())))
            hits = index[ranks == table.sentinel]
            if hits.size:
                bad = min(bad, int(hits.min()))
        if bad < stop:
            split, variant = self.candidate(bad)
            base, ni = divmod(bad // 2, self.nneg2)
            p = int(np.flatnonzero(self.first == base)[0])
            occ = int(_xor_permuted(self.occ[p:p + 1], self.flips)[0, ni])
            error = table.violation(occ, int(table.lut[self.u[p] ^ self.u_flip[ni]]), bad % 2,
                                    self.t, self.h.order)
            raise CertificationError(f"{error} in {split!r} {variant}")
        return best


def best_reduction(h: SignMatrix, t: int, search_scope: str = "corner-only",
                   cap: int = 100_000) -> EpsHadamard:
    """Minimum-epsilon reduction over the splits in scope.

    Both variants of every candidate split are scored exactly, without
    building them: |Y_ij| depends only on the magnitude index
    (D_ij w_i, v_j), so a candidate's epsilon is the largest epsilon among
    the indices its entries take, compared by integer sign tests.  A scope
    of one split (corner-only) reads its indices off one code scan that
    both variants share (``_reduce_one_split``).  A larger scope is ranked
    by the split screen (``_SplitScreen``; see the module docstring), and
    the winner's screened epsilon is checked against its rebuilt one by
    ``ExactEps.cmp``, an independent route; the tests compare the one-split
    route with that screen and with building every candidate.  An occurring
    index outside the reduction window raises CertificationError, naming
    the first candidate that has one, as that candidate's construction
    would.

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
    if cap <= 0:
        raise DomainError("no candidate splits in scope")

    if search_scope == "corner-only":  # one split
        return _reduce_one_split(corner_split(h, t))
    search = _SplitScreen(h, t, search_scope, cap)
    rank, i = search.best()
    split, variant = search.candidate(i)
    y = reduce_split(split, variant)
    if y.epsilon.cmp(search.table.eps[rank]) != 0:
        raise CertificationError(
            f"screened epsilon {search.table.eps[rank]!r} != rebuilt {y.epsilon!r}"
        )
    if search.size > cap:
        raise ResourceLimitError(
            f"search scope exceeds cap of {cap} splits", partial_best=y
        )
    return y

