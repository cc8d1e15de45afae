"""Unbiasedness statistics, bound checks, and classification.

Inner products between vectors of different bases are structurally sparse:
with mu = 1 the supports of two cross-basis vectors share at most one
coordinate, so every cross inner product is zero or a single product of
two Y entries.  For a basis pair the shared points, counted by their
(position in the one block, position in the other), form a k x k matrix.
In the affine design every point a*s + b sits at position a of its block
in every class, so that matrix is s*I for every basis pair, and one
contraction of the per-column magnitude histograms of Y, weighted by s and
the number of basis pairs, accounts for every one of the d^2 vector pairs
of every basis pair without materializing it.

Values are collected by exact equality (no floating tolerance exists in
classification); beta = sqrt(d) * max|<u,v>| is held exactly via its
square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (Scalar, cmp_values, exact_sqrt, quad_to_float, sign_of, sqrt_minus_cmp,
                      square_free_split)
from .bases import BasisSet
from .epsh import ExactEps, _key_value, _magnitudes
from .errors import CertificationError, DomainError

CLASS_MUB = "MUB"
CLASS_APMUB = "APMUB"
CLASS_ARMUB = "beta-ARMUB"


class ExactBeta:
    """beta = sqrt(d) * max_ip, compared exactly through its square."""

    __slots__ = ("max_ip", "d")

    def __init__(self, max_ip: Scalar, d: int):
        if sign_of(max_ip) < 0:
            raise DomainError("max inner product magnitude cannot be negative")
        self.max_ip = max_ip
        self.d = d

    def le(self, bound) -> bool:
        """beta <= bound for a nonnegative rational/scalar bound."""
        b = Fraction(bound) if isinstance(bound, (int, str)) else bound
        if sign_of(b) < 0:
            return False
        return cmp_values(self.d * self.max_ip * self.max_ip, b * b) <= 0

    def lt(self, bound) -> bool:
        b = Fraction(bound) if isinstance(bound, (int, str)) else bound
        if sign_of(b) <= 0:
            return False
        return cmp_values(self.d * self.max_ip * self.max_ip, b * b) < 0

    def __float__(self):
        return math.sqrt(self.d) * quad_to_float(self.max_ip, 70)

    def __repr__(self):
        return f"ExactBeta({float(self):.6g})"


@dataclass
class DeltaValue:
    """An exact |<u, v>| and its count over all ordered cross pairs checked: its Scalar
    or (cross_stats) its key (p, q, L) over sqrt(core), which ``value`` builds on read."""

    _value: Optional[Scalar]
    count: int
    key: Optional[tuple] = None
    core: int = 1

    @property
    def value(self) -> Scalar:
        if self._value is None:
            self._value = _key_value(self.key, self.core)
        return self._value


@dataclass
class UnbiasednessReport:
    d: int
    s: int
    k: int
    num_bases: int
    t: int
    n: Optional[int]
    epsilon: ExactEps
    epsilon_upper: ExactEps
    delta: list[DeltaValue]  # ascending by value
    beta: ExactBeta
    pairs_checked: int
    coverage: dict  # {"basis_pairs": distinct basis pairs, every vector pair of each}
    classification: str
    window_ok: bool
    beta_le_eps_chain: bool  # beta <= (1+eps)^2 sqrt(d)/k, exact
    max_abs_y_sq_key: tuple  # (max |Y_ij|)^2 as a key (p, q, L) in lowest terms
    radicand: int

    @property
    def max_abs_y_sq(self) -> Scalar:
        """(max |Y_ij|)^2, for the formula-route certificate."""
        return _key_value(self.max_abs_y_sq_key, square_free_split(self.radicand)[1])

    def bound_beta_float(self) -> float:
        return (1.0 + float(self.epsilon)) ** 2 * math.sqrt(self.d) / self.k


def _ip_le_eps_square(max_ip: Scalar, eps: ExactEps, k: int) -> bool:
    """Exact check of k * max_ip <= (1 + eps)^2."""
    lhs = k * max_ip
    if eps.side >= 0:
        return cmp_values(lhs, eps.q) <= 0
    # (1+eps)^2 = (2 - sqrt(q))^2 = 4 + q - 4 sqrt(q)
    rhs_linear = 4 + eps.q - lhs
    return sqrt_minus_cmp(16 * eps.q, rhs_linear) <= 0


def cross_stats(bs: BasisSet) -> UnbiasednessReport:
    """Exact inner-product statistics over every vector pair of every pair
    of distinct bases.

    Needs the design's certified mu = 1.  Every point lies at position
    a = point // s of its block in every class, so per basis pair the k x k
    count of shared points by position pair is s*I; with mu = 1 each shared
    point is shared by exactly one block pair.  With col_counts Y's column
    histogram of magnitudes (``EpsHadamard.abs_value_counts``: row j counts
    the entries of column j at each distinct |Y_ij|), s * col_counts^T @
    col_counts histograms the nonzero products of the basis pair, and the
    s^2 - d block pairs that share no point give k^2 zeros each.  An entry
    of col_counts^T @ col_counts is at most k^3 (each column of Y holds k
    entries), asserted below 2^63, so the int64 product is exact; the
    weights are applied in Python ints.

    Each product of two magnitudes (p1 + q1*sqrt(c))/L1 and
    (p2 + q2*sqrt(c))/L2 (``EpsHadamard.abs_value_keys``) is the integer
    triple (p1*p2 + c*q1*q2, p1*q2 + p2*q1, L1*L2).  col_counts^T @
    col_counts is symmetric, so each unordered pair v <= w is formed once,
    off-diagonal weights doubled.  The triples pass once through
    ``epsh._magnitudes``, the route by which Y's codes reach their
    magnitudes, which reduces, merges and orders them on integers; the
    counts of equal values are summed as Python ints.  Values, and (max |Y_ij|)^2,
    stay keys (``DeltaValue``); only max_ip becomes a Scalar, for beta.
    """
    nb = bs.num_bases
    if nb < 2:
        raise DomainError("need at least two bases for cross statistics")
    r = bs.rbd
    if r.mu != 1:
        raise CertificationError(
            f"cross statistics need a design with certified mu = 1, got mu={r.mu}"
        )
    col_counts, keys = bs.y.abs_value_counts(), bs.y.abs_value_keys()
    core = square_free_split(bs.y.radicand)[1]
    d, s, k = r.d, r.s, r.k
    basis_pairs = nb * (nb - 1) // 2
    assert k**3 < 2**63, "cross-statistics counts would overflow int64"
    vv = col_counts.T @ col_counts
    weight = s * basis_pairs
    zeros_total = basis_pairs * (s * s - d) * k * k

    # collapse the id histogram into exact value counts
    products, weights = ([(0, 0, 1)], [zeros_total]) if zeros_total else ([], [])
    for v, w in zip(*(ix.tolist() for ix in vv.nonzero())):
        if v > w:  # vv is symmetric: (v, w) with v < w stands for both
            continue
        (p1, q1, l1), (p2, q2, l2) = keys[v], keys[w]
        products.append((p1 * p2 + core * q1 * q2, p1 * q2 + p2 * q1, l1 * l2))
        weights.append(weight * int(vv[v, w]) * (1 if v == w else 2))
    ids, distinct = _magnitudes(products, core)
    counts = [0] * len(distinct)
    for g, c in zip(ids.tolist(), weights):
        counts[g] += c
    delta = [DeltaValue(None, c, key, core) for key, c in zip(distinct, counts)]
    max_ip = delta[-1].value
    beta = ExactBeta(max_ip, bs.d)

    y = bs.y
    t = y.provenance.t
    source_order = y.provenance.source_order
    n = source_order // 4 if source_order % 4 == 0 else None
    p, q, scale = keys[-1]
    (ysq,) = _magnitudes([(p * p + core * q * q, 2 * p * q, scale * scale)], core)[1]
    return UnbiasednessReport(
        d=bs.d,
        s=bs.s,
        k=k,
        num_bases=nb,
        t=t,
        n=n,
        epsilon=y.epsilon,
        epsilon_upper=y.epsilon_upper,
        delta=delta,
        beta=beta,
        pairs_checked=basis_pairs * bs.d * bs.d,
        coverage={"basis_pairs": basis_pairs},
        classification=classify_delta(delta, beta, bs.d),
        window_ok=y.window_ok,
        beta_le_eps_chain=_ip_le_eps_square(max_ip, y.epsilon, k),
        max_abs_y_sq_key=ysq,
        radicand=y.radicand,
    )


def classify_delta(delta: list[DeltaValue], beta: ExactBeta, d: int) -> str:
    """Classification rules over the exact distinct-value set.

    MUB iff the value set is exactly {1/sqrt(d)}; APMUB iff it is
    {0, beta/sqrt(d)} with beta <= 2; otherwise beta-ARMUB.
    """
    if len(delta) == 1 and sign_of(delta[0].value) > 0:
        v = delta[0].value
        if cmp_values(d * v * v, Fraction(1)) == 0:
            return CLASS_MUB
    if (
        len(delta) == 2
        and sign_of(delta[0].value) == 0
        and beta.le(Fraction(2))
    ):
        return CLASS_APMUB
    return CLASS_ARMUB


# ---------------------------------------------------------------------------
# Bound ledger
# ---------------------------------------------------------------------------

@dataclass
class LedgerLine:
    check: str
    lhs: float
    rhs: float
    applicable: bool
    verdict: str  # "pass" | "fail" | "n/a"
    detail: str = ""

    def as_dict(self):
        return {
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "applicable": self.applicable,
            "detail": self.detail,
        }


_RHO = {1: Fraction(1, 2), 2: Fraction(2), 3: Fraction(4)}


def check_theorem_bounds(report: UnbiasednessReport) -> list[LedgerLine]:
    """Exact pass/fail ledger for every bound claimed of the construction.

    Lines outside their stated hypotheses are marked n/a rather than
    failed (e.g. the epsilon < 1 guarantee needs t < sqrt(n); the rho_3
    bound is stated for n >= 4).
    """
    lines: list[LedgerLine] = []
    eps, t, n = report.epsilon, report.t, report.n

    # epsilon <= rho_t / sqrt(n)
    applicable = t in _RHO and n is not None and n >= 1 and (t != 3 or n >= 4)
    if applicable:
        bound = _RHO[t] / exact_sqrt(n)
        ok = eps.le_bound(bound)
        lines.append(LedgerLine(
            "eps-le-rho/sqrt(n)", float(eps), quad_to_float(bound),
            True, "pass" if ok else "fail",
            f"rho_{t}={_RHO[t]}, n={n}",
        ))
    else:
        lines.append(LedgerLine(
            "eps-le-rho/sqrt(n)", float(eps), float("nan"), False, "n/a",
            "stated for t in {1,2,3}" + (", n >= 4 when t = 3" if t == 3 else ""),
        ))

    # epsilon < 1, guaranteed when t < sqrt(n)
    applicable = n is not None and t >= 1 and t * t < n
    verdict = "n/a"
    if applicable:
        verdict = "pass" if eps.lt_bound(Fraction(1)) else "fail"
    lines.append(LedgerLine(
        "eps-lt-1", float(eps), 1.0, applicable, verdict,
        "guaranteed only for t < sqrt(n)",
    ))

    # entry window (certified at construction when 1 <= t < sqrt(4n))
    applicable = t >= 1 and t * t < report.radicand
    lines.append(LedgerLine(
        "entry-window", 0.0 if report.window_ok else 1.0, 0.0,
        applicable,
        ("pass" if report.window_ok else "fail") if applicable else "n/a",
        "every |Y_ij| within the reduction window",
    ))

    # beta <= (1+eps)^2 sqrt(d)/k
    lines.append(LedgerLine(
        "beta-le-(1+eps)^2*sqrt(d)/k", float(report.beta),
        report.bound_beta_float(), True,
        "pass" if report.beta_le_eps_chain else "fail",
        "exact, via k*max_ip <= (1+eps)^2",
    ))

    # beta < 2, observed on k < s <= 2k: the abstract promises it "for proper
    # choices of parameters" with no exact hypothesis, so the gate is this
    # program's own and ledger_ok does not count the line (OBSERVED)
    applicable = report.k < report.s <= 2 * report.k
    verdict = "n/a"
    if applicable:
        verdict = "pass" if report.beta.lt(2) else "fail"
    lines.append(LedgerLine(
        "beta-lt-2", float(report.beta), 2.0, applicable, verdict,
        "stated for s > k with s, k of the same order",
    ))

    # basis count: emitted bases >= ceil(sqrt(d)) whenever s > k
    applicable = report.s > report.k
    root = math.isqrt(report.d)
    ceil_sqrt_d = root if root * root == report.d else root + 1
    verdict = "n/a"
    if applicable:
        verdict = "pass" if report.num_bases >= ceil_sqrt_d else "fail"
    lines.append(LedgerLine(
        "count-s-ge-ceil-sqrt(d)", float(report.num_bases), float(ceil_sqrt_d),
        applicable, verdict,
        f"bases={report.num_bases}, ceil(sqrt(d))={ceil_sqrt_d}",
    ))
    return lines


# lines that record an exact observation rather than a claim with a stated
# hypothesis; they keep their verdict, and ledger_ok does not count them
OBSERVED = ("beta-lt-2",)


def ledger_ok(lines: list[LedgerLine]) -> bool:
    """True when no line outside OBSERVED fails."""
    return all(line.verdict != "fail" for line in lines if line.check not in OBSERVED)
