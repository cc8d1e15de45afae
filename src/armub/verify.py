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
classification) and stay integer keys (p, q, L), the value
(p + q*sqrt(c))/L over the core c of Y's radicand (``algebra``).  Every
decision, the classification and each ledger line, is an integer sign test
on keys (``algebra._quad_sign``): beta = sqrt(d) * max|<u,v>| through
d * max_ip^2, epsilon through its key, and rho_t as an integer pair.
Floats are rendered once, for the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .algebra import _eps_side, _magnitudes, _quad_sign, key_str, key_to_float, square_free_split
from .bases import BasisSet
from .epsh import ExactEps
from .errors import CertificationError, DomainError

CLASS_MUB = "MUB"
CLASS_APMUB = "APMUB"
CLASS_ARMUB = "beta-ARMUB"


class ExactBeta:
    """beta = sqrt(d) * max_ip for max_ip given by its key (p, q, L) over
    sqrt(c), compared exactly through beta^2 = d * max_ip^2 and rendered
    once."""

    __slots__ = ("key", "d", "core", "_float")

    def __init__(self, key: tuple, d: int, core: int):
        self.key, self.d, self.core = key, d, core
        self._float = math.sqrt(d) * key_to_float(key, core, 70)

    def cmp_two(self) -> int:
        """Sign of beta - 2: that of d * max_ip^2 - 4."""
        return _eps_side(self.key, self.d, self.core, 4)

    def __float__(self):
        return self._float

    def __repr__(self):
        return f"ExactBeta({float(self):.6g})"


@dataclass
class DeltaValue:
    """An exact |<u, v>| as its key (p, q, L) over sqrt(c), and its count over
    all ordered cross pairs checked."""

    key: tuple
    count: int


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

    def bound_beta_float(self) -> float:
        return (1.0 + float(self.epsilon)) ** 2 * math.sqrt(self.d) / self.k


def _ip_le_eps_square(max_ip: tuple, eps: ExactEps) -> bool:
    """Exact k * max_ip <= (1 + eps)^2 for the key of max_ip, with q = k*a^2
    of eps: (1 + eps)^2 is q on side >= 0, and (2 - sqrt(q))^2 on side -1,
    where the check is R = 4 + q - k*max_ip >= 0 and 16q <= R^2."""
    (vp, vq, vl), (p, q, scale), k, core = max_ip, eps.ksq, eps.k, eps.core
    r0, r1 = p * vl - k * vp * scale, q * vl - k * vq * scale  # (q - k*max_ip) * L * vl
    if eps.side >= 0:
        return _quad_sign(r0, r1, core) >= 0
    r0 += 4 * scale * vl
    w = 16 * scale * vl * vl  # 16q (L * vl)^2 = (p + q*sqrt(c)) * w
    return (_quad_sign(r0, r1, core) >= 0
            and _quad_sign(p * w - r0 * r0 - core * r1 * r1, q * w - 2 * r0 * r1, core) <= 0)


def _eps_le_rho(eps: ExactEps, rho: tuple[int, int], n: int) -> bool:
    """Exact eps <= b = rho/sqrt(n) for rho = num/den given as the integer
    pair (num, den), den > 0.  With q = k*a^2 and X = q - 1 - b^2,
    sqrt(q) <= 1 + b is X <= 0 or X^2 <= 4b^2 (side +1), and
    sqrt(q) >= 1 - b is b >= 1, X >= 0 or X^2 <= 4b^2 (side -1)."""
    if eps.side == 0:
        return True
    (p, q, scale), core = eps.ksq, eps.core
    num, den = rho[0] ** 2, rho[1] ** 2 * n  # b^2 = num/den
    x0, x1 = den * (p - scale) - num * scale, den * q  # X * L * den
    if _quad_sign(x0, x1, core) * eps.side <= 0 or (eps.side < 0 and num >= den):
        return True
    return _quad_sign(x0 * x0 + core * x1 * x1 - 4 * num * den * scale * scale,
                      2 * x0 * x1, core) <= 0


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
    (p2 + q2*sqrt(c))/L2 (``EpsHadamard.distinct_abs_values``) is the integer
    triple (p1*p2 + c*q1*q2, p1*q2 + p2*q1, L1*L2).  col_counts^T @
    col_counts is symmetric, so each unordered pair v <= w is formed once,
    off-diagonal weights doubled.  The triples pass once through
    ``algebra._magnitudes``, the route by which Y's codes reach their
    magnitudes, which reduces, merges and orders them on integers; the
    counts of equal values are summed as Python ints.  Values, max_ip and
    (max |Y_ij|)^2 stay keys (``DeltaValue``, ``ExactBeta``).
    """
    nb = bs.num_bases
    if nb < 2:
        raise DomainError("need at least two bases for cross statistics")
    r = bs.rbd
    if r.mu != 1:
        raise CertificationError(
            f"cross statistics need a design with certified mu = 1, got mu={r.mu}"
        )
    col_counts, keys = bs.y.abs_value_counts(), bs.y.distinct_abs_values()
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
    delta = [DeltaValue(key, c) for key, c in zip(distinct, counts)]
    beta = ExactBeta(distinct[-1], bs.d, core)

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
        beta_le_eps_chain=_ip_le_eps_square(distinct[-1], y.epsilon),
        max_abs_y_sq_key=ysq,
        radicand=y.radicand,
    )


def classify_delta(delta: list[DeltaValue], beta: ExactBeta, d: int) -> str:
    """Classification rules over the exact distinct-value set.

    MUB iff the value set is exactly {1/sqrt(d)}, that is d * v^2 = 1; APMUB
    iff it is {0, beta/sqrt(d)} with beta <= 2; otherwise beta-ARMUB.
    """
    if len(delta) == 1 and _eps_side(delta[0].key, d, beta.core) == 0:
        return CLASS_MUB
    if len(delta) == 2 and delta[0].key[:2] == (0, 0) and beta.cmp_two() <= 0:
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


_RHO = {1: (1, 2), 2: (2, 1), 3: (4, 1)}  # rho_t as (numerator, denominator)


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
        (num, den), (f, core) = _RHO[t], square_free_split(n)
        # rho/sqrt(n) = rho*sqrt(c)/(f*c)
        bound = (0, num, den * f * core) if core > 1 else (num, 0, den * f)
        lines.append(LedgerLine(
            "eps-le-rho/sqrt(n)", float(eps), key_to_float(bound, core),
            True, "pass" if _eps_le_rho(eps, (num, den), n) else "fail",
            f"rho_{t}={key_str((num, 0, den), 1)}, n={n}",
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
        verdict = "pass" if eps.lt_one() else "fail"
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
        verdict = "pass" if report.beta.cmp_two() < 0 else "fail"
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
